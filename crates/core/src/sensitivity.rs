//! Sensitivity Analysis (paper §2 H, Figure 2 H): perturb the data,
//! re-run the model, compare KPIs — plus the two auxiliary features the
//! paper describes, comparison analysis (per-driver sweeps) and
//! per-data analysis (single data point).

use crate::error::Result;
use crate::model_backend::TrainedModel;
use crate::perturbation::{PerturbationKind, PerturbationPlan, PerturbationSet};
use serde::{Deserialize, Serialize};

/// The blue bar / yellow bar pair of the sensitivity view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityResult {
    /// KPI column name.
    pub kpi_name: String,
    /// KPI on the original dataset (static blue bar).
    pub baseline_kpi: f64,
    /// KPI on the perturbed dataset (interactive yellow bar).
    pub perturbed_kpi: f64,
    /// The perturbations that produced it.
    pub perturbations: PerturbationSet,
}

impl SensitivityResult {
    /// Up-lift (positive, green) or down-lift (negative, red).
    pub fn uplift(&self) -> f64 {
        self.perturbed_kpi - self.baseline_kpi
    }

    /// Whether the perturbation improved the KPI.
    pub fn is_uplift(&self) -> bool {
        self.uplift() > 0.0
    }
}

/// One driver's KPI trend across a range of percentage perturbations
/// (the comparison-analysis feature: "the KPI achieved for every driver
/// individually across a range of perturbations").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonCurve {
    /// Driver name.
    pub driver: String,
    /// Percentage perturbations applied (x-axis).
    pub percentages: Vec<f64>,
    /// KPI at each perturbation (y-axis).
    pub kpi_values: Vec<f64>,
}

impl ComparisonCurve {
    /// KPI range covered by the sweep — a cheap single-number
    /// sensitivity summary for ranking drivers by leverage.
    pub fn kpi_span(&self) -> f64 {
        let max = self
            .kpi_values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self
            .kpi_values
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        max - min
    }
}

/// Per-data sensitivity: the effect of perturbing one data point
/// (e.g. one prospect) on its own predicted KPI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerDataSensitivity {
    /// Row index of the data point.
    pub row: usize,
    /// Prediction on the original row.
    pub baseline: f64,
    /// Prediction on the perturbed row.
    pub perturbed: f64,
}

impl PerDataSensitivity {
    /// Prediction change for this data point.
    pub fn uplift(&self) -> f64 {
        self.perturbed - self.baseline
    }
}

impl TrainedModel {
    /// Dataset-level sensitivity: apply the perturbations to every row
    /// and compare mean-prediction KPIs.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] for invalid perturbations.
    pub fn sensitivity(&self, set: &PerturbationSet) -> Result<SensitivityResult> {
        self.sensitivity_with(set, None).map(|(result, _)| result)
    }

    /// The one sensitivity implementation behind both the plain and the
    /// cached entry points — evaluation goes through the cache when one
    /// is supplied, so the two paths cannot drift apart.
    pub(crate) fn sensitivity_with(
        &self,
        set: &PerturbationSet,
        cache: Option<&crate::cached::EvalCache>,
    ) -> Result<(SensitivityResult, bool)> {
        let plan = self.compile_perturbations(set)?;
        let (perturbed_kpi, cached) = self.kpi_for_plan_maybe(&plan, cache)?;
        Ok((
            SensitivityResult {
                kpi_name: self.kpi_name().to_owned(),
                baseline_kpi: self.baseline_kpi(),
                perturbed_kpi,
                perturbations: set.clone(),
            },
            cached,
        ))
    }

    /// Comparison analysis: sweep each driver individually over the
    /// given percentage perturbations.
    ///
    /// Every grid point is a single-column [`PerturbationPlan`] applied
    /// through a copy-on-write overlay: no per-point `PerturbationSet`
    /// allocation, no re-validation, no full-matrix clone.
    ///
    /// # Errors
    /// [`crate::error::CoreError::Config`] on a non-finite percentage;
    /// propagated prediction errors.
    pub fn comparison_analysis(&self, percentages: &[f64]) -> Result<Vec<ComparisonCurve>> {
        self.comparison_with(percentages, None)
            .map(|(curves, _)| curves)
    }

    /// The one comparison-sweep implementation behind both entry
    /// points; the flag is true only when a non-empty grid was served
    /// entirely from the supplied cache.
    pub(crate) fn comparison_with(
        &self,
        percentages: &[f64],
        cache: Option<&crate::cached::EvalCache>,
    ) -> Result<(Vec<ComparisonCurve>, bool)> {
        // The sweep builds single-column plans directly rather than
        // compiling named sets, so it applies the same amount check.
        if percentages.iter().any(|p| !p.is_finite()) {
            return Err(crate::error::CoreError::Config(
                "comparison sweep has a non-finite percentage".into(),
            ));
        }
        let n_cols = self.driver_names().len();
        let mut curves = Vec::with_capacity(n_cols);
        let mut all_hit = true;
        for (j, driver) in self.driver_names().iter().enumerate() {
            let mut kpi_values = Vec::with_capacity(percentages.len());
            for &pct in percentages {
                let plan =
                    PerturbationPlan::single(j, PerturbationKind::Percentage(pct), true, n_cols);
                let (kpi, hit) = self.kpi_for_plan_maybe(&plan, cache)?;
                all_hit &= hit;
                kpi_values.push(kpi);
            }
            curves.push(ComparisonCurve {
                driver: driver.clone(),
                percentages: percentages.to_vec(),
                kpi_values,
            });
        }
        // An empty grid performed no lookups; never report it cached.
        let looked_up = n_cols > 0 && !percentages.is_empty();
        Ok((curves, looked_up && all_hit))
    }

    /// Bounds-check a per-data row index (shared by the plain and
    /// cached per-data paths).
    pub(crate) fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.matrix().n_rows() {
            return Err(crate::error::CoreError::Config(format!(
                "row {row} out of range ({} rows)",
                self.matrix().n_rows()
            )));
        }
        Ok(())
    }

    /// Per-data analysis: perturb a single data point and report its
    /// prediction change.
    ///
    /// # Errors
    /// [`crate::CoreError::Config`] for an out-of-range row or invalid
    /// perturbations.
    pub fn per_data_sensitivity(
        &self,
        row: usize,
        set: &PerturbationSet,
    ) -> Result<PerDataSensitivity> {
        self.check_row(row)?;
        let plan = self.compile_perturbations(set)?;
        self.per_data_for_plan(row, &plan)
    }

    /// The per-data evaluation core over an already-checked row and
    /// already-compiled plan (shared by the plain and cached paths, so
    /// a cached miss never re-validates or re-compiles).
    pub(crate) fn per_data_for_plan(
        &self,
        row: usize,
        plan: &PerturbationPlan,
    ) -> Result<PerDataSensitivity> {
        let original = self.matrix().row(row).to_vec();
        let mut perturbed_row = original.clone();
        plan.apply_to_row(&mut perturbed_row);
        Ok(PerDataSensitivity {
            row,
            baseline: self.predict_row(&original)?,
            perturbed: self.predict_row(&perturbed_row)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiKind;
    use crate::model_backend::{ModelConfig, TrainedModel};
    use crate::perturbation::Perturbation;
    use whatif_learn::Matrix;

    /// Exact linear model: y = 2*a - b + 5.
    fn model() -> TrainedModel {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, ((i * 3) % 6) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - r[1] + 5.0).collect();
        TrainedModel::fit(
            "y",
            KpiKind::Continuous,
            vec!["a".into(), "b".into()],
            Matrix::from_rows(&rows).unwrap(),
            y,
            &ModelConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn percentage_uplift_matches_linear_math() {
        let m = model();
        let set = PerturbationSet::new(vec![Perturbation::percentage("a", 10.0)]);
        let s = m.sensitivity(&set).unwrap();
        // mean(a) = 4.5; +10% adds 0.45 to a, 0.9 to y.
        assert!((s.uplift() - 0.9).abs() < 1e-6, "uplift {}", s.uplift());
        assert!(s.is_uplift());
        assert_eq!(s.kpi_name, "y");
    }

    #[test]
    fn negative_driver_gives_downlift() {
        let m = model();
        let set = PerturbationSet::new(vec![Perturbation::absolute("b", 1.0)]);
        let s = m.sensitivity(&set).unwrap();
        assert!((s.uplift() + 1.0).abs() < 1e-6);
        assert!(!s.is_uplift());
    }

    #[test]
    fn empty_perturbation_is_identity() {
        let m = model();
        let s = m.sensitivity(&PerturbationSet::new(vec![])).unwrap();
        assert!((s.uplift()).abs() < 1e-12);
    }

    #[test]
    fn comparison_curves_cover_all_drivers() {
        let m = model();
        let pct = vec![-20.0, 0.0, 20.0];
        let curves = m.comparison_analysis(&pct).unwrap();
        assert_eq!(curves.len(), 2);
        // Zero perturbation reproduces the baseline.
        for c in &curves {
            assert!((c.kpi_values[1] - m.baseline_kpi()).abs() < 1e-9);
        }
        // a has positive slope, b negative.
        assert!(curves[0].kpi_values[2] > curves[0].kpi_values[0]);
        assert!(curves[1].kpi_values[2] < curves[1].kpi_values[0]);
        // a's larger coefficient and mean give it the wider span.
        assert!(curves[0].kpi_span() > curves[1].kpi_span());
    }

    #[test]
    fn per_data_sensitivity_on_one_row() {
        let m = model();
        let set = PerturbationSet::new(vec![Perturbation::absolute("a", 2.0)]);
        let s = m.per_data_sensitivity(3, &set).unwrap();
        assert_eq!(s.row, 3);
        assert!((s.uplift() - 4.0).abs() < 1e-6, "2 units × coef 2");
        assert!(m.per_data_sensitivity(9999, &set).is_err());
    }

    #[test]
    fn invalid_perturbations_propagate() {
        let m = model();
        let bad = PerturbationSet::new(vec![Perturbation::percentage("zz", 1.0)]);
        assert!(m.sensitivity(&bad).is_err());
        assert!(m.per_data_sensitivity(0, &bad).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let m = model();
        let set = PerturbationSet::new(vec![Perturbation::percentage("a", 40.0)]);
        let s = m.sensitivity(&set).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: SensitivityResult = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
