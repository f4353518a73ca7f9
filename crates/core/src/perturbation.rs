//! Perturbations: the "what" of what-if (paper §2 F/G).
//!
//! The system supports the paper's two perturbation options — absolute
//! deltas and percentage changes — applied to every data point ("a 40%
//! increase on Open Marketing Email means increasing the marketing
//! emails opened for every prospect by 40%") or to a single data point
//! (per-data analysis).

use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};
use whatif_learn::{ColumnOverlay, Matrix};

/// How a driver is perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PerturbationKind {
    /// Add a fixed delta to every value.
    Absolute(f64),
    /// Scale every value by `1 + pct/100`.
    Percentage(f64),
}

impl PerturbationKind {
    /// Apply to a single value.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            PerturbationKind::Absolute(delta) => v + delta,
            PerturbationKind::Percentage(pct) => v * (1.0 + pct / 100.0),
        }
    }
}

/// One driver perturbation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Perturbation {
    /// Driver column to perturb.
    pub driver: String,
    /// Kind and magnitude.
    pub kind: PerturbationKind,
}

impl Perturbation {
    /// Absolute delta perturbation.
    pub fn absolute(driver: impl Into<String>, delta: f64) -> Perturbation {
        Perturbation {
            driver: driver.into(),
            kind: PerturbationKind::Absolute(delta),
        }
    }

    /// Percentage perturbation (`40.0` = +40 %).
    pub fn percentage(driver: impl Into<String>, pct: f64) -> Perturbation {
        Perturbation {
            driver: driver.into(),
            kind: PerturbationKind::Percentage(pct),
        }
    }

    /// Apply to a single value.
    pub fn apply_value(&self, v: f64) -> f64 {
        self.kind.apply(v)
    }
}

/// A set of simultaneous perturbations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerturbationSet {
    /// The perturbations, applied independently per driver.
    pub perturbations: Vec<Perturbation>,
    /// Clamp perturbed values at zero (business activity counts and
    /// spends cannot go negative). Defaults to `true`.
    pub clamp_non_negative: bool,
}

impl PerturbationSet {
    /// A set with non-negative clamping on (the business-data default).
    pub fn new(perturbations: Vec<Perturbation>) -> PerturbationSet {
        PerturbationSet {
            perturbations,
            clamp_non_negative: true,
        }
    }

    /// Disable the non-negative clamp (for data with legitimate negative
    /// values).
    pub fn without_clamp(mut self) -> PerturbationSet {
        self.clamp_non_negative = false;
        self
    }

    /// True when no perturbations are present.
    pub fn is_empty(&self) -> bool {
        self.perturbations.is_empty()
    }

    /// Validate that every perturbation's driver appears in
    /// `driver_names`, no driver is perturbed twice and every amount is
    /// finite.
    ///
    /// # Errors
    /// [`CoreError::Config`] per [`PerturbationSet::compile`].
    pub fn validate(&self, driver_names: &[String]) -> Result<()> {
        self.compile(driver_names).map(|_| ())
    }

    /// Compile into a [`PerturbationPlan`]: validated once, driver
    /// indices resolved once. All repeated evaluation (goal seeking,
    /// comparison sweeps, bulk scenarios) should go through the plan.
    ///
    /// Builds a throwaway [`DriverIndex`]; a model compiles against the
    /// one it built at fit time via [`PerturbationSet::compile_indexed`].
    ///
    /// # Errors
    /// [`CoreError::Config`] on unknown or duplicated drivers and on
    /// non-finite amounts.
    pub fn compile(&self, driver_names: &[String]) -> Result<PerturbationPlan> {
        self.compile_indexed(&DriverIndex::new(driver_names.to_vec()))
    }

    /// [`PerturbationSet::compile`] against a prebuilt driver index.
    /// Perturbations are checked in order and the first bad one is
    /// reported.
    ///
    /// # Errors
    /// [`CoreError::Config`] on unknown or duplicated drivers and on
    /// non-finite amounts (NaN from a JSON `null`, ±inf from an
    /// overflowing literal), which would otherwise be evaluated, cached
    /// and echoed back as `null`.
    pub fn compile_indexed(&self, drivers: &DriverIndex) -> Result<PerturbationPlan> {
        let mut steps: Vec<(usize, PerturbationKind)> =
            Vec::with_capacity(self.perturbations.len());
        for p in &self.perturbations {
            let Some(j) = drivers.get(&p.driver) else {
                return Err(CoreError::Config(format!(
                    "perturbation references unknown driver {:?}",
                    p.driver
                )));
            };
            // Distinct known names resolve to distinct columns, so a
            // repeated column is a repeated driver. Steps never outnumber
            // the drivers, so the scan stays short.
            if steps.iter().any(|&(c, _)| c == j) {
                return Err(CoreError::Config(format!(
                    "driver {:?} perturbed more than once",
                    p.driver
                )));
            }
            let (PerturbationKind::Absolute(amount) | PerturbationKind::Percentage(amount)) =
                p.kind;
            if !amount.is_finite() {
                return Err(CoreError::Config(format!(
                    "perturbation of driver {:?} has a non-finite amount",
                    p.driver
                )));
            }
            steps.push((j, p.kind));
        }
        Ok(PerturbationPlan {
            steps,
            clamp_non_negative: self.clamp_non_negative,
            n_cols: drivers.names().len(),
        })
    }

    /// Apply to an entire matrix whose columns are `driver_names`.
    ///
    /// This clones the full matrix; interactive paths use
    /// [`PerturbationPlan::overlay`] instead, which materializes only
    /// the perturbed columns. Kept as the simple owned-output API (and
    /// as the reference implementation the equivalence tests and
    /// benches compare the overlay path against).
    ///
    /// # Errors
    /// [`CoreError::Config`] per [`PerturbationSet::validate`].
    pub fn apply_to_matrix(&self, x: &Matrix, driver_names: &[String]) -> Result<Matrix> {
        Ok(self.compile(driver_names)?.apply_to_matrix(x))
    }

    /// Apply to a single feature row.
    ///
    /// # Errors
    /// [`CoreError::Config`] per [`PerturbationSet::validate`] or on a
    /// row/driver length mismatch.
    pub fn apply_to_row(&self, row: &[f64], driver_names: &[String]) -> Result<Vec<f64>> {
        let plan = self.compile(driver_names)?;
        if row.len() != driver_names.len() {
            return Err(CoreError::Config(format!(
                "row has {} values for {} drivers",
                row.len(),
                driver_names.len()
            )));
        }
        let mut out = row.to_vec();
        plan.apply_to_row(&mut out);
        Ok(out)
    }
}

/// Name → column lookup over a model's drivers. A model builds it once
/// at fit time, so compiling a plan per request hashes nothing and
/// allocates only the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverIndex {
    names: Vec<String>,
    /// Column indices sorted (stably) by name: among repeated names the
    /// last column sorts last and is the one found, as in a map collected
    /// in column order.
    by_name: Vec<usize>,
}

impl DriverIndex {
    /// Index `names` (aligned with matrix columns).
    pub fn new(names: Vec<String>) -> DriverIndex {
        let mut by_name: Vec<usize> = (0..names.len()).collect();
        by_name.sort_by(|&a, &b| names[a].cmp(&names[b]));
        DriverIndex { names, by_name }
    }

    /// The indexed names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column of the driver called `name`.
    pub fn get(&self, name: &str) -> Option<usize> {
        let end = self
            .by_name
            .partition_point(|&j| self.names[j].as_str() <= name);
        let j = *self.by_name[..end].last()?;
        (self.names[j] == name).then_some(j)
    }
}

/// A compiled perturbation set: names resolved to column indices,
/// duplicates rejected, ready for repeated zero-validation application.
///
/// Plans decouple the *what* (a user-facing [`PerturbationSet`]) from
/// the *how* (index-addressed column transforms). Hot paths — goal
/// inversion objectives, comparison sweeps, bulk scenario evaluation —
/// compile once and then apply the plan per candidate via
/// [`PerturbationPlan::overlay`], which materializes only the perturbed
/// columns over a shared base matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbationPlan {
    /// `(column index, kind)` pairs, at most one per column.
    steps: Vec<(usize, PerturbationKind)>,
    clamp_non_negative: bool,
    /// Width of the matrices this plan applies to.
    n_cols: usize,
}

impl PerturbationPlan {
    /// A plan perturbing a single column — the comparison-sweep and
    /// goal-seek fast path (no allocation of named sets, no validation).
    pub fn single(col: usize, kind: PerturbationKind, clamp: bool, n_cols: usize) -> Self {
        debug_assert!(col < n_cols);
        PerturbationPlan {
            steps: vec![(col, kind)],
            clamp_non_negative: clamp,
            n_cols,
        }
    }

    /// A plan applying one percentage change per column, in column
    /// order — the goal-inversion objective fast path.
    pub fn percentages(pcts: &[f64], clamp: bool) -> Self {
        PerturbationPlan {
            steps: pcts
                .iter()
                .enumerate()
                .map(|(j, &p)| (j, PerturbationKind::Percentage(p)))
                .collect(),
            clamp_non_negative: clamp,
            n_cols: pcts.len(),
        }
    }

    /// True when the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of perturbed columns.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Matrix width this plan expects.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Whether perturbed values are clamped at zero.
    pub fn clamps(&self) -> bool {
        self.clamp_non_negative
    }

    #[inline]
    fn transform(&self, kind: PerturbationKind, v: f64) -> f64 {
        let v = kind.apply(v);
        if self.clamp_non_negative {
            v.max(0.0)
        } else {
            v
        }
    }

    /// Build a copy-on-write view of `base` with only the perturbed
    /// columns materialized — zero full-matrix clones.
    ///
    /// # Errors
    /// [`CoreError::Config`] when `base` does not have the width the
    /// plan was compiled for.
    pub fn overlay<'a>(&self, base: &'a Matrix) -> Result<ColumnOverlay<'a>> {
        if base.n_cols() != self.n_cols {
            return Err(CoreError::Config(format!(
                "plan compiled for {} columns, matrix has {}",
                self.n_cols,
                base.n_cols()
            )));
        }
        let mut overlay = ColumnOverlay::new(base);
        for &(j, kind) in &self.steps {
            overlay
                .map_col(j, |v| self.transform(kind, v))
                .map_err(|e| CoreError::Config(e.to_string()))?;
        }
        Ok(overlay)
    }

    /// Apply to a full matrix, returning an owned copy (legacy path).
    pub fn apply_to_matrix(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        for &(j, kind) in &self.steps {
            for i in 0..out.n_rows() {
                out.set(i, j, self.transform(kind, out.get(i, j)));
            }
        }
        out
    }

    /// Apply in place to a single feature row of plan width.
    pub fn apply_to_row(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.n_cols);
        for &(j, kind) in &self.steps {
            row[j] = self.transform(kind, row[j]);
        }
    }

    /// Fold the plan's exact evaluation semantics — width, clamp flag,
    /// and every `(column, kind, magnitude)` step in order — into a
    /// fingerprint hasher. Two plans with equal fingerprint input
    /// produce bit-identical overlays, which is what makes plan
    /// fingerprints sound cache keys.
    pub fn write_fingerprint(&self, h: &mut whatif_cache::Hasher128) {
        h.write_usize(self.n_cols);
        h.write_bool(self.clamp_non_negative);
        h.write_usize(self.steps.len());
        for &(j, kind) in &self.steps {
            h.write_usize(j);
            match kind {
                PerturbationKind::Absolute(delta) => {
                    h.write_u8(0);
                    h.write_f64(delta);
                }
                PerturbationKind::Percentage(pct) => {
                    h.write_u8(1);
                    h.write_f64(pct);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    fn matrix() -> Matrix {
        Matrix::from_rows(&[vec![10.0, 1.0], vec![20.0, 2.0]]).unwrap()
    }

    #[test]
    fn percentage_scales_all_rows() {
        let set = PerturbationSet::new(vec![Perturbation::percentage("a", 40.0)]);
        let out = set.apply_to_matrix(&matrix(), &names()).unwrap();
        assert_eq!(out.col(0), vec![14.0, 28.0]);
        assert_eq!(out.col(1), vec![1.0, 2.0], "untouched driver");
    }

    #[test]
    fn absolute_adds_delta() {
        let set = PerturbationSet::new(vec![Perturbation::absolute("b", 5.0)]);
        let out = set.apply_to_matrix(&matrix(), &names()).unwrap();
        assert_eq!(out.col(1), vec![6.0, 7.0]);
    }

    #[test]
    fn multiple_drivers_at_once() {
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("a", -50.0),
            Perturbation::absolute("b", 1.0),
        ]);
        let out = set.apply_to_matrix(&matrix(), &names()).unwrap();
        assert_eq!(out.col(0), vec![5.0, 10.0]);
        assert_eq!(out.col(1), vec![2.0, 3.0]);
    }

    #[test]
    fn clamp_prevents_negative_counts() {
        let set = PerturbationSet::new(vec![Perturbation::absolute("a", -15.0)]);
        let out = set.apply_to_matrix(&matrix(), &names()).unwrap();
        assert_eq!(out.col(0), vec![0.0, 5.0]);
        let unclamped = PerturbationSet::new(vec![Perturbation::absolute("a", -15.0)])
            .without_clamp()
            .apply_to_matrix(&matrix(), &names())
            .unwrap();
        assert_eq!(unclamped.col(0), vec![-5.0, 5.0]);
    }

    #[test]
    fn row_application() {
        let set = PerturbationSet::new(vec![Perturbation::percentage("b", 100.0)]);
        let out = set.apply_to_row(&[3.0, 4.0], &names()).unwrap();
        assert_eq!(out, vec![3.0, 8.0]);
        assert!(set.apply_to_row(&[1.0], &names()).is_err());
    }

    #[test]
    fn validation_errors() {
        let set = PerturbationSet::new(vec![Perturbation::percentage("zz", 1.0)]);
        assert!(set.apply_to_matrix(&matrix(), &names()).is_err());
        let dup = PerturbationSet::new(vec![
            Perturbation::percentage("a", 1.0),
            Perturbation::absolute("a", 1.0),
        ]);
        assert!(dup.validate(&names()).is_err());
        let empty = PerturbationSet::new(vec![]);
        assert!(empty.is_empty());
        assert!(empty.validate(&names()).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("a", 40.0),
            Perturbation::absolute("b", -2.0),
        ]);
        let json = serde_json::to_string(&set).unwrap();
        let back: PerturbationSet = serde_json::from_str(&json).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn compiled_plan_resolves_indices_once() {
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("b", 100.0),
            Perturbation::absolute("a", -15.0),
        ]);
        let plan = set.compile(&names()).unwrap();
        assert_eq!(plan.n_steps(), 2);
        assert_eq!(plan.n_cols(), 2);
        assert!(plan.clamps());
        assert!(!plan.is_empty());
        // Unknown/duplicate drivers fail at compile time.
        assert!(
            PerturbationSet::new(vec![Perturbation::percentage("zz", 1.0)])
                .compile(&names())
                .is_err()
        );
        assert!(PerturbationSet::new(vec![
            Perturbation::percentage("a", 1.0),
            Perturbation::absolute("a", 2.0),
        ])
        .compile(&names())
        .is_err());
    }

    #[test]
    fn overlay_matches_full_clone_bit_for_bit() {
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("a", 37.5),
            Perturbation::absolute("b", -1.5),
        ]);
        let m = matrix();
        let plan = set.compile(&names()).unwrap();
        let cloned = set.apply_to_matrix(&m, &names()).unwrap();
        let overlay = plan.overlay(&m).unwrap();
        assert_eq!(overlay.n_overridden(), 2);
        assert_eq!(overlay.to_matrix(), cloned);
        // Untouched columns are not materialized.
        let single = PerturbationPlan::single(0, PerturbationKind::Percentage(10.0), true, 2);
        let o = single.overlay(&m).unwrap();
        assert_eq!(o.n_overridden(), 1);
        assert!(o.col_override(1).is_none());
        // Width mismatch is a config error.
        assert!(single.overlay(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn trusted_plan_constructors_match_named_sets() {
        let m = matrix();
        let named = PerturbationSet::new(vec![
            Perturbation::percentage("a", -30.0),
            Perturbation::percentage("b", 80.0),
        ]);
        let via_set = named.apply_to_matrix(&m, &names()).unwrap();
        let via_pcts = PerturbationPlan::percentages(&[-30.0, 80.0], true).apply_to_matrix(&m);
        assert_eq!(via_set, via_pcts);

        let mut row = [10.0, 1.0];
        PerturbationPlan::percentages(&[-30.0, 80.0], true).apply_to_row(&mut row);
        assert_eq!(row.to_vec(), via_pcts.row(0).to_vec());
    }

    #[test]
    fn plan_clamp_behaviour_matches_set() {
        let m = matrix();
        let set = PerturbationSet::new(vec![Perturbation::absolute("a", -15.0)]).without_clamp();
        let plan = set.compile(&names()).unwrap();
        assert!(!plan.clamps());
        assert_eq!(
            plan.overlay(&m).unwrap().col_override(0).unwrap(),
            &[-5.0, 5.0]
        );
    }

    #[test]
    fn driver_index_finds_every_name_and_nothing_else() {
        let names: Vec<String> = ["zeta", "alpha", "mid", "Alpha", ""]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let index = DriverIndex::new(names.clone());
        for (j, n) in names.iter().enumerate() {
            assert_eq!(index.get(n), Some(j), "{n:?}");
        }
        for absent in ["alph", "zz", "m", "ALPHA", " "] {
            assert_eq!(index.get(absent), None, "{absent:?}");
        }
        assert_eq!(DriverIndex::new(Vec::new()).get("a"), None);
        // Repeated names resolve to the last column, like a map
        // collected in column order.
        let dup = DriverIndex::new(vec!["a".into(), "b".into(), "a".into()]);
        assert_eq!(dup.get("a"), Some(2));
    }

    #[test]
    fn compile_reports_the_first_bad_perturbation() {
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("a", 1.0),
            Perturbation::percentage("nope", 1.0),
            Perturbation::percentage("a", 2.0),
        ]);
        let err = set.compile(&names()).unwrap_err().to_string();
        assert!(err.contains("unknown driver \"nope\""), "{err}");
        let set = PerturbationSet::new(vec![
            Perturbation::percentage("b", 1.0),
            Perturbation::absolute("b", 2.0),
            Perturbation::percentage("nope", 1.0),
        ]);
        let err = set.compile(&names()).unwrap_err().to_string();
        assert!(
            err.contains("driver \"b\" perturbed more than once"),
            "{err}"
        );
    }

    #[test]
    fn compile_rejects_non_finite_amounts() {
        for amount in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [
                Perturbation::percentage("a", amount),
                Perturbation::absolute("b", amount),
            ] {
                let err = PerturbationSet::new(vec![p]).compile(&names()).unwrap_err();
                assert!(matches!(err, CoreError::Config(_)), "{err:?}");
                assert!(err.to_string().contains("non-finite"), "{err}");
            }
        }
        let extreme = PerturbationSet::new(vec![Perturbation::absolute("a", f64::MAX)]);
        assert!(
            extreme.compile(&names()).is_ok(),
            "large but finite is fine"
        );
    }
}
