//! A declarative, JSON-serializable specification of what-if analyses.
//!
//! The paper's §5 calls for "an editable specification of the
//! experiments that SystemD supports ... development of a declarative
//! specification language for SystemD is a potential future direction."
//! This module implements that direction: a [`WhatIfSpec`] captures a
//! complete experiment (KPI, drivers, model, analysis) as JSON, can be
//! stored/shared/re-run, and produces a serializable [`SpecOutcome`].
//!
//! ```
//! use whatif_core::spec::WhatIfSpec;
//! use whatif_frame::{Column, Frame};
//!
//! let frame = Frame::from_columns(vec![
//!     Column::from_f64("spend", (0..40).map(|i| (i % 10) as f64).collect()),
//!     Column::from_f64("sales", (0..40).map(|i| 2.0 * (i % 10) as f64).collect()),
//! ]).unwrap();
//!
//! let spec: WhatIfSpec = serde_json::from_str(r#"{
//!     "kpi": "sales",
//!     "analysis": { "DriverImportance": { "verify": false } }
//! }"#).unwrap();
//! let outcome = spec.run(&frame).unwrap();
//! let json = serde_json::to_string(&outcome).unwrap();
//! assert!(json.contains("spend"));
//! ```

use crate::bulk::{ScenarioOutcome, ScenarioSet, ScenarioSpec};
use crate::constraint::DriverConstraint;
use crate::error::{CoreError, Result};
use crate::goal::{Goal, GoalConfig, GoalInversionResult, OptimizerChoice};
use crate::importance::{DriverImportance, VerificationReport};
use crate::model_backend::ModelConfig;
use crate::perturbation::Perturbation;
use crate::perturbation::PerturbationSet;
use crate::sensitivity::{ComparisonCurve, PerDataSensitivity, SensitivityResult};
use crate::session::Session;
use serde::{Deserialize, Serialize};
use whatif_frame::Frame;

/// The analysis to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnalysisSpec {
    /// Driver importance, optionally with the Shapley/Pearson/Spearman
    /// verification pass.
    DriverImportance {
        /// Run the verification measures too.
        #[serde(default)]
        verify: bool,
    },
    /// Dataset-level sensitivity for a set of perturbations.
    Sensitivity {
        /// Perturbations to apply.
        perturbations: Vec<Perturbation>,
        /// Clamp perturbed values at zero (default true).
        #[serde(default = "default_true")]
        clamp_non_negative: bool,
    },
    /// Per-driver comparison sweep over percentage perturbations.
    Comparison {
        /// Percentages to sweep (e.g. `[-40, -20, 0, 20, 40]`).
        percentages: Vec<f64>,
    },
    /// Per-data sensitivity for one row.
    PerData {
        /// Row index.
        row: usize,
        /// Perturbations to apply to that row.
        perturbations: Vec<Perturbation>,
    },
    /// Goal inversion / constrained analysis.
    GoalInversion {
        /// The KPI goal.
        goal: Goal,
        /// Driver constraints (empty = free optimization).
        #[serde(default)]
        constraints: Vec<DriverConstraint>,
        /// Optimizer (defaults to Bayesian with 96 calls).
        #[serde(default)]
        optimizer: OptimizerChoice,
        /// Seed for stochastic optimizers.
        #[serde(default)]
        seed: u64,
    },
    /// Bulk evaluation of N named scenarios in one pass (parallel,
    /// copy-on-write overlays — see [`crate::bulk`]).
    Scenarios {
        /// The scenarios to price.
        scenarios: Vec<ScenarioSpec>,
        /// Worker threads (default 4).
        #[serde(default = "default_threads")]
        n_threads: usize,
    },
}

fn default_threads() -> usize {
    crate::bulk::DEFAULT_SCENARIO_THREADS
}

fn default_true() -> bool {
    true
}

impl AnalysisSpec {
    /// Run this analysis against an already-trained model.
    ///
    /// This is the single dispatch point shared by [`WhatIfSpec::run`]
    /// and the server's `Engine`, so every transport executes analyses
    /// identically.
    ///
    /// # Errors
    /// Any model/optimizer error, wrapped in [`CoreError`].
    pub fn execute(&self, model: &crate::model_backend::TrainedModel) -> Result<SpecOutcome> {
        self.run_on_model(model, None).map(|(outcome, _)| outcome)
    }

    /// Run this analysis through a shared [`EvalCache`](crate::cached::EvalCache): identical
    /// *(model, analysis)* pairs short-circuit with bit-identical
    /// results. Returns the outcome plus whether it was fully served
    /// from the cache (the v2 protocol's `cached` reply marker).
    ///
    /// Driver importance is the one analysis that stays uncached: it
    /// depends only on the model (no perturbation input), so the model
    /// itself already memoizes everything it needs.
    ///
    /// # Errors
    /// Exactly those of [`AnalysisSpec::execute`].
    pub fn execute_cached(
        &self,
        model: &crate::model_backend::TrainedModel,
        cache: &crate::cached::EvalCache,
    ) -> Result<(SpecOutcome, bool)> {
        self.run_on_model(model, Some(cache))
    }

    /// The one spec-to-evaluation mapping both entry points share: each
    /// arm builds its inputs exactly once, then evaluates through the
    /// cache when one is supplied — so the cached and uncached paths
    /// cannot drift apart by construction.
    fn run_on_model(
        &self,
        model: &crate::model_backend::TrainedModel,
        cache: Option<&crate::cached::EvalCache>,
    ) -> Result<(SpecOutcome, bool)> {
        Ok(match self {
            AnalysisSpec::DriverImportance { verify } => {
                let importance = model.driver_importance()?;
                let verification = if *verify {
                    Some(model.verify_importance(&Default::default())?)
                } else {
                    None
                };
                (
                    SpecOutcome::Importance {
                        importance,
                        verification,
                    },
                    false,
                )
            }
            AnalysisSpec::Sensitivity {
                perturbations,
                clamp_non_negative,
            } => {
                let mut set = PerturbationSet::new(perturbations.clone());
                set.clamp_non_negative = *clamp_non_negative;
                let (result, cached) = match cache {
                    Some(cache) => model.sensitivity_cached(&set, cache)?,
                    None => (model.sensitivity(&set)?, false),
                };
                (SpecOutcome::Sensitivity(result), cached)
            }
            AnalysisSpec::Comparison { percentages } => {
                let (curves, cached) = match cache {
                    Some(cache) => model.comparison_analysis_cached(percentages, cache)?,
                    None => (model.comparison_analysis(percentages)?, false),
                };
                (SpecOutcome::Comparison(curves), cached)
            }
            AnalysisSpec::PerData { row, perturbations } => {
                let set = PerturbationSet::new(perturbations.clone());
                let (result, cached) = match cache {
                    Some(cache) => model.per_data_sensitivity_cached(*row, &set, cache)?,
                    None => (model.per_data_sensitivity(*row, &set)?, false),
                };
                (SpecOutcome::PerData(result), cached)
            }
            AnalysisSpec::GoalInversion {
                goal,
                constraints,
                optimizer,
                seed,
            } => {
                let mut cfg = GoalConfig::for_goal(*goal).with_constraints(constraints.clone());
                cfg.optimizer = *optimizer;
                cfg.seed = *seed;
                let (result, cached) = match cache {
                    Some(cache) => model.goal_inversion_cached(&cfg, cache)?,
                    None => (model.goal_inversion(&cfg)?, false),
                };
                (SpecOutcome::GoalInversion(result), cached)
            }
            AnalysisSpec::Scenarios {
                scenarios,
                n_threads,
            } => {
                let set = ScenarioSet::new(scenarios.clone()).with_threads(*n_threads);
                let (outcomes, cached) = match cache {
                    Some(cache) => model.evaluate_scenarios_cached(&set, cache)?,
                    None => (model.evaluate_scenarios(&set)?, false),
                };
                (SpecOutcome::Scenarios(outcomes), cached)
            }
        })
    }
}

/// A complete, reusable what-if experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfSpec {
    /// KPI column.
    pub kpi: String,
    /// Driver selection; `None` selects all non-textual, non-KPI
    /// columns.
    #[serde(default)]
    pub drivers: Option<Vec<String>>,
    /// Model configuration.
    #[serde(default)]
    pub model: ModelConfig,
    /// The analysis to run.
    pub analysis: AnalysisSpec,
}

/// The serializable outcome of running a [`WhatIfSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecOutcome {
    /// Driver importance (+ optional verification).
    Importance {
        /// The importance scores.
        importance: DriverImportance,
        /// Verification report when requested.
        verification: Option<VerificationReport>,
    },
    /// Sensitivity outcome.
    Sensitivity(SensitivityResult),
    /// Comparison sweep outcome.
    Comparison(Vec<ComparisonCurve>),
    /// Per-data outcome.
    PerData(PerDataSensitivity),
    /// Goal inversion outcome.
    GoalInversion(GoalInversionResult),
    /// Bulk scenario outcomes, in input order.
    Scenarios(Vec<ScenarioOutcome>),
}

impl WhatIfSpec {
    /// Parse a spec from JSON.
    ///
    /// # Errors
    /// [`CoreError::Spec`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<WhatIfSpec> {
        serde_json::from_str(json).map_err(|e| CoreError::Spec(e.to_string()))
    }

    /// Serialize to pretty JSON.
    ///
    /// # Errors
    /// [`CoreError::Spec`] on serialization failure (should not happen).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| CoreError::Spec(e.to_string()))
    }

    /// Execute against a dataset: build the session, train per the
    /// spec's model config, run the analysis.
    ///
    /// # Errors
    /// Any session/model/analysis error, wrapped in [`CoreError`].
    pub fn run(&self, frame: &Frame) -> Result<SpecOutcome> {
        let mut session = Session::new(frame.clone()).with_kpi(&self.kpi)?;
        if let Some(drivers) = &self.drivers {
            let refs: Vec<&str> = drivers.iter().map(String::as_str).collect();
            session = session.with_drivers(&refs)?;
        }
        let model = session.train(&self.model)?;
        self.analysis.execute(&model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whatif_frame::Column;

    fn frame() -> Frame {
        Frame::from_columns(vec![
            Column::from_f64("spend", (0..60).map(|i| (i % 10) as f64 + 1.0).collect()),
            Column::from_f64("waste", (0..60).map(|i| ((i * 7) % 4) as f64).collect()),
            Column::from_f64(
                "sales",
                (0..60)
                    .map(|i| 3.0 * ((i % 10) as f64 + 1.0) + 2.0)
                    .collect(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn importance_spec_runs() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: None,
            model: ModelConfig::default(),
            analysis: AnalysisSpec::DriverImportance { verify: true },
        };
        match spec.run(&frame()).unwrap() {
            SpecOutcome::Importance {
                importance,
                verification,
            } => {
                assert_eq!(importance.ranked_names()[0], "spend");
                assert!(verification.is_some());
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn sensitivity_spec_runs() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: Some(vec!["spend".into()]),
            model: ModelConfig::default(),
            analysis: AnalysisSpec::Sensitivity {
                perturbations: vec![Perturbation::percentage("spend", 10.0)],
                clamp_non_negative: true,
            },
        };
        match spec.run(&frame()).unwrap() {
            SpecOutcome::Sensitivity(s) => assert!(s.uplift() > 0.0),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn goal_spec_runs_with_constraints() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: Some(vec!["spend".into(), "waste".into()]),
            model: ModelConfig::default(),
            analysis: AnalysisSpec::GoalInversion {
                goal: Goal::Maximize,
                constraints: vec![DriverConstraint::new("spend", 0.0, 50.0)],
                optimizer: OptimizerChoice::GridSearch { points_per_dim: 6 },
                seed: 0,
            },
        };
        match spec.run(&frame()).unwrap() {
            SpecOutcome::GoalInversion(r) => {
                let pct = r.driver_percentages[0].1;
                assert!((0.0..=50.0).contains(&pct));
                assert!(r.uplift() > 0.0);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn json_roundtrip_and_rerun() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: None,
            model: ModelConfig::default(),
            analysis: AnalysisSpec::Comparison {
                percentages: vec![-10.0, 0.0, 10.0],
            },
        };
        let json = spec.to_json().unwrap();
        let parsed = WhatIfSpec::from_json(&json).unwrap();
        assert_eq!(spec, parsed);
        let a = spec.run(&frame()).unwrap();
        let b = parsed.run(&frame()).unwrap();
        assert_eq!(a, b, "same spec, same data, same outcome");
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let spec =
            WhatIfSpec::from_json(r#"{"kpi": "sales", "analysis": {"DriverImportance": {}}}"#)
                .unwrap();
        assert!(spec.drivers.is_none());
        assert_eq!(spec.model, ModelConfig::default());
        match spec.analysis {
            AnalysisSpec::DriverImportance { verify } => assert!(!verify),
            _ => panic!(),
        }
    }

    #[test]
    fn bad_json_is_a_spec_error() {
        let err = WhatIfSpec::from_json("not json").unwrap_err();
        assert!(matches!(err, CoreError::Spec(_)));
        let err = WhatIfSpec::from_json(r#"{"analysis": {}}"#).unwrap_err();
        assert!(matches!(err, CoreError::Spec(_)));
    }

    #[test]
    fn per_data_spec_runs() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: Some(vec!["spend".into()]),
            model: ModelConfig::default(),
            analysis: AnalysisSpec::PerData {
                row: 2,
                perturbations: vec![Perturbation::absolute("spend", 1.0)],
            },
        };
        match spec.run(&frame()).unwrap() {
            SpecOutcome::PerData(p) => {
                assert_eq!(p.row, 2);
                assert!((p.uplift() - 3.0).abs() < 1e-6);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn scenarios_spec_runs_and_roundtrips() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: Some(vec!["spend".into(), "waste".into()]),
            model: ModelConfig::default(),
            analysis: AnalysisSpec::Scenarios {
                scenarios: vec![
                    ScenarioSpec::new(
                        "spend +10%",
                        crate::PerturbationSet::new(vec![Perturbation::percentage("spend", 10.0)]),
                    ),
                    ScenarioSpec::new(
                        "spend -10%",
                        crate::PerturbationSet::new(vec![Perturbation::percentage("spend", -10.0)]),
                    ),
                ],
                n_threads: 2,
            },
        };
        let json = spec.to_json().unwrap();
        assert_eq!(spec, WhatIfSpec::from_json(&json).unwrap());
        match spec.run(&frame()).unwrap() {
            SpecOutcome::Scenarios(outcomes) => {
                assert_eq!(outcomes.len(), 2);
                assert!(outcomes[0].uplift() > 0.0);
                assert!(outcomes[1].uplift() < 0.0);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        // n_threads defaults when omitted from JSON.
        let parsed = WhatIfSpec::from_json(
            r#"{"kpi": "sales", "analysis": {"Scenarios": {"scenarios": []}}}"#,
        )
        .unwrap();
        match parsed.analysis {
            AnalysisSpec::Scenarios { n_threads, .. } => assert_eq!(n_threads, 4),
            _ => panic!(),
        }
    }

    #[test]
    fn execute_cached_matches_execute_and_reports_hits() {
        use crate::cached::EvalCache;
        let session = Session::new(frame()).with_kpi("sales").unwrap();
        let model = session.train(&ModelConfig::default()).unwrap();
        let cache = EvalCache::default();
        let analyses = [
            AnalysisSpec::Sensitivity {
                perturbations: vec![Perturbation::percentage("spend", 10.0)],
                clamp_non_negative: true,
            },
            AnalysisSpec::Comparison {
                percentages: vec![-10.0, 0.0, 10.0],
            },
            AnalysisSpec::PerData {
                row: 1,
                perturbations: vec![Perturbation::absolute("spend", 1.0)],
            },
            AnalysisSpec::GoalInversion {
                goal: Goal::Maximize,
                constraints: vec![],
                optimizer: OptimizerChoice::GridSearch { points_per_dim: 4 },
                seed: 0,
            },
        ];
        for analysis in &analyses {
            let reference = analysis.execute(&model).unwrap();
            let (cold, hit_cold) = analysis.execute_cached(&model, &cache).unwrap();
            let (warm, hit_warm) = analysis.execute_cached(&model, &cache).unwrap();
            assert!(!hit_cold, "{analysis:?} cold call misses");
            assert!(hit_warm, "{analysis:?} warm call hits");
            assert_eq!(cold, reference, "{analysis:?} equals uncached");
            assert_eq!(warm, reference);
        }
        // Driver importance never reports cached.
        let importance = AnalysisSpec::DriverImportance { verify: false };
        let (_, hit) = importance.execute_cached(&model, &cache).unwrap();
        let (_, hit2) = importance.execute_cached(&model, &cache).unwrap();
        assert!(!hit && !hit2);
    }

    #[test]
    fn outcome_serializes() {
        let spec = WhatIfSpec {
            kpi: "sales".into(),
            drivers: None,
            model: ModelConfig::default(),
            analysis: AnalysisSpec::DriverImportance { verify: false },
        };
        let outcome = spec.run(&frame()).unwrap();
        let json = serde_json::to_string(&outcome).unwrap();
        let back: SpecOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(outcome, back);
    }
}
