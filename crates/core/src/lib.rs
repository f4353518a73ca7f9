//! # whatif-core
//!
//! The primary contribution of *"Augmenting Decision Making via
//! Interactive What-If Analysis"* (CIDR 2022) as a typed Rust API: the
//! four functionalities the paper argues every enterprise analysis
//! system needs, built over the workspace's dataframe ([`whatif_frame`]),
//! model ([`whatif_learn`]), and optimizer ([`whatif_optim`]) substrates.
//!
//! | Paper functionality | Module |
//! |---|---|
//! | Driver Importance Analysis (§2 E) | [`importance`] |
//! | Sensitivity Analysis (§2 H) | [`sensitivity`] (+ [`perturbation`]) |
//! | Goal Inversion (Seeking) Analysis (§2 I) | [`goal`] |
//! | Constrained Analysis (§2 I) | [`constraint`] + [`goal`] |
//!
//! Plus the surrounding machinery the paper describes or calls for:
//!
//! * [`session`] — KPI selection, driver selection, model training
//!   (Figure 2 views C/D).
//! * [`model_backend`] — the paper's model-selection rule: linear
//!   regression for continuous KPIs, random-forest classifier for
//!   discrete ones; plus an interpretable logistic alternative for the
//!   §5 interpretability-vs-accuracy axis.
//! * [`scenario`] — scenarios/options as "first-class citizens of data
//!   analysis" (§1): a ledger of named what-if outcomes.
//! * [`bulk`] — [`bulk::ScenarioSet`]: N heterogeneous scenarios
//!   compiled once and priced in parallel through copy-on-write
//!   overlays and batched prediction, zero full-matrix clones.
//! * [`cached`] — [`cached::EvalCache`]: a shared content-addressed
//!   result cache over model/plan fingerprints; the interactive hot
//!   paths re-run in microseconds when a question repeats, with
//!   bit-identical answers.
//! * [`store`] — [`store::ModelStore`]: the train-once dedup layer. N
//!   sessions over identical data + configuration train **one** model
//!   and share one `Arc`, keyed by the pre-train
//!   [`session::Session::train_fingerprint`].
//! * [`spec`] — a JSON-serializable declarative specification of
//!   analyses, the §5 "Specification and Reuse" future-work direction,
//!   implemented.
//!
//! ## Quickstart
//!
//! ```
//! use whatif_core::prelude::*;
//! use whatif_frame::{Column, Frame};
//!
//! // A tiny dataset: ad spend drives sales.
//! let frame = Frame::from_columns(vec![
//!     Column::from_f64("spend", (0..40).map(|i| (i % 10) as f64).collect()),
//!     Column::from_f64("noise", (0..40).map(|i| ((i * 7) % 5) as f64).collect()),
//!     Column::from_f64("sales", (0..40).map(|i| 3.0 * ((i % 10) as f64) + 10.0).collect()),
//! ]).unwrap();
//!
//! let session = Session::new(frame).with_kpi("sales").unwrap();
//! let model = session.train(&ModelConfig::default()).unwrap();
//!
//! // 1. Driver importance: spend dominates.
//! let imp = model.driver_importance().unwrap();
//! assert_eq!(imp.ranked_names()[0], "spend");
//!
//! // 2. Sensitivity: +10% spend raises mean predicted sales.
//! let pset = PerturbationSet::new(vec![Perturbation::percentage("spend", 10.0)]);
//! let sens = model.sensitivity(&pset).unwrap();
//! assert!(sens.uplift() > 0.0);
//! ```

pub mod bulk;
pub mod cached;
pub mod constraint;
pub mod error;
pub mod goal;
pub mod importance;
pub mod kpi;
pub mod model_backend;
pub mod perturbation;
pub mod scenario;
pub mod seek;
pub mod sensitivity;
pub mod session;
pub mod spec;
pub mod store;
pub mod uncertainty;

pub use bulk::{ScenarioOutcome, ScenarioSet, ScenarioSpec};
pub use cached::{CachedOutcome, EvalCache};
pub use constraint::DriverConstraint;
pub use error::{CoreError, ErrorCode, Result};
pub use goal::{Goal, GoalConfig, GoalInversionResult, OptimizerChoice};
pub use importance::{DriverImportance, VerificationReport};
pub use kpi::KpiKind;
pub use model_backend::{ModelConfig, ModelKind, SharedModel, TrainedModel};
pub use perturbation::{
    DriverIndex, Perturbation, PerturbationKind, PerturbationPlan, PerturbationSet,
};
pub use scenario::{Scenario, ScenarioKind, ScenarioLedger};
pub use seek::DriverSeekResult;
pub use sensitivity::{ComparisonCurve, PerDataSensitivity, SensitivityResult};
pub use session::Session;
pub use spec::{AnalysisSpec, SpecOutcome, WhatIfSpec};
pub use store::ModelStore;
pub use uncertainty::{BootstrapConfig, Interval, SensitivityInterval};

/// The most-used types, for glob import.
pub mod prelude {
    pub use crate::bulk::{ScenarioOutcome, ScenarioSet, ScenarioSpec};
    pub use crate::cached::EvalCache;
    pub use crate::constraint::DriverConstraint;
    pub use crate::error::{CoreError, ErrorCode};
    pub use crate::goal::{Goal, GoalConfig, OptimizerChoice};
    pub use crate::importance::DriverImportance;
    pub use crate::model_backend::{ModelConfig, ModelKind, SharedModel, TrainedModel};
    pub use crate::perturbation::{
        Perturbation, PerturbationKind, PerturbationPlan, PerturbationSet,
    };
    pub use crate::scenario::{Scenario, ScenarioLedger};
    pub use crate::session::Session;
    pub use crate::spec::WhatIfSpec;
    pub use crate::store::ModelStore;
}
