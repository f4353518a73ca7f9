//! Cache-aware evaluation: the interactive hot paths, memoized.
//!
//! The paper's loop is interactive — an analyst drags a slider, re-runs
//! sensitivity or goal seeking, and expects sub-second feedback — and
//! real sessions revisit near-identical perturbations constantly. This
//! module routes every hot evaluation path through a shared
//! [`EvalCache`] so identical *(model, question)* pairs are computed
//! once, process-wide:
//!
//! * [`TrainedModel::kpi_for_plan_cached`] — the atom everything else
//!   composes: one KPI per compiled [`PerturbationPlan`], keyed by the
//!   model fingerprint × the plan fingerprint. Sensitivity, comparison
//!   sweeps, goal-seek bisection iterations, and bulk scenario scoring
//!   all share these entries (a goal-seek probe at +40 % warms the
//!   comparison sweep's +40 % grid point and vice versa).
//! * [`TrainedModel::per_data_sensitivity_cached`] — per-row results.
//! * [`TrainedModel::goal_inversion_cached`] — whole-result entries
//!   keyed by the full [`GoalConfig`] (goal, optimizer, constraints,
//!   seed); the optimizer's own probe evaluations are *not* cached, so
//!   a 96-call Bayesian run costs one entry, not 96 dense ones.
//!
//! Every cached method returns `(result, cached)` where `cached` means
//! *fully served from the cache* — composite analyses (comparison
//! sweeps, bulk sets) report `true` only when every constituent lookup
//! hit. Results are **bit-identical** to the uncached paths: cache
//! values are exact `f64`s/structs produced by those same paths, and
//! the equivalence suite (`tests/cache_equivalence.rs`) pins this
//! property across random models and plans.
//!
//! Soundness is by content addressing, not invalidation: keys embed the
//! model's train-time [`fingerprint`](TrainedModel::fingerprint), so
//! retraining, swapping data, or changing hyperparameters changes the
//! key space and stale entries can never be served — they just age out
//! of the LRU budget.

use crate::bulk::{ScenarioOutcome, ScenarioSet};
use crate::error::Result;
use crate::goal::{Goal, GoalConfig, GoalInversionResult, OptimizerChoice};
use crate::model_backend::TrainedModel;
use crate::perturbation::{PerturbationPlan, PerturbationSet};
use crate::seek::DriverSeekResult;
use crate::sensitivity::{ComparisonCurve, PerDataSensitivity, SensitivityResult};
use std::sync::Arc;
use whatif_cache::{CacheKey, CacheStats, CacheWeight, Hasher128, ResultCache};

/// Default process-wide budget: 64 MiB — roughly half a million cached
/// KPI points, far beyond any interactive session, small next to one
/// loaded dataset.
pub const DEFAULT_CACHE_CAPACITY_BYTES: usize = 64 << 20;

/// Domain-separation tags so differently-shaped questions can never
/// collide on a payload fingerprint.
const TAG_PLAN_KPI: u8 = 1;
const TAG_PER_DATA: u8 = 2;
const TAG_GOAL: u8 = 3;

/// A memoized evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedOutcome {
    /// The KPI of the training data under one compiled plan.
    Kpi(f64),
    /// A per-row sensitivity result.
    PerData(Box<PerDataSensitivity>),
    /// A whole goal-inversion result.
    Goal(Box<GoalInversionResult>),
}

impl CacheWeight for CachedOutcome {
    fn weight_bytes(&self) -> usize {
        // Every stored value occupies the full enum in the map slot —
        // the largest variant's inline size — regardless of which
        // variant it is; heap-owned payloads are charged on top. The
        // rare variants are boxed so that the common `Kpi` slot stays
        // 16 bytes instead of paying for the widest result inline.
        let inline = std::mem::size_of::<CachedOutcome>();
        match self {
            CachedOutcome::Kpi(_) => inline,
            CachedOutcome::PerData(_) => inline + std::mem::size_of::<PerDataSensitivity>(),
            CachedOutcome::Goal(g) => {
                let heap: usize = g
                    .driver_percentages
                    .iter()
                    .chain(&g.driver_values)
                    .map(|(name, _)| name.len() + std::mem::size_of::<(String, f64)>())
                    .sum();
                inline + std::mem::size_of::<GoalInversionResult>() + heap
            }
        }
    }
}

/// A cheaply-cloneable handle to a shared, sharded, memory-budgeted
/// result cache. The server holds one per process; every session's
/// evaluations go through it, so two clients asking the same question
/// of bit-identical models pay for one computation.
#[derive(Clone)]
pub struct EvalCache {
    inner: Arc<ResultCache<CachedOutcome>>,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new(DEFAULT_CACHE_CAPACITY_BYTES)
    }
}

impl EvalCache {
    /// An enabled cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> EvalCache {
        EvalCache {
            inner: Arc::new(ResultCache::new(capacity_bytes)),
        }
    }

    /// Accounting snapshot (hits, misses, evictions, bytes, ...).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Reconfigure the byte budget and/or enablement. Shrinking evicts
    /// immediately; disabling makes lookups/insertions transparent
    /// no-ops while retaining entries for instant re-warm.
    pub fn configure(&self, capacity_bytes: Option<usize>, enabled: Option<bool>) {
        self.inner.configure(capacity_bytes, enabled);
    }

    /// Whether lookups/insertions are currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    /// Drop every entry (lifetime counters are kept).
    pub fn clear(&self) {
        self.inner.clear();
    }

    fn get(&self, key: &CacheKey) -> Option<CachedOutcome> {
        let _stage = whatif_obs::span::stage(whatif_obs::Stage::CacheProbe);
        // Armed "cache.lookup" degrades to a forced miss: the analysis
        // recomputes and still succeeds, it just loses the cache win.
        if whatif_chaos::fails("cache.lookup") {
            return None;
        }
        self.inner.get(key)
    }

    fn insert(&self, key: CacheKey, value: CachedOutcome) {
        let _stage = whatif_obs::span::stage(whatif_obs::Stage::CacheProbe);
        self.inner.insert(key, value);
    }
}

fn plan_key(model: &TrainedModel, plan: &PerturbationPlan) -> CacheKey {
    let mut h = Hasher128::new();
    h.write_u8(TAG_PLAN_KPI);
    plan.write_fingerprint(&mut h);
    CacheKey::new(model.fingerprint(), h.finish())
}

fn per_data_key(model: &TrainedModel, row: usize, plan: &PerturbationPlan) -> CacheKey {
    let mut h = Hasher128::new();
    h.write_u8(TAG_PER_DATA);
    h.write_usize(row);
    plan.write_fingerprint(&mut h);
    CacheKey::new(model.fingerprint(), h.finish())
}

fn goal_key(model: &TrainedModel, config: &GoalConfig) -> CacheKey {
    let mut h = Hasher128::new();
    h.write_u8(TAG_GOAL);
    match config.goal {
        Goal::Maximize => h.write_u8(0),
        Goal::Minimize => h.write_u8(1),
        Goal::Target(t) => {
            h.write_u8(2);
            h.write_f64(t);
        }
    }
    match config.optimizer {
        OptimizerChoice::Bayesian { n_calls } => {
            h.write_u8(0);
            h.write_usize(n_calls);
        }
        OptimizerChoice::RandomSearch { n_evals } => {
            h.write_u8(1);
            h.write_usize(n_evals);
        }
        OptimizerChoice::GridSearch { points_per_dim } => {
            h.write_u8(2);
            h.write_usize(points_per_dim);
        }
        OptimizerChoice::NelderMead { max_evals } => {
            h.write_u8(3);
            h.write_usize(max_evals);
        }
    }
    h.write_usize(config.constraints.len());
    for c in &config.constraints {
        h.write_str(&c.driver);
        h.write_f64(c.low_pct);
        h.write_f64(c.high_pct);
    }
    h.write_f64(config.default_low_pct);
    h.write_f64(config.default_high_pct);
    h.write_f64(config.target_tolerance);
    h.write_u64(config.seed);
    CacheKey::new(model.fingerprint(), h.finish())
}

impl TrainedModel {
    /// [`TrainedModel::kpi_for_plan`], memoized. Returns the KPI and
    /// whether it was served from the cache.
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn kpi_for_plan_cached(
        &self,
        plan: &PerturbationPlan,
        cache: &EvalCache,
    ) -> Result<(f64, bool)> {
        let key = plan_key(self, plan);
        if let Some(CachedOutcome::Kpi(kpi)) = cache.get(&key) {
            return Ok((kpi, true));
        }
        let kpi = self.kpi_for_plan(plan)?;
        cache.insert(key, CachedOutcome::Kpi(kpi));
        Ok((kpi, false))
    }

    /// The evaluation atom the shared cached/uncached implementations
    /// (sensitivity, comparison sweeps, goal seek) are parameterized
    /// over: `kpi_for_plan`, through the cache when one is supplied.
    pub(crate) fn kpi_for_plan_maybe(
        &self,
        plan: &PerturbationPlan,
        cache: Option<&EvalCache>,
    ) -> Result<(f64, bool)> {
        match cache {
            Some(cache) => self.kpi_for_plan_cached(plan, cache),
            None => Ok((self.kpi_for_plan(plan)?, false)),
        }
    }

    /// [`TrainedModel::sensitivity`], memoized on the compiled plan.
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn sensitivity_cached(
        &self,
        set: &PerturbationSet,
        cache: &EvalCache,
    ) -> Result<(SensitivityResult, bool)> {
        self.sensitivity_with(set, Some(cache))
    }

    /// [`TrainedModel::comparison_analysis`], memoized per grid point
    /// (driver × percentage). `cached` is true only when *every* grid
    /// point hit — and single-column goal-seek probes warm the same
    /// entries, so a sweep after a seek is often partially free.
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn comparison_analysis_cached(
        &self,
        percentages: &[f64],
        cache: &EvalCache,
    ) -> Result<(Vec<ComparisonCurve>, bool)> {
        self.comparison_with(percentages, Some(cache))
    }

    /// [`TrainedModel::per_data_sensitivity`], memoized on
    /// (row, compiled plan).
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn per_data_sensitivity_cached(
        &self,
        row: usize,
        set: &PerturbationSet,
        cache: &EvalCache,
    ) -> Result<(PerDataSensitivity, bool)> {
        self.check_row(row)?;
        let plan = self.compile_perturbations(set)?;
        let key = per_data_key(self, row, &plan);
        if let Some(CachedOutcome::PerData(result)) = cache.get(&key) {
            return Ok((*result, true));
        }
        let result = {
            let _stage = whatif_obs::span::stage(whatif_obs::Stage::Predict);
            self.per_data_for_plan(row, &plan)?
        };
        cache.insert(key, CachedOutcome::PerData(Box::new(result.clone())));
        Ok((result, false))
    }

    /// [`TrainedModel::goal_inversion`], memoized as a whole result on
    /// the full configuration (all search engines are deterministic
    /// given their seed, so replaying a config replays the result).
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn goal_inversion_cached(
        &self,
        config: &GoalConfig,
        cache: &EvalCache,
    ) -> Result<(GoalInversionResult, bool)> {
        let key = goal_key(self, config);
        if let Some(CachedOutcome::Goal(result)) = cache.get(&key) {
            return Ok((*result, true));
        }
        let result = self.goal_inversion(config)?;
        cache.insert(key, CachedOutcome::Goal(Box::new(result.clone())));
        Ok((result, false))
    }

    /// [`TrainedModel::goal_seek_driver`], with every bisection
    /// iteration's KPI probe memoized as a single-column plan entry —
    /// shared with comparison sweeps and repeated seeks. `cached` is
    /// true only when every probe hit.
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn goal_seek_driver_cached(
        &self,
        driver: &str,
        target: f64,
        low_pct: f64,
        high_pct: f64,
        tolerance: f64,
        cache: &EvalCache,
    ) -> Result<(DriverSeekResult, bool)> {
        self.goal_seek_driver_with(driver, target, low_pct, high_pct, tolerance, Some(cache))
    }

    /// [`TrainedModel::evaluate_scenarios`], memoized per scenario on
    /// its compiled plan (names don't enter the key: two scenarios
    /// applying identical perturbations under different labels share
    /// one entry). Misses are scored together through the same
    /// parallel path as the uncached API, so results stay bit-identical
    /// and input-ordered; `cached` is true when every scenario hit.
    ///
    /// # Errors
    /// Exactly those of the uncached path.
    pub fn evaluate_scenarios_cached(
        &self,
        set: &ScenarioSet,
        cache: &EvalCache,
    ) -> Result<(Vec<ScenarioOutcome>, bool)> {
        let plans = self.compile_scenarios(set)?;
        let keys: Vec<CacheKey> = plans.iter().map(|p| plan_key(self, p)).collect();
        let mut kpis: Vec<Option<f64>> = keys
            .iter()
            .map(|k| match cache.get(k) {
                Some(CachedOutcome::Kpi(kpi)) => Some(kpi),
                _ => None,
            })
            .collect();
        let miss: Vec<usize> = (0..plans.len()).filter(|&i| kpis[i].is_none()).collect();
        if !miss.is_empty() {
            let refs: Vec<&PerturbationPlan> = miss.iter().map(|&i| &plans[i]).collect();
            let scored = self.score_plans(&refs, set.n_threads);
            for (&i, result) in miss.iter().zip(scored) {
                let kpi = result?;
                cache.insert(keys[i], CachedOutcome::Kpi(kpi));
                kpis[i] = Some(kpi);
            }
        }
        let outcomes = set
            .scenarios
            .iter()
            .zip(kpis)
            .map(|(s, kpi)| ScenarioOutcome {
                name: s.name.clone(),
                perturbations: s.perturbations.clone(),
                // lint:allow(panic-freedom): the miss loop above filled every None slot; a gap is a bug, not input
                kpi: kpi.expect("every scenario scored or served"),
                baseline_kpi: self.baseline_kpi(),
            })
            .collect();
        Ok((outcomes, !plans.is_empty() && miss.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::ScenarioSpec;
    use crate::kpi::KpiKind;
    use crate::model_backend::ModelConfig;
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

    fn set() -> PerturbationSet {
        PerturbationSet::new(vec![Perturbation::percentage("a", 10.0)])
    }

    #[test]
    fn cache_slot_stays_small() {
        // Every entry pays the widest variant's inline size; a `Kpi`
        // slot must not carry a goal-inversion result inline.
        assert_eq!(std::mem::size_of::<CachedOutcome>(), 16);
        assert_eq!(CachedOutcome::Kpi(1.0).weight_bytes(), 16);
        let per_data = CachedOutcome::PerData(Box::new(PerDataSensitivity {
            row: 0,
            baseline: 1.0,
            perturbed: 2.0,
        }));
        assert_eq!(per_data.weight_bytes(), 16 + 24);
        let goal = CachedOutcome::Goal(Box::new(GoalInversionResult {
            goal: Goal::Maximize,
            achieved_kpi: 1.0,
            baseline_kpi: 0.5,
            confidence: 0.9,
            driver_percentages: vec![("a".into(), 10.0)],
            driver_values: vec![("a".into(), 1.1)],
            n_evals: 3,
            converged: true,
        }));
        let heap = 2 * (1 + std::mem::size_of::<(String, f64)>());
        assert_eq!(
            goal.weight_bytes(),
            16 + std::mem::size_of::<GoalInversionResult>() + heap
        );
    }

    #[test]
    fn sensitivity_hits_on_second_call_bit_identical() {
        let m = model();
        let cache = EvalCache::default();
        let uncached = m.sensitivity(&set()).unwrap();
        let (first, hit1) = m.sensitivity_cached(&set(), &cache).unwrap();
        let (second, hit2) = m.sensitivity_cached(&set(), &cache).unwrap();
        assert!(!hit1, "cold cache misses");
        assert!(hit2, "warm cache hits");
        assert!(first.perturbed_kpi.to_bits() == uncached.perturbed_kpi.to_bits());
        assert_eq!(first, second);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn comparison_and_goal_seek_share_grid_entries() {
        let m = model();
        let cache = EvalCache::default();
        // A seek probes single-column percentage plans on driver "a"...
        let (seek, hit) = m
            .goal_seek_driver_cached("a", m.baseline_kpi() + 0.9, -50.0, 100.0, 1e-9, &cache)
            .unwrap();
        assert!(!hit);
        let reference = m
            .goal_seek_driver("a", m.baseline_kpi() + 0.9, -50.0, 100.0, 1e-9)
            .unwrap();
        assert_eq!(seek, reference, "cached seek is bit-identical");
        // ... and a repeat is served entirely from the cache.
        let (again, hit) = m
            .goal_seek_driver_cached("a", m.baseline_kpi() + 0.9, -50.0, 100.0, 1e-9, &cache)
            .unwrap();
        assert!(hit, "every bisection probe hit");
        assert_eq!(again, reference);
    }

    #[test]
    fn comparison_fully_cached_on_repeat() {
        let m = model();
        let cache = EvalCache::default();
        let pct = [-20.0, 0.0, 20.0];
        let reference = m.comparison_analysis(&pct).unwrap();
        let (first, hit1) = m.comparison_analysis_cached(&pct, &cache).unwrap();
        let (second, hit2) = m.comparison_analysis_cached(&pct, &cache).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first, reference);
        assert_eq!(second, reference);
        // An empty grid never reports cached, even on a warm cache.
        let (_, hit) = m.comparison_analysis_cached(&[], &cache).unwrap();
        assert!(!hit);
    }

    #[test]
    fn per_data_and_goal_inversion_cache_whole_results() {
        let m = model();
        let cache = EvalCache::default();
        let (p1, h1) = m.per_data_sensitivity_cached(3, &set(), &cache).unwrap();
        let (p2, h2) = m.per_data_sensitivity_cached(3, &set(), &cache).unwrap();
        assert!(!h1 && h2);
        assert_eq!(p1, m.per_data_sensitivity(3, &set()).unwrap());
        assert_eq!(p1, p2);
        // Out-of-range rows fail identically to the uncached path.
        assert!(m.per_data_sensitivity_cached(9999, &set(), &cache).is_err());

        let mut cfg = GoalConfig::for_goal(Goal::Maximize);
        cfg.optimizer = OptimizerChoice::GridSearch { points_per_dim: 5 };
        let (g1, h1) = m.goal_inversion_cached(&cfg, &cache).unwrap();
        let (g2, h2) = m.goal_inversion_cached(&cfg, &cache).unwrap();
        assert!(!h1 && h2);
        assert_eq!(g1, m.goal_inversion(&cfg).unwrap());
        assert_eq!(g1, g2);
        // A different seed/config is a different question.
        let reseeded = GoalConfig { seed: 5, ..cfg };
        let (_, h3) = m.goal_inversion_cached(&reseeded, &cache).unwrap();
        assert!(!h3);
    }

    #[test]
    fn scenarios_share_entries_by_plan_not_name() {
        let m = model();
        let cache = EvalCache::default();
        let grid = |names: [&str; 2]| {
            ScenarioSet::new(vec![
                ScenarioSpec::new(names[0], set()),
                ScenarioSpec::new(
                    names[1],
                    PerturbationSet::new(vec![Perturbation::absolute("b", 1.0)]),
                ),
            ])
        };
        let (first, cached) = m
            .evaluate_scenarios_cached(&grid(["s1", "s2"]), &cache)
            .unwrap();
        assert!(!cached);
        assert_eq!(first, m.evaluate_scenarios(&grid(["s1", "s2"])).unwrap());
        // Renamed scenarios with identical perturbations: full hit.
        let (renamed, cached) = m
            .evaluate_scenarios_cached(&grid(["x1", "x2"]), &cache)
            .unwrap();
        assert!(cached, "names are not part of the key");
        assert_eq!(renamed[0].kpi.to_bits(), first[0].kpi.to_bits());
        assert_eq!(renamed[0].name, "x1");
        // The single-scenario sensitivity path shares the same entries.
        let (_, hit) = m.sensitivity_cached(&set(), &cache).unwrap();
        assert!(hit);
        // Empty sets never report cached.
        let (empty, cached) = m
            .evaluate_scenarios_cached(&ScenarioSet::new(Vec::new()), &cache)
            .unwrap();
        assert!(empty.is_empty() && !cached);
        // Bad scenarios fail fast with their name, nothing recorded.
        let bad = ScenarioSet::new(vec![ScenarioSpec::new(
            "broken",
            PerturbationSet::new(vec![Perturbation::percentage("zz", 1.0)]),
        )]);
        let err = m.evaluate_scenarios_cached(&bad, &cache).unwrap_err();
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn disabled_cache_still_computes_correctly() {
        let m = model();
        let cache = EvalCache::new(1 << 20);
        cache.configure(None, Some(false));
        let (r1, h1) = m.sensitivity_cached(&set(), &cache).unwrap();
        let (r2, h2) = m.sensitivity_cached(&set(), &cache).unwrap();
        assert!(!h1 && !h2, "disabled cache never hits");
        assert_eq!(r1, r2);
        assert_eq!(r1, m.sensitivity(&set()).unwrap());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clamp_flag_separates_entries() {
        let m = model();
        let cache = EvalCache::default();
        let clamped = PerturbationSet::new(vec![Perturbation::absolute("a", -100.0)]);
        let unclamped = clamped.clone().without_clamp();
        let (a, _) = m.sensitivity_cached(&clamped, &cache).unwrap();
        let (b, hit) = m.sensitivity_cached(&unclamped, &cache).unwrap();
        assert!(!hit, "clamp flag is part of the key");
        assert_ne!(a.perturbed_kpi.to_bits(), b.perturbed_kpi.to_bits());
    }
}
