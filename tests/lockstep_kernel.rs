//! The lockstep tree kernel behind every ensemble's batched prediction
//! against independent oracles: the seed row-major forest path
//! (`predict_batch_rowmajor`, which walks its own enum-arena copy of
//! each tree) for forests, and row-at-a-time `predict_row` for boosted
//! ensembles. Bits must match for single-leaf, depth-1, unbalanced and
//! deep trees; on batch sizes around the kernel's 8-row groups and the
//! 512-row blocks; on dense and overlay views; with NaN, ±inf and −0.0
//! in the scored rows; at 1 and 4 prediction threads; for forest and
//! GBDT, classifier and regressor, exact and binned tiers.
//!
//! Model fingerprints hash the training-set predictions, so a pinned
//! fingerprint also pins the kernel's output bit for bit.

use whatif::core::model_backend::{ModelConfig, ModelKind, TrainerTier};
use whatif::core::session::Session;
use whatif::learn::forest::ForestConfig;
use whatif::learn::tree::TreeConfig;
use whatif::learn::{
    Classifier as _, ColumnOverlay, GbdtClassifier, GbdtConfig, GbdtRegressor, Matrix, MatrixView,
    Predictor, RandomForestClassifier, RandomForestRegressor, Regressor as _, Trainer,
};

const P: usize = 4;
const TRAIN_ROWS: usize = 300;
const BATCHES: [usize; 9] = [0, 1, 7, 8, 9, 511, 512, 513, 1480];
const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];

/// Deterministic xorshift stream in `[0, 8)`.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 8000) as f64 / 1000.0
    }
}

/// Tree shapes the kernel must walk: the depth cap gives single-leaf
/// (0) and stump (1) trees; `Chain` targets make each split peel one
/// row off the top of feature 0, a maximally unbalanced tree.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Leaf,
    Stump,
    Chain,
    Deep,
}

impl Shape {
    fn max_depth(self) -> usize {
        match self {
            Shape::Leaf => 0,
            Shape::Stump => 1,
            Shape::Chain | Shape::Deep => 12,
        }
    }
}

/// Training rows plus regression and classification targets.
fn training(shape: Shape) -> (Matrix, Vec<f64>, Vec<u8>) {
    let mut next = stream(7);
    let rows: Vec<Vec<f64>> = (0..TRAIN_ROWS)
        .map(|_| (0..P).map(|_| next()).collect())
        .collect();
    let (y, labels) = match shape {
        Shape::Chain => {
            // Target halves with each step down feature 0's ranking, so
            // the best variance split always isolates the top row.
            let mut order: Vec<usize> = (0..TRAIN_ROWS).collect();
            order.sort_by(|&a, &b| rows[b][0].total_cmp(&rows[a][0]).then(a.cmp(&b)));
            let mut y = vec![0.0; TRAIN_ROWS];
            for (rank, &r) in order.iter().enumerate() {
                y[r] = 0.5f64.powi(rank as i32);
            }
            let labels = (0..TRAIN_ROWS)
                .map(|r| u8::from(order[..8].contains(&r)))
                .collect();
            (y, labels)
        }
        _ => {
            let y: Vec<f64> = rows
                .iter()
                .map(|r| r[0] * r[1] - 2.0 * r[2] + (r[3] * 3.0).sin() + 0.3 * next())
                .collect();
            let labels = y.iter().map(|&v| u8::from(v > 8.0)).collect();
            (y, labels)
        }
    };
    (Matrix::from_rows(&rows).unwrap(), y, labels)
}

/// 1,480 scored rows with every special value sprinkled through every
/// column.
fn scored_rows() -> Vec<Vec<f64>> {
    let mut next = stream(11);
    (0..1480)
        .map(|i| {
            (0..P)
                .map(|j| match (i * 7 + j * 3) % 11 {
                    k @ 0..=4 => SPECIALS[k],
                    _ => next(),
                })
                .collect()
        })
        .collect()
}

/// Check one fitted model on every batch size and view at 1 and 4
/// prediction threads. `oracle` scores the same view the slow way.
fn check<M: Predictor>(
    what: &str,
    model: &mut M,
    set_threads: impl Fn(&mut M, usize),
    oracle: impl Fn(&M, MatrixView<'_>, &Matrix) -> Vec<f64>,
) {
    let rows = scored_rows();
    for &n in &BATCHES {
        let x = Matrix::from_vec(rows[..n].concat(), n, P).unwrap();
        let mut overlay = ColumnOverlay::new(&x);
        // Negation keeps NaN, swaps the infinities and flips ±0.0.
        overlay.map_col(1, |v| -v).unwrap();
        let dense_overlay = overlay.to_matrix();
        for threads in [1, 4] {
            set_threads(model, threads);
            for (view, dense) in [
                (MatrixView::Dense(&x), &x),
                (MatrixView::Overlay(&overlay), &dense_overlay),
            ] {
                let mut got = vec![f64::NAN; n];
                model.predict_batch(view, &mut got).unwrap();
                let want = oracle(model, view, dense);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{what}: batch {n}, {threads} threads, row {i}: {g} vs {w}"
                    );
                }
            }
        }
    }
}

fn per_row<M: Predictor>(model: &M, _: MatrixView<'_>, dense: &Matrix) -> Vec<f64> {
    (0..dense.n_rows())
        .map(|i| model.predict_row(dense.row(i)).unwrap())
        .collect()
}

fn forest_config(shape: Shape, trainer: Trainer) -> ForestConfig {
    ForestConfig {
        // Enough trees that 513- and 1,480-row batches cross the
        // parallel-prediction threshold.
        n_trees: 20,
        tree: TreeConfig {
            max_depth: shape.max_depth(),
            // Every feature at every split, so chains stay on feature 0.
            max_features: Some(P),
            ..TreeConfig::default()
        },
        seed: 5,
        n_threads: 1,
        trainer,
        n_bins: 64,
    }
}

fn gbdt_config(shape: Shape) -> GbdtConfig {
    GbdtConfig {
        n_rounds: 12,
        max_depth: shape.max_depth(),
        min_samples_leaf: 1,
        holdout_fraction: 0.0,
        n_threads: 1,
        ..GbdtConfig::default()
    }
}

#[test]
fn forests_match_the_rowmajor_oracle_bit_for_bit() {
    for shape in [Shape::Leaf, Shape::Stump, Shape::Chain, Shape::Deep] {
        let (x, y, labels) = training(shape);
        for trainer in [Trainer::Presorted, Trainer::Binned] {
            let what = format!("forest classifier {shape:?} {trainer:?}");
            let mut c = RandomForestClassifier::new(forest_config(shape, trainer));
            c.fit(&x, &labels).unwrap();
            check(
                &what,
                &mut c,
                |m, t| m.config.n_threads = t,
                |m, view, _| {
                    let mut out = vec![0.0; view.n_rows()];
                    m.predict_batch_rowmajor(view, &mut out).unwrap();
                    out
                },
            );

            let what = format!("forest regressor {shape:?} {trainer:?}");
            let mut r = RandomForestRegressor::new(forest_config(shape, trainer));
            r.fit(&x, &y).unwrap();
            check(
                &what,
                &mut r,
                |m, t| m.config.n_threads = t,
                |m, view, _| {
                    let mut out = vec![0.0; view.n_rows()];
                    m.predict_batch_rowmajor(view, &mut out).unwrap();
                    out
                },
            );
        }
    }
}

#[test]
fn boosted_ensembles_match_per_row_prediction_bit_for_bit() {
    for shape in [Shape::Leaf, Shape::Stump, Shape::Chain, Shape::Deep] {
        let (x, y, labels) = training(shape);
        let mut c = GbdtClassifier::new(gbdt_config(shape));
        c.fit(&x, &labels).unwrap();
        check(
            &format!("gbdt classifier {shape:?}"),
            &mut c,
            |m, t| m.config.n_threads = t,
            per_row,
        );
        let mut r = GbdtRegressor::new(gbdt_config(shape));
        r.fit(&x, &y).unwrap();
        check(
            &format!("gbdt regressor {shape:?}"),
            &mut r,
            |m, t| m.config.n_threads = t,
            per_row,
        );
    }
}

/// Fingerprints of two DealClosing models, computed before the lockstep
/// kernel replaced the early-exit walk. They hash every training-set
/// prediction, so equality means the kernel's output is unchanged —
/// and so is every result-cache and model-store key derived from them.
#[test]
fn model_fingerprints_are_pinned() {
    let data = whatif::datagen::deal_closing(400, 17);
    let session = Session::new(data.frame).with_kpi("Deal Closed?").unwrap();
    for (config, pinned) in [
        (
            ModelConfig {
                kind: ModelKind::RandomForest,
                n_trees: 20,
                max_depth: 10,
                seed: 3,
                ..ModelConfig::default()
            },
            "a838c03a953583001a249345666078ed",
        ),
        (
            ModelConfig {
                kind: ModelKind::Gbdt,
                n_trees: 30,
                max_depth: 4,
                seed: 3,
                trainer: TrainerTier::Binned,
                ..ModelConfig::default()
            },
            "15f4e9a7ac5205f9143750ed2bf16d37",
        ),
    ] {
        let model = session.train(&config).unwrap();
        assert_eq!(model.fingerprint().to_string(), pinned, "{:?}", config.kind);
    }
}
