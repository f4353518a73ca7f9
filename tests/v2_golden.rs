//! Byte-identity pin for the v2 JSON codec.
//!
//! `tests/data/v2_golden.jsonl` holds one compact JSON line per item of
//! [`corpus`]: envelopes carrying every `Request` variant, replies
//! carrying every `Response` variant and every `ErrorCode`, awkward
//! floats (NaN, ±inf, −0.0, subnormals, 1e300), u64 values above
//! `i64::MAX`, escapes and non-ASCII text, plus a seeded random tail.
//! The file was written by the `Value`-tree encoder the typed writers
//! replaced, so these tests pin the wire bytes across codec rewrites:
//!
//! * the encoder reproduces every line byte for byte;
//! * both decoders (the typed reader behind `from_str` and the
//!   `parse` → `from_value` oracle) read every line back to a value
//!   that re-encodes to the same bytes.
//!
//! Regenerate (only when the wire format changes on purpose) with
//! `WHATIF_BLESS_GOLDEN=1 cargo test --test v2_golden`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use whatif::cache::{CacheStats, StoreStats};
use whatif::core::model_backend::TrainerTier;
use whatif::core::{
    ComparisonCurve, DriverConstraint, DriverImportance, ErrorCode, Goal, GoalInversionResult,
    ModelConfig, ModelKind, OptimizerChoice, PerDataSensitivity, Perturbation, PerturbationSet,
    Scenario, ScenarioKind, ScenarioOutcome, ScenarioSpec, SensitivityResult, VerificationReport,
};
use whatif::frame::Value as Cell;
use whatif::obs::{CounterValue, GaugeValue, HistogramSummary, MetricsSnapshot};
use whatif::server::{ApiError, Envelope, Reply, Request, Response, UseCase, CURRENT_SESSION};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/v2_golden.jsonl");

/// One corpus item: the two v2 line shapes.
enum Item {
    Envelope(Envelope),
    Reply(Reply),
}

impl Item {
    fn encode(&self) -> String {
        match self {
            Item::Envelope(e) => serde_json::to_string(e),
            Item::Reply(r) => serde_json::to_string(r),
        }
        .expect("encode")
    }

    /// Decode `line` as the same shape as `self` through the typed
    /// reader, and re-encode it.
    fn reencode_typed(&self, line: &str) -> String {
        match self {
            Item::Envelope(_) => serde_json::to_string(
                &serde_json::from_str::<Envelope>(line).expect("typed envelope decode"),
            ),
            Item::Reply(_) => serde_json::to_string(
                &serde_json::from_str::<Reply>(line).expect("typed reply decode"),
            ),
        }
        .expect("encode")
    }

    /// Same, through the `Value` tree.
    fn reencode_tree(&self, line: &str) -> String {
        let tree = serde_json::parse(line).expect("parse");
        match self {
            Item::Envelope(_) => serde_json::to_string(
                &serde_json::from_value::<Envelope>(&tree).expect("tree envelope decode"),
            ),
            Item::Reply(_) => serde_json::to_string(
                &serde_json::from_value::<Reply>(&tree).expect("tree reply decode"),
            ),
        }
        .expect("encode")
    }
}

/// Floats that stress the number writer: non-finite values encode as
/// `null`, the rest must keep their shortest round-trip form.
const AWKWARD_FLOATS: [f64; 12] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    5e-324,
    f64::from_bits(0x000f_ffff_ffff_ffff), // the largest subnormal
    1e300,
    -1e300,
    f64::MAX,
    0.1,
    123456789.125,
];

/// Strings that stress the string writer: every short escape, other
/// control characters, quotes, non-ASCII and astral-plane text.
const AWKWARD_STRINGS: [&str; 8] = [
    "",
    "plain ascii",
    "quote \" backslash \\ slash /",
    "tab\tnewline\ncr\rbackspace\u{08}formfeed\u{0c}",
    "ctl \u{01}\u{1f}\u{7f}",
    "Übergrößenträger · naïve café",
    "日本語のテキスト",
    "emoji 😀 and 𝄞 clef",
];

fn perturbations(rng: &mut StdRng, n: usize) -> PerturbationSet {
    let mut set = PerturbationSet::new(
        (0..n)
            .map(|k| {
                let amount = random_float(rng);
                if k % 2 == 0 {
                    Perturbation::percentage(format!("driver {k}"), amount)
                } else {
                    Perturbation::absolute(random_string(rng), amount)
                }
            })
            .collect(),
    );
    if rng.gen_bool(0.3) {
        set = set.without_clamp();
    }
    set
}

/// A float drawn from a mix of awkward constants, raw bit patterns
/// (which include subnormals and NaNs) and plain decimals.
fn random_float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => AWKWARD_FLOATS[rng.gen_range(0..AWKWARD_FLOATS.len())],
        1 => f64::from_bits(rng.next_u64()),
        2 => f64::from(rng.gen_range(-1000..1000i32)) / 8.0,
        _ => rng.gen::<f64>() * 1e6 - 5e5,
    }
}

fn random_string(rng: &mut StdRng) -> String {
    const POOL: [char; 16] = [
        'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{00}', '\u{1b}', 'é', 'ß', '中', '😀',
        '\u{2028}',
    ];
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

fn random_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..3u32) {
        0 => rng.next_u64(),
        1 => rng.gen_range(0..1000u64),
        _ => [0, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX][rng.gen_range(0..4usize)],
    }
}

fn every_request(rng: &mut StdRng) -> Vec<Request> {
    let config = ModelConfig {
        kind: ModelKind::Gbdt,
        n_trees: 40,
        max_depth: 6,
        seed: u64::MAX,
        max_features: Some(3),
        n_threads: 2,
        holdout_fraction: 0.2,
        trainer: TrainerTier::Binned,
        n_bins: 64,
    };
    vec![
        Request::ListUseCases,
        Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(300),
            seed: Some(i64::MAX as u64 + 1),
        },
        Request::LoadUseCase {
            use_case: UseCase::MarketingMix,
            n_rows: None,
            seed: None,
        },
        Request::LoadCsv {
            csv: format!("a,b,\"q\"\n1,2,{}\n", AWKWARD_STRINGS[5]),
        },
        Request::TableView {
            session: CURRENT_SESSION,
            max_rows: 10,
        },
        Request::SelectKpi {
            session: 1,
            kpi: "Deal Closed?".into(),
        },
        Request::SelectDrivers {
            session: 2,
            drivers: Some(AWKWARD_STRINGS.iter().map(|s| s.to_string()).collect()),
        },
        Request::SelectDrivers {
            session: 2,
            drivers: None,
        },
        Request::Train {
            session: 3,
            config: Some(config),
        },
        Request::Train {
            session: 3,
            config: Some(ModelConfig::default()),
        },
        Request::Train {
            session: 3,
            config: None,
        },
        Request::DriverImportanceView {
            session: 4,
            verify: true,
        },
        Request::SensitivityView {
            session: 5,
            perturbations: perturbations(rng, 3).perturbations,
        },
        Request::ComparisonView {
            session: 6,
            percentages: AWKWARD_FLOATS.to_vec(),
        },
        Request::PerDataView {
            session: 7,
            row: usize::MAX,
            perturbations: vec![Perturbation::percentage("x", -0.0)],
        },
        Request::GoalInversionView {
            session: 8,
            goal: Goal::Target(1e300),
            constraints: vec![DriverConstraint {
                driver: "Open Marketing Email".into(),
                low_pct: -50.0,
                high_pct: f64::INFINITY,
            }],
            optimizer: Some(OptimizerChoice::Bayesian { n_calls: 30 }),
            seed: 42,
        },
        Request::GoalInversionView {
            session: 8,
            goal: Goal::Maximize,
            constraints: Vec::new(),
            optimizer: Some(OptimizerChoice::RandomSearch { n_evals: 9 }),
            seed: 0,
        },
        Request::GoalInversionView {
            session: 8,
            goal: Goal::Minimize,
            constraints: Vec::new(),
            optimizer: Some(OptimizerChoice::GridSearch { points_per_dim: 5 }),
            seed: 1,
        },
        Request::GoalInversionView {
            session: 8,
            goal: Goal::Maximize,
            constraints: Vec::new(),
            optimizer: Some(OptimizerChoice::NelderMead { max_evals: 50 }),
            seed: 1,
        },
        Request::GoalInversionView {
            session: 8,
            goal: Goal::Minimize,
            constraints: Vec::new(),
            optimizer: None,
            seed: 1,
        },
        Request::EvaluateScenarios {
            session: 9,
            scenarios: vec![
                ScenarioSpec {
                    name: AWKWARD_STRINGS[7].into(),
                    perturbations: perturbations(rng, 2),
                },
                ScenarioSpec {
                    name: String::new(),
                    perturbations: PerturbationSet::new(Vec::new()),
                },
            ],
            record: true,
            n_threads: Some(4),
        },
        Request::RecordScenario {
            session: 10,
            name: AWKWARD_STRINGS[3].into(),
        },
        Request::ListScenarios { session: 11 },
        Request::CloseSession { session: 12 },
        Request::CacheStats,
        Request::ConfigureCache {
            capacity_bytes: Some(u64::MAX),
            enabled: Some(false),
        },
        Request::ConfigureCache {
            capacity_bytes: None,
            enabled: None,
        },
        Request::ModelStoreStats,
        Request::MetricsSnapshot,
        Request::MetricsPrometheus,
        Request::Shutdown,
        Request::Batch(vec![
            Request::LoadUseCase {
                use_case: UseCase::CustomerRetention,
                n_rows: Some(200),
                seed: Some(7),
            },
            Request::SelectKpi {
                session: CURRENT_SESSION,
                kpi: "Retained".into(),
            },
            Request::Batch(vec![Request::ListUseCases]),
        ]),
        Request::Batch(Vec::new()),
    ]
}

fn every_response(rng: &mut StdRng) -> Vec<Response> {
    let names: Vec<String> = ["a", "b \"quoted\"", "ç"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let scores: Vec<f64> = AWKWARD_FLOATS[..3].to_vec();
    vec![
        Response::UseCases(
            UseCase::all()
                .iter()
                .map(|u| (*u, u.label().to_string()))
                .collect(),
        ),
        Response::SessionCreated {
            session: i64::MAX as u64 + 7,
            n_rows: 300,
            columns: vec![whatif::server::protocol::ColumnInfo {
                name: AWKWARD_STRINGS[4].into(),
                dtype: "f64".into(),
                null_count: 0,
            }],
            suggested_kpi: Some("Deal Closed?".into()),
        },
        Response::SessionCreated {
            session: 0,
            n_rows: 0,
            columns: Vec::new(),
            suggested_kpi: None,
        },
        Response::Table {
            columns: names.clone(),
            rows: vec![
                vec![
                    Cell::Null,
                    Cell::Bool(true),
                    Cell::Int(i64::MIN),
                    Cell::Float(-0.0),
                    Cell::Str(AWKWARD_STRINGS[6].into()),
                ],
                vec![Cell::Float(f64::NAN), Cell::Float(2.0), Cell::Int(3)],
            ],
            total_rows: usize::MAX,
        },
        Response::KpiSelected {
            kpi: "Sales".into(),
            kind: "continuous".into(),
        },
        Response::Drivers {
            selected: names.clone(),
        },
        Response::Trained {
            kind: "random_forest".into(),
            confidence: 5e-324,
            baseline_kpi: f64::NAN,
            shared: true,
        },
        Response::Importance {
            importance: DriverImportance {
                driver_names: names.clone(),
                scores: scores.clone(),
            },
            verification: Some(VerificationReport {
                driver_names: names.clone(),
                model_scores: scores.clone(),
                pearson: vec![0.5, -0.25, 1.0],
                spearman: vec![0.1, 0.2, 0.3],
                shapley: vec![1e-7, 1e7, 1e21],
                tau_pearson: 0.333,
                tau_spearman: -1.0,
                tau_shapley: f64::NEG_INFINITY,
                top3_overlap: [1.0, 0.0, -0.0],
            }),
        },
        Response::Importance {
            importance: DriverImportance {
                driver_names: Vec::new(),
                scores: Vec::new(),
            },
            verification: None,
        },
        Response::Sensitivity(SensitivityResult {
            kpi_name: "Deal Closed?".into(),
            baseline_kpi: 0.4123,
            perturbed_kpi: f64::INFINITY,
            perturbations: perturbations(rng, 4),
        }),
        Response::Comparison(vec![ComparisonCurve {
            driver: "x".into(),
            percentages: AWKWARD_FLOATS.to_vec(),
            kpi_values: AWKWARD_FLOATS.iter().rev().copied().collect(),
        }]),
        Response::PerData(PerDataSensitivity {
            row: 17,
            baseline: -1e300,
            perturbed: 1e300,
        }),
        Response::GoalInversion(GoalInversionResult {
            goal: Goal::Target(-0.0),
            achieved_kpi: 0.75,
            baseline_kpi: 0.5,
            confidence: 0.9,
            driver_percentages: vec![("a".into(), 12.5), ("b".into(), f64::NAN)],
            driver_values: vec![("a".into(), 3.25)],
            n_evals: 64,
            converged: false,
        }),
        Response::ScenarioRecorded { id: u64::MAX },
        Response::ScenariosEvaluated {
            outcomes: vec![ScenarioOutcome {
                name: AWKWARD_STRINGS[2].into(),
                perturbations: perturbations(rng, 2),
                kpi: 0.1,
                baseline_kpi: 0.2,
            }],
            recorded_ids: vec![1, i64::MAX as u64 + 1],
        },
        Response::Scenarios(
            [
                ScenarioKind::Sensitivity,
                ScenarioKind::GoalInversion,
                ScenarioKind::Bulk,
            ]
            .into_iter()
            .enumerate()
            .map(|(k, kind)| Scenario {
                id: k as u64,
                name: format!("scenario {k}"),
                kind,
                perturbations: perturbations(rng, k),
                kpi: random_float(rng),
                baseline_kpi: random_float(rng),
            })
            .collect(),
        ),
        Response::CacheStats(CacheStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            entries: 5,
            bytes: 6,
            capacity_bytes: u64::MAX,
            enabled: true,
            oversized_skips: 7,
        }),
        Response::ModelStoreStats(StoreStats {
            hits: 9,
            misses: 8,
            build_failures: 7,
            entries: 6,
            referenced: 5,
            bytes: 4,
            capacity_bytes: 3,
            evictions: 2,
        }),
        Response::Metrics(MetricsSnapshot {
            counters: vec![CounterValue {
                name: "req.sensitivity_view.count".into(),
                value: u64::MAX,
            }],
            gauges: vec![GaugeValue {
                name: "server.connections".into(),
                value: i64::MIN,
            }],
            histograms: vec![HistogramSummary {
                name: "req.sensitivity_view.latency_us".into(),
                count: 10,
                sum_us: 100,
                max_us: 30,
                p50_us: 8,
                p90_us: 20,
                p99_us: 30,
            }],
        }),
        Response::Metrics(MetricsSnapshot::default()),
        Response::MetricsText("# TYPE x counter\nx 1\n".into()),
        Response::SessionClosed,
        Response::ShuttingDown,
        Response::Batch(vec![
            Reply::ok(1, Response::SessionClosed),
            Reply::fail(2, ApiError::not_trained()),
        ]),
        Response::Error(ApiError::unknown_session(u64::MAX)),
    ]
}

/// The whole corpus, deterministic for a fixed seed.
fn corpus() -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(0x5eed_2014);
    let mut items = Vec::new();

    for (k, body) in every_request(&mut rng).into_iter().enumerate() {
        let mut envelope = Envelope::new(k as u64, body);
        if k % 3 == 1 {
            envelope = envelope.with_trace(AWKWARD_STRINGS[k % AWKWARD_STRINGS.len()]);
        }
        if k % 4 == 2 {
            envelope = envelope.with_deadline_ms(k as u64 * 250);
        }
        items.push(Item::Envelope(envelope));
    }
    items.push(Item::Envelope(Envelope {
        id: u64::MAX,
        version: 2,
        body: Request::ListUseCases,
        trace_id: Some(String::new()),
        deadline_ms: Some(0),
    }));

    for (k, result) in every_response(&mut rng).into_iter().enumerate() {
        let reply = Reply::ok(k as u64, result)
            .with_cached(k % 2 == 0)
            .with_trace((k % 3 == 0).then(|| AWKWARD_STRINGS[k % 8].to_string()));
        items.push(Item::Reply(reply));
    }
    for (k, code) in ErrorCode::all().into_iter().enumerate() {
        let message = format!("{code} failure: {}", AWKWARD_STRINGS[k % 8]);
        items.push(Item::Reply(Reply::fail(
            i64::MAX as u64 + k as u64,
            ApiError::new(code, message),
        )));
    }

    // Seeded tail: slider drags and sweeps with random amounts and names.
    for k in 0..40u64 {
        let session = random_u64(&mut rng);
        let item = match k % 4 {
            0 => Item::Envelope(Envelope::new(
                random_u64(&mut rng),
                Request::SensitivityView {
                    session,
                    perturbations: perturbations(&mut rng, (k % 5) as usize).perturbations,
                },
            )),
            1 => Item::Envelope(
                Envelope::new(
                    random_u64(&mut rng),
                    Request::ComparisonView {
                        session,
                        percentages: (0..k % 7).map(|_| random_float(&mut rng)).collect(),
                    },
                )
                .with_trace(random_string(&mut rng)),
            ),
            2 => Item::Reply(
                Reply::ok(
                    session,
                    Response::Sensitivity(SensitivityResult {
                        kpi_name: random_string(&mut rng),
                        baseline_kpi: random_float(&mut rng),
                        perturbed_kpi: random_float(&mut rng),
                        perturbations: perturbations(&mut rng, (k % 3) as usize),
                    }),
                )
                .with_cached(rng.gen_bool(0.5)),
            ),
            _ => Item::Reply(Reply::fail(
                session,
                ApiError::new(
                    ErrorCode::all()[rng.gen_range(0..12usize)],
                    random_string(&mut rng),
                ),
            )),
        };
        items.push(item);
    }
    items
}

fn golden_lines() -> Vec<String> {
    let corpus = corpus();
    if std::env::var_os("WHATIF_BLESS_GOLDEN").is_some() {
        let mut text = String::new();
        for item in &corpus {
            text.push_str(&item.encode());
            text.push('\n');
        }
        std::fs::write(GOLDEN_PATH, text).expect("write golden corpus");
    }
    let text = std::fs::read_to_string(GOLDEN_PATH).expect("golden corpus present");
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert_eq!(
        lines.len(),
        corpus.len(),
        "corpus and golden file disagree in length"
    );
    lines
}

#[test]
fn encoder_reproduces_the_golden_corpus_byte_for_byte() {
    let lines = golden_lines();
    for (k, (item, line)) in corpus().iter().zip(&lines).enumerate() {
        assert_eq!(&item.encode(), line, "golden line {}", k + 1);
    }
}

#[test]
fn both_decoders_round_trip_the_golden_corpus() {
    let lines = golden_lines();
    for (k, (item, line)) in corpus().iter().zip(&lines).enumerate() {
        assert_eq!(
            &item.reencode_typed(line),
            line,
            "typed, golden line {}",
            k + 1
        );
        assert_eq!(
            &item.reencode_tree(line),
            line,
            "tree, golden line {}",
            k + 1
        );
    }
}

#[test]
fn golden_corpus_covers_the_awkward_cases() {
    let text = golden_lines().join("\n");
    for needle in [
        "null",
        "-0.0",
        "5e-324",
        "1e300",
        "18446744073709551615",
        "9223372036854775808",
        "\\u0000",
        "\\\"",
        "\\\\",
        "\\n",
        "\\b",
        "\\f",
        "ö",
        "😀",
    ] {
        assert!(text.contains(needle), "corpus lacks {needle:?}");
    }
    for code in ErrorCode::all() {
        let wire = serde_json::to_string(&code).unwrap();
        assert!(text.contains(&wire), "corpus lacks error code {wire}");
    }
}
