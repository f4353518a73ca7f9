//! End-to-end view-request latency through the JSON dispatcher — the
//! "fast real-time response" budget the paper's §5 worries about.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use whatif_core::model_backend::ModelConfig;
use whatif_core::perturbation::Perturbation;
use whatif_server::{Engine, Envelope, Request, Response, UseCase};

fn prepared_engine() -> (Engine, u64) {
    let engine = Engine::new();
    let session = match engine.handle(Request::LoadUseCase {
        use_case: UseCase::DealClosing,
        n_rows: Some(320),
        seed: Some(7),
    }) {
        Ok(Response::SessionCreated { session, .. }) => session,
        other => panic!("unexpected: {other:?}"),
    };
    engine
        .handle(Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        })
        .expect("select KPI");
    let cfg = ModelConfig {
        n_trees: 24,
        max_depth: 8,
        ..ModelConfig::default()
    };
    engine
        .handle(Request::Train {
            session,
            config: Some(cfg),
        })
        .expect("train");
    (engine, session)
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let (engine, session) = prepared_engine();

    group.bench_function("table_view_50", |b| {
        b.iter(|| {
            engine.handle(Request::TableView {
                session,
                max_rows: 50,
            })
        })
    });
    group.bench_function("importance_view", |b| {
        b.iter(|| {
            engine.handle(Request::DriverImportanceView {
                session,
                verify: false,
            })
        })
    });
    group.bench_function("sensitivity_view", |b| {
        b.iter(|| {
            engine.handle(Request::SensitivityView {
                session,
                perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
            })
        })
    });
    group.bench_function("sensitivity_json_roundtrip", |b| {
        // Include the JSON encode/decode the wire adds.
        b.iter(|| {
            let resp = engine
                .handle(Request::SensitivityView {
                    session,
                    perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
                })
                .expect("sensitivity");
            let json = serde_json::to_string(&resp).expect("encode");
            serde_json::from_str::<Response>(&json).expect("decode")
        })
    });

    // v1 vs v2 pipelining: eight sensitivity views dispatched as eight
    // wire lines versus one Batch envelope, both through the full
    // parse → dispatch → encode path the TCP layer uses.
    const PIPELINE_DEPTH: usize = 8;
    let sensitivity = |session| Request::SensitivityView {
        session,
        perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
    };
    let v1_lines: Vec<String> = (0..PIPELINE_DEPTH)
        .map(|_| serde_json::to_string(&sensitivity(session)).expect("encode"))
        .collect();
    let v2_line = serde_json::to_string(&Envelope::new(
        1,
        Request::Batch((0..PIPELINE_DEPTH).map(|_| sensitivity(session)).collect()),
    ))
    .expect("encode");
    group.bench_function("sensitivity_x8_v1_lines", |b| {
        b.iter(|| {
            for line in &v1_lines {
                let (reply, _) = engine.dispatch_line(line);
                assert!(!reply.is_empty());
            }
        })
    });
    group.bench_function("sensitivity_x8_v2_batch", |b| {
        b.iter(|| {
            let (reply, _) = engine.dispatch_line(&v2_line);
            assert!(!reply.is_empty());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
