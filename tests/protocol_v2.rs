//! Integration tests for the wire protocols: concurrent clients over
//! real TCP, one-round-trip batch pipelines, v1 ↔ v2 compatibility on
//! the same connection, typed error codes end to end, and all three
//! protocol generations (v1 bare lines, v2 envelopes, v3 binary
//! frames) coexisting on one listener.

use whatif::core::bulk::ScenarioSpec;
use whatif::core::model_backend::ModelConfig;
use whatif::core::perturbation::Perturbation;
use whatif::core::{ErrorCode, PerturbationSet};
use whatif::server::{
    serve, Client, Envelope, Reply, Request, Response, UseCase, V3Client, CURRENT_SESSION,
};
use whatif_wire::{
    ErrorReply, FrameEvent, FrameType, ReplyBody, RequestBody, WireReply, WireRequest,
};

fn fast_config() -> ModelConfig {
    ModelConfig {
        n_trees: 12,
        max_depth: 8,
        ..ModelConfig::default()
    }
}

/// N clients, each driving its own session through
/// load → kpi → train → sensitivity concurrently, asserting isolation.
#[test]
fn concurrent_clients_progress_in_parallel_without_crosstalk() {
    const N_CLIENTS: usize = 4;
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");

    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|k| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let n_rows = 150 + 10 * k; // distinct per client
                let session = match client
                    .call(&Request::LoadUseCase {
                        use_case: UseCase::DealClosing,
                        n_rows: Some(n_rows),
                        seed: Some(k as u64),
                    })
                    .unwrap()
                {
                    Response::SessionCreated {
                        session,
                        n_rows: got,
                        ..
                    } => {
                        assert_eq!(got, n_rows, "client {k} sees its own dataset");
                        session
                    }
                    other => panic!("client {k}: unexpected {other:?}"),
                };
                assert!(!client
                    .call(&Request::SelectKpi {
                        session,
                        kpi: "Deal Closed?".into(),
                    })
                    .unwrap()
                    .is_error());
                assert!(matches!(
                    client
                        .call(&Request::Train {
                            session,
                            config: Some(fast_config()),
                        })
                        .unwrap(),
                    Response::Trained { .. }
                ));
                let resp = client
                    .call(&Request::SensitivityView {
                        session,
                        perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
                    })
                    .unwrap();
                let Response::Sensitivity(s) = resp else {
                    panic!("client {k}: unexpected {resp:?}");
                };
                assert_eq!(s.kpi_name, "Deal Closed?");
                // Isolation: this client's table still has its own row
                // count, untouched by the other clients' sessions.
                let Response::Table { total_rows, .. } = client
                    .call(&Request::TableView {
                        session,
                        max_rows: 1,
                    })
                    .unwrap()
                else {
                    panic!("client {k}: expected table");
                };
                assert_eq!(total_rows, n_rows, "client {k} session untouched");
                session
            })
        })
        .collect();

    let sessions: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let unique: std::collections::HashSet<u64> = sessions.iter().copied().collect();
    assert_eq!(
        unique.len(),
        N_CLIENTS,
        "every client got its own session id"
    );

    let mut closer = Client::connect(addr).unwrap();
    closer.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// A single batch round trip drives the whole view pipeline, with
/// per-step replies echoing the envelope id.
#[test]
fn batch_round_trip_drives_load_kpi_train_sensitivity() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).unwrap();

    let replies = client
        .call_batch(
            77,
            vec![
                Request::LoadUseCase {
                    use_case: UseCase::DealClosing,
                    n_rows: Some(200),
                    seed: Some(5),
                },
                Request::SelectKpi {
                    session: CURRENT_SESSION,
                    kpi: "Deal Closed?".into(),
                },
                Request::Train {
                    session: CURRENT_SESSION,
                    config: Some(fast_config()),
                },
                Request::SensitivityView {
                    session: CURRENT_SESSION,
                    perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
                },
            ],
        )
        .unwrap();
    assert_eq!(replies.len(), 4);
    assert!(replies.iter().all(|r| r.id == 77), "ids match the envelope");
    assert!(replies.iter().all(|r| !r.is_error()));
    assert!(matches!(
        &replies[0].result,
        Some(Response::SessionCreated { .. })
    ));
    assert!(matches!(&replies[2].result, Some(Response::Trained { .. })));
    let Some(Response::Sensitivity(s)) = &replies[3].result else {
        panic!("expected a sensitivity payload last");
    };
    assert_eq!(s.kpi_name, "Deal Closed?");

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// Bare v1 request lines and v2 envelopes interleave on one connection;
/// each gets an answer in its own framing.
#[test]
fn v1_and_v2_framings_coexist_on_one_connection() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).unwrap();

    // Exact legacy wire bytes: a bare enum-variant request line.
    let line = client.send_raw("\"ListUseCases\"").unwrap();
    let v1: Response = serde_json::from_str(&line).unwrap();
    assert!(matches!(v1, Response::UseCases(u) if u.len() == 3));

    // The same request as a v2 envelope on the same connection.
    let line = client
        .send_raw("{\"id\": 5, \"version\": 2, \"body\": \"ListUseCases\"}")
        .unwrap();
    let reply: Reply = serde_json::from_str(&line).unwrap();
    assert_eq!(reply.id, 5);
    assert!(matches!(
        reply.into_result().unwrap(),
        Response::UseCases(_)
    ));

    // v1 errors still deserialize for legacy readers and now carry a
    // typed code as well.
    let line = client
        .send_raw("{\"CloseSession\": {\"session\": 424242}}")
        .unwrap();
    let v1: Response = serde_json::from_str(&line).unwrap();
    assert_eq!(v1.as_error().unwrap().code, ErrorCode::UnknownSession);
    assert!(line.contains("\"message\""), "legacy message field present");

    // A v1 request constructed through the typed client round-trips
    // into a v2 envelope unchanged (upgrade adapter).
    let request = Request::LoadUseCase {
        use_case: UseCase::MarketingMix,
        n_rows: Some(30),
        seed: Some(1),
    };
    let upgraded = Envelope::new(9, request.clone());
    assert_eq!(upgraded.body, request, "body is the bare v1 request");
    let reply = client.call_v2(9, request).unwrap();
    assert!(matches!(
        reply.into_result().unwrap(),
        Response::SessionCreated { .. }
    ));

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// All three protocol generations on ONE listener: a v1 bare-line
/// client, a v2 envelope client, and a v3 framed binary client
/// interleave requests against the same session, and the v3 columnar
/// scenario path returns bit-identical KPIs to the v2 JSON path.
#[test]
fn three_protocol_generations_coexist_on_one_listener() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut v1 = Client::connect(addr).unwrap();
    let mut v2 = Client::connect(addr).unwrap();
    let mut v3 = V3Client::connect(addr).unwrap();

    // The v3 client opens the session (through the JSON-fallback
    // opcode, so any v1/v2 request rides v3 framing)...
    let reply = v3
        .call_json(
            1,
            &Request::LoadUseCase {
                use_case: UseCase::DealClosing,
                n_rows: Some(160),
                seed: Some(7),
            },
        )
        .unwrap();
    assert_eq!(reply.id, 1);
    let Response::SessionCreated { session, .. } = reply.into_result().unwrap() else {
        panic!("expected SessionCreated via v3");
    };

    // ...the v1 client picks the KPI on that very session...
    assert!(!v1
        .call(&Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        })
        .unwrap()
        .is_error());

    // ...the v2 client trains it...
    let reply = v2
        .call_v2(
            2,
            Request::Train {
                session,
                config: Some(fast_config()),
            },
        )
        .unwrap();
    assert!(matches!(
        reply.into_result().unwrap(),
        Response::Trained { .. }
    ));

    // ...and the same scenario grid goes through both data paths:
    // v2 row-oriented JSON and v3 columnar frames.
    let specs: Vec<ScenarioSpec> = (1..=5)
        .map(|i| {
            ScenarioSpec::new(
                format!("ome +{i}0%"),
                PerturbationSet::new(vec![Perturbation::percentage(
                    "Open Marketing Email",
                    10.0 * f64::from(i),
                )]),
            )
        })
        .collect();
    let reply = v2
        .call_v2(
            3,
            Request::EvaluateScenarios {
                session,
                scenarios: specs.clone(),
                record: false,
                n_threads: None,
            },
        )
        .unwrap();
    let Response::ScenariosEvaluated { outcomes, .. } = reply.into_result().unwrap() else {
        panic!("expected ScenariosEvaluated via v2");
    };
    let grid = whatif::server::v3::specs_to_grid(session, &specs, false, None);
    let streamed = v3.evaluate_grid(4, grid).unwrap();
    assert_eq!(streamed.head.total, 5);
    assert_eq!(streamed.kpi.len(), outcomes.len());
    for (columnar, row) in streamed.kpi.iter().zip(&outcomes) {
        assert_eq!(
            columnar.to_bits(),
            row.kpi.to_bits(),
            "v3 columnar KPI must be bit-identical to the v2 JSON KPI"
        );
        assert_eq!(
            streamed.head.baseline_kpi.to_bits(),
            row.baseline_kpi.to_bits()
        );
    }

    // One more interleaving round: v1 sensitivity, v3 columnar
    // comparison, v2 table view — all against the shared session.
    let resp = v1
        .call(&Request::SensitivityView {
            session,
            perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
        })
        .unwrap();
    assert!(matches!(resp, Response::Sensitivity(_)));
    let cmp = v3.comparison(5, session, vec![-20.0, 0.0, 20.0]).unwrap();
    assert_eq!(cmp.percentages, vec![-20.0, 0.0, 20.0]);
    assert!(!cmp.drivers.is_empty());
    assert_eq!(cmp.kpi_columns.len(), cmp.drivers.len());
    assert!(cmp.kpi_columns.iter().all(|c| c.len() == 3));
    let Response::Table { total_rows, .. } = v2
        .call_v2(
            6,
            Request::TableView {
                session,
                max_rows: 1,
            },
        )
        .unwrap()
        .into_result()
        .unwrap()
    else {
        panic!("expected a table via v2");
    };
    assert_eq!(total_rows, 160);

    // Typed errors reach the v3 client too.
    let err = v3
        .call_json(
            7,
            &Request::TableView {
                session: 424_242,
                max_rows: 1,
            },
        )
        .unwrap()
        .into_result()
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownSession);

    v1.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// Mid-stream garbage on a v3 connection: the server answers each
/// malformed stretch with a typed error frame, stays aligned, and keeps
/// serving the same connection — including an in-band v3 shutdown.
#[test]
fn v3_connections_recover_from_mid_stream_garbage() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut v3 = V3Client::connect(addr).unwrap();

    // A clean request first, so the connection is known-good.
    let reply = v3.call_json(1, &Request::ListUseCases).unwrap();
    assert!(matches!(
        reply.into_result().unwrap(),
        Response::UseCases(u) if u.len() == 3
    ));

    // Garbage that contains no magic byte (all ASCII, 0xB3 absent), so
    // resynchronization is deterministic, followed by a valid request
    // in the same write.
    let garbage = b"@@@ definitely not a frame @@@";
    v3.send_raw(garbage).unwrap();
    v3.send(&WireRequest {
        id: 7,
        deadline_ms: 0,
        body: RequestBody::Json(
            serde_json::to_string(&Envelope::new(7, Request::ListUseCases)).unwrap(),
        ),
    })
    .unwrap();

    // First answer: a typed error frame describing the skipped bytes.
    let FrameEvent::Frame(frame) = v3.read_event().unwrap() else {
        panic!("expected an error frame");
    };
    assert_eq!(frame.frame_type, FrameType::Error);
    let err = ErrorReply::decode(&frame.payload).unwrap();
    assert_eq!(err.id, 0, "the failure predates any request id");
    assert_eq!(err.code, "BadRequest");
    assert!(
        err.message.contains(&format!("{}", garbage.len())),
        "skip count surfaces in {:?}",
        err.message
    );

    // Second answer: the valid request that followed the garbage.
    let FrameEvent::Frame(frame) = v3.read_event().unwrap() else {
        panic!("expected the real reply");
    };
    assert_eq!(frame.frame_type, FrameType::Reply);
    let wire_reply = WireReply::decode(&frame.payload).unwrap();
    assert_eq!(wire_reply.id, 7);
    let ReplyBody::Json(line) = wire_reply.body else {
        panic!("expected a JSON reply body");
    };
    let reply: Reply = serde_json::from_str(&line).unwrap();
    assert_eq!(reply.id, 7);
    assert!(!reply.is_error());

    // A corrupted frame (valid header, flipped payload bit) costs
    // exactly one typed error, then the connection serves on.
    let payload = WireRequest {
        id: 8,
        deadline_ms: 0,
        body: RequestBody::Json(
            serde_json::to_string(&Envelope::new(8, Request::ListUseCases)).unwrap(),
        ),
    }
    .encode();
    let mut bytes = whatif_wire::frame::encode_frame(
        FrameType::Request,
        &payload,
        whatif_wire::Compression::None,
    )
    .unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    v3.send_raw(&bytes).unwrap();
    let FrameEvent::Frame(frame) = v3.read_event().unwrap() else {
        panic!("expected an error frame for the corrupted request");
    };
    assert_eq!(frame.frame_type, FrameType::Error);
    assert_eq!(
        ErrorReply::decode(&frame.payload).unwrap().code,
        "BadRequest"
    );

    // The connection survived both incidents: a normal call works and
    // the in-band shutdown is honoured.
    let reply = v3.call_json(9, &Request::ListUseCases).unwrap();
    assert!(!reply.is_error());
    let reply = v3.call_json(10, &Request::Shutdown).unwrap();
    assert!(matches!(
        reply.into_result().unwrap(),
        Response::ShuttingDown
    ));
    handle.join().unwrap();
}

/// One line of 200,000 `[` used to recurse the JSON parser off the end
/// of the connection thread's stack, which aborts the whole process
/// before any session exists. It is now a typed `BadRequest` on v1/v2
/// lines and inside v3 frames alike, and the server keeps serving.
#[test]
fn hostile_json_nesting_is_a_bad_request_not_a_crash() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let hostile = "[".repeat(200_000);

    let mut client = Client::connect(addr).unwrap();
    for line in [hostile.clone(), format!("{{\"id\": 3, \"body\": {hostile}")] {
        let reply = client.send_raw(&line).unwrap();
        let v1: Response = serde_json::from_str(&reply).unwrap();
        let error = v1.as_error().expect("a typed error");
        assert_eq!(error.code, ErrorCode::BadRequest);
        assert!(error.message.contains("nesting"), "{}", error.message);
    }

    let mut v3 = V3Client::connect(addr).unwrap();
    v3.send(&WireRequest {
        id: 4,
        deadline_ms: 0,
        body: RequestBody::Json(hostile),
    })
    .unwrap();
    let FrameEvent::Frame(frame) = v3.read_event().unwrap() else {
        panic!("expected a reply frame");
    };
    let ReplyBody::Json(line) = WireReply::decode(&frame.payload).unwrap().body else {
        panic!("expected a JSON reply body");
    };
    let v1: Response = serde_json::from_str(&line).unwrap();
    assert_eq!(v1.as_error().unwrap().code, ErrorCode::BadRequest);

    // Health check: the same connections and a fresh one all answer.
    assert!(!client.call_v2(5, Request::ListUseCases).unwrap().is_error());
    assert!(!v3.call_json(6, &Request::ListUseCases).unwrap().is_error());
    let mut fresh = Client::connect(addr).unwrap();
    assert!(!fresh.call_v2(7, Request::ListUseCases).unwrap().is_error());
    fresh.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// The session lifecycle end to end: record a scenario from a
/// sensitivity outcome, list it, close the session, then every
/// subsequent request on the closed id fails with the
/// `UnknownSession` code (nothing lingers, nothing panics).
#[test]
fn closed_sessions_reject_all_follow_up_requests() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).unwrap();

    let replies = client
        .call_batch(
            21,
            vec![
                Request::LoadUseCase {
                    use_case: UseCase::DealClosing,
                    n_rows: Some(180),
                    seed: Some(4),
                },
                Request::SelectKpi {
                    session: CURRENT_SESSION,
                    kpi: "Deal Closed?".into(),
                },
                Request::Train {
                    session: CURRENT_SESSION,
                    config: Some(fast_config()),
                },
                Request::SensitivityView {
                    session: CURRENT_SESSION,
                    perturbations: vec![Perturbation::percentage("Call", 25.0)],
                },
                Request::RecordScenario {
                    session: CURRENT_SESSION,
                    name: "calls +25%".into(),
                },
                Request::ListScenarios {
                    session: CURRENT_SESSION,
                },
                Request::CloseSession {
                    session: CURRENT_SESSION,
                },
            ],
        )
        .unwrap();
    assert_eq!(replies.len(), 7, "whole lifecycle succeeded");
    assert!(replies.iter().all(|r| !r.is_error()));
    let Some(Response::SessionCreated { session, .. }) = &replies[0].result else {
        panic!("expected SessionCreated first");
    };
    let session = *session;
    let Some(Response::ScenarioRecorded { id }) = &replies[4].result else {
        panic!("expected ScenarioRecorded");
    };
    let Some(Response::Scenarios(listed)) = &replies[5].result else {
        panic!("expected Scenarios");
    };
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].id, *id);
    assert_eq!(listed[0].name, "calls +25%");
    assert!(matches!(&replies[6].result, Some(Response::SessionClosed)));

    // Every follow-up on the closed id: UnknownSession, both framings.
    let follow_up = |i: usize| -> Request {
        match i {
            0 => Request::TableView {
                session,
                max_rows: 1,
            },
            1 => Request::SensitivityView {
                session,
                perturbations: vec![],
            },
            2 => Request::ListScenarios { session },
            3 => Request::RecordScenario {
                session,
                name: "ghost".into(),
            },
            _ => Request::CloseSession { session },
        }
    };
    for i in 0..5 {
        let resp = client.call(&follow_up(i)).unwrap();
        assert_eq!(
            resp.as_error().map(|e| e.code),
            Some(ErrorCode::UnknownSession),
            "v1 follow-up {i}"
        );
        let reply = client.call_v2(100 + i as u64, follow_up(i)).unwrap();
        assert_eq!(
            reply.into_result().unwrap_err().code,
            ErrorCode::UnknownSession,
            "v2 follow-up {i}"
        );
    }

    // A closed id is gone for good: session ids are never reused, so a
    // brand-new session gets a fresh id.
    let Response::SessionCreated {
        session: fresh_id, ..
    } = client
        .call(&Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(60),
            seed: Some(1),
        })
        .unwrap()
    else {
        panic!("expected SessionCreated");
    };
    assert_ne!(fresh_id, session);

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// The result cache over the wire: concurrent clients asking the same
/// question share one computation, replies carry the v2 `cached`
/// marker, and `CacheStats` accounting stays consistent under
/// concurrency (every lookup counted exactly once, per-client repeats
/// guaranteed to hit).
#[test]
fn cache_stats_are_consistent_under_concurrent_clients() {
    const N_CLIENTS: usize = 4;
    const REPEATS: usize = 6;
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");

    // One shared session: same model, same question, many clients.
    let mut setup = Client::connect(addr).unwrap();
    let replies = setup
        .call_batch(
            1,
            vec![
                Request::LoadUseCase {
                    use_case: UseCase::DealClosing,
                    n_rows: Some(200),
                    seed: Some(5),
                },
                Request::SelectKpi {
                    session: CURRENT_SESSION,
                    kpi: "Deal Closed?".into(),
                },
                Request::Train {
                    session: CURRENT_SESSION,
                    config: Some(fast_config()),
                },
            ],
        )
        .unwrap();
    let Some(Response::SessionCreated { session, .. }) = &replies[0].result else {
        panic!("expected SessionCreated");
    };
    let session = *session;

    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|k| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut hits = 0usize;
                for r in 0..REPEATS {
                    let reply = client
                        .call_v2(
                            (k * REPEATS + r) as u64,
                            Request::SensitivityView {
                                session,
                                perturbations: vec![Perturbation::percentage(
                                    "Open Marketing Email",
                                    40.0,
                                )],
                            },
                        )
                        .unwrap();
                    assert!(!reply.is_error());
                    if reply.cached {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    let client_hits: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();

    let reply = setup.call_v2(999, Request::CacheStats).unwrap();
    let Response::CacheStats(stats) = reply.into_result().unwrap() else {
        panic!("expected CacheStats");
    };
    let lookups = (N_CLIENTS * REPEATS) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup counted exactly once"
    );
    // After a client's own first call, its remaining repeats are
    // guaranteed hits; only first calls can race into misses.
    assert!(
        stats.hits >= (N_CLIENTS * (REPEATS - 1)) as u64,
        "hits {} too low",
        stats.hits
    );
    assert!(
        stats.misses <= N_CLIENTS as u64,
        "misses {} exceed the first-call race bound",
        stats.misses
    );
    assert_eq!(
        client_hits as u64, stats.hits,
        "reply markers agree with server accounting"
    );
    assert_eq!(stats.insertions, stats.misses, "every miss was stored");
    assert!(stats.entries >= 1);
    assert!(stats.bytes <= stats.capacity_bytes);
    assert!(stats.enabled);
    assert!(stats.hit_rate() > 0.5);

    setup.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// Typed error codes surface through both framings over TCP.
#[test]
fn error_codes_surface_over_the_wire() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).unwrap();

    let resp = client
        .call(&Request::TableView {
            session: 999,
            max_rows: 1,
        })
        .unwrap();
    assert_eq!(resp.as_error().unwrap().code, ErrorCode::UnknownSession);

    let reply = client
        .call_v2(
            1,
            Request::TableView {
                session: 999,
                max_rows: 1,
            },
        )
        .unwrap();
    assert_eq!(
        reply.into_result().unwrap_err().code,
        ErrorCode::UnknownSession
    );

    let session = match client
        .call(&Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(120),
            seed: Some(2),
        })
        .unwrap()
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    let reply = client
        .call_v2(
            2,
            Request::DriverImportanceView {
                session,
                verify: false,
            },
        )
        .unwrap();
    assert_eq!(reply.into_result().unwrap_err().code, ErrorCode::NotTrained);
    let reply = client
        .call_v2(
            3,
            Request::Train {
                session,
                config: None,
            },
        )
        .unwrap();
    assert_eq!(reply.into_result().unwrap_err().code, ErrorCode::NoKpi);

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// Load, pick the KPI and train a small DealClosing session.
fn trained_session(client: &mut Client) -> u64 {
    let session = match client
        .call(&Request::LoadUseCase {
            use_case: UseCase::DealClosing,
            n_rows: Some(160),
            seed: Some(3),
        })
        .unwrap()
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    assert!(!client
        .call(&Request::SelectKpi {
            session,
            kpi: "Deal Closed?".into(),
        })
        .unwrap()
        .is_error());
    assert!(!client
        .call(&Request::Train {
            session,
            config: Some(fast_config()),
        })
        .unwrap()
        .is_error());
    session
}

/// A `null` amount reads as NaN and `1e400` as +inf; both are rejected
/// as a typed `Config` error instead of being evaluated, cached and
/// echoed back as `null`, in slider drags and comparison sweeps alike.
#[test]
fn non_finite_perturbation_amounts_are_config_errors_over_v2() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).unwrap();
    let session = trained_session(&mut client);

    for (id, amount) in [(10, "null"), (11, "1e400"), (12, "-1e400")] {
        let line = format!(
            "{{\"id\":{id},\"body\":{{\"SensitivityView\":{{\"session\":{session},\
             \"perturbations\":[{{\"driver\":\"Open Marketing Email\",\
             \"kind\":{{\"Percentage\":{amount}}}}}]}}}}}}"
        );
        let reply: Reply = serde_json::from_str(&client.send_raw(&line).unwrap()).unwrap();
        assert_eq!(reply.id, id);
        let error = reply.into_result().unwrap_err();
        assert_eq!(error.code, ErrorCode::Config, "{amount}: {error}");
        assert!(error.message.contains("non-finite"), "{}", error.message);
        // A comparison sweep builds its plans without compiling a named
        // set, and applies the same check.
        let line = format!(
            "{{\"id\":{id},\"body\":{{\"ComparisonView\":{{\"session\":{session},\
             \"percentages\":[10.0,{amount}]}}}}}}"
        );
        let reply: Reply = serde_json::from_str(&client.send_raw(&line).unwrap()).unwrap();
        let error = reply.into_result().unwrap_err();
        assert_eq!(error.code, ErrorCode::Config, "sweep {amount}: {error}");
    }
    // A finite drag on the same session still answers.
    let reply = client
        .call_v2(
            13,
            Request::SensitivityView {
                session,
                perturbations: vec![Perturbation::percentage("Open Marketing Email", 40.0)],
            },
        )
        .unwrap();
    assert!(matches!(
        reply.into_result().unwrap(),
        Response::Sensitivity(_)
    ));

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}

/// The same check covers v3 grids: a scenario with an infinite amount
/// fails the grid with a typed `Config` error frame. (A NaN cell is the
/// grid's "driver untouched" marker, so it never becomes an amount.)
#[test]
fn non_finite_perturbation_amounts_are_config_errors_over_a_v3_grid() {
    let (addr, handle) = serve("127.0.0.1:0").expect("bind");
    let mut client = Client::connect(addr).unwrap();
    let session = trained_session(&mut client);
    let mut v3 = V3Client::connect(addr).unwrap();

    for amount in [f64::INFINITY, f64::NEG_INFINITY] {
        let specs = vec![
            ScenarioSpec::new(
                "fine",
                PerturbationSet::new(vec![Perturbation::percentage("Open Marketing Email", 5.0)]),
            ),
            ScenarioSpec::new(
                "bad",
                PerturbationSet::new(vec![Perturbation::absolute("Open Marketing Email", amount)]),
            ),
        ];
        let grid = whatif::server::v3::specs_to_grid(session, &specs, false, None);
        match v3.evaluate_grid(20, grid) {
            Err(whatif::server::V3Error::Server(e)) => {
                assert_eq!(e.code, "Config", "{amount}: {}", e.message);
                assert!(e.message.contains("non-finite"), "{}", e.message);
            }
            other => panic!("{amount}: expected a Config error frame, got {other:?}"),
        }
    }
    // The connection keeps serving.
    assert!(!v3.call_json(21, &Request::ListUseCases).unwrap().is_error());

    client.call(&Request::Shutdown).unwrap();
    handle.join().unwrap();
}
