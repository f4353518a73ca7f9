//! The traced run's per-layer ledger.
//!
//! After the timed window, the same workload's requests are replayed
//! in-process against the live engine, and the benchmark times its own
//! calls into each layer's public functions: the JSON codec, engine
//! dispatch, the result cache, plan compilation, the analyses, the
//! trainer and predictor, the optimizer, the v3 wire codec and the CSV
//! parser. Nothing inside the program is instrumented.

use crate::inputs::{Grid, Kind, Line, Rng, GRID_SCENARIOS, KPI};
use crate::measure::{us, Samples};
use crate::net::{decode_stream, FrameConn, LineConn};
use crate::workloads::{Delta, Metric, Outcome};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;
use whatif_core::constraint::{DEFAULT_HIGH_PCT, DEFAULT_LOW_PCT};
use whatif_core::spec::{AnalysisSpec, SpecOutcome};
use whatif_core::{
    ModelConfig, PerturbationPlan, PerturbationSet, ScenarioSet, ScenarioSpec, Session,
};
use whatif_frame::Frame;
use whatif_learn::MatrixView;
use whatif_server::{Engine, Envelope, Request};
use whatif_wire::frame::{encode_frame, HEADER_LEN};
use whatif_wire::{Compression, FrameType, RequestBody, WireRequest};

/// How far the warm slider's layer parts may fall from its measured
/// socket-to-socket median, as a share of that median.
pub const RECONCILE_TOLERANCE: f64 = 0.25;

/// Replays of the probe lines when timing the codec, dispatch and
/// cache-hit layers.
const REPS: usize = 100;

/// What the ledger needs from a finished workload run.
pub struct Probe<'a> {
    /// The live engine that served the run.
    pub engine: &'a Engine,
    /// Where it listens.
    pub addr: SocketAddr,
    /// A live, trained session of the workload.
    pub session: u64,
    /// The session's dataset.
    pub frame: Frame,
    /// The same dataset as CSV text.
    pub csv: String,
    /// The session's training configuration.
    pub config: ModelConfig,
    /// The workload's analysis requests against `session`.
    pub lines: Vec<Line>,
    /// The workload's scenario grid, when it sends grids.
    pub grid: Option<&'a Grid>,
    /// Worker threads for scenario grids.
    pub n_threads: usize,
    /// The request kind the workload's headline latency times.
    pub headline: Kind,
    /// Whether the headline request is served from the result cache.
    pub warm: bool,
    /// The headline request's measured socket-to-socket median.
    pub e2e_p50_us: f64,
    /// Server counters over the timed window.
    pub delta: Delta,
    /// The run seed.
    pub seed: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The analysis a request line runs, as the engine maps it.
fn spec_of(request: &Request) -> Option<AnalysisSpec> {
    match request {
        Request::SensitivityView { perturbations, .. } => Some(AnalysisSpec::Sensitivity {
            perturbations: perturbations.clone(),
            clamp_non_negative: true,
        }),
        Request::ComparisonView { percentages, .. } => Some(AnalysisSpec::Comparison {
            percentages: percentages.clone(),
        }),
        Request::GoalInversionView {
            goal,
            constraints,
            optimizer,
            seed,
            ..
        } => Some(AnalysisSpec::GoalInversion {
            goal: *goal,
            constraints: constraints.clone(),
            optimizer: optimizer.unwrap_or_default(),
            seed: *seed,
        }),
        _ => None,
    }
}

/// Per-kind samples.
struct ByKind(Vec<Samples>);

impl ByKind {
    fn new() -> ByKind {
        ByKind(vec![Samples::default(); Kind::ALL.len()])
    }

    fn push(&mut self, kind: Kind, v: f64) {
        self.0[kind as usize].push(v);
    }

    fn kind(&self, kind: Kind) -> &Samples {
        &self.0[kind as usize]
    }

    fn all(&self) -> Samples {
        let mut all = Samples::default();
        for s in &self.0 {
            for q in s.values() {
                all.push(*q);
            }
        }
        all
    }
}

/// Sum of payload bytes on the wire and before compression over the
/// frames in `raw`.
fn payload_bytes(mut raw: &[u8]) -> (u64, u64) {
    let (mut wire, mut plain) = (0u64, 0u64);
    while raw.len() >= HEADER_LEN {
        let field =
            |at: usize| u32::from_le_bytes([raw[at], raw[at + 1], raw[at + 2], raw[at + 3]]);
        let (payload, raw_len) = (field(8), field(12));
        wire += u64::from(payload);
        plain += u64::from(raw_len);
        raw = &raw[(HEADER_LEN + payload as usize).min(raw.len())..];
    }
    (wire, plain)
}

/// Time the layers for `p` and append every per-layer metric to `out`.
pub fn run(p: &Probe, out: &mut Outcome) -> Result<(), String> {
    let mut layers: Vec<Metric> = Vec::new();
    let mut add = |name: &str, value: f64, unit: &'static str, n: usize| {
        layers.push(Metric::new(name, value, unit, n));
    };

    // learn + frame: train independently of the server on the same data
    // (equal fingerprint, so the result cache answers for this model
    // too), and parse the dataset's CSV.
    let session = Session::new(p.frame.clone()).with_kpi(KPI).map_err(err)?;
    let started = Instant::now();
    let model = session.train(&p.config).map_err(err)?;
    add("learn.train_ms", us(started.elapsed()) / 1e3, "ms", 1);
    let mut parse = Samples::default();
    for _ in 0..3 {
        let started = Instant::now();
        black_box(whatif_frame::csv::parse_csv(&p.csv).map_err(err)?);
        parse.push(us(started.elapsed()) / 1e3);
    }
    add("frame.csv_parse_ms", parse.median(), "ms", parse.len());

    // serde_json, server.engine and cache: each probe line decoded,
    // dispatched and encoded, then the same analysis run straight
    // through the cache on a known hit. Every line is answered once
    // first so that every timed call is warm.
    let specs: Vec<AnalysisSpec> = p
        .lines
        .iter()
        .map(|l| spec_of(&l.request).ok_or("probe lines must be analyses"))
        .collect::<Result<_, _>>()?;
    for line in &p.lines {
        let envelope: Envelope = serde_json::from_str(line.text()).map_err(err)?;
        if let Some(e) = p.engine.handle_envelope(envelope).error {
            return Err(format!("probe request {} failed: {e:?}", line.id));
        }
    }
    // Each rep also sends the same lines over the socket, and measures
    // the socket floor: the cheapest request's round trip minus its
    // in-process dispatch. Interleaving keeps the parts and the
    // socket-to-socket times they must add up to under the same machine
    // conditions, which drift on a scale of seconds.
    let list = Line::new(0, Kind::Other, Request::ListUseCases);
    let mut conn = LineConn::connect(p.addr).map_err(err)?;
    let mut reply = Vec::new();
    let (mut decode, mut encode, mut dispatch, mut hit, mut socket) = (
        ByKind::new(),
        ByKind::new(),
        ByKind::new(),
        ByKind::new(),
        ByKind::new(),
    );
    let (mut req_bytes, mut reply_bytes) = (Samples::default(), Samples::default());
    let (mut rtt, mut local) = (Samples::default(), Samples::default());
    let (mut traced_us, mut plain_us) = (0.0, 0.0);
    let mut missed = 0usize;
    for _ in 0..REPS {
        for line in &p.lines {
            let t = Instant::now();
            conn.round_trip(&line.bytes, &mut reply).map_err(err)?;
            socket.push(line.kind, us(t.elapsed()));
        }
        for (line, spec) in p.lines.iter().zip(&specs) {
            let t0 = Instant::now();
            let envelope: Envelope = serde_json::from_str(line.text()).map_err(err)?;
            let t1 = Instant::now();
            let reply = p.engine.handle_envelope(envelope);
            let t2 = Instant::now();
            let text = serde_json::to_string(&reply).map_err(err)?;
            let t3 = Instant::now();
            let (_, cached) = spec.execute_cached(&model, p.engine.cache()).map_err(err)?;
            let t4 = Instant::now();
            missed += usize::from(!cached || !reply.cached);
            let exec = us(t4 - t3);
            decode.push(line.kind, us(t1 - t0));
            dispatch.push(line.kind, us(t2 - t1) - exec);
            hit.push(line.kind, exec);
            encode.push(line.kind, us(t3 - t2));
            traced_us += us(t3 - t0);
            req_bytes.push((line.bytes.len() - 1) as f64);
            reply_bytes.push(text.len() as f64);
        }
        // The same lines through the server's own entry point, with no
        // timer between the layers: the tracing overhead's baseline.
        let t = Instant::now();
        for line in &p.lines {
            black_box(p.engine.dispatch_line(black_box(line.text())));
        }
        plain_us += us(t.elapsed());
        for _ in 0..p.lines.len() {
            let t = Instant::now();
            conn.round_trip(&list.bytes, &mut reply).map_err(err)?;
            rtt.push(us(t.elapsed()));
            let t = Instant::now();
            black_box(p.engine.dispatch_line(list.text()));
            local.push(us(t.elapsed()));
        }
    }
    drop(conn);
    if missed > 0 {
        out.problems.push(format!(
            "{missed} ledger probes missed the cache: the in-process model does not match the served one"
        ));
    }
    let h = p.headline;
    add(
        "serde_json.decode_us",
        decode.all().median(),
        "us",
        decode.all().len(),
    );
    add(
        "serde_json.encode_us",
        encode.all().median(),
        "us",
        encode.all().len(),
    );
    add(
        "serde_json.req_bytes",
        req_bytes.median(),
        "bytes",
        req_bytes.len(),
    );
    add(
        "serde_json.reply_bytes",
        reply_bytes.median(),
        "bytes",
        reply_bytes.len(),
    );
    add(
        "server.engine.dispatch_us",
        dispatch.all().median(),
        "us",
        dispatch.all().len(),
    );
    add("cache.hit_us", hit.all().median(), "us", hit.all().len());
    let floor = rtt.median() - local.median();
    add("server.tcp.floor_us", floor, "us", rtt.len());

    // cache and core.store: what the server counted in the window.
    let d = &p.delta;
    let lookups = (d.cache_hits + d.cache_misses) as usize;
    add("cache.hit_frac", d.cache_hit_frac(), "frac", lookups);
    add(
        "cache.evictions",
        d.cache_evictions as f64,
        "count",
        lookups,
    );
    add("cache.bytes", d.cache_bytes as f64, "bytes", lookups);
    let trains = (d.store_hits + d.store_misses) as usize;
    add("store.hit_frac", d.store_hit_frac(), "frac", trains);
    add("store.trains", d.store_misses as f64, "count", trains);
    add("store.evictions", d.store_evictions as f64, "count", trains);

    // core: plan compilation and the uncached analyses.
    let slider_sets: Vec<PerturbationSet> = p
        .lines
        .iter()
        .filter_map(|l| match &l.request {
            Request::SensitivityView { perturbations, .. } => {
                Some(PerturbationSet::new(perturbations.clone()))
            }
            _ => None,
        })
        .collect();
    let mut compile = Samples::default();
    for _ in 0..20 {
        for set in &slider_sets {
            let t = Instant::now();
            black_box(model.compile_perturbations(set).map_err(err)?);
            compile.push(us(t.elapsed()));
        }
    }
    add(
        "core.plan_compile_us",
        compile.median(),
        "us",
        compile.len(),
    );
    let mut analysis = ByKind::new();
    let mut evals = Samples::default();
    for (line, spec) in p.lines.iter().zip(&specs) {
        let t = Instant::now();
        let outcome = spec.execute(&model).map_err(err)?;
        analysis.push(line.kind, us(t.elapsed()));
        if let SpecOutcome::GoalInversion(r) = outcome {
            evals.push(r.n_evals as f64);
        }
    }
    for (kind, name) in [
        (Kind::Slider, "core.analysis_us.sensitivity"),
        (Kind::Compare, "core.analysis_us.comparison"),
        (Kind::Goal, "core.analysis_us.goal"),
    ] {
        add(
            name,
            analysis.kind(kind).median(),
            "us",
            analysis.kind(kind).len(),
        );
    }

    // optim: the goal's time not spent scoring its candidate points,
    // each priced like the optimizer's own objective inside its default
    // bounds.
    let mut rng = Rng::new(p.seed, 5);
    let n_drivers = model.driver_names().len();
    let mut per_eval = Samples::default();
    for _ in 0..32 {
        let pcts: Vec<f64> = (0..n_drivers)
            .map(|_| rng.uniform(DEFAULT_LOW_PCT, DEFAULT_HIGH_PCT))
            .collect();
        let plan = PerturbationPlan::percentages(&pcts, true);
        let t = Instant::now();
        black_box(model.kpi_for_plan(&plan).map_err(err)?);
        per_eval.push(us(t.elapsed()));
    }
    let goal_us = analysis.kind(Kind::Goal).median();
    add("optim.evals_per_goal", evals.median(), "count", evals.len());
    add(
        "optim.self_ms",
        (goal_us - evals.median() * per_eval.median()) / 1e3,
        "ms",
        evals.len(),
    );

    // learn: batched prediction over the workload's slider overlays.
    let rows = model.matrix().n_rows();
    let trees = p.config.n_trees;
    let mut buf = vec![0.0; rows];
    let mut predict = Samples::default();
    for set in &slider_sets {
        let plan = model.compile_perturbations(set).map_err(err)?;
        let overlay = plan.overlay(model.matrix()).map_err(err)?;
        let t = Instant::now();
        model
            .predict_batch_into(MatrixView::Overlay(&overlay), &mut buf)
            .map_err(err)?;
        predict.push(us(t.elapsed()) * 1e3 / (rows * trees) as f64);
    }
    add(
        "learn.predict_ns_per_row_tree",
        predict.median(),
        "ns",
        predict.len(),
    );
    let per_request = match h {
        Kind::Grid => GRID_SCENARIOS * rows * trees,
        _ => rows * trees,
    };
    add("learn.rows_x_trees", per_request as f64, "count", 1);

    // core bulk scoring and wire: the workload's grid (the sliders as
    // scenarios when it sends none), scored in-process with no cache,
    // then encoded, sent once over v3 and decoded.
    let scenarios: Vec<ScenarioSpec> = match p.grid {
        Some(grid) => (0..grid.rows.len()).map(|r| grid.spec(r)).collect(),
        None => slider_sets
            .iter()
            .enumerate()
            .map(|(i, set)| ScenarioSpec::new(format!("p{i}"), set.clone()))
            .collect(),
    };
    let n = scenarios.len();
    let set = ScenarioSet::new(scenarios.clone()).with_threads(p.n_threads);
    let t = Instant::now();
    black_box(model.evaluate_scenarios(&set).map_err(err)?);
    let bulk_s = t.elapsed().as_secs_f64();
    add("core.bulk_scen_per_s", n as f64 / bulk_s, "1/s", n);
    let grid = match p.grid {
        Some(grid) => Grid::request(&grid.rows, p.session, p.n_threads),
        None => whatif_server::v3::specs_to_grid(p.session, &scenarios, false, Some(p.n_threads)),
    };
    let mut wire_encode = Samples::default();
    let mut frame = Vec::new();
    for _ in 0..5 {
        let request = WireRequest {
            id: 7,
            body: RequestBody::Scenarios(grid.clone()),
            deadline_ms: 0,
        };
        let t = Instant::now();
        frame = encode_frame(FrameType::Request, &request.encode(), Compression::Lz4Like)
            .map_err(err)?;
        wire_encode.push(us(t.elapsed()));
    }
    let mut conn = FrameConn::connect(p.addr).map_err(err)?;
    let mut raw = Vec::new();
    conn.round_trip(&frame, &mut raw).map_err(err)?;
    drop(conn);
    let mut wire_decode = Samples::default();
    let mut blocks = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let stream = decode_stream(&raw)?;
        wire_decode.push(us(t.elapsed()));
        if stream.kpi.len() != n {
            return Err(format!(
                "probe grid returned {} of {n} rows",
                stream.kpi.len()
            ));
        }
        blocks = stream.blocks;
    }
    let (req_wire, req_plain) = payload_bytes(&frame);
    let (rep_wire, rep_plain) = payload_bytes(&raw);
    add(
        "wire.encode_us",
        wire_encode.median(),
        "us",
        wire_encode.len(),
    );
    add(
        "wire.decode_us",
        wire_decode.median(),
        "us",
        wire_decode.len(),
    );
    add(
        "wire.bytes_per_scen",
        (frame.len() + raw.len()) as f64 / n as f64,
        "bytes",
        n,
    );
    add(
        "wire.lz4_ratio",
        (req_wire + rep_wire) as f64 / (req_plain + rep_plain) as f64,
        "frac",
        1,
    );
    add("wire.blocks", f64::from(blocks), "count", 1);

    // Reconcile the headline request's layer parts with its measured
    // socket-to-socket median.
    let parts = match h {
        Kind::Grid => {
            wire_encode.median()
                + 1e6 * bulk_s * GRID_SCENARIOS as f64 / n as f64
                + wire_decode.median()
                + floor
        }
        _ => {
            let work = if p.warm {
                hit.kind(h).median()
            } else {
                analysis.kind(h).median()
            };
            decode.kind(h).median()
                + dispatch.kind(h).median()
                + work
                + encode.kind(h).median()
                + floor
        }
    };
    // A warm headline reconciles with its interleaved socket times; a
    // cold one (tens of milliseconds of model work per request) with
    // the timed window's median.
    let (e2e, e2e_n) = if p.warm {
        (socket.kind(h).median(), socket.kind(h).len())
    } else {
        (p.e2e_p50_us, 1)
    };
    let gap = (e2e - parts) / e2e;
    add("trace.e2e_p50_us", e2e, "us", e2e_n);
    add("trace.parts_us", parts, "us", 1);
    add("trace.gap_frac", gap, "frac", 1);
    add(
        "trace.overhead_frac",
        traced_us / plain_us - 1.0,
        "frac",
        REPS * p.lines.len(),
    );
    if p.warm && gap.abs() > RECONCILE_TOLERANCE {
        out.problems.push(format!(
            "warm {} layer parts ({parts:.2} us) miss the measured median ({e2e:.2} us) by more than {RECONCILE_TOLERANCE}",
            h.label(),
        ));
    }
    out.facts.push((
        "reconcile_tolerance".into(),
        RECONCILE_TOLERANCE.to_string(),
    ));
    out.layers = layers;
    Ok(())
}
