//! The three workloads: set-up, the timed closed loop, and the checks
//! on every reply.
//!
//! Each run sets the workload up [`SETUP_REPS`] times and measures the
//! last set-up's server, with one client waiting for each reply before
//! it sends the next request. Server-side counters are read around the
//! timed window only.

use crate::inputs::{self, Kind, Line, Rng, Workload, CYCLE_LAPS, GRID_ROWS, GRID_SCENARIOS, KPI};
use crate::ledger::{self, Probe};
use crate::measure::{peak_rss_mb, us, CpuTimes, Samples};
use crate::net::{decode_stream, parse_reply, FrameConn, LineConn, Server};
use std::time::{Duration, Instant};
use whatif_cache::{CacheStats, StoreStats};
use whatif_core::{ScenarioSet, Session};
use whatif_server::{Engine, Request, Response};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Latency samples reserved for a request kind that is not a
/// workload's headline.
const SIDE_CAPACITY: usize = 1 << 14;

/// One named number of a run.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Requests sent in the timed window.
    pub attempted: u64,
    /// Of those, requests that failed or were refused.
    pub failed: u64,
    /// Failed correctness checks; empty when every output was right.
    pub problems: Vec<String>,
    /// The workload's named end-to-end metrics.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Measured sharing properties and server counter deltas, as
    /// `(key, JSON value)`.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_owned(), value.to_string()));
    }

    /// The named metric `name`, if the run reported it.
    pub fn named(&self, name: &str) -> Option<&Metric> {
        self.named.iter().find(|m| m.name == name)
    }
}

/// Server-side counters read around the timed window.
struct Counters {
    errors: u64,
    shed: u64,
    panics: u64,
    deadline: u64,
    cache: CacheStats,
    store: StoreStats,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        let snapshot = engine.metrics_snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
        Counters {
            errors: counter("errors_total"),
            shed: counter("shed_total"),
            panics: counter("panics_total"),
            deadline: counter("deadline_exceeded_total"),
            cache: engine.cache().stats(),
            store: engine.model_store().stats(),
        }
    }
}

/// What the server counted during the timed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Delta {
    /// Requests the server answered with an error (every error code).
    pub errors: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that panicked.
    pub panics: u64,
    /// Requests past their deadline.
    pub deadline: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Change in live result-cache bytes.
    pub cache_bytes: i64,
    /// Model-store hits (trainings avoided).
    pub store_hits: u64,
    /// Model-store misses (trainings run).
    pub store_misses: u64,
    /// Model-store evictions.
    pub store_evictions: u64,
}

impl Delta {
    fn between(a: &Counters, b: &Counters) -> Delta {
        Delta {
            errors: b.errors - a.errors,
            shed: b.shed - a.shed,
            panics: b.panics - a.panics,
            deadline: b.deadline - a.deadline,
            cache_hits: b.cache.hits - a.cache.hits,
            cache_misses: b.cache.misses - a.cache.misses,
            cache_evictions: b.cache.evictions - a.cache.evictions,
            cache_bytes: b.cache.bytes as i64 - a.cache.bytes as i64,
            store_hits: b.store.hits - a.store.hits,
            store_misses: b.store.misses - a.store.misses,
            store_evictions: b.store.evictions - a.store.evictions,
        }
    }

    /// Share of result-cache lookups that hit (0 without lookups).
    pub fn cache_hit_frac(&self) -> f64 {
        frac(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Share of model-store lookups that hit (0 without lookups).
    pub fn store_hit_frac(&self) -> f64 {
        frac(self.store_hits, self.store_hits + self.store_misses)
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The timed window of one run.
struct Window {
    counters: Counters,
    cpu: CpuTimes,
    start: Instant,
    budget: Duration,
    /// Latency samples per request kind.
    samples: Vec<Samples>,
    /// Seconds per lap: one pass over the workload's loop.
    laps: Samples,
    attempted: u64,
    /// Requests the client saw fail (error replies, broken connections).
    failed: u64,
}

impl Window {
    /// Open a window, reserving `capacity` samples for the `headline`
    /// kind and a few thousand for every other.
    fn open(engine: &Engine, seconds: u64, headline: Kind, capacity: usize) -> Window {
        let counters = Counters::read(engine);
        Window {
            counters,
            cpu: CpuTimes::read(),
            start: Instant::now(),
            budget: Duration::from_secs(seconds),
            samples: Kind::ALL
                .iter()
                .map(|&k| {
                    Samples::with_capacity(if k == headline {
                        capacity
                    } else {
                        SIDE_CAPACITY
                    })
                })
                .collect(),
            // A slider-warm lap is 50 requests; elsewhere one or more.
            laps: Samples::with_capacity(capacity / 16),
            attempted: 0,
            failed: 0,
        }
    }

    fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    fn record(&mut self, kind: Kind, started: Instant) {
        self.samples[kind as usize].push(us(started.elapsed()));
        self.attempted += 1;
    }

    /// Record one completed lap.
    fn lap(&mut self, started: Instant) {
        self.laps.push(started.elapsed().as_secs_f64());
    }

    /// End the window: read the clock and the server counters now,
    /// before any checking work runs.
    fn stop(self, engine: &Engine) -> Stopped {
        Stopped {
            seconds: self.start.elapsed().as_secs_f64(),
            delta: Delta::between(&self.counters, &Counters::read(engine)),
            steal: CpuTimes::read().steal_since(&self.cpu),
            samples: self.samples,
            laps: self.laps,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// A window that has ended, awaiting its checks.
struct Stopped {
    seconds: f64,
    delta: Delta,
    steal: f64,
    samples: Vec<Samples>,
    laps: Samples,
    attempted: u64,
    /// Failures the client saw; checks add error replies found later.
    failed: u64,
}

impl Stopped {
    /// Check the server's error count against the client's and turn the
    /// window into the run's end-to-end report.
    fn report(self, setups: &Samples, out: &mut Outcome) -> Closed {
        let Stopped { seconds, delta, .. } = self;
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.check(delta.errors == self.failed, || {
            format!(
                "server counted {} errors, the client saw {} failures",
                delta.errors, self.failed
            )
        });
        out.check(
            delta.shed + delta.panics + delta.deadline <= delta.errors,
            || "shed, panicked or expired requests were not counted as errors".into(),
        );
        out.fact("server_errors", delta.errors);
        out.fact("shed_total", delta.shed);
        out.fact("panics_total", delta.panics);
        out.fact("deadline_exceeded_total", delta.deadline);
        out.fact("cache_hit_frac", delta.cache_hit_frac());
        out.fact("store_hit_frac", delta.store_hit_frac());
        out.fact("window_s", seconds);
        out.fact("cpu_steal_frac", self.steal);

        for (kind, s) in Kind::ALL.into_iter().zip(self.samples) {
            if s.is_empty() || kind == Kind::Other {
                continue;
            }
            let (scale, unit) = match kind {
                Kind::Load | Kind::Train | Kind::Grid => (1e-3, "ms"),
                _ => (1.0, "us"),
            };
            let label = kind.label();
            let s = s.summarize();
            out.named.push(Metric::new(
                format!("{label}_p50_{unit}"),
                s.median * scale,
                unit,
                s.n,
            ));
            if let Some(v) = s.quiet {
                out.named.push(Metric::new(
                    format!("{label}_quiet_p50_{unit}"),
                    v * scale,
                    unit,
                    s.n,
                ));
            }
            if let Some((p, v)) = s.tail {
                out.named.push(Metric::new(
                    format!("{label}_p{p}_{unit}"),
                    v * scale,
                    unit,
                    s.n,
                ));
            }
        }
        out.named.push(Metric::new(
            "lap_p50_ms",
            self.laps.median() * 1e3,
            "ms",
            self.laps.len(),
        ));
        let n = self.attempted as usize;
        out.named.push(Metric::new(
            "req_per_s",
            self.attempted as f64 / seconds,
            "1/s",
            n,
        ));
        out.named.push(Metric::new(
            "failed_frac",
            frac(self.failed, self.attempted),
            "frac",
            n,
        ));
        out.named
            .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1));
        out.named
            .push(Metric::new("setup_s", setups.median(), "s", setups.len()));
        Closed { delta, seconds }
    }
}

/// A closed window's server deltas and length.
struct Closed {
    delta: Delta,
    seconds: f64,
}

/// Run `set_up` [`SETUP_REPS`] times on fresh servers, timing each.
/// The repeats exist only to time set-up: each server but the last is
/// stopped before the next starts, and the last one is measured.
fn set_up<T>(
    set_up: impl Fn() -> Result<(Server, T), String>,
) -> Result<(Server, T, Samples), String> {
    let mut times = Samples::default();
    for _ in 1..SETUP_REPS {
        let started = Instant::now();
        let (server, _) = set_up()?;
        times.push(started.elapsed().as_secs_f64());
        server.stop()?;
    }
    let started = Instant::now();
    let (server, state) = set_up()?;
    times.push(started.elapsed().as_secs_f64());
    Ok((server, state, times))
}

fn expect_ok(reply: Result<whatif_server::Reply, String>, what: &str) -> Result<Response, String> {
    reply?
        .into_result()
        .map_err(|e| format!("{what} failed: {e:?}"))
}

fn io(e: std::io::Error) -> String {
    format!("i/o: {e}")
}

/// The result part of a reply, serialized: equal strings mean
/// bit-identical results.
fn result_text(reply: &[u8]) -> Result<String, String> {
    let reply = parse_reply(reply)?;
    serde_json::to_string(&reply.result).map_err(|e| e.to_string())
}

/// slider-warm: the Figure 2 lap replayed from a warm result cache.
pub fn slider_warm(
    seed: u64,
    seconds: u64,
    trace: bool,
    n_threads: usize,
) -> Result<Outcome, String> {
    let inputs = inputs::slider_warm(seed);
    let mut out = Outcome::default();

    // Set-up: train, then two warm-up laps. The first computes every
    // answer; the second is served from the cache, and its reply bytes
    // are what every measured reply must equal.
    let (server, (mut conn, reference), setups) = set_up(|| {
        let server = Server::start()?;
        let mut conn = LineConn::connect(server.addr).map_err(io)?;
        for line in &inputs.setup {
            expect_ok(conn.call(&line.bytes), "set-up request")?;
        }
        let mut laps = [Vec::new(), Vec::new()];
        for lap in &mut laps {
            for line in &inputs.lap {
                let mut reply = Vec::new();
                conn.round_trip(&line.bytes, &mut reply).map_err(io)?;
                lap.push(reply);
            }
        }
        for ((line, first), second) in inputs.lap.iter().zip(&laps[0]).zip(&laps[1]) {
            let cached = parse_reply(second)?;
            if cached.error.is_some() || !cached.cached {
                return Err(format!("warm-up reply {} was not a cache hit", line.id));
            }
            if result_text(first)? != result_text(second)? {
                return Err(format!(
                    "cached reply {} differs from the computed one",
                    line.id
                ));
            }
        }
        let [_, reference] = laps;
        Ok((server, (conn, reference)))
    })?;

    // Room for twice today's warm-slider rate (about 80,000 a second on
    // one 2.1 GHz Xeon vCPU), so that a faster program does not grow
    // the buffer and with it the measured peak memory.
    let capacity = seconds as usize * 160_000;
    let mut window = Window::open(&server.engine, seconds, Kind::Slider, capacity);
    let mut reply = Vec::with_capacity(4096);
    let mut mismatches: Vec<(usize, Vec<u8>)> = Vec::new();
    'laps: while !window.expired() {
        let lap = Instant::now();
        for (i, line) in inputs.lap.iter().enumerate() {
            let started = Instant::now();
            if let Err(e) = conn.round_trip(&line.bytes, &mut reply) {
                window.attempted += 1;
                window.failed += 1;
                out.problems.push(format!("connection failed: {e}"));
                break 'laps;
            }
            window.record(line.kind, started);
            if reply != reference[i] {
                mismatches.push((i, reply.clone()));
            }
        }
        window.lap(lap);
    }
    let mut stopped = window.stop(&server.engine);
    for (i, bytes) in &mismatches {
        match parse_reply(bytes) {
            Ok(r) if r.error.is_some() => stopped.failed += 1,
            _ => out.problems.push(format!(
                "reply to request {} is not byte-identical to its warm-up reply",
                inputs.lap[*i].id
            )),
        }
    }
    let closed = stopped.report(&setups, &mut out);
    out.check(closed.delta.cache_hit_frac() >= 0.99, || {
        format!(
            "cache hit share {} is below 0.99",
            closed.delta.cache_hit_frac()
        )
    });

    if trace {
        let data = whatif_datagen::deal_closing(inputs::DEAL_ROWS, inputs.data_seed);
        let probe = Probe {
            engine: &server.engine,
            addr: server.addr,
            session: 0,
            frame: data.frame.clone(),
            csv: whatif_frame::csv::write_csv(&data.frame),
            config: whatif_core::ModelConfig::default(),
            lines: inputs.lap.clone(),
            grid: None,
            n_threads,
            headline: Kind::Slider,
            warm: true,
            e2e_p50_us: out.named("slider_p50_us").map_or(0.0, |m| m.value),
            delta: closed.delta,
            seed,
        };
        ledger::run(&probe, &mut out)?;
    }
    drop(conn);
    server.stop()?;
    Ok(out)
}

/// analyst-cold: upload, train and analyse a fresh dataset every lap.
pub fn analyst_cold(
    seed: u64,
    seconds: u64,
    trace: bool,
    n_threads: usize,
) -> Result<Outcome, String> {
    // A lap takes about two seconds today; generate enough laps for a
    // system four times faster before the window runs short.
    let measured = CYCLE_LAPS * (seconds as usize / 2 + 2);
    let inputs = inputs::analyst_cold(seed, measured, n_threads);
    let mut out = Outcome::default();

    let (server, mut conn, setups) = set_up(|| {
        let server = Server::start()?;
        let mut conn = LineConn::connect(server.addr).map_err(io)?;
        for line in &inputs.lines[0] {
            expect_ok(conn.call(&line.bytes), "warm-up lap request")?;
        }
        Ok((server, conn))
    })?;

    // Whole cycles only, so exactly one lap in four shares its model.
    let mut window = Window::open(&server.engine, seconds, Kind::Slider, SIDE_CAPACITY);
    let mut replies: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut next = 1;
    'cycles: while !window.expired() {
        if next + CYCLE_LAPS > inputs.laps.len() {
            eprintln!("analyst-cold: generated laps ran out before the window ended");
            break;
        }
        for _ in 0..CYCLE_LAPS {
            let lap_started = Instant::now();
            let mut lap = Vec::with_capacity(inputs.lines[next].len());
            for line in &inputs.lines[next] {
                let mut reply = Vec::new();
                let started = Instant::now();
                if let Err(e) = conn.round_trip(&line.bytes, &mut reply) {
                    window.attempted += 1;
                    window.failed += 1;
                    out.problems.push(format!("connection failed: {e}"));
                    break 'cycles;
                }
                window.record(line.kind, started);
                lap.push(reply);
            }
            window.lap(lap_started);
            replies.push(lap);
            next += 1;
        }
    }

    let mut stopped = window.stop(&server.engine);

    // Check every reply, and replay the sliders in-process.
    let mut shared_laps = 0u64;
    for (offset, lap_replies) in replies.iter().enumerate() {
        let index = offset + 1;
        let lap = &inputs.laps[index];
        shared_laps += u64::from(lap.shared);
        let mut server_kpis = Vec::new();
        for (line, bytes) in inputs.lines[index].iter().zip(lap_replies) {
            let reply = match parse_reply(bytes) {
                Ok(r) => r,
                Err(e) => {
                    out.problems.push(format!("lap {index}: {e}"));
                    continue;
                }
            };
            let response = match reply.into_result() {
                Ok(r) => r,
                Err(_) => {
                    stopped.failed += 1;
                    continue;
                }
            };
            match (line.kind, response) {
                (Kind::Load, Response::SessionCreated { session, .. }) => {
                    out.check(session == index as u64, || {
                        format!("lap {index} created session {session}, expected {index}")
                    });
                }
                (Kind::Train, Response::Trained { shared, .. }) => {
                    out.check(shared == lap.shared, || {
                        format!("lap {index}: Train shared={shared}, planned {}", lap.shared)
                    });
                }
                (Kind::Slider, Response::Sensitivity(r)) => {
                    server_kpis.push((r.baseline_kpi.to_bits(), r.perturbed_kpi.to_bits()));
                }
                (Kind::Slider, other) => {
                    out.problems
                        .push(format!("lap {index}: slider answered {other:?}"));
                }
                _ => {}
            }
        }
        // A fresh engine per lap, so that the replay's models and cached
        // results do not pile up and make peak memory grow with the
        // number of laps the window completed.
        let local = replay_sliders(&Engine::new(), lap, &inputs.config)?;
        out.check(local == server_kpis, || {
            format!("lap {index}: sensitivity KPIs differ from the in-process replay")
        });
    }
    let laps_run = replies.len() as u64;
    let closed = stopped.report(&setups, &mut out);
    out.fact("laps", laps_run);
    out.check(
        closed.delta.store_hits == shared_laps
            && closed.delta.store_misses == laps_run - shared_laps,
        || {
            format!(
                "model store saw {} hits / {} misses, planned {shared_laps} shared of {laps_run}",
                closed.delta.store_hits, closed.delta.store_misses
            )
        },
    );

    if trace {
        // Re-open the last measured dataset as a live session.
        let last = &inputs.laps[replies.len()];
        // Sessions are numbered from 0 and every lap, the set-up lap
        // included, created exactly one.
        let session = laps_run + 1;
        let lines = last.lines(session, &inputs.config);
        // LoadCsv, SelectKpi, Train.
        for line in &lines[..3] {
            expect_ok(conn.call(&line.bytes), "traced set-up request")?;
        }
        let frame = whatif_frame::csv::parse_csv(&last.csv).map_err(|e| e.to_string())?;
        let probe = Probe {
            engine: &server.engine,
            addr: server.addr,
            session,
            frame,
            csv: last.csv.clone(),
            config: inputs.config.clone(),
            lines: lines.into_iter().filter(|l| l.kind.is_analysis()).collect(),
            grid: None,
            n_threads,
            headline: Kind::Slider,
            warm: false,
            e2e_p50_us: out.named("slider_p50_us").map_or(0.0, |m| m.value),
            delta: closed.delta,
            seed,
        };
        ledger::run(&probe, &mut out)?;
    }
    drop(conn);
    server.stop()?;
    Ok(out)
}

/// The baseline and perturbed KPI bits of every slider in `lap`,
/// computed by an in-process engine.
fn replay_sliders(
    engine: &Engine,
    lap: &inputs::ColdLap,
    config: &whatif_core::ModelConfig,
) -> Result<Vec<(u64, u64)>, String> {
    let session = match engine.handle(Request::LoadCsv {
        csv: lap.csv.clone(),
    }) {
        Ok(Response::SessionCreated { session, .. }) => session,
        other => return Err(format!("in-process load failed: {other:?}")),
    };
    let mut kpis = Vec::new();
    for (kind, request) in lap.requests(session, config).into_iter().skip(1) {
        if matches!(kind, Kind::Compare | Kind::Goal) {
            continue;
        }
        match engine.handle(request) {
            Ok(Response::Sensitivity(r)) => {
                kpis.push((r.baseline_kpi.to_bits(), r.perturbed_kpi.to_bits()))
            }
            Ok(_) => {}
            Err(e) => return Err(format!("in-process replay failed: {e:?}")),
        }
    }
    Ok(kpis)
}

/// grid-v3: unique 5,000-scenario grids over the binary protocol.
pub fn grid_v3(seed: u64, seconds: u64, trace: bool, n_threads: usize) -> Result<Outcome, String> {
    // A grid takes about 0.7 s today; generate enough for a system
    // four times faster.
    let measured = seconds as usize * 6 + 2;
    let inputs = inputs::grid_v3(seed, measured, n_threads);
    if !inputs::all_distinct(&inputs.grids) {
        return Err("generated grid scenarios repeat".into());
    }
    let mut out = Outcome::default();

    let (server, mut conn, setups) = set_up(|| {
        let server = Server::start()?;
        let mut conn = FrameConn::connect(server.addr).map_err(io)?;
        for line in &inputs.setup {
            expect_ok(conn.call_json(line.id, line.text()), "set-up request")?;
        }
        let mut raw = Vec::new();
        conn.round_trip(&inputs.grids[0].frame, &mut raw)
            .map_err(io)?;
        let warm = decode_stream(&raw)?;
        if warm.kpi.len() != GRID_SCENARIOS {
            return Err("warm-up grid came back short".into());
        }
        Ok((server, conn))
    })?;

    let mut window = Window::open(&server.engine, seconds, Kind::Grid, SIDE_CAPACITY);
    let mut replies: Vec<Vec<u8>> = Vec::new();
    for grid in &inputs.grids[1..] {
        if window.expired() {
            break;
        }
        let mut raw = Vec::with_capacity(64 << 10);
        let started = Instant::now();
        if let Err(e) = conn.round_trip(&grid.frame, &mut raw) {
            window.attempted += 1;
            window.failed += 1;
            out.problems.push(format!("connection failed: {e}"));
            break;
        }
        window.record(Kind::Grid, started);
        window.lap(started);
        replies.push(raw);
    }
    if !window.expired() {
        eprintln!("grid-v3: generated grids ran out before the window ended");
    }
    let mut stopped = window.stop(&server.engine);

    // Price a seeded sample of every grid's rows in-process, on a model
    // trained independently of the server, and compare bit for bit.
    let data = whatif_datagen::deal_closing(GRID_ROWS, inputs.data_seed);
    let session = Session::new(data.frame.clone())
        .with_kpi(KPI)
        .map_err(|e| e.to_string())?;
    let local = session.train(&inputs.config).map_err(|e| e.to_string())?;
    let (served, shared) = server
        .engine
        .model_store()
        .train_or_share(&session, &inputs.config)
        .map_err(|e| e.to_string())?;
    out.check(
        shared && served.fingerprint() == local.fingerprint(),
        || "the in-process model's fingerprint differs from the served model's".into(),
    );
    let mut pick = Rng::new(seed, 4);
    let mut blocks = 0u32;
    for (grid, raw) in inputs.grids[1..].iter().zip(&replies) {
        let stream = match decode_stream(raw) {
            Ok(s) => s,
            Err(e) if e.starts_with("server error") => {
                stopped.failed += 1;
                continue;
            }
            Err(e) => {
                out.problems.push(e);
                continue;
            }
        };
        blocks += stream.blocks;
        if stream.kpi.len() != GRID_SCENARIOS {
            out.problems
                .push(format!("grid returned {} rows", stream.kpi.len()));
            continue;
        }
        let rows: Vec<usize> = (0..16).map(|_| pick.below(GRID_SCENARIOS)).collect();
        let set = ScenarioSet::new(rows.iter().map(|&r| grid.spec(r)).collect()).with_threads(1);
        let expected = local.evaluate_scenarios(&set).map_err(|e| e.to_string())?;
        for (&row, outcome) in rows.iter().zip(&expected) {
            out.check(stream.kpi[row].to_bits() == outcome.kpi.to_bits(), || {
                format!("grid row {row}: served KPI differs from in-process pricing")
            });
        }
    }
    let grids = replies.len();
    let closed = stopped.report(&setups, &mut out);
    out.check(closed.delta.cache_hits == 0, || {
        format!("{} cache hits on unique scenarios", closed.delta.cache_hits)
    });
    out.fact("stream_blocks", blocks);
    out.named.push(Metric::new(
        "grid_scen_per_s",
        (grids * GRID_SCENARIOS) as f64 / closed.seconds,
        "1/s",
        grids,
    ));

    if trace {
        let first = &inputs.grids[1];
        let mut lines: Vec<Line> = (0..48)
            .map(|r| {
                let spec = first.spec(r);
                Line::new(
                    r as u64,
                    Kind::Slider,
                    Request::SensitivityView {
                        session: 0,
                        perturbations: spec.perturbations.perturbations,
                    },
                )
            })
            .collect();
        lines.push(Line::new(
            48,
            Kind::Compare,
            Request::ComparisonView {
                session: 0,
                percentages: inputs.compare.to_vec(),
            },
        ));
        lines.push(Line::new(
            49,
            Kind::Goal,
            Request::GoalInversionView {
                session: 0,
                goal: whatif_core::Goal::Maximize,
                constraints: vec![],
                optimizer: None,
                seed: inputs.goal_seed,
            },
        ));
        let probe = Probe {
            engine: &server.engine,
            addr: server.addr,
            session: 0,
            csv: whatif_frame::csv::write_csv(&data.frame),
            frame: data.frame,
            config: inputs.config.clone(),
            lines,
            grid: Some(first),
            n_threads,
            headline: Kind::Grid,
            warm: false,
            e2e_p50_us: out.named("grid_p50_ms").map_or(0.0, |m| m.value * 1e3),
            delta: closed.delta,
            seed,
        };
        ledger::run(&probe, &mut out)?;
    }
    drop(conn);
    server.stop()?;
    Ok(out)
}

/// Run `workload`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    n_threads: usize,
) -> Result<Outcome, String> {
    match workload {
        Workload::SliderWarm => slider_warm(seed, seconds, trace, n_threads),
        Workload::AnalystCold => analyst_cold(seed, seconds, trace, n_threads),
        Workload::GridV3 => grid_v3(seed, seconds, trace, n_threads),
    }
}
