//! Seeded workload inputs.
//!
//! Every request a run sends is generated here from the workload seed
//! alone, and encoded to the exact bytes put on the socket, before any
//! clock starts. The server only ever sees these bytes.

use whatif_core::{Goal, ModelConfig, Perturbation, PerturbationSet, ScenarioSpec};
use whatif_server::{Envelope, Request, UseCase};
use whatif_wire::frame::encode_frame;
use whatif_wire::{
    Compression, DriverColumn, FrameType, PerturbKind, RequestBody, ScenarioGridRequest,
    WireRequest,
};

/// The DealClosing KPI column.
pub const KPI: &str = "Deal Closed?";
/// The four sliders of the Figure 2 lap, in importance order.
pub const DRIVERS: [&str; 4] = ["Open Marketing Email", "Renewal", "Call", "Chat"];
/// The Figure 2 slider stops (percent change); slider-warm jitters
/// each one by a seeded offset.
pub const SLIDER_STOPS: [f64; 12] = [
    -50.0, -40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 120.0,
];
/// DealClosing rows for the interactive workloads (the use-case default).
pub const DEAL_ROWS: usize = 1480;
/// DealClosing rows behind the scenario-grid model.
pub const GRID_ROWS: usize = 200;
/// Scenarios per v3 grid.
pub const GRID_SCENARIOS: usize = 5000;
/// Laps per analyst-cold cycle; the last lap of each cycle reuses the
/// previous lap's dataset, so one `Train` in four shares its model.
pub const CYCLE_LAPS: usize = 4;
/// The six driver pairs a grid scenario perturbs.
pub const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One warm session replaying the Figure 2 lap from the result cache.
    SliderWarm,
    /// Fresh uploads, training and cold analyses, lap after lap.
    AnalystCold,
    /// 5,000-scenario v3 grids with no cache hits.
    GridV3,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::SliderWarm,
        Workload::AnalystCold,
        Workload::GridV3,
    ];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SliderWarm => "slider-warm",
            Workload::AnalystCold => "analyst-cold",
            Workload::GridV3 => "grid-v3",
        }
    }

    /// Whether the run is pinned to one CPU. The two latency workloads
    /// are: unpinned, their p99 swings with cross-CPU wake-ups. The
    /// grid workload is not: its bulk scorer needs both CPUs.
    pub fn pinned(self) -> bool {
        !matches!(self, Workload::GridV3)
    }
}

/// splitmix64: a small, seedable, portable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a run seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` at full `f64` precision.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a request is, for per-kind latency accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Session bookkeeping: KPI selection, close, use-case load.
    Other,
    /// `LoadCsv`.
    Load,
    /// `Train`.
    Train,
    /// `SensitivityView`.
    Slider,
    /// `ComparisonView`.
    Compare,
    /// `GoalInversionView`.
    Goal,
    /// One v3 scenario grid.
    Grid,
}

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; 7] = [
        Kind::Other,
        Kind::Load,
        Kind::Train,
        Kind::Slider,
        Kind::Compare,
        Kind::Goal,
        Kind::Grid,
    ];

    /// Metric-name prefix of the kind.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Other => "other",
            Kind::Load => "load",
            Kind::Train => "train",
            Kind::Slider => "slider",
            Kind::Compare => "compare",
            Kind::Goal => "goal",
            Kind::Grid => "grid",
        }
    }

    /// Whether the request is an analysis the result cache serves.
    pub fn is_analysis(self) -> bool {
        matches!(self, Kind::Slider | Kind::Compare | Kind::Goal)
    }
}

/// One v2 request, pre-encoded as the exact line put on the socket.
#[derive(Clone, Debug)]
pub struct Line {
    /// What the request is.
    pub kind: Kind,
    /// The envelope id.
    pub id: u64,
    /// The request itself.
    pub request: Request,
    /// The envelope as JSON plus the terminating newline.
    pub bytes: Vec<u8>,
}

impl Line {
    /// Encode `request` as envelope `id`.
    pub fn new(id: u64, kind: Kind, request: Request) -> Line {
        let mut bytes = serde_json::to_string(&Envelope::new(id, request.clone()))
            .expect("benchmark requests serialize")
            .into_bytes();
        bytes.push(b'\n');
        Line {
            kind,
            id,
            request,
            bytes,
        }
    }

    /// The JSON text without the newline.
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.bytes.len() - 1]).expect("encoded as UTF-8")
    }
}

fn slider(session: u64, driver: &str, pct: f64) -> Request {
    Request::SensitivityView {
        session,
        perturbations: vec![Perturbation::percentage(driver, pct)],
    }
}

fn goal(session: u64, seed: u64) -> Request {
    Request::GoalInversionView {
        session,
        goal: Goal::Maximize,
        constraints: vec![],
        optimizer: None,
        seed,
    }
}

/// The analysis requests of one Figure 2 lap: every driver swept across
/// the slider stops, one comparison sweep, one goal inversion.
fn analysis_lap(
    session: u64,
    pcts: &[[f64; 12]; 4],
    compare: &[f64],
    goal_seed: u64,
) -> Vec<(Kind, Request)> {
    let mut lap = Vec::with_capacity(DRIVERS.len() * 12 + 2);
    for (driver, stops) in DRIVERS.iter().zip(pcts) {
        for &pct in stops {
            lap.push((Kind::Slider, slider(session, driver, pct)));
        }
    }
    lap.push((
        Kind::Compare,
        Request::ComparisonView {
            session,
            percentages: compare.to_vec(),
        },
    ));
    lap.push((Kind::Goal, goal(session, goal_seed)));
    lap
}

fn encode_all(requests: Vec<(Kind, Request)>, first_id: u64) -> Vec<Line> {
    requests
        .into_iter()
        .zip(first_id..)
        .map(|((kind, request), id)| Line::new(id, kind, request))
        .collect()
}

/// The DealClosing CSV text for one generator seed.
pub fn deal_csv(rows: usize, data_seed: u64) -> String {
    whatif_frame::csv::write_csv(&whatif_datagen::deal_closing(rows, data_seed).frame)
}

/// slider-warm: one trained session, then the same lap over and over.
pub struct SliderWarm {
    /// DealClosing generator seed.
    pub data_seed: u64,
    /// Load, KPI, train — session 0 of a fresh engine.
    pub setup: Vec<Line>,
    /// The replayed lap.
    pub lap: Vec<Line>,
}

/// Generate the slider-warm inputs for `seed`.
pub fn slider_warm(seed: u64) -> SliderWarm {
    let mut rng = Rng::new(seed, 1);
    let data_seed = rng.next_u64();
    let mut stops = SLIDER_STOPS;
    for stop in &mut stops {
        *stop += rng.uniform(-2.5, 2.5);
    }
    let compare = [stops[1], stops[6], stops[9]];
    let session = 0;
    let setup = encode_all(
        vec![
            (
                Kind::Other,
                Request::LoadUseCase {
                    use_case: UseCase::DealClosing,
                    n_rows: Some(DEAL_ROWS),
                    seed: Some(data_seed),
                },
            ),
            (
                Kind::Other,
                Request::SelectKpi {
                    session,
                    kpi: KPI.into(),
                },
            ),
            (
                Kind::Train,
                Request::Train {
                    session,
                    config: None,
                },
            ),
        ],
        0,
    );
    let lap = encode_all(
        analysis_lap(session, &[stops; 4], &compare, rng.next_u64()),
        setup.len() as u64,
    );
    SliderWarm {
        data_seed,
        setup,
        lap,
    }
}

/// The parameters of one analyst-cold lap.
#[derive(Clone, Debug)]
pub struct ColdLap {
    /// DealClosing generator seed of the uploaded CSV.
    pub data_seed: u64,
    /// The uploaded CSV text.
    pub csv: String,
    /// Whether this lap re-uploads the previous lap's dataset, so its
    /// `Train` must be answered from the model store.
    pub shared: bool,
    /// Slider percentages, per driver.
    pub pcts: [[f64; 12]; 4],
    /// Comparison sweep.
    pub compare: [f64; 3],
    /// Goal-inversion seed.
    pub goal_seed: u64,
}

impl ColdLap {
    /// The lap's requests against `session`, the id the `LoadCsv` at
    /// its head creates.
    pub fn requests(&self, session: u64, config: &ModelConfig) -> Vec<(Kind, Request)> {
        let mut lap = vec![
            (
                Kind::Load,
                Request::LoadCsv {
                    csv: self.csv.clone(),
                },
            ),
            (
                Kind::Other,
                Request::SelectKpi {
                    session,
                    kpi: KPI.into(),
                },
            ),
            (
                Kind::Train,
                Request::Train {
                    session,
                    config: Some(config.clone()),
                },
            ),
        ];
        lap.extend(analysis_lap(
            session,
            &self.pcts,
            &self.compare,
            self.goal_seed,
        ));
        lap.push((Kind::Other, Request::CloseSession { session }));
        lap
    }

    /// The lap encoded for `session`.
    pub fn lines(&self, session: u64, config: &ModelConfig) -> Vec<Line> {
        encode_all(self.requests(session, config), 0)
    }
}

/// analyst-cold: lap 0 is the set-up lap, laps `1..` are measured.
pub struct AnalystCold {
    /// Training configuration of every lap.
    pub config: ModelConfig,
    /// All laps.
    pub laps: Vec<ColdLap>,
    /// `laps[i]` encoded for session `i`: a fresh engine numbers
    /// sessions from 0 and every lap creates exactly one.
    pub lines: Vec<Vec<Line>>,
}

/// Generate `1 + measured` analyst-cold laps for `seed`, training with
/// `n_threads` workers.
pub fn analyst_cold(seed: u64, measured: usize, n_threads: usize) -> AnalystCold {
    let mut rng = Rng::new(seed, 2);
    let config = ModelConfig {
        n_threads,
        ..ModelConfig::default()
    };
    let mut laps: Vec<ColdLap> = Vec::with_capacity(measured + 1);
    for i in 0..=measured {
        let shared = i > 0 && i % CYCLE_LAPS == 0;
        let (data_seed, csv) = match laps.last() {
            Some(prev) if shared => (prev.data_seed, prev.csv.clone()),
            _ => {
                let data_seed = rng.next_u64();
                (data_seed, deal_csv(DEAL_ROWS, data_seed))
            }
        };
        let mut pcts = [[0.0; 12]; 4];
        for stops in &mut pcts {
            for pct in stops {
                *pct = rng.uniform(-50.0, 50.0);
            }
        }
        let compare = [
            rng.uniform(-50.0, 50.0),
            rng.uniform(-50.0, 50.0),
            rng.uniform(-50.0, 50.0),
        ];
        laps.push(ColdLap {
            data_seed,
            csv,
            shared,
            pcts,
            compare,
            goal_seed: rng.next_u64(),
        });
    }
    let lines = laps
        .iter()
        .zip(0u64..)
        .map(|(lap, session)| lap.lines(session, &config))
        .collect();
    AnalystCold {
        config,
        laps,
        lines,
    }
}

/// One v3 scenario grid: compact rows plus the encoded request frame.
pub struct Grid {
    /// Per scenario: the index into [`PAIRS`] and its two percentages.
    pub rows: Vec<(u8, f64, f64)>,
    /// The request frame exactly as written to the socket.
    pub frame: Vec<u8>,
}

impl Grid {
    /// Scenario `row` as the engine sees it: the pair's perturbations in
    /// driver-column order, as the server maps a columnar grid.
    pub fn spec(&self, row: usize) -> ScenarioSpec {
        let (pair, a, b) = self.rows[row];
        let (i, j) = PAIRS[pair as usize];
        ScenarioSpec::new(
            format!("s{row}"),
            PerturbationSet::new(vec![
                Perturbation::percentage(DRIVERS[i], a),
                Perturbation::percentage(DRIVERS[j], b),
            ]),
        )
    }

    /// The grid as a columnar request: one column per driver, `NaN`
    /// where a scenario leaves the driver alone.
    pub fn request(rows: &[(u8, f64, f64)], session: u64, n_threads: usize) -> ScenarioGridRequest {
        let mut columns: Vec<DriverColumn> = DRIVERS
            .iter()
            .map(|name| DriverColumn {
                name: (*name).to_owned(),
                kind: PerturbKind::Percentage,
                values: vec![f64::NAN; rows.len()],
            })
            .collect();
        for (r, &(pair, a, b)) in rows.iter().enumerate() {
            let (i, j) = PAIRS[pair as usize];
            columns[i].values[r] = a;
            columns[j].values[r] = b;
        }
        ScenarioGridRequest {
            session,
            n_scenarios: u32::try_from(rows.len()).expect("grid fits a frame"),
            record: false,
            n_threads: u32::try_from(n_threads).expect("thread count fits u32"),
            names: Vec::new(),
            columns,
        }
    }

    /// Encode `rows` as request frame `id`, LZ4-compressed.
    pub fn encode(id: u64, rows: &[(u8, f64, f64)], session: u64, n_threads: usize) -> Vec<u8> {
        let request = WireRequest {
            id,
            body: RequestBody::Scenarios(Grid::request(rows, session, n_threads)),
            deadline_ms: 0,
        };
        encode_frame(FrameType::Request, &request.encode(), Compression::Lz4Like)
            .expect("a 5,000-row grid fits one frame")
    }
}

/// grid-v3: one small-model session, then unique grids.
pub struct GridV3 {
    /// DealClosing generator seed.
    pub data_seed: u64,
    /// The grid model's configuration.
    pub config: ModelConfig,
    /// Load, KPI, train — session 0 of a fresh engine, sent as JSON
    /// inside v3 frames.
    pub setup: Vec<Line>,
    /// Grid 0 warms up; grids `1..` are measured.
    pub grids: Vec<Grid>,
    /// Comparison sweep and goal seed for the traced run's probes.
    pub compare: [f64; 3],
    /// Goal-inversion seed for the traced run's probes.
    pub goal_seed: u64,
}

/// The grid model: 20 trees of depth 8, so one grid takes well under a
/// second.
pub fn grid_config() -> ModelConfig {
    ModelConfig {
        n_trees: 20,
        max_depth: 8,
        ..ModelConfig::default()
    }
}

/// Generate `1 + measured` grids for `seed`, priced with `n_threads`
/// workers.
pub fn grid_v3(seed: u64, measured: usize, n_threads: usize) -> GridV3 {
    let mut rng = Rng::new(seed, 3);
    let data_seed = rng.next_u64();
    let config = grid_config();
    let session = 0;
    let setup = encode_all(
        vec![
            (
                Kind::Other,
                Request::LoadUseCase {
                    use_case: UseCase::DealClosing,
                    n_rows: Some(GRID_ROWS),
                    seed: Some(data_seed),
                },
            ),
            (
                Kind::Other,
                Request::SelectKpi {
                    session,
                    kpi: KPI.into(),
                },
            ),
            (
                Kind::Train,
                Request::Train {
                    session,
                    config: Some(config.clone()),
                },
            ),
        ],
        0,
    );
    let grids = (0..=measured)
        .map(|g| {
            let rows: Vec<(u8, f64, f64)> = (0..GRID_SCENARIOS)
                .map(|_| {
                    let pair = rng.below(PAIRS.len()) as u8;
                    (pair, rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
                })
                .collect();
            let frame = Grid::encode(100 + g as u64, &rows, session, n_threads);
            Grid { rows, frame }
        })
        .collect();
    GridV3 {
        data_seed,
        config,
        setup,
        grids,
        compare: [
            rng.uniform(-50.0, 50.0),
            rng.uniform(-50.0, 50.0),
            rng.uniform(-50.0, 50.0),
        ],
        goal_seed: rng.next_u64(),
    }
}

/// Whether no two scenarios of `grids` are the same. A repeated
/// scenario would be a cache hit and inflate grid throughput.
pub fn all_distinct(grids: &[Grid]) -> bool {
    let mut seen = std::collections::HashSet::new();
    grids.iter().flat_map(|g| &g.rows).all(|&(pair, a, b)| {
        let (i, j) = PAIRS[pair as usize];
        seen.insert((i, j, a.to_bits(), b.to_bits()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte a workload's client would send, in order.
    fn stream(workload: Workload, seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        match workload {
            Workload::SliderWarm => {
                let w = slider_warm(seed);
                for line in w.setup.iter().chain(&w.lap) {
                    out.extend_from_slice(&line.bytes);
                }
            }
            Workload::AnalystCold => {
                for lap in analyst_cold(seed, CYCLE_LAPS, 2).lines {
                    for line in lap {
                        out.extend_from_slice(&line.bytes);
                    }
                }
            }
            Workload::GridV3 => {
                let w = grid_v3(seed, 2, 2);
                for line in &w.setup {
                    out.extend_from_slice(&line.bytes);
                }
                for grid in &w.grids {
                    out.extend_from_slice(&grid.frame);
                }
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_identical_streams_and_another_seed_does_not() {
        for workload in Workload::ALL {
            let a = stream(workload, 7);
            assert_eq!(
                a,
                stream(workload, 7),
                "{} is not reproducible",
                workload.name()
            );
            assert_ne!(
                a,
                stream(workload, 8),
                "{} ignores its seed",
                workload.name()
            );
        }
    }

    #[test]
    fn grid_scenarios_are_all_distinct() {
        let w = grid_v3(11, 8, 2);
        assert_eq!(w.grids.len(), 9);
        assert!(w.grids.iter().all(|g| g.rows.len() == GRID_SCENARIOS));
        assert!(all_distinct(&w.grids));
    }

    #[test]
    fn one_lap_in_four_reuses_the_previous_dataset() {
        let w = analyst_cold(3, 2 * CYCLE_LAPS, 2);
        let shared: Vec<usize> = (0..w.laps.len()).filter(|&i| w.laps[i].shared).collect();
        assert_eq!(shared, vec![4, 8]);
        for &i in &shared {
            assert_eq!(w.laps[i].csv, w.laps[i - 1].csv);
        }
        assert_ne!(w.laps[1].csv, w.laps[2].csv);
    }

    #[test]
    fn grid_rows_map_to_the_specs_the_server_builds() {
        let w = grid_v3(5, 1, 2);
        let grid = &w.grids[1];
        let request = Grid::request(&grid.rows, 0, 2);
        let spec = grid.spec(17);
        let touched: Vec<(&str, f64)> = request
            .columns
            .iter()
            .filter(|c| !c.values[17].is_nan())
            .map(|c| (c.name.as_str(), c.values[17]))
            .collect();
        let expected: Vec<(&str, f64)> = spec
            .perturbations
            .perturbations
            .iter()
            .map(|p| match p.kind {
                whatif_core::PerturbationKind::Percentage(pct) => (p.driver.as_str(), pct),
                whatif_core::PerturbationKind::Absolute(_) => unreachable!("grids are percentages"),
            })
            .collect();
        assert_eq!(touched, expected);
    }
}
