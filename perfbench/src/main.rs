//! Socket-to-socket benchmark of the what-if loop.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <slider-warm|analyst-cold|grid-v3|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload starts a server inside
//! this process, drives it over loopback TCP with one closed-loop
//! client, checks every reply, and prints a report followed by one JSON
//! result line. `--trace 1` adds the per-layer ledger (see `ledger`).
//! The process exits non-zero when any output is wrong.

mod inputs;
mod ledger;
mod measure;
mod net;
mod workloads;

use inputs::Workload;
use measure::Placement;
use workloads::{Metric, Outcome};

/// The end-to-end metrics a run reports with `--trace 0`, as
/// `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("p50_us", "us"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics a run reports with `--trace 1`, as
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("serde_json.decode_us", "us"),
    ("serde_json.encode_us", "us"),
    ("serde_json.req_bytes", "bytes"),
    ("serde_json.reply_bytes", "bytes"),
    ("server.tcp.floor_us", "us"),
    ("server.engine.dispatch_us", "us"),
    ("cache.hit_frac", "frac"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("cache.hit_us", "us"),
    ("store.hit_frac", "frac"),
    ("store.trains", "count"),
    ("store.evictions", "count"),
    ("core.plan_compile_us", "us"),
    ("core.analysis_us.sensitivity", "us"),
    ("core.analysis_us.comparison", "us"),
    ("core.analysis_us.goal", "us"),
    ("core.bulk_scen_per_s", "1/s"),
    ("learn.train_ms", "ms"),
    ("learn.predict_ns_per_row_tree", "ns"),
    ("learn.rows_x_trees", "count"),
    ("optim.evals_per_goal", "count"),
    ("optim.self_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_scen", "bytes"),
    ("wire.lz4_ratio", "frac"),
    ("wire.blocks", "count"),
    ("frame.csv_parse_ms", "ms"),
    ("trace.e2e_p50_us", "us"),
    ("trace.parts_us", "us"),
    ("trace.gap_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

const USAGE: &str = "usage: perfbench --workload <slider-warm|analyst-cold|grid-v3|all> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn json(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A metric value as JSON: every digit, and never NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metric_map(metrics: &[Metric], with_n: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = if with_n {
                format!(", \"n\": {}", m.n)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                json(&m.name),
                number(m.value),
                json(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The gated end-to-end metrics, drawn from the workload's named ones:
/// `p50_us` is the headline request's median (the slider on the two
/// interactive workloads, one whole grid on grid-v3), taken over the
/// run's quieter windows where the run has enough samples for them
/// (see `Samples::quiet_median`).
fn end_to_end(workload: Workload, outcome: &Outcome) -> Vec<Metric> {
    let named = |name: &str| outcome.named(name).map_or((0.0, 0), |m| (m.value, m.n));
    let (p50, n) = match workload {
        Workload::SliderWarm | Workload::AnalystCold => outcome
            .named("slider_quiet_p50_us")
            .map_or_else(|| named("slider_p50_us"), |m| (m.value, m.n)),
        Workload::GridV3 => {
            let (ms, n) = named("grid_p50_ms");
            (ms * 1e3, n)
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = if name == "p50_us" {
                (p50, n)
            } else {
                named(name)
            };
            Metric::new(name, value, unit, n)
        })
        .collect()
}

/// Print the human-readable report and the JSON report line.
fn print_report(
    workload: Workload,
    args: &Args,
    placement: &str,
    n_threads: usize,
    outcome: &Outcome,
) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = measure::commit().unwrap_or_else(|| "unknown".into());
    let digest = measure::source_digest();
    println!(
        "# {} seed={} seconds={} trace={} | commit {commit} | sources {digest} | nproc {n_threads} | {profile} | {placement}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in outcome.named.iter().chain(&outcome.layers) {
        println!(
            "#   {:<32} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    for (key, value) in &outcome.facts {
        println!("#   {key} = {value}");
    }
    for problem in &outcome.problems {
        println!("#   FAILED CHECK: {problem}");
    }
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json(k)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| json(p)).collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"provenance\": {{\"commit\": {}, \"sources\": {}, \"nproc\": {n_threads}, \"profile\": {}, \"placement\": {}}}, \
         \"end_to_end\": {}, \"layers\": {}, \"facts\": {{{}}}, \"problems\": [{}]}}}}",
        json(workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json(&commit),
        json(&digest),
        json(profile),
        json(placement),
        metric_map(&outcome.named, true),
        metric_map(&outcome.layers, true),
        facts.join(", "),
        problems.join(", "),
    );
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Count CPUs before any pinning narrows the mask.
    let n_threads = measure::nproc();
    let mut all_correct = true;
    for &workload in &args.workloads {
        let placement = Placement::apply(workload.pinned());
        let result = workloads::run(workload, args.seed, args.seconds, args.trace, n_threads);
        let label = placement.label.clone();
        placement.restore();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                std::process::exit(1);
            }
        };
        print_report(workload, &args, &label, n_threads, &outcome);
        let metrics = if args.trace {
            outcome.layers.clone()
        } else {
            end_to_end(workload, &outcome)
        };
        let correct = outcome.problems.is_empty();
        all_correct &= correct;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            outcome.attempted,
            outcome.failed,
            metric_map(&metrics, false)
        );
    }
    if !all_correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let value = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &serde_json::Value, k: &str| {
            m.as_object()
                .and_then(|o| serde::find_field(o, k))
                .and_then(|v| v.as_str())
                .expect("metric has a name and a unit")
                .to_owned()
        };
        value
            .as_object()
            .and_then(|o| serde::find_field(o, key))
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = args("--workload grid-v3 --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::GridV3]);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert_eq!(args("--workload all").expect("valid").workloads.len(), 3);
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload grid-v3 --bogus 1").is_err());
    }
}
