//! Statistics, CPU placement, and the provenance recorded with every
//! result.

use std::path::Path;

/// Windows a run is cut into for [`Samples::quiet_median`]: about a
/// tenth of a second each on a 25-second warm-slider run.
pub const WINDOWS: usize = 256;

/// Which quantile of the window medians [`Samples::quiet_median`] takes:
/// between the third and the fourth fastest of 256 windows, so that one
/// or two stray windows do not set it.
pub const QUIET_QUANTILE: f64 = 0.01;

/// Fewest samples per window for [`Samples::quiet_median`]: below this a
/// window's median is itself noisy, and the whole-run median is used.
pub const MIN_PER_WINDOW: usize = 1000;

/// Latency samples of one request kind, in microseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set with room for `n` samples, written once so that the
    /// memory is resident from the start: recording then never
    /// reallocates, and peak memory does not grow with the number of
    /// requests a run completes.
    pub fn with_capacity(n: usize) -> Samples {
        let mut v = Vec::with_capacity(n);
        v.resize(n, f64::NAN);
        v.clear();
        Samples(v)
    }

    /// Record one sample.
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    /// The samples, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Quantile `q` in `[0, 1]`, linearly interpolated between order
    /// statistics. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_of_sorted(&sorted, q)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The median of the run's quieter stretches, or `None` when there
    /// are too few samples to cut the run into windows.
    ///
    /// The samples, in recording order, are cut into [`WINDOWS`] runs of
    /// consecutive samples; the result is the [`QUIET_QUANTILE`] of the
    /// windows' medians, that is the median of the run's fastest
    /// stretches. Neighbours on a shared host that contend for its caches
    /// slow the warm request path by up to 1.7× (the in-process JSON
    /// dispatch as much as the socket round trip, while a register-only
    /// loop keeps its speed), for stretches of a tenth of a second to
    /// minutes. A whole-run median jumps with the share of the run they
    /// cover; this number moves only when no window is free of them. A
    /// change to the program moves every window, and so this number.
    pub fn quiet_median(&self) -> Option<f64> {
        let per_window = self.0.len() / WINDOWS;
        if per_window < MIN_PER_WINDOW {
            return None;
        }
        let medians = Samples(
            self.0
                .chunks_exact(per_window)
                .take(WINDOWS)
                .map(|w| Samples(w.to_vec()).median())
                .collect(),
        );
        Some(medians.quantile(QUIET_QUANTILE))
    }

    /// The median, [`Samples::quiet_median`] and tail of a
    /// timed window, computed by sorting the samples in place: a copy
    /// of millions of samples would make peak memory grow with the
    /// number of requests a run completes.
    pub fn summarize(mut self) -> Summary {
        let quiet = self.quiet_median();
        self.0.sort_unstable_by(f64::total_cmp);
        let sorted = &self.0;
        Summary {
            n: sorted.len(),
            median: quantile_of_sorted(sorted, 0.5),
            quiet,
            tail: tail_percentile(sorted.len())
                .map(|p| (p, quantile_of_sorted(sorted, p / 100.0))),
        }
    }
}

/// The statistics of one timed window's samples.
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// See [`Samples::quiet_median`].
    pub quiet: Option<f64>,
    /// The highest of p99.9, p99, p97.5, p95 and p90 that has at least
    /// ten samples beyond it, as `(percentile, value)`; `None` when even
    /// p90 has fewer.
    pub tail: Option<(f64, f64)>,
}

/// Quantile `q` of ascending `sorted`, linearly interpolated between
/// order statistics. 0 when empty.
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of p99.9, p99, p97.5, p95 and p90 with at least ten of
/// `n` samples beyond it.
fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 97.5, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) >= 1000.0 - 1e-6)
}

/// Microseconds in `d`.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

mod affinity {
    /// `cpu_set_t`: 1024 CPU bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    /// Restrict the calling thread, and every thread it spawns from now
    /// on, to `mask`.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }
}

/// Where a run's threads may execute.
pub struct Placement {
    original: Option<affinity::CpuSet>,
    /// Human-readable placement, recorded with the result.
    pub label: String,
}

impl Placement {
    /// Pin the calling thread (and so the server and client threads it
    /// starts) to the highest-numbered CPU it may use, or leave it on
    /// every allowed CPU.
    pub fn apply(pin: bool) -> Placement {
        let original = affinity::get();
        let cpus: Vec<usize> = original
            .map(|mask| {
                (0..1024)
                    .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                    .collect()
            })
            .unwrap_or_default();
        let label = match (pin, cpus.last()) {
            (true, Some(&cpu)) => {
                let mut one = [0u64; 16];
                one[cpu / 64] = 1 << (cpu % 64);
                if affinity::set(&one) {
                    format!("pinned to cpu {cpu}")
                } else {
                    format!("unpinned (pinning to cpu {cpu} failed)")
                }
            }
            _ => format!("unpinned on cpus {cpus:?}"),
        };
        Placement { original, label }
    }

    /// Give the calling thread back its original CPUs.
    pub fn restore(self) {
        if let Some(mask) = self.original {
            affinity::set(&mask);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU time counters from `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the machine-wide counters (zeros when unavailable).
    pub fn read() -> CpuTimes {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time stolen by the hypervisor since `before`.
    pub fn steal_since(&self, before: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(before.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(before.steal) as f64 / total as f64
        }
    }
}

/// The CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit when the tree is a git work tree.
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// FNV-1a digest of the program's sources (every `.rs` and `.toml`
/// file under `crates/` plus the root manifest), so a result can be
/// tied to the code it measured even outside a git work tree.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let name = path.to_string_lossy();
        let body = std::fs::read(path).unwrap_or_default();
        for &b in name.as_bytes().iter().chain(&[0]).chain(&body) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x} over {} files", files.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_tail_needs_ten_beyond() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        let summary = s.clone().summarize();
        assert_eq!((summary.median, summary.n), (50.5, 100));
        assert_eq!(summary.tail.map(|t| t.0), Some(90.0));
        let mut big = Samples::default();
        for v in 0..2000 {
            big.push(f64::from(v));
        }
        assert_eq!(big.summarize().tail.map(|t| t.0), Some(99.0));
        assert!(Samples::default().summarize().tail.is_none());
    }

    #[test]
    fn quiet_median_ignores_a_slow_stretch_and_needs_full_windows() {
        // Ten windows fast, the rest slow: the window medians' quantile
        // reads the fast state.
        let mut s = Samples::default();
        for i in 0..WINDOWS * MIN_PER_WINDOW {
            let slow = i >= 10 * MIN_PER_WINDOW;
            s.push(if slow { 20.0 } else { 10.0 + (i % 3) as f64 });
        }
        assert_eq!(s.quiet_median(), Some(11.0));
        // A uniform slowdown moves it.
        let slower = Samples(s.values().iter().map(|v| v * 1.1).collect());
        assert!((slower.quiet_median().unwrap() - 12.1).abs() < 1e-9);
        s.0.pop();
        assert_eq!(s.quiet_median(), None);
    }
}
