//! Equal-width histograms, and quantile bin assignment (backing the learn
//! crate's binned trainer).
//!
//! The two binning strategies are intentionally different and stay
//! separate: [`Histogram`] uses **equal-width** bins, which suit a plot
//! of value *ranges* on a linear axis, where uneven bin widths would
//! distort the picture; [`quantile_run_bins`] produces
//! **equal-count** (quantile) bins because split finding wants roughly
//! the same number of rows per bin — a skewed feature would otherwise
//! dump most rows into a handful of wide bins and starve the split scan
//! of candidate boundaries.

/// An equal-width histogram over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin.
    pub min: f64,
    /// Inclusive upper bound of the last bin.
    pub max: f64,
    /// Count per bin.
    pub counts: Vec<u64>,
    /// Number of values outside `[min, max]` or NaN.
    pub n_ignored: u64,
}

impl Histogram {
    /// Build a histogram with `n_bins` equal-width bins over `[min, max]`.
    ///
    /// Values outside the range (and NaNs) are counted in `n_ignored`.
    /// Returns `None` when `n_bins == 0` or the range is empty/invalid.
    pub fn new(xs: &[f64], min: f64, max: f64, n_bins: usize) -> Option<Histogram> {
        if n_bins == 0 || max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let width = (max - min) / n_bins as f64;
        let mut counts = vec![0u64; n_bins];
        let mut ignored = 0u64;
        for &x in xs {
            if x.is_nan() || x < min || x > max {
                ignored += 1;
                continue;
            }
            // The max value belongs to the last bin.
            let bin = (((x - min) / width) as usize).min(n_bins - 1);
            counts[bin] += 1;
        }
        Some(Histogram {
            min,
            max,
            counts,
            n_ignored: ignored,
        })
    }

    /// Histogram spanning the data's own min/max.
    /// Returns `None` for empty/degenerate (constant or all-NaN) data.
    pub fn auto(xs: &[f64], n_bins: usize) -> Option<Histogram> {
        let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Histogram::new(xs, min, max, n_bins)
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.counts.len()
    }

    /// Total of all bin counts.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `(lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let width = (self.max - self.min) / self.n_bins() as f64;
        (
            self.min + width * i as f64,
            self.min + width * (i + 1) as f64,
        )
    }
}

/// Assign each *run* of equal values in a sorted sequence to a quantile
/// bin, using at most `max_bins` bins.
///
/// `run_counts[i]` is the number of occurrences of the `i`-th distinct
/// value in ascending order; the return value maps each run to its bin
/// id (non-decreasing, starting at 0). Runs are atomic — equal values
/// never straddle a bin boundary, so a run larger than the per-bin
/// target simply produces an oversized bin. When there are no more runs
/// than `max_bins`, every distinct value gets its own bin (the
/// assignment is exact, not approximate). `max_bins` is clamped to at
/// least 1; the result never uses more than `max_bins` bins (each
/// closed bin holds at least `ceil(total / max_bins)` elements, so at
/// most `max_bins - 1` bins close before the remainder).
///
/// This is the bin-edge rule of the learn crate's histogram-binned
/// trainer; see the module docs for why it is *not* shared with the
/// equal-width [`Histogram`].
pub fn quantile_run_bins(run_counts: &[usize], max_bins: usize) -> Vec<u32> {
    let max_bins = max_bins.max(1);
    if run_counts.len() <= max_bins {
        return (0..run_counts.len() as u32).collect();
    }
    let total: usize = run_counts.iter().sum();
    let target = total.div_ceil(max_bins);
    let mut bins = Vec::with_capacity(run_counts.len());
    let mut bin = 0u32;
    let mut in_bin = 0usize;
    for &c in run_counts {
        // Close the current bin once it has met the quantile target;
        // the incoming run starts the next one.
        if in_bin >= target {
            bin += 1;
            in_bin = 0;
        }
        bins.push(bin);
        in_bin += c;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_bins() {
        let xs = [0.0, 0.5, 1.0, 1.5, 2.0];
        let h = Histogram::new(&xs, 0.0, 2.0, 2).unwrap();
        assert_eq!(h.counts, vec![2, 3]); // [0,1): {0,0.5}; [1,2]: {1,1.5,2}
        assert_eq!(h.total(), 5);
        assert_eq!(h.n_ignored, 0);
    }

    #[test]
    fn max_value_goes_to_last_bin() {
        let h = Histogram::new(&[10.0], 0.0, 10.0, 5).unwrap();
        assert_eq!(h.counts[4], 1);
    }

    #[test]
    fn out_of_range_and_nan_ignored() {
        let xs = [-1.0, 0.5, 99.0, f64::NAN];
        let h = Histogram::new(&xs, 0.0, 1.0, 1).unwrap();
        assert_eq!(h.total(), 1);
        assert_eq!(h.n_ignored, 3);
    }

    #[test]
    fn invalid_configs_return_none() {
        assert!(Histogram::new(&[1.0], 0.0, 1.0, 0).is_none());
        assert!(Histogram::new(&[1.0], 1.0, 1.0, 3).is_none());
        assert!(Histogram::new(&[1.0], 2.0, 1.0, 3).is_none());
    }

    #[test]
    fn auto_spans_data() {
        let xs = [1.0, 2.0, 3.0];
        let h = Histogram::auto(&xs, 2).unwrap();
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.total(), 3);
        assert!(Histogram::auto(&[], 2).is_none());
        assert!(Histogram::auto(&[5.0, 5.0], 2).is_none(), "constant data");
    }

    #[test]
    fn bin_edges_are_uniform() {
        let h = Histogram::new(&[], 0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
    }

    #[test]
    fn quantile_runs_constant_feature_is_one_bin() {
        // One run (a constant feature) can only ever form one bin.
        assert_eq!(quantile_run_bins(&[1000], 256), vec![0]);
        assert_eq!(quantile_run_bins(&[], 256), Vec::<u32>::new());
    }

    #[test]
    fn quantile_runs_few_distinct_values_bin_exactly() {
        // Fewer distinct values than bins: one bin per value, even with
        // wildly uneven counts.
        let bins = quantile_run_bins(&[990, 1, 9], 256);
        assert_eq!(bins, vec![0, 1, 2]);
    }

    #[test]
    fn quantile_runs_respect_max_bins_and_monotonicity() {
        // 1000 singleton runs into 256 bins: ceil(1000/256) = 4 per bin.
        let runs = vec![1usize; 1000];
        let bins = quantile_run_bins(&runs, 256);
        let n_bins = *bins.last().unwrap() as usize + 1;
        assert!(n_bins <= 256, "{n_bins} bins");
        assert!(n_bins >= 250, "{n_bins} bins"); // evenly spread
        assert!(bins.windows(2).all(|w| w[0] <= w[1] && w[1] - w[0] <= 1));
        // Every closed bin holds at least the quantile target.
        for b in 0..n_bins - 1 {
            let size: usize = bins
                .iter()
                .zip(&runs)
                .filter(|(&bin, _)| bin as usize == b)
                .map(|(_, &c)| c)
                .sum();
            assert!(size >= 4, "bin {b} holds {size}");
        }
    }

    #[test]
    fn quantile_runs_keep_oversized_runs_atomic() {
        // A run bigger than the target stays in one bin; neighbors
        // still get their own bins afterwards.
        let bins = quantile_run_bins(&[1, 500, 1, 1, 1], 3);
        assert_eq!(bins[0], bins[1], "big run joins the open bin");
        assert!(bins[2] > bins[1], "bin closes after the oversized run");
        let n_bins = *bins.last().unwrap() + 1;
        assert!(n_bins <= 3);
    }

    #[test]
    fn quantile_runs_zero_max_bins_clamps_to_one() {
        let bins = quantile_run_bins(&[3, 4, 5], 0);
        assert_eq!(bins, vec![0, 0, 0]);
    }
}
