//! Quantile bin assignment backing the learn crate's binned trainer.
//!
//! [`quantile_run_bins`] produces **equal-count** (quantile) bins because
//! split finding wants roughly the same number of rows per bin — a skewed
//! feature in equal-width bins would dump most rows into a handful of
//! wide bins and starve the split scan of candidate boundaries.

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
/// trainer.
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
