//! Seeded sampling utilities: bootstrap, permutation, sampling without
//! replacement, and reservoir sampling.
//!
//! Bootstrap resamples back the forest trainer and the robustness bench;
//! permutations back Shapley estimation.

use rand::seq::SliceRandom;
use rand::Rng;

/// Indices of a bootstrap resample: `n` draws from `0..n` with
/// replacement.
pub fn bootstrap_indices<R: Rng>(rng: &mut R, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n.max(1))).collect()
}

/// Indices in `0..n` that never appear in `sample` — the out-of-bag rows
/// of a bootstrap resample.
pub fn out_of_bag_indices(sample: &[usize], n: usize) -> Vec<usize> {
    let mut seen = vec![false; n];
    for &i in sample {
        if i < n {
            seen[i] = true;
        }
    }
    seen.iter()
        .enumerate()
        .filter_map(|(i, &s)| (!s).then_some(i))
        .collect()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation<R: Rng>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx
}

/// `k` distinct indices sampled uniformly from `0..n` (partial
/// Fisher–Yates). `k` is clamped to `n`.
pub fn sample_without_replacement<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Reservoir sampling (Algorithm R): a uniform sample of `k` items from a
/// stream of unknown length.
pub fn reservoir_sample<R: Rng, T: Clone>(
    rng: &mut R,
    stream: impl Iterator<Item = T>,
    k: usize,
) -> Vec<T> {
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for (i, item) in stream.enumerate() {
        if i < k {
            reservoir.push(item);
        } else {
            let j = rng.gen_range(0..=i);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn bootstrap_has_right_length_and_range() {
        let mut r = rng(1);
        let idx = bootstrap_indices(&mut r, 100);
        assert_eq!(idx.len(), 100);
        assert!(idx.iter().all(|&i| i < 100));
        // With replacement: overwhelmingly likely to repeat at n=100.
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() < 100);
    }

    #[test]
    fn bootstrap_is_seeded_deterministic() {
        let a = bootstrap_indices(&mut rng(7), 50);
        let b = bootstrap_indices(&mut rng(7), 50);
        assert_eq!(a, b);
        let c = bootstrap_indices(&mut rng(8), 50);
        assert_ne!(a, c);
    }

    #[test]
    fn oob_complements_bootstrap() {
        let sample = vec![0, 0, 2, 2, 4];
        let oob = out_of_bag_indices(&sample, 5);
        assert_eq!(oob, vec![1, 3]);
        // OOB fraction approaches 1/e ~ 0.368 for large n.
        let mut r = rng(3);
        let n = 10_000;
        let s = bootstrap_indices(&mut r, n);
        let frac = out_of_bag_indices(&s, n).len() as f64 / n as f64;
        assert!((frac - 0.368).abs() < 0.02, "oob fraction {frac}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut r = rng(5);
        let p = permutation(&mut r, 20);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn without_replacement_distinct() {
        let mut r = rng(9);
        let s = sample_without_replacement(&mut r, 10, 4);
        assert_eq!(s.len(), 4);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        // k > n clamps.
        let s = sample_without_replacement(&mut r, 3, 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn reservoir_size_and_uniformity() {
        let mut r = rng(11);
        let s = reservoir_sample(&mut r, 0..100, 10);
        assert_eq!(s.len(), 10);
        assert!(reservoir_sample(&mut r, 0..100, 0).is_empty());
        let s = reservoir_sample(&mut r, 0..3, 10);
        assert_eq!(s.len(), 3, "short stream keeps all items");

        // Rough uniformity: each item appears with p = k/n.
        let mut counts = vec![0u32; 20];
        for seed in 0..2000 {
            let mut r = rng(seed);
            for v in reservoir_sample(&mut r, 0..20, 5) {
                counts[v] += 1;
            }
        }
        let expected = 2000.0 * 5.0 / 20.0; // 500
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < 100.0,
                "count {c} too far from {expected}"
            );
        }
    }
}
