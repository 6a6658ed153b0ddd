//! Order statistics shared by every workload.

/// The percentiles a tail may be reported at, lowest first. Higher
/// ones are left out: with ~10 samples beyond them, a 20-second run
/// cannot repeat them within a quarter.
pub const TAIL_LADDER: [f64; 3] = [0.5, 0.75, 0.9];

/// Samples strictly beyond the `q`-quantile of `n` samples under the
/// nearest-rank rule used by [`percentile`].
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

fn rank(n: usize, q: f64) -> usize {
    ((n - 1) as f64 * q).round() as usize
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it in a sample of `n`, or `None` when even the
/// median does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| beyond(n, q) >= 10)
}

/// Nearest-rank percentile of an ascending slice; 0 when it is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// Sorts a sample in place and returns it, for the percentile helpers.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; 0 when it is empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when the sample is empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 120 samples: p90 leaves 12 beyond, p95 would leave 6.
        assert_eq!(tail_quantile(120), Some(0.9));
        assert_eq!(beyond(120, 0.9), 12);
        assert_eq!(beyond(120, 0.95), 6);
        // 75 samples: p90 leaves only 7, p75 leaves 18.
        assert_eq!(tail_quantile(75), Some(0.75));
        assert_eq!(beyond(75, 0.9), 7);
        assert_eq!(tail_quantile(5000), Some(0.9));
        // Too few samples for any tail.
        assert_eq!(tail_quantile(20), None);
        assert_eq!(tail_quantile(21), Some(0.5));
        for n in 0..3000 {
            if let Some(q) = tail_quantile(n) {
                assert!(beyond(n, q) >= 10, "n={n} q={q}");
                let higher = TAIL_LADDER.iter().find(|&&h| h > q);
                if let Some(&h) = higher {
                    assert!(beyond(n, h) < 10, "n={n}: {h} also qualifies");
                }
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = sorted((1..=11).map(f64::from).rev().collect());
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.9), 10.0);
        assert_eq!(percentile(&v, 1.0), 11.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
