//! Sample statistics: medians and the highest percentile a sample
//! supports.

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (mean of the two middle values for even sizes),
/// or 0 for an empty sample — the value a bypassed layer reports.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted_copy(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted_copy(samples), p)
}

/// The percentile ladder `highest_supported` picks from.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest ladder percentile with at least ten samples beyond it,
/// and its value: `(p, value)`. A sample too small for even the median
/// to have ten samples beyond it reports `(50, median)`.
pub fn highest_supported(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (50.0, 0.0);
    }
    let v = sorted_copy(samples);
    let n = v.len() as f64;
    let mut best = 50.0;
    for p in LADDER {
        // The epsilon keeps 99.9 % of 10 000 at rank 9 990: the product
        // is 9990.000000000002 in floating point.
        let beyond = n - (p / 100.0 * n - 1e-6).ceil();
        if beyond >= 10.0 {
            best = p;
        }
    }
    (best, percentile_sorted(&v, best))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let sample = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // 15 samples: not even the median has 10 beyond it.
        assert_eq!(highest_supported(&sample(15)).0, 50.0);
        // 100 samples: p90 leaves exactly 10 beyond; p99 leaves 1.
        assert_eq!(highest_supported(&sample(100)), (90.0, 89.0));
        // 999 samples: p99 leaves 9 beyond (ceil(989.01) = 990), so p90.
        assert_eq!(highest_supported(&sample(999)).0, 90.0);
        assert_eq!(highest_supported(&sample(1_000)).0, 99.0);
        assert_eq!(highest_supported(&sample(10_000)).0, 99.9);
        assert_eq!(highest_supported(&sample(100_000)).0, 99.99);
    }
}
