//! Exact order statistics over latency samples and over repeated runs.
//!
//! Latencies are kept as a plain `Vec<u32>` of nanoseconds (4 bytes per
//! sample, 4.29 s ceiling) and sorted once; every percentile is then an exact
//! rank lookup, not a bucket estimate.

/// Samples that must lie beyond a reported percentile for it to mean
/// anything (choosing-metrics: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Clamps a duration in nanoseconds into a sample.
#[inline]
pub fn sample_ns(ns: u128) -> u32 {
    ns.min(u32::MAX as u128) as u32
}

/// The value at quantile `q` (0..=1) of an ascending slice: the smallest
/// sample with at least `q * n` samples at or below it (nearest-rank).
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the nearest-rank position of quantile
/// `q` in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// `true` if quantile `q` of a sample of `n` has enough samples beyond it to
/// be reported.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_SAMPLES_BEYOND
}

/// Sorts `samples` in place and returns `(p50, p99)` in microseconds.
pub fn p50_p99_us(samples: &mut [u32]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile(samples, 0.50) as f64 / 1000.0,
        percentile(samples, 0.99) as f64 / 1000.0,
    )
}

/// Median of a non-empty slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a slice, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (default "exclusive" method) gives
/// them, so the spreads printed here are the ones the driver computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: exactly ten lie beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(!percentile_supported(0, 0.5));
        // The issue's floor: 4000 samples leave 40 beyond p99.
        assert_eq!(samples_beyond(4000, 0.99), 40);
        // p50 needs 20 samples.
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
    }

    #[test]
    fn p50_p99_sorts_and_converts() {
        let mut v: Vec<u32> = (1..=1000).rev().map(|x| x * 1000).collect();
        let (p50, p99) = p50_p99_us(&mut v);
        assert_eq!(p50, 500.0);
        assert_eq!(p99, 990.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        let spread = relative_spread(&v);
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
