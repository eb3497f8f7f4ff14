//! Order statistics: medians, the quartiles `compare` judges spread by,
//! and the rule for which tail percentile a sample supports.

/// Sorts and returns the samples; NaN never occurs in a measured time.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of a sorted, non-empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values.to_vec()))
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so a spread printed here equals the one the driver takes. A
/// single value, which Python refuses, is its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let m = data.len();
    assert!(m >= 1, "quartiles of no values");
    if m == 1 {
        return [data[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread. Zero for a single value, where no spread
/// can be taken.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 2] = [0.99, 0.9];

/// The highest percentile of the ladder that leaves at least ten samples
/// beyond it; `None` when even p90 does not (fewer than 100 samples), in
/// which case only the median is reported.
pub fn supported_tail(samples: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(samples, p) >= 10)
}

/// Index of the nearest-rank percentile `p` in a sorted sample of `n`.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps a product such as 0.99 * 1000 from rounding up past
    // its whole-number value.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// Nearest-rank percentile of a sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(sorted.len(), p)]
}

/// Median and tail of a latency sample: the tail is the percentile
/// [`supported_tail`] picks, or the median again when none is supported.
/// Returns `(median, tail, tail_percentile)`.
pub fn median_and_tail(samples: Vec<f64>) -> (f64, f64, f64) {
    let s = sorted(samples);
    let median = median_sorted(&s);
    match supported_tail(s.len()) {
        Some(p) => (median, percentile_sorted(&s, p), p),
        None => (median, median, 0.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th, which leaves ten beyond: supported.
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(99), None);
        // p99 of 1000 leaves exactly ten; of 999 it leaves nine.
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(1_000_000), Some(0.99));
        assert_eq!(supported_tail(3), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.99), 990.0);
        assert_eq!(percentile_sorted(&s, 0.5), 500.0);
        let (m, t, p) = median_and_tail(s.clone());
        assert_eq!((m, t, p), (500.5, 990.0, 0.99));
        // Too few samples for any tail: the median stands in.
        let (m, t, p) = median_and_tail(vec![3.0, 1.0, 2.0]);
        assert_eq!((m, t, p), (2.0, 2.0, 0.5));
    }
}
