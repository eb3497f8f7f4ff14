//! Walk-corpus statistics (the paper's Fig. 4 analysis).

use crate::WalkSet;

/// Summary of a walk corpus's length distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkLengthStats {
    /// Count of walks per exact length (index = length in vertices).
    pub histogram: Vec<u64>,
    /// Mean walk length.
    pub mean: f64,
    /// Fraction of walks with ≤ 5 vertices. The paper observes walk lengths
    /// "centered around 1 to 5" on wiki-talk (§V-B / Fig. 4).
    pub short_fraction: f64,
    /// Least-squares slope of `log(count)` vs `log(length)` over non-empty
    /// buckets — strongly negative for power-law-like decay.
    pub log_log_slope: f64,
}

/// Computes [`WalkLengthStats`] for a walk set.
///
/// # Examples
///
/// ```
/// use twalk::{generate_walks, WalkConfig};
/// use par::ParConfig;
///
/// let g = tgraph::gen::preferential_attachment(1_000, 2, 4).undirected(true).build();
/// let walks = generate_walks(&g, &WalkConfig::new(5, 20), &ParConfig::default());
/// let stats = twalk::stats::length_stats(&walks);
/// assert!(stats.mean >= 1.0);
/// assert!(stats.histogram.iter().sum::<u64>() as usize == walks.num_walks());
/// ```
pub fn length_stats(walks: &WalkSet) -> WalkLengthStats {
    let histogram = walks.length_histogram();
    let total: u64 = histogram.iter().sum();
    let mean = walks.mean_length();
    let short: u64 = histogram.iter().take(6).sum();
    let short_fraction = if total > 0 { short as f64 / total as f64 } else { 0.0 };
    WalkLengthStats { log_log_slope: log_log_slope(&histogram), histogram, mean, short_fraction }
}

/// Least-squares slope of `ln(count)` against `ln(length)` over buckets
/// with non-zero counts (length ≥ 1). Returns 0 when fewer than two
/// non-empty buckets exist.
pub fn log_log_slope(histogram: &[u64]) -> f64 {
    let points: Vec<(f64, f64)> = histogram
        .iter()
        .enumerate()
        .skip(1)
        .filter(|&(_, &c)| c > 0)
        .map(|(l, &c)| ((l as f64).ln(), (c as f64).ln()))
        .collect();
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_walks_serial, WalkConfig};

    #[test]
    fn slope_of_decaying_histogram_is_negative() {
        // count(l) = 1000 / l^2 — an exact power law with slope -2.
        let hist: Vec<u64> = (0..10)
            .map(|l| if l == 0 { 0 } else { (1000.0 / (l as f64).powi(2)) as u64 })
            .collect();
        let slope = log_log_slope(&hist);
        assert!((slope + 2.0).abs() < 0.1, "slope {slope} not near -2");
    }

    #[test]
    fn degenerate_histograms_give_zero_slope() {
        assert_eq!(log_log_slope(&[0, 5]), 0.0);
        assert_eq!(log_log_slope(&[]), 0.0);
    }

    #[test]
    fn pa_graph_walks_are_short_dominated() {
        // The Fig. 4 reproduction in miniature: on a power-law temporal
        // graph, most walks terminate quickly.
        let g = tgraph::gen::preferential_attachment(2_000, 2, 9).undirected(true).build();
        let cfg = WalkConfig::new(5, 40).seed(1);
        let walks = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
        let stats = length_stats(&walks);
        assert!(
            stats.short_fraction > 0.5,
            "short fraction {} too low for power-law graph",
            stats.short_fraction
        );
        assert!(stats.log_log_slope < -0.4, "slope {} not decaying", stats.log_log_slope);
    }
}
