//! Walk generation configuration.

use tgraph::Time;

/// How the next edge of a walk is chosen among the temporally-valid
/// candidates (paper §IV-A1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransitionSampler {
    /// `p(v|u) = 1 / |N_u|` over temporally-valid neighbors — the "typical"
    /// transition probability the paper describes first.
    #[default]
    Uniform,
    /// Paper Eq. (1): `Pr[v|u] ∝ exp(τ(u, v) / r)`, where `r` is the
    /// timestamp span of the graph. Favors later interactions.
    Softmax,
    /// Temporal-continuity variant matching the paper's Fig. 2 motivation
    /// (the edge appearing *immediately after* the current time is the most
    /// correlated): `Pr[v|u] ∝ exp(-(τ(u, v) - t_curr) / r)`.
    SoftmaxRecency,
    /// CTDNE's *linear* temporal bias: candidates are weighted by the rank
    /// of their timestamp among the valid set, `Pr[v_i] ∝ rank(i)` with the
    /// latest edge ranked highest — cheaper than the softmax while still
    /// favoring recent interactions.
    LinearTime,
}

impl std::fmt::Display for TransitionSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransitionSampler::Uniform => "uniform",
            TransitionSampler::Softmax => "softmax",
            TransitionSampler::SoftmaxRecency => "recency",
            TransitionSampler::LinearTime => "linear",
        })
    }
}

impl std::str::FromStr for TransitionSampler {
    type Err = String;

    /// Parses the CLI spelling: `uniform`, `softmax`, `recency` (alias
    /// `softmax-recency`), `linear` (alias `linear-time`).
    ///
    /// This is the *single* parsing authority (the CLI and every config
    /// file path funnel through it): input is trimmed, lowercased, and
    /// `_` is accepted for `-`, so `" Softmax_Recency "` parses — but any
    /// spelling outside the list below is rejected with an error that
    /// enumerates every valid value and alias.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match normalize(s).as_str() {
            "uniform" => Ok(TransitionSampler::Uniform),
            "softmax" => Ok(TransitionSampler::Softmax),
            "recency" | "softmax-recency" => Ok(TransitionSampler::SoftmaxRecency),
            "linear" | "linear-time" => Ok(TransitionSampler::LinearTime),
            _ => Err(format!(
                "unknown sampler {s:?}: valid values are uniform, softmax, \
                 recency (alias softmax-recency), linear (alias linear-time)"
            )),
        }
    }
}

/// Canonical spelling for enum parsing: trimmed, ASCII-lowercased, `_`
/// mapped to `-`.
fn normalize(s: &str) -> String {
    s.trim().to_ascii_lowercase().replace('_', "-")
}

/// Configuration of the temporal random walk kernel.
///
/// `walks_per_node` is the paper's `K`, `max_length` the paper's `N`; the
/// paper's empirically optimal values are `K = 10`, `N = 6` (§VII-A).
///
/// # Examples
///
/// ```
/// use twalk::{TransitionSampler, WalkConfig};
///
/// let cfg = WalkConfig::new(10, 6)
///     .sampler(TransitionSampler::Softmax)
///     .seed(42);
/// assert_eq!(cfg.walks_per_node, 10);
/// assert_eq!(cfg.max_length, 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkConfig {
    /// Number of walks started from each vertex (`K`).
    pub walks_per_node: usize,
    /// Maximum number of vertices per walk (`N`); walks may be shorter when
    /// they hit a temporal dead end.
    pub max_length: usize,
    /// Transition probability model.
    pub sampler: TransitionSampler,
    /// RNG seed; walks are deterministic in this seed.
    pub seed: u64,
    /// Time from which the first hop may depart (inclusive). Defaults to
    /// negative infinity so every edge is admissible initially, matching
    /// Algorithm 1's `curTime ← 0` on normalized inputs.
    pub start_time: Time,
    /// When `false`, timestamps are ignored entirely and every neighbor is
    /// always a candidate — the *static* DeepWalk baseline the paper's
    /// related work contrasts temporal walks against (§II-B: modeling
    /// dynamic graphs as static "would inevitably incur information
    /// loss"). Defaults to `true`.
    pub respect_time: bool,
}

impl WalkConfig {
    /// Creates a configuration with the given `K` and `N`, uniform
    /// sampling, and seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `walks_per_node == 0` or `max_length == 0`.
    pub fn new(walks_per_node: usize, max_length: usize) -> Self {
        assert!(walks_per_node >= 1, "need at least one walk per node");
        assert!(max_length >= 1, "walks must hold at least the start vertex");
        Self {
            walks_per_node,
            max_length,
            sampler: TransitionSampler::default(),
            seed: 0,
            start_time: f64::NEG_INFINITY,
            respect_time: true,
        }
    }

    /// Paper-optimal hyperparameters: `K = 10`, `N = 6` (§VII-A summary).
    pub fn paper_optimal() -> Self {
        Self::new(10, 6)
    }

    /// Sets the transition sampler.
    #[must_use]
    pub fn sampler(mut self, sampler: TransitionSampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the earliest admissible first-hop timestamp.
    #[must_use]
    pub fn start_time(mut self, t: Time) -> Self {
        self.start_time = t;
        self
    }

    /// Disables (or re-enables) temporal validity — `respect_time(false)`
    /// turns the engine into a static DeepWalk walker.
    #[must_use]
    pub fn respect_time(mut self, yes: bool) -> Self {
        self.respect_time = yes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walks_rejected() {
        let _ = WalkConfig::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "at least the start vertex")]
    fn zero_length_rejected() {
        let _ = WalkConfig::new(1, 0);
    }

    #[test]
    fn paper_optimal_matches_section_vii() {
        let cfg = WalkConfig::paper_optimal();
        assert_eq!((cfg.walks_per_node, cfg.max_length), (10, 6));
    }

    #[test]
    fn sampler_names_round_trip() {
        for s in [
            TransitionSampler::Uniform,
            TransitionSampler::Softmax,
            TransitionSampler::SoftmaxRecency,
            TransitionSampler::LinearTime,
        ] {
            assert_eq!(s.to_string().parse::<TransitionSampler>(), Ok(s));
        }
        assert_eq!("softmax-recency".parse(), Ok(TransitionSampler::SoftmaxRecency));
        assert_eq!("linear-time".parse(), Ok(TransitionSampler::LinearTime));
        assert!("deepwalk".parse::<TransitionSampler>().is_err());
    }

    #[test]
    fn sampler_spellings_normalize() {
        assert_eq!("  Uniform ".parse(), Ok(TransitionSampler::Uniform));
        assert_eq!("SOFTMAX".parse(), Ok(TransitionSampler::Softmax));
        assert_eq!("Softmax_Recency".parse(), Ok(TransitionSampler::SoftmaxRecency));
        assert_eq!("LINEAR_TIME".parse(), Ok(TransitionSampler::LinearTime));
        // The error names every valid value (and the input as given).
        let err = "soft max".parse::<TransitionSampler>().unwrap_err();
        for needle in ["soft max", "uniform", "softmax", "recency", "linear", "valid values"] {
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
        assert!("".parse::<TransitionSampler>().is_err());
    }
}
