//! One bundle for every walk knob: [`WalkOptions`].
//!
//! The knobs used to sprawl — `WalkConfig` for the kernel,
//! `TransitionSampler::prepare` for the tables — and adding per-vertex
//! sampling methods would have scattered three more. `WalkOptions`
//! gathers the whole surface (kernel shape × sampler bias × method
//! policy) behind one builder with a single [`WalkOptions::validate`]
//! authority for cross-knob rules, and projects it back out as the
//! narrow types each layer consumes: [`WalkOptions::config`] for the
//! kernel, [`WalkOptions::sampler_builder`] for table construction, or
//! the one-call [`WalkOptions::generate`].

use par::ParConfig;
use tgraph::{NodeId, TemporalGraph, Time};

use crate::sampler::{PreparedSampler, SamplerBuilder, SamplingMethod, DEFAULT_ALIAS_DEGREE};
use crate::{
    generate_walks_from_prepared, generate_walks_prepared, TransitionSampler, WalkConfig, WalkSet,
};

/// Every knob of a bulk walk run, in one place.
///
/// Construction mirrors [`WalkConfig`] (chainable setters over public
/// fields) and adds the sampler-method surface the plain config cannot
/// express. [`WalkOptions::validate`] is the single authority on invalid
/// combinations — the CLI calls it at parse time, and
/// [`WalkOptions::prepare`] enforces it for library users.
///
/// # Examples
///
/// ```
/// use twalk::{SamplingMethod, TransitionSampler, WalkOptions};
///
/// let g = tgraph::gen::preferential_attachment(400, 3, 7).undirected(true).build();
/// let opts = WalkOptions::new(4, 6)
///     .sampler(TransitionSampler::Softmax)
///     .sampler_method(SamplingMethod::Auto)
///     .seed(11);
/// let walks = opts.generate(&g, &par::ParConfig::with_threads(2));
/// assert_eq!(walks.num_walks(), 4 * g.num_nodes());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkOptions {
    /// Number of walks started from each vertex (`K`).
    pub walks_per_node: usize,
    /// Maximum number of vertices per walk (`N`).
    pub max_length: usize,
    /// Transition probability model.
    pub sampler: TransitionSampler,
    /// Per-vertex sampling method policy for the weighted biases.
    pub sampler_method: SamplingMethod,
    /// RNG seed; walks are deterministic in this seed.
    pub seed: u64,
    /// Earliest admissible first-hop timestamp.
    pub start_time: Time,
    /// `false` turns the kernel into a static DeepWalk walker.
    pub respect_time: bool,
    /// Degree at or above which [`SamplingMethod::Auto`] promotes a
    /// static vertex to an alias table.
    pub alias_degree_threshold: usize,
    /// Optional cap on alias-table payload bytes (hub-first admission).
    pub alias_budget_bytes: Option<usize>,
}

impl WalkOptions {
    /// Creates options with the given `K` and `N` and every other knob
    /// at its default (uniform bias, `Auto` method).
    ///
    /// # Panics
    ///
    /// Panics if `walks_per_node == 0` or `max_length == 0`, like
    /// [`WalkConfig::new`].
    pub fn new(walks_per_node: usize, max_length: usize) -> Self {
        let cfg = WalkConfig::new(walks_per_node, max_length);
        Self {
            walks_per_node,
            max_length,
            sampler: cfg.sampler,
            sampler_method: SamplingMethod::default(),
            seed: cfg.seed,
            start_time: cfg.start_time,
            respect_time: cfg.respect_time,
            alias_degree_threshold: DEFAULT_ALIAS_DEGREE,
            alias_budget_bytes: None,
        }
    }

    /// Paper-optimal kernel shape: `K = 10`, `N = 6` (§VII-A).
    pub fn paper_optimal() -> Self {
        Self::new(10, 6)
    }

    /// Sets `K`. Panics if zero.
    #[must_use]
    pub fn walks_per_node(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one walk per node");
        self.walks_per_node = k;
        self
    }

    /// Sets `N`. Panics if zero.
    #[must_use]
    pub fn max_length(mut self, n: usize) -> Self {
        assert!(n >= 1, "walks must hold at least the start vertex");
        self.max_length = n;
        self
    }

    /// Sets the transition sampler.
    #[must_use]
    pub fn sampler(mut self, sampler: TransitionSampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the per-vertex sampling method policy.
    #[must_use]
    pub fn sampler_method(mut self, method: SamplingMethod) -> Self {
        self.sampler_method = method;
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

    /// Disables (or re-enables) temporal validity.
    #[must_use]
    pub fn respect_time(mut self, yes: bool) -> Self {
        self.respect_time = yes;
        self
    }

    /// Sets the alias promotion degree threshold.
    #[must_use]
    pub fn alias_degree_threshold(mut self, degree: usize) -> Self {
        self.alias_degree_threshold = degree;
        self
    }

    /// Caps the alias tables' payload bytes.
    #[must_use]
    pub fn alias_budget_bytes(mut self, bytes: usize) -> Self {
        self.alias_budget_bytes = Some(bytes);
        self
    }

    /// Rejects invalid knob combinations with a message fit for CLI
    /// errors. Currently: a forced table method
    /// ([`SamplingMethod::Cdf`] excepted, since it degrades gracefully
    /// to "no tables needed") on a closed-form bias.
    pub fn validate(&self) -> Result<(), String> {
        match (self.sampler_method, self.sampler) {
            (SamplingMethod::Auto | SamplingMethod::Cdf, _) => Ok(()),
            (_, TransitionSampler::Softmax | TransitionSampler::SoftmaxRecency) => Ok(()),
            (m, s) => Err(format!(
                "sampler method \"{m}\" requires a weighted sampler (softmax or recency): \
                 \"{s}\" samples in closed form and builds no tables"
            )),
        }
    }

    /// Projects the kernel-facing knobs into a [`WalkConfig`].
    pub fn config(&self) -> WalkConfig {
        WalkConfig::new(self.walks_per_node, self.max_length)
            .sampler(self.sampler)
            .seed(self.seed)
            .start_time(self.start_time)
            .respect_time(self.respect_time)
    }

    /// Projects the sampler-facing knobs into a [`SamplerBuilder`];
    /// callers with churn information chain
    /// [`SamplerBuilder::churned`] before building.
    pub fn sampler_builder(&self) -> SamplerBuilder {
        let b = SamplerBuilder::new(self.sampler)
            .method(self.sampler_method)
            .alias_degree_threshold(self.alias_degree_threshold);
        match self.alias_budget_bytes {
            Some(bytes) => b.alias_budget_bytes(bytes),
            None => b,
        }
    }

    /// Builds the prepared sampler for `g`.
    ///
    /// # Panics
    ///
    /// Panics if [`WalkOptions::validate`] rejects the options.
    pub fn prepare(&self, g: &TemporalGraph) -> PreparedSampler {
        if let Err(e) = self.validate() {
            panic!("invalid walk options: {e}");
        }
        self.sampler_builder().build(g)
    }

    /// Prepares and runs a full bulk walk generation.
    ///
    /// # Panics
    ///
    /// Panics if [`WalkOptions::validate`] rejects the options.
    pub fn generate(&self, g: &TemporalGraph, par: &ParConfig) -> WalkSet {
        let prepared = self.prepare(g);
        generate_walks_prepared(g, &self.config(), &prepared, par)
    }

    /// Prepares and runs an incremental refresh from `sources` only.
    ///
    /// # Panics
    ///
    /// Panics if [`WalkOptions::validate`] rejects the options or any
    /// source id is out of range.
    pub fn generate_from(&self, g: &TemporalGraph, sources: &[NodeId], par: &ParConfig) -> WalkSet {
        let prepared = self.prepare(g);
        generate_walks_from_prepared(g, &self.config(), &prepared, sources, par)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_knob_flows_into_the_projections() {
        let opts = WalkOptions::new(3, 7)
            .sampler(TransitionSampler::SoftmaxRecency)
            .sampler_method(SamplingMethod::Alias)
            .seed(99)
            .start_time(0.25)
            .respect_time(false)
            .alias_degree_threshold(5)
            .alias_budget_bytes(4096);
        let cfg = opts.config();
        assert_eq!(cfg.walks_per_node, 3);
        assert_eq!(cfg.max_length, 7);
        assert_eq!(cfg.sampler, TransitionSampler::SoftmaxRecency);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.start_time, 0.25);
        assert!(!cfg.respect_time);
        // The builder projection carries the method policy: a tiny graph
        // with a degree-5 hub gets an alias table under threshold 5.
        let g = tgraph::gen::preferential_attachment(50, 5, 3).undirected(true).build();
        let prepared = opts.prepare(&g);
        assert!(prepared.stats().alias_vertices > 0);
    }

    #[test]
    fn closed_form_biases_reject_forced_table_methods() {
        for sampler in [TransitionSampler::Uniform, TransitionSampler::LinearTime] {
            for method in [SamplingMethod::Alias, SamplingMethod::Rejection] {
                let err = WalkOptions::new(1, 2)
                    .sampler(sampler)
                    .sampler_method(method)
                    .validate()
                    .unwrap_err();
                assert!(err.contains(&method.to_string()), "{err:?}");
                assert!(err.contains(&sampler.to_string()), "{err:?}");
            }
            // Auto and Cdf degrade gracefully on closed-form biases.
            for method in [SamplingMethod::Auto, SamplingMethod::Cdf] {
                assert!(WalkOptions::new(1, 2)
                    .sampler(sampler)
                    .sampler_method(method)
                    .validate()
                    .is_ok());
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid walk options")]
    fn prepare_enforces_validation() {
        let g = tgraph::gen::erdos_renyi(10, 40, 1).build();
        let _ = WalkOptions::new(1, 2)
            .sampler(TransitionSampler::Uniform)
            .sampler_method(SamplingMethod::Rejection)
            .prepare(&g);
    }

    #[test]
    fn generate_matches_the_unbundled_path() {
        let g = tgraph::gen::preferential_attachment(200, 3, 5).undirected(true).build();
        let opts = WalkOptions::new(2, 6).sampler(TransitionSampler::Softmax).seed(41);
        let par = ParConfig::with_threads(2);
        let bundled = opts.generate(&g, &par);
        let prepared = opts.sampler_builder().build(&g);
        let unbundled = generate_walks_prepared(&g, &opts.config(), &prepared, &par);
        assert_eq!(bundled, unbundled);
        // Refresh rows match full-run rows, same as the raw entry points.
        let sources = [0u32, 9, 42];
        let partial = opts.generate_from(&g, &sources, &par);
        for w in 0..2 {
            for (i, &v) in sources.iter().enumerate() {
                assert_eq!(
                    partial.walk(w * sources.len() + i),
                    bundled.walk(w * g.num_nodes() + v as usize)
                );
            }
        }
    }
}
