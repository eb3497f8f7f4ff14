//! Temporal random walk engine (paper §V-A, Algorithm 1).
//!
//! Given a temporal graph, this crate generates `K` temporally-valid random
//! walks of maximum length `N` from every vertex. A walk
//! `{(u, u1, t1), (u1, u2, t2), …}` is temporally valid when its edge
//! timestamps strictly increase (Definition III.2). Walks terminate early
//! when a vertex has no temporally-admissible out-edge, which is why real
//! (power-law) graphs produce the short-walk-dominated length distribution
//! of the paper's Fig. 4.
//!
//! Transition probabilities (paper §IV-A):
//!
//! * [`TransitionSampler::Uniform`] — `p(v|u) = 1 / |N_u|` over the
//!   temporally-valid neighbor set;
//! * [`TransitionSampler::Softmax`] — Eq. (1),
//!   `Pr[v|u] ∝ exp(τ(u, v) / r)` with `r` the timestamp span;
//! * [`TransitionSampler::SoftmaxRecency`] — the temporal-continuity variant
//!   motivated by the paper's Fig. 2 discussion, weighting candidates by
//!   `exp(-(τ(u, v) - t_curr) / r)` so interactions nearer in time are
//!   preferred;
//! * [`TransitionSampler::LinearTime`] — CTDNE's linear rank bias.
//!
//! Sampling runs through a prepare-then-sample API: a [`SamplerBuilder`]
//! (or the [`prepare`](TransitionSampler::prepare) shorthand) turns the
//! configuration enum into a [`PreparedSampler`]. For the softmax variants
//! the builder chooses a [`SamplingMethod`] per vertex — `O(log d)`
//! inverse-CDF tables by default, `O(1)` alias tables for high-degree
//! static hubs, bounded rejection for vertices churning under ingest —
//! all drawing from the same analytic distribution; see the [`sampler`]
//! module. The prepared sampler is built once per graph, shared read-only
//! across worker threads, and reusable across bulk and incremental-refresh
//! runs. Custom bias functions plug in via the [`TransitionBias`] trait.
//!
//! The middle loop over vertices is parallelized with work stealing, exactly
//! as the paper found optimal, and results are deterministic in the seed
//! regardless of thread count (per-walk RNG streams).
//!
//! Three execution strategies run the kernel ([`WalkEngine`]): the classic
//! per-walk loop nest; the step-synchronous batched engine
//! ([`engine::batched`]) that advances blocks of walks one hop per round,
//! grouping active walks by current vertex and software-prefetching
//! upcoming segments; and the step-interleaved engine
//! ([`engine::interleaved`]) that keeps a per-worker ring of in-flight
//! walks and switches between them at explicit fetch/advance stage
//! boundaries so prefetches overlap with useful work. All produce
//! bit-identical output; [`WalkEngine::Auto`] (the default) picks per run
//! from the graph's [`estimated_working_set`].
//!
//! For call sites that would otherwise thread knobs through several of
//! these types, [`WalkOptions`] bundles the whole surface (kernel shape,
//! bias, method policy, engine) behind one validated builder.
//!
//! # Examples
//!
//! ```
//! use twalk::{generate_walks, WalkConfig};
//! use par::ParConfig;
//!
//! let g = tgraph::gen::preferential_attachment(300, 2, 1).undirected(true).build();
//! let cfg = WalkConfig::new(10, 6).seed(7);
//! let walks = generate_walks(&g, &cfg, &ParConfig::with_threads(2));
//! assert_eq!(walks.num_walks(), 10 * g.num_nodes());
//! // Every walk starts at its designated vertex.
//! assert!(walks.iter().all(|w| !w.is_empty()));
//! ```

mod config;
pub mod engine;
mod options;
mod rng;
pub mod sampler;
pub mod stats;
mod walkset;

pub use config::{
    TransitionSampler, WalkConfig, WalkEngine, DEFAULT_AUTO_LLC_BYTES, DEFAULT_WALK_RING,
};
pub use engine::{
    estimated_working_set, generate_walks, generate_walks_from, generate_walks_from_prepared,
    generate_walks_prepared, generate_walks_serial, resolved_engine, walk_from,
    INTERLEAVE_MAX_MEAN_DEGREE,
};
pub use options::WalkOptions;
pub use rng::WalkRng;
pub use sampler::{
    PreparedSampler, SamplerBuildStats, SamplerBuilder, SamplerTables, SamplingMethod,
    TransitionBias, VertexSampler, WeightedTables, DEFAULT_ALIAS_DEGREE,
};
pub use walkset::{WalkIter, WalkSet, WalkSetBuilder};
