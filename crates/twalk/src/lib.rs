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
//! Sampling runs through a prepare-then-sample API:
//! [`prepare`](TransitionSampler::prepare) turns the configuration enum
//! into a [`PreparedSampler`]. The softmax variants sample every vertex
//! through `O(log d)` inverse-CDF tables, offline and at an incremental
//! refresh alike; see the [`sampler`] module. The prepared sampler is
//! built once per graph,
//! shared read-only across worker threads, and reusable across bulk and
//! incremental-refresh runs. Custom bias functions plug in via the
//! [`TransitionBias`] trait.
//!
//! The middle loop over vertices is parallelized with work stealing, exactly
//! as the paper found optimal, and results are deterministic in the seed
//! regardless of thread count (per-walk RNG streams).
//!
//! Two code paths run the kernel, chosen per run from its estimated
//! working set (see the [`engine`] module): the classic per-walk loop
//! nest when the walks' neighbor segments fit a small last-level cache,
//! and otherwise the step-interleaved ring ([`engine::interleaved`]),
//! which keeps several walks in flight per worker and switches between
//! them at explicit fetch/advance stage boundaries so prefetches overlap
//! with useful work. Both produce the output of the serial oracle
//! [`generate_walks_serial`], bit for bit.
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
mod rng;
pub mod sampler;
pub mod stats;
mod walkset;

pub use config::{TransitionSampler, WalkConfig};
pub use engine::{
    generate_walks, generate_walks_from, generate_walks_from_prepared, generate_walks_prepared,
    generate_walks_serial, walk_from,
};
pub use rng::WalkRng;
pub use sampler::{
    PreparedSampler, SamplerBuildStats, SamplerTables, TransitionBias, WeightedTables,
};
pub use walkset::{WalkIter, WalkSet, WalkSetBuilder};
