//! `rwserve` — the online serving subsystem for random-walk temporal
//! graph embeddings.
//!
//! The paper studies the *offline* pipeline (walk → word2vec → FNN) and
//! notes that in deployment the graph keeps evolving (§VII-B). This crate
//! is the deployment half the paper leaves open: it takes the artifacts
//! the pipeline trains ([`rwalk_core::LinkModel`]) and serves them online
//! while the graph continues to grow.
//!
//! Four pieces, each its own module:
//!
//! - [`store`]: an [`EmbeddingStore`] holding the current
//!   `(embedding table, link-FNN)` pair as one immutable
//!   [`ModelSnapshot`] behind an atomic swap — readers never block and
//!   never observe a torn model (DESIGN.md §9).
//! - [`engine`]: the query side. `link_score(u, v)`, `embedding(u)`,
//!   and `topk_neighbors(u, k)` (a parallel brute-force dot-product
//!   scan). `link_score`s are scored on the thread that holds them: one
//!   forward pass per request, or one per group a shard worker drains.
//! - [`refresh`]: the write side. Streamed edges queue into a
//!   [`Refresher`] that ingests them into the evolving graph, re-embeds
//!   dirty vertices with [`rwalk_core::IncrementalEmbedder`] off the hot
//!   path, and publishes fresh snapshots.
//! - [`protocol`] + [`server`]: a dependency-light JSON-lines protocol
//!   over `std::net` TCP, with handlers scheduled on a [`par::TaskPool`]
//!   and counters surfaced as [`rwalk_core::ServeStats`].
//! - [`reactor`] + [`shard`]: the readiness-driven front end (DESIGN.md
//!   §15). One epoll event loop (raw syscalls, no dependencies) owns
//!   every connection; parsed requests route by consistent hash to N
//!   shard workers, each scoring its drained group's `link_score`s in one
//!   forward pass, with bounded admission budgets that shed load as
//!   structured `"overloaded"` errors. The blocking [`Server`] remains
//!   available behind `--io blocking` for A/B comparison.
//!
//! # Examples
//!
//! In-process serving (no socket):
//!
//! ```
//! use std::sync::Arc;
//! use par::ParConfig;
//! use rwalk_core::{Hyperparams, Pipeline};
//! use rwserve::{BatchPolicy, EmbeddingStore, Service};
//!
//! let g = tgraph::gen::preferential_attachment(300, 3, 1).undirected(true).build();
//! let model = Pipeline::new(Hyperparams::paper_optimal().quick_test())
//!     .train_link_model(&g)
//!     .unwrap();
//! let store = Arc::new(EmbeddingStore::new(model.emb, model.mlp));
//! let svc = Service::new(store, ParConfig::with_threads(2), BatchPolicy::default());
//! let response = svc.handle_line(r#"{"op":"link_score","u":3,"v":7}"#);
//! assert!(response.contains("\"ok\":true"));
//! ```

pub mod engine;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod refresh;
pub mod server;
pub mod service;
pub mod shard;
pub mod store;

pub use engine::{QueryEngine, QueryError};
pub use metrics::Metrics;
pub use reactor::{ReactorConfig, ReactorServer};
pub use refresh::Refresher;
pub use server::Server;
pub use service::{BatchPolicy, Service};
pub use shard::ShardPool;
pub use store::{EmbeddingStore, ModelSnapshot};
