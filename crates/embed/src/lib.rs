//! word2vec over temporal walk corpora (paper §IV-A2, §V-B).
//!
//! The paper feeds temporally-valid random walks — a corpus of very short
//! "sentences" of vertex ids — into word2vec's skip-gram model with
//! negative sampling (SGNS) to produce `d`-dimensional node embeddings.
//! This crate implements SGNS from scratch with the exact optimization
//! knobs the paper studies:
//!
//! * **Sentence batching** ([`train_batched`]) — the paper's key GPU
//!   word2vec optimization (Fig. 5): sentences within a batch are processed
//!   concurrently against a shared, racily-updated ("hogwild") model.
//!   Because updates are sparse, staleness does not measurably hurt
//!   accuracy, while parallelism and launch-overhead amortization improve
//!   throughput by orders of magnitude.
//! * **Storage layout** ([`Layout`]) — cache-line padded vs packed
//!   embedding rows (the paper's "No-pad" ablation, Fig. 6): with the tiny
//!   optimal dimension `d = 8`, padding wastes most of each cache line.
//! * **Reduction strategy** ([`Reduction`]) — scalar vs unrolled/chunked
//!   dot products and accumulations (the paper's "Coalesce"/"Par-red"
//!   ablations, Fig. 6), and the default window-batched step: each center's
//!   negatives are shared by its whole window, so the scattered per-pair
//!   row updates become dense `B × S` blocks (the paper's Figs. 5–6
//!   batching idea, pWord2Vec's level-3 form).
//!
//! # Examples
//!
//! ```
//! use embed::{train, Word2VecConfig};
//! use par::ParConfig;
//! use twalk::{generate_walks, WalkConfig};
//!
//! let g = tgraph::gen::temporal_sbm(120, 2, 4_000, 0.95, 3);
//! let graph = g.builder.build();
//! let walks = generate_walks(&graph, &WalkConfig::new(8, 6).seed(1), &ParConfig::default());
//! let emb = train(&walks, graph.num_nodes(), &Word2VecConfig::default(), &ParConfig::default());
//! assert_eq!(emb.dim(), 8);
//! assert_eq!(emb.num_nodes(), 120);
//! ```

mod config;
mod embedding;
pub mod io;
mod model;
mod table;
mod train;

pub use config::{Layout, Reduction, Word2VecConfig};
pub use embedding::EmbeddingMatrix;
pub use model::SharedMatrix;
pub use table::{NegativeTable, SigmoidTable};
pub use train::{train, train_batched, train_from, train_locked, BatchRunStats, SentenceSource};
