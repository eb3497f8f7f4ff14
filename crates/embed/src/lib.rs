//! word2vec over temporal walk corpora (paper §IV-A2, §V-B).
//!
//! The paper feeds temporally-valid random walks — a corpus of very short
//! "sentences" of vertex ids — into word2vec's skip-gram model with
//! negative sampling (SGNS) to produce `d`-dimensional node embeddings.
//! This crate implements SGNS from scratch. [`train`] (and its warm-start
//! twin [`train_from`]) runs hogwild: every epoch is one parallel region
//! whose sentences update a shared, racily-updated model, and each
//! center is one window-batched step — its negatives are drawn once and
//! shared by its whole window, so the scattered per-pair row updates
//! become dense `B × S` blocks (pWord2Vec's level-3 form of the paper's
//! Figs. 5–6 batching idea). The paper's own optimization knobs —
//! sentence batching, padded vs packed rows, scalar vs unrolled
//! reductions, and a global-lock baseline — live in [`ablation`].
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

pub mod ablation;
mod config;
mod embedding;
mod model;
mod table;
mod train;

pub use config::Word2VecConfig;
pub use embedding::EmbeddingMatrix;
pub use model::SharedMatrix;
pub use table::{NegativeTable, SigmoidTable};
pub use train::{train, train_from};
