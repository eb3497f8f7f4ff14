//! End-to-end random-walk temporal graph learning pipeline (paper Fig. 1).
//!
//! This crate is the paper's primary contribution as a library: the
//! four-phase pipeline
//!
//! 1. **temporal random walk** ([`twalk`]) —
//! 2. **word2vec** ([`embed`]) —
//! 3. **data preparation** ([`dataprep`]) —
//! 4. **FNN classifier training/testing** ([`nn`])
//!
//! wired together behind [`Pipeline`], with per-phase wall-clock timing
//! (Table III), the paper-optimal hyperparameter defaults (`K = 10`,
//! `N = 6`, `d = 8`; §VII-A), and a modeled-GPU backend that reports the
//! phase times an Ampere-class GPU would achieve (see [`perfmodel`]).
//!
//! # Examples
//!
//! ```
//! use rwalk_core::{Hyperparams, Pipeline};
//!
//! let g = tgraph::gen::preferential_attachment(400, 3, 1)
//!     .undirected(true)
//!     .build();
//! let report = Pipeline::new(Hyperparams::paper_optimal().quick_test())
//!     .run_link_prediction(&g)
//!     .unwrap();
//! assert!(report.metrics.accuracy > 0.5); // beats coin-flipping
//! println!("{}", report.summary());
//! ```

mod error;
pub mod extensions;
mod hyper;
pub mod incremental;
mod pipeline;
mod report;

pub use error::PipelineError;
pub use extensions::LabeledEdge;
pub use hyper::{EmbeddingStrategy, Hyperparams};
pub use incremental::IncrementalEmbedder;
pub use pipeline::{Backend, LinkModel, Pipeline};
pub use report::{PhaseTimes, ServeStats, TaskKind, TaskMetrics, TaskReport};
