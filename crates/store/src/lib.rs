//! Persistent zero-copy storage for the pipeline's heavy artifacts.
//!
//! One container format (see [`format`](mod@format)) holds three artifact kinds:
//!
//! * **Graphs** — the CSR arrays of a [`tgraph::TemporalGraph`], plus
//!   optionally the prepared sampler tables built for it, so a run can
//!   `open` instead of re-ingesting and re-preparing ([`open_graph`]).
//! * **Sampler tables** — packed alongside their graph: CDF prefix
//!   sums, alias tables, and the per-vertex method map, restored
//!   through validating constructors into a
//!   [`twalk::PreparedSampler`].
//! * **Model snapshots** — embedding table + link-FNN weights +
//!   publish version, so `serve` warm-restarts in milliseconds
//!   ([`open_snapshot`]).
//!
//! The design contract, in one line: *validate once at open, then
//! borrow forever*. Opening checks magic, version, endianness,
//! checksums, alignment, and bounds up front and returns structured
//! [`StoreError`]s; after that every large array is a
//! [`tgraph::Storage::mapped`] slice borrowed straight from the mapping
//! — no copy on the open path — kept alive by an `Arc` to the
//! [`StoreFile`].
//!
//! Observability: opening records `store_load_ns{kind=…}` and
//! per-section byte counters `store_bytes{section=…}` when the global
//! [`obs`] recorder is enabled.
//!
//! # Examples
//!
//! Pack a graph with its sampler, reopen it zero-copy:
//!
//! ```
//! use twalk::TransitionSampler;
//!
//! let g = tgraph::gen::erdos_renyi(100, 600, 7).build();
//! let prepared = TransitionSampler::Softmax.prepare(&g);
//!
//! let mut buf = std::io::Cursor::new(Vec::new());
//! store::pack_graph(&mut buf, &g, Some(&prepared)).unwrap();
//!
//! let opened = store::open_graph_bytes(&buf.into_inner()).unwrap();
//! assert_eq!(opened.graph.num_edges(), g.num_edges());
//! assert!(opened.sampler.is_some());
//! ```

#![warn(missing_docs)]

mod error;
mod file;
pub mod format;
mod graph;
mod reader;
mod snapshot;
mod writer;

pub use error::StoreError;
pub use file::StoreFile;
pub use format::ArtifactKind;
pub use graph::{open_graph, open_graph_bytes, pack_graph, pack_graph_to_path, OpenedGraph};
pub use reader::Container;
pub use snapshot::{
    open_snapshot, open_snapshot_bytes, pack_snapshot, pack_snapshot_to_path, OpenedSnapshot,
};
pub use writer::StoreWriter;

/// Exports per-section byte sizes to the global recorder (no-op when
/// obs is disabled) — `store_bytes{section="goff"}` etc.
pub(crate) fn record_section_metrics(c: &Container) {
    let rec = obs::Recorder::global();
    if !rec.is_enabled() {
        return;
    }
    for s in c.sections() {
        rec.counter(&format!("store_bytes{{section=\"{}\"}}", s.name_str())).add(s.len);
    }
    rec.counter("store_open_total").inc();
}
