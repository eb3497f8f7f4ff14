//! Incremental embedding maintenance over an evolving graph.
//!
//! The paper motivates its end-to-end time breakdown with the observation
//! that "in a real-world deployment, the graph evolves over time. With
//! this evolution, an entire pipeline needs to run to account for new
//! nodes/connections" (§VII-B). This module implements the cheaper
//! alternative the substrates make possible:
//!
//! 1. ingest edge batches into a [`tgraph::dynamic::DynamicGraph`];
//! 2. re-walk only the *dirty* vertices (those whose neighborhoods
//!    changed) with [`twalk::generate_walks_from_prepared`], sharing one
//!    prepared sampler across the batch;
//! 3. fine-tune the existing embeddings on the fresh walks with
//!    [`embed::train_from`] (warm start), leaving untouched vertices'
//!    vectors in place.
//!
//! # Examples
//!
//! ```
//! use rwalk_core::{Hyperparams, IncrementalEmbedder};
//! use tgraph::TemporalEdge;
//!
//! let base = tgraph::gen::preferential_attachment(300, 2, 3).build();
//! let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &base);
//! let emb0 = inc.refresh().clone();
//! inc.ingest([TemporalEdge::new(0, 5, 2.0), TemporalEdge::new(5, 9, 2.1)]);
//! let emb1 = inc.refresh();
//! assert_eq!(emb1.num_nodes(), emb0.num_nodes());
//! ```

use embed::EmbeddingMatrix;
use par::ParConfig;
use tgraph::dynamic::DynamicGraph;
use tgraph::{TemporalEdge, TemporalGraph};
use twalk::{generate_walks_from_prepared, generate_walks_prepared};

use crate::Hyperparams;

/// Maintains node embeddings over a stream of edge insertions.
#[derive(Debug)]
pub struct IncrementalEmbedder {
    hp: Hyperparams,
    graph: DynamicGraph,
    emb: Option<EmbeddingMatrix>,
    refreshes: usize,
}

impl IncrementalEmbedder {
    /// Starts from an existing graph snapshot (all vertices initially
    /// considered dirty, so the first [`refresh`](Self::refresh) is a full
    /// build).
    pub fn new(hp: Hyperparams, base: &TemporalGraph) -> Self {
        Self { hp, graph: DynamicGraph::from_graph(base), emb: None, refreshes: 0 }
    }

    /// Appends a batch of temporal edges.
    pub fn ingest<I: IntoIterator<Item = TemporalEdge>>(&mut self, edges: I) {
        self.graph.add_edges(edges);
    }

    /// Vertices awaiting re-walk.
    pub fn pending_dirty(&self) -> usize {
        self.graph.dirty_count()
    }

    /// Number of refreshes performed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Current CSR snapshot of the evolving graph.
    pub fn snapshot(&self) -> TemporalGraph {
        self.graph.to_csr()
    }

    /// The embeddings produced by the last [`refresh`](Self::refresh), if
    /// any. Between an [`ingest`](Self::ingest) and the next refresh this
    /// lags the graph — callers serving queries should hold the snapshot
    /// returned by `refresh` instead of re-reading this.
    pub fn embedding(&self) -> Option<&EmbeddingMatrix> {
        self.emb.as_ref()
    }

    /// Brings embeddings up to date and returns them.
    ///
    /// The first call trains from scratch over the whole graph; later
    /// calls re-walk only the dirty vertices and fine-tune with a warm
    /// start. With no pending changes this is a cheap no-op.
    pub fn refresh(&mut self) -> &EmbeddingMatrix {
        let par = self.hp.par_config();
        self.refresh_on(&par)
    }

    /// [`refresh`](Self::refresh), with a warm refresh (any call after the
    /// first) run on `warm` instead of the configured pool. The first
    /// call trains from scratch on the configured pool either way: it is
    /// set-up work, not upkeep.
    pub fn refresh_on(&mut self, warm: &ParConfig) -> &EmbeddingMatrix {
        if let Some(current) = &self.emb {
            if self.graph.dirty_count() == 0 && self.graph.num_nodes() == current.num_nodes() {
                self.refreshes += 1;
                return self.emb.as_ref().expect("just checked");
            }
        }
        let csr = self.graph.to_csr();
        let par = if self.emb.is_some() { *warm } else { self.hp.par_config() };
        let seed_bump = self.refreshes as u64;
        let walk_cfg = self.hp.walk_config().seed(self.hp.seed.wrapping_add(seed_bump));

        match self.emb.take() {
            None => {
                let sampler = walk_cfg.sampler.prepare(&csr);
                let walks = generate_walks_prepared(&csr, &walk_cfg, &sampler, &par);
                self.graph.take_dirty();
                self.emb = Some(embed::train(&walks, csr.num_nodes(), &self.hp.w2v_config(), &par));
            }
            Some(current) => {
                let dirty = self.graph.take_dirty();
                // The CSR changes between refreshes, so the sampler must be
                // rebuilt — but one build now covers every dirty vertex's
                // walks instead of paying direct evaluation per step.
                let sampler = walk_cfg.sampler.prepare(&csr);
                let walks = generate_walks_from_prepared(&csr, &walk_cfg, &sampler, &dirty, &par);
                if walks.num_walks() == 0 {
                    // The vertex space grew but no dirty vertex produced a
                    // walk (e.g. a zero-walk config). The table must still
                    // track the graph: extend it with word2vec-style
                    // initialized rows so every vertex keeps a usable,
                    // trainable vector.
                    self.emb =
                        Some(current.grown(csr.num_nodes(), walk_cfg.seed.wrapping_add(0x9807)));
                } else {
                    // Fine-tune at a reduced learning rate: the goal is to
                    // absorb the new structure without tearing up the
                    // existing space.
                    let mut cfg = self.hp.w2v_config();
                    cfg.initial_lr *= 0.5;
                    cfg.epochs = cfg.epochs.max(1);
                    self.emb =
                        Some(embed::train_from(&walks, csr.num_nodes(), &current, &cfg, &par));
                }
            }
        }
        self.refreshes += 1;
        self.emb.as_ref().expect("embedding just computed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_graph() -> TemporalGraph {
        tgraph::gen::temporal_sbm(200, 2, 4_000, 0.92, 6).builder.undirected(true).build()
    }

    #[test]
    fn first_refresh_builds_full_embeddings() {
        let g = base_graph();
        let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &g);
        let emb = inc.refresh();
        assert_eq!(emb.num_nodes(), g.num_nodes());
        assert!(emb.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn refresh_without_changes_is_stable() {
        let g = base_graph();
        let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &g);
        let before = inc.refresh().clone();
        let after = inc.refresh().clone();
        assert_eq!(before, after);
        assert_eq!(inc.refreshes(), 2);
    }

    #[test]
    fn incremental_refresh_only_moves_touched_vectors() {
        let g = base_graph();
        let mut inc =
            IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test().with_threads(1), &g);
        let before = inc.refresh().clone();
        inc.ingest([TemporalEdge::new(0, 1, 2.0), TemporalEdge::new(1, 2, 2.1)]);
        assert_eq!(inc.pending_dirty(), 3);
        let after = inc.refresh().clone();
        // Walks from {0, 1, 2} visit a bounded neighborhood; most vertices
        // must be untouched.
        let moved = (0..g.num_nodes() as u32).filter(|&v| after.get(v) != before.get(v)).count();
        assert!(moved > 0, "no vector moved at all");
        assert!(
            moved < g.num_nodes() / 2,
            "incremental refresh rewrote {moved}/{} vectors",
            g.num_nodes()
        );
    }

    /// Regression: ingesting an edge whose endpoint is far beyond the
    /// embedding row count must leave matrix and graph sizes consistent
    /// after refresh, with every implicitly-allocated row initialized
    /// (non-zero), not zero-padded.
    #[test]
    fn far_id_growth_allocates_initialized_rows() {
        let g = base_graph();
        let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &g);
        inc.refresh();
        // dst id skips 300 vertices and has no outgoing edges.
        inc.ingest([TemporalEdge::new(0, 500, 2.0)]);
        let emb = inc.refresh().clone();
        assert_eq!(emb.num_nodes(), 501, "embedding rows lag the grown graph");
        assert_eq!(inc.snapshot().num_nodes(), 501);
        assert!(
            emb.get(500).iter().any(|&x| x != 0.0),
            "new endpoint 500 left with an uninitialized (zero) row"
        );
        // Implicitly-allocated ids between the old max and the new
        // endpoint also get initialized vectors.
        for v in [250u32, 400] {
            assert!(emb.get(v).iter().any(|&x| x != 0.0), "implicit vertex {v} row is zero");
        }
        // A follow-up refresh touching only old vertices keeps the size.
        inc.ingest([TemporalEdge::new(1, 2, 3.0)]);
        assert_eq!(inc.refresh().num_nodes(), 501);
    }

    /// Regression: growth works for a brand-new disconnected component
    /// too (neither endpoint existed before).
    #[test]
    fn disconnected_new_component_grows_table() {
        let g = base_graph();
        let n = g.num_nodes();
        let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &g);
        inc.refresh();
        inc.ingest([TemporalEdge::new(n as u32, n as u32 + 1, 2.0)]);
        let emb = inc.refresh();
        assert_eq!(emb.num_nodes(), n + 2);
        assert!(emb.get(n as u32).iter().any(|&x| x != 0.0));
        assert!(emb.get(n as u32 + 1).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn warm_pool_applies_after_the_first_refresh_only() {
        let g = base_graph();
        let hp = Hyperparams::paper_optimal().quick_test().with_threads(1);
        let (mut capped, mut plain) =
            (IncrementalEmbedder::new(hp.clone(), &g), IncrementalEmbedder::new(hp, &g));
        // The first refresh trains from scratch on the configured single
        // thread: a wider warm pool must not change it.
        let first = capped.refresh_on(&ParConfig::with_threads(4)).clone();
        assert_eq!(&first, plain.refresh());
        capped.ingest([TemporalEdge::new(0, 7, 2.0)]);
        plain.ingest([TemporalEdge::new(0, 7, 2.0)]);
        let warm = capped.refresh_on(&ParConfig::with_threads(1)).clone();
        assert_eq!(&warm, plain.refresh());
    }

    #[test]
    fn embedding_accessor_tracks_refreshes() {
        let g = base_graph();
        let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &g);
        assert!(inc.embedding().is_none());
        inc.refresh();
        assert_eq!(inc.embedding().map(|e| e.num_nodes()), Some(g.num_nodes()));
    }

    #[test]
    fn new_vertices_gain_embeddings() {
        let g = base_graph();
        let n = g.num_nodes() as u32;
        let mut inc = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &g);
        inc.refresh();
        inc.ingest([
            TemporalEdge::new(n, 0, 2.0),
            TemporalEdge::new(0, n, 2.1),
            TemporalEdge::new(n, 1, 2.2),
        ]);
        let emb = inc.refresh();
        assert_eq!(emb.num_nodes(), n as usize + 1);
        assert!(emb.get(n).iter().any(|&x| x != 0.0), "new vertex has zero vector");
    }
}
