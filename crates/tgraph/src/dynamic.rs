//! Incrementally updatable temporal graph.
//!
//! The paper motivates its end-to-end time study with deployment reality:
//! "the graph evolves over time. With this evolution, an entire pipeline
//! needs to run to account for new nodes/connections" (§VII-B). This
//! module provides the substrate for the cheaper alternative: a mutable
//! adjacency structure that absorbs edge streams, tracks which vertices
//! changed, and snapshots to the immutable CSR [`TemporalGraph`] the walk
//! kernel wants.
//!
//! # Examples
//!
//! ```
//! use tgraph::dynamic::DynamicGraph;
//! use tgraph::TemporalEdge;
//!
//! let mut g = DynamicGraph::new();
//! g.add_edge(TemporalEdge::new(0, 1, 0.1));
//! g.add_edge(TemporalEdge::new(1, 2, 0.2));
//! let snapshot = g.to_csr();
//! assert_eq!(snapshot.num_edges(), 2);
//! assert_eq!(g.take_dirty(), vec![0, 1, 2]); // every touched endpoint
//! assert!(g.take_dirty().is_empty()); // drained
//! ```

use crate::{GraphBuilder, NodeId, TemporalEdge, TemporalGraph, Time};

/// A growable temporal graph with per-vertex time-sorted adjacency and
/// dirty-vertex tracking.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    adj: Vec<Vec<(NodeId, Time)>>,
    dirty: Vec<NodeId>,
    dirty_flags: Vec<bool>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Creates an empty dynamic graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the dynamic graph from an existing CSR snapshot (no vertices
    /// marked dirty).
    pub fn from_graph(g: &TemporalGraph) -> Self {
        let n = g.num_nodes();
        let mut adj = vec![Vec::new(); n];
        for e in g.edges() {
            adj[e.src as usize].push((e.dst, e.time));
        }
        Self { adj, dirty: Vec::new(), dirty_flags: vec![false; n], num_edges: g.num_edges() }
    }

    /// Number of vertices (grows automatically with edge ids).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed temporal edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Appends one edge, keeping the source's adjacency time-sorted and
    /// marking both endpoints dirty.
    ///
    /// # Panics
    ///
    /// Panics if the timestamp is not finite.
    pub fn add_edge(&mut self, e: TemporalEdge) {
        assert!(e.time.is_finite(), "non-finite timestamp");
        let needed = e.src.max(e.dst) as usize + 1;
        if needed > self.adj.len() {
            self.adj.resize_with(needed, Vec::new);
            self.dirty_flags.resize(needed, false);
        }
        let seg = &mut self.adj[e.src as usize];
        // Streams mostly arrive in time order, so the common case is an
        // O(1) push; otherwise insert at the sorted position.
        let pos = if seg.last().is_none_or(|&(_, t)| t <= e.time) {
            seg.len()
        } else {
            seg.partition_point(|&(_, t)| t <= e.time)
        };
        seg.insert(pos, (e.dst, e.time));
        self.num_edges += 1;
        self.mark_dirty(e.src);
        self.mark_dirty(e.dst);
    }

    /// Appends many edges.
    pub fn add_edges<I: IntoIterator<Item = TemporalEdge>>(&mut self, edges: I) {
        for e in edges {
            self.add_edge(e);
        }
    }

    fn mark_dirty(&mut self, v: NodeId) {
        let i = v as usize;
        if !self.dirty_flags[i] {
            self.dirty_flags[i] = true;
            self.dirty.push(v);
        }
    }

    /// Drains the set of vertices touched since the last call — the
    /// re-walk frontier for incremental embedding refresh.
    pub fn take_dirty(&mut self) -> Vec<NodeId> {
        let mut out = std::mem::take(&mut self.dirty);
        out.sort_unstable();
        for &v in &out {
            self.dirty_flags[v as usize] = false;
        }
        out
    }

    /// Vertices currently marked dirty (without draining).
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Snapshots to the immutable CSR representation, built on the
    /// calling thread alone. Each segment is already time-sorted, so the
    /// builder's sort pass mostly confirms order, and a background
    /// refresher calling this stays within the threads it was given
    /// however large the graph has grown.
    pub fn to_csr(&self) -> TemporalGraph {
        let mut edges = Vec::with_capacity(self.num_edges);
        for (src, seg) in self.adj.iter().enumerate() {
            edges.extend(seg.iter().map(|&(dst, t)| TemporalEdge::new(src as NodeId, dst, t)));
        }
        GraphBuilder::new()
            .extend_edges(edges)
            .num_nodes(self.adj.len())
            .try_build_sorting(false)
            .expect("add_edge admits finite times only")
    }
}

impl Extend<TemporalEdge> for DynamicGraph {
    fn extend<I: IntoIterator<Item = TemporalEdge>>(&mut self, iter: I) {
        self.add_edges(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_snapshot_matches_builder() {
        let edges = vec![
            TemporalEdge::new(0, 1, 0.5),
            TemporalEdge::new(0, 2, 0.1),
            TemporalEdge::new(2, 0, 0.9),
        ];
        let mut dynamic = DynamicGraph::new();
        dynamic.add_edges(edges.clone());
        let from_builder = GraphBuilder::new().extend_edges(edges).build();
        assert_eq!(dynamic.to_csr(), from_builder);
    }

    #[test]
    #[cfg_attr(miri, ignore = "300 k edges: too slow interpreted")]
    fn csr_snapshot_above_the_parallel_sort_threshold_matches_builder() {
        // Coarse times tie many edges of a segment, so the sort must
        // order them by destination on the calling thread as the
        // builder's parallel pieces do.
        let edges: Vec<TemporalEdge> = crate::gen::preferential_attachment(50_000, 3, 4)
            .undirected(true)
            .build()
            .edges()
            .map(|e| TemporalEdge::new(e.src, e.dst, (e.time * 8.0).floor()))
            .collect();
        assert!(edges.len() > crate::builder::PARALLEL_SORT_MIN_EDGES);
        let mut dynamic = DynamicGraph::new();
        dynamic.add_edges(edges.iter().copied());
        let from_builder = GraphBuilder::new().extend_edges(edges).build();
        assert_eq!(dynamic.to_csr(), from_builder);
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut g = DynamicGraph::new();
        g.add_edge(TemporalEdge::new(0, 1, 0.9));
        g.add_edge(TemporalEdge::new(0, 2, 0.1));
        g.add_edge(TemporalEdge::new(0, 3, 0.5));
        let csr = g.to_csr();
        let times: Vec<f64> = csr.neighbors(0).map(|(_, t)| t).collect();
        assert_eq!(times, vec![0.1, 0.5, 0.9]);
    }

    #[test]
    fn dirty_tracking_marks_both_endpoints_once() {
        let mut g = DynamicGraph::new();
        g.add_edge(TemporalEdge::new(3, 7, 0.1));
        g.add_edge(TemporalEdge::new(3, 7, 0.2));
        assert_eq!(g.take_dirty(), vec![3, 7]);
        assert_eq!(g.dirty_count(), 0);
        g.add_edge(TemporalEdge::new(1, 3, 0.3));
        assert_eq!(g.take_dirty(), vec![1, 3]);
    }

    #[test]
    fn from_graph_round_trip() {
        let base = crate::gen::erdos_renyi(50, 300, 4).build();
        let mut dynamic = DynamicGraph::from_graph(&base);
        assert_eq!(dynamic.to_csr(), base);
        assert_eq!(dynamic.dirty_count(), 0);
        dynamic.add_edge(TemporalEdge::new(0, 1, 2.0));
        assert_eq!(dynamic.num_edges(), 301);
    }

    #[test]
    fn vertex_space_grows_with_ids() {
        let mut g = DynamicGraph::new();
        g.add_edge(TemporalEdge::new(100, 5, 0.0));
        assert_eq!(g.num_nodes(), 101);
        assert_eq!(g.to_csr().num_nodes(), 101);
    }

    #[test]
    #[should_panic(expected = "non-finite timestamp")]
    fn nan_time_rejected() {
        DynamicGraph::new().add_edge(TemporalEdge::new(0, 1, f64::NAN));
    }
}
