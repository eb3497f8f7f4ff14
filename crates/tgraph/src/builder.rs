//! Incremental construction of [`TemporalGraph`]s.
//!
//! The build is one counting-sort pass in the shape of GAPBS's `MakeCSR`:
//! count each vertex's degree over both directions, place every edge (and,
//! for an undirected graph, its reverse) straight into the CSR arrays,
//! normalizing its time on the way, drop the input list, then sort each
//! vertex's segment in place. No reversed copy of the input is ever made,
//! so the build's transient heap is the input list plus the output CSR, a
//! cursor per vertex and one segment of sort scratch per worker.

use std::cmp::Ordering;

use par::ParConfig;

use crate::{NodeId, TemporalEdge, TemporalGraph, Time};

/// Edge count from which segments are sorted on the default pool rather
/// than on the calling thread: below it, spawning threads costs more than
/// the sort.
pub(crate) const PARALLEL_SORT_MIN_EDGES: usize = 1 << 18;

/// Builder assembling a [`TemporalGraph`] from a temporal edge list.
///
/// The builder performs the counting-sort CSR construction used by GAPBS,
/// then sorts each vertex's segment by timestamp (ties by destination,
/// then by input order). Options:
///
/// * [`undirected`](Self::undirected) — insert the reverse of every edge
///   (the paper treats its interaction networks as undirected for walking);
/// * [`normalize_times`](Self::normalize_times) — rescale timestamps into
///   `[0, 1]` like the artifact's `preprocess_dataset.py`;
/// * [`num_nodes`](Self::num_nodes) — force a vertex-count larger than the
///   max id seen (for graphs with isolated tail vertices).
///
/// # Examples
///
/// ```
/// use tgraph::{GraphBuilder, TemporalEdge};
///
/// let g = GraphBuilder::new()
///     .add_edge(TemporalEdge::new(0, 1, 100.0))
///     .add_edge(TemporalEdge::new(1, 2, 300.0))
///     .undirected(true)
///     .normalize_times(true)
///     .build();
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.time_range(), Some((0.0, 1.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<TemporalEdge>,
    undirected: bool,
    normalize: bool,
    forced_nodes: Option<usize>,
}

impl GraphBuilder {
    /// Creates an empty builder (directed, no normalization).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one edge.
    #[must_use]
    pub fn add_edge(mut self, e: TemporalEdge) -> Self {
        self.edges.push(e);
        self
    }

    /// Appends every edge from an iterator. On an empty builder a `Vec`
    /// is adopted as the edge list, not copied.
    #[must_use]
    pub fn extend_edges<I: IntoIterator<Item = TemporalEdge>>(mut self, iter: I) -> Self {
        self.extend(iter);
        self
    }

    /// When `true`, every edge is mirrored so walks can traverse both
    /// directions of an interaction.
    #[must_use]
    pub fn undirected(mut self, yes: bool) -> Self {
        self.undirected = yes;
        self
    }

    /// When `true`, timestamps are affinely rescaled to `[0, 1]`
    /// (a single distinct timestamp maps to `0.0`).
    #[must_use]
    pub fn normalize_times(mut self, yes: bool) -> Self {
        self.normalize = yes;
        self
    }

    /// Forces the vertex count; ignored if smaller than `max_id + 1`.
    #[must_use]
    pub fn num_nodes(mut self, n: usize) -> Self {
        self.forced_nodes = Some(n);
        self
    }

    /// Number of edges currently staged (before undirected doubling).
    pub fn staged_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if any timestamp is non-finite; use
    /// [`try_build`](Self::try_build) for fallible construction.
    pub fn build(self) -> TemporalGraph {
        self.try_build().expect("invalid temporal edge list")
    }

    /// Fallible version of [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TGraphError::NonFiniteTime`] if any timestamp is NaN
    /// or infinite.
    pub fn try_build(self) -> Result<TemporalGraph, crate::TGraphError> {
        self.try_build_sorting(true)
    }

    /// [`try_build`](Self::try_build); with `parallel` false every segment
    /// is sorted on the calling thread whatever the edge count, for callers
    /// held to a thread budget of their own, such as
    /// [`DynamicGraph::to_csr`](crate::dynamic::DynamicGraph::to_csr).
    pub(crate) fn try_build_sorting(
        self,
        parallel: bool,
    ) -> Result<TemporalGraph, crate::TGraphError> {
        let Self { edges, undirected, normalize, forced_nodes } = self;
        let (mut lo, mut hi, mut max_id) = (f64::INFINITY, f64::NEG_INFINITY, 0);
        for (i, e) in edges.iter().enumerate() {
            if !e.time.is_finite() {
                return Err(crate::TGraphError::NonFiniteTime { edge_index: i });
            }
            lo = lo.min(e.time);
            hi = hi.max(e.time);
            max_id = max_id.max(e.src.max(e.dst) as usize + 1);
        }
        let span = hi - lo;
        let time_of = |t: Time| match (normalize, span > 0.0) {
            (false, _) => t,
            (true, true) => (t - lo) / span,
            (true, false) => 0.0,
        };
        let n = forced_nodes.unwrap_or(0).max(max_id);

        // Degrees over both directions, then their prefix sums.
        let mut offsets = vec![0usize; n + 1];
        for e in &edges {
            offsets[e.src as usize + 1] += 1;
            if undirected {
                offsets[e.dst as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }

        // Every edge, then every reverse, in input order: the order ties
        // keep within a segment.
        let m = offsets[n];
        let mut dsts = vec![0 as NodeId; m];
        let mut times = vec![0.0 as Time; m];
        let mut cursor = offsets[..n].to_vec();
        let mut place = |src: NodeId, dst: NodeId, t: Time| {
            let slot = &mut cursor[src as usize];
            dsts[*slot] = dst;
            times[*slot] = time_of(t);
            *slot += 1;
        };
        for e in &edges {
            place(e.src, e.dst, e.time);
        }
        if undirected {
            for e in &edges {
                place(e.dst, e.src, e.time);
            }
        }
        drop(cursor);
        drop(edges);

        let pieces = if parallel && m >= PARALLEL_SORT_MIN_EDGES {
            ParConfig::default().threads()
        } else {
            1
        };
        sort_segments(&offsets, &mut dsts, &mut times, pieces);
        Ok(TemporalGraph::from_csr(offsets, dsts, times))
    }
}

/// Sorts every vertex segment of the CSR by `(time, dst)`, keeping equal
/// pairs in place order. With `pieces > 1`, the vertex range is split into
/// that many disjoint pieces of about equal edge count, each sorted on its
/// own thread.
fn sort_segments(offsets: &[usize], dsts: &mut [NodeId], times: &mut [Time], pieces: usize) {
    if pieces <= 1 {
        sort_piece(offsets, dsts, times);
        return;
    }
    let (n, m) = (offsets.len() - 1, dsts.len());
    let mut parts = Vec::with_capacity(pieces);
    let (mut rest_d, mut rest_t, mut v0) = (dsts, times, 0);
    for k in 1..=pieces {
        let v1 = if k == pieces { n } else { offsets.partition_point(|&o| o < k * m / pieces) };
        let len = offsets[v1] - offsets[v0];
        let (d, dr) = rest_d.split_at_mut(len);
        let (t, tr) = rest_t.split_at_mut(len);
        parts.push((&offsets[v0..=v1], d, t));
        (rest_d, rest_t, v0) = (dr, tr, v1);
    }
    let cfg = ParConfig::with_threads(pieces).chunk_size(1);
    par::parallel_for(&cfg, &mut parts, |_, (offsets, d, t)| sort_piece(offsets, d, t));
}

/// [`sort_segments`] on one thread for the vertices `offsets` spans; `dsts`
/// and `times` start at `offsets[0]`. One scratch buffer, sized to the
/// widest segment, serves every segment not already in order.
fn sort_piece(offsets: &[usize], dsts: &mut [NodeId], times: &mut [Time]) {
    let base = offsets[0];
    let widest = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let mut scratch: Vec<(Time, NodeId, usize)> = Vec::with_capacity(widest);
    for w in offsets.windows(2) {
        let (d, t) = (&mut dsts[w[0] - base..w[1] - base], &mut times[w[0] - base..w[1] - base]);
        let in_order =
            (1..d.len()).all(|i| by_time_then_dst((t[i - 1], d[i - 1]), (t[i], d[i])).is_le());
        if in_order {
            continue;
        }
        scratch.clear();
        scratch.extend(t.iter().zip(d.iter()).enumerate().map(|(i, (&t, &d))| (t, d, i)));
        // The place index breaks every tie, so this unstable sort returns
        // what a stable one would, without allocating.
        scratch
            .sort_unstable_by(|a, b| by_time_then_dst((a.0, a.1), (b.0, b.1)).then(a.2.cmp(&b.2)));
        for (&(time, dst, _), (ds, ts)) in scratch.iter().zip(d.iter_mut().zip(t.iter_mut())) {
            (*ds, *ts) = (dst, time);
        }
    }
}

/// Segment order. `0.0` and `-0.0` compare equal, so their place order
/// decides between them.
fn by_time_then_dst(a: (Time, NodeId), b: (Time, NodeId)) -> Ordering {
    a.0.partial_cmp(&b.0).expect("timestamps are finite").then(a.1.cmp(&b.1))
}

impl FromIterator<TemporalEdge> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = TemporalEdge>>(iter: I) -> Self {
        GraphBuilder::new().extend_edges(iter)
    }
}

impl Extend<TemporalEdge> for GraphBuilder {
    fn extend<I: IntoIterator<Item = TemporalEdge>>(&mut self, iter: I) {
        if self.edges.is_empty() {
            // Collecting a `vec::IntoIter` reuses its buffer.
            self.edges = iter.into_iter().collect();
        } else {
            self.edges.extend(iter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_doubles_edges() {
        let g = GraphBuilder::new().add_edge(TemporalEdge::new(0, 1, 1.0)).undirected(true).build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 50.0))
            .add_edge(TemporalEdge::new(0, 2, 150.0))
            .add_edge(TemporalEdge::new(0, 3, 100.0))
            .normalize_times(true)
            .build();
        assert_eq!(g.time_range(), Some((0.0, 1.0)));
        let times: Vec<f64> = g.neighbors(0).map(|(_, t)| t).collect();
        assert_eq!(times, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn constant_timestamps_normalize_to_zero() {
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 7.0))
            .add_edge(TemporalEdge::new(1, 0, 7.0))
            .normalize_times(true)
            .build();
        assert_eq!(g.time_range(), Some((0.0, 0.0)));
    }

    #[test]
    fn forced_node_count() {
        let g = GraphBuilder::new().add_edge(TemporalEdge::new(0, 1, 0.0)).num_nodes(10).build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn non_finite_time_is_rejected() {
        let r = GraphBuilder::new().add_edge(TemporalEdge::new(0, 1, f64::NAN)).try_build();
        assert!(matches!(r, Err(crate::TGraphError::NonFiniteTime { edge_index: 0 })));
    }

    #[test]
    fn segments_sorted_by_time_then_dst() {
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 5, 1.0))
            .add_edge(TemporalEdge::new(0, 2, 1.0))
            .add_edge(TemporalEdge::new(0, 9, 0.5))
            .build();
        let order: Vec<_> = g.neighbors(0).collect();
        assert_eq!(order, vec![(9, 0.5), (2, 1.0), (5, 1.0)]);
    }

    #[test]
    fn split_sort_matches_one_piece() {
        let edges = crate::gen::preferential_attachment(300, 3, 5).undirected(true);
        let g = edges.clone().build();
        let (offsets, dsts, times) = g.csr_parts();
        // Reverse every segment so each one needs sorting.
        let (mut d, mut t) = (dsts.to_vec(), times.to_vec());
        for w in offsets.windows(2) {
            d[w[0]..w[1]].reverse();
            t[w[0]..w[1]].reverse();
        }
        for pieces in [2, 3, 7] {
            let (mut d, mut t) = (d.clone(), t.clone());
            sort_segments(offsets, &mut d, &mut t, pieces);
            assert_eq!((&d[..], &t[..]), (dsts, times), "{pieces} pieces");
        }
    }

    #[test]
    fn from_iterator_collects() {
        let edges = vec![TemporalEdge::new(0, 1, 0.1), TemporalEdge::new(1, 2, 0.2)];
        let b: GraphBuilder = edges.into_iter().collect();
        assert_eq!(b.staged_edges(), 2);
    }
}
