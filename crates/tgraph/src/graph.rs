//! CSR temporal graph (the paper's `WGraph` analog).

use crate::{NodeId, Storage, TemporalEdge, Time};

/// A directed temporal graph in CSR form with timestamp-sorted adjacency.
///
/// Storage is structure-of-arrays: for vertex `v`, the half-open range
/// `offsets[v]..offsets[v + 1]` indexes into parallel `dsts`/`times`
/// arrays. Within a vertex's segment edges are sorted by ascending
/// timestamp, which lets the walk kernel find the temporally-valid suffix
/// with one `partition_point` (binary search) instead of scanning every
/// neighbor (paper Algorithm 1's `sampleLatest`).
///
/// Multi-edges (same endpoints, different timestamps) are preserved, as the
/// paper requires for modeling repeated interactions.
///
/// Construct via [`crate::GraphBuilder`], or — for arrays borrowed from
/// a mapped store file — via [`TemporalGraph::from_csr_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalGraph {
    offsets: Storage<usize>,
    dsts: Storage<NodeId>,
    times: Storage<Time>,
}

impl TemporalGraph {
    pub(crate) fn from_csr(offsets: Vec<usize>, dsts: Vec<NodeId>, times: Vec<Time>) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), dsts.len());
        debug_assert_eq!(dsts.len(), times.len());
        Self { offsets: offsets.into(), dsts: dsts.into(), times: times.into() }
    }

    /// Builds a graph directly from CSR arrays — the entry point for the
    /// persistent storage layer, which hands in [`Storage::Mapped`] views
    /// borrowed from an opened store file instead of rebuilding from an
    /// edge list.
    ///
    /// Unlike [`crate::GraphBuilder`] (which constructs the invariants),
    /// this *checks* them, because the arrays come from outside the
    /// builder: `offsets` must be non-empty, start at 0, be
    /// nondecreasing, and end at `dsts.len()`; `dsts` and `times` must be
    /// parallel; every destination must be `< num_nodes`; every timestamp
    /// must be finite; and each vertex segment must be time-sorted
    /// ascending. Any violation is a [`crate::TGraphError::InvalidCsr`] — never
    /// a panic later in the walk kernel.
    pub fn from_csr_parts(
        offsets: Storage<usize>,
        dsts: Storage<NodeId>,
        times: Storage<Time>,
    ) -> Result<Self, crate::TGraphError> {
        let invalid = |message: String| crate::TGraphError::InvalidCsr { message };
        if offsets.is_empty() {
            return Err(invalid("offsets array is empty".into()));
        }
        if offsets[0] != 0 {
            return Err(invalid(format!("offsets[0] is {}, expected 0", offsets[0])));
        }
        if dsts.len() != times.len() {
            return Err(invalid(format!(
                "dsts/times length mismatch: {} vs {}",
                dsts.len(),
                times.len()
            )));
        }
        let n = offsets.len() - 1;
        let m = dsts.len();
        if offsets[n] != m {
            return Err(invalid(format!("offsets end at {}, expected {m} edges", offsets[n])));
        }
        // The remaining invariants are all per-vertex-segment, so they
        // fuse into one pass over the edge arrays instead of four. The
        // pass parallelizes across vertex ranges for large graphs — this
        // sits on the store layer's warm-restart critical path, where a
        // serial scan of a hundred-MB CSR would rival the cost of the
        // checksums — and stays serial for small inputs (and under test
        // interpreters where spawning threads dwarfs the scan).
        let scan_range = |v0: usize, v1: usize| -> Option<(usize, String)> {
            for v in v0..v1 {
                let (s, e) = (offsets[v], offsets[v + 1]);
                if s > e {
                    return Some((v, format!("offsets decrease at vertex {v}")));
                }
                if e > m {
                    // offsets[n] == m was checked, so an in-range pair
                    // overshooting the edge count implies a decrease at
                    // some later vertex; report it structurally here.
                    return Some((v, format!("offsets exceed the {m} edges at vertex {v}")));
                }
                for i in s..e {
                    if dsts[i] as usize >= n {
                        return Some((
                            v,
                            format!(
                                "edge {i} points at vertex {} but the graph has {n} vertices",
                                dsts[i]
                            ),
                        ));
                    }
                    if !times[i].is_finite() {
                        return Some((v, format!("non-finite timestamp on edge {i}")));
                    }
                    if i > s && times[i - 1] > times[i] {
                        return Some((v, format!("vertex {v} segment is not time-sorted")));
                    }
                }
            }
            None
        };
        const PARALLEL_MIN_EDGES: usize = 1 << 20;
        let first_bad = if m >= PARALLEL_MIN_EDGES {
            let bad = std::sync::Mutex::new(None::<(usize, String)>);
            par::parallel_chunks(&par::ParConfig::default(), n, |v0, v1| {
                if let Some(found) = scan_range(v0, v1) {
                    let mut slot = bad.lock().expect("csr validation lock");
                    // Keep the lowest-vertex violation so the reported
                    // error is deterministic regardless of scheduling.
                    if slot.as_ref().is_none_or(|(v, _)| found.0 < *v) {
                        *slot = Some(found);
                    }
                }
            });
            bad.into_inner().expect("csr validation lock")
        } else {
            scan_range(0, n)
        };
        if let Some((_, message)) = first_bad {
            return Err(invalid(message));
        }
        Ok(Self { offsets, dsts, times })
    }

    /// Raw CSR views `(offsets, dsts, times)` — what the storage layer
    /// serializes. `offsets.len() == num_nodes() + 1`; `dsts`/`times` are
    /// parallel and time-sorted within each vertex segment.
    pub fn csr_parts(&self) -> (&[usize], &[NodeId], &[Time]) {
        (&self.offsets, &self.dsts, &self.times)
    }

    /// Whether the CSR arrays are borrowed from a mapped store file
    /// rather than heap-owned.
    pub fn is_mapped(&self) -> bool {
        self.offsets.is_mapped()
    }

    /// Number of vertices (including isolated ones up to the max id seen).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of directed temporal edges (multi-edges counted).
    pub fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    /// Out-degree of `v` (temporal multi-edges counted).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum out-degree across all vertices (the `M` in the paper's
    /// `O(K·N·|V|·M)` walk complexity).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|v| self.out_degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Timestamp-sorted neighbor segment of `v` as parallel slices
    /// `(destinations, timestamps)`.
    pub fn neighbor_slices(&self, v: NodeId) -> (&[NodeId], &[Time]) {
        let v = v as usize;
        let (a, b) = (self.offsets[v], self.offsets[v + 1]);
        (&self.dsts[a..b], &self.times[a..b])
    }

    /// CSR edge-index range of `v`'s neighbor segment — positions into
    /// edge-parallel side tables (per-edge weights, cumulative sums) built
    /// in the graph's edge order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn segment_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Hints the CPU to pull `v`'s CSR offsets entry toward L1.
    ///
    /// First stage of the walk engine's two-stage prefetch pipeline: the
    /// segment bounds themselves live behind a random load into `offsets`,
    /// so they are prefetched further ahead than the segment data they
    /// unlock (see [`Self::prefetch_segment`]). Pure hint — never faults,
    /// even for out-of-range ids.
    #[inline(always)]
    pub fn prefetch_offsets(&self, v: NodeId) {
        crate::prefetch::prefetch_read(self.offsets.as_ptr().wrapping_add(v as usize));
    }

    /// Hints the CPU to pull `v`'s neighbor segment toward L1: the
    /// timestamp slice's first, middle, and last cache lines (the probe
    /// points of the upcoming `partition_point` binary searches) plus the
    /// head of the destination slice.
    ///
    /// Reads `offsets[v]` to locate the segment, so call
    /// [`Self::prefetch_offsets`] a few iterations earlier to keep that
    /// load itself from stalling.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn prefetch_segment(&self, v: NodeId) {
        let v = v as usize;
        let (a, b) = (self.offsets[v], self.offsets[v + 1]);
        if a == b {
            return;
        }
        // Probe indices deduplicated at cache-line granularity (8 × f64
        // per line): low-degree segments span a single line, and issuing
        // one hint instead of three matters in the sparse regime where
        // the interleaved engine lives.
        let (mid, last) = ((a + b) / 2, b - 1);
        let times = self.times.as_ptr();
        crate::prefetch::prefetch_read(times.wrapping_add(a));
        if mid >> 3 != a >> 3 {
            crate::prefetch::prefetch_read(times.wrapping_add(mid));
        }
        if last >> 3 != mid >> 3 {
            crate::prefetch::prefetch_read(times.wrapping_add(last));
        }
        crate::prefetch::prefetch_read(self.dsts.as_ptr().wrapping_add(a));
    }

    /// Iterator over `(dst, time)` pairs of `v` in ascending-time order.
    ///
    /// # Examples
    ///
    /// ```
    /// use tgraph::{GraphBuilder, TemporalEdge};
    ///
    /// let g = GraphBuilder::new()
    ///     .add_edge(TemporalEdge::new(0, 1, 0.3))
    ///     .add_edge(TemporalEdge::new(0, 2, 0.1))
    ///     .build();
    /// let order: Vec<u32> = g.neighbors(0).map(|(d, _)| d).collect();
    /// assert_eq!(order, vec![2, 1]);
    /// ```
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        let (dsts, times) = self.neighbor_slices(v);
        Neighbors { dsts, times, pos: 0 }
    }

    /// The temporally-valid suffix of `v`'s adjacency: neighbors reachable
    /// at a time strictly greater than `after` (Definition III.2 requires
    /// strictly increasing timestamps along a walk).
    ///
    /// Returns parallel `(destinations, timestamps)` slices; both are empty
    /// when no temporally-valid neighbor exists.
    pub fn neighbors_after(&self, v: NodeId, after: Time) -> (&[NodeId], &[Time]) {
        let (dsts, times) = self.neighbor_slices(v);
        let cut = times.partition_point(|&t| t <= after);
        (&dsts[cut..], &times[cut..])
    }

    /// Like [`Self::neighbors_after`] but inclusive (`t >= after`), used for
    /// the first hop of a walk where the start time itself is admissible.
    pub fn neighbors_from(&self, v: NodeId, from: Time) -> (&[NodeId], &[Time]) {
        let (dsts, times) = self.neighbor_slices(v);
        let cut = times.partition_point(|&t| t < from);
        (&dsts[cut..], &times[cut..])
    }

    /// Linear-scan equivalent of [`Self::neighbors_after`] — the `O(M)`
    /// per-step cost of the paper's Algorithm 1 `sampleLatest`, kept as an
    /// ablation baseline for the binary-search lookup (see the
    /// `bench_rwalk` `neighbor_lookup` group).
    pub fn neighbors_after_linear(&self, v: NodeId, after: Time) -> (&[NodeId], &[Time]) {
        let (dsts, times) = self.neighbor_slices(v);
        let mut cut = 0;
        while cut < times.len() && times[cut] <= after {
            cut += 1;
        }
        (&dsts[cut..], &times[cut..])
    }

    /// Iterator over every temporal edge in the graph, grouped by source
    /// vertex and time-sorted within each group.
    pub fn edges(&self) -> impl Iterator<Item = TemporalEdge> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |v| self.neighbors(v).map(move |(d, t)| TemporalEdge::new(v, d, t)))
    }

    /// Whether at least one `u -> v` edge exists at any timestamp.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.num_nodes() {
            return false;
        }
        self.neighbor_slices(u).0.contains(&v)
    }

    /// Smallest and largest timestamps, or `None` for an edgeless graph.
    pub fn time_range(&self) -> Option<(Time, Time)> {
        if self.times.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &t in self.times.iter() {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        Some((lo, hi))
    }

    /// The span `t_max - t_min` used as the softmax normalization term `r`
    /// in the paper's Eq. (1); zero for graphs with a single timestamp.
    pub fn time_span(&self) -> Time {
        self.time_range().map(|(lo, hi)| hi - lo).unwrap_or(0.0)
    }

    /// Snapshot `G_t`: the subgraph containing only edges with
    /// `time <= t` (Definition of graph snapshots, Table I).
    pub fn snapshot_until(&self, t: Time) -> TemporalGraph {
        let n = self.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut dsts = Vec::new();
        let mut times = Vec::new();
        offsets.push(0);
        for v in 0..n as NodeId {
            let (d, tt) = self.neighbor_slices(v);
            let cut = tt.partition_point(|&x| x <= t);
            dsts.extend_from_slice(&d[..cut]);
            times.extend_from_slice(&tt[..cut]);
            offsets.push(dsts.len());
        }
        TemporalGraph::from_csr(offsets, dsts, times)
    }

    /// Approximate resident size in bytes of the CSR arrays.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.dsts.len() * std::mem::size_of::<NodeId>()
            + self.times.len() * std::mem::size_of::<Time>()
    }
}

/// Iterator over a vertex's `(dst, time)` pairs produced by
/// [`TemporalGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    dsts: &'a [NodeId],
    times: &'a [Time],
    pos: usize,
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = (NodeId, Time);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos < self.dsts.len() {
            let item = (self.dsts[self.pos], self.times[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.dsts.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn toy() -> TemporalGraph {
        // Fig. 2-style toy graph: u=0, v=1, x=2, y=3.
        GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 1.0))
            .add_edge(TemporalEdge::new(1, 2, 2.0))
            .add_edge(TemporalEdge::new(1, 3, 5.0))
            .add_edge(TemporalEdge::new(1, 0, 0.5))
            .build()
    }

    #[test]
    fn degrees_and_counts() {
        let g = toy();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(1), 3);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn segment_ranges_tile_the_edge_array() {
        let g = toy();
        let mut next = 0;
        for v in 0..g.num_nodes() as NodeId {
            let r = g.segment_range(v);
            assert_eq!(r.start, next);
            assert_eq!(r.len(), g.out_degree(v));
            next = r.end;
        }
        assert_eq!(next, g.num_edges());
    }

    #[test]
    fn neighbors_after_is_strict() {
        let g = toy();
        let (d, t) = g.neighbors_after(1, 2.0);
        assert_eq!(d, &[3]);
        assert_eq!(t, &[5.0]);
        // Inclusive variant keeps the t == 2.0 edge.
        let (d, _) = g.neighbors_from(1, 2.0);
        assert_eq!(d, &[2, 3]);
    }

    #[test]
    fn linear_and_binary_lookup_agree() {
        let g = crate::gen::erdos_renyi(60, 600, 8).build();
        for v in 0..g.num_nodes() as NodeId {
            for t in [-0.1, 0.0, 0.25, 0.5, 0.9, 1.1] {
                assert_eq!(g.neighbors_after(v, t), g.neighbors_after_linear(v, t));
            }
        }
    }

    #[test]
    fn neighbors_after_all_and_none() {
        let g = toy();
        let (d, _) = g.neighbors_after(1, -1.0);
        assert_eq!(d.len(), 3);
        let (d, _) = g.neighbors_after(1, 10.0);
        assert!(d.is_empty());
    }

    #[test]
    fn prefetch_accessors_accept_every_vertex() {
        // Hints must be callable for any vertex, including zero-degree
        // ones, without touching out-of-bounds memory.
        let g = toy();
        for v in 0..g.num_nodes() as NodeId {
            g.prefetch_offsets(v);
            g.prefetch_segment(v);
        }
    }

    #[test]
    fn multi_edges_are_preserved() {
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 1.0))
            .add_edge(TemporalEdge::new(0, 1, 2.0))
            .add_edge(TemporalEdge::new(0, 1, 3.0))
            .build();
        assert_eq!(g.out_degree(0), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn snapshot_filters_by_time() {
        let g = toy();
        let s = g.snapshot_until(1.0);
        assert_eq!(s.num_edges(), 2); // t=0.5 and t=1.0 edges
        assert_eq!(s.num_nodes(), g.num_nodes());
        assert_eq!(s.out_degree(1), 1);
    }

    #[test]
    fn time_range_and_span() {
        let g = toy();
        assert_eq!(g.time_range(), Some((0.5, 5.0)));
        assert!((g.time_span() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = toy();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        let g2 = GraphBuilder::new().extend_edges(edges).build();
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.time_range(), None);
        assert_eq!(g.max_degree(), 0);
    }
}
