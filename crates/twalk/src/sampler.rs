//! Transition sampling: per-vertex tables behind the
//! [`TransitionSampler::prepare`] → [`PreparedSampler`] API.
//!
//! The paper's Eq. (1) softmax is the compute-heavy part of the walk
//! kernel: evaluated directly, every step exponentiates each candidate
//! timestamp (three passes over the temporally-valid suffix). But the
//! weights depend only on the edge timestamps and the graph-wide span `r`
//! — not on the walk state — so for a fixed graph they can be
//! precomputed *once*. Every vertex of the softmax variants draws through
//! one inverse CDF: per-segment cumulative-weight prefix sums, one row per
//! vertex, aligned with the graph's CSR edge order. Sampling any valid
//! suffix `[lo..deg)` costs one subtraction (to rebase the CDF), one
//! uniform draw, and one `partition_point` binary search: `O(log d)` over
//! 8 bytes per edge. DESIGN.md §13.3 records why neither an `O(1)` alias
//! table nor table-free rejection for the vertices a refresh re-walks
//! beats it.
//!
//! Numerical stability comes from anchoring each vertex's weights at its
//! own segment extreme: softmax weights are `exp((t - t_seg_max) / r)`,
//! recency weights `exp(-(t - t_seg_min) / r)`. A segment's time range
//! never exceeds the global span `r`, so every stored weight lies in
//! `[e^-1, 1]` and the prefix sums are well conditioned. The recency
//! variant's dependence on the walk's current time cancels under
//! normalization (`exp(-(t - now)/r) = exp(-t/r) · exp(now/r)`, and the
//! second factor is constant across the candidate set), which is what
//! makes precomputation valid at all.
//!
//! The prepared sampler is built once per graph, shared read-only across
//! worker threads, and reusable across [`crate::generate_walks_prepared`]
//! and [`crate::generate_walks_from_prepared`] calls on the same graph.
//! Custom bias functions plug in through the [`TransitionBias`] trait via
//! [`PreparedSampler::custom`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use tgraph::{NodeId, Storage, TemporalGraph, Time};

use crate::{TransitionSampler, WalkRng};

/// A pluggable transition bias: chooses the next edge among the
/// temporally-valid suffix of a vertex's time-sorted neighbor segment.
///
/// Implementations receive the *full* segment timestamp slice plus the
/// index `lo` where the valid suffix begins, and must return an absolute
/// segment index in `lo..times.len()`. `now` is the timestamp of the edge
/// the walk last traversed (`-inf` before the first hop).
///
/// Implementations must be deterministic given the RNG stream: walks stay
/// reproducible in `(seed, sampler)` and independent of thread count.
pub trait TransitionBias: Send + Sync + std::fmt::Debug {
    /// Samples an index in `lo..times.len()`.
    fn sample(&self, v: NodeId, times: &[Time], lo: usize, now: Time, rng: &mut WalkRng) -> usize;
}

/// Cost and shape of building a [`PreparedSampler`]: wall-clock build
/// time and resident table size (zero for table-free samplers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerBuildStats {
    /// Wall-clock time spent building the sampler.
    pub build_time: Duration,
    /// Bytes held by the precomputed tables (CDF rows and weights).
    pub table_bytes: usize,
}

/// A transition sampler bound to one graph, ready for `O(log d)`
/// sampling.
///
/// Built by [`TransitionSampler::prepare`] (or
/// [`PreparedSampler::custom`]) and shared read-only across walk worker
/// threads. The softmax variants carry per-vertex CDF tables; uniform and
/// linear-time sampling need no tables and keep the exact RNG draw
/// pattern of direct evaluation.
///
/// # Examples
///
/// ```
/// use twalk::{generate_walks_prepared, TransitionSampler, WalkConfig};
/// use par::ParConfig;
///
/// let g = tgraph::gen::erdos_renyi(100, 800, 5).build();
/// let prepared = TransitionSampler::Softmax.prepare(&g);
/// assert!(prepared.stats().table_bytes > 0);
/// let cfg = WalkConfig::new(4, 6).sampler(TransitionSampler::Softmax);
/// // One prepare, many walk runs.
/// let a = generate_walks_prepared(&g, &cfg, &prepared, &ParConfig::default());
/// let b = generate_walks_prepared(&g, &cfg, &prepared, &ParConfig::default());
/// assert_eq!(a, b);
/// ```
#[derive(Debug)]
pub struct PreparedSampler {
    kind: PreparedKind,
    stats: SamplerBuildStats,
    num_nodes: usize,
    num_edges: usize,
}

#[derive(Debug)]
enum PreparedKind {
    /// Uniform over the valid suffix — one bounded draw, no tables.
    Uniform,
    /// CTDNE linear rank bias — closed-form CDF inversion, no tables.
    LinearTime,
    /// Softmax-weighted bias through the CDF tables.
    Weighted(CdfSampler),
    /// User-supplied bias function.
    Custom(Arc<dyn TransitionBias>),
}

impl TransitionSampler {
    /// Builds the prepared form of this sampler for `g`: CDF tables for
    /// every vertex of the softmax variants (`O(|E|)` time), nothing for
    /// [`TransitionSampler::Uniform`] and [`TransitionSampler::LinearTime`].
    /// When `obs` is enabled, exports the table bytes as a gauge.
    pub fn prepare(self, g: &TemporalGraph) -> PreparedSampler {
        let t0 = Instant::now();
        let kind = match self {
            TransitionSampler::Uniform => PreparedKind::Uniform,
            TransitionSampler::LinearTime => PreparedKind::LinearTime,
            TransitionSampler::Softmax => PreparedKind::Weighted(CdfSampler::build(g, false)),
            TransitionSampler::SoftmaxRecency => PreparedKind::Weighted(CdfSampler::build(g, true)),
        };
        let stats =
            SamplerBuildStats { build_time: t0.elapsed(), table_bytes: table_footprint(&kind) };
        let rec = obs::Recorder::global();
        if rec.is_enabled() {
            rec.gauge("twalk_sampler_table_bytes").set(stats.table_bytes as i64);
        }
        PreparedSampler { kind, stats, num_nodes: g.num_nodes(), num_edges: g.num_edges() }
    }
}

/// The softmax-weighted sampling layer: per-segment cumulative weights
/// aligned with CSR edge order, `rows[v]..rows[v + 1]` being vertex `v`'s
/// slice of `cdf` (the rows equal the graph's CSR offsets). Backed by
/// [`Storage`] so a mapped store file can lend the arrays zero-copy.
/// [`PreparedSampler`] is a facade over this for the weighted kinds.
#[derive(Debug)]
struct CdfSampler {
    recency: bool,
    span: f64,
    rows: Storage<usize>,
    cdf: Storage<f64>,
}

impl CdfSampler {
    /// Builds one prefix-sum row per vertex of `g`.
    fn build(g: &TemporalGraph, recency: bool) -> Self {
        let span = g.time_span().max(f64::MIN_POSITIVE);
        let (offsets, _, times) = g.csr_parts();
        // Built as plain Vecs, wrapped into Storage-backed tables at the
        // end (the mapped variant only enters through the import path).
        // One weight per edge, reserved up front: growing the table by
        // doubling raised a large build's peak RSS.
        let mut cdf = Vec::with_capacity(times.len());
        for row in offsets.windows(2) {
            let seg = &times[row[0]..row[1]];
            // Segments are time-sorted ascending, so the anchor is an end.
            let Some(&anchor) = (if recency { seg.first() } else { seg.last() }) else {
                continue;
            };
            let mut acc = 0.0;
            for &t in seg {
                let e = if recency { -(t - anchor) / span } else { (t - anchor) / span };
                acc += e.exp();
                cdf.push(acc);
            }
        }
        Self { recency, span, rows: offsets.to_vec().into(), cdf: cdf.into() }
    }

    /// Inverse-CDF draw of an absolute segment index in `lo..times.len()`:
    /// rebase the cumulative weights onto the valid suffix (one
    /// subtraction), one uniform draw, one binary search.
    /// `partition_point` mirrors direct evaluation's strict `target < acc`
    /// acceptance. The caller has already handled the singleton suffix.
    #[inline]
    fn sample(&self, v: NodeId, times: &[Time], lo: usize, rng: &mut WalkRng) -> usize {
        let seg = &self.cdf[self.rows[v as usize]..self.rows[v as usize + 1]];
        debug_assert_eq!(seg.len(), times.len());
        let base = if lo == 0 { 0.0 } else { seg[lo - 1] };
        let total = seg[times.len() - 1] - base;
        let target = base + rng.next_f64() * total;
        let pick = lo + seg[lo..].partition_point(|&c| c <= target);
        // Float round-off can push `target` past the last cumulative
        // weight; clamp like direct evaluation does.
        pick.min(times.len() - 1)
    }

    /// Warms the *index* loads [`Self::prefetch`] depends on: the
    /// `rows[v]`/`rows[v + 1]` bounds of `v`'s table slice. A table
    /// prefetch cannot be issued until those resolve, so the engines call
    /// this one pipeline stage earlier — the sampler-side twin of the
    /// graph's CSR-offsets prefetch.
    #[inline]
    fn prefetch_offsets(&self, v: NodeId) {
        let p = self.rows.as_ptr();
        tgraph::prefetch::prefetch_read(p.wrapping_add(v as usize));
        tgraph::prefetch::prefetch_read(p.wrapping_add(v as usize + 1));
    }

    /// Hints the CPU to pull `v`'s table slice toward L1: the first,
    /// middle, and last cache lines of the prefix sums (the first
    /// positions the binary search inspects).
    #[inline]
    fn prefetch(&self, v: NodeId) {
        probe_lines(&self.cdf, self.rows[v as usize], self.rows[v as usize + 1]);
    }
}

/// Prefetches the first, middle, and last cache lines of `data[a..b]`,
/// deduplicated at line granularity (8 × f64 per line) so single-line
/// segments cost one hint, not three.
#[inline]
fn probe_lines(data: &[f64], a: usize, b: usize) {
    if a == b {
        return;
    }
    let (mid, last) = ((a + b) / 2, b - 1);
    let p = data.as_ptr();
    tgraph::prefetch::prefetch_read(p.wrapping_add(a));
    if mid >> 3 != a >> 3 {
        tgraph::prefetch::prefetch_read(p.wrapping_add(mid));
    }
    if last >> 3 != mid >> 3 {
        tgraph::prefetch::prefetch_read(p.wrapping_add(last));
    }
}

/// Resident bytes of a prepared kind's tables.
fn table_footprint(kind: &PreparedKind) -> usize {
    match kind {
        PreparedKind::Weighted(cs) => {
            cs.rows.len() * std::mem::size_of::<usize>() + cs.cdf.len() * 8
        }
        _ => 0,
    }
}

impl PreparedSampler {
    /// Wraps a user-supplied [`TransitionBias`] for `g`.
    pub fn custom(g: &TemporalGraph, bias: Arc<dyn TransitionBias>) -> Self {
        Self {
            kind: PreparedKind::Custom(bias),
            stats: SamplerBuildStats::default(),
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
        }
    }

    /// Build cost of this sampler.
    pub fn stats(&self) -> SamplerBuildStats {
        self.stats
    }

    /// Whether this sampler was prepared for a graph of the same shape —
    /// the cheap sanity check the walk entry points assert.
    pub fn matches_graph(&self, g: &TemporalGraph) -> bool {
        self.num_nodes == g.num_nodes() && self.num_edges == g.num_edges()
    }

    /// Warms the table-row bounds that [`Self::prefetch`] must read
    /// before it can compute table-line addresses — the sampler half of
    /// the ring's CSR-offsets stage. Prefetches never fault, so no bounds
    /// check. A no-op for table-free samplers.
    #[inline]
    pub fn prefetch_offsets(&self, v: NodeId) {
        if let PreparedKind::Weighted(cs) = &self.kind {
            cs.prefetch_offsets(v);
        }
    }

    /// Hints the CPU to pull `v`'s table slice toward L1 — the sampler
    /// half of the interleaved ring's segment prefetch. A no-op for
    /// table-free samplers.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the prepared graph.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        if let PreparedKind::Weighted(cs) = &self.kind {
            cs.prefetch(v);
        }
    }

    /// Samples the next edge for vertex `v` among the valid suffix
    /// `times[lo..]`, returning an absolute segment index.
    ///
    /// `times` must be `v`'s full time-sorted segment from the graph this
    /// sampler was prepared for, and `lo < times.len()`.
    ///
    /// # Panics
    ///
    /// May panic (or sample nonsense) if called with a different graph's
    /// slices; use [`Self::matches_graph`] to guard at entry points.
    #[inline]
    pub fn sample(
        &self,
        v: NodeId,
        times: &[Time],
        lo: usize,
        now: Time,
        rng: &mut WalkRng,
    ) -> usize {
        let len = times.len() - lo;
        debug_assert!(len > 0, "empty candidate set");
        match &self.kind {
            PreparedKind::Uniform => lo + rng.next_bounded(len),
            PreparedKind::LinearTime => lo + direct_linear(len, rng),
            PreparedKind::Weighted(cs) => {
                // A forced move must not consume RNG state, or prepared
                // and direct walks would diverge on every degree-1 chain.
                if len == 1 {
                    return lo;
                }
                cs.sample(v, times, lo, rng)
            }
            PreparedKind::Custom(bias) => {
                let pick = bias.sample(v, times, lo, now, rng);
                assert!(
                    (lo..times.len()).contains(&pick),
                    "custom bias returned {pick}, outside valid suffix {lo}..{}",
                    times.len()
                );
                pick
            }
        }
    }
}

/// Borrowed view of a prepared sampler's state for serialization — what
/// the persistent storage layer writes into a store file's sampler
/// sections. Obtained from [`PreparedSampler::export_tables`].
#[derive(Debug)]
pub enum SamplerTables<'a> {
    /// Closed-form uniform sampling: no tables, nothing but the bias tag
    /// to persist.
    Uniform,
    /// Closed-form CTDNE linear-time sampling: likewise table-free.
    LinearTime,
    /// Softmax-weighted sampling through the CDF tables.
    Weighted {
        /// Recency variant (`true` for [`TransitionSampler::SoftmaxRecency`]).
        recency: bool,
        /// The graph-wide span `r` the weights were anchored with.
        span: f64,
        /// Cumulative weights in CSR edge order. Their row bounds are the
        /// graph's CSR offsets, so they are not exported.
        cdf: &'a [f64],
    },
}

/// Owned-or-mapped table parts for rebuilding a softmax-weighted
/// [`PreparedSampler`] from a store file — the import-side mirror of
/// [`SamplerTables::Weighted`], with [`Storage`] in place of borrows so
/// a mapped file can lend the big arrays zero-copy.
#[derive(Debug)]
pub struct WeightedTables {
    /// Recency variant.
    pub recency: bool,
    /// The graph-wide span `r` the weights were anchored with.
    pub span: f64,
    /// Row bounds of `cdf`, `n + 1` entries: the graph's CSR offsets.
    pub rows: Storage<usize>,
    /// Cumulative weights in CSR edge order, one per edge.
    pub cdf: Storage<f64>,
}

impl PreparedSampler {
    /// Number of vertices of the graph this sampler was prepared for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges of the graph this sampler was prepared for.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Exports the sampler's serializable state, or `None` for
    /// [`PreparedSampler::custom`] samplers (an arbitrary bias function
    /// has no on-disk representation).
    pub fn export_tables(&self) -> Option<SamplerTables<'_>> {
        match &self.kind {
            PreparedKind::Uniform => Some(SamplerTables::Uniform),
            PreparedKind::LinearTime => Some(SamplerTables::LinearTime),
            PreparedKind::Custom(_) => None,
            PreparedKind::Weighted(cs) => {
                Some(SamplerTables::Weighted { recency: cs.recency, span: cs.span, cdf: &cs.cdf })
            }
        }
    }

    /// Rebuilds a closed-form (table-free) prepared sampler — the import
    /// path for [`TransitionSampler::Uniform`] and
    /// [`TransitionSampler::LinearTime`], whose preparation is free.
    pub fn from_closed_form(
        bias: TransitionSampler,
        num_nodes: usize,
        num_edges: usize,
    ) -> Result<Self, String> {
        let kind = match bias {
            TransitionSampler::Uniform => PreparedKind::Uniform,
            TransitionSampler::LinearTime => PreparedKind::LinearTime,
            other => return Err(format!("{other:?} is not a closed-form sampler")),
        };
        Ok(Self { kind, stats: SamplerBuildStats::default(), num_nodes, num_edges })
    }

    /// Rebuilds a softmax-weighted prepared sampler for `g` from
    /// previously exported tables — the import path for a store file,
    /// taking [`Storage`] so mapped arrays are adopted zero-copy.
    ///
    /// The structural invariants the sampling hot path relies on are
    /// *checked*, not assumed: the row bounds must equal `g`'s CSR
    /// offsets, `cdf` must hold one weight per edge of `g`, and the span
    /// must be positive and finite. Any violation is an `Err` — never a
    /// panic later inside a walk.
    pub fn from_weighted_tables(t: WeightedTables, g: &TemporalGraph) -> Result<Self, String> {
        if !(t.span.is_finite() && t.span > 0.0) {
            return Err(format!("span must be positive and finite, got {}", t.span));
        }
        if t.cdf.len() != g.num_edges() {
            return Err(format!("cdf has {} weights, expected {}", t.cdf.len(), g.num_edges()));
        }
        let offsets = g.csr_parts().0;
        if t.rows.len() != offsets.len() {
            return Err(format!("cdf has {} row bounds, expected {}", t.rows.len(), offsets.len()));
        }
        if let Some(v) = t.rows.iter().zip(offsets).position(|(a, b)| a != b) {
            return Err(format!("cdf row bound {v} differs from the graph's CSR offset"));
        }
        let kind = PreparedKind::Weighted(CdfSampler {
            recency: t.recency,
            span: t.span,
            rows: t.rows,
            cdf: t.cdf,
        });
        let stats =
            SamplerBuildStats { build_time: Duration::ZERO, table_bytes: table_footprint(&kind) };
        Ok(Self { kind, stats, num_nodes: g.num_nodes(), num_edges: g.num_edges() })
    }
}

/// Direct evaluation of the softmax distribution of paper Eq. (1) over a
/// candidate-suffix timestamp slice — the executable reference the CDF
/// tables are verified against. With `recency` the exponent is negated
/// and shifted by the current time.
pub(crate) fn direct_softmax(
    times: &[Time],
    span: f64,
    rng: &mut WalkRng,
    recency: bool,
    now: Time,
) -> usize {
    debug_assert!(!times.is_empty());
    if times.len() == 1 {
        return 0;
    }
    // Numerically stable: subtract the max exponent before exponentiating.
    let base = if now.is_finite() { now } else { 0.0 };
    let exponent = |t: Time| -> f64 {
        if recency {
            -(t - base) / span
        } else {
            t / span
        }
    };
    let mut max_e = f64::NEG_INFINITY;
    for &t in times {
        max_e = max_e.max(exponent(t));
    }
    let mut total = 0.0;
    // Candidate sets are usually small (bounded by degree); two passes keep
    // this allocation-free.
    for &t in times {
        total += (exponent(t) - max_e).exp();
    }
    let target = rng.next_f64() * total;
    let mut acc = 0.0;
    for (i, &t) in times.iter().enumerate() {
        acc += (exponent(t) - max_e).exp();
        if target < acc {
            return i;
        }
    }
    times.len() - 1
}

/// Samples index `i ∈ 0..len` with probability proportional to `i + 1`
/// (candidates are time-sorted ascending, so the latest edge has the
/// highest rank) — CTDNE's linear temporal bias, computed in O(1) by
/// inverting the triangular CDF.
pub(crate) fn direct_linear(len: usize, rng: &mut WalkRng) -> usize {
    debug_assert!(len > 0);
    if len == 1 {
        return 0;
    }
    // CDF(i) = (i+1)(i+2)/2 over total len(len+1)/2; invert with sqrt.
    let total = (len * (len + 1) / 2) as f64;
    let target = rng.next_f64() * total;

    ((((8.0 * target + 1.0).sqrt() - 1.0) / 2.0).floor() as usize).min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{GraphBuilder, TemporalEdge};

    fn star(times: &[f64]) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for (i, &t) in times.iter().enumerate() {
            b = b.add_edge(TemporalEdge::new(0, i as NodeId + 1, t));
        }
        b.build()
    }

    #[test]
    fn uniform_and_linear_need_no_tables() {
        let g = star(&[0.1, 0.5, 0.9]);
        for s in [TransitionSampler::Uniform, TransitionSampler::LinearTime] {
            let p = s.prepare(&g);
            assert_eq!(p.stats().table_bytes, 0);
            assert!(p.matches_graph(&g));
        }
    }

    #[test]
    fn cdf_tables_cover_every_edge() {
        let g = tgraph::gen::erdos_renyi(40, 300, 3).build();
        let p = TransitionSampler::Softmax.prepare(&g);
        // One f64 per edge plus the n+1 segment starts.
        let expected = g.num_edges() * 8 + (g.num_nodes() + 1) * std::mem::size_of::<usize>();
        assert_eq!(p.stats().table_bytes, expected);
    }

    #[test]
    fn prepared_uniform_matches_direct_draws_exactly() {
        let g = star(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let p = TransitionSampler::Uniform.prepare(&g);
        let (_, times) = g.neighbor_slices(0);
        for lo in 0..times.len() {
            let mut a = WalkRng::new(7);
            let mut b = WalkRng::new(7);
            for _ in 0..100 {
                let x = p.sample(0, times, lo, f64::NEG_INFINITY, &mut a);
                let y = lo + b.next_bounded(times.len() - lo);
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn cdf_sample_stays_in_valid_suffix() {
        let g = star(&[0.05, 0.2, 0.21, 0.6, 0.61, 0.99]);
        for s in [TransitionSampler::Softmax, TransitionSampler::SoftmaxRecency] {
            let p = s.prepare(&g);
            let (_, times) = g.neighbor_slices(0);
            let mut rng = WalkRng::new(11);
            for lo in 0..times.len() {
                for _ in 0..500 {
                    let pick = p.sample(
                        0,
                        times,
                        lo,
                        times.get(lo.wrapping_sub(1)).copied().unwrap_or(f64::NEG_INFINITY),
                        &mut rng,
                    );
                    assert!((lo..times.len()).contains(&pick));
                }
            }
        }
    }

    #[test]
    fn singleton_suffix_draws_nothing_from_rng() {
        // Matches direct evaluation: a forced move must not consume RNG
        // state, or prepared and direct walks would diverge on every
        // degree-1 chain.
        let g = star(&[0.4]);
        for s in [
            TransitionSampler::Softmax,
            TransitionSampler::SoftmaxRecency,
            TransitionSampler::LinearTime,
        ] {
            let p = s.prepare(&g);
            let (_, times) = g.neighbor_slices(0);
            let mut rng = WalkRng::new(3);
            let before = rng.clone().next_u64();
            assert_eq!(p.sample(0, times, 0, 0.0, &mut rng), 0);
            assert_eq!(rng.next_u64(), before);
        }
    }

    #[test]
    fn custom_bias_is_invoked() {
        #[derive(Debug)]
        struct AlwaysLatest;
        impl TransitionBias for AlwaysLatest {
            fn sample(
                &self,
                _v: NodeId,
                times: &[Time],
                lo: usize,
                _now: Time,
                _rng: &mut WalkRng,
            ) -> usize {
                let _ = lo;
                times.len() - 1
            }
        }
        let g = star(&[0.1, 0.5, 0.9]);
        let p = PreparedSampler::custom(&g, Arc::new(AlwaysLatest));
        let (_, times) = g.neighbor_slices(0);
        let mut rng = WalkRng::new(1);
        assert_eq!(p.sample(0, times, 1, 0.0, &mut rng), 2);
        assert_eq!(p.stats().table_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "outside valid suffix")]
    fn custom_bias_escaping_suffix_is_caught() {
        #[derive(Debug)]
        struct Bad;
        impl TransitionBias for Bad {
            fn sample(&self, _: NodeId, _: &[Time], _: usize, _: Time, _: &mut WalkRng) -> usize {
                0
            }
        }
        let g = star(&[0.1, 0.9]);
        let p = PreparedSampler::custom(&g, Arc::new(Bad));
        let (_, times) = g.neighbor_slices(0);
        p.sample(0, times, 1, 0.0, &mut WalkRng::new(1));
    }

    #[test]
    fn cdf_distribution_tracks_analytic_softmax() {
        // 10k draws over a 4-candidate suffix; empirical frequencies must
        // match the closed-form Eq. (1) probabilities.
        let times = [0.0, 0.3, 0.6, 1.0];
        let g = star(&times);
        let span: f64 = 1.0;
        let p = TransitionSampler::Softmax.prepare(&g);
        let (_, seg) = g.neighbor_slices(0);
        let weights: Vec<f64> = times.iter().map(|&t| (t / span).exp()).collect();
        let total: f64 = weights.iter().sum();
        let mut counts = [0usize; 4];
        let mut rng = WalkRng::new(5);
        let draws = 10_000;
        for _ in 0..draws {
            counts[p.sample(0, seg, 0, f64::NEG_INFINITY, &mut rng)] += 1;
        }
        for i in 0..4 {
            let expect = weights[i] / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.02,
                "candidate {i}: empirical {got:.3} vs analytic {expect:.3}"
            );
        }
    }

    #[test]
    fn weighted_tables_must_take_their_rows_from_the_graph() {
        let g = tgraph::gen::preferential_attachment(200, 3, 5).undirected(true).build();
        let m = g.num_edges();
        let p = TransitionSampler::Softmax.prepare(&g);
        let Some(SamplerTables::Weighted { recency, span, cdf }) = p.export_tables() else {
            panic!("softmax exports weighted tables");
        };
        let offsets = g.csr_parts().0;
        let open = |rows: &[usize], cdf: &[f64]| {
            let t = WeightedTables {
                recency,
                span,
                rows: rows.to_vec().into(),
                cdf: cdf.to_vec().into(),
            };
            PreparedSampler::from_weighted_tables(t, &g)
        };
        let reopened = open(offsets, cdf).expect("the graph's own rows");
        assert_eq!(reopened.stats().table_bytes, p.stats().table_bytes);
        // Monotone, starting at 0 and ending at the payload length: the
        // right shape, but not `g`'s rows, so a walk would index past a
        // vertex's row.
        let mut forged = vec![0; offsets.len()];
        forged[offsets.len() - 1] = m;
        let err = open(&forged, cdf).unwrap_err();
        assert!(err.contains("row bound 1 differs"), "{err}");
        assert!(open(&offsets[1..], cdf).unwrap_err().contains("row bounds"));
        assert!(open(offsets, &cdf[1..]).unwrap_err().contains("weights"));
    }
}
