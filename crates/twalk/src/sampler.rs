//! Transition sampling: per-vertex tables behind the
//! [`TransitionSampler::prepare`] → [`PreparedSampler`] API.
//!
//! The paper's Eq. (1) softmax is the compute-heavy part of the walk
//! kernel: evaluated directly, every step exponentiates each candidate
//! timestamp (three passes over the temporally-valid suffix). But the
//! weights depend only on the edge timestamps and the graph-wide span `r`
//! — not on the walk state — so for a fixed graph they can be
//! precomputed *once*. Every vertex draws through one of two
//! [`SamplingMethod`]s, both from the same analytic distribution:
//!
//! * [`SamplingMethod::Cdf`] — per-segment cumulative-weight prefix sums;
//!   sampling any valid suffix `[lo..deg)` costs one subtraction (to
//!   rebase the CDF), one uniform draw, and one `partition_point` binary
//!   search: `O(log d)` over 8 bytes per edge. Every static vertex uses
//!   it (DESIGN.md §13.3 records why no `O(1)` alias table beats it).
//! * [`SamplingMethod::Rejection`] — bounded rejection sampling for the
//!   vertices a refresh names as churned under `DynamicGraph` ingest
//!   ([`TransitionSampler::prepare_churned`]): no tables at all, so
//!   nothing to rebuild when the segment changes. Segment-anchored
//!   weights lie in `[e^-1, 1]` (see below), so a constant envelope of 1
//!   accepts with probability ≥ e⁻¹ per attempt; after a bounded number
//!   of rejections an exact direct evaluation finishes the draw.
//!
//! Numerical stability comes from anchoring each vertex's weights at its
//! own segment extreme: softmax weights are `exp((t - t_seg_max) / r)`,
//! recency weights `exp(-(t - t_seg_min) / r)`. A segment's time range
//! never exceeds the global span `r`, so every stored weight lies in
//! `[e^-1, 1]` and the prefix sums are well conditioned. The recency
//! variant's dependence on the walk's current time cancels under
//! normalization (`exp(-(t - now)/r) = exp(-t/r) · exp(now/r)`, and the
//! second factor is constant across the candidate set), which is what
//! makes precomputation valid at all. The same bound is what gives the
//! rejection path its ≥ e⁻¹ acceptance rate.
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

/// The sampling method a vertex of a softmax-weighted sampler was
/// assigned at preparation (paper §IV-A1's transition probabilities;
/// DESIGN.md §13). Uniform and linear-time biases sample in closed form
/// and have no method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SamplingMethod {
    /// Inverse-CDF over per-segment prefix sums — `O(log d)` per draw,
    /// 8 bytes per edge. Every vertex not named as churned.
    Cdf = 0,
    /// Bounded rejection against a constant envelope — zero table bytes,
    /// expected ≤ e ≈ 2.72 attempts per draw. The vertices a refresh
    /// names as churned under streaming ingest.
    Rejection = 1,
}

impl SamplingMethod {
    /// The on-disk byte for this method (the `repr(u8)` discriminant).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Self::as_u8`], rejecting unknown bytes — the
    /// storage layer validates every method byte through this instead of
    /// transmuting, so a corrupt method map can never become an invalid
    /// enum value.
    pub fn from_u8(b: u8) -> Result<Self, String> {
        match b {
            0 => Ok(SamplingMethod::Cdf),
            1 => Ok(SamplingMethod::Rejection),
            other => Err(format!("invalid sampling-method byte {other}")),
        }
    }
}

/// Envelope attempts before a rejection draw falls back to exact direct
/// evaluation. Acceptance is ≥ e⁻¹ per attempt, so the fallback runs
/// with probability ≤ (1 − e⁻¹)¹⁶ ≈ 6·10⁻⁴.
const REJECTION_ATTEMPTS: usize = 16;

/// Cost and shape of building a [`PreparedSampler`]: wall-clock build
/// time, resident table size, and the per-method vertex split (all zeros
/// for table-free samplers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerBuildStats {
    /// Wall-clock time spent building the sampler.
    pub build_time: Duration,
    /// Bytes held by the precomputed tables (CDF + method map).
    pub table_bytes: usize,
    /// Vertices (with ≥ 1 out-edge) sampling through the CDF tables.
    pub cdf_vertices: usize,
    /// Vertices (with ≥ 1 out-edge) sampling by bounded rejection.
    pub rejection_vertices: usize,
}

/// A transition sampler bound to one graph, ready for `O(log d)`
/// sampling.
///
/// Built by [`TransitionSampler::prepare`] (or
/// [`TransitionSampler::prepare_churned`], or [`PreparedSampler::custom`])
/// and shared read-only across walk worker threads. The softmax variants
/// carry per-vertex CDF tables and method dispatch; uniform and
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
    /// Softmax-weighted bias through per-vertex method dispatch.
    Weighted(VertexSampler),
    /// User-supplied bias function.
    Custom(Arc<dyn TransitionBias>),
}

impl TransitionSampler {
    /// Builds the prepared form of this sampler for `g`: CDF tables for
    /// every vertex of the softmax variants (`O(|E|)` time), nothing for
    /// [`TransitionSampler::Uniform`] and [`TransitionSampler::LinearTime`].
    pub fn prepare(self, g: &TemporalGraph) -> PreparedSampler {
        self.prepare_churned(g, &[])
    }

    /// [`Self::prepare`], except that the softmax variants sample the
    /// `churned` vertices (e.g. `DynamicGraph::take_dirty`) by bounded
    /// rejection, so the next ingest invalidates no tables for them.
    /// Out-of-range ids are ignored. When `obs` is enabled, exports the
    /// per-method vertex split and table bytes as gauges.
    ///
    /// # Examples
    ///
    /// ```
    /// use twalk::{SamplingMethod, TransitionSampler};
    ///
    /// let g = tgraph::gen::preferential_attachment(500, 4, 7).undirected(true).build();
    /// let prepared = TransitionSampler::Softmax.prepare_churned(&g, &[3, 8]);
    /// assert_eq!(prepared.method_of(3), Some(SamplingMethod::Rejection));
    /// assert_eq!(prepared.method_of(4), Some(SamplingMethod::Cdf));
    /// assert_eq!(prepared.stats().rejection_vertices, 2);
    /// ```
    pub fn prepare_churned(self, g: &TemporalGraph, churned: &[NodeId]) -> PreparedSampler {
        let t0 = Instant::now();
        let (kind, counts) = match self {
            TransitionSampler::Uniform => (PreparedKind::Uniform, MethodCounts::default()),
            TransitionSampler::LinearTime => (PreparedKind::LinearTime, MethodCounts::default()),
            TransitionSampler::Softmax => {
                let (vs, c) = build_weighted(g, false, churned);
                (PreparedKind::Weighted(vs), c)
            }
            TransitionSampler::SoftmaxRecency => {
                let (vs, c) = build_weighted(g, true, churned);
                (PreparedKind::Weighted(vs), c)
            }
        };
        let stats = SamplerBuildStats {
            build_time: t0.elapsed(),
            table_bytes: table_footprint(&kind),
            cdf_vertices: counts.cdf,
            rejection_vertices: counts.rejection,
        };
        export_build_metrics(&stats);
        PreparedSampler { kind, stats, num_nodes: g.num_nodes(), num_edges: g.num_edges() }
    }
}

/// Assigns churned vertices to rejection and builds the CDF tables for
/// the rest.
fn build_weighted(
    g: &TemporalGraph,
    recency: bool,
    churned: &[NodeId],
) -> (VertexSampler, MethodCounts) {
    let span = g.time_span().max(f64::MIN_POSITIVE);
    let n = g.num_nodes();
    // No churned vertex keeps the compact layout: no method map.
    let mut methods: Option<Vec<SamplingMethod>> = None;
    for &v in churned.iter().filter(|&&v| (v as usize) < n) {
        methods.get_or_insert_with(|| vec![SamplingMethod::Cdf; n])[v as usize] =
            SamplingMethod::Rejection;
    }
    let need_cdf = methods.as_ref().is_none_or(|ms| ms.contains(&SamplingMethod::Cdf));
    // Built as plain Vecs, wrapped into Storage-backed tables at the end
    // (the mapped variant only enters through the import path).
    let mut cdf_t: Option<(Vec<usize>, Vec<f64>)> = need_cdf.then(|| {
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        (starts, Vec::new())
    });
    let mut counts = MethodCounts::default();
    for v in 0..n as NodeId {
        let (_, times) = g.neighbor_slices(v);
        let m = methods.as_ref().map_or(SamplingMethod::Cdf, |ms| ms[v as usize]);
        if !times.is_empty() {
            match m {
                SamplingMethod::Cdf => {
                    counts.cdf += 1;
                    // Segments are time-sorted ascending, so the anchor is an end.
                    let anchor = if recency { times[0] } else { times[times.len() - 1] };
                    let (_, cdf) = cdf_t.as_mut().expect("cdf tables allocated");
                    let mut acc = 0.0;
                    for &t in times {
                        let e = if recency { -(t - anchor) / span } else { (t - anchor) / span };
                        acc += e.exp();
                        cdf.push(acc);
                    }
                }
                SamplingMethod::Rejection => counts.rejection += 1,
            }
        }
        if let Some((starts, cdf)) = &mut cdf_t {
            starts.push(cdf.len());
        }
    }
    let cdf = cdf_t.map(|(starts, cdf)| CdfTables { starts: starts.into(), cdf: cdf.into() });
    (VertexSampler { recency, span, methods, cdf }, counts)
}

/// The method-dispatched sampling layer for the softmax-weighted biases:
/// per-vertex method assignment plus the CDF tables. [`PreparedSampler`]
/// is a facade over this for the weighted kinds.
#[derive(Debug)]
struct VertexSampler {
    recency: bool,
    span: f64,
    /// `None` means every vertex uses the CDF tables — the compact
    /// layout with no per-vertex method map.
    methods: Option<Vec<SamplingMethod>>,
    /// `None` when every vertex samples by rejection.
    cdf: Option<CdfTables>,
}

/// Per-segment cumulative weights aligned with CSR edge order;
/// `starts[v]..starts[v + 1]` is vertex `v`'s slice of `cdf`. Backed by
/// [`Storage`] so a mapped store file can lend the arrays zero-copy.
#[derive(Debug)]
struct CdfTables {
    starts: Storage<usize>,
    cdf: Storage<f64>,
}

impl VertexSampler {
    /// The sampling method vertex `v` was assigned at build time.
    #[inline]
    fn method_of(&self, v: NodeId) -> SamplingMethod {
        self.methods.as_ref().map_or(SamplingMethod::Cdf, |ms| ms[v as usize])
    }

    /// Samples an absolute segment index in `lo..times.len()`; the caller
    /// has already handled the singleton suffix.
    #[inline]
    fn sample(&self, v: NodeId, times: &[Time], lo: usize, rng: &mut WalkRng) -> usize {
        match self.method_of(v) {
            SamplingMethod::Cdf => self.sample_cdf(v, times, lo, rng),
            SamplingMethod::Rejection => self.sample_rejection(times, lo, rng),
        }
    }

    /// Inverse-CDF draw: rebase the cumulative weights onto the valid
    /// suffix (one subtraction), one uniform draw, one binary search.
    /// `partition_point` mirrors direct evaluation's strict
    /// `target < acc` acceptance.
    #[inline]
    fn sample_cdf(&self, v: NodeId, times: &[Time], lo: usize, rng: &mut WalkRng) -> usize {
        let c = self.cdf.as_ref().expect("cdf tables allocated");
        let seg = &c.cdf[c.starts[v as usize]..c.starts[v as usize + 1]];
        debug_assert_eq!(seg.len(), times.len());
        let base = if lo == 0 { 0.0 } else { seg[lo - 1] };
        let total = seg[times.len() - 1] - base;
        let target = base + rng.next_f64() * total;
        let pick = lo + seg[lo..].partition_point(|&c| c <= target);
        // Float round-off can push `target` past the last cumulative
        // weight; clamp like direct evaluation does.
        pick.min(times.len() - 1)
    }

    /// Bounded rejection against a constant envelope of 1: propose
    /// uniformly over the suffix, accept with the segment-anchored weight
    /// (∈ [e⁻¹, 1]). Exact direct evaluation finishes the rare draw that
    /// exhausts its attempts, keeping the mixture exact.
    #[inline]
    fn sample_rejection(&self, times: &[Time], lo: usize, rng: &mut WalkRng) -> usize {
        let len = times.len() - lo;
        let anchor = if self.recency { times[0] } else { times[times.len() - 1] };
        for _ in 0..REJECTION_ATTEMPTS {
            let j = lo + rng.next_bounded(len);
            let e = if self.recency {
                -(times[j] - anchor) / self.span
            } else {
                (times[j] - anchor) / self.span
            };
            if rng.next_f64() < e.exp() {
                return j;
            }
        }
        direct_weighted_suffix(times, lo, self.span, self.recency, rng)
    }

    /// Warms the *index* loads [`Self::prefetch`] depends on: the
    /// `starts[v]`/`starts[v + 1]` bounds of `v`'s table slice and the
    /// per-vertex method byte. A table prefetch cannot be issued until
    /// those resolve, so the engines call this one pipeline stage
    /// earlier — the sampler-side twin of the graph's CSR-offsets
    /// prefetch.
    #[inline]
    fn prefetch_offsets(&self, v: NodeId) {
        if let Some(m) = &self.methods {
            tgraph::prefetch::prefetch_read(m.as_ptr().wrapping_add(v as usize));
        }
        if let Some(c) = &self.cdf {
            let p = c.starts.as_ptr();
            tgraph::prefetch::prefetch_read(p.wrapping_add(v as usize));
            tgraph::prefetch::prefetch_read(p.wrapping_add(v as usize + 1));
        }
    }

    /// Hints the CPU to pull `v`'s table slice toward L1: the first,
    /// middle, and last cache lines of the prefix sums (the first
    /// positions the binary search inspects). Rejection vertices read
    /// only the times slice, which the graph-side prefetch already covers.
    #[inline]
    fn prefetch(&self, v: NodeId) {
        if let (SamplingMethod::Cdf, Some(c)) = (self.method_of(v), &self.cdf) {
            probe_lines(&c.cdf, c.starts[v as usize], c.starts[v as usize + 1]);
        }
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

/// Exact direct evaluation of the segment-anchored weight distribution
/// over `times[lo..]` — the fallback that bounds the rejection retry
/// loop, and distribution-identical to the CDF tables (same anchor, same
/// weights, one uniform draw).
fn direct_weighted_suffix(
    times: &[Time],
    lo: usize,
    span: f64,
    recency: bool,
    rng: &mut WalkRng,
) -> usize {
    let anchor = if recency { times[0] } else { times[times.len() - 1] };
    let weight = |t: Time| -> f64 {
        let e = if recency { -(t - anchor) / span } else { (t - anchor) / span };
        e.exp()
    };
    let mut total = 0.0;
    for &t in &times[lo..] {
        total += weight(t);
    }
    let target = rng.next_f64() * total;
    let mut acc = 0.0;
    for (i, &t) in times[lo..].iter().enumerate() {
        acc += weight(t);
        if target < acc {
            return lo + i;
        }
    }
    times.len() - 1
}

#[derive(Debug, Default, Clone, Copy)]
struct MethodCounts {
    cdf: usize,
    rejection: usize,
}

/// Resident bytes of a prepared kind's tables.
fn table_footprint(kind: &PreparedKind) -> usize {
    match kind {
        PreparedKind::Weighted(vs) => {
            let usz = std::mem::size_of::<usize>();
            let cdf = vs.cdf.as_ref().map_or(0, |c| c.starts.len() * usz + c.cdf.len() * 8);
            let map =
                vs.methods.as_ref().map_or(0, |m| m.len() * std::mem::size_of::<SamplingMethod>());
            cdf + map
        }
        _ => 0,
    }
}

/// Exports the build's method split to `/metrics` (no-op when obs is
/// disabled).
fn export_build_metrics(stats: &SamplerBuildStats) {
    let rec = obs::Recorder::global();
    if !rec.is_enabled() {
        return;
    }
    rec.gauge("twalk_sampler_vertices{method=\"cdf\"}").set(stats.cdf_vertices as i64);
    rec.gauge("twalk_sampler_vertices{method=\"rejection\"}").set(stats.rejection_vertices as i64);
    rec.gauge("twalk_sampler_table_bytes").set(stats.table_bytes as i64);
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

    /// The per-vertex sampling method for the weighted kinds, `None` for
    /// closed-form and custom samplers (which have no method dispatch).
    #[inline]
    pub fn method_of(&self, v: NodeId) -> Option<SamplingMethod> {
        match &self.kind {
            PreparedKind::Weighted(vs) => Some(vs.method_of(v)),
            _ => None,
        }
    }

    /// Warms the table-index entries (`starts` bounds, method byte) that
    /// [`Self::prefetch`] must read before it can compute table-line
    /// addresses — the sampler half of the ring's CSR-offsets stage.
    /// Prefetches never fault, so no bounds check. A no-op for
    /// table-free samplers.
    #[inline]
    pub fn prefetch_offsets(&self, v: NodeId) {
        if let PreparedKind::Weighted(vs) = &self.kind {
            vs.prefetch_offsets(v);
        }
    }

    /// Hints the CPU to pull `v`'s table slice toward L1 — the sampler
    /// half of the interleaved ring's segment prefetch. A
    /// no-op for table-free samplers and methods.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the prepared graph.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        if let PreparedKind::Weighted(vs) = &self.kind {
            vs.prefetch(v);
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
            PreparedKind::Weighted(vs) => {
                // A forced move must not consume RNG state, or prepared
                // and direct walks would diverge on every degree-1 chain.
                if len == 1 {
                    return lo;
                }
                vs.sample(v, times, lo, rng)
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
    /// Softmax-weighted sampling with per-vertex method dispatch.
    Weighted {
        /// Recency variant (`true` for [`TransitionSampler::SoftmaxRecency`]).
        recency: bool,
        /// The graph-wide span `r` the weights were anchored with.
        span: f64,
        /// Per-vertex method map; `None` is the compact all-CDF layout.
        methods: Option<&'a [SamplingMethod]>,
        /// CDF `(starts, cumulative_weights)`, if any vertex uses CDF.
        cdf: Option<(&'a [usize], &'a [f64])>,
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
    /// Per-vertex method map; `None` is the compact all-CDF layout.
    pub methods: Option<Vec<SamplingMethod>>,
    /// CDF `(starts, cumulative_weights)`.
    pub cdf: Option<(Storage<usize>, Storage<f64>)>,
}

/// Checks the CDF `starts` array against its payload: `n + 1` entries,
/// starting at 0, nondecreasing, ending exactly at `payload_len`.
fn check_starts(starts: &[usize], n: usize, payload_len: usize) -> Result<(), String> {
    if starts.len() != n + 1 {
        return Err(format!("cdf starts has {} entries, expected {}", starts.len(), n + 1));
    }
    if starts[0] != 0 {
        return Err(format!("cdf starts[0] is {}, expected 0", starts[0]));
    }
    if let Some(v) = starts.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("cdf starts decrease at vertex {v}"));
    }
    if starts[n] != payload_len {
        return Err(format!("cdf starts end at {}, expected {payload_len}", starts[n]));
    }
    Ok(())
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
            PreparedKind::Weighted(vs) => Some(SamplerTables::Weighted {
                recency: vs.recency,
                span: vs.span,
                methods: vs.methods.as_deref(),
                cdf: vs.cdf.as_ref().map(|c| (&c.starts[..], &c.cdf[..])),
            }),
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

    /// Rebuilds a softmax-weighted prepared sampler from previously
    /// exported tables — the import path for a store file, taking
    /// [`Storage`] so mapped arrays are adopted zero-copy.
    ///
    /// The structural invariants the sampling hot path relies on are
    /// *checked*, not assumed: `starts` arrays must have `num_nodes + 1`
    /// monotone entries ending at their payload length, the method map
    /// (when present) must cover every vertex, CDF tables must exist if
    /// any vertex samples through them, and the span must be positive and
    /// finite. Any violation is an `Err` — never a panic later inside a
    /// walk.
    ///
    /// `counts` carries the build-time per-method vertex split
    /// (`cdf`, `rejection`) for [`SamplerBuildStats`]; byte accounting is
    /// recomputed from the tables themselves.
    pub fn from_weighted_tables(
        t: WeightedTables,
        num_nodes: usize,
        num_edges: usize,
        counts: (usize, usize),
    ) -> Result<Self, String> {
        if !(t.span.is_finite() && t.span > 0.0) {
            return Err(format!("span must be positive and finite, got {}", t.span));
        }
        if let Some(ms) = &t.methods {
            if ms.len() != num_nodes {
                return Err(format!("method map has {} entries, expected {num_nodes}", ms.len()));
            }
            if t.cdf.is_none() {
                if let Some(v) = ms.iter().position(|&m| m == SamplingMethod::Cdf) {
                    return Err(format!("vertex {v} needs CDF tables but none are present"));
                }
            }
        } else if t.cdf.is_none() {
            return Err("compact layout (no method map) requires CDF tables".into());
        }
        if let Some((starts, cdf)) = &t.cdf {
            check_starts(starts, num_nodes, cdf.len())?;
        }
        let vs = VertexSampler {
            recency: t.recency,
            span: t.span,
            methods: t.methods,
            cdf: t.cdf.map(|(starts, cdf)| CdfTables { starts, cdf }),
        };
        let kind = PreparedKind::Weighted(vs);
        let stats = SamplerBuildStats {
            build_time: Duration::ZERO,
            table_bytes: table_footprint(&kind),
            cdf_vertices: counts.0,
            rejection_vertices: counts.1,
        };
        Ok(Self { kind, stats, num_nodes, num_edges })
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

    /// Two hubs (vertex 0 with 48 edges, vertex 1 with 16) plus the leaf
    /// tail.
    fn two_hubs() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let mut leaf = 2u32;
        for i in 0..48 {
            b = b.add_edge(TemporalEdge::new(0, leaf, i as f64 / 48.0));
            leaf += 1;
        }
        for i in 0..16 {
            b = b.add_edge(TemporalEdge::new(1, leaf, i as f64 / 16.0));
            leaf += 1;
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
            assert_eq!(p.method_of(0), None);
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
        // The forced-move rule is method-independent: rejection vertices
        // must hold it too.
        for s in [TransitionSampler::Softmax, TransitionSampler::SoftmaxRecency] {
            let p = s.prepare_churned(&g, &[0]);
            assert_eq!(p.method_of(0), Some(SamplingMethod::Rejection));
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
    fn churning_nothing_keeps_the_compact_all_cdf_layout() {
        let g = two_hubs();
        let plain = TransitionSampler::Softmax.prepare(&g);
        // No churned id is in range, so no vertex leaves the CDF and no
        // method map is built.
        let churned = TransitionSampler::Softmax.prepare_churned(&g, &[9_999]);
        for p in [&plain, &churned] {
            let s = p.stats();
            assert_eq!(s.table_bytes, plain.stats().table_bytes);
            assert_eq!((s.cdf_vertices, s.rejection_vertices), (2, 0));
            assert_eq!(p.method_of(0), Some(SamplingMethod::Cdf));
        }
        // Same tables ⇒ same draws from the same stream.
        let (_, times) = g.neighbor_slices(0);
        let (mut a, mut b) = (WalkRng::new(17), WalkRng::new(17));
        for _ in 0..200 {
            assert_eq!(
                plain.sample(0, times, 0, f64::NEG_INFINITY, &mut a),
                churned.sample(0, times, 0, f64::NEG_INFINITY, &mut b)
            );
        }
    }

    #[test]
    fn churned_vertices_sample_by_rejection() {
        let g = two_hubs();
        // The out-of-range id is ignored.
        let p = TransitionSampler::SoftmaxRecency.prepare_churned(&g, &[0, 9_999]);
        assert_eq!(p.method_of(0), Some(SamplingMethod::Rejection));
        assert_eq!(p.method_of(1), Some(SamplingMethod::Cdf));
        let s = p.stats();
        assert_eq!((s.cdf_vertices, s.rejection_vertices), (1, 1));
    }

    #[test]
    fn churning_every_vertex_builds_no_tables_beyond_the_method_map() {
        let g = two_hubs();
        let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let p = TransitionSampler::Softmax.prepare_churned(&g, &all);
        let s = p.stats();
        assert_eq!(s.table_bytes, g.num_nodes() * std::mem::size_of::<SamplingMethod>());
        assert_eq!(s.rejection_vertices, 2);
        assert_eq!(s.cdf_vertices, 0);
    }

    #[test]
    fn rejection_tracks_the_analytic_distribution() {
        let times: Vec<f64> = (0..32).map(|i| i as f64 / 31.0).collect();
        let g = star(&times);
        let deg = times.len();
        for (recency, bias) in
            [(false, TransitionSampler::Softmax), (true, TransitionSampler::SoftmaxRecency)]
        {
            let anchor = if recency { times[0] } else { times[deg - 1] };
            let p = bias.prepare_churned(&g, &[0]);
            assert_eq!(p.method_of(0), Some(SamplingMethod::Rejection));
            let (_, seg) = g.neighbor_slices(0);
            for lo in [0usize, deg / 3] {
                let w: Vec<f64> = times[lo..]
                    .iter()
                    .map(|&t| {
                        let e = if recency { -(t - anchor) } else { t - anchor };
                        e.exp() // span is 1.0 for this star
                    })
                    .collect();
                let total: f64 = w.iter().sum();
                let mut counts = vec![0usize; deg - lo];
                let mut rng = WalkRng::new(23);
                let draws = 30_000;
                for _ in 0..draws {
                    let pick = p.sample(0, seg, lo, f64::NEG_INFINITY, &mut rng);
                    assert!((lo..deg).contains(&pick), "rejection escaped suffix");
                    counts[pick - lo] += 1;
                }
                for i in 0..deg - lo {
                    let expect = w[i] / total;
                    let got = counts[i] as f64 / draws as f64;
                    assert!(
                        (got - expect).abs() < 0.015,
                        "{bias:?} lo={lo} bin {i}: {got:.4} vs {expect:.4}"
                    );
                }
            }
        }
    }
}
