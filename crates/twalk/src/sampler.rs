//! Transition sampling: per-vertex method-dispatched tables behind the
//! [`SamplerBuilder`] → [`VertexSampler`] → [`PreparedSampler`] API.
//!
//! The paper's Eq. (1) softmax is the compute-heavy part of the walk
//! kernel: evaluated directly, every step exponentiates each candidate
//! timestamp (three passes over the temporally-valid suffix). But the
//! weights depend only on the edge timestamps and the graph-wide span `r`
//! — not on the walk state — so for a fixed graph they can be
//! precomputed *once*. How they are best precomputed depends on the
//! vertex, which is why preparation assigns a [`SamplingMethod`] per
//! vertex (FlexiWalker-style runtime adaptation):
//!
//! * [`SamplingMethod::Cdf`] — per-segment cumulative-weight prefix sums;
//!   sampling any valid suffix `[lo..deg)` costs one subtraction (to
//!   rebase the CDF), one uniform draw, and one `partition_point` binary
//!   search: `O(log d)`. The default, and the only method whose RNG draw
//!   pattern is pinned by the bit-compat tests.
//! * [`SamplingMethod::Alias`] — Vose alias tables for high-degree static
//!   vertices: `O(1)` per draw (one bounded draw + one uniform) instead
//!   of `O(log d)`, at 1.5× the table bytes (12 vs 8 per edge). Suffix
//!   draws (`lo > 0`) condition full-table draws on landing in the
//!   suffix, with an exact direct-evaluation fallback after a bounded
//!   number of attempts.
//! * [`SamplingMethod::Rejection`] — bounded rejection sampling for
//!   vertices that churn under `DynamicGraph` ingest: no tables at all,
//!   so nothing to rebuild when the segment changes. Segment-anchored
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
//! [`SamplerBuilder`] is the entry point: bias × method policy × memory
//! budget × churn set, built once per graph into a [`PreparedSampler`]
//! that is shared read-only across worker threads and reusable across
//! [`crate::generate_walks_prepared`] and
//! [`crate::generate_walks_from_prepared`] calls on the same graph.
//! [`TransitionSampler::prepare`] remains as a thin all-CDF wrapper so
//! existing call sites keep their exact table layout and draw pattern.
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

/// Per-vertex sampling method for the softmax-weighted biases
/// (paper §IV-A1's transition probabilities; DESIGN.md §13's policy).
///
/// `Auto` is a *policy*, resolved per vertex at build time; the other
/// three force one method for every vertex. Uniform and linear-time
/// biases sample in closed form and ignore the method entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum SamplingMethod {
    /// Resolve per vertex: churned vertices take [`SamplingMethod::Rejection`],
    /// static vertices with degree ≥ the builder's threshold take
    /// [`SamplingMethod::Alias`] (hub-first under a memory budget), and
    /// everything else keeps [`SamplingMethod::Cdf`].
    #[default]
    Auto = 0,
    /// Inverse-CDF over per-segment prefix sums — `O(log d)` per draw,
    /// 8 bytes per edge. The bit-compat reference path.
    Cdf = 1,
    /// Vose alias table — `O(1)` per draw, 12 bytes per edge. Suffix
    /// draws condition on the valid range with an exact fallback.
    Alias = 2,
    /// Bounded rejection against a constant envelope — zero table bytes,
    /// expected ≤ e ≈ 2.72 attempts per draw. The choice for vertices
    /// whose segments churn under streaming ingest.
    Rejection = 3,
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
            0 => Ok(SamplingMethod::Auto),
            1 => Ok(SamplingMethod::Cdf),
            2 => Ok(SamplingMethod::Alias),
            3 => Ok(SamplingMethod::Rejection),
            other => Err(format!("invalid sampling-method byte {other}")),
        }
    }
}

impl std::fmt::Display for SamplingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SamplingMethod::Auto => "auto",
            SamplingMethod::Cdf => "cdf",
            SamplingMethod::Alias => "alias",
            SamplingMethod::Rejection => "rejection",
        })
    }
}

impl std::str::FromStr for SamplingMethod {
    type Err = String;

    /// Parses the CLI spelling: `auto`, `cdf`, `alias`, `rejection`.
    /// Normalized like every other enum parser here (trim, lowercase,
    /// `_` → `-`); anything else is rejected with the full list of valid
    /// values.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match crate::config::normalize(s).as_str() {
            "auto" => Ok(SamplingMethod::Auto),
            "cdf" => Ok(SamplingMethod::Cdf),
            "alias" => Ok(SamplingMethod::Alias),
            "rejection" => Ok(SamplingMethod::Rejection),
            _ => Err(format!(
                "unknown sampling method {s:?}: valid values are auto, cdf, alias, rejection"
            )),
        }
    }
}

/// Default degree at or above which [`SamplingMethod::Auto`] promotes a
/// static vertex to an alias table. Below this the CDF binary search is
/// ≤ 6 well-predicted probes over at most two cache lines — the alias
/// table's extra 4 bytes/edge buy nothing.
pub const DEFAULT_ALIAS_DEGREE: usize = 64;

/// Alias-table bytes per edge (`f64` probability + `u32` alias index) —
/// the unit the builder's memory budget is accounted in.
const ALIAS_ENTRY_BYTES: usize = 12;

/// Full-table attempts before an alias suffix draw (`lo > 0`) falls back
/// to exact direct evaluation. Suffix draws appear mid-walk where the
/// suffix is usually most of the segment, so a handful of attempts almost
/// always lands.
const ALIAS_SUFFIX_ATTEMPTS: usize = 8;

/// Envelope attempts before a rejection draw falls back to exact direct
/// evaluation. Acceptance is ≥ e⁻¹ per attempt, so the fallback runs
/// with probability ≤ (1 − e⁻¹)¹⁶ ≈ 6·10⁻⁴.
const REJECTION_ATTEMPTS: usize = 16;

/// Cost and shape of building a [`PreparedSampler`]: wall-clock build
/// time, resident table size, and the per-method vertex split the build
/// policy settled on (all zeros for table-free samplers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplerBuildStats {
    /// Wall-clock time spent building the sampler.
    pub build_time: Duration,
    /// Bytes held by the precomputed tables (CDF + alias + method map).
    pub table_bytes: usize,
    /// Vertices (with ≥ 1 out-edge) sampling through the CDF tables.
    pub cdf_vertices: usize,
    /// Vertices (with ≥ 1 out-edge) sampling through alias tables.
    pub alias_vertices: usize,
    /// Vertices (with ≥ 1 out-edge) sampling by bounded rejection.
    pub rejection_vertices: usize,
    /// Bytes held by the alias tables alone (subset of `table_bytes`).
    pub alias_bytes: usize,
}

/// A transition sampler bound to one graph, ready for `O(log d)`-or-better
/// sampling.
///
/// Built by [`SamplerBuilder::build`] (or the [`TransitionSampler::prepare`]
/// compatibility wrapper, or [`PreparedSampler::custom`]) and shared
/// read-only across walk worker threads. The softmax variants carry a
/// method-dispatched [`VertexSampler`]; uniform and linear-time sampling
/// need no tables and keep the exact RNG draw pattern of direct
/// evaluation.
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

/// Builds a [`PreparedSampler`]: transition bias × per-vertex method
/// policy × alias memory budget × churn set.
///
/// The method policy only affects the softmax-weighted biases
/// ([`TransitionSampler::Softmax`] / [`TransitionSampler::SoftmaxRecency`]);
/// uniform and linear-time biases sample in closed form regardless.
///
/// # Examples
///
/// ```
/// use twalk::{SamplerBuilder, SamplingMethod, TransitionSampler};
///
/// let g = tgraph::gen::preferential_attachment(500, 4, 7).undirected(true).build();
/// let prepared = SamplerBuilder::new(TransitionSampler::Softmax)
///     .method(SamplingMethod::Auto)
///     .alias_degree_threshold(32)
///     .build(&g);
/// let s = prepared.stats();
/// // The PA hubs crossed the threshold and got O(1) alias tables.
/// assert!(s.alias_vertices > 0 && s.cdf_vertices > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SamplerBuilder {
    bias: TransitionSampler,
    method: SamplingMethod,
    alias_degree: usize,
    alias_budget: Option<usize>,
    churned: Vec<NodeId>,
}

impl SamplerBuilder {
    /// Starts a builder for `bias` with the [`SamplingMethod::Auto`]
    /// policy, the default alias degree threshold, and no memory budget.
    pub fn new(bias: TransitionSampler) -> Self {
        Self {
            bias,
            method: SamplingMethod::Auto,
            alias_degree: DEFAULT_ALIAS_DEGREE,
            alias_budget: None,
            churned: Vec::new(),
        }
    }

    /// Sets the method policy ([`SamplingMethod::Auto`] resolves per
    /// vertex; the rest force one method for every vertex).
    #[must_use]
    pub fn method(mut self, method: SamplingMethod) -> Self {
        self.method = method;
        self
    }

    /// Degree at or above which [`SamplingMethod::Auto`] promotes a
    /// static vertex to an alias table.
    #[must_use]
    pub fn alias_degree_threshold(mut self, degree: usize) -> Self {
        self.alias_degree = degree;
        self
    }

    /// Caps the alias tables' per-edge payload (12 bytes/edge) under
    /// [`SamplingMethod::Auto`]: candidates are admitted hub-first
    /// (descending degree, ties by vertex id) until the budget is spent;
    /// the rest keep the CDF tables.
    #[must_use]
    pub fn alias_budget_bytes(mut self, bytes: usize) -> Self {
        self.alias_budget = Some(bytes);
        self
    }

    /// Marks vertices whose segments churn under streaming ingest (e.g.
    /// `DynamicGraph::take_dirty`). Under [`SamplingMethod::Auto`] they
    /// sample by bounded rejection, so the next ingest invalidates no
    /// tables for them. Extends across calls; out-of-range ids are
    /// ignored at build time.
    #[must_use]
    pub fn churned(mut self, vertices: impl IntoIterator<Item = NodeId>) -> Self {
        self.churned.extend(vertices);
        self
    }

    /// Builds the prepared sampler for `g`.
    ///
    /// For the softmax variants this precomputes per-vertex tables
    /// (`O(|E|)` time); for [`TransitionSampler::Uniform`] and
    /// [`TransitionSampler::LinearTime`] it is free. When `obs` is
    /// enabled, exports the per-method vertex split and table bytes as
    /// gauges.
    pub fn build(&self, g: &TemporalGraph) -> PreparedSampler {
        let t0 = Instant::now();
        let (kind, counts) = match self.bias {
            TransitionSampler::Uniform => (PreparedKind::Uniform, MethodCounts::default()),
            TransitionSampler::LinearTime => (PreparedKind::LinearTime, MethodCounts::default()),
            TransitionSampler::Softmax => {
                let (vs, c) = self.build_weighted(g, false);
                (PreparedKind::Weighted(vs), c)
            }
            TransitionSampler::SoftmaxRecency => {
                let (vs, c) = self.build_weighted(g, true);
                (PreparedKind::Weighted(vs), c)
            }
        };
        let (table_bytes, alias_bytes) = table_footprint(&kind);
        let stats = SamplerBuildStats {
            build_time: t0.elapsed(),
            table_bytes,
            cdf_vertices: counts.cdf,
            alias_vertices: counts.alias,
            rejection_vertices: counts.rejection,
            alias_bytes,
        };
        export_build_metrics(&stats);
        PreparedSampler { kind, stats, num_nodes: g.num_nodes(), num_edges: g.num_edges() }
    }

    /// Resolves the per-vertex method assignment and builds the tables.
    fn build_weighted(&self, g: &TemporalGraph, recency: bool) -> (VertexSampler, MethodCounts) {
        let span = g.time_span().max(f64::MIN_POSITIVE);
        let n = g.num_nodes();
        let methods: Option<Vec<SamplingMethod>> = match self.method {
            SamplingMethod::Cdf => None,
            SamplingMethod::Alias => Some(vec![SamplingMethod::Alias; n]),
            SamplingMethod::Rejection => Some(vec![SamplingMethod::Rejection; n]),
            SamplingMethod::Auto => {
                let assigned = self.assign_auto(g);
                // A uniformly-CDF assignment collapses to the compact
                // legacy layout: no method map, no alias arrays.
                if assigned.iter().all(|&m| m == SamplingMethod::Cdf) {
                    None
                } else {
                    Some(assigned)
                }
            }
        };
        let need_cdf = methods.as_ref().is_none_or(|ms| ms.contains(&SamplingMethod::Cdf));
        let need_alias = methods.as_ref().is_some_and(|ms| ms.contains(&SamplingMethod::Alias));
        // Built as plain Vecs, wrapped into Storage-backed tables at the
        // end (the mapped variant only enters through the import path).
        let mut cdf_t: Option<(Vec<usize>, Vec<f64>)> = need_cdf.then(|| {
            let mut starts = Vec::with_capacity(n + 1);
            starts.push(0);
            (starts, Vec::new())
        });
        let mut alias_t: Option<(Vec<usize>, Vec<f64>, Vec<u32>)> = need_alias.then(|| {
            let mut starts = Vec::with_capacity(n + 1);
            starts.push(0);
            (starts, Vec::new(), Vec::new())
        });
        let mut counts = MethodCounts::default();
        let mut wbuf: Vec<f64> = Vec::new();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for v in 0..n as NodeId {
            let (_, times) = g.neighbor_slices(v);
            let m = methods.as_ref().map_or(SamplingMethod::Cdf, |ms| ms[v as usize]);
            if !times.is_empty() {
                // Segments are time-sorted ascending, so the anchor is an end.
                let anchor = if recency { times[0] } else { times[times.len() - 1] };
                let weight = |t: Time| -> f64 {
                    let e = if recency { -(t - anchor) / span } else { (t - anchor) / span };
                    e.exp()
                };
                match m {
                    SamplingMethod::Cdf => {
                        counts.cdf += 1;
                        let (_, cdf) = cdf_t.as_mut().expect("cdf tables allocated");
                        let mut acc = 0.0;
                        for &t in times {
                            acc += weight(t);
                            cdf.push(acc);
                        }
                    }
                    SamplingMethod::Alias => {
                        counts.alias += 1;
                        wbuf.clear();
                        wbuf.extend(times.iter().map(|&t| weight(t)));
                        let (_, prob, alias) = alias_t.as_mut().expect("alias tables allocated");
                        push_vose(&wbuf, prob, alias, &mut small, &mut large);
                    }
                    SamplingMethod::Rejection => counts.rejection += 1,
                    SamplingMethod::Auto => unreachable!("Auto is resolved before table build"),
                }
            }
            if let Some((starts, cdf)) = &mut cdf_t {
                starts.push(cdf.len());
            }
            if let Some((starts, prob, _)) = &mut alias_t {
                starts.push(prob.len());
            }
        }
        let cdf = cdf_t.map(|(starts, cdf)| CdfTables { starts: starts.into(), cdf: cdf.into() });
        let alias = alias_t.map(|(starts, prob, alias)| AliasTables {
            starts: starts.into(),
            prob: prob.into(),
            alias: alias.into(),
        });
        (VertexSampler { recency, span, methods, cdf, alias }, counts)
    }

    /// The `Auto` policy: churned → rejection; static degree ≥ threshold
    /// → alias, hub-first under the memory budget; everything else CDF.
    fn assign_auto(&self, g: &TemporalGraph) -> Vec<SamplingMethod> {
        let n = g.num_nodes();
        let mut ms = vec![SamplingMethod::Cdf; n];
        for &v in &self.churned {
            if (v as usize) < n {
                ms[v as usize] = SamplingMethod::Rejection;
            }
        }
        // Degree-1 segments never reach method dispatch (a singleton
        // suffix is a forced move), so 2 is the floor worth a table.
        let threshold = self.alias_degree.max(2);
        let mut candidates: Vec<(usize, NodeId)> = (0..n as NodeId)
            .filter(|&v| ms[v as usize] == SamplingMethod::Cdf)
            .map(|v| (g.neighbor_slices(v).1.len(), v))
            .filter(|&(d, _)| d >= threshold)
            .collect();
        match self.alias_budget {
            None => {
                for &(_, v) in &candidates {
                    ms[v as usize] = SamplingMethod::Alias;
                }
            }
            Some(budget) => {
                candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut spent = 0usize;
                for &(d, v) in &candidates {
                    let bytes = d * ALIAS_ENTRY_BYTES;
                    if spent + bytes <= budget {
                        spent += bytes;
                        ms[v as usize] = SamplingMethod::Alias;
                    }
                }
            }
        }
        ms
    }
}

/// The method-dispatched sampling layer for the softmax-weighted biases:
/// per-vertex method assignment plus whichever tables the assignment
/// needs. [`PreparedSampler`] is a facade over this for the weighted
/// kinds.
#[derive(Debug)]
pub struct VertexSampler {
    recency: bool,
    span: f64,
    /// `None` means every vertex uses the CDF tables — the compact
    /// legacy layout with no per-vertex method map.
    methods: Option<Vec<SamplingMethod>>,
    cdf: Option<CdfTables>,
    alias: Option<AliasTables>,
}

/// Per-segment cumulative weights aligned with CSR edge order;
/// `starts[v]..starts[v + 1]` is vertex `v`'s slice of `cdf`. Backed by
/// [`Storage`] so a mapped store file can lend the arrays zero-copy.
#[derive(Debug)]
struct CdfTables {
    starts: Storage<usize>,
    cdf: Storage<f64>,
}

/// Vose alias tables, same segment layout: `starts[v]..starts[v + 1]`
/// slices both `prob` and `alias`. `alias` holds segment-local indices.
#[derive(Debug)]
struct AliasTables {
    starts: Storage<usize>,
    prob: Storage<f64>,
    alias: Storage<u32>,
}

impl VertexSampler {
    /// The sampling method vertex `v` was assigned at build time.
    #[inline]
    pub fn method_of(&self, v: NodeId) -> SamplingMethod {
        self.methods.as_ref().map_or(SamplingMethod::Cdf, |ms| ms[v as usize])
    }

    /// Samples an absolute segment index in `lo..times.len()`; the caller
    /// has already handled the singleton suffix.
    #[inline]
    fn sample(&self, v: NodeId, times: &[Time], lo: usize, rng: &mut WalkRng) -> usize {
        match self.method_of(v) {
            SamplingMethod::Alias => self.sample_alias(v, times, lo, rng),
            SamplingMethod::Rejection => self.sample_rejection(times, lo, rng),
            _ => self.sample_cdf(v, times, lo, rng),
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

    /// Alias draw: one bounded draw + one uniform. A suffix draw
    /// (`lo > 0`) conditions full-table draws on landing in the suffix —
    /// each conditioned draw is exactly the suffix distribution — and
    /// falls back to exact direct evaluation after a bounded number of
    /// attempts, so the mixture stays exact.
    #[inline]
    fn sample_alias(&self, v: NodeId, times: &[Time], lo: usize, rng: &mut WalkRng) -> usize {
        let a = self.alias.as_ref().expect("alias tables allocated");
        let (s, e) = (a.starts[v as usize], a.starts[v as usize + 1]);
        let (prob, alias) = (&a.prob[s..e], &a.alias[s..e]);
        let deg = times.len();
        debug_assert_eq!(prob.len(), deg);
        for _ in 0..ALIAS_SUFFIX_ATTEMPTS {
            let j = rng.next_bounded(deg);
            let pick = if rng.next_f64() < prob[j] { j } else { alias[j] as usize };
            // `lo == 0` (the common case) accepts unconditionally here.
            if pick >= lo {
                return pick;
            }
        }
        direct_weighted_suffix(times, lo, self.span, self.recency, rng)
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
        if let Some(a) = &self.alias {
            let p = a.starts.as_ptr();
            tgraph::prefetch::prefetch_read(p.wrapping_add(v as usize));
            tgraph::prefetch::prefetch_read(p.wrapping_add(v as usize + 1));
        }
    }

    /// Hints the CPU to pull `v`'s table slice toward L1. For CDF
    /// vertices: the first, middle, and last cache lines of the prefix
    /// sums (the first positions the binary search inspects). For alias
    /// vertices: the same probes on the probability row (the draw's
    /// random index lands anywhere in it). Rejection vertices read only
    /// the times slice, which the graph-side prefetch already covers.
    #[inline]
    fn prefetch(&self, v: NodeId) {
        match self.method_of(v) {
            SamplingMethod::Alias => {
                if let Some(a) = &self.alias {
                    probe_lines(&a.prob, a.starts[v as usize], a.starts[v as usize + 1]);
                }
            }
            SamplingMethod::Rejection => {}
            _ => {
                if let Some(c) = &self.cdf {
                    probe_lines(&c.cdf, c.starts[v as usize], c.starts[v as usize + 1]);
                }
            }
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

/// Appends one segment's Vose alias table to `t`. Probabilities are
/// scaled so the mean is 1; the small/large worklists pair each
/// deficient entry with a surplus donor. Entries left over in either
/// list are exactly 1 up to round-off and are pinned there.
fn push_vose(
    weights: &[f64],
    prob: &mut Vec<f64>,
    alias: &mut Vec<u32>,
    small: &mut Vec<u32>,
    large: &mut Vec<u32>,
) {
    let d = weights.len();
    let base = prob.len();
    let total: f64 = weights.iter().sum();
    let scale = d as f64 / total;
    prob.extend(weights.iter().map(|&w| w * scale));
    alias.resize(base + d, 0);
    small.clear();
    large.clear();
    for i in 0..d {
        if prob[base + i] < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let Some(&l) = large.last() {
        let Some(s) = small.pop() else { break };
        alias[base + s as usize] = l;
        let p = prob[base + l as usize] - (1.0 - prob[base + s as usize]);
        prob[base + l as usize] = p;
        if p < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    for &i in small.iter().chain(large.iter()) {
        prob[base + i as usize] = 1.0;
    }
}

/// Exact direct evaluation of the segment-anchored weight distribution
/// over `times[lo..]` — the fallback that bounds the alias/rejection
/// retry loops, and distribution-identical to the CDF tables (same
/// anchor, same weights, one uniform draw).
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
    alias: usize,
    rejection: usize,
}

/// Resident bytes of a prepared kind's tables: `(total, alias_subset)`.
fn table_footprint(kind: &PreparedKind) -> (usize, usize) {
    match kind {
        PreparedKind::Weighted(vs) => {
            let usz = std::mem::size_of::<usize>();
            let cdf = vs.cdf.as_ref().map_or(0, |c| c.starts.len() * usz + c.cdf.len() * 8);
            let alias = vs
                .alias
                .as_ref()
                .map_or(0, |a| a.starts.len() * usz + a.prob.len() * 8 + a.alias.len() * 4);
            let map =
                vs.methods.as_ref().map_or(0, |m| m.len() * std::mem::size_of::<SamplingMethod>());
            (cdf + alias + map, alias)
        }
        _ => (0, 0),
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
    rec.gauge("twalk_sampler_vertices{method=\"alias\"}").set(stats.alias_vertices as i64);
    rec.gauge("twalk_sampler_vertices{method=\"rejection\"}").set(stats.rejection_vertices as i64);
    rec.gauge("twalk_sampler_table_bytes").set(stats.table_bytes as i64);
    rec.gauge("twalk_sampler_alias_bytes").set(stats.alias_bytes as i64);
}

impl TransitionSampler {
    /// Builds the prepared form of this sampler for `g` — the
    /// compatibility wrapper over [`SamplerBuilder`], forcing
    /// [`SamplingMethod::Cdf`] so the table layout, byte accounting, and
    /// RNG draw pattern match the pre-builder API exactly. New code that
    /// wants per-vertex method adaptation should use the builder.
    pub fn prepare(self, g: &TemporalGraph) -> PreparedSampler {
        SamplerBuilder::new(self).method(SamplingMethod::Cdf).build(g)
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
        /// Alias `(starts, probabilities, alias_indices)`, if any vertex
        /// uses alias tables.
        alias: Option<(&'a [usize], &'a [f64], &'a [u32])>,
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
    /// Alias `(starts, probabilities, alias_indices)`.
    pub alias: Option<(Storage<usize>, Storage<f64>, Storage<u32>)>,
}

/// Checks one `starts` array against its payload: `n + 1` entries,
/// starting at 0, nondecreasing, ending exactly at `payload_len`.
fn check_starts(what: &str, starts: &[usize], n: usize, payload_len: usize) -> Result<(), String> {
    if starts.len() != n + 1 {
        return Err(format!("{what} starts has {} entries, expected {}", starts.len(), n + 1));
    }
    if starts[0] != 0 {
        return Err(format!("{what} starts[0] is {}, expected 0", starts[0]));
    }
    if let Some(v) = starts.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("{what} starts decrease at vertex {v}"));
    }
    if starts[n] != payload_len {
        return Err(format!("{what} starts end at {}, expected {payload_len}", starts[n]));
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
                alias: vs.alias.as_ref().map(|a| (&a.starts[..], &a.prob[..], &a.alias[..])),
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
    /// monotone entries ending at their payload length, alias rows must
    /// be parallel with segment-local indices, the method map (when
    /// present) must cover every vertex with a concrete method whose
    /// table exists, and the span must be positive and finite. Any
    /// violation is an `Err` — never a panic later inside a walk.
    ///
    /// `counts` carries the build-time per-method vertex split
    /// (`cdf`, `alias`, `rejection`) for [`SamplerBuildStats`]; byte
    /// accounting is recomputed from the tables themselves.
    pub fn from_weighted_tables(
        t: WeightedTables,
        num_nodes: usize,
        num_edges: usize,
        counts: (usize, usize, usize),
    ) -> Result<Self, String> {
        if !(t.span.is_finite() && t.span > 0.0) {
            return Err(format!("span must be positive and finite, got {}", t.span));
        }
        if let Some(ms) = &t.methods {
            if ms.len() != num_nodes {
                return Err(format!("method map has {} entries, expected {num_nodes}", ms.len()));
            }
            for (v, &m) in ms.iter().enumerate() {
                match m {
                    SamplingMethod::Cdf if t.cdf.is_none() => {
                        return Err(format!("vertex {v} needs CDF tables but none are present"));
                    }
                    SamplingMethod::Alias if t.alias.is_none() => {
                        return Err(format!("vertex {v} needs alias tables but none are present"));
                    }
                    SamplingMethod::Auto => {
                        return Err(format!("vertex {v} has unresolved method Auto"));
                    }
                    _ => {}
                }
            }
        } else if t.cdf.is_none() {
            return Err("compact layout (no method map) requires CDF tables".into());
        }
        if let Some((starts, cdf)) = &t.cdf {
            check_starts("cdf", starts, num_nodes, cdf.len())?;
        }
        if let Some((starts, prob, alias)) = &t.alias {
            check_starts("alias", starts, num_nodes, prob.len())?;
            if alias.len() != prob.len() {
                return Err(format!(
                    "alias rows are not parallel: {} probs vs {} indices",
                    prob.len(),
                    alias.len()
                ));
            }
            // Alias entries are segment-local: every index must stay
            // inside its own vertex's row or a draw could escape the
            // segment and index out of bounds mid-walk.
            for v in 0..num_nodes {
                let (s, e) = (starts[v], starts[v + 1]);
                let deg = e - s;
                if let Some(i) = alias[s..e].iter().position(|&x| (x as usize) >= deg) {
                    return Err(format!(
                        "alias index {} at vertex {v} edge {i} exceeds segment degree {deg}",
                        alias[s + i]
                    ));
                }
            }
        }
        let vs = VertexSampler {
            recency: t.recency,
            span: t.span,
            methods: t.methods,
            cdf: t.cdf.map(|(starts, cdf)| CdfTables { starts, cdf }),
            alias: t.alias.map(|(starts, prob, alias)| AliasTables { starts, prob, alias }),
        };
        let kind = PreparedKind::Weighted(vs);
        let (table_bytes, alias_bytes) = table_footprint(&kind);
        let stats = SamplerBuildStats {
            build_time: Duration::ZERO,
            table_bytes,
            cdf_vertices: counts.0,
            alias_vertices: counts.1,
            rejection_vertices: counts.2,
            alias_bytes,
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
    /// tail — enough degree spread to exercise threshold and budget.
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
        // The forced-move rule is method-independent: alias and rejection
        // vertices must hold it too.
        for m in [SamplingMethod::Alias, SamplingMethod::Rejection] {
            let p = SamplerBuilder::new(TransitionSampler::Softmax).method(m).build(&g);
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
    fn sampling_method_names_round_trip() {
        for m in [
            SamplingMethod::Auto,
            SamplingMethod::Cdf,
            SamplingMethod::Alias,
            SamplingMethod::Rejection,
        ] {
            assert_eq!(m.to_string().parse::<SamplingMethod>(), Ok(m));
        }
        assert_eq!(" Rejection ".parse(), Ok(SamplingMethod::Rejection));
        assert_eq!("CDF".parse(), Ok(SamplingMethod::Cdf));
        let err = "vose".parse::<SamplingMethod>().unwrap_err();
        for needle in ["vose", "auto", "cdf", "alias", "rejection", "valid values"] {
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn legacy_prepare_matches_cdf_builder_exactly() {
        let g = tgraph::gen::preferential_attachment(200, 3, 5).undirected(true).build();
        let legacy = TransitionSampler::Softmax.prepare(&g);
        let built =
            SamplerBuilder::new(TransitionSampler::Softmax).method(SamplingMethod::Cdf).build(&g);
        assert_eq!(legacy.stats().table_bytes, built.stats().table_bytes);
        assert_eq!(legacy.stats().alias_bytes, 0);
        assert_eq!(legacy.stats().alias_vertices, 0);
        assert_eq!(legacy.stats().rejection_vertices, 0);
        assert!(legacy.stats().cdf_vertices > 0);
        // Same tables ⇒ same draws from the same stream.
        let v = 0u32;
        let (_, times) = g.neighbor_slices(v);
        if times.len() > 1 {
            let mut a = WalkRng::new(17);
            let mut b = WalkRng::new(17);
            for _ in 0..200 {
                assert_eq!(
                    legacy.sample(v, times, 0, f64::NEG_INFINITY, &mut a),
                    built.sample(v, times, 0, f64::NEG_INFINITY, &mut b)
                );
            }
        }
    }

    #[test]
    fn auto_with_unreachable_threshold_collapses_to_legacy_layout() {
        let g = two_hubs();
        let auto =
            SamplerBuilder::new(TransitionSampler::Softmax).alias_degree_threshold(1_000).build(&g);
        let legacy = TransitionSampler::Softmax.prepare(&g);
        // No vertex qualifies for alias and nothing churned, so the
        // assignment collapses to the compact all-CDF layout.
        assert_eq!(auto.stats().table_bytes, legacy.stats().table_bytes);
        assert_eq!(auto.stats().alias_vertices, 0);
    }

    #[test]
    fn auto_assigns_alias_to_hubs_and_cdf_to_the_rest() {
        let g = two_hubs();
        let p =
            SamplerBuilder::new(TransitionSampler::Softmax).alias_degree_threshold(32).build(&g);
        assert_eq!(p.method_of(0), Some(SamplingMethod::Alias));
        assert_eq!(p.method_of(1), Some(SamplingMethod::Cdf));
        let s = p.stats();
        assert_eq!(s.alias_vertices, 1);
        assert_eq!(s.cdf_vertices, 1); // leaves have no out-edges
        assert_eq!(s.rejection_vertices, 0);
        // 48 alias entries at 12 payload bytes each, plus the starts row.
        assert_eq!(s.alias_bytes, 48 * 12 + (g.num_nodes() + 1) * std::mem::size_of::<usize>());
        assert!(s.table_bytes > s.alias_bytes);
    }

    #[test]
    fn alias_budget_admits_hubs_first() {
        let g = two_hubs();
        // Room for the 48-degree hub only: 48·12 = 576 bytes.
        let p = SamplerBuilder::new(TransitionSampler::Softmax)
            .alias_degree_threshold(8)
            .alias_budget_bytes(600)
            .build(&g);
        assert_eq!(p.method_of(0), Some(SamplingMethod::Alias));
        assert_eq!(p.method_of(1), Some(SamplingMethod::Cdf));
        assert_eq!(p.stats().alias_vertices, 1);
        // A zero budget demotes everything back to CDF.
        let p0 = SamplerBuilder::new(TransitionSampler::Softmax)
            .alias_degree_threshold(8)
            .alias_budget_bytes(0)
            .build(&g);
        assert_eq!(p0.stats().alias_vertices, 0);
        assert_eq!(p0.method_of(0), Some(SamplingMethod::Cdf));
    }

    #[test]
    fn churned_vertices_sample_by_rejection() {
        let g = two_hubs();
        let p = SamplerBuilder::new(TransitionSampler::SoftmaxRecency)
            .alias_degree_threshold(32)
            .churned([0u32, 9_999u32]) // out-of-range id is ignored
            .build(&g);
        assert_eq!(p.method_of(0), Some(SamplingMethod::Rejection));
        assert_eq!(p.method_of(1), Some(SamplingMethod::Cdf));
        let s = p.stats();
        assert_eq!(s.rejection_vertices, 1);
        assert_eq!(s.alias_vertices, 0); // the only alias candidate churned
        assert_eq!(s.alias_bytes, 0);
    }

    #[test]
    fn forced_rejection_builds_no_tables_beyond_the_method_map() {
        let g = two_hubs();
        let p = SamplerBuilder::new(TransitionSampler::Softmax)
            .method(SamplingMethod::Rejection)
            .build(&g);
        let s = p.stats();
        assert_eq!(s.table_bytes, g.num_nodes() * std::mem::size_of::<SamplingMethod>());
        assert_eq!(s.alias_bytes, 0);
        assert_eq!(s.rejection_vertices, 2);
        assert_eq!(s.cdf_vertices, 0);
    }

    #[test]
    fn alias_and_rejection_track_the_analytic_distribution() {
        let times: Vec<f64> = (0..32).map(|i| i as f64 / 31.0).collect();
        let g = star(&times);
        let deg = times.len();
        for (recency, bias) in
            [(false, TransitionSampler::Softmax), (true, TransitionSampler::SoftmaxRecency)]
        {
            let anchor = if recency { times[0] } else { times[deg - 1] };
            for method in [SamplingMethod::Alias, SamplingMethod::Rejection] {
                let p = SamplerBuilder::new(bias).method(method).build(&g);
                assert_eq!(p.method_of(0), Some(method));
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
                        assert!((lo..deg).contains(&pick), "{method} escaped suffix");
                        counts[pick - lo] += 1;
                    }
                    for i in 0..deg - lo {
                        let expect = w[i] / total;
                        let got = counts[i] as f64 / draws as f64;
                        assert!(
                            (got - expect).abs() < 0.015,
                            "{bias:?}/{method} lo={lo} bin {i}: {got:.4} vs {expect:.4}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vose_tables_are_exact_for_uniform_weights() {
        // Equal weights scale to exactly 1.0 everywhere: every draw
        // accepts its first column and the alias row is never consulted.
        let (mut prob, mut alias) = (Vec::new(), Vec::new());
        let (mut s, mut l) = (Vec::new(), Vec::new());
        push_vose(&[2.5; 7], &mut prob, &mut alias, &mut s, &mut l);
        assert_eq!(prob, vec![1.0; 7]);
    }
}
