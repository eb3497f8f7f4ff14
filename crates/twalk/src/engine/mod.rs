//! The walk kernel itself (paper Algorithm 1).
//!
//! Bulk generation is a two-step API: [`TransitionSampler::prepare`] binds
//! the configured sampler to the graph (building CDF tables for the
//! softmax variants), then [`generate_walks_prepared`] /
//! [`generate_walks_from_prepared`] run the kernel against the shared
//! read-only [`PreparedSampler`]. The one-shot wrappers
//! [`generate_walks`] / [`generate_walks_from`] prepare internally and
//! stay source-compatible. [`walk_from`] keeps the direct-evaluation
//! sampling path as the executable reference the prepared kernel is
//! verified against.
//!
//! Three execution strategies run the same kernel ([`crate::WalkEngine`]):
//! the classic per-walk loop nest below, the step-synchronous [`batched`]
//! engine that trades bookkeeping for memory-level parallelism on large
//! graphs, and the step-[`interleaved`] engine that keeps a ring of
//! in-flight walks per worker to overlap cache misses outright. All
//! produce bit-identical output because every `(walk, vertex)` pair draws
//! from its own RNG stream; the engine is resolved per run by
//! [`resolved_engine`] from the estimated working set
//! ([`estimated_working_set`]) and the graph's mean degree — the proxy
//! for how much reuse locality grouping can find.

use par::{parallel_chunks_shared, ParConfig};
use tgraph::{NodeId, TemporalGraph, Time};

use crate::sampler::{direct_linear, direct_softmax, PreparedSampler};
use crate::{TransitionSampler, WalkConfig, WalkEngine, WalkRng, WalkSet};

pub mod batched;
pub mod interleaved;

/// The bulk run's `total × N` output matrix and its `total` lengths, as
/// raw addresses so workers can write their disjoint rows without
/// aliasing a `&mut`. Walk slot `idx` owns row `idx` of both buffers.
#[derive(Clone, Copy)]
pub(super) struct Output {
    pub(super) nodes: usize,
    pub(super) lengths: usize,
}

/// How bulk-run walk slot indices map to `(walk number, start vertex)`
/// pairs: slot `w * stride + i` is walk `w` from the `i`-th start.
#[derive(Debug, Clone, Copy)]
enum StartSet<'a> {
    /// Full run over every vertex: start `i` is vertex `i` itself.
    AllVertices(usize),
    /// Incremental refresh: start `i` is `sources[i]` (repeats allowed).
    Sources(&'a [NodeId]),
}

impl StartSet<'_> {
    /// Number of starts per walk round (`n` or `sources.len()`).
    #[inline]
    fn stride(&self) -> usize {
        match self {
            StartSet::AllVertices(n) => *n,
            StartSet::Sources(s) => s.len(),
        }
    }

    /// Start vertex of the `i`-th start slot.
    #[inline]
    fn vertex(&self, i: usize) -> NodeId {
        match self {
            StartSet::AllVertices(_) => i as NodeId,
            StartSet::Sources(s) => s[i],
        }
    }
}

/// The engine a bulk run with this configuration will actually execute:
/// [`WalkEngine::Auto`] is resolved against the graph's shape, explicit
/// choices pass through. Exposed so benchmarks and tests can observe the
/// Auto heuristic without rerunning it.
pub fn resolved_engine(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    total_walks: usize,
) -> WalkEngine {
    match cfg.engine {
        WalkEngine::Auto => {
            // Tiny runs (under one batch block) always stay per-walk:
            // they cannot amortize grouping or ring bookkeeping.
            if g.num_nodes() == 0 || total_walks < batched::MIN_BLOCK {
                return WalkEngine::PerWalk;
            }
            let ws = estimated_working_set(g, sampler, total_walks);
            if ws <= cfg.auto_llc_bytes as f64 {
                return WalkEngine::PerWalk;
            }
            // Past the cache threshold the two bulk engines split by how
            // much reuse grouping can find: each grouped fetch serves
            // `mean_degree`-sized segments to every co-located walk, so
            // dense skewed graphs amortize the counting sort many times
            // over, while on sparse graphs a fetch serves ~1 walk and ~1
            // cache line and the sort is pure overhead — there the ring's
            // miss overlap wins (measured crossover: DESIGN.md §13.5).
            let mean_degree = g.num_edges() as f64 / g.num_nodes() as f64;
            if mean_degree <= INTERLEAVE_MAX_MEAN_DEGREE {
                WalkEngine::Interleaved
            } else {
                WalkEngine::Batched
            }
        }
        explicit => explicit,
    }
}

/// Mean-degree boundary between [`WalkEngine::Auto`]'s two bulk bands:
/// at or below it the step-interleaved ring wins (sparse graphs, little
/// grouping reuse), above it the batched engine's locality grouping wins
/// (dense skewed graphs, one hub fetch serves many walks). The measured
/// crossover on the `rwalk/engine` workload family sits near mean degree
/// ~32, where the two engines tie within noise (DESIGN.md §13.5).
pub const INTERLEAVE_MAX_MEAN_DEGREE: f64 = 32.0;

/// The Auto heuristic's working-set estimate (DESIGN.md §11/§13): one
/// neighbor segment per distinct active vertex — mean degree × per-edge
/// bytes (timestamps + destinations + table entry when the sampler
/// carries tables) plus the CSR offsets entry — times the number of
/// distinct start vertices a block can hold. Under
/// [`WalkConfig::auto_llc_bytes`] the per-walk loop nest barely misses
/// and wins on simplicity; past it one of the bulk engines takes over,
/// split by mean degree (see [`resolved_engine`] and
/// [`INTERLEAVE_MAX_MEAN_DEGREE`]). Exposed so tests and tools can probe
/// the bands without rerunning the kernel.
pub fn estimated_working_set(
    g: &TemporalGraph,
    sampler: &PreparedSampler,
    total_walks: usize,
) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let mean_degree = g.num_edges() as f64 / n as f64;
    let frontier = total_walks.min(n) as f64;
    let per_edge = (std::mem::size_of::<Time>()
        + std::mem::size_of::<NodeId>()
        + if sampler.stats().table_bytes > 0 { std::mem::size_of::<f64>() } else { 0 })
        as f64;
    let per_vertex = mean_degree * per_edge + std::mem::size_of::<usize>() as f64;
    frontier * per_vertex
}

/// Generates `K` temporal walks from every vertex, parallelizing the
/// middle (vertex) loop with dynamic scheduling — the arrangement the paper
/// found optimal (§V-A).
///
/// Walks are deterministic in `(cfg.seed, cfg.sampler)` and independent of
/// the thread count, because each `(walk, vertex)` pair draws from its own
/// RNG stream.
///
/// Prepares the sampler internally; to amortize table construction over
/// several runs on the same graph, call [`TransitionSampler::prepare`]
/// once and use [`generate_walks_prepared`].
///
/// # Examples
///
/// ```
/// use twalk::{generate_walks, WalkConfig};
/// use par::ParConfig;
///
/// let g = tgraph::gen::erdos_renyi(100, 800, 5).build();
/// let w = generate_walks(&g, &WalkConfig::new(4, 6), &ParConfig::default());
/// assert_eq!(w.num_walks(), 400);
/// ```
pub fn generate_walks(g: &TemporalGraph, cfg: &WalkConfig, par: &ParConfig) -> WalkSet {
    let prepared = cfg.sampler.prepare(g);
    generate_walks_prepared(g, cfg, &prepared, par)
}

/// [`generate_walks`] against an already-prepared sampler.
///
/// The sampler is shared read-only across the worker threads; walks are
/// identical to what [`generate_walks`] produces for `cfg.sampler` (the
/// prepared form of a config sampler defines the kernel's distribution).
///
/// # Panics
///
/// Panics if `sampler` was prepared for a graph of a different shape.
pub fn generate_walks_prepared(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    par: &ParConfig,
) -> WalkSet {
    assert!(sampler.matches_graph(g), "sampler was prepared for a different graph");
    // One contiguous output row per (walk w, vertex v): index w * n + v,
    // matching Algorithm 1's loop nest (outer walk loop, inner vertex loop).
    run_bulk(g, cfg, sampler, par, StartSet::AllVertices(g.num_nodes()))
}

/// Shared skeleton of the bulk entry points: allocates the output matrix
/// and runs the engine [`resolved_engine`] picks over the start set.
fn run_bulk(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    par: &ParConfig,
    starts: StartSet<'_>,
) -> WalkSet {
    let nl = cfg.max_length;
    let total = starts.stride() * cfg.walks_per_node;
    let mut nodes = vec![0 as NodeId; total * nl];
    let mut lengths = vec![0u32; total];
    if total > 0 {
        // Observability is entirely post-hoc here: the kernel is timed
        // around the dispatch and hop counts are derived from the output
        // `lengths` (sum of lengths minus one start vertex per walk), so
        // the hot loops carry zero instrumentation. Disabled cost: one
        // relaxed bool load per bulk run.
        let rec = obs::Recorder::global();
        let t0 = rec.is_enabled().then(std::time::Instant::now);
        let out =
            Output { nodes: nodes.as_mut_ptr() as usize, lengths: lengths.as_mut_ptr() as usize };
        match resolved_engine(g, cfg, sampler, total) {
            WalkEngine::Batched => batched::run(g, cfg, sampler, par, starts, total, out),
            WalkEngine::Interleaved => interleaved::run(g, cfg, sampler, par, starts, total, out),
            _ => run_per_walk(g, cfg, sampler, par, starts, total, out),
        }
        if let Some(t0) = t0 {
            let hops = lengths.iter().map(|&l| u64::from(l)).sum::<u64>() - total as u64;
            rec.histogram("twalk_run_ns").record_duration(t0.elapsed());
            rec.counter("twalk_walks_total").add(total as u64);
            rec.counter("twalk_hops_total").add(hops);
        }
    }
    WalkSet::from_parts(nodes, lengths, nl).with_sampler_stats(sampler.stats())
}

/// The classic engine: each walk runs to completion inside its chunk.
///
/// Chunks are disjoint, so each output row is written by exactly one
/// worker.
fn run_per_walk(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    par: &ParConfig,
    starts: StartSet<'_>,
    total: usize,
    out: Output,
) {
    let stride = starts.stride();
    let nl = cfg.max_length;
    parallel_chunks_shared(par, sampler, total, |sampler, start, end| {
        // SAFETY: chunks are disjoint subranges of 0..total; each row of
        // `nodes` and slot of `lengths` is written by exactly one worker.
        let nodes = out.nodes as *mut NodeId;
        let lengths = out.lengths as *mut u32;
        // One division locates the chunk's (walk, start) position; the
        // pair is then carried as counters so the hot loop runs
        // division-free (idx / stride and idx % stride per iteration
        // showed up on short-walk configs).
        let mut w = start / stride;
        let mut i = start % stride;
        for idx in start..end {
            let v = starts.vertex(i);
            let mut rng = WalkRng::from_stream(cfg.seed, w as u64, v as u64);
            let row = unsafe { std::slice::from_raw_parts_mut(nodes.add(idx * nl), nl) };
            let len = walk_into(g, sampler, cfg, v, &mut rng, row);
            unsafe { *lengths.add(idx) = len as u32 };
            i += 1;
            if i == stride {
                i = 0;
                w += 1;
            }
        }
    });
}

/// Serial reference implementation of [`generate_walks`], used by tests and
/// the thread-scaling study's single-thread baseline.
pub fn generate_walks_serial(g: &TemporalGraph, cfg: &WalkConfig) -> WalkSet {
    generate_walks(g, cfg, &ParConfig::with_threads(1))
}

/// Generates `K` walks from each of the given `sources` only — the
/// incremental-refresh primitive: after a batch of edge insertions, only
/// the touched vertices need their neighborhoods re-sampled.
///
/// Walk `(w, i)` (for source index `i`) lands at row
/// `w * sources.len() + i` and uses the same RNG stream a full run would
/// use for that `(walk, vertex)` pair, so refreshed walks match full-run
/// walks exactly.
///
/// Prepares the sampler internally; incremental pipelines that refresh
/// repeatedly against one snapshot should prepare once and call
/// [`generate_walks_from_prepared`].
///
/// # Panics
///
/// Panics if any source id is out of range.
pub fn generate_walks_from(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sources: &[NodeId],
    par: &ParConfig,
) -> WalkSet {
    let prepared = cfg.sampler.prepare(g);
    generate_walks_from_prepared(g, cfg, &prepared, sources, par)
}

/// [`generate_walks_from`] against an already-prepared sampler.
///
/// # Panics
///
/// Panics if any source id is out of range or `sampler` was prepared for a
/// graph of a different shape.
pub fn generate_walks_from_prepared(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    sources: &[NodeId],
    par: &ParConfig,
) -> WalkSet {
    assert!(sampler.matches_graph(g), "sampler was prepared for a different graph");
    let n = g.num_nodes();
    assert!(sources.iter().all(|&v| (v as usize) < n), "walk source out of range");
    run_bulk(g, cfg, sampler, par, StartSet::Sources(sources))
}

/// Performs a single temporal walk from `start` and returns its vertices.
///
/// This is the *direct-evaluation* reference: transition probabilities are
/// recomputed from raw timestamps at every step with no precomputed
/// tables. For [`TransitionSampler::Uniform`] and
/// [`TransitionSampler::LinearTime`] it draws from the RNG exactly like
/// the prepared kernel, so single walks match bulk rows bit-for-bit; the
/// softmax variants agree in distribution (the tables anchor weights per
/// segment rather than per candidate set, so round-off can differ).
///
/// # Examples
///
/// ```
/// use twalk::{walk_from, WalkConfig, WalkRng};
///
/// let g = tgraph::GraphBuilder::new()
///     .add_edge(tgraph::TemporalEdge::new(0, 1, 0.1))
///     .add_edge(tgraph::TemporalEdge::new(1, 2, 0.2))
///     .build();
/// let mut rng = WalkRng::new(1);
/// let walk = walk_from(&g, &WalkConfig::new(1, 8), 0, &mut rng);
/// assert_eq!(walk, vec![0, 1, 2]);
/// ```
pub fn walk_from(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    start: NodeId,
    rng: &mut WalkRng,
) -> Vec<NodeId> {
    let mut buf = vec![0 as NodeId; cfg.max_length];
    let span = g.time_span().max(f64::MIN_POSITIVE);
    let len = walk_into_direct(g, span, cfg, start, rng, &mut buf);
    buf.truncate(len);
    buf
}

/// Index where the temporally-valid suffix of a time-sorted segment
/// begins: strict (`t > now`) after the first hop, inclusive on the first
/// hop when a finite start time is set, everything when timestamps are
/// ignored (static DeepWalk mode).
#[inline]
fn suffix_start(times: &[Time], cfg: &WalkConfig, now: Time, first_hop: bool) -> usize {
    if !cfg.respect_time {
        0
    } else if first_hop {
        if now.is_finite() {
            times.partition_point(|&t| t < now)
        } else {
            0
        }
    } else {
        times.partition_point(|&t| t <= now)
    }
}

/// Core of Algorithm 1 on the prepared-sampler path: walks from `start`,
/// writing vertices into `out`, returning the number written (≥ 1).
fn walk_into(
    g: &TemporalGraph,
    sampler: &PreparedSampler,
    cfg: &WalkConfig,
    start: NodeId,
    rng: &mut WalkRng,
    out: &mut [NodeId],
) -> usize {
    debug_assert!(out.len() >= cfg.max_length);
    out[0] = start;
    let mut len = 1usize;
    let mut curr = start;
    let mut curr_time = cfg.start_time;
    let mut first_hop = true;

    while len < cfg.max_length {
        let (dsts, times) = g.neighbor_slices(curr);
        let lo = suffix_start(times, cfg, curr_time, first_hop);
        if lo >= dsts.len() {
            break; // Algorithm 1 line 9: dead end.
        }
        let pick = sampler.sample(curr, times, lo, curr_time, rng);
        curr = dsts[pick];
        curr_time = times[pick];
        out[len] = curr;
        len += 1;
        first_hop = false;
    }
    len
}

/// Direct-evaluation twin of [`walk_into`]: recomputes transition weights
/// from raw timestamps at every step (the seed kernel's behavior), kept as
/// the reference the prepared path is tested against.
fn walk_into_direct(
    g: &TemporalGraph,
    span: f64,
    cfg: &WalkConfig,
    start: NodeId,
    rng: &mut WalkRng,
    out: &mut [NodeId],
) -> usize {
    debug_assert!(out.len() >= cfg.max_length);
    out[0] = start;
    let mut len = 1usize;
    let mut curr = start;
    let mut curr_time = cfg.start_time;
    let mut first_hop = true;

    while len < cfg.max_length {
        let (dsts, times) = g.neighbor_slices(curr);
        let lo = suffix_start(times, cfg, curr_time, first_hop);
        if lo >= dsts.len() {
            break;
        }
        let (dsts, times) = (&dsts[lo..], &times[lo..]);
        let pick = match cfg.sampler {
            TransitionSampler::Uniform => rng.next_bounded(dsts.len()),
            TransitionSampler::Softmax => direct_softmax(times, span, rng, false, curr_time),
            TransitionSampler::SoftmaxRecency => direct_softmax(times, span, rng, true, curr_time),
            TransitionSampler::LinearTime => direct_linear(dsts.len(), rng),
        };

        curr = dsts[pick];
        curr_time = times[pick];
        out[len] = curr;
        len += 1;
        first_hop = false;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{GraphBuilder, TemporalEdge};

    fn chain() -> TemporalGraph {
        GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 0.1))
            .add_edge(TemporalEdge::new(1, 2, 0.2))
            .add_edge(TemporalEdge::new(2, 3, 0.3))
            .add_edge(TemporalEdge::new(3, 4, 0.4))
            .build()
    }

    #[test]
    fn walk_follows_chain_until_length_cap() {
        let g = chain();
        let mut rng = WalkRng::new(0);
        let w = walk_from(&g, &WalkConfig::new(1, 3), 0, &mut rng);
        assert_eq!(w, vec![0, 1, 2]);
        let w = walk_from(&g, &WalkConfig::new(1, 10), 0, &mut rng);
        assert_eq!(w, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn walk_stops_at_temporal_dead_end() {
        // Edge times decrease: 1 -> 2 happens *before* 0 -> 1, so the walk
        // cannot continue past vertex 1.
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 0.9))
            .add_edge(TemporalEdge::new(1, 2, 0.1))
            .build();
        let mut rng = WalkRng::new(0);
        let w = walk_from(&g, &WalkConfig::new(1, 10), 0, &mut rng);
        assert_eq!(w, vec![0, 1]);
    }

    #[test]
    fn equal_timestamps_do_not_chain() {
        // Strictly-increasing requirement: t2 must be > t1.
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 0.5))
            .add_edge(TemporalEdge::new(1, 2, 0.5))
            .build();
        let mut rng = WalkRng::new(0);
        let w = walk_from(&g, &WalkConfig::new(1, 10), 0, &mut rng);
        assert_eq!(w, vec![0, 1]);
    }

    #[test]
    fn start_time_filters_first_hop() {
        let g = chain();
        let mut rng = WalkRng::new(0);
        let cfg = WalkConfig::new(1, 10).start_time(0.2);
        // First hop from vertex 0 requires t >= 0.2; the only 0-edge has
        // t = 0.1, so the walk is stuck at the start.
        let w = walk_from(&g, &cfg, 0, &mut rng);
        assert_eq!(w, vec![0]);
        // From vertex 1 the t = 0.2 edge is admissible (inclusive).
        let w = walk_from(&g, &cfg, 1, &mut rng);
        assert_eq!(w, vec![1, 2, 3, 4]);
    }

    #[test]
    fn all_walks_are_temporally_valid() {
        let g = tgraph::gen::preferential_attachment(400, 2, 3).undirected(true).build();
        for sampler in [
            TransitionSampler::Uniform,
            TransitionSampler::Softmax,
            TransitionSampler::SoftmaxRecency,
            TransitionSampler::LinearTime,
        ] {
            let cfg = WalkConfig::new(3, 8).sampler(sampler).seed(5);
            let walks = generate_walks_serial(&g, &cfg);
            for w in walks.iter() {
                // Re-derive edge times along the walk and check strict
                // monotonicity; each consecutive pair must be a real edge.
                let mut last_t = f64::NEG_INFINITY;
                for pair in w.windows(2) {
                    let (dsts, times) = g.neighbor_slices(pair[0]);
                    let t = dsts
                        .iter()
                        .zip(times)
                        .filter(|&(&d, &t)| d == pair[1] && t > last_t)
                        .map(|(_, &t)| t)
                        .next()
                        .expect("walk uses a real, temporally-valid edge");
                    last_t = t;
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let g = tgraph::gen::erdos_renyi(200, 2_000, 7).build();
        let cfg = WalkConfig::new(5, 6).seed(11);
        let serial = generate_walks_serial(&g, &cfg);
        let parallel = generate_walks(&g, &cfg, &ParConfig::with_threads(8).chunk_size(13));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn prepared_sampler_is_reusable_across_runs() {
        let g = tgraph::gen::erdos_renyi(150, 1_500, 4).build();
        for sampler in [
            TransitionSampler::Uniform,
            TransitionSampler::Softmax,
            TransitionSampler::SoftmaxRecency,
            TransitionSampler::LinearTime,
        ] {
            let cfg = WalkConfig::new(3, 6).sampler(sampler).seed(2);
            let prepared = sampler.prepare(&g);
            let one_shot = generate_walks(&g, &cfg, &ParConfig::with_threads(2));
            let reused_a =
                generate_walks_prepared(&g, &cfg, &prepared, &ParConfig::with_threads(4));
            let reused_b =
                generate_walks_prepared(&g, &cfg, &prepared, &ParConfig::with_threads(1));
            assert_eq!(one_shot, reused_a);
            assert_eq!(reused_a, reused_b);
        }
    }

    #[test]
    fn prepared_walks_match_direct_reference_for_table_free_samplers() {
        // Uniform and LinearTime consume the RNG identically on both
        // paths, so bulk rows equal single direct walks bit-for-bit.
        let g = tgraph::gen::preferential_attachment(300, 3, 9).undirected(true).build();
        let n = g.num_nodes();
        for sampler in [TransitionSampler::Uniform, TransitionSampler::LinearTime] {
            let cfg = WalkConfig::new(2, 7).sampler(sampler).seed(13);
            let bulk = generate_walks_serial(&g, &cfg);
            for w in 0..cfg.walks_per_node {
                for v in 0..n {
                    let mut rng = WalkRng::from_stream(cfg.seed, w as u64, v as u64);
                    let direct = walk_from(&g, &cfg, v as NodeId, &mut rng);
                    assert_eq!(bulk.walk(w * n + v), direct.as_slice());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "prepared for a different graph")]
    fn mismatched_prepared_sampler_is_rejected() {
        let a = tgraph::gen::erdos_renyi(50, 400, 1).build();
        let b = tgraph::gen::erdos_renyi(60, 500, 2).build();
        let prepared = TransitionSampler::Softmax.prepare(&a);
        let _ =
            generate_walks_prepared(&b, &WalkConfig::new(1, 4), &prepared, &ParConfig::default());
    }

    #[test]
    fn every_vertex_gets_k_walks() {
        let g = chain();
        let walks = generate_walks_serial(&g, &WalkConfig::new(3, 4));
        assert_eq!(walks.num_walks(), 3 * g.num_nodes());
        // Walk for (w, v) starts at v.
        let n = g.num_nodes();
        for w in 0..3 {
            for v in 0..n {
                assert_eq!(walks.walk(w * n + v)[0], v as NodeId);
            }
        }
    }

    #[test]
    fn softmax_prefers_late_edges_and_recency_prefers_early() {
        // Vertex 0 has two candidate edges at t = 0.1 and t = 0.9 with a
        // wide span; Eq. (1) softmax should mostly take the late edge, the
        // recency variant the early edge.
        let g = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 0.001))
            .add_edge(TemporalEdge::new(0, 2, 0.999))
            // Far-apart anchor edges stretch the span so the exponent gap
            // stays meaningful after normalization.
            .add_edge(TemporalEdge::new(3, 4, 0.0))
            .add_edge(TemporalEdge::new(4, 3, 1.0))
            .build();
        let count_late = |sampler: TransitionSampler| -> usize {
            let mut late = 0;
            for seed in 0..400 {
                let mut rng = WalkRng::new(seed);
                let cfg = WalkConfig::new(1, 2).sampler(sampler);
                let w = walk_from(&g, &cfg, 0, &mut rng);
                if w[1] == 2 {
                    late += 1;
                }
            }
            late
        };
        let softmax_late = count_late(TransitionSampler::Softmax);
        let recency_late = count_late(TransitionSampler::SoftmaxRecency);
        assert!(softmax_late > 240, "softmax picked late only {softmax_late}/400");
        assert!(recency_late < 160, "recency picked late {recency_late}/400");
    }

    #[test]
    fn walks_from_sources_match_full_run_rows() {
        let g = tgraph::gen::erdos_renyi(100, 1_000, 5).build();
        let cfg = WalkConfig::new(3, 6).seed(9);
        let full = generate_walks_serial(&g, &cfg);
        let sources = [7u32, 42, 99];
        let partial = generate_walks_from(&g, &cfg, &sources, &ParConfig::with_threads(2));
        assert_eq!(partial.num_walks(), 9);
        let n = g.num_nodes();
        for w in 0..3 {
            for (i, &v) in sources.iter().enumerate() {
                assert_eq!(
                    partial.walk(w * sources.len() + i),
                    full.walk(w * n + v as usize),
                    "walk {w} from source {v} diverged"
                );
            }
        }
    }

    #[test]
    fn refresh_rows_match_full_run_for_every_sampler() {
        let g = tgraph::gen::preferential_attachment(200, 3, 6).undirected(true).build();
        let sources = [0u32, 17, 65, 130, 199];
        for sampler in [
            TransitionSampler::Uniform,
            TransitionSampler::Softmax,
            TransitionSampler::SoftmaxRecency,
            TransitionSampler::LinearTime,
        ] {
            let cfg = WalkConfig::new(2, 6).sampler(sampler).seed(21);
            let prepared = sampler.prepare(&g);
            let full = generate_walks_prepared(&g, &cfg, &prepared, &ParConfig::with_threads(3));
            let partial = generate_walks_from_prepared(
                &g,
                &cfg,
                &prepared,
                &sources,
                &ParConfig::with_threads(2),
            );
            let n = g.num_nodes();
            for w in 0..cfg.walks_per_node {
                for (i, &v) in sources.iter().enumerate() {
                    assert_eq!(partial.walk(w * sources.len() + i), full.walk(w * n + v as usize));
                }
            }
        }
    }

    #[test]
    fn walks_from_empty_sources_is_empty() {
        let g = tgraph::gen::erdos_renyi(10, 50, 1).build();
        let w = generate_walks_from(&g, &WalkConfig::new(2, 4), &[], &ParConfig::default());
        assert_eq!(w.num_walks(), 0);
    }

    #[test]
    fn isolated_vertex_yields_singleton_walk() {
        let g = GraphBuilder::new().add_edge(TemporalEdge::new(0, 1, 0.5)).num_nodes(5).build();
        let walks = generate_walks_serial(&g, &WalkConfig::new(1, 4));
        assert_eq!(walks.walk(4), &[4]);
    }

    #[test]
    fn generated_walksets_carry_build_stats() {
        let g = tgraph::gen::erdos_renyi(50, 500, 2).build();
        let cfg = WalkConfig::new(1, 4).sampler(TransitionSampler::Softmax);
        let walks = generate_walks_serial(&g, &cfg);
        let stats = walks.sampler_stats().expect("bulk runs record stats");
        assert!(stats.table_bytes > 0);
    }
}
