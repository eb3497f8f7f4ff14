//! Step-synchronous, locality-grouped walk engine.
//!
//! The per-walk engine runs Algorithm 1's inner loop to completion one
//! walk at a time, so every step is a *dependent* random load: the next
//! segment address is unknown until the current sample resolves, and on
//! graphs larger than the cache the core stalls on memory for most of the
//! kernel (the paper's §VI finding that RW-P1 is memory-latency-bound).
//!
//! This engine restructures execution the way ThunderRW's step-interleaved
//! mode does, adapted to temporal walks. A worker claims a *block* of walk
//! slots and advances every active walk in the block by **one hop per
//! round**:
//!
//! 1. **Group** the active walks by current vertex with a counting sort
//!    into a reusable scratch arena (`O(active + touched)` — a touched-
//!    vertex list resets the counts array, so cost never scales with
//!    `|V|`). Walks sitting on the same vertex become adjacent, so one
//!    segment's cache lines (timestamps, destinations, CDF slice) serve
//!    all of them back-to-back — on degree-skewed graphs the frontier
//!    concentrates onto hubs, which is exactly where the reuse lands.
//! 2. **Step** each grouped walk, software-prefetching ahead: the CSR
//!    offsets entry [`OFFSET_PREFETCH_DIST`] slots ahead (a prefetch
//!    cannot chase a pointer, so the offsets load is warmed one stage
//!    earlier than the segment it unlocks) and the segment data plus CDF
//!    slice [`SEGMENT_PREFETCH_DIST`] slots ahead. Within a round the
//!    walks are independent, which turns the per-walk dependent chain
//!    into memory-level parallelism.
//!
//! Output is **bit-identical** to the per-walk engine: each
//! `(walk, vertex)` pair owns its own `WalkRng::from_stream` RNG, and a
//! walk's draws still happen in hop order (one per round), so reordering
//! *across* walks cannot change what any single walk samples. The
//! equivalence suite in `tests/engine_equivalence.rs` asserts this for
//! every sampler.
//!
//! Blocks are claimed from a [`par::ChunkQueue`] so a block that drains
//! early (short walks) never idles its worker while another worker grinds
//! a hub-heavy block — the dynamic-scheduling analog of the per-walk
//! engine's chunked loop, but with per-worker scratch arenas that persist
//! across blocks.

use obs::{CounterHandle, HistogramHandle};
use par::{parallel_workers, ParConfig};
use tgraph::{NodeId, TemporalGraph, Time};

use super::{suffix_start, Output, StartSet};
use crate::sampler::PreparedSampler;
use crate::{WalkConfig, WalkRng};

/// How many frontier slots ahead the CSR offsets entry is prefetched.
/// First stage of the two-stage pipeline; must exceed
/// [`SEGMENT_PREFETCH_DIST`] so segment bounds are warm by the time the
/// second stage dereferences them.
pub const OFFSET_PREFETCH_DIST: usize = 16;

/// How many frontier slots ahead segment data (timestamps, destinations,
/// CDF slice) is prefetched — far enough to cover DRAM latency at a few
/// tens of nanoseconds per step, near enough that lines are rarely
/// evicted before use.
pub const SEGMENT_PREFETCH_DIST: usize = 4;

/// Minimum walks per block. Chunk sizes tuned for the per-walk engine
/// (tens to hundreds of walks) are too small for grouping to find
/// co-located walks, so blocks are clamped up to this floor; the scratch
/// arena stays ~100 KiB per worker, comfortably inside L2. Purely a
/// scheduling knob — output is block-size-independent.
pub const MIN_BLOCK: usize = 1024;

/// Per-worker scratch arena, reused across every block a worker claims.
/// All vectors are indexed by block-local walk slot except `counts`
/// (indexed by vertex, zero outside [`group_frontier`]) and `touched`
/// (the list of vertices whose counts are nonzero, used to reset them).
struct Scratch {
    /// Current vertex of each walk in the block.
    curr: Vec<NodeId>,
    /// Timestamp of the edge each walk last traversed.
    curr_time: Vec<Time>,
    /// Vertices written so far to each walk's output row.
    written: Vec<u32>,
    /// Per-walk RNG streams (identical to the per-walk engine's).
    rng: Vec<WalkRng>,
    /// Slots still walking, in last round's grouped order.
    frontier: Vec<u32>,
    /// Frontier counting-sorted by current vertex.
    grouped: Vec<u32>,
    /// Per-vertex occurrence counts / placement cursors.
    counts: Vec<u32>,
    /// Vertices with nonzero `counts`, in first-touch order.
    touched: Vec<NodeId>,
}

impl Scratch {
    fn new(num_nodes: usize) -> Self {
        Self {
            curr: Vec::new(),
            curr_time: Vec::new(),
            written: Vec::new(),
            rng: Vec::new(),
            frontier: Vec::new(),
            grouped: Vec::new(),
            counts: vec![0; num_nodes],
            touched: Vec::new(),
        }
    }
}

/// Runs the batched engine over `total` walk slots, writing the same
/// walks the per-walk engine would produce to `out`.
///
/// Blocks are disjoint slot ranges, so each output row is written by
/// exactly one worker (same aliasing argument as the per-walk engine's
/// chunks).
pub(super) fn run(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    par: &ParConfig,
    starts: StartSet<'_>,
    total: usize,
    out: Output,
) {
    let par = par.chunk_size(par.chunk().max(MIN_BLOCK));
    let stats = RoundStats::from_global();
    parallel_workers(&par, total, |queue| {
        let mut scratch = Scratch::new(g.num_nodes());
        while let Some(block) = queue.next_chunk() {
            run_block(g, cfg, sampler, starts, block, &mut scratch, out, &stats);
        }
    });
}

/// Handles for the per-round locality metrics, resolved once per bulk
/// run (all `None` — inlined no-ops — when the global recorder is off).
/// Frontier sizes go to a histogram one relaxed add per *round*; rounds,
/// distinct-vertex group counts, and block counts accumulate in worker
/// locals and flush once per *block*, so the per-hop path records
/// nothing at all.
struct RoundStats {
    frontier: HistogramHandle,
    rounds: CounterHandle,
    groups: CounterHandle,
    blocks: CounterHandle,
}

impl RoundStats {
    fn from_global() -> Self {
        let rec = obs::Recorder::global();
        Self {
            frontier: rec.histogram("twalk_frontier_size"),
            rounds: rec.counter("twalk_rounds_total"),
            groups: rec.counter("twalk_frontier_groups_total"),
            blocks: rec.counter("twalk_blocks_total"),
        }
    }
}

/// Advances every walk in `block` from seed to termination, one hop per
/// round, writing walk slot `start + j` to output row `start + j`.
#[allow(clippy::too_many_arguments)]
fn run_block(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    starts: StartSet<'_>,
    (start, end): (usize, usize),
    s: &mut Scratch,
    out: Output,
    stats: &RoundStats,
) {
    let nodes = out.nodes as *mut NodeId;
    let lengths = out.lengths as *mut u32;
    let nl = cfg.max_length;
    let block_len = end - start;
    let stride = starts.stride();

    s.curr.clear();
    s.curr_time.clear();
    s.written.clear();
    s.rng.clear();
    s.frontier.clear();

    // Seed the block: slot j holds global walk index start + j, whose
    // (walk, start) pair is carried as counters (one division per block).
    let mut w = start / stride;
    let mut i = start % stride;
    for j in 0..block_len {
        let v = starts.vertex(i);
        s.rng.push(WalkRng::from_stream(cfg.seed, w as u64, v as u64));
        s.curr.push(v);
        s.curr_time.push(cfg.start_time);
        s.written.push(1);
        // SAFETY: slot start + j lies in this worker's disjoint block.
        unsafe { *nodes.add((start + j) * nl) = v };
        s.frontier.push(j as u32);
        i += 1;
        if i == stride {
            i = 0;
            w += 1;
        }
    }

    // All walks in a block are in lockstep, so "is this the first hop"
    // is a property of the round, not of the walk.
    let mut first_hop = true;
    let mut rounds_local = 0u64;
    let mut groups_local = 0u64;
    for _round in 1..nl {
        if s.frontier.is_empty() {
            break;
        }
        let groups = group_frontier(s);
        if stats.frontier.is_enabled() {
            stats.frontier.record(s.frontier.len() as u64);
            rounds_local += 1;
            groups_local += groups as u64;
        }
        s.frontier.clear();
        let grouped = &s.grouped;
        for pos in 0..grouped.len() {
            if pos + OFFSET_PREFETCH_DIST < grouped.len() {
                g.prefetch_offsets(s.curr[grouped[pos + OFFSET_PREFETCH_DIST] as usize]);
            }
            if pos + SEGMENT_PREFETCH_DIST < grouped.len() {
                let v = s.curr[grouped[pos + SEGMENT_PREFETCH_DIST] as usize];
                g.prefetch_segment(v);
                sampler.prefetch(v);
            }
            let slot = grouped[pos] as usize;
            let v = s.curr[slot];
            let now = s.curr_time[slot];
            let (dsts, times) = g.neighbor_slices(v);
            let lo = suffix_start(times, cfg, now, first_hop);
            if lo >= dsts.len() {
                continue; // Algorithm 1 line 9: dead end — drop from frontier.
            }
            let pick = sampler.sample(v, times, lo, now, &mut s.rng[slot]);
            let next = dsts[pick];
            s.curr[slot] = next;
            s.curr_time[slot] = times[pick];
            let len = s.written[slot] as usize;
            // SAFETY: slot start + slot is in this worker's block and
            // len < nl (walks leave the frontier at nl vertices).
            unsafe { *nodes.add((start + slot) * nl + len) = next };
            s.written[slot] = (len + 1) as u32;
            s.frontier.push(slot as u32);
        }
        first_hop = false;
    }

    for j in 0..block_len {
        // SAFETY: disjoint block, as above.
        unsafe { *lengths.add(start + j) = s.written[j] };
    }
    stats.rounds.add(rounds_local);
    stats.groups.add(groups_local);
    stats.blocks.inc();
}

/// Counting-sorts `s.frontier` by current vertex into `s.grouped`.
///
/// Three passes over the frontier plus one over the touched-vertex list:
/// count occurrences (recording each vertex on first touch), turn counts
/// into placement cursors by a running prefix over the touched list in
/// discovery order, place slots, then zero the touched counts so the
/// arena is clean for the next round. Grouping order is irrelevant for
/// output (per-walk RNG streams); only the *within-walk* hop order
/// matters, and that is preserved by the round structure. Returns the
/// number of distinct vertices the frontier grouped onto — the
/// "batching efficiency" numerator (frontier / groups = mean walks
/// sharing one hot segment fetch).
fn group_frontier(s: &mut Scratch) -> usize {
    for &slot in &s.frontier {
        let v = s.curr[slot as usize] as usize;
        if s.counts[v] == 0 {
            s.touched.push(v as NodeId);
        }
        s.counts[v] += 1;
    }
    let mut offset = 0u32;
    for &v in &s.touched {
        let c = s.counts[v as usize];
        s.counts[v as usize] = offset;
        offset += c;
    }
    s.grouped.clear();
    s.grouped.resize(s.frontier.len(), 0);
    for &slot in &s.frontier {
        let v = s.curr[slot as usize] as usize;
        s.grouped[s.counts[v] as usize] = slot;
        s.counts[v] += 1;
    }
    for &v in &s.touched {
        s.counts[v as usize] = 0;
    }
    let groups = s.touched.len();
    s.touched.clear();
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_walks, TransitionSampler, WalkEngine};

    fn engines(cfg: WalkConfig) -> (crate::WalkSet, crate::WalkSet) {
        let g = tgraph::gen::preferential_attachment(500, 3, 17).undirected(true).build();
        let par = ParConfig::with_threads(4).chunk_size(64);
        let a = generate_walks(&g, &cfg.engine(WalkEngine::PerWalk), &par);
        let b = generate_walks(&g, &cfg.engine(WalkEngine::Batched), &par);
        (a, b)
    }

    #[test]
    fn batched_matches_per_walk_on_skewed_graph() {
        for sampler in [
            TransitionSampler::Uniform,
            TransitionSampler::Softmax,
            TransitionSampler::SoftmaxRecency,
            TransitionSampler::LinearTime,
        ] {
            let (a, b) = engines(WalkConfig::new(4, 8).sampler(sampler).seed(3));
            assert_eq!(a, b, "engines diverged for {sampler}");
        }
    }

    #[test]
    fn batched_handles_walk_length_one() {
        let (a, b) = engines(WalkConfig::new(2, 1).seed(9));
        assert_eq!(a, b);
        assert!(b.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn grouping_is_a_permutation_of_the_frontier() {
        let mut s = Scratch::new(5);
        s.curr = vec![3, 1, 3, 0, 1, 3];
        s.frontier = (0..6).collect();
        let groups = group_frontier(&mut s);
        assert_eq!(groups, 3, "three distinct vertices in the frontier");
        // First-touch order: vertex 3 (slots 0, 2, 5), 1 (slots 1, 4),
        // then 0 (slot 3).
        assert_eq!(s.grouped, vec![0, 2, 5, 1, 4, 3]);
        assert!(s.counts.iter().all(|&c| c == 0), "arena left dirty");
        assert!(s.touched.is_empty());
    }
}
