//! Step-interleaved walk engine: a ring of in-flight walks per worker.
//!
//! Once the walks' neighbor segments outgrow the last-level cache, the
//! per-walk loop stalls on a cache miss at nearly every hop — the paper
//! finds RW-P1 memory-latency-bound (§VI). This engine attacks that the
//! way ThunderRW's step-interleaved mode does: instead of waiting on one
//! miss at a time, it *overlaps* them, keeping several independent walks
//! in flight per worker.
//!
//! Each worker holds a ring of `RING` (8) in-flight walk queries and
//! sweeps it round-robin, advancing every live walk through a two-stage
//! pipeline. Both stages are issued from a single sweep visit, but for
//! *different* slots, so every fetch overlaps `LOOKAHEAD` other walks'
//! advances:
//!
//! 1. **Fetch** — issue software prefetches for the vertex of the slot
//!    `LOOKAHEAD` positions ahead in the ring: the CSR segment
//!    (timestamps + destinations) and, for a CDF vertex, the sampler's
//!    table slice. The
//!    CSR *offsets* entry was already prefetched when that walk arrived
//!    at the vertex (a prefetch cannot chase a pointer, so the offsets
//!    load is warmed one stage earlier than the segment it unlocks).
//! 2. **Advance** — the visited slot's own segment was fetched
//!    `LOOKAHEAD` visits ago and has had that many other walks' work
//!    to arrive: compute the valid suffix, sample the transition, write
//!    the output row, and either retire the walk (dead end / length cap)
//!    or move it and issue the next offsets prefetch.
//!
//! A retired slot immediately seeds the next walk from the worker's
//! block, so the ring stays full until the block drains — occupancy,
//! exported as `twalk_ring_occupancy`, is the direct measure of how much
//! memory-level parallelism the engine sustains.
//!
//! Output is **bit-identical** to the serial oracle for any prepared
//! sampler: each `(walk, vertex)` pair owns its own
//! `WalkRng::from_stream` RNG, and a walk's draws still happen in hop
//! order (interleaving only changes *which walk* the worker touches
//! next, never the order of draws *within* a walk). The unit tests below
//! assert this across ring sizes, thread counts and chunk sizes.

use obs::{CounterHandle, HistogramHandle};
use par::{parallel_workers, ParConfig};
use tgraph::{NodeId, TemporalGraph, Time};

use super::{suffix_start, Output, StartSet};
use crate::sampler::PreparedSampler;
use crate::{WalkConfig, WalkRng};

/// Slot holds no walk (block drained past it).
const EMPTY: usize = usize::MAX;

/// Minimum walks per block. Chunk sizes tuned for the per-walk loop (tens
/// to hundreds of walks) cannot keep a ring full or amortize the seeding
/// bookkeeping, so blocks are clamped up to this floor, and runs with
/// fewer walks than one block stay on the per-walk loop. Purely a
/// scheduling knob: output is block-size-independent.
pub(super) const MIN_BLOCK: usize = 1024;

/// In-flight walks per worker. Measured as the sweet spot on the sparse
/// benchmark graph (DESIGN.md §11): enough independent queries to keep
/// several misses in flight, few enough that a sweep revisits a slot
/// while its prefetched lines are still resident.
pub(super) const RING: usize = 8;

/// How many ring positions ahead of the advancing slot the fetch stage
/// runs — the pipeline depth, in units of one walk-hop's worth of work:
/// far enough to cover memory latency, near enough that the lines
/// survive until use. Rings smaller than this degrade gracefully (the
/// distance clamps to `ring − 1`).
const LOOKAHEAD: usize = 4;

/// The per-worker ring, struct-of-arrays so the sweep walks a handful of
/// dense vectors instead of striding over fat slot structs. All vectors
/// are indexed by ring slot; `walk` holds the global walk index or
/// [`EMPTY`].
struct Ring {
    walk: Vec<usize>,
    curr: Vec<NodeId>,
    curr_time: Vec<Time>,
    written: Vec<u32>,
    rng: Vec<WalkRng>,
    first_hop: Vec<bool>,
    /// `true` once the fetch stage has run for the slot's current vertex,
    /// so the lookahead never issues the same prefetches twice.
    fetched: Vec<bool>,
}

impl Ring {
    fn new(slots: usize) -> Self {
        Self {
            walk: vec![EMPTY; slots],
            curr: vec![0; slots],
            curr_time: vec![0.0; slots],
            written: vec![0; slots],
            rng: vec![WalkRng::new(0); slots],
            first_hop: vec![false; slots],
            fetched: vec![false; slots],
        }
    }

    /// Raw views over the ring arrays for the per-visit hot path: the
    /// sweep touches up to nine slot fields per hop, and bounds checks
    /// on seven separate vectors are measurable overhead at sparse-graph
    /// hop costs. Exclusively borrows the ring, so the pointers are the
    /// only live access path.
    fn ptrs(&mut self) -> RingPtrs<'_> {
        RingPtrs {
            slots: self.walk.len(),
            walk: self.walk.as_mut_ptr(),
            curr: self.curr.as_mut_ptr(),
            curr_time: self.curr_time.as_mut_ptr(),
            written: self.written.as_mut_ptr(),
            rng: self.rng.as_mut_ptr(),
            first_hop: self.first_hop.as_mut_ptr(),
            fetched: self.fetched.as_mut_ptr(),
            _ring: std::marker::PhantomData,
        }
    }
}

/// Unchecked view over a [`Ring`]'s arrays, valid while the borrow on
/// the ring lives.
///
/// SAFETY invariants: every array holds exactly `slots` elements for the
/// view's lifetime (the vectors are sized at [`Ring::new`] and never
/// resized), and callers only pass indices in `0..slots`.
struct RingPtrs<'a> {
    slots: usize,
    walk: *mut usize,
    curr: *mut NodeId,
    curr_time: *mut Time,
    written: *mut u32,
    rng: *mut WalkRng,
    first_hop: *mut bool,
    fetched: *mut bool,
    _ring: std::marker::PhantomData<&'a mut Ring>,
}

/// Where the next seed comes from: the worker's claimed block `[..end)`
/// with the walk-number / start-index counters carried so the seeding
/// path stays division-free (one division per block). Walk `idx` writes
/// output row `idx`.
struct SeedCursor {
    next: usize,
    end: usize,
    w: usize,
    i: usize,
    stride: usize,
}

/// Runs the interleaved engine over `total` walk slots with `ring`
/// in-flight walks per worker, writing the same walks the per-walk loop
/// would produce to `out`.
///
/// Blocks are disjoint slot ranges, so each output row is written by
/// exactly one worker (same aliasing argument as the per-walk loop);
/// within a block, rows complete out of order as walks retire.
#[allow(clippy::too_many_arguments)]
pub(super) fn run(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    par: &ParConfig,
    starts: StartSet<'_>,
    total: usize,
    ring: usize,
    out: Output,
) {
    debug_assert!(ring >= 1, "the walk ring needs at least one slot");
    // A ring cannot stay full on a block smaller than itself, and tiny
    // blocks cannot amortize the seeding bookkeeping either.
    let par = par.chunk_size(par.chunk().max(MIN_BLOCK));
    let stats = RingStats::from_global();
    parallel_workers(&par, total, |queue| {
        let mut ring = Ring::new(ring);
        while let Some(block) = queue.next_chunk() {
            run_block(g, cfg, sampler, starts, block, &mut ring, out, &stats);
        }
    });
}

/// Handles for the pipeline metrics, resolved once per bulk run (all
/// no-ops when the global recorder is off). Occupancy is recorded once
/// per *sweep*; sweep and block counts accumulate in worker locals and
/// flush once per *block*, so the per-hop path records nothing at all.
struct RingStats {
    occupancy: HistogramHandle,
    sweeps: CounterHandle,
    blocks: CounterHandle,
}

impl RingStats {
    fn from_global() -> Self {
        let rec = obs::Recorder::global();
        Self {
            occupancy: rec.histogram("twalk_ring_occupancy"),
            sweeps: rec.counter("twalk_ring_sweeps_total"),
            blocks: rec.counter("twalk_ring_blocks_total"),
        }
    }
}

/// Drains one block through the ring: seed until full, sweep until empty.
#[allow(clippy::too_many_arguments)]
fn run_block(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    starts: StartSet<'_>,
    (start, end): (usize, usize),
    r: &mut Ring,
    out: Output,
    stats: &RingStats,
) {
    let nodes = out.nodes as *mut NodeId;
    let lengths = out.lengths as *mut u32;
    let nl = cfg.max_length;
    let stride = starts.stride();
    let mut cur = SeedCursor { next: start, end, w: start / stride, i: start % stride, stride };
    let r = r.ptrs();
    let slots = r.slots;

    // SAFETY (all unchecked ring accesses below): `slot` iterates
    // `0..slots`, `ahead` is reduced into `0..slots` by the conditional
    // subtract, and every ring array holds exactly `slots` elements
    // (see [`RingPtrs`]). The output writes through `nodes` / `lengths`
    // stay inside this worker's disjoint block, and `len < nl` because
    // walks retire at `nl` written vertices.
    unsafe {
        let mut live = 0usize;
        for slot in 0..slots {
            if seed_slot(&mut cur, &r, slot, starts, cfg, g, sampler, nodes, lengths) {
                live += 1;
            } else {
                *r.walk.add(slot) = EMPTY;
            }
        }

        let record = stats.occupancy.is_enabled();
        let mut sweeps_local = 0u64;
        // Pipeline depth, clamped so the lookahead index stays in-ring
        // for degenerate ring sizes (ring = 1 collapses to
        // fetch-then-advance on the same visit).
        let dist = LOOKAHEAD.min(slots - 1);
        // Warm the first `dist` slots so the opening advances are not the
        // only ones whose fetch stage never ran; after this, the in-sweep
        // lookahead keeps every slot fetched `dist` visits before its
        // advance (retire-path refills included).
        for slot in 0..dist {
            if *r.walk.add(slot) != EMPTY {
                g.prefetch_segment(*r.curr.add(slot));
                sampler.prefetch(*r.curr.add(slot));
                *r.fetched.add(slot) = true;
            }
        }
        while live > 0 {
            if record {
                stats.occupancy.record(live as u64);
                sweeps_local += 1;
            }
            for slot in 0..slots {
                // Fetch stage for the slot `dist` positions ahead: warm
                // its segment and table lines while this visit's advance
                // (and the next `dist − 1` visits' work) hides the
                // latency.
                let ahead = slot + dist;
                let ahead = if ahead >= slots { ahead - slots } else { ahead };
                if *r.walk.add(ahead) != EMPTY && !*r.fetched.add(ahead) {
                    let av = *r.curr.add(ahead);
                    g.prefetch_segment(av);
                    sampler.prefetch(av);
                    *r.fetched.add(ahead) = true;
                }
                let idx = *r.walk.add(slot);
                if idx == EMPTY {
                    continue;
                }
                // Advance stage.
                let v = *r.curr.add(slot);
                let now = *r.curr_time.add(slot);
                let (dsts, times) = g.neighbor_slices(v);
                let lo = suffix_start(times, cfg, now, *r.first_hop.add(slot));
                if lo < dsts.len() {
                    let pick = sampler.sample(v, times, lo, now, &mut *r.rng.add(slot));
                    let next = dsts[pick];
                    *r.curr.add(slot) = next;
                    *r.curr_time.add(slot) = times[pick];
                    *r.first_hop.add(slot) = false;
                    let len = *r.written.add(slot) as usize;
                    *nodes.add(idx * nl + len) = next;
                    *r.written.add(slot) = (len + 1) as u32;
                    if len + 1 < nl {
                        g.prefetch_offsets(next);
                        sampler.prefetch_offsets(next);
                        *r.fetched.add(slot) = false;
                        continue;
                    }
                }
                // Retire (dead end or length cap) and refill the slot.
                *lengths.add(idx) = *r.written.add(slot);
                if !seed_slot(&mut cur, &r, slot, starts, cfg, g, sampler, nodes, lengths) {
                    *r.walk.add(slot) = EMPTY;
                    live -= 1;
                }
            }
        }
        stats.sweeps.add(sweeps_local);
        stats.blocks.inc();
    }
}

/// Claims the next walk from the block and seeds it into `slot`, issuing
/// the offsets prefetch for its start vertex. Length-1 walks complete at
/// the seed and are retired inline without ever occupying the slot.
/// Returns `false` when the block is exhausted.
///
/// # Safety
///
/// `slot < r.slots`, and `nodes` / `lengths` must cover every walk index
/// the cursor can claim (they address the full output matrix; the
/// cursor's block is a subrange of it).
#[allow(clippy::too_many_arguments)]
unsafe fn seed_slot(
    cur: &mut SeedCursor,
    r: &RingPtrs<'_>,
    slot: usize,
    starts: StartSet<'_>,
    cfg: &WalkConfig,
    g: &TemporalGraph,
    sampler: &PreparedSampler,
    nodes: *mut NodeId,
    lengths: *mut u32,
) -> bool {
    let nl = cfg.max_length;
    while cur.next < cur.end {
        let idx = cur.next;
        let v = starts.vertex(cur.i);
        let wn = cur.w as u64;
        cur.next += 1;
        cur.i += 1;
        if cur.i == cur.stride {
            cur.i = 0;
            cur.w += 1;
        }
        // SAFETY: `idx` lies in this worker's disjoint block and
        // `slot < r.slots` (caller contract).
        unsafe {
            *nodes.add(idx * nl) = v;
            if nl == 1 {
                *lengths.add(idx) = 1;
                continue;
            }
            *r.walk.add(slot) = idx;
            *r.curr.add(slot) = v;
            *r.curr_time.add(slot) = cfg.start_time;
            *r.written.add(slot) = 1;
            *r.rng.add(slot) = WalkRng::from_stream(cfg.seed, wn, v as u64);
            *r.first_hop.add(slot) = true;
            *r.fetched.add(slot) = false;
        }
        g.prefetch_offsets(v);
        sampler.prefetch_offsets(v);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serial, with_output};
    use crate::{TransitionSampler, WalkSet};
    use tgraph::{GraphBuilder, TemporalEdge};

    const BIASES: [TransitionSampler; 4] = [
        TransitionSampler::Uniform,
        TransitionSampler::Softmax,
        TransitionSampler::SoftmaxRecency,
        TransitionSampler::LinearTime,
    ];

    /// The ring over `starts`, output as a walk set.
    fn ring_run(
        g: &TemporalGraph,
        cfg: &WalkConfig,
        sampler: &PreparedSampler,
        par: &ParConfig,
        starts: StartSet<'_>,
        ring: usize,
    ) -> WalkSet {
        with_output(cfg, sampler, starts, |total, out| {
            run(g, cfg, sampler, par, starts, total, ring, out)
        })
    }

    /// Asserts that the ring matches the serial oracle on a full run and
    /// on a refresh from repeated sources, for every bias, at threads
    /// {1, 4} × chunk sizes {1, 13, 64} × ring sizes {1, 3, 8, 4096}.
    /// Ring 1 serializes the pipeline; ring 4096 is larger than any
    /// block, so most slots stay empty.
    fn assert_ring_matches_oracle(name: &str, g: &TemporalGraph, cfg: WalkConfig) {
        let n = g.num_nodes() as NodeId;
        let sources = [0, 5 % n, 0, n - 1, 17 % n, 5 % n, n / 2];
        for bias in BIASES {
            let cfg = cfg.sampler(bias);
            let sampler = bias.prepare(g);
            for starts in [StartSet::AllVertices(g.num_nodes()), StartSet::Sources(&sources)] {
                let want = serial(g, &cfg, &sampler, starts);
                for (threads, chunk, ring) in (0..24)
                    .map(|i| ([1, 4][i / 12], [1, 13, 64][i / 4 % 3], [1, 3, RING, 4096][i % 4]))
                {
                    let par = ParConfig::with_threads(threads).chunk_size(chunk);
                    assert_eq!(
                        ring_run(g, &cfg, &sampler, &par, starts, ring),
                        want,
                        "{name}: {bias} {starts:?} diverged at {threads} threads, \
                         chunk {chunk}, ring {ring}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_matches_the_oracle_on_the_zoo() {
        let mut chain = GraphBuilder::new();
        for i in 0..120u32 {
            chain = chain.add_edge(TemporalEdge::new(i, i + 1, f64::from(i) / 120.0));
        }
        let isolated = GraphBuilder::new()
            .add_edge(TemporalEdge::new(0, 1, 0.2))
            .add_edge(TemporalEdge::new(1, 2, 0.4))
            .add_edge(TemporalEdge::new(2, 0, 0.6))
            .num_nodes(200);
        // A hub with parallel spokes at varied times, some of them back.
        let mut star = GraphBuilder::new();
        for i in 0..600u32 {
            star = star.add_edge(TemporalEdge::new(0, 1 + i % 40, f64::from(i % 97) / 97.0));
            if i % 3 == 0 {
                star = star.add_edge(TemporalEdge::new(1 + i % 40, 0, f64::from(i % 89) / 89.0));
            }
        }
        let zoo = [
            ("erdos-renyi", tgraph::gen::erdos_renyi(300, 3_000, 5)),
            ("pref-attach", tgraph::gen::preferential_attachment(400, 3, 7).undirected(true)),
            ("chain", chain),
            ("isolated-tail", isolated),
            ("star", star),
        ];
        for (name, g) in zoo {
            assert_ring_matches_oracle(name, &g.build(), WalkConfig::new(4, 7).seed(29));
        }
    }

    #[test]
    fn ring_matches_the_oracle_off_the_default_config() {
        let g = tgraph::gen::preferential_attachment(350, 3, 11).undirected(true).build();
        // Length 1 retires every walk at its seed, so the ring never fills.
        assert_ring_matches_oracle("length 1", &g, WalkConfig::new(3, 1).seed(9));
        let cfg = WalkConfig::new(3, 8).seed(41);
        assert_ring_matches_oracle("static", &g, cfg.respect_time(false));
        assert_ring_matches_oracle("start time", &g, cfg.start_time(0.35));
    }

    /// A graph from one of the fuzz `walk` target's four topology
    /// families: arbitrary multi-edges, a chain, a star with parallel
    /// spokes, or a dense pocket with a bridge and an isolated tail.
    fn random_graph(rng: &mut WalkRng) -> TemporalGraph {
        let n = 2 + rng.next_bounded(24);
        let family = rng.next_bounded(4);
        let pocket = (n / 2).max(2);
        let edges = if family == 1 { n - 1 } else { rng.next_bounded(80) };
        let mut b = GraphBuilder::new().num_nodes(n);
        for i in 0..edges {
            let (src, dst) = match family {
                0 => (rng.next_bounded(n), rng.next_bounded(n)),
                1 => (i, i + 1),
                2 if rng.next_bounded(4) == 0 => (1 + rng.next_bounded(n - 1), 0),
                2 => (0, 1 + rng.next_bounded(n - 1)),
                _ => (rng.next_bounded(pocket), rng.next_bounded(pocket)),
            };
            if src != dst {
                b = b.add_edge(TemporalEdge::new(src as NodeId, dst as NodeId, rng.next_f64()));
            }
        }
        if family == 3 && n > pocket {
            b = b.add_edge(TemporalEdge::new(0, pocket as NodeId, rng.next_f64()));
        }
        b.build()
    }

    #[test]
    fn ring_matches_the_oracle_on_random_topologies() {
        let mut rng = WalkRng::new(0x5eed);
        for case in 0..200 {
            let g = random_graph(&mut rng);
            let bias = BIASES[case % BIASES.len()];
            let cfg = WalkConfig::new(1 + rng.next_bounded(3), 1 + rng.next_bounded(7))
                .sampler(bias)
                .seed(rng.next_u64());
            let sampler = bias.prepare(&g);
            let starts = StartSet::AllVertices(g.num_nodes());
            let (threads, chunk, ring) =
                (1 + rng.next_bounded(4), 1 + rng.next_bounded(33), 1 + rng.next_bounded(9));
            let par = ParConfig::with_threads(threads).chunk_size(chunk);
            assert_eq!(
                ring_run(&g, &cfg, &sampler, &par, starts, ring),
                serial(&g, &cfg, &sampler, starts),
                "case {case}: {} nodes / {} edges, {bias}, ring {ring}",
                g.num_nodes(),
                g.num_edges()
            );
        }
    }
}
