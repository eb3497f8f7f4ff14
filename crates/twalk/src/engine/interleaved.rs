//! Step-interleaved walk engine: a ring of in-flight walks per worker.
//!
//! The batched engine hides memory latency by *grouping* — walks on the
//! same vertex share one segment fetch per round, which pays off exactly
//! when segments are fat and walks pile onto hubs. On *sparse* graphs the
//! economics invert: a grouped fetch serves ~1 walk and ~1 cache line,
//! so the per-round counting sort is pure overhead on top of a miss that
//! nobody shares. This engine attacks that regime the way ThunderRW's
//! step-interleaved mode does: instead of *sharing* fetches, it
//! *overlaps* them, keeping several independent misses in flight per
//! worker with no grouping passes at all.
//!
//! Each worker holds a ring of [`crate::WalkConfig::ring`] in-flight walk
//! queries and sweeps it round-robin, advancing every live walk through a
//! two-stage pipeline. Both stages are issued from a single sweep visit,
//! but for *different* slots, so every fetch overlaps `LOOKAHEAD` other
//! walks' advances:
//!
//! 1. **Fetch** — issue software prefetches for the vertex of the slot
//!    `LOOKAHEAD` positions ahead in the ring: the CSR segment
//!    (timestamps + destinations) and the sampler's table slice for
//!    whatever [`crate::SamplingMethod`] that vertex was assigned. The
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
//! Output is **bit-identical** to the per-walk engine for any prepared
//! sampler: each `(walk, vertex)` pair owns its own
//! `WalkRng::from_stream` RNG, and a walk's draws still happen in hop
//! order (interleaving only changes *which walk* the worker touches
//! next, never the order of draws *within* a walk). The equivalence
//! suite in `tests/engine_equivalence.rs` asserts this across ring sizes
//! and thread counts.

use obs::{CounterHandle, HistogramHandle};
use par::{parallel_workers, ParConfig};
use tgraph::{NodeId, TemporalGraph, Time};

use super::{batched::MIN_BLOCK, suffix_start, Output, StartSet};
use crate::sampler::{PreparedSampler, SamplingMethod};
use crate::{WalkConfig, WalkRng};

/// Slot holds no walk (block drained past it).
const EMPTY: usize = usize::MAX;

/// How many ring positions ahead of the advancing slot the fetch stage
/// runs — the pipeline depth, in units of one walk-hop's worth of work.
/// Matches the batched engine's [`super::batched::SEGMENT_PREFETCH_DIST`]
/// rationale: far enough to cover memory latency, near enough that the
/// lines survive until use. Rings smaller than this degrade gracefully
/// (the distance clamps to `ring − 1`).
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

/// Runs the interleaved engine over `total` walk slots, writing the same
/// walks the per-walk engine would produce to `out`.
///
/// Blocks are disjoint slot ranges, so each output row is written by
/// exactly one worker (same aliasing argument as the other engines);
/// within a block, rows complete out of order as walks retire.
pub(super) fn run(
    g: &TemporalGraph,
    cfg: &WalkConfig,
    sampler: &PreparedSampler,
    par: &ParConfig,
    starts: StartSet<'_>,
    total: usize,
    out: Output,
) {
    // Same block floor as the batched engine: a ring cannot stay full on
    // a block smaller than itself, and tiny blocks cannot amortize the
    // seeding bookkeeping either.
    let par = par.chunk_size(par.chunk().max(MIN_BLOCK));
    let stats = RingStats::from_global();
    parallel_workers(&par, total, |queue| {
        let mut ring = Ring::new(cfg.ring.max(1));
        while let Some(block) = queue.next_chunk() {
            run_block(g, cfg, sampler, starts, block, &mut ring, out, &stats);
        }
    });
}

/// Handles for the pipeline metrics, resolved once per bulk run (all
/// no-ops when the global recorder is off). Occupancy is recorded once
/// per *sweep*; sweep, block, and per-method draw counts accumulate in
/// worker locals and flush once per *block*, so the per-hop path records
/// nothing at all.
struct RingStats {
    occupancy: HistogramHandle,
    sweeps: CounterHandle,
    blocks: CounterHandle,
    /// Draws by resolved sampling method: `[cdf, alias, rejection]`.
    draws: [CounterHandle; 3],
}

impl RingStats {
    fn from_global() -> Self {
        let rec = obs::Recorder::global();
        Self {
            occupancy: rec.histogram("twalk_ring_occupancy"),
            sweeps: rec.counter("twalk_ring_sweeps_total"),
            blocks: rec.counter("twalk_ring_blocks_total"),
            draws: [
                rec.counter("twalk_draws_total{method=\"cdf\"}"),
                rec.counter("twalk_draws_total{method=\"alias\"}"),
                rec.counter("twalk_draws_total{method=\"rejection\"}"),
            ],
        }
    }
}

/// Index into [`RingStats::draws`] for a resolved method.
fn method_slot(m: SamplingMethod) -> usize {
    match m {
        SamplingMethod::Alias => 1,
        SamplingMethod::Rejection => 2,
        _ => 0,
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
        let mut draws_local = [0u64; 3];
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
                    if record {
                        if let Some(m) = sampler.method_of(v) {
                            draws_local[method_slot(m)] += 1;
                        }
                    }
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
        for (h, n) in stats.draws.iter().zip(draws_local) {
            h.add(n);
        }
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
    use crate::{generate_walks, TransitionSampler, WalkEngine};

    fn engines(cfg: WalkConfig) -> (crate::WalkSet, crate::WalkSet) {
        let g = tgraph::gen::preferential_attachment(500, 3, 17).undirected(true).build();
        let par = ParConfig::with_threads(4).chunk_size(64);
        let a = generate_walks(&g, &cfg.engine(WalkEngine::PerWalk), &par);
        let b = generate_walks(&g, &cfg.engine(WalkEngine::Interleaved), &par);
        (a, b)
    }

    #[test]
    fn interleaved_matches_per_walk_on_skewed_graph() {
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
    fn interleaved_handles_walk_length_one() {
        // Every walk retires at the seed; the ring never fills.
        let (a, b) = engines(WalkConfig::new(2, 1).seed(9));
        assert_eq!(a, b);
        assert!(b.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn degenerate_ring_sizes_stay_bit_identical() {
        // ring = 1 serializes the pipeline (fetch → advance with nothing
        // in between); a ring much larger than the block leaves most
        // slots empty. Both must still produce per-walk output.
        for ring in [1usize, 3, 4096] {
            let (a, b) = engines(WalkConfig::new(2, 6).seed(13).ring(ring));
            assert_eq!(a, b, "ring {ring} diverged");
        }
    }
}
