//! Heap use of `GraphBuilder::build`, counted by a global allocator with
//! thread-local counters (tests run on parallel threads, and each
//! measures only its own; the graphs here stay below the builder's
//! parallel-sort threshold, so the whole build runs on the calling
//! thread).
//!
//! * An undirected build never holds a reversed copy of its input: its
//!   peak live heap is at most the input list plus the output CSR, plus
//!   a cursor per vertex, plus one segment of sort scratch.
//! * The build makes a fixed number of allocations, not a few per
//!   vertex.
//! * `extend_edges` on an empty builder adopts the caller's `Vec`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::{size_of, size_of_val};

use tgraph::{GraphBuilder, NodeId, TemporalEdge, TemporalGraph, Time};

/// Allocation count, live bytes and peak live bytes on this thread.
#[derive(Clone, Copy)]
struct Heap {
    allocs: usize,
    live: usize,
    peak: usize,
}

thread_local! {
    static HEAP: Cell<Heap> = const { Cell::new(Heap { allocs: 0, live: 0, peak: 0 }) };
}

/// Records `grown` bytes acquired (one new allocation when `fresh`) and
/// `freed` bytes released.
fn note(fresh: bool, grown: usize, freed: usize) {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = HEAP.try_with(|h| {
        let mut s = h.get();
        s.allocs += usize::from(fresh);
        // A block freed on another thread than the one that allocated it
        // would drive this below zero; saturate instead of wrapping.
        s.live = (s.live + grown).saturating_sub(freed);
        s.peak = s.peak.max(s.live);
        h.set(s);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the worst case: both blocks live at once.
        note(true, new_size, 0);
        note(false, 0, layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, 0, layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its output with the allocations it made and its
/// peak live heap above the live heap it started from.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = HEAP.with(|h| {
        let mut s = h.get();
        s.peak = s.live;
        h.set(s);
        s
    });
    let out = f();
    let end = HEAP.with(Cell::get);
    (out, end.allocs - start.allocs, end.peak - start.live)
}

fn csr_bytes(g: &TemporalGraph) -> usize {
    let (offsets, dsts, times) = g.csr_parts();
    size_of_val(offsets) + size_of_val(dsts) + size_of_val(times)
}

/// An undirected preferential-attachment graph on `n` vertices with its
/// edges shuffled, so every segment needs sorting.
fn staged(n: usize) -> GraphBuilder {
    let g = tgraph::gen::preferential_attachment(n, 4, 17).build();
    let mut edges: Vec<TemporalEdge> = g.edges().collect();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..edges.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        edges.swap(i, (state % (i as u64 + 1)) as usize);
    }
    GraphBuilder::new().extend_edges(edges).undirected(true)
}

#[test]
fn undirected_build_peak_is_input_plus_csr_plus_linear_terms() {
    for n in [2_000, 16_000] {
        let builder = staged(n);
        let input = builder.staged_edges() * size_of::<TemporalEdge>();
        let (g, _, peak) = measure(|| builder.build());
        let widest = g.max_degree();
        // The input list is already live when the build starts; it is
        // counted here so the bound reads as stated.
        let bound = input
            + csr_bytes(&g)
            + size_of::<usize>() * (g.num_nodes() + 1)
            + size_of::<(Time, NodeId, usize)>() * widest;
        assert!(
            input + peak <= bound,
            "n = {n}: peak {} B counting the input, bound {} B (input {input} B, CSR {} B)",
            input + peak,
            bound,
            csr_bytes(&g)
        );
    }
}

#[test]
fn build_allocations_do_not_grow_with_the_vertex_count() {
    let counts: Vec<usize> = [1_000, 8_000]
        .into_iter()
        .map(|n| {
            let builder = staged(n);
            let (_, allocs, _) = measure(|| builder.build());
            allocs
        })
        .collect();
    assert_eq!(counts[0], counts[1], "allocations per build at 1k and 8k vertices");
    assert!(counts[0] <= 8, "{} allocations per build", counts[0]);
}

#[test]
fn extend_edges_adopts_the_callers_vec() {
    let edges = vec![TemporalEdge::new(0, 1, 0.5); 1_000];
    let (builder, allocs, _) = measure(|| GraphBuilder::new().extend_edges(edges));
    assert_eq!(allocs, 0, "the edge list was copied");
    assert_eq!(builder.staged_edges(), 1_000);
}
