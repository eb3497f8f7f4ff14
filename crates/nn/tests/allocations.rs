//! Heap traffic of the classifier's hot paths, counted by a global
//! allocator with a thread-local counter (tests run on parallel threads,
//! and each measures only its own).
//!
//! * After warm-up a training batch — gather, forward, backward,
//!   `Sgd::step` — and the per-epoch validation pass allocate nothing:
//!   a fit over 120 batches × 3 epochs makes exactly as many allocations
//!   as a fit over 1 batch × 1 epoch.
//! * A forward pass runs in fixed-size row blocks: `predict_proba` over
//!   many rows allocates its output and a bounded scratch, not a copy of
//!   the input or a full-height activation matrix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nn::{Mlp, OutputHead, Tensor2, TrainOptions, Trainer};

thread_local! {
    /// (allocations, bytes requested) on this thread.
    static COUNT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes));
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, never the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// (allocations, bytes) made on this thread while `f` ran.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (n0, b0) = COUNT.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNT.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// `rows` deterministic feature rows and alternating binary targets.
fn data(rows: usize, dim: usize) -> (Tensor2, Vec<f32>) {
    let x = (0..rows * dim).map(|i| ((i * 7919) % 1000) as f32 / 500.0 - 1.0).collect();
    let y = (0..rows).map(|r| (r % 2) as f32).collect();
    (Tensor2::from_vec(rows, dim, x), y)
}

#[test]
fn training_batches_allocate_nothing_after_warm_up() {
    let (xv, yv) = data(300, 16);
    let fit = |rows: usize, epochs: usize| {
        let (x, y) = data(rows, 16);
        let mut mlp = Mlp::new(&[16, 64, 1], OutputHead::Binary, 1);
        let trainer = Trainer::new(TrainOptions { epochs, batch_size: 64, ..Default::default() });
        let (report, allocs, _) = measure(|| trainer.fit_binary(&mut mlp, &x, &y, &xv, &yv));
        assert_eq!(report.epochs.len(), epochs);
        allocs
    };
    // The first fit in a process also pays one-time lazy set-up (the
    // SIMD dispatch table reads the environment).
    fit(64, 1);
    let warm_up = fit(64, 1);
    let long = fit(64 * 120, 3);
    let extra_batches = 120 * 3 - 1;
    assert_eq!(
        long,
        warm_up,
        "{} allocations over {extra_batches} extra batches (≈{:.1} per batch)",
        long.saturating_sub(warm_up),
        long.saturating_sub(warm_up) as f64 / extra_batches as f64
    );
}

#[test]
fn forward_scratch_does_not_grow_with_rows() {
    let rows = 20_000;
    let (x, _) = data(rows, 16);
    let mlp = Mlp::new(&[16, 64, 1], OutputHead::Binary, 2);
    let (p, allocs, bytes) = measure(|| mlp.predict_proba(&x));
    assert_eq!(p.len(), rows);
    // The output itself, plus scratch for one block — not the 20 000 × 64
    // hidden activations (5 MB) a whole-matrix forward would hold.
    let output = rows * std::mem::size_of::<f32>();
    assert!(
        bytes < output + (256 << 10),
        "{bytes} bytes in {allocs} allocations for a {output}-byte result"
    );
}
