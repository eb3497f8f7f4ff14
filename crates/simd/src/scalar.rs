//! Portable scalar reference kernels.
//!
//! These are the semantic ground truth for every vector backend: the
//! property tests in `tests/equivalence.rs` assert that the AVX2 and NEON
//! paths agree with these loops within f32 reassociation tolerance. They
//! are also the dispatch fallback on hardware without SIMD support, under
//! Miri (`cfg(miri)`), and when `SIMD_FORCE_SCALAR` is set.
//!
//! The loops are written in the 4-lane unrolled style the rest of the
//! workspace already used, so LLVM auto-vectorizes them where profitable —
//! "scalar" here means "no explicit intrinsics", not "no vector units".

use std::sync::atomic::{AtomicU32, Ordering};

/// Dot product `Σ a[i]·b[i]` with 4-way unrolled accumulation.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        for lane in 0..4 {
            acc[lane] += a[base + lane] * b[base + lane];
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in chunks * 4..a.len() {
        total += a[i] * b[i];
    }
    total
}

/// `y[i] += a · x[i]`.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y[i] = a · y[i] + b · x[i]` — the fused scale-then-accumulate step
/// (SGD momentum `v ← μv − lr·g` is `scale_accum(v, μ, −lr, g)`).
pub fn scale_accum(y: &mut [f32], a: f32, b: f32, x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = a * *yi + b * xi;
    }
}

/// `C = A · Bᵀ` where `a` is `m × k`, `bt` is `n × k` (i.e. `B`
/// pre-transposed) and `c` is `m × n`, all row-major and packed. `c` is
/// overwritten, not accumulated into.
pub fn gemm_transb(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cj) in crow.iter_mut().enumerate() {
            *cj = dot(arow, &bt[j * k..(j + 1) * k]);
        }
    }
}

/// `C = A · B`, then `epi` applied to every output, where `a` is `m × k`,
/// `b` is `k × n` and `c` is `m × n`, all row-major and packed. `c` is
/// overwritten. Each output row is built as `k` scaled-row updates.
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epi: crate::Epilogue<'_>,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        crow.fill(0.0);
        for p in 0..k {
            axpy(a[i * k + p], &b[p * n..(p + 1) * n], crow);
        }
        epi.apply(crow);
    }
}

/// `C += Aᵀ · B` where `a` is `m × k`, `b` is `m × n` and `c` is `k × n`,
/// all row-major and packed: one rank-1 update `C += a_rᵀ · b_r` per row
/// `r` — the weight gradient `Xᵀ·δ` of a dense layer.
pub fn gemm_transa_accum(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    for r in 0..m {
        let brow = &b[r * n..(r + 1) * n];
        for p in 0..k {
            axpy(a[r * k + p], brow, &mut c[p * n..(p + 1) * n]);
        }
    }
}

/// The window step of [`crate::sgns_window`]: gathers the `b` context
/// rows `In` and `s` target rows `Out` (target 0 labelled 1), computes
/// `G = (label − σ(In·Outᵀ))·lr`, `ΔIn = G·Out` and `ΔOut = Gᵀ·In`, then
/// adds each slot's update to its row with relaxed atomic
/// read-add-stores, context slots first.
#[allow(clippy::too_many_arguments)]
pub fn sgns_window(
    d: usize,
    stride: usize,
    syn0: &[AtomicU32],
    ctx: &[usize],
    syn1: &[AtomicU32],
    tgt: &[usize],
    sigmoid: crate::SigmoidLut<'_>,
    lr: f32,
) {
    let (b, s) = (ctx.len(), tgt.len());
    let len = (b + s) * d + b * s + s;
    let (mut stack, mut heap) = ([0.0; crate::WINDOW_STACK_FLOATS], Vec::new());
    let scratch = if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, 0.0);
        &mut heap[..]
    };
    let (inp, rest) = scratch.split_at_mut(b * d);
    let (out, rest) = rest.split_at_mut(s * d);
    let (g, col) = rest.split_at_mut(b * s);
    for (rows, table, buf) in [(ctx, syn0, &mut *inp), (tgt, syn1, &mut *out)] {
        for (&r, row) in rows.iter().zip(buf.chunks_exact_mut(d)) {
            for (x, cell) in row.iter_mut().zip(&table[r * stride..r * stride + d]) {
                *x = f32::from_bits(cell.load(Ordering::Relaxed));
            }
        }
    }
    for (j, grow) in g.chunks_exact_mut(s).enumerate() {
        let x = &inp[j * d..(j + 1) * d];
        for (k, gk) in grow.iter_mut().enumerate() {
            let label = if k == 0 { 1.0 } else { 0.0 };
            *gk = (label - sigmoid.get(dot(x, &out[k * d..(k + 1) * d]))) * lr;
        }
    }
    // One column of both tables at a time: `ΔOut` waits in `col` until
    // `ΔIn` has read the column's original targets.
    for e in 0..d {
        for (k, ck) in col.iter_mut().enumerate() {
            *ck = (0..b).map(|j| g[j * s + k] * inp[j * d + e]).sum();
        }
        for j in 0..b {
            inp[j * d + e] = (0..s).map(|k| g[j * s + k] * out[k * d + e]).sum();
        }
        for (k, &ck) in col.iter().enumerate() {
            out[k * d + e] = ck;
        }
    }
    for (rows, table, buf) in [(ctx, syn0, &*inp), (tgt, syn1, &*out)] {
        for (&r, delta) in rows.iter().zip(buf.chunks_exact(d)) {
            for (cell, &dx) in table[r * stride..r * stride + d].iter().zip(delta) {
                let x = f32::from_bits(cell.load(Ordering::Relaxed));
                cell.store((x + dx).to_bits(), Ordering::Relaxed);
            }
        }
    }
}
