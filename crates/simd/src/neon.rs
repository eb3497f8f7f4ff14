//! NEON kernels for aarch64.
//!
//! # Safety
//!
//! Mirrors `x86.rs`: every function is `#[target_feature(enable =
//! "neon")]` and only reachable through the dispatch table after
//! `is_aarch64_feature_detected!("neon")` succeeded (NEON is mandatory on
//! aarch64, but the check keeps the selection logic uniform). All pointer
//! arithmetic is bounded by the source slice lengths; NEON `vld1q/vst1q`
//! have no alignment requirement beyond element alignment.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::aarch64::*;

/// Dot product with two 4-lane FMA accumulators.
#[target_feature(enable = "neon")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i + 8 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
        i += 8;
    }
    if i + 4 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
        i += 4;
    }
    let mut total = vaddvq_f32(vaddq_f32(acc0, acc1));
    while i < n {
        total += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    total
}

/// `y += a · x`.
#[target_feature(enable = "neon")]
pub unsafe fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = vdupq_n_f32(a);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let r = vfmaq_f32(vld1q_f32(yp.add(i)), va, vld1q_f32(xp.add(i)));
        vst1q_f32(yp.add(i), r);
        i += 4;
    }
    while i < n {
        *yp.add(i) += a * *xp.add(i);
        i += 1;
    }
}

/// `y = a·y + b·x`.
#[target_feature(enable = "neon")]
pub unsafe fn scale_accum(y: &mut [f32], a: f32, b: f32, x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = vdupq_n_f32(a);
    let vb = vdupq_n_f32(b);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let scaled = vmulq_f32(va, vld1q_f32(yp.add(i)));
        let r = vfmaq_f32(scaled, vb, vld1q_f32(xp.add(i)));
        vst1q_f32(yp.add(i), r);
        i += 4;
    }
    while i < n {
        *yp.add(i) = a * *yp.add(i) + b * *xp.add(i);
        i += 1;
    }
}

/// Register-blocked `C = A · Bᵀ` with 1×4 column blocking (see `x86.rs`).
#[target_feature(enable = "neon")]
pub unsafe fn gemm_transb(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let ap = a.as_ptr();
    let bp = bt.as_ptr();
    let cp = c.as_mut_ptr();
    for i in 0..m {
        let ar = ap.add(i * k);
        let cr = cp.add(i * n);
        let mut j = 0;
        while j + 4 <= n {
            let b0 = bp.add(j * k);
            let b1 = bp.add((j + 1) * k);
            let b2 = bp.add((j + 2) * k);
            let b3 = bp.add((j + 3) * k);
            let mut acc0 = vdupq_n_f32(0.0);
            let mut acc1 = vdupq_n_f32(0.0);
            let mut acc2 = vdupq_n_f32(0.0);
            let mut acc3 = vdupq_n_f32(0.0);
            let mut p = 0;
            while p + 4 <= k {
                let av = vld1q_f32(ar.add(p));
                acc0 = vfmaq_f32(acc0, av, vld1q_f32(b0.add(p)));
                acc1 = vfmaq_f32(acc1, av, vld1q_f32(b1.add(p)));
                acc2 = vfmaq_f32(acc2, av, vld1q_f32(b2.add(p)));
                acc3 = vfmaq_f32(acc3, av, vld1q_f32(b3.add(p)));
                p += 4;
            }
            let mut s0 = vaddvq_f32(acc0);
            let mut s1 = vaddvq_f32(acc1);
            let mut s2 = vaddvq_f32(acc2);
            let mut s3 = vaddvq_f32(acc3);
            while p < k {
                let av = *ar.add(p);
                s0 += av * *b0.add(p);
                s1 += av * *b1.add(p);
                s2 += av * *b2.add(p);
                s3 += av * *b3.add(p);
                p += 1;
            }
            *cr.add(j) = s0;
            *cr.add(j + 1) = s1;
            *cr.add(j + 2) = s2;
            *cr.add(j + 3) = s3;
            j += 4;
        }
        while j < n {
            *cr.add(j) = dot(
                core::slice::from_raw_parts(ar, k),
                core::slice::from_raw_parts(bp.add(j * k), k),
            );
            j += 1;
        }
    }
}
