//! AVX2 + FMA kernels for x86-64.
//!
//! # Safety
//!
//! Every function here is `#[target_feature(enable = "avx2", enable =
//! "fma")]` and therefore `unsafe` to call: the caller must guarantee the
//! CPU supports both features. The only caller is the dispatch table in
//! `lib.rs`, which selects this module strictly after
//! `is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")`
//! returns true, so the contract holds for the process lifetime (CPU
//! features cannot disappear at runtime).
//!
//! Memory safety inside the kernels is bounds-driven, not type-driven: all
//! pointer arithmetic stays within `slice.len()` elements of the slice the
//! pointer was derived from (`while i + W <= n` main loops; for the tail,
//! scalar remainder loops or `maskload`/`maskstore`, whose masked-out
//! lanes are never accessed, from a pointer to an in-bounds element), and
//! unaligned loads/stores (`loadu`/`storeu`) are used throughout so no
//! alignment precondition exists. See DESIGN.md §10 for the full argument.

#![allow(unsafe_op_in_unsafe_fn)]

#[cfg(target_arch = "x86")]
use core::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Horizontal sum of the 8 lanes of `v`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum256(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let shuf = _mm_movehdup_ps(s);
    let sums = _mm_add_ps(s, shuf);
    let shuf2 = _mm_movehl_ps(shuf, sums);
    _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
}

/// Dot product with two 8-lane FMA accumulators.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        acc1 =
            _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 8)), _mm256_loadu_ps(bp.add(i + 8)), acc1);
        i += 16;
    }
    if i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        i += 8;
    }
    let mut total = hsum256(_mm256_add_ps(acc0, acc1));
    while i < n {
        total += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    total
}

/// `y += a · x` with 8-lane FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm256_set1_ps(a);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    // 2×8 unroll: the two FMAs are independent, halving loop-control
    // overhead on this store-bound kernel.
    while i + 16 <= n {
        let r0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
        let r1 =
            _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i + 8)), _mm256_loadu_ps(yp.add(i + 8)));
        _mm256_storeu_ps(yp.add(i), r0);
        _mm256_storeu_ps(yp.add(i + 8), r1);
        i += 16;
    }
    if i + 8 <= n {
        let r = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
        _mm256_storeu_ps(yp.add(i), r);
        i += 8;
    }
    while i < n {
        *yp.add(i) += a * *xp.add(i);
        i += 1;
    }
}

/// `y = a·y + b·x` with 8-lane FMA.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn scale_accum(y: &mut [f32], a: f32, b: f32, x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm256_set1_ps(a);
    let vb = _mm256_set1_ps(b);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let scaled = _mm256_mul_ps(va, _mm256_loadu_ps(yp.add(i)));
        let r = _mm256_fmadd_ps(vb, _mm256_loadu_ps(xp.add(i)), scaled);
        _mm256_storeu_ps(yp.add(i), r);
        i += 8;
    }
    while i < n {
        *yp.add(i) = a * *yp.add(i) + b * *xp.add(i);
        i += 1;
    }
}

/// The 8 horizontal sums of `v`, one per lane: lane `j` is `Σ v[j]`. Two
/// rounds of `hadd` and one cross-half add do all eight reductions at once,
/// about a fifth of the work of eight separate [`hsum256`]s.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum8(v: [__m256; 8]) -> __m256 {
    let q0 = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
    let q1 = _mm256_hadd_ps(_mm256_hadd_ps(v[4], v[5]), _mm256_hadd_ps(v[6], v[7]));
    // q0 = [Σ₀₋₃ v0..v3 | Σ₄₋₇ v0..v3], q1 likewise for v4..v7.
    _mm256_add_ps(_mm256_permute2f128_ps(q0, q1, 0x20), _mm256_permute2f128_ps(q0, q1, 0x31))
}

/// One `MR × NR` tile (`MR ≤ 2`, `NR ≤ 4`) of `C = A · Bᵀ` at `(i, j)`:
/// each 8-lane `k` step loads `MR` rows of `A` and `NR` rows of `Bᵀ` and
/// FMAs every pair, the `k` tail is one masked step, and all `MR·NR`
/// dots reduce together in one [`hsum8`].
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn transb_tile<const MR: usize, const NR: usize>(
    a: *const f32,
    bt: *const f32,
    c: *mut f32,
    (n, k): (usize, usize),
    (i, j): (usize, usize),
) {
    let mut acc = [[_mm256_setzero_ps(); NR]; MR];
    let full = _mm256_set1_epi32(-1);
    let mut p = 0;
    while p < k {
        let masked = p + 8 > k;
        let mask = if masked { tail_mask(k - p) } else { full };
        let bv: [__m256; NR] =
            core::array::from_fn(|q| load(bt.add((j + q) * k + p), masked, mask));
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = load(a.add((i + r) * k + p), masked, mask);
            for (acc, &bv) in acc.iter_mut().zip(&bv) {
                *acc = _mm256_fmadd_ps(av, bv, *acc);
            }
        }
        p += 8;
    }
    // Lane r·4 + q holds C[i + r][j + q].
    let sums = hsum8(core::array::from_fn(|l| match (l / 4, l % 4) {
        (r, q) if r < MR && q < NR => acc[r][q],
        _ => _mm256_setzero_ps(),
    }));
    if MR == 2 && NR == 4 {
        _mm_storeu_ps(c.add(i * n + j), _mm256_castps256_ps128(sums));
        _mm_storeu_ps(c.add((i + 1) * n + j), _mm256_extractf128_ps(sums, 1));
    } else {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), sums);
        for r in 0..MR {
            for q in 0..NR {
                *c.add((i + r) * n + j + q) = lanes[r * 4 + q];
            }
        }
    }
}

/// Every tile of `MR` rows starting at row `i`: 4-wide, then the ragged
/// remainder of columns.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn transb_rows<const MR: usize>(
    a: *const f32,
    bt: *const f32,
    c: *mut f32,
    nk: (usize, usize),
    i: usize,
) {
    let n = nk.0;
    let mut j = 0;
    while j + 4 <= n {
        transb_tile::<MR, 4>(a, bt, c, nk, (i, j));
        j += 4;
    }
    match n - j {
        3 => transb_tile::<MR, 3>(a, bt, c, nk, (i, j)),
        2 => transb_tile::<MR, 2>(a, bt, c, nk, (i, j)),
        1 => transb_tile::<MR, 1>(a, bt, c, nk, (i, j)),
        _ => {}
    }
}

/// Register-tiled `C = A · Bᵀ` microkernel: 2 × 4 output tiles, so each
/// step's 6 loads feed 8 FMAs, and one combined reduction per tile in
/// place of eight horizontal sums — which dominate when `k` is short.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_transb(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let (a, bt, c) = (a.as_ptr(), bt.as_ptr(), c.as_mut_ptr());
    let mut i = 0;
    while i + 2 <= m {
        transb_rows::<2>(a, bt, c, (n, k), i);
        i += 2;
    }
    if i < m {
        transb_rows::<1>(a, bt, c, (n, k), i);
    }
}

/// Lanes `0..rem` set, the rest clear: the mask of a ragged tail.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail_mask(rem: usize) -> __m256i {
    debug_assert!(rem < 8);
    _mm256_cmpgt_epi32(_mm256_set1_epi32(rem as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

/// Loads 8 lanes at `p`, or only the `mask`ed ones (the rest read as 0
/// and are never touched, so a ragged tail may end at the slice's end).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load(p: *const f32, masked: bool, mask: __m256i) -> __m256 {
    if masked {
        _mm256_maskload_ps(p, mask)
    } else {
        _mm256_loadu_ps(p)
    }
}

/// Stores 8 lanes at `p`, or only the `mask`ed ones.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store(p: *mut f32, v: __m256, masked: bool, mask: __m256i) {
    if masked {
        _mm256_maskstore_ps(p, mask, v)
    } else {
        _mm256_storeu_ps(p, v)
    }
}

/// One strided GEMM `C[i, j] (+)= Σ_s A(i, s) · B[s, j]` over `rows ×
/// cols` outputs and `steps` terms, where `A(i, s) = a[i·ars + s·aps]`
/// and `B`, `C` are row-major with row strides `ldb`, `ldc`. The plain
/// form `A·B` is `ars = k, aps = 1`; the transposed form `Aᵀ·B` is
/// `ars = 1, aps = k` — the same microkernel reads either layout in
/// place. `bias` (null for none, else `cols` long) and `relu` are the
/// overwrite epilogue; `accumulate` adds into `C` instead.
///
/// Callers guarantee every index the ranges imply lies inside the buffer
/// its pointer came from.
struct Strided {
    a: *const f32,
    ars: usize,
    aps: usize,
    steps: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    rows: usize,
    cols: usize,
    bias: *const f32,
    relu: bool,
    accumulate: bool,
}

/// The register tile: `MR` output rows × `NV` 8-lane column vectors, the
/// last one masked when `MASKED`. Each step loads `NV` vectors of one `B`
/// row and FMAs them against `MR` broadcast `A` elements, so `MR·NV`
/// accumulators stay in registers for the whole `steps` loop; the
/// epilogue runs on them before the single store.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tile<const MR: usize, const NV: usize, const MASKED: bool>(
    g: &Strided,
    i: usize,
    j: usize,
    mask: __m256i,
) {
    let mut acc = [[_mm256_setzero_ps(); NV]; MR];
    for s in 0..g.steps {
        let ap = g.a.add(i * g.ars + s * g.aps);
        let bp = g.b.add(s * g.ldb + j);
        let mut bv = [_mm256_setzero_ps(); NV];
        for (v, bv) in bv.iter_mut().enumerate() {
            *bv = load(bp.add(8 * v), MASKED && v + 1 == NV, mask);
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ap.add(r * g.ars));
            for (acc, &bv) in acc.iter_mut().zip(&bv) {
                *acc = _mm256_fmadd_ps(av, bv, *acc);
            }
        }
    }
    let zero = _mm256_setzero_ps();
    for v in 0..NV {
        let masked = MASKED && v + 1 == NV;
        let col = j + 8 * v;
        let bias = if g.bias.is_null() { zero } else { load(g.bias.add(col), masked, mask) };
        for (r, acc) in acc.iter().enumerate() {
            let cp = g.c.add((i + r) * g.ldc + col);
            let mut x = acc[v];
            if g.accumulate {
                x = _mm256_add_ps(load(cp, masked, mask), x);
            } else {
                x = _mm256_add_ps(x, bias);
                if g.relu {
                    x = _mm256_max_ps(x, zero);
                }
            }
            store(cp, x, masked, mask);
        }
    }
}

/// All tiles of `MR` output rows starting at row `i`: 16-wide, then one
/// tile for the remaining 1–15 columns — 8-wide unmasked when exactly 8
/// remain, else 8- or 16-wide with its last vector masked, so a ragged
/// width loads each broadcast `A` element once.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn row_panel<const MR: usize>(g: &Strided, i: usize) {
    let full = _mm256_set1_epi32(-1);
    let mut j = 0;
    while j + 16 <= g.cols {
        tile::<MR, 2, false>(g, i, j, full);
        j += 16;
    }
    match g.cols - j {
        0 => {}
        8 => tile::<MR, 1, false>(g, i, j, full),
        rem @ 1..=7 => tile::<MR, 1, true>(g, i, j, tail_mask(rem)),
        rem => tile::<MR, 2, true>(g, i, j, tail_mask(rem - 8)),
    }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn strided(g: &Strided) {
    let mut i = 0;
    while i + 4 <= g.rows {
        row_panel::<4>(g, i);
        i += 4;
    }
    match g.rows - i {
        3 => row_panel::<3>(g, i),
        2 => row_panel::<2>(g, i),
        1 => row_panel::<1>(g, i),
        _ => {}
    }
}

/// `R` row dot products against one vector `x` of length `k`, sharing
/// each `x` load; the `k` tail is a masked load, not a scalar loop.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_rows<const R: usize>(a: *const f32, lda: usize, x: *const f32, k: usize) -> [f32; R] {
    let mut acc = [_mm256_setzero_ps(); R];
    let full = _mm256_set1_epi32(-1);
    let mut p = 0;
    while p < k {
        let masked = p + 8 > k;
        let mask = if masked { tail_mask(k - p) } else { full };
        let xv = load(x.add(p), masked, mask);
        for (r, acc) in acc.iter_mut().enumerate() {
            *acc = _mm256_fmadd_ps(load(a.add(r * lda + p), masked, mask), xv, *acc);
        }
        p += 8;
    }
    acc.map(|v| hsum256(v))
}

/// Register-tiled `C = A · B` with a fused bias / ReLU epilogue. A
/// one-column `B` (a logit layer) is a matrix–vector product, where a
/// 1-lane tile would waste 7 of 8 lanes: it runs as 4-row blocked dots.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm(
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
    let bias = epi.bias();
    if n == 1 {
        let (bias, relu) = (bias.map_or(0.0, |b| b[0]), epi.relu());
        let finish = |v: f32| if relu { (v + bias).max(0.0) } else { v + bias };
        let mut i = 0;
        while i + 4 <= m {
            let d = dot_rows::<4>(a.as_ptr().add(i * k), k, b.as_ptr(), k);
            for (r, d) in d.into_iter().enumerate() {
                c[i + r] = finish(d);
            }
            i += 4;
        }
        while i < m {
            c[i] = finish(dot_rows::<1>(a.as_ptr().add(i * k), k, b.as_ptr(), k)[0]);
            i += 1;
        }
        return;
    }
    strided(&Strided {
        a: a.as_ptr(),
        ars: k,
        aps: 1,
        steps: k,
        b: b.as_ptr(),
        ldb: n,
        c: c.as_mut_ptr(),
        ldc: n,
        rows: m,
        cols: n,
        bias: bias.map_or(core::ptr::null(), <[f32]>::as_ptr),
        relu: epi.relu(),
        accumulate: false,
    });
}

/// Register-tiled `C += Aᵀ · B`: tiles of `C` (`k × n`) accumulate over
/// the `m` rows of `A` and `B`, read in place. A one-column `C` (the
/// weight gradient of a logit layer) runs transposed — `Cᵀ += Bᵀ·A`, one
/// output row with `A`'s rows as the vector loads — so its lanes stay full.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn gemm_transa_accum(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let null = core::ptr::null();
    let (a, ars, aps, b, ld, rows, cols) =
        if n == 1 { (b, 0, 1, a, k, 1, k) } else { (a, 1, k, b, n, k, n) };
    strided(&Strided {
        a,
        ars,
        aps,
        steps: m,
        b,
        ldb: ld,
        c,
        ldc: ld,
        rows,
        cols,
        bias: null,
        relu: false,
        accumulate: true,
    });
}

/// Scratch floats [`sgns_window`] needs for `b` context rows and `s`
/// targets: `G` as `b` rows of `s` rounded up to 8 (the padding holds
/// zeros), then one 8-lane chunk of `ΔOut` per padded target and one of
/// `ΔIn` per context row.
pub fn window_scratch_len(b: usize, s: usize) -> usize {
    (b + 8) * s.next_multiple_of(8) + 8 * b
}

/// `G = (label − σ(score)) · lr` for 8 targets' scores, zero outside
/// `live`; `positive` puts label 1 on lane 0. σ is `SigmoidLut::get`
/// lane for lane: the bucket position runs through the same f32 divide,
/// add and multiplies in the same order, truncates, and is clamped into
/// the table (a NaN score lands on bucket 0, as `as usize` sends it), and
/// scores at or beyond `±max_exp` saturate to 1 or 0 with the upper test
/// first.
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn grad8(
    scores: __m256,
    positive: bool,
    live: __m256i,
    sigmoid: crate::SigmoidLut<'_>,
    lr: f32,
) -> __m256 {
    let max = _mm256_set1_ps(sigmoid.max_exp);
    let last = sigmoid.values.len() - 1;
    let pos = _mm256_add_ps(_mm256_div_ps(scores, max), _mm256_set1_ps(1.0));
    let pos = _mm256_mul_ps(_mm256_mul_ps(pos, _mm256_set1_ps(0.5)), _mm256_set1_ps(last as f32));
    let idx = _mm256_max_epi32(_mm256_cvttps_epi32(pos), _mm256_setzero_si256());
    let idx = _mm256_min_epi32(idx, _mm256_set1_epi32(last as i32));
    let table = _mm256_i32gather_ps::<4>(sigmoid.values.as_ptr(), idx);
    let below = _mm256_cmp_ps::<_CMP_LE_OQ>(scores, _mm256_sub_ps(_mm256_setzero_ps(), max));
    let above = _mm256_cmp_ps::<_CMP_GE_OQ>(scores, max);
    let sig = _mm256_blendv_ps(_mm256_andnot_ps(below, table), _mm256_set1_ps(1.0), above);
    let label = if positive {
        _mm256_setr_ps(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    } else {
        _mm256_setzero_ps()
    };
    let g = _mm256_mul_ps(_mm256_sub_ps(label, sig), _mm256_set1_ps(lr));
    _mm256_and_ps(g, _mm256_castsi256_ps(live))
}

/// The SGNS window step of `crate::sgns_window` on the table rows, over
/// 8-lane column chunks of `d` with the last one masked, and over targets
/// 8 at a time: lanes past the last target re-read it and get `G = 0`, so
/// every tile is a fully unrolled 8-wide one whose accumulators stay in
/// registers. [`window_one_chunk`] is the faster form for windows of one
/// chunk and at most 8 targets.
///
/// Pass 1 scores one context row against 8 targets (8 FMA chains over
/// the chunks, one [`hsum8`]) and [`grad8`] turns the 8 scores into `G`
/// in registers. Pass 2 walks the column chunks: `ΔOut` of the chunk from
/// the context rows into scratch, then `ΔIn` from the target rows into
/// scratch, and only then adds both to the chunk of every row, so all of
/// a chunk's reads precede its writes.
///
/// Row `r` of `syn0` (`syn1`) starts at `syn0.add(r * stride)` and must be
/// `d` readable and writable floats for every `r` in `ctx` (`tgt`). `gp`
/// must point at [`window_scratch_len`] writable floats, which may be
/// uninitialized: every one is written before it is read.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sgns_window(
    d: usize,
    stride: usize,
    syn0: *mut f32,
    ctx: &[usize],
    syn1: *mut f32,
    tgt: &[usize],
    gp: *mut f32,
    sigmoid: crate::SigmoidLut<'_>,
    lr: f32,
) {
    let (b, s) = (ctx.len(), tgt.len());
    let x = |j: usize| syn0.add(ctx[j] * stride);
    let target = |k: usize| syn1.add(tgt[k.min(s - 1)] * stride);
    let sp = s.next_multiple_of(8);
    let tp = gp.add(b * sp);
    let dp = tp.add(sp * 8);
    let full = _mm256_set1_epi32(-1);

    for tg in (0..sp).step_by(8) {
        let rows: [*const f32; 8] = core::array::from_fn(|q| target(tg + q).cast_const());
        let live = if s - tg >= 8 { full } else { tail_mask(s - tg) };
        for j in 0..b {
            let xr = x(j);
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut c = 0;
            while c < d {
                let masked = c + 8 > d;
                let mask = if masked { tail_mask(d - c) } else { full };
                let xv = load(xr.add(c), masked, mask);
                for (acc, row) in acc.iter_mut().zip(&rows) {
                    *acc = _mm256_fmadd_ps(xv, load(row.add(c), masked, mask), *acc);
                }
                c += 8;
            }
            let g = grad8(hsum8(acc), tg == 0, live, sigmoid, lr);
            _mm256_storeu_ps(gp.add(j * sp + tg), g);
        }
    }

    let mut c = 0;
    while c < d {
        let masked = c + 8 > d;
        let mask = if masked { tail_mask(d - c) } else { full };
        for tg in (0..sp).step_by(8) {
            let mut acc = [_mm256_setzero_ps(); 8];
            for j in 0..b {
                let xv = load(x(j).add(c), masked, mask);
                let grow = gp.add(j * sp + tg);
                for (q, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*grow.add(q)), xv, *acc);
                }
            }
            for (q, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(tp.add((tg + q) * 8), *acc);
            }
        }
        for tg in (0..sp).step_by(8) {
            let o: [__m256; 8] =
                core::array::from_fn(|q| load(target(tg + q).add(c), masked, mask));
            for j in 0..b {
                let grow = gp.add(j * sp + tg);
                let mut acc =
                    if tg == 0 { _mm256_setzero_ps() } else { _mm256_loadu_ps(dp.add(j * 8)) };
                for (q, &o) in o.iter().enumerate() {
                    acc = _mm256_fmadd_ps(_mm256_broadcast_ss(&*grow.add(q)), o, acc);
                }
                _mm256_storeu_ps(dp.add(j * 8), acc);
            }
        }
        for j in 0..b {
            add_row_chunk(x(j).add(c), _mm256_loadu_ps(dp.add(j * 8)), masked, mask);
        }
        for k in 0..s {
            add_row_chunk(target(k).add(c), _mm256_loadu_ps(tp.add(k * 8)), masked, mask);
        }
        c += 8;
    }
}

/// `*p += delta` over the chunk's live lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn add_row_chunk(p: *mut f32, delta: __m256, masked: bool, mask: __m256i) {
    store(p, _mm256_add_ps(load(p, masked, mask), delta), masked, mask);
}

/// [`sgns_window`] for rows of at most one chunk (`d ≤ 8`) and at most 8
/// targets, computing every stored float with the chunk loops' operations
/// in their order: the target rows and the `ΔOut` accumulators stay in
/// registers across the context rows, each context row is loaded once,
/// and only `ΔIn` waits in scratch until every row has been read. The row
/// contract is [`sgns_window`]'s; `gp` must point at `8 · ctx.len()`
/// writable floats, which may be uninitialized. The `ΔIn` chain stops at the last live target, where
/// the chunk loops run on through the dead lanes: a dead lane's `G` is
/// `+0`, and adding `+0 · o` to a sum that started at `+0` changes no bit
/// while the rows are finite.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn window_one_chunk(
    d: usize,
    stride: usize,
    syn0: *mut f32,
    ctx: &[usize],
    syn1: *mut f32,
    tgt: &[usize],
    gp: *mut f32,
    sigmoid: crate::SigmoidLut<'_>,
    lr: f32,
) {
    let (b, s) = (ctx.len(), tgt.len());
    let x = |j: usize| syn0.add(ctx[j] * stride);
    let target = |k: usize| syn1.add(tgt[k] * stride);
    let full = _mm256_set1_epi32(-1);
    let masked = d < 8;
    let mask = if masked { tail_mask(d) } else { full };
    let live = if s == 8 { full } else { tail_mask(s) };
    let o: [__m256; 8] = core::array::from_fn(|q| {
        if q < s {
            load(target(q), masked, mask)
        } else {
            _mm256_setzero_ps()
        }
    });
    let mut dout = [_mm256_setzero_ps(); 8];
    for j in 0..b {
        let xv = load(x(j), masked, mask);
        let scores = o.map(|o| _mm256_fmadd_ps(xv, o, _mm256_setzero_ps()));
        let mut g = [0.0f32; 8];
        _mm256_storeu_ps(g.as_mut_ptr(), grad8(hsum8(scores), true, live, sigmoid, lr));
        let mut din = _mm256_setzero_ps();
        for q in 0..s {
            let gq = _mm256_broadcast_ss(&g[q]);
            dout[q] = _mm256_fmadd_ps(gq, xv, dout[q]);
            din = _mm256_fmadd_ps(gq, o[q], din);
        }
        _mm256_storeu_ps(gp.add(j * 8), din);
    }
    for j in 0..b {
        add_row_chunk(x(j), _mm256_loadu_ps(gp.add(j * 8)), masked, mask);
    }
    for (k, &delta) in dout.iter().enumerate().take(s) {
        add_row_chunk(target(k), delta, masked, mask);
    }
}
