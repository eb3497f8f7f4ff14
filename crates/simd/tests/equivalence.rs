//! Property tests: the dispatched kernels agree with the scalar reference
//! within 1e-4 relative tolerance, across every remainder-lane case
//! (lengths 0..=67 cover all residues mod 8 and mod 16; the GEMM shape
//! grid covers the register tiles' row, 16-/8-column and masked-column
//! remainders, one-column and one-term products) and across unaligned
//! slice offsets (0..=3 elements, shifting 16-/32-byte alignment). The
//! SGNS window kernel is held to 1e-5 over its own grid, with σ's bucket
//! pinned exactly.
//!
//! On SIMD hardware these exercise the intrinsics paths; under
//! `SIMD_FORCE_SCALAR=1` or Miri they degenerate to scalar-vs-scalar,
//! which must then agree exactly.

use std::sync::atomic::{AtomicU32, Ordering};

/// Deterministic splitmix64 stream → f32 in [-1, 1).
struct Stream(u64);

impl Stream {
    fn next_f32(&mut self) -> f32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0
    }

    fn vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f32()).collect()
    }
}

const REL_TOL: f32 = 1e-4;

fn assert_close(got: f32, want: f32, ctx: &str) {
    let scale = 1.0f32.max(want.abs());
    assert!((got - want).abs() <= REL_TOL * scale, "{ctx}: dispatched {got} vs scalar {want}");
}

fn assert_all_close(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_close(*g, *w, &format!("{ctx}[{i}]"));
    }
}

/// Lengths covering every SIMD remainder case: the AVX2 dot unrolls by 16
/// with an 8-wide step and scalar tail, so 0..=67 hits all residues.
const LENS: std::ops::RangeInclusive<usize> = 0..=67;

/// Element offsets used to de-align slices from their allocation start.
const OFFSETS: [usize; 4] = [0, 1, 2, 3];

#[test]
fn dot_matches_scalar_reference() {
    let mut s = Stream(1);
    for len in LENS {
        for off in OFFSETS {
            let a = s.vec(len + off);
            let b = s.vec(len + off);
            let (a, b) = (&a[off..], &b[off..]);
            assert_close(
                simd::dot(a, b),
                simd::scalar::dot(a, b),
                &format!("dot len={len} off={off}"),
            );
        }
    }
}

#[test]
fn axpy_matches_scalar_reference() {
    let mut s = Stream(2);
    for len in LENS {
        for off in OFFSETS {
            let x = s.vec(len + off);
            let y0 = s.vec(len + off);
            let alpha = s.next_f32() * 3.0;
            let mut got = y0.clone();
            let mut want = y0;
            simd::axpy(alpha, &x[off..], &mut got[off..]);
            simd::scalar::axpy(alpha, &x[off..], &mut want[off..]);
            assert_all_close(&got, &want, &format!("axpy len={len} off={off}"));
        }
    }
}

#[test]
fn scale_accum_matches_scalar_reference() {
    let mut s = Stream(3);
    for len in LENS {
        for off in OFFSETS {
            let x = s.vec(len + off);
            let y0 = s.vec(len + off);
            let (a, b) = (s.next_f32(), s.next_f32() * 2.0);
            let mut got = y0.clone();
            let mut want = y0;
            simd::scale_accum(&mut got[off..], a, b, &x[off..]);
            simd::scalar::scale_accum(&mut want[off..], a, b, &x[off..]);
            assert_all_close(&got, &want, &format!("scale_accum len={len} off={off}"));
        }
    }
}

/// Every GEMM dimension takes each of these: empty, below / at / above
/// one 8-lane vector and one 16-wide tile, and the MLP's widths.
fn gemm_dims() -> &'static [usize] {
    // Miri interprets every flop; keep its grid to the remainder classes.
    if cfg!(miri) {
        &[0, 1, 3, 9, 17]
    } else {
        &[0, 1, 2, 3, 7, 8, 9, 16, 17, 33, 64]
    }
}

/// `(m, n, k, off)` over the full shape grid × offsets 0..=3.
fn gemm_grid() -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let d = gemm_dims();
    d.iter().flat_map(move |&m| {
        d.iter().flat_map(move |&n| {
            d.iter().flat_map(move |&k| OFFSETS.iter().map(move |&off| (m, n, k, off)))
        })
    })
}

#[test]
fn gemm_plain_matches_scalar_reference() {
    let mut s = Stream(7);
    for (m, n, k, off) in gemm_grid() {
        let a = s.vec(m * k + off);
        let b = s.vec(k * n + off);
        let bias = s.vec(n + off);
        let (a, b, bias) = (&a[off..], &b[off..], &bias[off..]);
        for (name, epi) in [
            ("none", simd::Epilogue::None),
            ("bias", simd::Epilogue::Bias(bias)),
            ("bias+relu", simd::Epilogue::BiasRelu(bias)),
        ] {
            let mut got = vec![f32::NAN; m * n + off];
            let mut want = vec![f32::NAN; m * n + off];
            simd::gemm(m, n, k, a, b, &mut got[off..], epi);
            simd::scalar::gemm(m, n, k, a, b, &mut want[off..], epi);
            assert_all_close(
                &got[off..],
                &want[off..],
                &format!("gemm {name} {m}x{n}x{k} off={off}"),
            );
        }
    }
}

#[test]
fn gemm_transa_accum_matches_scalar_reference() {
    let mut s = Stream(8);
    for (m, n, k, off) in gemm_grid() {
        let a = s.vec(m * k + off);
        let b = s.vec(m * n + off);
        let c0 = s.vec(k * n + off);
        let (mut got, mut want) = (c0.clone(), c0);
        simd::gemm_transa_accum(m, n, k, &a[off..], &b[off..], &mut got[off..]);
        simd::scalar::gemm_transa_accum(m, n, k, &a[off..], &b[off..], &mut want[off..]);
        assert_all_close(&got, &want, &format!("gemm_transa_accum {m}x{n}x{k} off={off}"));
    }
}

#[test]
fn gemm_transb_matches_scalar_reference() {
    let mut s = Stream(5);
    for (m, n, k, off) in gemm_grid() {
        let a = s.vec(m * k + off);
        let bt = s.vec(n * k + off);
        let mut got = vec![f32::NAN; m * n + off];
        let mut want = vec![f32::NAN; m * n + off];
        simd::gemm_transb(m, n, k, &a[off..], &bt[off..], &mut got[off..]);
        simd::scalar::gemm_transb(m, n, k, &a[off..], &bt[off..], &mut want[off..]);
        assert_all_close(&got[off..], &want[off..], &format!("gemm_transb {m}x{n}x{k} off={off}"));
    }
}

/// word2vec's σ table: 1000 buckets over `[-6, 6]`.
fn sigmoid_values() -> Vec<f32> {
    (0..1000)
        .map(|i| {
            let x = (i as f32 / 999.0 * 2.0 - 1.0) * 6.0;
            1.0 / (1.0 + (-x).exp())
        })
        .collect()
}

/// Dyadic values `i / 64`, `|i| ≤ 32`: every product and every sum of up
/// to 128 of them is exact in f32, so each backend computes bit-equal
/// scores and the σ bucket cannot depend on summation order.
fn dyadic(s: &mut Stream, n: usize) -> Vec<f32> {
    (0..n).map(|_| (s.next_f32() * 32.0).round() / 64.0).collect()
}

/// The window kernel's grid: context rows × targets × widths × offsets.
fn window_grid() -> Vec<(usize, usize, usize, usize)> {
    let (bs, ss, ds, offs): (Vec<usize>, Vec<usize>, &[usize], &[usize]) = if cfg!(miri) {
        (vec![1, 3], vec![1, 7], &[1, 9], &[0, 1])
    } else {
        ((1..=10).collect(), (1..=7).collect(), &[1, 3, 7, 8, 9, 16, 33, 128], &OFFSETS)
    };
    let mut grid = Vec::new();
    for &b in &bs {
        for &s in &ss {
            for &d in ds {
                for &off in offs {
                    grid.push((b, s, d, off));
                }
            }
        }
    }
    // Windows too large for the kernels' stack scratch, and one-chunk
    // rows with more than 8 targets (the AVX2 chunk loops, not the
    // one-chunk kernel).
    grid.extend([(40, 12, 9, 1), (25, 9, 33, 0), (12, 9, 8, 0), (3, 11, 5, 1)]);
    grid
}

/// `f32` values as the `f32`-bit cells [`simd::sgns_window`] updates.
fn cells(v: &[f32]) -> Vec<AtomicU32> {
    v.iter().map(|x| AtomicU32::new(x.to_bits())).collect()
}

fn floats(t: &[AtomicU32]) -> Vec<f32> {
    t.iter().map(|c| f32::from_bits(c.load(Ordering::Relaxed))).collect()
}

#[test]
fn sgns_window_matches_scalar_reference() {
    let values = sigmoid_values();
    let lut = simd::SigmoidLut { values: &values, max_exp: 6.0 };
    let mut s = Stream(10);
    for (b, t, d, off) in window_grid() {
        // Odd offsets also pad the rows, whose padding must stay as is;
        // the slots name one row fewer than they hold, so a row repeats.
        let stride = d + 5 * (off % 2);
        let (n0, n1) = (b.max(2) - 1, t.max(2) - 1);
        let ctx: Vec<usize> = (0..b).map(|j| (j * 5 + 1) % n0).collect();
        let tgt: Vec<usize> = (0..t).map(|k| (k * 3) % n1).collect();
        let mut syn0 = dyadic(&mut s, off + n0 * stride);
        let mut syn1 = dyadic(&mut s, off + n1 * stride);
        // Context row `ctx[0]` is the unit vector e0, so its score against
        // target row r is that row's first element: plant both saturation
        // sides beyond the table and both of its edges.
        let x0 = off + ctx[0] * stride;
        syn0[x0..x0 + d].fill(0.0);
        syn0[x0] = 1.0;
        for (r, first) in [9.0, -9.0, 6.0, -6.0].into_iter().enumerate().take(n1) {
            syn1[off + r * stride] = first;
        }
        let (got0, got1, want0, want1) = (cells(&syn0), cells(&syn1), cells(&syn0), cells(&syn1));
        simd::sgns_window(d, stride, &got0[off..], &ctx, &got1[off..], &tgt, lut, 0.25);
        simd::scalar::sgns_window(d, stride, &want0[off..], &ctx, &want1[off..], &tgt, lut, 0.25);
        let ctx = format!("sgns_window b={b} s={t} d={d} off={off}");
        for (got, want, what) in [(&got0, &want0, "syn0"), (&got1, &want1, "syn1")] {
            for (i, (g, w)) in floats(got).iter().zip(floats(want)).enumerate() {
                let scale = 1.0f32.max(w.abs());
                assert!((g - w).abs() <= 1e-5 * scale, "{ctx} {what}[{i}]: {g} vs {w}");
            }
        }
    }
}

#[test]
fn sgns_window_sigmoid_picks_the_lookup_bucket() {
    let values = sigmoid_values();
    let lut = simd::SigmoidLut { values: &values, max_exp: 6.0 };
    // Every bucket boundary and its neighbouring floats, the table's
    // edges, beyond them, and the non-finite scores.
    let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 100.0, -100.0];
    for i in 0..values.len() {
        let x = (i as f32 / 999.0 * 2.0 - 1.0) * 6.0;
        xs.extend([x, f32::from_bits(x.to_bits() + 1), f32::from_bits(x.to_bits() - 1)]);
    }
    // d = 2, a context row of [1, 1] and target rows [x, 0]: each
    // target's score is exactly x, and its second element becomes
    // exactly its `G`.
    const S: usize = 9;
    for (n, chunk) in xs.chunks(S).enumerate() {
        let syn0 = cells(&[1.0, 1.0]);
        let syn1 = cells(&chunk.iter().flat_map(|&x| [x, 0.0]).collect::<Vec<_>>());
        let tgt: Vec<usize> = (0..chunk.len()).collect();
        simd::sgns_window(2, 2, &syn0, &[0], &syn1, &tgt, lut, 0.5);
        let rows = floats(&syn1);
        for (k, (&x, g)) in chunk.iter().zip(rows.chunks(2)).enumerate() {
            let label = if k == 0 { 1.0 } else { 0.0 };
            let want = (label - lut.get(x)) * 0.5;
            assert_eq!(g[1].to_bits(), want.to_bits(), "chunk {n} target {k}: score {x}");
        }
    }
    assert_eq!(lut.get(6.0), 1.0);
    assert_eq!(lut.get(-6.0), 0.0);
    assert_eq!(lut.get(0.0), values[499]);
}

#[test]
#[should_panic(expected = "target row outside syn1")]
fn sgns_window_rejects_rows_outside_the_table() {
    let values = sigmoid_values();
    let lut = simd::SigmoidLut { values: &values, max_exp: 6.0 };
    let (syn0, syn1) = (cells(&[0.0; 8]), cells(&[0.0; 8]));
    simd::sgns_window(4, 4, &syn0, &[1], &syn1, &[0, 2], lut, 0.5);
}

#[test]
fn gemm_overwrites_stale_output() {
    // C must be fully overwritten, never accumulated into.
    let (m, n, k) = (3, 5, 6);
    let mut s = Stream(6);
    let a = s.vec(m * k);
    let bt = s.vec(n * k);
    let mut fresh = vec![0.0f32; m * n];
    let mut stale = vec![123.0f32; m * n];
    simd::gemm_transb(m, n, k, &a, &bt, &mut fresh);
    simd::gemm_transb(m, n, k, &a, &bt, &mut stale);
    assert_eq!(fresh, stale);
}

#[test]
fn gemm_plain_overwrites_and_transa_accumulates() {
    let (m, n, k) = (5, 19, 9);
    let mut s = Stream(9);
    let a = s.vec(m * k);
    let b = s.vec(k * n);
    let bias = s.vec(n);
    // The overwrite form ignores whatever C held.
    let epi = simd::Epilogue::BiasRelu(&bias);
    let mut fresh = vec![0.0f32; m * n];
    let mut stale = vec![123.0f32; m * n];
    simd::gemm(m, n, k, &a, &b, &mut fresh, epi);
    simd::gemm(m, n, k, &a, &b, &mut stale, epi);
    assert_eq!(fresh, stale);
    // The accumulate form adds: into C0 it gives C0 + (the product into
    // zeros), and a second call adds the product again.
    let bm = s.vec(m * n);
    let c0 = s.vec(k * n);
    let mut product = vec![0.0f32; k * n];
    simd::gemm_transa_accum(m, n, k, &a, &bm, &mut product);
    let mut c = c0.clone();
    simd::gemm_transa_accum(m, n, k, &a, &bm, &mut c);
    let once: Vec<f32> = c0.iter().zip(&product).map(|(x, p)| x + p).collect();
    assert_all_close(&c, &once, "accumulate once");
    simd::gemm_transa_accum(m, n, k, &a, &bm, &mut c);
    let twice: Vec<f32> = once.iter().zip(&product).map(|(x, p)| x + p).collect();
    assert_all_close(&c, &twice, "accumulate twice");
}
