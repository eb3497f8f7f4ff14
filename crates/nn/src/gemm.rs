//! Matrix multiplication kernels.
//!
//! The paper finds classifier training — which lowers to GEMM — dominates
//! the end-to-end workload, and that vendor GEMM libraries are poorly tuned
//! for the pipeline's small matrix sizes (§VII-B, §VIII). These kernels make
//! that trade-off space explorable: a naive triple loop, the register-tiled
//! SIMD kernel (`simd::gemm`, which reads `B` in place), and a
//! work-stealing parallel split of it, all bit-compatible in shape
//! semantics.

use par::{parallel_chunks, ParConfig};

use crate::Tensor2;

/// `C = A · B` with the naive `i-j-k` triple loop. Baseline for the GEMM
/// ablation benches.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
pub fn matmul_naive(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "inner dimensions must agree");
    let mut c = Tensor2::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

/// `C = A · B` on the register-tiled, runtime-dispatched SIMD kernel,
/// reading both operands in place (no transposed copy of `B`).
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
///
/// # Examples
///
/// ```
/// use nn::{gemm, Tensor2};
///
/// let a = Tensor2::from_rows(&[&[1.0, 2.0]]);
/// let b = Tensor2::from_rows(&[&[3.0], &[4.0]]);
/// assert_eq!(gemm::matmul(&a, &b).as_slice(), &[11.0]);
/// ```
pub fn matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "inner dimensions must agree");
    let mut c = Tensor2::zeros(m, n);
    simd::gemm(m, n, k, a.as_slice(), b.as_slice(), c.as_mut_slice(), simd::Epilogue::None);
    c
}

/// `C = A · Bᵀ` where `bt` is already transposed (`bt` is `n × k`).
/// Lowered onto the dot-form SIMD kernel `simd::gemm_transb`.
///
/// # Panics
///
/// Panics if `A.cols() != bt.cols()`.
pub fn matmul_transb(a: &Tensor2, bt: &Tensor2) -> Tensor2 {
    let (m, k) = a.shape();
    let (n, k2) = bt.shape();
    assert_eq!(k, k2, "inner dimensions must agree");
    let mut c = Tensor2::zeros(m, n);
    simd::gemm_transb(m, n, k, a.as_slice(), bt.as_slice(), c.as_mut_slice());
    c
}

/// Parallel `C = A · B`, splitting rows of `A` across the work-stealing
/// pool. Matches [`matmul`] exactly.
///
/// # Panics
///
/// Panics if `A.cols() != B.rows()`.
pub fn matmul_parallel(a: &Tensor2, b: &Tensor2, par: &ParConfig) -> Tensor2 {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "inner dimensions must agree");
    let mut c = Tensor2::zeros(m, n);
    let c_ptr = c.as_mut_slice().as_mut_ptr() as usize;
    parallel_chunks(&par.chunk_size(16.max(m / (4 * par.threads()).max(1))), m, |lo, hi| {
        // SAFETY: each worker writes rows lo..hi of C exclusively.
        let cdata = c_ptr as *mut f32;
        let cchunk = unsafe { std::slice::from_raw_parts_mut(cdata.add(lo * n), (hi - lo) * n) };
        let a = &a.as_slice()[lo * k..hi * k];
        simd::gemm(hi - lo, n, k, a, b.as_slice(), cchunk, simd::Epilogue::None);
    });
    c
}

/// Dot product via the runtime-dispatched SIMD kernel (AVX2/FMA or NEON
/// when available, unrolled scalar otherwise) — the CPU analog of the
/// paper's coalesced / parallel-reduction GPU word2vec kernel.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    simd::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor2::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    fn assert_close(a: &Tensor2, b: &Tensor2) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn identity_multiplication() {
        let a = random(5, 5, 1);
        let mut eye = Tensor2::zeros(5, 5);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        assert_close(&matmul(&a, &eye), &a);
        assert_close(&matmul(&eye, &a), &a);
    }

    #[test]
    fn all_kernels_agree() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (17, 9, 13), (32, 64, 8)] {
            let a = random(m, k, m as u64);
            let b = random(k, n, n as u64 + 100);
            let naive = matmul_naive(&a, &b);
            assert_close(&naive, &matmul(&a, &b));
            assert_close(&naive, &matmul_parallel(&a, &b, &ParConfig::with_threads(4)));
        }
    }

    #[test]
    fn known_product() {
        let a = Tensor2::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor2::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f32> = (0..7).map(|i| i as f32).collect();
        let b = vec![1.0f32; 7];
        assert_eq!(dot(&a, &b), 21.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_shapes_panic() {
        let _ = matmul(&Tensor2::zeros(2, 3), &Tensor2::zeros(2, 2));
    }
}
