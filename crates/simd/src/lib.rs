//! Runtime-dispatched f32 slice kernels for the workspace's compute hot
//! paths (SGNS training, GEMM, serving scans).
//!
//! The paper's §V-B GPU optimizations are all about maximizing
//! per-dimension arithmetic throughput; this crate is the CPU counterpart.
//! Each public function (`dot`, `axpy`, `scale_accum`, and the three GEMM
//! forms `gemm`, `gemm_transb`, `gemm_transa_accum`) has three
//! implementations:
//!
//! * **AVX2 + FMA** (`x86`/`x86_64`) — 8-lane fused multiply-add kernels;
//! * **NEON** (`aarch64`) — 4-lane equivalents (`gemm` and
//!   `gemm_transa_accum` point at the scalar code: no NEON host tests them);
//! * **scalar** — portable unrolled loops, the semantic reference.
//!
//! Selection happens **once**, on first use, via
//! `is_x86_feature_detected!` (resp. `is_aarch64_feature_detected!`) into
//! a function-pointer table ([`KernelTable`]) held in a
//! [`std::sync::LazyLock`] — there is no per-call feature probing. Setting
//! the environment variable **`SIMD_FORCE_SCALAR`** (to anything but `0`
//! or the empty string) before first use pins the scalar path, which CI
//! uses to prove the fallback stays green; Miri always runs the scalar
//! path (`cfg(miri)`).
//!
//! # Numerical contract
//!
//! Vector backends reassociate sums (8 or 4 partial accumulators) and
//! contract multiply-add pairs into FMAs, so results may differ from the
//! scalar reference by a small relative error. The property tests in
//! `tests/equivalence.rs` pin this to `1e-4` relative tolerance across all
//! remainder-lane cases (lengths 0..=67) and unaligned slice offsets;
//! callers must not rely on bit-equality between backends.
//!
//! # Examples
//!
//! ```
//! let a = [1.0f32, 2.0, 3.0];
//! let b = [4.0f32, 5.0, 6.0];
//! assert_eq!(simd::dot(&a, &b), 32.0);
//!
//! let mut y = [1.0f32; 3];
//! simd::axpy(2.0, &a, &mut y);
//! assert_eq!(y, [3.0, 5.0, 7.0]);
//! ```

use std::sync::LazyLock;

pub mod scalar;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

/// Which kernel implementation the process-wide dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable unrolled loops (also the Miri / `SIMD_FORCE_SCALAR` path).
    Scalar,
    /// AVX2 + FMA intrinsics (x86 / x86-64).
    Avx2Fma,
    /// NEON intrinsics (aarch64).
    Neon,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Scalar => write!(f, "scalar"),
            Backend::Avx2Fma => write!(f, "avx2+fma"),
            Backend::Neon => write!(f, "neon"),
        }
    }
}

/// The one-time-selected implementation set. Function pointers keep the
/// per-call cost to an indirect call — no feature detection, no branching
/// on the hot path.
#[allow(clippy::type_complexity)]
struct KernelTable {
    backend: Backend,
    dot: fn(&[f32], &[f32]) -> f32,
    axpy: fn(f32, &[f32], &mut [f32]),
    scale_accum: fn(&mut [f32], f32, f32, &[f32]),
    gemm_transb: fn(usize, usize, usize, &[f32], &[f32], &mut [f32]),
    gemm: fn(usize, usize, usize, &[f32], &[f32], &mut [f32], Epilogue<'_>),
    gemm_transa_accum: fn(usize, usize, usize, &[f32], &[f32], &mut [f32]),
}

fn scalar_table() -> KernelTable {
    KernelTable {
        backend: Backend::Scalar,
        dot: scalar::dot,
        axpy: scalar::axpy,
        scale_accum: scalar::scale_accum,
        gemm_transb: scalar::gemm_transb,
        gemm: scalar::gemm,
        gemm_transa_accum: scalar::gemm_transa_accum,
    }
}

/// Safe entry points into the AVX2 kernels. These wrappers are only ever
/// referenced by `avx2_table()`, which `select()` calls strictly after
/// both `avx2` and `fma` were detected, so the `unsafe` target-feature
/// calls are sound for the process lifetime.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86_entry {
    use super::x86;

    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: only reachable via the post-detection dispatch table.
        unsafe { x86::dot(a, b) }
    }
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: as above.
        unsafe { x86::axpy(a, x, y) }
    }
    pub fn scale_accum(y: &mut [f32], a: f32, b: f32, x: &[f32]) {
        // SAFETY: as above.
        unsafe { x86::scale_accum(y, a, b, x) }
    }
    pub fn gemm_transb(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
        // SAFETY: as above.
        unsafe { x86::gemm_transb(m, n, k, a, bt, c) }
    }
    pub fn gemm(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        epi: super::Epilogue<'_>,
    ) {
        // SAFETY: as above; `super::gemm` checked every buffer length.
        unsafe { x86::gemm(m, n, k, a, b, c, epi) }
    }
    pub fn gemm_transa_accum(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        // SAFETY: as above; `super::gemm_transa_accum` checked every length.
        unsafe { x86::gemm_transa_accum(m, n, k, a, b, c) }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn avx2_table() -> KernelTable {
    KernelTable {
        backend: Backend::Avx2Fma,
        dot: x86_entry::dot,
        axpy: x86_entry::axpy,
        scale_accum: x86_entry::scale_accum,
        gemm_transb: x86_entry::gemm_transb,
        gemm: x86_entry::gemm,
        gemm_transa_accum: x86_entry::gemm_transa_accum,
    }
}

/// Safe entry points into the NEON kernels; same argument as `x86_entry`.
#[cfg(target_arch = "aarch64")]
mod neon_entry {
    use super::neon;

    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: only reachable via the post-detection dispatch table.
        unsafe { neon::dot(a, b) }
    }
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        // SAFETY: as above.
        unsafe { neon::axpy(a, x, y) }
    }
    pub fn scale_accum(y: &mut [f32], a: f32, b: f32, x: &[f32]) {
        // SAFETY: as above.
        unsafe { neon::scale_accum(y, a, b, x) }
    }
    pub fn gemm_transb(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
        // SAFETY: as above.
        unsafe { neon::gemm_transb(m, n, k, a, bt, c) }
    }
}

#[cfg(target_arch = "aarch64")]
fn neon_table() -> KernelTable {
    KernelTable {
        backend: Backend::Neon,
        dot: neon_entry::dot,
        axpy: neon_entry::axpy,
        scale_accum: neon_entry::scale_accum,
        gemm_transb: neon_entry::gemm_transb,
        gemm: scalar::gemm,
        gemm_transa_accum: scalar::gemm_transa_accum,
    }
}

/// Whether `val` (the `SIMD_FORCE_SCALAR` value) requests the scalar path.
fn force_scalar_requested(val: Option<&std::ffi::OsStr>) -> bool {
    val.is_some_and(|v| !v.is_empty() && v != "0")
}

fn select() -> KernelTable {
    if force_scalar_requested(std::env::var_os("SIMD_FORCE_SCALAR").as_deref()) {
        return scalar_table();
    }
    #[cfg(miri)]
    {
        scalar_table()
    }
    #[cfg(not(miri))]
    {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return avx2_table();
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            return neon_table();
        }
        scalar_table()
    }
}

static KERNELS: LazyLock<KernelTable> = LazyLock::new(select);

/// The backend the dispatch selected for this process.
pub fn active_backend() -> Backend {
    KERNELS.backend
}

/// Dot product `Σ a[i]·b[i]`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    (KERNELS.dot)(a, b)
}

/// `y += a · x`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy operand length mismatch");
    (KERNELS.axpy)(a, x, y)
}

/// `y = a·y + b·x` (fused scale-then-accumulate; SGD momentum's
/// `v ← μv − lr·g` is `scale_accum(v, μ, −lr, g)`).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn scale_accum(y: &mut [f32], a: f32, b: f32, x: &[f32]) {
    assert_eq!(x.len(), y.len(), "scale_accum operand length mismatch");
    (KERNELS.scale_accum)(y, a, b, x)
}

/// `C = A · Bᵀ` where `a` is `m × k`, `bt` is `n × k` (`B` already
/// transposed) and `c` is `m × n`, all row-major and packed; `c` is
/// overwritten. A dense layer's input gradient `δ·Wᵀ` is this form with
/// the weights as stored.
///
/// # Panics
///
/// Panics if any buffer length does not match its shape.
#[inline]
pub fn gemm_transb(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer does not match m × k");
    assert_eq!(bt.len(), n * k, "Bᵀ buffer does not match n × k");
    assert_eq!(c.len(), m * n, "C buffer does not match m × n");
    (KERNELS.gemm_transb)(m, n, k, a, bt, c)
}

/// What [`gemm`] does to each output tile before storing it, so a dense
/// layer's bias and activation cost no extra pass over the output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Epilogue<'a> {
    /// Store `A · B` as is.
    None,
    /// Add `bias` (length `n`) to every output row.
    Bias(&'a [f32]),
    /// Add `bias`, then clamp negatives (and NaN) to zero: ReLU.
    BiasRelu(&'a [f32]),
}

impl<'a> Epilogue<'a> {
    fn bias(self) -> Option<&'a [f32]> {
        match self {
            Epilogue::None => None,
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) => Some(b),
        }
    }

    fn relu(self) -> bool {
        matches!(self, Epilogue::BiasRelu(_))
    }

    /// Applies the epilogue to one finished output row (scalar form).
    fn apply(self, row: &mut [f32]) {
        if let Some(bias) = self.bias() {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        if self.relu() {
            for v in row {
                *v = v.max(0.0);
            }
        }
    }
}

/// `C = A · B` with `epi` applied to each output tile before it is
/// stored, where `a` is `m × k`, `b` is `k × n` and `c` is `m × n`, all
/// row-major and packed; `c` is overwritten. A dense layer's forward
/// `relu(X·W + b)` is `gemm(.., Epilogue::BiasRelu(b))` with the weights
/// as stored.
///
/// # Panics
///
/// Panics if any buffer length does not match its shape, or a bias is
/// not `n` long.
#[inline]
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], epi: Epilogue<'_>) {
    assert_eq!(a.len(), m * k, "A buffer does not match m × k");
    assert_eq!(b.len(), k * n, "B buffer does not match k × n");
    assert_eq!(c.len(), m * n, "C buffer does not match m × n");
    if let Some(bias) = epi.bias() {
        assert_eq!(bias.len(), n, "bias does not match n");
    }
    (KERNELS.gemm)(m, n, k, a, b, c, epi)
}

/// `C += Aᵀ · B` where `a` is `m × k`, `b` is `m × n` and `c` is `k × n`,
/// all row-major and packed; `c` is accumulated into, one rank-1 update
/// per row of `A` and `B`. A dense layer's weight gradient `Xᵀ·δ` is this
/// form over the batch, with no transposed copy of `X`.
///
/// # Panics
///
/// Panics if any buffer length does not match its shape.
#[inline]
pub fn gemm_transa_accum(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer does not match m × k");
    assert_eq!(b.len(), m * n, "B buffer does not match m × n");
    assert_eq!(c.len(), k * n, "C buffer does not match k × n");
    (KERNELS.gemm_transa_accum)(m, n, k, a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_selects_a_backend_once() {
        let b = active_backend();
        assert_eq!(b, active_backend());
        // Whatever was selected must produce correct results.
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn force_scalar_parsing() {
        use std::ffi::OsStr;
        assert!(!force_scalar_requested(None));
        assert!(!force_scalar_requested(Some(OsStr::new(""))));
        assert!(!force_scalar_requested(Some(OsStr::new("0"))));
        assert!(force_scalar_requested(Some(OsStr::new("1"))));
        assert!(force_scalar_requested(Some(OsStr::new("true"))));
    }

    #[test]
    fn axpy_and_scale_accum_compose() {
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let mut y = [1.0f32; 5];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0, 9.0, 11.0]);
        scale_accum(&mut y, 0.5, -1.0, &x);
        assert_eq!(y, [0.5, 0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, n, k) = (5, 7, 13);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).cos()).collect();
        let bt: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.3).sin()).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_transb(m, n, k, &a, &bt, &mut c);
        for i in 0..m {
            for j in 0..n {
                let expect: f32 = (0..k).map(|p| a[i * k + p] * bt[j * k + p]).sum();
                let got = c[i * n + j];
                assert!((got - expect).abs() < 1e-4, "c[{i}][{j}]: {got} vs {expect}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn empty_slices_are_fine() {
        assert_eq!(dot(&[], &[]), 0.0);
        let mut y: [f32; 0] = [];
        axpy(1.0, &[], &mut y);
        let mut c: [f32; 0] = [];
        gemm_transb(0, 0, 0, &[], &[], &mut c);
    }
}
