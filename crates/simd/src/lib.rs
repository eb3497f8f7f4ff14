//! Runtime-dispatched f32 slice kernels for the workspace's compute hot
//! paths (SGNS training, GEMM, serving scans).
//!
//! The paper's §V-B GPU optimizations are all about maximizing
//! per-dimension arithmetic throughput; this crate is the CPU counterpart.
//! Each public function (`dot`, `axpy`, `scale_accum`, the three GEMM
//! forms `gemm`, `gemm_transb`, `gemm_transa_accum`, and the fused SGNS
//! window step `sgns_window`) has three implementations:
//!
//! * **AVX2 + FMA** (`x86`/`x86_64`) — 8-lane fused multiply-add kernels;
//! * **NEON** (`aarch64`) — 4-lane equivalents (`gemm`,
//!   `gemm_transa_accum` and `sgns_window` point at the scalar code: no
//!   NEON host tests them);
//! * **scalar** — portable unrolled loops, the semantic reference.
//!
//! [`FlushSubnormals`] is the one piece of floating-point environment
//! control: a guard that flushes subnormals to zero while a classifier
//! trains.
//!
//! Selection happens **once**, on first use, via
//! `is_x86_feature_detected!` (resp. `is_aarch64_feature_detected!`) into
//! a function-pointer table (`KernelTable`) held in a
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
    sgns_window: fn(usize, &mut [f32], &mut [f32], SigmoidLut<'_>, f32),
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
        sgns_window: scalar::sgns_window,
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
    pub fn sgns_window(
        d: usize,
        inp: &mut [f32],
        out: &mut [f32],
        sigmoid: super::SigmoidLut<'_>,
        lr: f32,
    ) {
        let len = x86::window_scratch_len(inp.len() / d, out.len() / d);
        // The kernel writes every scratch float before reading it, so the
        // stack buffer is left uninitialized rather than zeroed per call.
        let mut stack = std::mem::MaybeUninit::<[f32; super::WINDOW_STACK_FLOATS]>::uninit();
        let mut heap = Vec::new();
        let g = if len <= super::WINDOW_STACK_FLOATS {
            stack.as_mut_ptr().cast::<f32>()
        } else {
            heap.resize(len, 0.0);
            heap.as_mut_ptr()
        };
        // SAFETY: as above; `super::sgns_window` checked both row buffers,
        // and `g` points at `len` writable floats.
        unsafe { x86::sgns_window(d, inp, out, g, sigmoid, lr) }
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
        sgns_window: x86_entry::sgns_window,
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
        sgns_window: scalar::sgns_window,
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

/// word2vec's sigmoid lookup: `values` samples σ at `values.len()` evenly
/// spaced points over `[-max_exp, max_exp]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmoidLut<'a> {
    /// σ at the bucket points, first at `-max_exp`, last at `max_exp`.
    pub values: &'a [f32],
    /// Half-width of the tabulated range (word2vec: 6).
    pub max_exp: f32,
}

impl SigmoidLut<'_> {
    /// Approximate σ(x): exactly 1 at or above `max_exp`, exactly 0 at or
    /// below `-max_exp`, else the value of bucket
    /// `⌊(x / max_exp + 1) · ½ · (len − 1)⌋`. Every backend of
    /// [`sgns_window`] picks this bucket for a given score.
    #[inline]
    pub fn get(&self, x: f32) -> f32 {
        if x >= self.max_exp {
            return 1.0;
        }
        if x <= -self.max_exp {
            return 0.0;
        }
        let last = self.values.len() - 1;
        let idx = ((x / self.max_exp + 1.0) * 0.5 * last as f32) as usize;
        self.values[idx.min(last)]
    }
}

/// Floats of stack scratch a [`sgns_window`] backend keeps for `G` and one
/// column chunk of `ΔOut`: enough for every window of up to 24 context
/// rows and 8 targets (window ≤ 12, negatives ≤ 7). Larger windows take a
/// heap buffer.
const WINDOW_STACK_FLOATS: usize = 256;

/// One skip-gram-with-negative-sampling window step, in place.
///
/// `inp` holds the B gathered context rows and `out` the S gathered target
/// rows, each `d` wide and packed; target 0 is the positive (label 1), the
/// rest are negatives (label 0). With `G = (label − σ(In · Outᵀ)) · lr`
/// (B × S, σ from `sigmoid`), the call overwrites `inp` with
/// `ΔIn = G · Out` and `out` with `ΔOut = Gᵀ · In`, both computed from the
/// rows as passed in. Scores and `G` never leave the kernel.
///
/// # Panics
///
/// Panics if `d == 0`, either buffer is not a whole number of rows, or
/// `sigmoid.values` is empty or longer than `i32::MAX` (the AVX2 kernel
/// gathers from it with 32-bit indices).
///
/// # Examples
///
/// ```
/// let values = [0.25f32, 0.5, 0.75];
/// let sigmoid = simd::SigmoidLut { values: &values, max_exp: 6.0 };
/// let (mut inp, mut out) = ([1.0f32, 0.0], [0.0f32, 2.0]);
/// simd::sgns_window(2, &mut inp, &mut out, sigmoid, 0.5);
/// // Score 0 sits in the middle bucket: G = (1 − 0.5) · 0.5.
/// assert_eq!((inp, out), ([0.0, 0.5], [0.25, 0.0]));
/// ```
#[inline]
pub fn sgns_window(d: usize, inp: &mut [f32], out: &mut [f32], sigmoid: SigmoidLut<'_>, lr: f32) {
    assert!(d > 0, "window rows must be at least one float wide");
    assert_eq!(inp.len() % d, 0, "context buffer is not whole rows");
    assert_eq!(out.len() % d, 0, "target buffer is not whole rows");
    assert!(
        (1..=i32::MAX as usize).contains(&sigmoid.values.len()),
        "sigmoid table must hold 1..=i32::MAX values"
    );
    if inp.is_empty() || out.is_empty() {
        return;
    }
    (KERNELS.sgns_window)(d, inp, out, sigmoid, lr)
}

/// While alive, flushes subnormal `f32` results and inputs to zero on the
/// current thread; dropping it (also during a panic's unwind) restores the
/// thread's previous mode.
///
/// On x86-64 this sets MXCSR's flush-to-zero (bit 15) and
/// denormals-are-zero (bit 6) bits. Elsewhere, and under Miri, it does
/// nothing. Gradients that decay toward zero otherwise run through the
/// CPU's slow subnormal path on every multiply.
#[derive(Debug)]
pub struct FlushSubnormals {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    saved: u32,
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod mxcsr {
    use core::arch::asm;

    pub const FTZ: u32 = 1 << 15;
    pub const DAZ: u32 = 1 << 6;

    pub fn get() -> u32 {
        let mut csr = 0u32;
        // SAFETY: `stmxcsr` stores the 4-byte MXCSR to a valid, writable
        // local.
        unsafe { asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack, preserves_flags)) };
        csr
    }

    pub fn set(csr: u32) {
        // SAFETY: `ldmxcsr` reads 4 bytes from a valid local. The caller
        // only passes back a word `get` returned, with at most the FTZ and
        // DAZ bits changed, which every x86-64 CPU supports.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &csr, options(nostack, readonly, preserves_flags)) };
    }
}

impl FlushSubnormals {
    /// Starts flushing subnormals on this thread.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            let saved = mxcsr::get();
            mxcsr::set(saved | mxcsr::FTZ | mxcsr::DAZ);
            Self { saved }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        Self {}
    }
}

impl Drop for FlushSubnormals {
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        mxcsr::set(self.saved);
    }
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
    fn flush_subnormals_guard_flushes_and_restores() {
        let half_min = || std::hint::black_box(f32::MIN_POSITIVE) * std::hint::black_box(0.5);
        let subnormal = half_min();
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let flushes = cfg!(all(target_arch = "x86_64", not(miri)));
        {
            let _flush = FlushSubnormals::new();
            assert_eq!(half_min() == 0.0, flushes);
        }
        assert_eq!(half_min(), subnormal);
        // A panic inside the guard unwinds through its drop.
        let caught = std::panic::catch_unwind(|| {
            let _flush = FlushSubnormals::new();
            assert_eq!(half_min() == 0.0, flushes);
            panic!("inside the guard");
        });
        assert!(caught.is_err());
        assert_eq!(half_min(), subnormal);
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
