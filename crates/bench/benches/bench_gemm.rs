//! Criterion bench: GEMM kernels at the pipeline's (small) matrix sizes
//! vs VGG-scale sizes — the §VII-B / §VIII observation that libraries are
//! tuned for the latter.
//!
//! * `gemm/fma_peak` — a single-core FMA-throughput probe (std-only:
//!   `std::arch` intrinsics, independent 8-lane FMA chains): the roof the
//!   products below are measured against. It probes the 256-bit FMA path
//!   the `simd` kernels use; a host with 512-bit FMA units has a higher
//!   ceiling the kernels do not reach for.
//! * `gemm/lp_*`, `gemm/nc_*` — the three products of one batch-64
//!   classifier training step, per layer, at the link-prediction
//!   (`[16, 64, 1]`) and node-classification (`[8, 64, 64, 10]`) shapes:
//!   forward `X·W` (+ bias / ReLU), weight gradient `Xᵀ·δ`, input
//!   gradient `δ·Wᵀ`. Each prints GFLOP/s = 2mnk / t from the fastest
//!   sample and its fraction of the probe's peak.
//! * `gemm/vgg_784x288x128` — one shrunken VGG conv layer, naive vs the
//!   tiled kernel vs the row-parallel split.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use nn::gemm::{matmul, matmul_naive, matmul_parallel};
use nn::Tensor2;
use par::ParConfig;
use simd::Epilogue;

/// Kernel calls per timed sample: one call is 0.1–10 µs, below what a
/// single clock read resolves well.
const REPS: usize = 200;

thread_local! {
    /// The probe's GFLOP/s, once `gemm/fma_peak` has run.
    static PEAK: Cell<Option<f64>> = const { Cell::new(None) };
}

/// Times `f` (which does `flops` floating-point operations) as a criterion
/// benchmark, and prints and returns its best-sample GFLOP/s (with its
/// fraction of peak once the probe has run).
fn bench_flops(
    c: &mut Criterion,
    group: &str,
    name: &str,
    flops: f64,
    mut f: impl FnMut(),
) -> Option<f64> {
    let mut best = f64::INFINITY;
    c.benchmark_group(group).bench_function(name, |b| {
        b.iter(|| {
            let t0 = Instant::now();
            for _ in 0..REPS {
                f();
            }
            best = best.min(t0.elapsed().as_secs_f64() / REPS as f64);
        })
    });
    // Not finite when the filter skipped this benchmark.
    best.is_finite().then(|| {
        let gflops = flops / best * 1e-9;
        let frac = PEAK
            .with(Cell::get)
            .map_or(String::new(), |p| format!("  {:5.1} % of peak", 100.0 * gflops / p));
        println!("    {group}/{name}: {:8.1} ns  {gflops:6.2} GFLOP/s{frac}", best * 1e9);
        gflops
    })
}

/// `N_CHAINS` independent FMA chains, `iters` steps each: enough chains to
/// cover FMA latency × issue width, so the loop runs at issue rate.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_chains(iters: usize) -> f32 {
    use std::arch::x86_64::*;
    const N_CHAINS: usize = 12;
    let mut acc = [_mm256_set1_ps(1.0); N_CHAINS];
    let (a, b) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1e-7));
    for _ in 0..iters {
        for v in &mut acc {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut out = [0.0f32; 8];
    let sum = acc.iter().fold(_mm256_setzero_ps(), |s, &v| _mm256_add_ps(s, v));
    _mm256_storeu_ps(out.as_mut_ptr(), sum);
    out.iter().sum()
}

fn bench_fma_peak(c: &mut Criterion) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        let iters = 64;
        let flops = (iters * 12 * 8 * 2) as f64;
        let peak = bench_flops(c, "gemm/fma_peak", "avx2_fma_1core", flops, || {
            // SAFETY: both features were detected just above.
            black_box(unsafe { fma_chains(black_box(iters)) });
        });
        PEAK.with(|p| p.set(peak));
        return;
    }
    println!("    gemm/fma_peak: no AVX2+FMA on this host; fractions of peak omitted");
}

/// Deterministic values in [-1, 1).
fn filled(n: usize, seed: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 7919 + seed * 104_729) % 2000) as f32 / 1000.0 - 1.0).collect()
}

/// The three training products of every layer of `dims` at batch `m`.
fn bench_training_products(c: &mut Criterion, task: &str, dims: &[usize]) {
    let m = 64;
    for (l, w) in dims.windows(2).enumerate() {
        let (k, n) = (w[0], w[1]);
        let last = l + 2 == dims.len();
        let (x, wt, bias) = (filled(m * k, 1), filled(k * n, 2), filled(n, 3));
        let delta = filled(m * n, 4);
        let flops = 2.0 * (m * n * k) as f64;

        let mut out = vec![0.0f32; m * n];
        let epi = if last { Epilogue::Bias(&bias) } else { Epilogue::BiasRelu(&bias) };
        bench_flops(
            c,
            &format!("gemm/{task}_forward"),
            &format!("l{l}_{m}x{k}x{n}"),
            flops,
            || simd::gemm(m, n, k, black_box(&x), &wt, &mut out, epi),
        );

        let mut grad = vec![0.0f32; k * n];
        bench_flops(
            c,
            &format!("gemm/{task}_weight_grad"),
            &format!("l{l}_{k}x{m}x{n}"),
            flops,
            || simd::gemm_transa_accum(m, n, k, black_box(&x), &delta, &mut grad),
        );

        if l > 0 {
            // Layer 0's input gradient is never needed.
            let mut prev = vec![0.0f32; m * k];
            let name = format!("l{l}_{m}x{n}x{k}");
            bench_flops(c, &format!("gemm/{task}_input_grad"), &name, flops, || {
                if n == 1 {
                    simd::gemm(m, k, 1, black_box(&delta), &wt, &mut prev, Epilogue::None)
                } else {
                    simd::gemm_transb(m, k, n, black_box(&delta), &wt, &mut prev)
                }
            });
        }
    }
}

fn bench_lp_shape(c: &mut Criterion) {
    bench_training_products(c, "lp", &[16, 64, 1]);
}

fn bench_nc_shape(c: &mut Criterion) {
    bench_training_products(c, "nc", &[8, 64, 64, 10]);
}

fn bench_vgg_sized(c: &mut Criterion) {
    // One shrunken VGG conv layer: 784 × 288 × 128.
    let a = Tensor2::xavier(784, 288, 3);
    let b = Tensor2::xavier(288, 128, 4);
    let par = ParConfig::default();
    let mut group = c.benchmark_group("gemm/vgg_784x288x128");
    group.sample_size(10);
    group.bench_function("naive", |bch| bch.iter(|| black_box(matmul_naive(&a, &b))));
    group.bench_function("packed", |bch| bch.iter(|| black_box(matmul(&a, &b))));
    group.bench_function("parallel", |bch| bch.iter(|| black_box(matmul_parallel(&a, &b, &par))));
    group.finish();
}

criterion_group!(benches, bench_fma_peak, bench_lp_shape, bench_nc_shape, bench_vgg_sized);
criterion_main!(benches);
