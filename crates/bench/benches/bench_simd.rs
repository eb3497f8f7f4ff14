//! Criterion bench: the `simd` kernel layer — dispatched (AVX2/FMA, NEON,
//! or scalar, whatever the host selects) vs the scalar reference, across
//! the dims the pipeline actually uses (8 = paper-optimal embedding dim,
//! 128 = large-embedding stress, 1024 = serving-scale rows).
//!
//! Run with `SIMD_FORCE_SCALAR=1` to measure the fallback against itself
//! (the two groups should then coincide). `simd/sgns_window` times the
//! SGNS window kernel, 1024 window steps per sample, each reading its
//! rows from and adding its updates to 1024-row tables in place.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::AtomicU32;

fn filled(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 * 1e-3)
        .collect()
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd/dot");
    group.sample_size(50);
    for dim in [8usize, 128, 1024] {
        let a = filled(dim, 1);
        let b = filled(dim, 2);
        group.bench_with_input(BenchmarkId::new("dispatched", dim), &dim, |bch, _| {
            bch.iter(|| {
                let mut acc = 0.0f32;
                for _ in 0..1024 {
                    acc += simd::dot(black_box(&a), black_box(&b));
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |bch, _| {
            bch.iter(|| {
                let mut acc = 0.0f32;
                for _ in 0..1024 {
                    acc += simd::scalar::dot(black_box(&a), black_box(&b));
                }
                acc
            });
        });
    }
    group.finish();
}

fn bench_axpy(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd/axpy");
    group.sample_size(50);
    for dim in [8usize, 128, 1024] {
        let x = filled(dim, 3);
        let mut y = filled(dim, 4);
        group.bench_with_input(BenchmarkId::new("dispatched", dim), &dim, |bch, _| {
            bch.iter(|| {
                for _ in 0..1024 {
                    simd::axpy(black_box(0.001), black_box(&x), black_box(&mut y));
                }
            });
        });
        let mut y2 = filled(dim, 4);
        group.bench_with_input(BenchmarkId::new("scalar", dim), &dim, |bch, _| {
            bch.iter(|| {
                for _ in 0..1024 {
                    simd::scalar::axpy(black_box(0.001), black_box(&x), black_box(&mut y2));
                }
            });
        });
    }
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd/gemm_transb");
    group.sample_size(20);
    // (m, n, k) shapes from the pipeline: FNN forward batches and the
    // serve micro-batcher's 2d-wide feature rows.
    for (m, n, k) in [(64usize, 64usize, 64usize), (256, 16, 256), (64, 256, 16)] {
        let a = filled(m * k, 8);
        let bt = filled(n * k, 9);
        let mut c_out = vec![0.0f32; m * n];
        let label = format!("{m}x{n}x{k}");
        group.bench_with_input(BenchmarkId::new("dispatched", &label), &label, |bch, _| {
            bch.iter(|| simd::gemm_transb(m, n, k, black_box(&a), black_box(&bt), &mut c_out));
        });
        let mut c_ref = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("scalar", &label), &label, |bch, _| {
            bch.iter(|| {
                simd::scalar::gemm_transb(m, n, k, black_box(&a), black_box(&bt), &mut c_ref)
            });
        });
    }
    group.finish();
}

fn bench_sgns_window(c: &mut Criterion) {
    // The SGNS window step at its largest default shape: 10 context rows
    // (window 5), 6 targets (5 negatives), over rows scattered across two
    // 1024-row tables that the steps keep training, as in RW-P2.
    let mut group = c.benchmark_group("simd/sgns_window");
    group.sample_size(50);
    let values: Vec<f32> =
        (0..1000).map(|i| 1.0 / (1.0 + (-((i as f32 / 999.0) * 12.0 - 6.0)).exp())).collect();
    let lut = simd::SigmoidLut { values: &values, max_exp: 6.0 };
    let (rows, b, s) = (1024usize, 10usize, 6usize);
    let row = |i: usize, salt: usize| (i.wrapping_mul(2654435761) ^ salt) % rows;
    for dim in [8usize, 128] {
        let table = |seed| -> Vec<AtomicU32> {
            filled(rows * dim, seed).iter().map(|x| AtomicU32::new((x - 0.5).to_bits())).collect()
        };
        let windows: Vec<(Vec<usize>, Vec<usize>)> = (0..1024)
            .map(|w| {
                (
                    (0..b).map(|j| row(w * b + j, 1)).collect(),
                    (0..s).map(|k| row(w * s + k, 2)).collect(),
                )
            })
            .collect();
        type Kernel = fn(
            usize,
            usize,
            &[AtomicU32],
            &[usize],
            &[AtomicU32],
            &[usize],
            simd::SigmoidLut<'_>,
            f32,
        );
        for (name, kernel) in
            [("dispatched", simd::sgns_window as Kernel), ("scalar", simd::scalar::sgns_window)]
        {
            let (syn0, syn1) = (table(10), table(11));
            group.bench_with_input(BenchmarkId::new(name, dim), &dim, |bch, _| {
                bch.iter(|| {
                    for (ctx, tgt) in &windows {
                        kernel(dim, dim, black_box(&syn0), ctx, black_box(&syn1), tgt, lut, 0.025);
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dot, bench_axpy, bench_gemm, bench_sgns_window);
criterion_main!(benches);
