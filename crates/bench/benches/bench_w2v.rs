//! Criterion bench: word2vec (RW-P2) — batch-size, layout, and reduction
//! ablations (Figs. 5–6), plus the trainer's thread scaling.
//!
//! `w2v/hogwild_threads` trains one epoch at dims 8 and 128 on an
//! SBM-shaped corpus (the `nc.sbm36k` graph: dense communities, long
//! walks) on 1 and 2 threads, and prints tokens/s and ns per center (one
//! window step) for each, plus the 2-thread/1-thread ratio. A ratio near
//! 1 means the hogwild writes have stopped scaling; a jump in ns/center at
//! dim 128 alone is a large-d regression in the window kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use embed::ablation::{train_batched, train_locked, Layout, Reduction};
use embed::Word2VecConfig;
use par::ParConfig;
use std::hint::black_box;
use std::time::Instant;
use twalk::{generate_walks, WalkConfig};

fn corpus() -> (twalk::WalkSet, usize) {
    let g = tgraph::gen::preferential_attachment(5_000, 3, 5).undirected(true).build();
    let walks = generate_walks(&g, &WalkConfig::new(5, 6).seed(1), &ParConfig::default());
    (walks, g.num_nodes())
}

fn bench_batch_size(c: &mut Criterion) {
    let (walks, n) = corpus();
    let par = ParConfig::default();
    let cfg = Word2VecConfig::default().epochs(1).seed(2);
    let mut group = c.benchmark_group("w2v/batch_size");
    group.sample_size(10);
    for bs in [1usize, 256, 4_096, 16_384] {
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, &bs| {
            b.iter(|| {
                black_box(train_batched(&walks, n, &cfg, &par, bs, Layout::Packed, Reduction::Simd))
            });
        });
    }
    group.finish();
}

fn bench_layout_reduction(c: &mut Criterion) {
    let (walks, n) = corpus();
    let par = ParConfig::default();
    let mut group = c.benchmark_group("w2v/layout_reduction");
    group.sample_size(10);
    for (name, layout, reduction) in [
        ("padded_scalar", Layout::Padded, Reduction::Scalar),
        ("packed_scalar", Layout::Packed, Reduction::Scalar),
        ("packed_chunked", Layout::Packed, Reduction::Chunked),
        ("packed_simd", Layout::Packed, Reduction::Simd),
    ] {
        group.bench_function(name, |b| {
            let cfg = Word2VecConfig::default().epochs(1).seed(3);
            b.iter(|| {
                black_box(train_batched(&walks, n, &cfg, &par, usize::MAX, layout, reduction))
            });
        });
    }
    group.finish();
}

fn bench_dim(c: &mut Criterion) {
    let (walks, n) = corpus();
    let par = ParConfig::default();
    let mut group = c.benchmark_group("w2v/dim");
    group.sample_size(10);
    for dim in [2usize, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            let cfg = Word2VecConfig::default().dim(dim).epochs(1).seed(4);
            b.iter(|| black_box(embed::train(&walks, n, &cfg, &par)));
        });
    }
    group.finish();
}

fn bench_hogwild(c: &mut Criterion) {
    // The headline SGNS hot-path group: one full hogwild epoch at the
    // paper-optimal dim (8) and at the SIMD-stressing dim (128). This is
    // the group the SIMD kernel layer is gated on (≥1.5× at dim 128; see
    // DESIGN.md §10 / README perf table).
    let (walks, n) = corpus();
    let par = ParConfig::default();
    let mut group = c.benchmark_group("w2v/hogwild");
    group.sample_size(10);
    for dim in [8usize, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, &dim| {
            let cfg = Word2VecConfig::default().dim(dim).epochs(1).seed(6);
            b.iter(|| black_box(embed::train(&walks, n, &cfg, &par)));
        });
    }
    group.finish();
}

fn bench_locking(c: &mut Criterion) {
    // Ablation: hogwild (lock-free, stale-tolerant) vs a global lock —
    // the design choice enabling the paper's batched-GPU parallelism.
    let (walks, n) = corpus();
    let par = ParConfig::default();
    let cfg = Word2VecConfig::default().epochs(1).seed(5);
    let mut group = c.benchmark_group("w2v/locking");
    group.sample_size(10);
    group.bench_function("hogwild", |b| b.iter(|| black_box(embed::train(&walks, n, &cfg, &par))));
    group.bench_function("global_lock", |b| {
        b.iter(|| black_box(train_locked(&walks, n, &cfg, &par)))
    });
    group.finish();
}

fn bench_hogwild_threads(c: &mut Criterion) {
    let gen = tgraph::gen::temporal_sbm(36_000, 10, 36_000 * 40, 0.85, 7);
    let g = gen.builder.undirected(true).build();
    let walks = generate_walks(&g, &WalkConfig::new(10, 6).seed(1), &ParConfig::default());
    let n = g.num_nodes();
    let tokens = walks.total_vertices() as f64;
    let mut group = c.benchmark_group("w2v/hogwild_threads");
    group.sample_size(5);
    for dim in [8usize, 128] {
        let cfg = Word2VecConfig::default().dim(dim).epochs(1).seed(7);
        let mut tokens_per_s = Vec::new();
        for threads in [1usize, 2] {
            let par = ParConfig::with_threads(threads);
            let mut best = f64::INFINITY;
            let id = BenchmarkId::new(format!("d{dim}"), threads);
            group.bench_with_input(id, &threads, |b, _| {
                b.iter(|| {
                    let t0 = Instant::now();
                    black_box(embed::train(&walks, n, &cfg, &par));
                    best = best.min(t0.elapsed().as_secs_f64());
                });
            });
            // Not finite when the filter skipped this benchmark. Every
            // token is one center: one window step.
            if best.is_finite() {
                println!(
                    "    w2v/hogwild_threads/d{dim}/{threads}: {:.2} M tokens/s, {:.1} ns/center",
                    tokens / best * 1e-6,
                    best / tokens * 1e9
                );
                tokens_per_s.push(tokens / best);
            }
        }
        if let [one, two] = tokens_per_s[..] {
            println!("    w2v/hogwild_threads/d{dim}: 2-thread / 1-thread = {:.2}x", two / one);
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_size,
    bench_layout_reduction,
    bench_dim,
    bench_hogwild,
    bench_locking,
    bench_hogwild_threads
);
criterion_main!(benches);
