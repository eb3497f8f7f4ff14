//! Criterion bench: the temporal random walk kernel (RW-P1).
//!
//! Covers the Fig. 8a complexity axis (walks per node), the sampler
//! ablation (uniform vs Eq. 1 softmax — the compute-heavy part the paper
//! highlights), and graph-size growth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use par::ParConfig;
use std::hint::black_box;
use twalk::{generate_walks, generate_walks_prepared, TransitionSampler, WalkConfig};

fn bench_walks_per_node(c: &mut Criterion) {
    let g = tgraph::gen::preferential_attachment(10_000, 3, 1).undirected(true).build();
    let par = ParConfig::default();
    let mut group = c.benchmark_group("rwalk/walks_per_node");
    group.sample_size(10);
    for k in [1usize, 5, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = WalkConfig::new(k, 6).seed(1);
            b.iter(|| black_box(generate_walks(&g, &cfg, &par)));
        });
    }
    group.finish();
}

fn bench_sampler(c: &mut Criterion) {
    let g = tgraph::gen::preferential_attachment(10_000, 3, 2).undirected(true).build();
    let par = ParConfig::default();
    let mut group = c.benchmark_group("rwalk/sampler");
    group.sample_size(10);
    for (name, sampler) in [
        ("uniform", TransitionSampler::Uniform),
        ("softmax", TransitionSampler::Softmax),
        ("softmax_recency", TransitionSampler::SoftmaxRecency),
    ] {
        group.bench_function(name, |b| {
            let cfg = WalkConfig::new(10, 6).sampler(sampler).seed(2);
            b.iter(|| black_box(generate_walks(&g, &cfg, &par)));
        });
    }
    group.finish();
}

fn bench_sampler_high_degree(c: &mut Criterion) {
    // High-degree regime where per-step sampling cost dominates: PA with
    // m = 16 made undirected gives mean degree ~= 32, so the biased
    // samplers do real work per transition.
    let g = tgraph::gen::preferential_attachment(20_000, 16, 7).undirected(true).build();
    let par = ParConfig::default();
    let mut group = c.benchmark_group("rwalk/sampler_high_degree");
    group.sample_size(10);
    for (name, sampler) in [
        ("uniform", TransitionSampler::Uniform),
        ("softmax", TransitionSampler::Softmax),
        ("softmax_recency", TransitionSampler::SoftmaxRecency),
        ("linear", TransitionSampler::LinearTime),
    ] {
        group.bench_function(name, |b| {
            let cfg = WalkConfig::new(10, 8).sampler(sampler).seed(7);
            b.iter(|| black_box(generate_walks(&g, &cfg, &par)));
        });
    }
    group.finish();
}

fn bench_graph_size(c: &mut Criterion) {
    let par = ParConfig::default();
    let mut group = c.benchmark_group("rwalk/graph_size");
    group.sample_size(10);
    for n in [2_000usize, 8_000, 32_000] {
        let g = tgraph::gen::erdos_renyi(n, n * 10, 3).build();
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let cfg = WalkConfig::new(10, 6).seed(3);
            b.iter(|| black_box(generate_walks(g, &cfg, &par)));
        });
    }
    group.finish();
}

fn bench_walks(c: &mut Criterion) {
    // The kernel alone, on the two walk paths (DESIGN.md §11): softmax,
    // K = 10, N = 6, 4 threads, sampler preparation hoisted out of the
    // timed region. PA 150k m = 3 undirected (mean degree ~8) outgrows a
    // small LLC, so it runs on the ring; PA 10k m = 3 fits, so it runs
    // the per-walk loop.
    let big = tgraph::gen::preferential_attachment(150_000, 3, 9).undirected(true).build();
    let small = tgraph::gen::preferential_attachment(10_000, 3, 5).undirected(true).build();
    let base = WalkConfig::new(10, 6).sampler(TransitionSampler::Softmax).seed(9);
    let rows = [
        ("pa150k", &big, base.sampler.prepare(&big)),
        ("pa10k", &small, base.sampler.prepare(&small)),
    ];
    let par = ParConfig::with_threads(4).chunk_size(64);
    let mut group = c.benchmark_group("rwalk/walks");
    group.sample_size(10);
    for (name, g, sampler) in &rows {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(generate_walks_prepared(g, &base, sampler, &par)));
        });
    }
    group.finish();
}

fn bench_neighbor_lookup(c: &mut Criterion) {
    // Ablation: binary search vs the paper Algorithm 1's O(M) linear scan
    // in `sampleLatest` — the reason the implementation keeps adjacency
    // timestamp-sorted.
    let g = tgraph::gen::preferential_attachment(20_000, 4, 4).undirected(true).build();
    let queries: Vec<(u32, f64)> =
        (0..4_096u32).map(|i| ((i * 37) % g.num_nodes() as u32, (i as f64 * 0.13) % 1.0)).collect();
    let mut group = c.benchmark_group("rwalk/neighbor_lookup");
    group.bench_function("binary_search", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(v, t) in &queries {
                total += black_box(g.neighbors_after(v, t)).0.len();
            }
            total
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(v, t) in &queries {
                total += black_box(g.neighbors_after_linear(v, t)).0.len();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_walks_per_node,
    bench_sampler,
    bench_sampler_high_degree,
    bench_graph_size,
    bench_walks,
    bench_neighbor_lookup
);
criterion_main!(benches);
