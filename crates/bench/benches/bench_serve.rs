//! Criterion bench: the online serving subsystem (`rwserve`).
//!
//! `serve/link_score_64` answers the same 64 `link_score` lines two ways,
//! both on the calling thread: one `Service::handle_line` per line (what
//! a blocking connection handler does) and one `Service::respond_batch`
//! over all 64 (what a shard worker does with a drained group). Both
//! include parsing, scoring and serializing, so the two times compare
//! directly: their ratio is what one 64-row forward pass saves over 64
//! one-row passes.
//!
//! Also covered: the parallel brute-force `topk_neighbors` scan and raw
//! snapshot load/publish churn.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use embed::EmbeddingMatrix;
use nn::{Mlp, OutputHead};
use par::ParConfig;
use rwserve::protocol::parse_request;
use rwserve::{BatchPolicy, EmbeddingStore, QueryEngine, Service};
use std::hint::black_box;

const GROUP: u32 = 64;

/// A serving store over a synthetic embedding table (paper-optimal
/// `d = 8`, 2-layer FNN with 64 hidden units).
fn store(n: usize) -> Arc<EmbeddingStore> {
    let d = 8;
    let data: Vec<f32> = (0..n * d).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect();
    let emb = EmbeddingMatrix::from_vec(n, d, data);
    Arc::new(EmbeddingStore::new(emb, Mlp::new(&[2 * d, 64, 1], OutputHead::Binary, 42)))
}

fn bench_link_score(c: &mut Criterion) {
    let svc = Service::new(store(10_000), ParConfig::with_threads(2), BatchPolicy::default());
    let lines: Vec<String> = (0..GROUP)
        .map(|i| {
            let (u, v) = ((i * 131) % 10_000, (i * 31 + 1) % 10_000);
            format!(r#"{{"op":"link_score","u":{u},"v":{v}}}"#)
        })
        .collect();
    let mut group = c.benchmark_group("serve/link_score_64");
    group.bench_function("handle_line_lone", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(svc.handle_line(black_box(line)));
            }
        })
    });
    group.bench_function("respond_batch", |b| {
        b.iter(|| {
            let requests =
                lines.iter().map(|l| parse_request(black_box(l)).expect("valid line")).collect();
            black_box(svc.respond_batch(requests))
        })
    });
    group.finish();
}

fn bench_topk(c: &mut Criterion) {
    let engine = QueryEngine::new(store(100_000), ParConfig::default());
    let mut group = c.benchmark_group("serve/topk_scan_100k");
    group.sample_size(10);
    for k in [1usize, 10, 100] {
        group.bench_function(format!("k{k}"), |b| {
            b.iter(|| black_box(engine.topk_neighbors(17, k).expect("valid query")))
        });
    }
    group.finish();
}

fn bench_snapshot_churn(c: &mut Criterion) {
    let s = store(10_000);
    let mut group = c.benchmark_group("serve/snapshot");
    group.bench_function("load", |b| b.iter(|| black_box(s.load().version)));
    let emb = s.load().emb.clone();
    group.bench_function("publish_embedding", |b| {
        b.iter(|| black_box(s.publish_embedding(emb.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_link_score, bench_topk, bench_snapshot_churn);
criterion_main!(benches);
