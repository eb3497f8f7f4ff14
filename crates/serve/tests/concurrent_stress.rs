//! Concurrency stress: queries racing background snapshot publishes must
//! never observe torn state (half of one model version, half of another).
//!
//! Two layers:
//!
//! 1. A white-box store test where every published version is filled with
//!    a version-derived sentinel value, so any mix of versions inside one
//!    loaded snapshot is detectable.
//! 2. An end-to-end test where real queries run against a [`Service`]
//!    while an [`IncrementalEmbedder`]-backed refresher ingests edges and
//!    publishes — every response must be internally consistent and the
//!    version must only move forward.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use embed::EmbeddingMatrix;
use nn::{Mlp, OutputHead};
use par::ParConfig;
use rwalk_core::{Hyperparams, IncrementalEmbedder};
use rwserve::json::Json;
use rwserve::{BatchPolicy, EmbeddingStore, Service};

/// Every f32 in version `v`'s table equals `v as f32`, and the expected
/// link score for such a uniform table is the same for every pair — so a
/// reader can verify an entire query against a single version.
#[test]
fn snapshot_swaps_are_never_torn() {
    let (n, d) = (64, 8);
    let make_emb = |version: u64| EmbeddingMatrix::from_vec(n, d, vec![version as f32; n * d]);
    let mlp = Mlp::new(&[2 * d, 8, 1], OutputHead::Binary, 42);
    let store = Arc::new(EmbeddingStore::new(make_emb(1), mlp));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut observed = 0u64;
                let mut loads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.load();
                    let expect = snap.version as f32;
                    // Scan the whole table: every value must match the
                    // sentinel of the snapshot's own version.
                    for (i, &x) in snap.emb.as_slice().iter().enumerate() {
                        assert_eq!(
                            x, expect,
                            "torn snapshot: v{} table holds {x} at flat index {i}",
                            snap.version
                        );
                    }
                    assert!(snap.version >= observed, "version moved backwards");
                    observed = snap.version;
                    loads += 1;
                }
                loads
            })
        })
        .collect();

    // Writer: publish as fast as possible for a while.
    for version in 2..400u64 {
        let published = store.publish_embedding(make_emb(version));
        assert_eq!(published, version);
    }
    thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let total_loads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_loads > 0, "readers never ran");
    assert_eq!(store.version(), 399);
}

#[test]
fn queries_stay_consistent_while_refreshes_publish() {
    let g = tgraph::gen::preferential_attachment(150, 2, 9).undirected(true).build();
    let hp = Hyperparams::paper_optimal().quick_test();
    let mut embedder = IncrementalEmbedder::new(hp.clone(), &g);
    let emb = embedder.refresh().clone();
    let mlp = Mlp::new(&[2 * emb.dim(), 8, 1], OutputHead::Binary, hp.seed);
    let store = Arc::new(EmbeddingStore::new(emb, mlp));
    let service = Arc::new(
        Service::new(Arc::clone(&store), ParConfig::with_threads(2), BatchPolicy::default())
            .with_refresher(embedder, Duration::from_millis(5)),
    );

    let stop = Arc::new(AtomicBool::new(false));
    let queriers: Vec<_> = (0..4u32)
        .map(|t| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_version = 0u64;
                let mut answered = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let (u, v) = (i % 150, (i * 7 + 1) % 150);
                    let line = format!(r#"{{"op":"link_score","u":{u},"v":{v}}}"#);
                    let response = Json::parse(&service.handle_line(&line)).unwrap();
                    assert_eq!(
                        response.get("ok"),
                        Some(&Json::Bool(true)),
                        "valid query failed mid-refresh: {response}"
                    );
                    let score = response.get("score").and_then(Json::as_f64).unwrap();
                    assert!(
                        (0.0..=1.0).contains(&score) && score.is_finite(),
                        "nonsense score {score} — torn model state?"
                    );
                    let version = response.get("version").and_then(Json::as_u64).unwrap();
                    assert!(version >= last_version, "served version went backwards");
                    last_version = version;
                    answered += 1;
                    i = i.wrapping_add(13);
                }
                answered
            })
        })
        .collect();

    // Stream edges (including brand-new vertices) while queries run.
    for (round, next_node) in (150u32..156).enumerate() {
        let t = 2.0 + round as f64 * 0.1;
        let response = Json::parse(&service.handle_line(&format!(
            r#"{{"op":"ingest","edges":[[0,{next_node},{t}],[{next_node},1,{t}]]}}"#
        )))
        .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        thread::sleep(Duration::from_millis(15));
    }

    // Wait for at least one background publish.
    let deadline = Instant::now() + Duration::from_secs(60);
    while store.version() < 2 {
        assert!(Instant::now() < deadline, "no refresh ever published");
        thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    let answered: u64 = queriers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(answered > 0, "queriers never ran");

    let stats = service.stats();
    assert!(stats.refreshes >= 1, "refresher published nothing");
    assert!(stats.snapshot_version >= 2);
    assert_eq!(stats.errors, 0, "consistent queries must not error during refreshes");
    // The streamed new vertices are now served.
    let grown = store.load();
    assert!(grown.emb.num_nodes() > 150, "new vertices missing from served table");
}
