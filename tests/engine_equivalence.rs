//! Property-style equivalence suite for the walk execution engines.
//!
//! The batched engine (`twalk::engine::batched`) and the interleaved
//! engine (`twalk::engine::interleaved`) reorder execution aggressively —
//! step-synchronous rounds, counting-sort grouping, per-worker rings that
//! switch walks at pipeline-stage boundaries — but every `(walk, vertex)`
//! pair owns its own RNG stream, so their output must be
//! **bit-identical** to the per-walk engine for every sampler, thread
//! count, chunk size, ring size, and graph shape. These tests assert
//! exactly that, on both the full-run and the incremental-refresh
//! (`generate_walks_from`) paths.
//!
//! CI additionally runs this suite under `SIMD_FORCE_SCALAR=1` (the
//! forced-scalar pass) so engine identity is pinned on the scalar kernel
//! fallbacks too.

use par::{BoundedQueue, ParConfig};
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};
use twalk::{
    generate_walks_from_prepared, generate_walks_prepared, generate_walks_prepared_to_sink,
    ChannelSink, CollectSink, SamplerBuilder, SamplingMethod, TransitionSampler, WalkConfig,
    WalkEngine, WalkSink,
};

const SAMPLERS: [TransitionSampler; 4] = [
    TransitionSampler::Uniform,
    TransitionSampler::Softmax,
    TransitionSampler::SoftmaxRecency,
    TransitionSampler::LinearTime,
];

/// The graph zoo: Erdős–Rényi, degree-skewed preferential attachment, a
/// long chain, and a graph whose tail vertices are isolated.
fn graphs() -> Vec<(&'static str, TemporalGraph)> {
    let chain = {
        let mut b = GraphBuilder::new();
        for i in 0..120u32 {
            b = b.add_edge(TemporalEdge::new(i, i + 1, i as f64 / 120.0));
        }
        b.build()
    };
    let isolated = GraphBuilder::new()
        .add_edge(TemporalEdge::new(0, 1, 0.2))
        .add_edge(TemporalEdge::new(1, 2, 0.4))
        .add_edge(TemporalEdge::new(2, 0, 0.6))
        .num_nodes(200) // vertices 3..200 have no edges at all
        .build();
    vec![
        ("erdos-renyi", tgraph::gen::erdos_renyi(300, 3_000, 5).build()),
        ("pref-attach", tgraph::gen::preferential_attachment(400, 3, 7).undirected(true).build()),
        ("chain", chain),
        ("isolated-tail", isolated),
    ]
}

/// Bit-identity of batched and interleaved vs per-walk across the full
/// parameter grid: all four samplers × thread counts {1, 4, 8} × chunk
/// sizes × the graph zoo. The per-walk single-thread run is the
/// reference; every other configuration must reproduce it exactly.
#[test]
fn bulk_engines_are_bit_identical_to_per_walk_across_grid() {
    for (name, g) in graphs() {
        for sampler in SAMPLERS {
            let cfg = WalkConfig::new(4, 7).sampler(sampler).seed(29);
            let prepared = sampler.prepare(&g);
            let reference = generate_walks_prepared(
                &g,
                &cfg.engine(WalkEngine::PerWalk),
                &prepared,
                &ParConfig::with_threads(1),
            );
            for threads in [1usize, 4, 8] {
                for chunk in [13usize, 256] {
                    let par = ParConfig::with_threads(threads).chunk_size(chunk);
                    for engine in
                        [WalkEngine::PerWalk, WalkEngine::Batched, WalkEngine::Interleaved]
                    {
                        let got = generate_walks_prepared(&g, &cfg.engine(engine), &prepared, &par);
                        assert_eq!(
                            got, reference,
                            "{engine} diverged on {name} with {sampler}, \
                             {threads} threads, chunk {chunk}"
                        );
                    }
                }
            }
        }
    }
}

/// The ring size only changes how many walks an interleaved worker keeps
/// in flight, never what they produce: every size from a degenerate
/// 1-slot ring (pure sequential fetch/advance) to one far larger than any
/// block must be bit-identical to the per-walk reference.
#[test]
fn interleaved_ring_sizes_are_walk_invariant() {
    let g = tgraph::gen::preferential_attachment(400, 3, 7).undirected(true).build();
    for sampler in [TransitionSampler::Softmax, TransitionSampler::Uniform] {
        let base = WalkConfig::new(4, 7).sampler(sampler).seed(29);
        let prepared = sampler.prepare(&g);
        let reference = generate_walks_prepared(
            &g,
            &base.engine(WalkEngine::PerWalk),
            &prepared,
            &ParConfig::with_threads(1),
        );
        for ring in [1usize, 3, 32, 256] {
            for threads in [1usize, 4, 8] {
                let par = ParConfig::with_threads(threads).chunk_size(64);
                let cfg = base.engine(WalkEngine::Interleaved).ring(ring);
                let got = generate_walks_prepared(&g, &cfg, &prepared, &par);
                assert_eq!(
                    got, reference,
                    "ring {ring} diverged with {sampler}, {threads} threads"
                );
            }
        }
    }
}

/// The refresh path: batched `generate_walks_from` rows must equal both
/// the per-walk refresh rows and the corresponding full-run rows —
/// including when sources repeat (the counting sort must group them) and
/// include isolated vertices.
#[test]
fn refresh_paths_are_engine_independent() {
    for (name, g) in graphs() {
        let n = g.num_nodes() as u32;
        // Duplicates and an isolated-or-low-degree tail vertex on purpose.
        let sources: Vec<u32> = vec![0, 5 % n, 0, n - 1, 17 % n, 5 % n, n / 2];
        for sampler in SAMPLERS {
            let cfg = WalkConfig::new(3, 6).sampler(sampler).seed(31);
            let prepared = sampler.prepare(&g);
            let full = generate_walks_prepared(
                &g,
                &cfg.engine(WalkEngine::PerWalk),
                &prepared,
                &ParConfig::with_threads(1),
            );
            let reference = generate_walks_from_prepared(
                &g,
                &cfg.engine(WalkEngine::PerWalk),
                &prepared,
                &sources,
                &ParConfig::with_threads(1),
            );
            for threads in [1usize, 4, 8] {
                let par = ParConfig::with_threads(threads).chunk_size(13);
                for engine in [WalkEngine::Batched, WalkEngine::Interleaved] {
                    let got = generate_walks_from_prepared(
                        &g,
                        &cfg.engine(engine),
                        &prepared,
                        &sources,
                        &par,
                    );
                    assert_eq!(got, reference, "{engine} refresh diverged on {name} ({sampler})");
                }
            }
            // Refresh rows must also match the full run's rows for the
            // same (walk, vertex) pairs — the incremental-embedder
            // contract.
            for w in 0..cfg.walks_per_node {
                for (i, &v) in sources.iter().enumerate() {
                    assert_eq!(
                        reference.walk(w * sources.len() + i),
                        full.walk(w * g.num_nodes() + v as usize),
                        "refresh row (walk {w}, source {v}) diverged on {name}"
                    );
                }
            }
        }
    }
}

/// Engine identity must also hold for non-default temporal semantics:
/// static mode (timestamps ignored) and a finite first-hop start time.
#[test]
fn engines_agree_on_static_mode_and_start_time() {
    let g = tgraph::gen::preferential_attachment(350, 3, 11).undirected(true).build();
    let variants = [
        WalkConfig::new(3, 8).seed(41).respect_time(false),
        WalkConfig::new(3, 8).seed(41).start_time(0.35),
        WalkConfig::new(2, 1).seed(41), // max_length == 1: no rounds at all
    ];
    for cfg in variants {
        for sampler in SAMPLERS {
            let cfg = cfg.sampler(sampler);
            let prepared = sampler.prepare(&g);
            let par = ParConfig::with_threads(4).chunk_size(64);
            let a = generate_walks_prepared(&g, &cfg.engine(WalkEngine::PerWalk), &prepared, &par);
            for engine in [WalkEngine::Batched, WalkEngine::Interleaved] {
                let b = generate_walks_prepared(&g, &cfg.engine(engine), &prepared, &par);
                assert_eq!(
                    a, b,
                    "{engine} diverged ({sampler}, respect_time={})",
                    cfg.respect_time
                );
            }
        }
    }
}

/// The streamed-emission contract: chunks emitted through a [`WalkSink`]
/// and concatenated in `start` order must be **bit-identical** to the
/// materialized `WalkSet` of the same configuration — across all three
/// engines × the forced per-vertex sampling methods (cdf / alias /
/// rejection tables all drawing the softmax distribution) × thread and
/// chunk-size grids.
#[test]
fn streamed_chunks_reassemble_bit_identical_to_walkset() {
    let sampler = TransitionSampler::Softmax;
    for (name, g) in graphs() {
        for method in [SamplingMethod::Cdf, SamplingMethod::Alias, SamplingMethod::Rejection] {
            let prepared = SamplerBuilder::new(sampler).method(method).build(&g);
            let cfg = WalkConfig::new(4, 7).sampler(sampler).seed(29);
            let reference = generate_walks_prepared(
                &g,
                &cfg.engine(WalkEngine::PerWalk),
                &prepared,
                &ParConfig::with_threads(1),
            );
            for engine in [WalkEngine::PerWalk, WalkEngine::Batched, WalkEngine::Interleaved] {
                for (threads, chunk) in [(1usize, 13usize), (4, 64), (8, 256)] {
                    let par = ParConfig::with_threads(threads).chunk_size(chunk);
                    let sink = CollectSink::new();
                    generate_walks_prepared_to_sink(
                        &g,
                        &cfg.engine(engine),
                        &prepared,
                        &par,
                        &sink,
                    );
                    assert_eq!(
                        sink.into_walkset(),
                        reference,
                        "streamed {engine} diverged on {name} with {method}, \
                         {threads} threads, chunk {chunk}"
                    );
                }
            }
        }
    }
}

/// Same contract through the production path: chunks crossing the
/// bounded channel under backpressure (tiny capacity) and concurrent
/// consumer churn still reassemble to the exact walk set.
#[test]
fn channel_streamed_chunks_survive_backpressure_and_concurrency() {
    let g = tgraph::gen::preferential_attachment(400, 3, 7).undirected(true).build();
    let sampler = TransitionSampler::Softmax;
    let prepared = sampler.prepare(&g);
    let cfg = WalkConfig::new(4, 7).sampler(sampler).seed(29);
    let reference = generate_walks_prepared(
        &g,
        &cfg.engine(WalkEngine::PerWalk),
        &prepared,
        &ParConfig::with_threads(1),
    );
    for engine in [WalkEngine::PerWalk, WalkEngine::Batched, WalkEngine::Interleaved] {
        let queue = BoundedQueue::new(2); // tiny: forces producer stalls
        let collected = CollectSink::new();
        std::thread::scope(|s| {
            let guard = queue.register_producer();
            let producer = s.spawn(|| {
                let _guard = guard;
                let sink = ChannelSink::new(&queue);
                let par = ParConfig::with_threads(4).chunk_size(64);
                generate_walks_prepared_to_sink(&g, &cfg.engine(engine), &prepared, &par, &sink);
            });
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(chunk) = queue.pop() {
                        collected.emit(chunk);
                    }
                });
            }
            producer.join().unwrap();
        });
        assert_eq!(collected.into_walkset(), reference, "channel path diverged for {engine}");
    }
}

/// `Auto` must be a pure dispatcher over its three bands: whichever
/// engine it resolves to, the walks equal the explicit engines' output.
/// The bands: a working set within the cache threshold keeps per-walk;
/// past it the bulk engines split by mean degree — sparse graphs take
/// the interleaved ring (little grouping reuse), dense skewed graphs
/// take batched grouping.
#[test]
fn auto_resolves_by_threshold_and_stays_identical() {
    let sampler = TransitionSampler::Softmax;
    // Sparse: PA m = 4 undirected, mean degree ~8 — far below the
    // interleave/batched crossover.
    let sparse = tgraph::gen::preferential_attachment(600, 4, 13).undirected(true).build();
    // Dense: PA m = 24 undirected, mean degree ~48 — above it.
    let dense = tgraph::gen::preferential_attachment(600, 24, 13).undirected(true).build();
    assert!(
        (sparse.num_edges() as f64 / sparse.num_nodes() as f64)
            <= twalk::INTERLEAVE_MAX_MEAN_DEGREE,
        "sparse fixture crossed the degree boundary"
    );
    assert!(
        (dense.num_edges() as f64 / dense.num_nodes() as f64) > twalk::INTERLEAVE_MAX_MEAN_DEGREE,
        "dense fixture under the degree boundary"
    );
    let base = WalkConfig::new(4, 6).sampler(sampler).seed(3);
    let par = ParConfig::with_threads(4);
    for (g, bulk) in [(&sparse, WalkEngine::Interleaved), (&dense, WalkEngine::Batched)] {
        let prepared = sampler.prepare(g);
        let total = g.num_nodes() * base.walks_per_node;
        let ws = twalk::estimated_working_set(g, &prepared, total);
        assert!(ws > 2.0, "degenerate working-set estimate {ws}");

        // llc below ws → bulk engine, split by mean degree.
        let force_bulk = base.auto_llc_bytes(1);
        // llc ≥ ws → everything fits → plain per-walk.
        let force_perwalk = base.auto_llc_bytes(usize::MAX);
        let bands = [(force_bulk, bulk), (force_perwalk, WalkEngine::PerWalk)];
        for (cfg, want) in bands {
            assert_eq!(
                twalk::resolved_engine(g, &cfg, &prepared, total),
                want,
                "threshold {} resolved wrongly (working set ≈ {ws:.0})",
                cfg.auto_llc_bytes
            );
        }

        let explicit =
            generate_walks_prepared(g, &base.engine(WalkEngine::PerWalk), &prepared, &par);
        for (cfg, _) in bands {
            let auto = generate_walks_prepared(g, &cfg, &prepared, &par);
            assert_eq!(auto, explicit, "Auto changed walk content");
        }
    }
}

/// Tiny runs must stay per-walk under Auto regardless of threshold: a
/// refresh of a handful of sources cannot amortize batch bookkeeping.
#[test]
fn auto_keeps_tiny_runs_per_walk() {
    let g = tgraph::gen::erdos_renyi(100, 800, 3).build();
    let sampler = TransitionSampler::Uniform;
    let prepared = sampler.prepare(&g);
    let cfg = WalkConfig::new(2, 6).auto_llc_bytes(1);
    assert_eq!(twalk::resolved_engine(&g, &cfg, &prepared, 10), WalkEngine::PerWalk);
}
