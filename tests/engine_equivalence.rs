//! Property-style equivalence suite for the public walk entry points.
//!
//! A bulk run executes on one of two paths — the per-walk loop, or the
//! step-interleaved ring that keeps several walks in flight per worker —
//! and splits its walks across worker threads in chunks. Every
//! `(walk, vertex)` pair owns its own RNG stream, so the output must be
//! **bit-identical** to the serial oracle (`generate_walks_serial`) for
//! every sampler, thread count, chunk size, and graph shape, whichever
//! path runs. These tests assert exactly that, on both the full-run and
//! the incremental-refresh (`generate_walks_from`) paths. The ring itself
//! is compared with the oracle at every ring size by the unit tests in
//! `twalk::engine::interleaved`.
//!
//! CI additionally runs this suite under `SIMD_FORCE_SCALAR=1` (the
//! forced-scalar pass) so the identity is pinned on the scalar kernel
//! fallbacks too.

use par::ParConfig;
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};
use twalk::{
    generate_walks_from_prepared, generate_walks_prepared, generate_walks_serial,
    TransitionSampler, WalkConfig,
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

/// Bit-identity with the serial oracle across the full parameter grid:
/// all four samplers × thread counts {1, 4, 8} × chunk sizes × the graph
/// zoo.
#[test]
fn bulk_engines_are_bit_identical_to_per_walk_across_grid() {
    for (name, g) in graphs() {
        for sampler in SAMPLERS {
            let cfg = WalkConfig::new(4, 7).sampler(sampler).seed(29);
            let prepared = sampler.prepare(&g);
            let reference = generate_walks_serial(&g, &cfg, &prepared);
            for threads in [1usize, 4, 8] {
                for chunk in [13usize, 256] {
                    let par = ParConfig::with_threads(threads).chunk_size(chunk);
                    let got = generate_walks_prepared(&g, &cfg, &prepared, &par);
                    assert_eq!(
                        got, reference,
                        "diverged on {name} with {sampler}, {threads} threads, chunk {chunk}"
                    );
                }
            }
        }
    }
}

/// A full run whose working set outgrows a small last-level cache runs
/// on the ring, and must still reproduce the oracle, for every sampler.
#[test]
fn runs_past_the_cache_threshold_match_the_oracle() {
    let g = tgraph::gen::preferential_attachment(100_000, 4, 11).undirected(true).build();
    for sampler in SAMPLERS {
        let cfg = WalkConfig::new(1, 6).sampler(sampler).seed(3);
        let prepared = sampler.prepare(&g);
        let got = generate_walks_prepared(&g, &cfg, &prepared, &ParConfig::with_threads(4));
        assert_eq!(got, generate_walks_serial(&g, &cfg, &prepared), "diverged with {sampler}");
    }
}

/// The refresh path: `generate_walks_from` rows must equal the
/// corresponding rows of the oracle's full run at every thread count —
/// including when sources repeat and include isolated vertices.
#[test]
fn refresh_paths_are_engine_independent() {
    for (name, g) in graphs() {
        let n = g.num_nodes() as u32;
        // Duplicates and an isolated-or-low-degree tail vertex on purpose.
        let sources: Vec<u32> = vec![0, 5 % n, 0, n - 1, 17 % n, 5 % n, n / 2];
        for sampler in SAMPLERS {
            let cfg = WalkConfig::new(3, 6).sampler(sampler).seed(31);
            let prepared = sampler.prepare(&g);
            let full = generate_walks_serial(&g, &cfg, &prepared);
            for threads in [1usize, 4, 8] {
                let par = ParConfig::with_threads(threads).chunk_size(13);
                let got = generate_walks_from_prepared(&g, &cfg, &prepared, &sources, &par);
                // Refresh rows must match the full run's rows for the
                // same (walk, vertex) pairs — the incremental-embedder
                // contract.
                for w in 0..cfg.walks_per_node {
                    for (i, &v) in sources.iter().enumerate() {
                        assert_eq!(
                            got.walk(w * sources.len() + i),
                            full.walk(w * g.num_nodes() + v as usize),
                            "refresh row (walk {w}, source {v}) diverged on {name} \
                             ({sampler}, {threads} threads)"
                        );
                    }
                }
            }
        }
    }
}

/// Identity with the CDF tables forced on every vertex: both softmax
/// biases draw every hop through the tables `prepare` builds, and every
/// geometry must reproduce the oracle, including a chunk size the grid
/// above does not run.
#[test]
fn forced_sampling_methods_are_bit_identical_across_engines() {
    for (name, g) in graphs() {
        for sampler in [TransitionSampler::Softmax, TransitionSampler::SoftmaxRecency] {
            let prepared = sampler.prepare(&g);
            let cfg = WalkConfig::new(4, 7).sampler(sampler).seed(29);
            let reference = generate_walks_serial(&g, &cfg, &prepared);
            for (threads, chunk) in [(1usize, 13usize), (4, 64), (8, 256)] {
                let par = ParConfig::with_threads(threads).chunk_size(chunk);
                let got = generate_walks_prepared(&g, &cfg, &prepared, &par);
                assert_eq!(
                    got, reference,
                    "diverged on {name} with {sampler}, {threads} threads, chunk {chunk}"
                );
            }
        }
    }
}

/// Identity must also hold for non-default temporal semantics: static
/// mode (timestamps ignored) and a finite first-hop start time.
#[test]
fn engines_agree_on_static_mode_and_start_time() {
    let g = tgraph::gen::preferential_attachment(350, 3, 11).undirected(true).build();
    let variants = [
        WalkConfig::new(3, 8).seed(41).respect_time(false),
        WalkConfig::new(3, 8).seed(41).start_time(0.35),
        WalkConfig::new(2, 1).seed(41), // max_length == 1: no hops at all
    ];
    for cfg in variants {
        for sampler in SAMPLERS {
            let cfg = cfg.sampler(sampler);
            let prepared = sampler.prepare(&g);
            let par = ParConfig::with_threads(4).chunk_size(64);
            let got = generate_walks_prepared(&g, &cfg, &prepared, &par);
            assert_eq!(
                got,
                generate_walks_serial(&g, &cfg, &prepared),
                "diverged ({sampler}, respect_time={})",
                cfg.respect_time
            );
        }
    }
}
