//! Golden digests of the walk output: any change that moves a single
//! vertex of a single walk fails here.
//!
//! Each case hashes (FNV-1a-64 over the little-endian `u32` length and
//! vertices of every walk) the output of the public bulk entry points,
//! folded over the four biases, both start sets (every vertex, and a
//! source list with repeats) and walk lengths 1 and 6, for every graph of
//! a zoo. The zoo includes graphs large enough that a full run's working
//! set outgrows a small last-level cache, both sparse and dense, so every
//! walk execution path is pinned. Walk output does not depend on the SIMD
//! backend; CI runs this file again under `SIMD_FORCE_SCALAR=1`.

use par::ParConfig;
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};
use twalk::{
    generate_walks_from_prepared, generate_walks_prepared, TransitionSampler, WalkConfig, WalkSet,
};

const BIASES: [TransitionSampler; 4] = [
    TransitionSampler::Uniform,
    TransitionSampler::Softmax,
    TransitionSampler::SoftmaxRecency,
    TransitionSampler::LinearTime,
];

fn fnv1a64(h: u64, words: impl Iterator<Item = u32>) -> u64 {
    let mut h = h;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Folds every walk of `walks` into `h`: its length, then its vertices.
fn fold(h: u64, walks: &WalkSet) -> u64 {
    walks
        .iter()
        .fold(h, |h, w| fnv1a64(h, std::iter::once(w.len() as u32).chain(w.iter().copied())))
}

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
        .num_nodes(200)
        .build();
    vec![
        ("erdos-renyi", tgraph::gen::erdos_renyi(300, 3_000, 5).build()),
        ("pref-attach", tgraph::gen::preferential_attachment(400, 3, 7).undirected(true).build()),
        ("chain", chain),
        ("isolated-tail", isolated),
        // A full run whose working set fits a small last-level cache.
        ("er-2k", tgraph::gen::erdos_renyi(2_000, 16_000, 3).build()),
        // Sparse and dense full runs whose working sets do not.
        (
            "pa-100k-m4",
            tgraph::gen::preferential_attachment(100_000, 4, 11).undirected(true).build(),
        ),
        ("pa-6k-m64", tgraph::gen::preferential_attachment(6_000, 64, 13).undirected(true).build()),
    ]
}

/// The digest of one graph's cell, over every bias.
fn cell(g: &TemporalGraph) -> u64 {
    let n = g.num_nodes() as u32;
    let sources = [0, 5 % n, 0, n - 1, 17 % n, 5 % n, n / 2, n - 1];
    let par = ParConfig::with_threads(2);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bias in BIASES {
        let prepared = bias.prepare(g);
        for len in [1usize, 6] {
            let cfg = WalkConfig::new(2, len).sampler(bias).seed(29);
            h = fold(h, &generate_walks_prepared(g, &cfg, &prepared, &par));
            h = fold(h, &generate_walks_from_prepared(g, &cfg, &prepared, &sources, &par));
        }
    }
    h
}

/// `"graph/cdf"` and its digest, for every graph of the zoo.
const GOLDEN: &[(&str, u64)] = &[
    ("erdos-renyi/cdf", 0x154a_3a7c_f8f4_bf6e),
    ("pref-attach/cdf", 0xd91d_8d3e_add0_7362),
    ("chain/cdf", 0x27f2_487d_7311_7525),
    ("isolated-tail/cdf", 0x3623_d69b_9d18_35a5),
    ("er-2k/cdf", 0xf9aa_4ea2_42de_571f),
    ("pa-100k-m4/cdf", 0x8047_5ba8_e955_d65b),
    ("pa-6k-m64/cdf", 0xc60b_7fe5_89e9_69c7),
];

#[test]
fn walks_match_golden_digests() {
    let mut got = Vec::new();
    for (name, g) in graphs() {
        got.push(format!("{name}/cdf: {:016x}", cell(&g)));
    }
    let want: Vec<String> = GOLDEN.iter().map(|(c, d)| format!("{c}: {d:016x}")).collect();
    assert_eq!(got, want);
}

/// `Pipeline::walks` at the paper's operating point on graphs with hubs
/// of degree ≥ 64, all-CDF tables: the walk corpus the end-to-end
/// pipeline trains on.
const PIPELINE_GOLDEN: &[(&str, u64)] =
    &[("pa-20k-m5", 0x6029_e836_ebf7_6e0e), ("sbm-3k", 0x3218_15f8_0ba9_b8fd)];

#[test]
fn pipeline_walks_match_golden_digests() {
    let hp = rwalk_core::Hyperparams::paper_optimal().with_threads(2);
    let pipeline = rwalk_core::Pipeline::new(hp);
    let graphs = [
        ("pa-20k-m5", tgraph::gen::preferential_attachment(20_000, 5, 3).undirected(true).build()),
        (
            "sbm-3k",
            tgraph::gen::temporal_sbm(3_000, 4, 120_000, 0.9, 5).builder.undirected(true).build(),
        ),
    ];
    let mut got = Vec::new();
    for (name, g) in graphs {
        assert!(
            (0..g.num_nodes() as u32).any(|v| g.neighbor_slices(v).1.len() >= 64),
            "{name} has no vertex of degree >= 64"
        );
        got.push(format!("{name}: {:016x}", fold(0xcbf2_9ce4_8422_2325, &pipeline.walks(&g))));
    }
    let want: Vec<String> = PIPELINE_GOLDEN.iter().map(|(c, d)| format!("{c}: {d:016x}")).collect();
    assert_eq!(got, want);
}
