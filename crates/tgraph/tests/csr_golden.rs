//! Golden digests of the CSR arrays the builder produces: any change to
//! `GraphBuilder` or `DynamicGraph::to_csr` that moves one offset, one
//! destination or one timestamp bit fails here.
//!
//! Each case hashes `csr_parts()` with FNV-1a-64 over `offsets` (as
//! little-endian `u64`), then `dsts` (`u32`), then `times` (`f64` bits).
//! The zoo covers directed and undirected builds, normalization (with a
//! constant time too), multi-edges whose times and `(time, dst)` pairs
//! tie (including `0.0` against `-0.0`, which compare equal but differ
//! in bits, so their order within a segment is pinned), a forced vertex
//! count above the max id, empty graphs, a graph above the builder's
//! parallel-sort threshold, and the `DynamicGraph::to_csr` path.
//!
//! A second case pins the graphs `bench_e2e` builds with seed 7 (about
//! 3 s unoptimized).

use tgraph::dynamic::DynamicGraph;
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};

fn digest(g: &TemporalGraph) -> u64 {
    let (offsets, dsts, times) = g.csr_parts();
    let bytes = offsets
        .iter()
        .flat_map(|&o| (o as u64).to_le_bytes())
        .chain(dsts.iter().flat_map(|d| d.to_le_bytes()))
        .chain(times.iter().flat_map(|t| t.to_bits().to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// splitmix64: a deterministic stream for the hand-made edge lists.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Multi-edges on few vertices with quantized times: many `(time, dst)`
/// ties, and a quarter of the zero times negative.
fn ties(seed: u64, nodes: u64, count: usize) -> Vec<TemporalEdge> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|_| {
            let (src, dst) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
            let mut time = rng.below(4) as f64 / 2.0;
            if time == 0.0 && rng.below(4) == 0 {
                time = -0.0;
            }
            TemporalEdge::new(src, dst, time)
        })
        .collect()
}

fn zoo() -> Vec<(&'static str, TemporalGraph)> {
    let constant = (0..40u32).map(|i| TemporalEdge::new(i % 7, (i * 3) % 11, 2.5));
    let dynamic = {
        let mut g = DynamicGraph::new();
        g.add_edges(ties(5, 60, 1_500));
        g.add_edges(tgraph::gen::erdos_renyi(80, 600, 6).build().edges());
        g.to_csr()
    };
    vec![
        ("er-directed", tgraph::gen::erdos_renyi(300, 3_000, 5).build()),
        ("er-undirected", tgraph::gen::erdos_renyi(300, 3_000, 5).undirected(true).build()),
        (
            "pa-undirected",
            tgraph::gen::preferential_attachment(2_000, 3, 7).undirected(true).build(),
        ),
        (
            "pa-normalized",
            tgraph::gen::preferential_attachment(2_000, 2, 9)
                .undirected(true)
                .normalize_times(true)
                .build(),
        ),
        (
            "sbm-undirected",
            tgraph::gen::temporal_sbm(600, 4, 12_000, 0.8, 3).builder.undirected(true).build(),
        ),
        (
            "constant-normalized",
            GraphBuilder::new().extend_edges(constant).normalize_times(true).build(),
        ),
        ("ties-directed", GraphBuilder::new().extend_edges(ties(1, 12, 2_000)).build()),
        (
            "ties-undirected",
            GraphBuilder::new().extend_edges(ties(2, 12, 2_000)).undirected(true).build(),
        ),
        (
            "ties-normalized",
            GraphBuilder::new()
                .extend_edges(ties(3, 30, 2_000))
                .undirected(true)
                .normalize_times(true)
                .build(),
        ),
        (
            "forced-nodes",
            GraphBuilder::new()
                .extend_edges(ties(4, 20, 300))
                .undirected(true)
                .num_nodes(50)
                .build(),
        ),
        ("empty", GraphBuilder::new().build()),
        (
            "empty-forced",
            GraphBuilder::new().undirected(true).normalize_times(true).num_nodes(9).build(),
        ),
        // 2 × 163 k directed edges: above the parallel-sort threshold.
        (
            "pa-above-threshold",
            tgraph::gen::preferential_attachment(42_000, 3, 21).undirected(true).build(),
        ),
        ("dynamic-to-csr", dynamic),
    ]
}

const GOLDEN: [(&str, u64); 14] = [
    ("er-directed", 0xc6e2_1488_1b39_0d23),
    ("er-undirected", 0x432e_7265_d883_0645),
    ("pa-undirected", 0x1f2f_68ab_6170_f06d),
    ("pa-normalized", 0xe3c5_6bc9_bc74_b0a6),
    ("sbm-undirected", 0x7366_6807_85f1_e891),
    ("constant-normalized", 0x2248_a193_5ee5_d745),
    ("ties-directed", 0x0467_0afa_77f9_0c62),
    ("ties-undirected", 0xd8eb_7971_3636_c13b),
    ("ties-normalized", 0x1117_3d95_710a_e530),
    ("forced-nodes", 0xce1c_6ae1_d134_2fd6),
    ("empty", 0xa8c7_f832_281a_39c5),
    ("empty-forced", 0xf14b_84b8_290b_8965),
    ("pa-above-threshold", 0x3f50_6602_eb8e_f724),
    ("dynamic-to-csr", 0xafda_c44e_6923_f8f6),
];

fn check(cases: Vec<(&'static str, TemporalGraph)>, golden: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = cases.iter().map(|(name, g)| (*name, digest(g))).collect();
    for ((name, d), (_, want)) in got.iter().zip(golden) {
        if d != want {
            eprintln!("{name}: digest 0x{d:016x}, golden 0x{want:016x}");
        }
    }
    assert_eq!(got, golden);
}

#[test]
fn csr_arrays_match_golden_digests() {
    check(zoo(), &GOLDEN);
}

#[test]
fn bench_shaped_csr_arrays_match_golden_digests() {
    let pa = |n, m| tgraph::gen::preferential_attachment(n, m, 7).undirected(true);
    let cases = vec![
        ("pa150k-m3", pa(150_000, 3).build()),
        ("pa10k-m5-normalized", pa(10_000, 5).normalize_times(true).build()),
        ("pa10k-m2", pa(10_000, 2).build()),
        (
            "sbm36k",
            tgraph::gen::temporal_sbm(36_000, 10, 36_000 * 40, 0.85, 7)
                .builder
                .undirected(true)
                .build(),
        ),
    ];
    check(
        cases,
        &[
            ("pa150k-m3", 0x2083_75f4_0e01_e682),
            ("pa10k-m5-normalized", 0x79d2_8f66_6352_3cdf),
            ("pa10k-m2", 0x85e1_bf31_4a2f_d215),
            ("sbm36k", 0x0839_67c9_dc84_dfb8),
        ],
    );
}
