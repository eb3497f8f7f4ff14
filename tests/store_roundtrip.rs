//! Persistence bit-exactness: a graph (and its prepared sampler) packed
//! into a store file and reopened must drive the walk kernel to
//! **bit-identical** output — same walks, same RNG draw pattern — as the
//! in-memory originals, across every sampler bias. The store must be a
//! pure representation change:
//! `Storage::Mapped` slices in place of `Vec`s, nothing else observable.
//!
//! This reuses the harness conventions of `engine_equivalence.rs` (the
//! serial oracle over the in-memory originals as reference) with the
//! packed artifacts on the "got" side.

use std::io::Cursor;

use par::ParConfig;
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};
use twalk::{
    generate_walks_prepared, generate_walks_serial, PreparedSampler, TransitionSampler, WalkConfig,
};

const SAMPLERS: [TransitionSampler; 4] = [
    TransitionSampler::Uniform,
    TransitionSampler::Softmax,
    TransitionSampler::SoftmaxRecency,
    TransitionSampler::LinearTime,
];

/// A compact version of the engine-equivalence graph zoo.
fn graphs() -> Vec<(&'static str, TemporalGraph)> {
    let chain = {
        let mut b = GraphBuilder::new();
        for i in 0..80u32 {
            b = b.add_edge(TemporalEdge::new(i, i + 1, i as f64 / 80.0));
        }
        b.build()
    };
    vec![
        ("erdos-renyi", tgraph::gen::erdos_renyi(200, 2_000, 5).build()),
        ("pref-attach", tgraph::gen::preferential_attachment(300, 3, 7).undirected(true).build()),
        ("chain", chain),
    ]
}

/// Packs to an in-memory image and reopens.
fn round_trip(
    g: &TemporalGraph,
    s: Option<&PreparedSampler>,
) -> (TemporalGraph, Option<PreparedSampler>) {
    let mut cur = Cursor::new(Vec::new());
    store::pack_graph(&mut cur, g, s).expect("pack");
    let opened = store::open_graph_bytes(&cur.into_inner()).expect("open");
    (opened.graph, opened.sampler)
}

/// The graph arrays themselves must round-trip as bits — timestamps
/// included (NaN-safe comparison via the IEEE-754 bit patterns).
#[test]
fn csr_arrays_round_trip_bit_exactly() {
    for (name, g) in graphs() {
        let (g2, _) = round_trip(&g, None);
        let (o1, d1, t1) = g.csr_parts();
        let (o2, d2, t2) = g2.csr_parts();
        assert_eq!(o1, o2, "{name}: offsets diverged");
        assert_eq!(d1, d2, "{name}: dsts diverged");
        let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t1), bits(t2), "{name}: timestamp bits diverged");
    }
}

/// Walks over a reopened graph + reopened sampler must be bit-identical
/// to the in-memory build, for every sampler and thread count.
#[test]
fn walks_from_reopened_store_are_bit_identical() {
    for (name, g) in graphs() {
        for sampler in SAMPLERS {
            let cfg = WalkConfig::new(3, 6).sampler(sampler).seed(29);
            let prepared = sampler.prepare(&g);
            let reference = generate_walks_serial(&g, &cfg, &prepared);
            let (g2, s2) = round_trip(&g, Some(&prepared));
            let s2 = s2.expect("sampler packed");
            for threads in [1usize, 4] {
                let got =
                    generate_walks_prepared(&g2, &cfg, &s2, &ParConfig::with_threads(threads));
                assert_eq!(
                    got, reference,
                    "walks diverged on reopened {name} with {sampler}, {threads} threads"
                );
            }
        }
    }
}

/// The CDF table layout of both softmax biases on a denser graph than
/// the zoo: the table footprint and the walks must survive a store round
/// trip. Opening rebuilds the tables' row index from the graph's offsets,
/// so this pins that the rebuilt index matches the one `prepare` made.
#[test]
fn adaptive_method_layouts_round_trip() {
    let g = tgraph::gen::preferential_attachment(300, 6, 7).undirected(true).build();
    for bias in [TransitionSampler::Softmax, TransitionSampler::SoftmaxRecency] {
        let prepared = bias.prepare(&g);
        let cfg = WalkConfig::new(3, 6).sampler(bias).seed(51);
        let reference = generate_walks_serial(&g, &cfg, &prepared);
        let (g2, s2) = round_trip(&g, Some(&prepared));
        let s2 = s2.expect("sampler packed");
        assert_eq!(s2.stats().table_bytes, prepared.stats().table_bytes);
        let got = generate_walks_prepared(&g2, &cfg, &s2, &ParConfig::with_threads(4));
        assert_eq!(got, reference, "{bias} diverged after round trip");
    }
}

/// A sampler *re-prepared* from a reopened graph (rather than loaded
/// from the file) must also match: the graph arrays feed table build
/// deterministically, so mapped CSR input changes nothing.
#[test]
fn repreparing_on_reopened_graph_matches() {
    for (name, g) in graphs() {
        let (g2, _) = round_trip(&g, None);
        for sampler in SAMPLERS {
            let cfg = WalkConfig::new(2, 5).sampler(sampler).seed(7);
            let p1 = sampler.prepare(&g);
            let p2 = sampler.prepare(&g2);
            let par = ParConfig::with_threads(2);
            let a = generate_walks_prepared(&g, &cfg, &p1, &par);
            let b = generate_walks_prepared(&g2, &cfg, &p2, &par);
            assert_eq!(a, b, "{name}: re-prepared {sampler} diverged");
        }
    }
}

/// The same bit-exactness through an actual file on disk — this is the
/// path that exercises the mmap fast path (`mapped == true` on Linux)
/// and proves zero-copy opening changes nothing.
#[test]
fn walks_from_mmapped_file_are_bit_identical() {
    let dir = std::env::temp_dir().join(format!("store_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("graph.rws");

    let g = tgraph::gen::preferential_attachment(300, 3, 7).undirected(true).build();
    let sampler = TransitionSampler::Softmax;
    let prepared = sampler.prepare(&g);
    store::pack_graph_to_path(&path, &g, Some(&prepared)).expect("pack to path");

    let opened = store::open_graph(&path).expect("open from path");
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        assert!(opened.mapped, "linux open path should be memory-mapped");
        assert!(opened.graph.is_mapped(), "graph arrays should borrow the mapping");
    }

    let cfg = WalkConfig::new(3, 6).sampler(sampler).seed(13);
    let par = ParConfig::with_threads(4);
    let reference = generate_walks_prepared(&g, &cfg, &prepared, &par);
    let got =
        generate_walks_prepared(&opened.graph, &cfg, opened.sampler.as_ref().expect("s"), &par);
    assert_eq!(got, reference, "mmap-backed walks diverged");

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
