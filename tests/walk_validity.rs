//! Randomized tests of the temporal walk engine: on seeded random temporal
//! graphs, every emitted walk must be a real, temporally-valid path
//! (Definition III.2), regardless of sampler, seed, or thread count.
//!
//! Formerly proptest-based; the offline toolchain has no proptest, so the
//! cases are drawn from a seeded RNG loop instead — same coverage,
//! deterministic by construction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};
use twalk::{generate_walks, generate_walks_serial, TransitionSampler, WalkConfig};

const SAMPLERS: [TransitionSampler; 4] = [
    TransitionSampler::Uniform,
    TransitionSampler::Softmax,
    TransitionSampler::SoftmaxRecency,
    TransitionSampler::LinearTime,
];

/// Up to 120 edges over up to 30 vertices with arbitrary times in
/// [0, 1], duplicates allowed (multi-edges are part of the model).
fn random_graph(rng: &mut StdRng) -> TemporalGraph {
    let m = rng.gen_range(1..120usize);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0..30u32), rng.gen_range(0..30u32), rng.gen_range(0.0..1.0)))
        .filter(|(s, d, _)| s != d)
        .map(|(s, d, t)| TemporalEdge::new(s, d, t));
    GraphBuilder::new().extend_edges(edges).num_nodes(30).build()
}

/// Checks that `walk` is a temporally-valid path in `g`.
fn assert_walk_valid(g: &TemporalGraph, walk: &[u32]) {
    let mut last_t = f64::NEG_INFINITY;
    for pair in walk.windows(2) {
        let (dsts, times) = g.neighbor_slices(pair[0]);
        // There must exist an edge to the next vertex with a strictly
        // later timestamp than the last edge taken.
        let t = dsts
            .iter()
            .zip(times)
            .filter(|&(&d, &t)| d == pair[1] && t > last_t)
            .map(|(_, &t)| t)
            .next();
        let t = t
            .unwrap_or_else(|| panic!("no valid edge {} -> {} after t={last_t}", pair[0], pair[1]));
        last_t = t;
    }
}

#[test]
fn every_walk_is_temporally_valid() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let g = random_graph(&mut rng);
        let sampler = SAMPLERS[rng.gen_range(0..SAMPLERS.len())];
        let seed = rng.gen_range(0..1000u64);
        let k = rng.gen_range(1..4usize);
        let n = rng.gen_range(1..10usize);
        let cfg = WalkConfig::new(k, n).sampler(sampler).seed(seed);
        let walks = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
        assert_eq!(walks.num_walks(), k * g.num_nodes());
        for w in walks.iter() {
            assert!(!w.is_empty());
            assert!(w.len() <= n);
            assert_walk_valid(&g, w);
        }
    }
}

#[test]
fn thread_count_does_not_change_walks() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(case ^ 0xBEEF);
        let g = random_graph(&mut rng);
        let sampler = SAMPLERS[rng.gen_range(0..SAMPLERS.len())];
        let seed = rng.gen_range(0..1000u64);
        let threads = rng.gen_range(2..6usize);
        let cfg = WalkConfig::new(3, 6).sampler(sampler).seed(seed);
        let serial = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
        let parallel =
            generate_walks(&g, &cfg, &par::ParConfig::with_threads(threads).chunk_size(5));
        assert_eq!(serial, parallel, "thread count changed walks in case {case}");
    }
}

#[test]
fn walk_histogram_accounts_for_every_walk() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(case ^ 0x9157);
        let g = random_graph(&mut rng);
        let cfg = WalkConfig::new(2, 8).seed(rng.gen_range(0..100u64));
        let walks = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
        let hist = walks.length_histogram();
        assert_eq!(hist.iter().sum::<u64>() as usize, walks.num_walks());
        assert_eq!(hist[0], 0); // no zero-length walks
        let total: usize = walks.iter().map(|w| w.len()).sum();
        assert_eq!(total, walks.total_vertices());
    }
}

#[test]
fn walks_only_visit_temporally_reachable_vertices() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(case ^ 0xACE5);
        let g = random_graph(&mut rng);
        // `tgraph::algo::temporal_reachable_set` is the exact reachability
        // oracle for the walk engine: every vertex any walk visits must
        // be temporally reachable from its source.
        let cfg = WalkConfig::new(3, 8).seed(rng.gen_range(0..200u64));
        let walks = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
        let n = g.num_nodes();
        let source = rng.gen_range(0..n as u32);
        let reachable: std::collections::HashSet<u32> =
            tgraph::algo::temporal_reachable_set(&g, source, f64::NEG_INFINITY)
                .into_iter()
                .collect();
        for w in 0..cfg.walks_per_node {
            let walk = walks.walk(w * n + source as usize);
            for &v in walk {
                assert!(
                    reachable.contains(&v),
                    "walk from {source} visited temporally unreachable {v}"
                );
            }
        }
    }
}
