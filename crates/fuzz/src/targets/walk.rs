//! Metamorphic properties of the temporal walk kernel on tape-decoded
//! random topologies.
//!
//! Goes beyond the fixed ER/PA/chain zoo in tests/: the topology itself
//! is fuzzed (multi-edges, isolated tails, dense clusters, degenerate
//! single-vertex graphs), along with the sampler, seed, walk shape, and
//! parallel geometry. Two properties must hold on every input:
//!
//! * **Temporal validity** (paper Definition III.2): consecutive hops
//!   use strictly increasing edge timestamps.
//! * **Oracle equivalence**: `generate_walks`, at any thread count and
//!   chunk size, emits the serial oracle's walks bit for bit (each
//!   `(walk, vertex)` pair owns its RNG stream).

use par::ParConfig;
use tgraph::{GraphBuilder, TemporalEdge, TemporalGraph};
use twalk::{generate_walks, generate_walks_serial, TransitionSampler, WalkConfig};

use crate::rng::FuzzRng;
use crate::runner::FuzzTarget;
use crate::tape::Tape;

pub struct WalkTarget;

const SAMPLERS: [TransitionSampler; 4] = [
    TransitionSampler::Uniform,
    TransitionSampler::Softmax,
    TransitionSampler::SoftmaxRecency,
    TransitionSampler::LinearTime,
];

fn gen_graph(t: &mut Tape) -> TemporalGraph {
    let n = 2 + t.choice(24) as u32;
    let mut b = GraphBuilder::new();
    match t.choice(4) {
        0 => {
            // Arbitrary edges, duplicates and bidirectional pairs allowed.
            for _ in 0..t.choice(80) {
                let (src, dst) = (t.choice(n as usize) as u32, t.choice(n as usize) as u32);
                if src != dst {
                    b = b.add_edge(TemporalEdge::new(src, dst, t.f64_unit()));
                }
            }
        }
        1 => {
            // Chain with tape-chosen (possibly non-monotone) times.
            for i in 0..n - 1 {
                b = b.add_edge(TemporalEdge::new(i, i + 1, t.f64_unit()));
            }
        }
        2 => {
            // Star: hub 0 with many parallel spokes at varied times.
            for _ in 0..t.choice(60) {
                let leaf = 1 + t.choice(n as usize - 1) as u32;
                b = b.add_edge(TemporalEdge::new(0, leaf, t.f64_unit()));
                if t.chance(64) {
                    b = b.add_edge(TemporalEdge::new(leaf, 0, t.f64_unit()));
                }
            }
        }
        _ => {
            // Clustered: dense pocket + sparse bridge + isolated tail.
            let pocket = (n / 2).max(2);
            for _ in 0..t.choice(60) {
                let (src, dst) =
                    (t.choice(pocket as usize) as u32, t.choice(pocket as usize) as u32);
                if src != dst {
                    b = b.add_edge(TemporalEdge::new(src, dst, t.f64_unit()));
                }
            }
            if n > pocket {
                b = b.add_edge(TemporalEdge::new(0, pocket, t.f64_unit()));
            }
        }
    }
    b.num_nodes(n as usize).build()
}

/// `walk` must be a temporally-valid path in `g`: each consecutive hop
/// rides an edge strictly later than the previous one.
fn check_walk_valid(g: &TemporalGraph, walk: &[u32]) -> Result<(), String> {
    let mut last_t = f64::NEG_INFINITY;
    for pair in walk.windows(2) {
        let (dsts, times) = g.neighbor_slices(pair[0]);
        let t = dsts
            .iter()
            .zip(times)
            .filter(|&(&d, &t)| d == pair[1] && t > last_t)
            .map(|(_, &t)| t)
            .next();
        match t {
            Some(t) => last_t = t,
            None => {
                return Err(format!(
                    "temporal violation: no edge {} -> {} after t={last_t} in walk {walk:?}",
                    pair[0], pair[1]
                ))
            }
        }
    }
    Ok(())
}

impl FuzzTarget for WalkTarget {
    fn name(&self) -> &'static str {
        "walk"
    }

    fn seed_corpus(&self) -> Vec<Vec<u8>> {
        vec![include_bytes!("../../tests/corpus/walk/star-multigraph.bin").to_vec()]
    }

    fn generate(&self, rng: &mut FuzzRng) -> Vec<u8> {
        rng.bytes(512)
    }

    fn run(&self, input: &[u8]) -> Result<(), String> {
        let mut t = Tape::new(input);
        let g = gen_graph(&mut t);
        let sampler = SAMPLERS[t.choice(SAMPLERS.len())];
        let cfg = WalkConfig::new(1 + t.choice(3), 1 + t.choice(7)).sampler(sampler).seed(t.u64());

        let reference = generate_walks_serial(&g, &cfg, &sampler.prepare(&g));
        if reference.num_walks() != cfg.walks_per_node * g.num_nodes() {
            return Err(format!(
                "walk count {} != {} walks/node x {} nodes",
                reference.num_walks(),
                cfg.walks_per_node,
                g.num_nodes()
            ));
        }
        for w in reference.iter() {
            if w.is_empty() || w.len() > cfg.max_length {
                return Err(format!("walk length {} outside [1, {}]", w.len(), cfg.max_length));
            }
            check_walk_valid(&g, w)?;
        }

        // Oracle equivalence at the thread count and chunk size drawn
        // from the tape.
        let threads = 1 + t.choice(4);
        let chunk = 1 + t.choice(33);
        let par = ParConfig::with_threads(threads).chunk_size(chunk);
        if generate_walks(&g, &cfg, &par) != reference {
            return Err(format!(
                "threads={threads}, chunk={chunk} diverges from serial \
                 on {} nodes / {} edges with {sampler:?}",
                g.num_nodes(),
                g.num_edges(),
            ));
        }
        Ok(())
    }
}
