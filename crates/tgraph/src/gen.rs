//! Synthetic temporal graph generators.
//!
//! The paper evaluates on (a) real temporal networks and (b) synthetic
//! Erdős–Rényi graphs produced with networkx plus synthetic timestamps
//! (§VI-C). This module provides that generator and two stand-ins for the
//! real data, which cannot be downloaded in an offline environment:
//!
//! * [`preferential_attachment`] — power-law degree distribution with
//!   bursty, arrival-ordered timestamps, standing in for the paper's email /
//!   wiki-talk / stackoverflow interaction networks. Power-law structure is
//!   what produces the short-walk-dominated length distribution of Fig. 4
//!   and the accuracy saturation of Fig. 8b.
//! * [`temporal_sbm`] — a temporal stochastic block model with planted
//!   community labels, standing in for the DBLP/brain node-classification
//!   datasets: labels correlate with connectivity so a classifier can learn
//!   them from structure alone.
//!
//! All generators are deterministic in their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{GraphBuilder, NodeId, TemporalEdge};

/// Erdős–Rényi `G(n, m)` temporal graph: `m` directed edges with uniformly
/// random endpoints and i.i.d. uniform timestamps in `[0, 1]`.
///
/// Self-loops are excluded; duplicate endpoint pairs may occur (they model
/// repeated interactions and are preserved as multi-edges).
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// let g = tgraph::gen::erdos_renyi(1_000, 5_000, 42).build();
/// assert_eq!(g.num_edges(), 5_000);
/// assert!(g.num_nodes() <= 1_000);
/// ```
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> GraphBuilder {
    assert!(n >= 2, "erdos_renyi requires at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let src = rng.gen_range(0..n as NodeId);
        let mut dst = rng.gen_range(0..n as NodeId - 1);
        if dst >= src {
            dst += 1;
        }
        edges.push(TemporalEdge::new(src, dst, rng.gen::<f64>()));
    }
    GraphBuilder::new().extend_edges(edges).num_nodes(n)
}

/// Temporal preferential attachment (Barabási–Albert flavor).
///
/// Vertices arrive one at a time; each newcomer issues `m_per_node` edges to
/// existing vertices chosen proportionally to their current degree, with the
/// timestamp equal to the (jittered, normalized) arrival time. A fraction of
/// additional *repeat* interactions between already-connected pairs is
/// injected at later timestamps, reproducing the multi-edge burstiness of
/// real interaction networks.
///
/// Produces the heavy-tailed degree distribution responsible for the paper's
/// Fig. 4 walk-length power law.
///
/// # Panics
///
/// Panics if `n <= m_per_node` or `m_per_node == 0`.
pub fn preferential_attachment(n: usize, m_per_node: usize, seed: u64) -> GraphBuilder {
    assert!(m_per_node >= 1, "need at least one edge per arriving vertex");
    assert!(n > m_per_node, "need more vertices than edges per vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<TemporalEdge> = Vec::with_capacity(n * m_per_node * 2);
    // Flat endpoint list: sampling an index uniformly samples a vertex
    // proportionally to its degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(n * m_per_node * 2);

    // Seed clique over the first m_per_node + 1 vertices.
    for v in 1..=(m_per_node as NodeId) {
        edges.push(TemporalEdge::new(v, v - 1, 0.0));
        endpoints.push(v);
        endpoints.push(v - 1);
    }

    let total_arrivals = (n - m_per_node - 1).max(1) as f64;
    for (step, v) in ((m_per_node + 1)..n).enumerate() {
        let v = v as NodeId;
        let base_t = step as f64 / total_arrivals;
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m_per_node);
        let mut guard = 0;
        while chosen.len() < m_per_node && guard < 100 * m_per_node {
            let cand = endpoints[rng.gen_range(0..endpoints.len())];
            guard += 1;
            if cand != v && !chosen.contains(&cand) {
                chosen.push(cand);
            }
        }
        for &dst in &chosen {
            let t = (base_t + rng.gen::<f64>() * 0.5 / total_arrivals).min(1.0);
            edges.push(TemporalEdge::new(v, dst, t));
            endpoints.push(v);
            endpoints.push(dst);
        }
    }

    // Repeat interactions: ~30% extra edges re-activating old pairs later.
    let repeats = edges.len() * 3 / 10;
    let existing = edges.len();
    for _ in 0..repeats {
        let e = edges[rng.gen_range(0..existing)];
        let t = (e.time + rng.gen::<f64>() * (1.0 - e.time)).min(1.0);
        edges.push(TemporalEdge::new(e.src, e.dst, t));
    }

    GraphBuilder::new().extend_edges(edges).num_nodes(n)
}

/// R-MAT (recursive matrix) temporal graph with Graph500-style skew
/// parameters `(a, b, c)` (and implicit `d = 1 - a - b - c`).
///
/// Each edge picks its endpoints by recursively descending a 2×2
/// partition of the adjacency matrix, producing the heavy-tailed,
/// community-free structure common in architecture benchmarks (the
/// Rodinia/Graph500 generators the paper's Fig. 3 BFS input comes from).
/// Timestamps are i.i.d. uniform in `[0, 1]`.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2, or the probabilities are
/// invalid (`a + b + c >= 1` or any negative).
///
/// # Examples
///
/// ```
/// let g = tgraph::gen::rmat(1 << 10, 8_000, 0.57, 0.19, 0.19, 1).build();
/// assert_eq!(g.num_edges(), 8_000);
/// ```
pub fn rmat(n: usize, m: usize, a: f64, b: f64, c: f64, seed: u64) -> GraphBuilder {
    assert!(n >= 2 && n.is_power_of_two(), "n must be a power of two >= 2");
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0, "invalid rmat skew");
    let levels = n.trailing_zeros();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (mut src, mut dst) = (0usize, 0usize);
        for _ in 0..levels {
            src <<= 1;
            dst <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left quadrant: no bits set
            } else if r < a + b {
                dst |= 1;
            } else if r < a + b + c {
                src |= 1;
            } else {
                src |= 1;
                dst |= 1;
            }
        }
        if src != dst {
            edges.push(TemporalEdge::new(src as NodeId, dst as NodeId, rng.gen::<f64>()));
        }
    }
    GraphBuilder::new().extend_edges(edges).num_nodes(n)
}

/// A temporal graph with planted node labels, produced by
/// [`temporal_sbm`].
#[derive(Debug, Clone)]
pub struct LabeledGraphGen {
    /// Builder holding the generated edges.
    pub builder: GraphBuilder,
    /// Planted community label per vertex (`0..num_classes`).
    pub labels: Vec<u16>,
}

/// Temporal stochastic block model with `classes` planted communities.
///
/// Vertices are assigned round-robin to communities. `m` directed edges are
/// drawn; each picks a uniform source and, with probability `p_in`, a
/// destination inside the source's community (otherwise a uniformly random
/// outside destination). Timestamps are i.i.d. uniform in `[0, 1]`.
///
/// With `p_in` well above the inter-community rate, embeddings learned from
/// temporal walks cluster by community, so the planted labels are learnable
/// exactly like the paper's DBLP research-area labels.
///
/// # Panics
///
/// Panics if `classes == 0`, `n < 2 * classes`, or `p_in` is outside
/// `[0, 1]`.
pub fn temporal_sbm(n: usize, classes: u16, m: usize, p_in: f64, seed: u64) -> LabeledGraphGen {
    assert!(classes >= 1, "need at least one class");
    assert!(n >= 2 * classes as usize, "need at least two vertices per class");
    assert!((0.0..=1.0).contains(&p_in), "p_in must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<u16> = (0..n).map(|v| (v % classes as usize) as u16).collect();

    // Community member lists for O(1) in-community sampling.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); classes as usize];
    for (v, &c) in labels.iter().enumerate() {
        members[c as usize].push(v as NodeId);
    }

    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let src = rng.gen_range(0..n as NodeId);
        let c = labels[src as usize] as usize;
        let dst = if rng.gen::<f64>() < p_in {
            // In-community destination != src.
            loop {
                let d = members[c][rng.gen_range(0..members[c].len())];
                if d != src {
                    break d;
                }
            }
        } else {
            loop {
                let d = rng.gen_range(0..n as NodeId);
                if d != src && labels[d as usize] as usize != c {
                    break d;
                }
            }
        };
        edges.push(TemporalEdge::new(src, dst, rng.gen::<f64>()));
    }

    LabeledGraphGen { builder: GraphBuilder::new().extend_edges(edges).num_nodes(n), labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_is_deterministic_in_seed() {
        let a = erdos_renyi(100, 500, 7).build();
        let b = erdos_renyi(100, 500, 7).build();
        let c = erdos_renyi(100, 500, 8).build();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_has_no_self_loops() {
        let g = erdos_renyi(50, 2_000, 3).build();
        for e in g.edges() {
            assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn pa_degree_distribution_is_heavy_tailed() {
        let g = preferential_attachment(2_000, 2, 11).undirected(true).build();
        let n = g.num_nodes();
        let mut degrees: Vec<usize> = (0..n).map(|v| g.out_degree(v as NodeId)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
        // Heavy tail: the max degree dwarfs the mean.
        assert!(degrees[0] as f64 > 8.0 * mean, "max degree {} not >> mean {mean}", degrees[0]);
    }

    #[test]
    fn pa_timestamps_are_in_unit_interval() {
        let g = preferential_attachment(500, 3, 5).build();
        let (lo, hi) = g.time_range().unwrap();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn sbm_labels_cover_all_classes() {
        let gen = temporal_sbm(90, 3, 1_000, 0.9, 1);
        assert_eq!(gen.labels.len(), 90);
        for c in 0..3u16 {
            assert!(gen.labels.contains(&c));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "generator statistics over 10k+ edges: too slow interpreted")]
    fn sbm_edges_are_mostly_intra_community() {
        let gen = temporal_sbm(300, 3, 10_000, 0.9, 2);
        let labels = gen.labels.clone();
        let g = gen.builder.build();
        let intra = g.edges().filter(|e| labels[e.src as usize] == labels[e.dst as usize]).count();
        let frac = intra as f64 / g.num_edges() as f64;
        assert!(frac > 0.85, "intra-community fraction too low: {frac}");
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn erdos_renyi_rejects_tiny_n() {
        let _ = erdos_renyi(1, 10, 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "generator statistics over 10k+ edges: too slow interpreted")]
    fn rmat_is_skewed_and_exact_sized() {
        let g = rmat(1 << 11, 20_000, 0.57, 0.19, 0.19, 3).build();
        assert_eq!(g.num_edges(), 20_000);
        let stats = crate::stats::degree_stats(&g);
        // Graph500 skew: max degree far above the mean.
        assert!(stats.max as f64 > 10.0 * stats.mean, "max {} vs mean {}", stats.max, stats.mean);
        for e in g.edges() {
            assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "generator statistics over 10k+ edges: too slow interpreted")]
    fn symmetric_rmat_approximates_erdos_renyi() {
        // With a = b = c = 0.25 every quadrant is equally likely, i.e.
        // uniform endpoints; degree skew should be mild.
        let g = rmat(1 << 10, 10_000, 0.25, 0.25, 0.25, 4).build();
        let stats = crate::stats::degree_stats(&g);
        assert!((stats.max as f64) < 5.0 * stats.mean.max(1.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rmat_rejects_non_power_of_two() {
        let _ = rmat(1000, 10, 0.5, 0.2, 0.2, 0);
    }
}
