//! The sampler under streaming ingest, through the public API only.
//!
//! An incremental refresh re-walks the vertices an ingest batch made
//! dirty (churned) through a sampler prepared for the new snapshot. Every
//! softmax vertex, churned or not, draws through the CDF tables that
//! `TransitionSampler::prepare` builds, so a refresh's walks must be
//! temporally valid paths on the snapshot and must equal the matching
//! rows of a full run over that snapshot.
//!
//! The suite and test names date from when churned vertices drew by
//! bounded rejection instead of the CDF.

use tgraph::dynamic::DynamicGraph;
use tgraph::{TemporalEdge, TemporalGraph};
use twalk::{generate_walks_from_prepared, generate_walks_serial, TransitionSampler, WalkConfig};

/// Preferential-attachment stand-in with a heavy-tailed degree
/// distribution.
fn pa_graph() -> TemporalGraph {
    tgraph::gen::preferential_attachment(400, 4, 11).undirected(true).build()
}

/// Asserts that every walk of `walks` follows edges of `g` with strictly
/// increasing timestamps.
fn assert_temporally_valid(g: &TemporalGraph, walks: &twalk::WalkSet, label: &str) {
    for walk in walks.iter() {
        assert!(!walk.is_empty());
        let mut last_t = f64::NEG_INFINITY;
        for pair in walk.windows(2) {
            let (dsts, times) = g.neighbor_slices(pair[0]);
            let t = dsts
                .iter()
                .zip(times)
                .filter(|&(&d, &t)| d == pair[1] && t > last_t)
                .map(|(_, &t)| t)
                .next();
            last_t = t.unwrap_or_else(|| {
                panic!("{label}: no valid edge {} -> {} after t={last_t}", pair[0], pair[1])
            });
        }
    }
}

#[test]
fn streaming_ingest_keeps_churned_vertices_on_rejection() {
    let mut dyn_g = DynamicGraph::from_graph(&pa_graph());
    let cfg = WalkConfig::new(2, 8).sampler(TransitionSampler::Softmax).seed(17);
    let par = par::ParConfig::with_threads(4);

    for batch in 0u32..3 {
        // Each batch touches a fresh trio of sources, plus one brand-new
        // vertex in the last round.
        let base = batch * 7;
        let far = if batch == 2 { 450 } else { base + 2 };
        dyn_g.add_edges([
            TemporalEdge::new(base, base + 1, 2.0 + f64::from(batch)),
            TemporalEdge::new(base + 1, far, 2.5 + f64::from(batch)),
        ]);
        let dirty = dyn_g.take_dirty();
        assert!(!dirty.is_empty(), "batch {batch} marked nothing dirty");
        let csr = dyn_g.to_csr();
        let sampler = cfg.sampler.prepare(&csr);
        let got = generate_walks_from_prepared(&csr, &cfg, &sampler, &dirty, &par);
        assert_eq!(got.num_walks(), cfg.walks_per_node * dirty.len());
        assert_temporally_valid(&csr, &got, &format!("refresh batch {batch}"));
        let full = generate_walks_serial(&csr, &cfg, &sampler);
        for w in 0..cfg.walks_per_node {
            for (i, &v) in dirty.iter().enumerate() {
                assert_eq!(
                    got.walk(w * dirty.len() + i),
                    full.walk(w * csr.num_nodes() + v as usize),
                    "batch {batch}: refresh row (walk {w}, source {v}) diverged"
                );
            }
        }
    }
}
