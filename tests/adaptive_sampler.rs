//! Equivalence and policy tests for the two per-vertex sampling methods
//! — CDF tables, and bounded rejection for churned vertices — through
//! the public API only.
//!
//! * The CDF method is the reference: `prepare_churned` with no vertex in
//!   range must reproduce `prepare` bit-for-bit, walks included.
//! * Rejection consumes the RNG differently, so its contract is
//!   distributional: a two-sample chi-squared over 20k draws against the
//!   CDF path must not reject, and the sample may not deviate from the
//!   analytic softmax probabilities.
//! * Under streaming ingest, churned vertices must sample by table-free
//!   rejection while static hubs keep their CDF tables, and every
//!   emitted walk must remain a temporally valid path.
//!
//! CI additionally runs this suite under `SIMD_FORCE_SCALAR=1` (the
//! forced-scalar pass).

use tgraph::dynamic::DynamicGraph;
use tgraph::{TemporalEdge, TemporalGraph};
use twalk::{
    generate_walks, generate_walks_from_prepared, generate_walks_prepared, generate_walks_serial,
    SamplerBuildStats, SamplingMethod, TransitionSampler, WalkConfig, WalkRng,
};

const DRAWS: usize = 20_000;

/// Preferential-attachment stand-in with a heavy-tailed degree
/// distribution.
fn pa_graph() -> TemporalGraph {
    tgraph::gen::preferential_attachment(400, 4, 11).undirected(true).build()
}

/// The vertex with the largest out-segment, plus its degree.
fn max_degree_vertex(g: &TemporalGraph) -> (u32, usize) {
    (0..g.num_nodes() as u32)
        .map(|v| (v, g.neighbor_slices(v).0.len()))
        .max_by_key(|&(_, d)| d)
        .expect("non-empty graph")
}

/// Analytic probabilities of the tables' segment-anchored weights over a
/// candidate suffix (softmax Eq. 1 or its recency-negated variant).
fn analytic_probs(times: &[f64], span: f64, recency: bool) -> Vec<f64> {
    let sign = if recency { -1.0 } else { 1.0 };
    let max_e = times.iter().fold(f64::NEG_INFINITY, |m, &t| m.max(sign * t / span));
    let w: Vec<f64> = times.iter().map(|&t| (sign * t / span - max_e).exp()).collect();
    let total: f64 = w.iter().sum();
    w.into_iter().map(|x| x / total).collect()
}

/// Two-sample chi-squared statistic for equal-size samples; bins with no
/// mass in either sample contribute nothing.
fn chi_squared_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
    let mut stat = 0.0;
    let mut df = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        let n = (x + y) as f64;
        if n > 0.0 {
            let d = x as f64 - y as f64;
            stat += d * d / n;
            df += 1;
        }
    }
    (stat, df.saturating_sub(1))
}

/// Loose upper bound on the chi-squared 99.99th percentile: mean + 5σ.
/// The draws are seeded, so this guards against implementation drift,
/// not sampling noise.
fn chi_squared_bound(df: usize) -> f64 {
    df as f64 + 5.0 * (2.0 * df as f64).sqrt() + 10.0
}

/// Asserts every walk in `walks` is a temporally valid path of `g`.
fn assert_temporally_valid(g: &TemporalGraph, walks: &twalk::WalkSet, label: &str) {
    for walk in walks.iter() {
        assert!(!walk.is_empty(), "{label}: empty walk");
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

/// Bounded rejection must track the CDF tables' distribution on the
/// skewed graph's hub, for both weighted biases, on the full segment and
/// a mid-segment suffix cut.
#[test]
fn rejection_matches_cdf_distributionally() {
    let g = pa_graph();
    let span = g.time_span().max(f64::MIN_POSITIVE);
    let (v, deg) = max_degree_vertex(&g);
    assert!(deg >= 16, "need a high-degree vertex, got {deg}");
    let (_, times) = g.neighbor_slices(v);

    for (si, bias) in
        [TransitionSampler::Softmax, TransitionSampler::SoftmaxRecency].into_iter().enumerate()
    {
        let recency = bias == TransitionSampler::SoftmaxRecency;
        let cdf = bias.prepare(&g);
        let rejection = bias.prepare_churned(&g, &[v]);
        assert_eq!(rejection.method_of(v), Some(SamplingMethod::Rejection));
        for lo in [0usize, deg / 3] {
            let probs = analytic_probs(&times[lo..], span, recency);
            let mut cdf_counts = vec![0u64; deg - lo];
            let mut rejection_counts = vec![0u64; deg - lo];
            let mut rng_c = WalkRng::from_stream(99, si as u64, lo as u64);
            let mut rng_a = WalkRng::from_stream(407, si as u64, lo as u64);
            for _ in 0..DRAWS {
                let pick = rejection.sample(v, times, lo, f64::NEG_INFINITY, &mut rng_a);
                assert!((lo..deg).contains(&pick), "pick {pick} escaped suffix [{lo}, {deg})");
                rejection_counts[pick - lo] += 1;
                cdf_counts[cdf.sample(v, times, lo, f64::NEG_INFINITY, &mut rng_c) - lo] += 1;
            }
            let (stat, df) = chi_squared_two_sample(&rejection_counts, &cdf_counts);
            assert!(
                stat < chi_squared_bound(df),
                "{bias:?} lo={lo}: chi-squared {stat:.1} over {df} df rejects \
                 equivalence with the CDF path"
            );
            // Both empirical distributions must also track the
            // analytic probabilities, not merely each other.
            for (i, &p) in probs.iter().enumerate() {
                let got = rejection_counts[i] as f64 / DRAWS as f64;
                assert!(
                    (got - p).abs() < 0.025,
                    "{bias:?} lo={lo} bin {i}: {got:.4} vs analytic {p:.4}"
                );
            }
        }
    }
}

/// Naming no vertex in range as churned is `prepare` under another
/// name: identical build stats and bit-identical walks, serial or
/// parallel.
#[test]
fn churning_no_vertex_is_bit_compatible_with_prepare() {
    let g = pa_graph();
    let par = par::ParConfig::with_threads(4);
    for bias in [TransitionSampler::Softmax, TransitionSampler::SoftmaxRecency] {
        let cfg = WalkConfig::new(3, 7).sampler(bias).seed(23);
        let plain = bias.prepare(&g);
        let reference = generate_walks_prepared(&g, &cfg, &plain, &par);
        let out_of_range = g.num_nodes() as u32 + 5;
        for built in [bias.prepare_churned(&g, &[]), bias.prepare_churned(&g, &[out_of_range])] {
            let stats = SamplerBuildStats { build_time: plain.stats().build_time, ..built.stats() };
            assert_eq!(stats, plain.stats());
            let got = generate_walks_prepared(&g, &cfg, &built, &par);
            assert_eq!(got, reference, "{bias:?} walks diverged");
            let serial = generate_walks_serial(&g, &cfg, &built);
            assert_eq!(serial, reference, "{bias:?} walks diverged from the oracle");
        }
    }
}

/// Walks drawn with every vertex churned to rejection, and with every
/// third one, stay temporally valid and match the serial oracle.
#[test]
fn adaptive_method_walks_remain_temporally_valid() {
    let g = pa_graph();
    let par = par::ParConfig::with_threads(2);
    let cfg = WalkConfig::new(2, 10).sampler(TransitionSampler::Softmax).seed(5);
    let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
    let third: Vec<u32> = all.iter().copied().step_by(3).collect();
    for (label, churned) in [("all churned", &all), ("every third churned", &third)] {
        let sampler = cfg.sampler.prepare_churned(&g, churned);
        let walks = generate_walks_prepared(&g, &cfg, &sampler, &par);
        assert_eq!(walks.num_walks(), 2 * g.num_nodes());
        assert_temporally_valid(&g, &walks, label);
        assert_eq!(walks, generate_walks_serial(&g, &cfg, &sampler), "{label}");
    }
    // The all-CDF default too, through the one-call entry point.
    let walks = generate_walks(&g, &cfg, &par);
    assert_temporally_valid(&g, &walks, "cdf");
}

/// The streaming scenario the rejection method exists for: a graph
/// evolving under `DynamicGraph` ingest. Each refresh rebuilds the
/// sampler with the dirty set marked churned — those vertices must come
/// out as rejection (no wasted table builds), untouched hubs keep their
/// CDF tables, and the refreshed walks stay valid and match the oracle's
/// rows.
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
            TemporalEdge::new(base, base + 1, 2.0 + batch as f64),
            TemporalEdge::new(base + 1, far, 2.5 + batch as f64),
        ]);
        let dirty = dyn_g.take_dirty();
        assert!(!dirty.is_empty(), "batch {batch} marked nothing dirty");
        let csr = dyn_g.to_csr();
        let sampler = cfg.sampler.prepare_churned(&csr, &dirty);
        for &v in &dirty {
            if !csr.neighbor_slices(v).0.is_empty() {
                assert_eq!(
                    sampler.method_of(v),
                    Some(SamplingMethod::Rejection),
                    "churned vertex {v} (batch {batch})"
                );
            }
        }
        // A hub far from the ingested region keeps its CDF table.
        let (top, _) = max_degree_vertex(&csr);
        if !dirty.contains(&top) {
            assert_eq!(sampler.method_of(top), Some(SamplingMethod::Cdf));
        }
        let got = generate_walks_from_prepared(&csr, &cfg, &sampler, &dirty, &par);
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
