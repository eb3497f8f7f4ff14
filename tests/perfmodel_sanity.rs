//! Integration tests of the hardware-characterization substrate against
//! the real kernels: the modeled metrics must track the paper's
//! qualitative findings on real workloads.

use perfmodel::profile::{
    profile_bfs, profile_testing, profile_training, profile_vgg, profile_walk, profile_word2vec,
    ProfileOptions,
};
use perfmodel::stalls::stall_breakdown;
use perfmodel::{GpuModel, KernelClass, StallCategory};
use rwalk_repro::prelude::*;
use twalk::{generate_walks_serial, TransitionSampler, WalkConfig};

fn study_graph() -> TemporalGraph {
    tgraph::gen::preferential_attachment(3_000, 3, 13).undirected(true).build()
}

#[test]
fn fig3_contrast_holds_on_real_workloads() {
    let g = study_graph();
    let opts = ProfileOptions::default();
    let walk_cfg = WalkConfig::new(5, 6).sampler(TransitionSampler::Softmax).seed(1);
    let walk = profile_walk(&g, &walk_cfg, &opts);
    let bfs = profile_bfs(&g, 0, &opts);
    let vgg = profile_vgg(kernels::VggProxy::new(8, 0).layer_shapes(), &opts);

    // The pipeline kernel is more irregular than dense inference and at
    // least as irregular as BFS's depth probes (paper Fig. 3).
    assert!(walk.irregularity > vgg.irregularity + 0.2);
    // And more compute-rich than a pure traversal (paper §VII-B).
    assert!(walk.ops.fp_fraction() > bfs.ops.fp_fraction());
    // Dense GEMM workloads are perfectly balanced; graph kernels are not.
    assert!(walk.load_imbalance > vgg.load_imbalance);
}

#[test]
fn table3_crossover_gpu_wins_only_at_scale() {
    // The same kernel workload at growing sizes: the modeled GPU must lose
    // to a plausible CPU time at tiny sizes (launch + transfer dominated)
    // and win at large sizes.
    let gpu = GpuModel::ampere();
    let opts = ProfileOptions::default();
    let mut ratios = Vec::new();
    for scale in [1usize, 100] {
        let n = 500 * scale;
        let g = tgraph::gen::erdos_renyi(n, n * 10, 3).build();
        let cfg = WalkConfig::new(5, 6).seed(2);
        let p = profile_walk(&g, &cfg, &opts);
        let est = gpu.estimate_profile(&p, p.work_scale(), n as f64, 1.0, g.memory_bytes() as f64);
        // Proxy CPU time: ops at a few ops/ns across 8 cores.
        let cpu_secs = p.ops.total() as f64 * p.work_scale() / 20e9;
        ratios.push(cpu_secs / est.total_secs());
    }
    assert!(ratios[1] > ratios[0], "GPU should gain on CPU with scale: ratios {ratios:?}");
}

#[test]
fn fig11_stall_shapes_match_paper() {
    let g = study_graph();
    let opts = ProfileOptions::default();
    let cfg = WalkConfig::new(3, 6).seed(3);
    let walks = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));

    let walk =
        profile_walk(&g, &WalkConfig::new(5, 6).sampler(TransitionSampler::Softmax).seed(1), &opts);
    let w2v = profile_word2vec(&walks, 8, 5, 5, g.num_nodes(), &opts);
    let train = profile_training(&[16, 64, 1], 64, 64, &opts);
    let test = profile_testing(&[16, 64, 1], 1_024, 1, &opts);

    let b_walk = stall_breakdown(KernelClass::RandomWalk, &walk, 0.5);
    let b_w2v = stall_breakdown(KernelClass::Word2Vec, &w2v, 0.5);
    let b_train = stall_breakdown(KernelClass::Training, &train, 0.05);
    let b_test = stall_breakdown(KernelClass::Testing, &test, 0.05);

    // Paper: rwalk -> compute dependency dominant; word2vec -> memory
    // dependency dominant; training/testing -> IMC misses prominent.
    assert_eq!(b_walk.dominant(), StallCategory::ComputeDependency);
    assert_eq!(b_w2v.dominant(), StallCategory::MemoryDependency);
    assert!(b_train.fraction(StallCategory::ImcMiss) > 0.15);
    assert!(b_test.fraction(StallCategory::ImcMiss) > 0.15);

    // Paper: IMC + memory dep + compute dep average 65.5% across kernels.
    let key_avg: f64 = [&b_walk, &b_w2v, &b_train, &b_test]
        .iter()
        .map(|b| {
            b.fraction(StallCategory::ImcMiss)
                + b.fraction(StallCategory::ComputeDependency)
                + b.fraction(StallCategory::MemoryDependency)
        })
        .sum::<f64>()
        / 4.0;
    assert!((0.45..0.9).contains(&key_avg), "key stall avg {key_avg}");
}

#[test]
fn batching_speedup_curve_is_monotone_and_saturating() {
    // The Fig. 5 mechanism, on modeled GPU times derived from a real
    // corpus profile.
    let g = study_graph();
    let cfg = WalkConfig::new(5, 6).seed(4);
    let walks = generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
    let p = profile_word2vec(&walks, 8, 5, 5, g.num_nodes(), &ProfileOptions::default());
    let gpu = GpuModel::ampere();
    let corpus_bytes = (walks.total_vertices() * 4) as f64;

    let time = |batch: usize| {
        let launches = walks.num_walks().div_ceil(batch) as f64;
        gpu.estimate_profile(&p, p.work_scale(), (batch * 8) as f64, launches, corpus_bytes)
            .total_secs()
    };
    let t1 = time(1);
    let t256 = time(256);
    let t16k = time(16_384);
    let t64k = time(65_536);
    assert!(t1 > t256 && t256 > t16k, "not monotone: {t1} {t256} {t16k}");
    // Saturation: going 16k -> 64k gains far less than 1 -> 256.
    let early_gain = t1 / t256;
    let late_gain = t16k / t64k;
    assert!(early_gain > 4.0 * late_gain, "no saturation: {early_gain} vs {late_gain}");
}
