//! Instrumented kernel replicas.
//!
//! Each `profile_*` function re-executes a kernel's real control flow and
//! data-dependent access pattern while counting abstract operations
//! ([`crate::OpCounts`]) and feeding every memory access through the cache
//! simulator. The op *ratios* reproduce the paper's Fig. 9 and the cache /
//! irregularity numbers feed the Fig. 3 comparison.
//!
//! Costs of composite operations are fixed here once and used everywhere:
//! an `exp` counts as 8 flops, one RNG draw as 6 integer ops, a binary
//! search step as 1 load + 1 branch + 2 integer ops. Absolute totals are
//! therefore approximate, but identical conventions across kernels keep the
//! cross-kernel comparison meaningful.

// Indexed loops over parallel arrays are the intended idiom here.
#![allow(clippy::needless_range_loop)]

use tgraph::{NodeId, TemporalGraph};
use twalk::{TransitionSampler, WalkConfig, WalkRng, WalkSet};

use crate::{CacheHierarchy, OpCounts};

/// Flop cost assigned to one `exp` evaluation.
const EXP_FLOPS: u64 = 8;
/// `exp` also performs libm table lookups and range-reduction branches;
/// MICA counts those as memory/branch/other instructions.
const EXP_LOADS: u64 = 3;
const EXP_BRANCHES: u64 = 2;
const EXP_OTHER: u64 = 3;
/// Integer-op cost assigned to one RNG draw.
const RNG_INT_OPS: u64 = 6;

// Synthetic base addresses of the kernels' data structures, spaced far
// apart so streams never alias in the simulated caches.
const OFFSETS_BASE: u64 = 0x1_0000_0000;
const DSTS_BASE: u64 = 0x2_0000_0000;
const TIMES_BASE: u64 = 0x3_0000_0000;
const WALK_OUT_BASE: u64 = 0x4_0000_0000;
const SYN0_BASE: u64 = 0x5_0000_0000;
const SYN1_BASE: u64 = 0x6_0000_0000;
const MAT_A_BASE: u64 = 0x7_0000_0000;
const MAT_B_BASE: u64 = 0x8_0000_0000;
const MAT_C_BASE: u64 = 0x9_0000_0000;
const DEPTH_BASE: u64 = 0xA_0000_0000;
const FEAT_BASE: u64 = 0xB_0000_0000;

/// Budget knobs for the instrumented replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Stop tracing after roughly this many counted operations; ratios are
    /// already stable long before typical defaults.
    pub max_events: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self { max_events: 4_000_000 }
    }
}

/// Result of profiling one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (paper phase naming: rwalk, word2vec, training, …).
    pub name: String,
    /// Abstract operation counts.
    pub ops: OpCounts,
    /// Simulated L1 hit rate.
    pub l1_hit_rate: f64,
    /// Simulated L2 hit rate (over L1 misses).
    pub l2_hit_rate: f64,
    /// Fraction of accesses jumping > 256 B (replay/divergence proxy).
    pub irregularity: f64,
    /// Max-over-mean per-chunk work ratio (work-stealing input skew);
    /// `1.0` is perfectly balanced.
    pub load_imbalance: f64,
    /// Fraction of the kernel's outer loop actually traced before the
    /// event budget ran out; scale op totals by `1 / coverage` to estimate
    /// the full kernel.
    pub coverage: f64,
}

impl KernelProfile {
    /// Multiplier converting traced op totals to full-kernel totals.
    pub fn work_scale(&self) -> f64 {
        if self.coverage <= 0.0 {
            1.0
        } else {
            1.0 / self.coverage
        }
    }
}

struct Tracer {
    ops: OpCounts,
    cache: CacheHierarchy,
    budget: u64,
}

impl Tracer {
    fn new(opts: &ProfileOptions) -> Self {
        Self { ops: OpCounts::default(), cache: CacheHierarchy::default(), budget: opts.max_events }
    }

    #[inline]
    fn exhausted(&self) -> bool {
        self.ops.total() >= self.budget
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        self.ops.loads += 1;
        self.cache.access(addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.ops.stores += 1;
        self.cache.access(addr);
    }

    fn finish(self, name: &str, load_imbalance: f64, coverage: f64) -> KernelProfile {
        KernelProfile {
            name: name.into(),
            ops: self.ops,
            l1_hit_rate: self.cache.l1.hit_rate(),
            l2_hit_rate: self.cache.l2_hit_rate(),
            irregularity: self.cache.irregularity(),
            load_imbalance,
            coverage: coverage.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }
}

/// Max/mean ratio over per-chunk work counts (256-item chunks).
fn imbalance(work: &[u64]) -> f64 {
    if work.is_empty() {
        return 1.0;
    }
    let chunks: Vec<u64> = work.chunks(256).map(|c| c.iter().sum()).collect();
    let mean = chunks.iter().sum::<u64>() as f64 / chunks.len() as f64;
    let max = *chunks.iter().max().unwrap() as f64;
    if mean == 0.0 {
        1.0
    } else {
        (max / mean).max(1.0)
    }
}

/// Profiles the temporal random walk kernel (RW-P1).
pub fn profile_walk(g: &TemporalGraph, cfg: &WalkConfig, opts: &ProfileOptions) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let n = g.num_nodes();
    let mut per_vertex_work = vec![0u64; n];
    let mut pairs_done = 0u64;

    'outer: for w in 0..cfg.walks_per_node {
        for v in 0..n as NodeId {
            if t.exhausted() {
                break 'outer;
            }
            let mut rng = WalkRng::from_stream(cfg.seed, w as u64, v as u64);
            let mut curr = v;
            let mut curr_time = f64::NEG_INFINITY;
            let mut steps = 0u64;
            for pos in 0..cfg.max_length {
                // Offset loads for the CSR segment.
                t.load(OFFSETS_BASE + curr as u64 * 8);
                t.load(OFFSETS_BASE + (curr as u64 + 1) * 8);
                t.ops.int_ops += 2;

                let (dsts, times) = if curr_time.is_finite() {
                    g.neighbors_after(curr, curr_time)
                } else {
                    g.neighbor_slices(curr)
                };
                // Binary search over the vertex's timestamp segment.
                let seg_len = g.out_degree(curr) as u64;
                let bs_steps = 64 - seg_len.leading_zeros() as u64;
                for s in 0..bs_steps {
                    t.load(TIMES_BASE + (curr as u64 * 64 + s) * 8);
                    t.ops.branches += 1;
                    t.ops.int_ops += 2;
                }

                t.ops.branches += 1; // empty-candidate check
                if dsts.is_empty() {
                    break;
                }

                let base = g.out_degree(curr) - dsts.len();
                let pick = match cfg.sampler {
                    TransitionSampler::Uniform => {
                        t.ops.int_ops += RNG_INT_OPS + 1;
                        rng.next_bounded(dsts.len())
                    }
                    TransitionSampler::LinearTime => {
                        // O(1) triangular-CDF inversion: one RNG draw plus
                        // a handful of fp ops (sqrt counted as 4).
                        t.ops.int_ops += RNG_INT_OPS + 2;
                        t.ops.fp_ops += 8;
                        let len = dsts.len();
                        let total = (len * (len + 1) / 2) as f64;
                        let target = rng.next_f64() * total;
                        ((((8.0 * target + 1.0).sqrt() - 1.0) / 2.0).floor() as usize).min(len - 1)
                    }
                    TransitionSampler::Softmax | TransitionSampler::SoftmaxRecency => {
                        // Two passes over the candidate timestamps (Eq. 1):
                        // exponentials then the cumulative-sum selection.
                        for i in 0..dsts.len() {
                            t.load(TIMES_BASE + (curr as u64 * 64 + (base + i) as u64) * 8);
                            t.ops.fp_ops += EXP_FLOPS + 2;
                            // libm exp internals: table lookups, range
                            // reduction, register shuffles. The 1 KiB
                            // table is permanently cache/constant-memory
                            // resident, so it is counted as ops but not
                            // traced as cache traffic.
                            t.ops.loads += EXP_LOADS;
                            t.ops.branches += EXP_BRANCHES;
                            t.ops.other += EXP_OTHER;
                        }
                        t.ops.int_ops += RNG_INT_OPS;
                        let pick = rng.next_bounded(dsts.len());
                        for s in 0..=pick {
                            t.load(TIMES_BASE + (curr as u64 * 64 + (base + s) as u64) * 8);
                            t.ops.fp_ops += 1;
                            t.ops.branches += 1;
                        }
                        pick
                    }
                };

                t.load(DSTS_BASE + (curr as u64 * 64 + (base + pick) as u64) * 4);
                t.load(TIMES_BASE + (curr as u64 * 64 + (base + pick) as u64) * 8);
                curr_time = times[pick];
                curr = dsts[pick];
                t.store(WALK_OUT_BASE + (v as u64 * cfg.max_length as u64 + pos as u64) * 4);
                t.ops.int_ops += 2;
                t.ops.branches += 1;
                t.ops.other += 1; // loop/stack bookkeeping
                steps += 1;
            }
            per_vertex_work[v as usize] += steps.max(1);
            pairs_done += 1;
        }
    }
    let coverage = pairs_done as f64 / (cfg.walks_per_node as f64 * n.max(1) as f64);
    t.finish("rwalk", imbalance(&per_vertex_work), coverage)
}

/// Profiles the word2vec SGNS kernel (RW-P2) over a walk corpus.
pub fn profile_word2vec(
    corpus: &WalkSet,
    dim: usize,
    window: usize,
    negatives: usize,
    num_nodes: usize,
    opts: &ProfileOptions,
) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let stride = dim as u64 * 4;
    let mut rng = WalkRng::new(0x5730);
    let mut sentence_work = Vec::new();

    'outer: for walk in corpus.iter() {
        if t.exhausted() {
            break 'outer;
        }
        let mut work = 0u64;
        for i in 0..walk.len() {
            let center = walk[i] as u64;
            t.ops.int_ops += RNG_INT_OPS;
            let b = 1 + rng.next_bounded(window);
            let lo = i.saturating_sub(b);
            let hi = (i + b).min(walk.len() - 1);
            for j in lo..=hi {
                t.ops.branches += 1;
                if j == i {
                    continue;
                }
                let input = walk[j] as u64;
                // Read syn0[input] — sequential within the row.
                for k in 0..dim as u64 {
                    t.load(SYN0_BASE + input * stride + k * 4);
                }
                for neg in 0..=negatives {
                    let target = if neg == 0 {
                        center
                    } else {
                        t.ops.int_ops += RNG_INT_OPS;
                        rng.next_bounded(num_nodes) as u64
                    };
                    // Dot product + gradient + row update.
                    for k in 0..dim as u64 {
                        t.load(SYN1_BASE + target * stride + k * 4);
                        t.ops.fp_ops += 2; // mul + add of the dot
                    }
                    t.ops.fp_ops += 4; // sigmoid lookup interpolation + g
                    t.load(SYN1_BASE + target * stride); // sigmoid table folded
                    t.ops.branches += 2;
                    for k in 0..dim as u64 {
                        t.ops.fp_ops += 2; // e += g*syn1; syn1 += g*h
                        t.store(SYN1_BASE + target * stride + k * 4);
                        t.ops.other += 1; // index/move overhead
                    }
                    work += dim as u64;
                }
                // syn0[input] += e.
                for k in 0..dim as u64 {
                    t.ops.fp_ops += 1;
                    t.store(SYN0_BASE + input * stride + k * 4);
                }
                t.ops.other += 2;
            }
        }
        sentence_work.push(work.max(1));
    }
    let coverage = sentence_work.len() as f64 / corpus.num_walks().max(1) as f64;
    t.finish("word2vec", imbalance(&sentence_work), coverage)
}

/// Traces one naive GEMM (`m × k × n`) through the cache/ops model,
/// sampling at most `cap` inner iterations for the cache while counting
/// the full arithmetic.
fn gemm_trace(t: &mut Tracer, m: u64, k: u64, n: u64) {
    let total_inner = m * k * n;
    // Full analytic counts: 2 loads, 1 fma (2 flops), 1 int per inner
    // iteration; one store per output element.
    let traced = total_inner.min(t.budget.saturating_sub(t.ops.total()) / 5);
    // Trace the actual i-j-k access pattern for the sampled prefix.
    let mut seen = 0u64;
    'outer: for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                if seen >= traced {
                    break 'outer;
                }
                t.cache.access(MAT_A_BASE + (i * k + p) * 4);
                t.cache.access(MAT_B_BASE + (p * n + j) * 4);
                seen += 1;
            }
            t.cache.access(MAT_C_BASE + (i * n + j) * 4);
        }
    }
    t.ops.loads += 2 * total_inner;
    t.ops.fp_ops += 2 * total_inner;
    t.ops.int_ops += total_inner;
    t.ops.branches += total_inner / 8;
    t.ops.stores += m * n;
    // Loop overhead, spills and moves: roughly one per three fused
    // multiply-adds in compiled x86 GEMM inner loops.
    t.ops.other += total_inner / 3;
}

/// Profiles FNN training (RW-P3): forward + backward GEMMs for each layer
/// over `batches` mini-batches of `batch` rows.
pub fn profile_training(
    dims: &[usize],
    batch: usize,
    batches: usize,
    opts: &ProfileOptions,
) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let mut done = 0usize;
    for _ in 0..batches {
        for w in dims.windows(2) {
            let (k, n) = (w[0] as u64, w[1] as u64);
            // Forward, grad-weight (aᵀ·δ), and grad-input (δ·Wᵀ) GEMMs.
            gemm_trace(&mut t, batch as u64, k, n);
            gemm_trace(&mut t, k, batch as u64, n);
            gemm_trace(&mut t, batch as u64, n, k);
        }
        done += 1;
        if t.exhausted() {
            break;
        }
    }
    // Dense GEMM work is uniform across rows.
    t.finish("training", 1.0, done as f64 / batches.max(1) as f64)
}

/// Profiles FNN inference (RW-P4): forward GEMMs only.
pub fn profile_testing(
    dims: &[usize],
    batch: usize,
    batches: usize,
    opts: &ProfileOptions,
) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let mut done = 0usize;
    for _ in 0..batches {
        for w in dims.windows(2) {
            gemm_trace(&mut t, batch as u64, w[0] as u64, w[1] as u64);
        }
        done += 1;
        if t.exhausted() {
            break;
        }
    }
    t.finish("testing", 1.0, done as f64 / batches.max(1) as f64)
}

/// Profiles level-synchronous BFS (the Fig. 3 graph-traversal contrast).
pub fn profile_bfs(g: &TemporalGraph, source: NodeId, opts: &ProfileOptions) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let n = g.num_nodes();
    let mut depth = vec![u32::MAX; n];
    depth[source as usize] = 0;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut level = 0u32;
    let mut per_vertex_work = vec![0u64; n];
    let mut popped = 0u64;
    while !frontier.is_empty() && !t.exhausted() {
        level += 1;
        for &u in &frontier {
            popped += 1;
            t.load(OFFSETS_BASE + u as u64 * 8);
            t.load(OFFSETS_BASE + (u as u64 + 1) * 8);
            t.ops.int_ops += 2;
            let (dsts, _) = g.neighbor_slices(u);
            per_vertex_work[u as usize] += dsts.len().max(1) as u64;
            for (i, &v) in dsts.iter().enumerate() {
                t.load(DSTS_BASE + (u as u64 * 64 + i as u64) * 4);
                // The depth probe is the classic random access of BFS.
                t.load(DEPTH_BASE + v as u64 * 4);
                t.ops.branches += 1;
                if depth[v as usize] == u32::MAX {
                    depth[v as usize] = level;
                    t.store(DEPTH_BASE + v as u64 * 4);
                    t.store(DSTS_BASE + 0x1000_0000 + next.len() as u64 * 4);
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    let coverage = if t.exhausted() { popped as f64 / n.max(1) as f64 } else { 1.0 };
    t.finish("bfs", imbalance(&per_vertex_work), coverage)
}

/// Profiles one GCN layer inference (the Fig. 3 GCN contrast):
/// `Â · X` (SpMM over `nnz` non-zeros) followed by the dense `(n × f) ·
/// (f × out)` GEMM.
pub fn profile_gcn(
    g: &TemporalGraph,
    feat_dim: usize,
    out_dim: usize,
    opts: &ProfileOptions,
) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let n = g.num_nodes();
    let mut per_vertex_work = vec![0u64; n];
    let mut v_done = 0u64;
    'outer: for v in 0..n as NodeId {
        v_done += 1;
        t.load(OFFSETS_BASE + v as u64 * 8);
        t.load(OFFSETS_BASE + (v as u64 + 1) * 8);
        let (dsts, _) = g.neighbor_slices(v);
        per_vertex_work[v as usize] = (dsts.len() * feat_dim).max(1) as u64;
        for (i, &u) in dsts.iter().enumerate() {
            if t.exhausted() {
                break 'outer;
            }
            t.load(DSTS_BASE + (v as u64 * 64 + i as u64) * 4);
            for f in 0..feat_dim as u64 {
                // Gathering neighbor features: row-random, column-seq.
                t.load(FEAT_BASE + u as u64 * feat_dim as u64 * 4 + f * 4);
                t.ops.fp_ops += 2;
            }
            t.ops.branches += 1;
        }
        for f in 0..feat_dim as u64 {
            t.store(MAT_C_BASE + v as u64 * feat_dim as u64 * 4 + f * 4);
        }
    }
    gemm_trace(&mut t, n as u64, feat_dim as u64, out_dim as u64);
    t.finish("gcn", imbalance(&per_vertex_work), v_done as f64 / n.max(1) as f64)
}

/// Profiles the VGG GEMM-sequence proxy (the Fig. 3 DNN contrast).
pub fn profile_vgg(layer_shapes: &[(usize, usize, usize)], opts: &ProfileOptions) -> KernelProfile {
    let mut t = Tracer::new(opts);
    let mut done = 0usize;
    for &(m, k, n) in layer_shapes {
        gemm_trace(&mut t, m as u64, k as u64, n as u64);
        done += 1;
        if t.exhausted() {
            break;
        }
    }
    t.finish("vgg", 1.0, done as f64 / layer_shapes.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twalk::WalkConfig;

    fn pa_graph() -> TemporalGraph {
        tgraph::gen::preferential_attachment(2_000, 3, 7).undirected(true).build()
    }

    #[test]
    fn softmax_walk_is_compute_heavy_vs_bfs() {
        let g = pa_graph();
        let opts = ProfileOptions::default();
        let walk =
            profile_walk(&g, &WalkConfig::new(4, 6).sampler(TransitionSampler::Softmax), &opts);
        let bfs = profile_bfs(&g, 0, &opts);
        // Paper §VII-B: the walk kernel executes *more compute* than a
        // traditional traversal because of Eq. (1)'s exponentials.
        assert!(
            walk.ops.fp_fraction() > bfs.ops.fp_fraction() + 0.1,
            "walk fp {} vs bfs fp {}",
            walk.ops.fp_fraction(),
            bfs.ops.fp_fraction()
        );
        // And both compute and memory are dominant in the walk kernel.
        let mix = walk.ops.mix();
        assert!(mix.compute > 0.2, "compute {}", mix.compute);
        assert!(mix.memory > 0.2, "memory {}", mix.memory);
    }

    #[test]
    fn walk_on_skewed_graph_is_imbalanced_and_irregular() {
        let g = pa_graph();
        let p = profile_walk(&g, &WalkConfig::new(4, 6), &ProfileOptions::default());
        assert!(p.load_imbalance > 1.2, "imbalance {}", p.load_imbalance);
        assert!(p.irregularity > 0.3, "irregularity {}", p.irregularity);
    }

    #[test]
    fn vgg_is_regular_and_cache_friendly() {
        let shapes = [(64usize, 128usize, 64usize), (64, 64, 32)];
        let p = profile_vgg(&shapes, &ProfileOptions::default());
        assert_eq!(p.load_imbalance, 1.0);
        assert!(p.l1_hit_rate > 0.8, "l1 {}", p.l1_hit_rate);
        assert!(p.irregularity < 0.5, "irregularity {}", p.irregularity);
        let mix = p.ops.mix();
        assert!(mix.compute > 0.35);
    }

    #[test]
    fn word2vec_mix_balances_memory_and_compute() {
        let g = pa_graph();
        let cfg = WalkConfig::new(2, 6);
        let walks = twalk::generate_walks_serial(&g, &cfg, &cfg.sampler.prepare(&g));
        let p = profile_word2vec(&walks, 8, 5, 5, g.num_nodes(), &ProfileOptions::default());
        let mix = p.ops.mix();
        assert!(mix.memory > 0.25, "memory {}", mix.memory);
        assert!(mix.compute > 0.3, "compute {}", mix.compute);
        assert!(p.ops.stores > 0);
    }

    #[test]
    fn training_profile_counts_triple_gemms() {
        let opts = ProfileOptions::default();
        let train = profile_training(&[16, 64, 1], 32, 4, &opts);
        let test = profile_testing(&[16, 64, 1], 32, 4, &opts);
        // Backward adds roughly 2× the forward GEMM volume.
        assert!(train.ops.fp_ops > 2 * test.ops.fp_ops);
    }

    #[test]
    fn budget_caps_runtime() {
        let g = pa_graph();
        let small = ProfileOptions { max_events: 10_000 };
        let p = profile_walk(&g, &WalkConfig::new(10, 20), &small);
        assert!(p.ops.total() < 200_000);
    }

    #[test]
    fn gcn_profile_produces_normalized_mix() {
        let g = pa_graph();
        let p = profile_gcn(&g, 32, 8, &ProfileOptions::default());
        assert!(p.ops.mix().is_normalized());
        assert!(p.load_imbalance >= 1.0);
    }
}
