//! Regenerates Fig. 6: cumulative word2vec optimization ablation.
//!
//! Paper variants → this implementation:
//!
//! * **Baseline**  — cache-line padded rows, scalar reductions, unbatched.
//! * **No-pad**    — packed rows (padding removal; the paper's cache-line
//!   utilization fix for `d = 8`).
//! * **+Coalesce/Par-red** — 4-lane unrolled (vectorizable) dot products
//!   and accumulations.
//! * **+Batching** — 16k-sentence batches (intra-batch parallelism).
//!
//! Each row reports measured CPU time and embedding quality, confirming
//! the optimizations are loss-free.

use embed::ablation::{train_batched, Layout, Reduction};
use embed::Word2VecConfig;
use par::ParConfig;
use perfmodel::profile::{profile_word2vec, ProfileOptions};
use perfmodel::GpuModel;
use twalk::{generate_walks, WalkConfig};

fn main() {
    let scale = rwalk_bench::arg_scale();
    rwalk_bench::banner(
        "fig06",
        "Fig. 6",
        "Cumulative word2vec optimizations (paper: 220.5x end-to-end on GPU incl. batching).",
    );

    let n = ((2_000.0 * scale) as usize).max(200);
    let gen = tgraph::gen::temporal_sbm(n, 4, n * 12, 0.93, 13);
    let labels = gen.labels.clone();
    let g = gen.builder.undirected(true).build();
    let walks = generate_walks(&g, &WalkConfig::new(10, 6).seed(5), &ParConfig::default());
    let par = ParConfig::default();

    let quality = |emb: &embed::EmbeddingMatrix| -> f64 {
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        let step = (n / 64).max(1);
        for a in (0..n).step_by(step) {
            for b in (0..n).step_by(step * 3 + 1) {
                if a == b {
                    continue;
                }
                let sim = emb.cosine(a as u32, b as u32) as f64;
                if labels[a] == labels[b] {
                    intra = (intra.0 + sim, intra.1 + 1);
                } else {
                    inter = (inter.0 + sim, inter.1 + 1);
                }
            }
        }
        intra.0 / intra.1.max(1) as f64 - inter.0 / inter.1.max(1) as f64
    };

    struct Variant {
        name: &'static str,
        layout: Layout,
        reduction: Reduction,
        batch: usize,
    }
    let variants = [
        Variant {
            name: "baseline (padded, scalar, unbatched)",
            layout: Layout::Padded,
            reduction: Reduction::Scalar,
            batch: 1,
        },
        Variant {
            name: "+ Batching (16k)",
            layout: Layout::Padded,
            reduction: Reduction::Scalar,
            batch: 16_384,
        },
        Variant {
            name: "+ Coalesce/Par-red (chunked)",
            layout: Layout::Padded,
            reduction: Reduction::Chunked,
            batch: 16_384,
        },
        Variant {
            name: "+ No-pad (packed rows)",
            layout: Layout::Packed,
            reduction: Reduction::Chunked,
            batch: 16_384,
        },
    ];

    // Modeled GPU time per variant: padded layout doubles the memory
    // traffic of the d = 8 rows (half of every 64 B line wasted); scalar
    // reduction serializes the per-dimension work a coalesced kernel would
    // spread across lanes (modeled 4x compute); unbatched runs charge one
    // launch per sentence at single-sentence occupancy.
    let gpu = GpuModel::ampere();
    let base_profile = profile_word2vec(&walks, 8, 5, 5, n, &ProfileOptions::default());
    let corpus_bytes = (walks.total_vertices() * 4) as f64;
    let gpu_time = |v: &Variant, epochs: usize| -> f64 {
        let mut p = base_profile.clone();
        if v.layout == Layout::Padded {
            p.ops.loads *= 2;
            p.ops.stores *= 2;
        }
        if v.reduction == Reduction::Scalar {
            // Uncoalesced per-thread accesses waste most of each 32 B
            // sector (memory ×2) and serialize the reduction (fp ×4).
            p.ops.loads *= 2;
            p.ops.fp_ops *= 4;
        }
        let launches = (walks.num_walks().div_ceil(v.batch) * epochs) as f64;
        gpu.estimate_profile(&p, p.work_scale(), (v.batch * 8) as f64, launches, corpus_bytes)
            .total_secs()
    };

    println!("| variant | CPU time (s) | CPU speedup | GPU modeled (s) | GPU speedup | quality |");
    println!("|---|---|---|---|---|---|");
    let mut base = None;
    let mut gpu_base = None;
    for v in &variants {
        let cfg = Word2VecConfig::default().epochs(4).seed(7);
        let ((emb, _), t) = rwalk_bench::time_it(|| {
            train_batched(&walks, n, &cfg, &par, v.batch, v.layout, v.reduction)
        });
        let secs = t.as_secs_f64();
        let base_secs = *base.get_or_insert(secs);
        let g_secs = gpu_time(v, 4);
        let g_base = *gpu_base.get_or_insert(g_secs);
        println!(
            "| {} | {secs:.3} | {:.2}x | {g_secs:.4} | {:.1}x | {:.3} |",
            v.name,
            base_secs / secs,
            g_base / g_secs,
            quality(&emb)
        );
    }
    println!();
    println!(
        "Shape target: cumulative GPU speedup grows with each optimization and quality stays \
         flat (paper: 220.5x end-to-end). CPU deltas are small at d = 8 on a host CPU — the \
         wins are GPU-mechanism-specific (cache-line economy, coalescing, launch amortization)."
    );
}
