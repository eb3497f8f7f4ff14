//! Regenerates Fig. 5: word2vec sentence-batching speedup.
//!
//! Two columns per batch size:
//!
//! * **CPU measured** — wall-clock of the real batched trainer, where a
//!   batch is one parallel region (batch 1 serializes sentences, large
//!   batches expose hogwild parallelism);
//! * **GPU modeled** — the analytic model charging one kernel launch per
//!   batch and occupancy proportional to in-flight sentences, which is the
//!   mechanism behind the paper's 124.2× speedup at 16k batching.
//!
//! The quality column confirms the paper's "without accuracy loss": the
//! embedding separation of planted communities is unchanged by batching.

use embed::ablation::{train_batched, Layout, Reduction};
use embed::Word2VecConfig;
use par::ParConfig;
use perfmodel::profile::{profile_word2vec, ProfileOptions};
use perfmodel::GpuModel;
use twalk::{generate_walks, WalkConfig};

fn main() {
    let scale = rwalk_bench::arg_scale();
    rwalk_bench::banner(
        "fig05",
        "Fig. 5",
        "word2vec speedup vs sentence batch size (normalized to batch = 1).",
    );

    // Labeled graph so embedding quality is checkable.
    let n = ((2_000.0 * scale) as usize).max(200);
    let gen = tgraph::gen::temporal_sbm(n, 4, n * 12, 0.93, 11);
    let labels = gen.labels.clone();
    let g = gen.builder.undirected(true).build();
    let walks = generate_walks(&g, &WalkConfig::new(10, 6).seed(2), &ParConfig::default());
    let cfg = Word2VecConfig::default().epochs(4).seed(3);
    let par = ParConfig::default();

    let quality = |emb: &embed::EmbeddingMatrix| -> f64 {
        // Mean intra-class minus inter-class cosine over a vertex sample.
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

    // GPU model inputs measured once from the instrumented replica.
    let gpu = GpuModel::ampere();
    let profile =
        profile_word2vec(&walks, cfg.dim, cfg.window, cfg.negatives, n, &ProfileOptions::default());
    let corpus_bytes = (walks.total_vertices() * 4) as f64;

    let batch_sizes = [1usize, 16, 256, 1_024, 4_096, 16_384];
    let mut rows = Vec::new();
    for &bs in &batch_sizes {
        let ((emb, stats), cpu_time) = rwalk_bench::time_it(|| {
            train_batched(&walks, n, &cfg, &par, bs, Layout::Packed, Reduction::Simd)
        });
        let est = gpu.estimate_profile(
            &profile,
            profile.work_scale(),
            (bs * cfg.dim) as f64,
            stats.batches as f64,
            corpus_bytes,
        );
        rows.push((bs, cpu_time.as_secs_f64(), est.total_secs(), quality(&emb)));
    }

    let cpu_base = rows[0].1;
    let gpu_base = rows[0].2;
    println!("| batch | CPU time (s) | CPU speedup | GPU modeled (s) | GPU speedup | quality (intra-inter cosine) |");
    println!("|---|---|---|---|---|---|");
    for (bs, cpu, gpu_t, q) in &rows {
        println!(
            "| {bs} | {cpu:.3} | {:.1}x | {gpu_t:.4} | {:.1}x | {q:.3} |",
            cpu_base / cpu,
            gpu_base / gpu_t
        );
    }
    println!();
    println!(
        "Paper: 124.2x at 16k batching with no accuracy loss; the modeled GPU speedup saturates \
         at large batches for the same reasons (launch amortization + occupancy)."
    );
}
