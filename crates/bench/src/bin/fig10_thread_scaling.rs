//! Regenerates Fig. 10: CPU thread-scaling of the temporal random walk and
//! word2vec kernels on the stackoverflow stand-in, with the modeled GPU as
//! an extra point (normalized to 1 CPU thread).

use embed::{train, Word2VecConfig};
use par::ParConfig;
use perfmodel::profile::{profile_walk, profile_word2vec, ProfileOptions};
use perfmodel::GpuModel;
use twalk::{generate_walks_prepared, WalkConfig};

fn main() {
    let scale = rwalk_bench::arg_scale();
    rwalk_bench::banner(
        "fig10",
        "Fig. 10",
        "Thread scaling of rwalk and word2vec (speedup over one thread), plus the modeled GPU.",
    );

    let d = datasets::stackoverflow(0.5 * scale);
    let walk_cfg = WalkConfig::new(10, 6).seed(3);
    let w2v_cfg = Word2VecConfig::default().epochs(1).seed(4);
    let n = d.graph.num_nodes();

    let avail = std::thread::available_parallelism().map(|x| x.get()).unwrap_or(4);
    let mut threads = vec![1usize, 2, 4, 8, 16, 32, 64];
    threads.retain(|&t| t <= avail.max(2) * 2);

    // One prepared sampler serves every thread count — the CDF tables are
    // read-only, so the timed loop measures pure walk-kernel scaling.
    let sampler = walk_cfg.sampler.prepare(&d.graph);

    // Corpus for word2vec timed runs (built once, outside timing).
    let walks = generate_walks_prepared(&d.graph, &walk_cfg, &sampler, &ParConfig::default());

    println!("(threads available on this machine: {avail})");
    println!("| threads | rwalk time (s) | rwalk speedup | w2v time (s) | w2v speedup |");
    println!("|---|---|---|---|---|");
    let mut rwalk_base = None;
    let mut w2v_base = None;
    for &t in &threads {
        let par = ParConfig::with_threads(t).chunk_size(64);
        let (_, rt) = rwalk_bench::best_of(2, || {
            generate_walks_prepared(&d.graph, &walk_cfg, &sampler, &par)
        });
        let (_, wt) = rwalk_bench::time_it(|| train(&walks, n, &w2v_cfg, &par));
        let rb = *rwalk_base.get_or_insert(rt.as_secs_f64());
        let wb = *w2v_base.get_or_insert(wt.as_secs_f64());
        println!(
            "| {t} | {:.3} | {:.2}x | {:.3} | {:.2}x |",
            rt.as_secs_f64(),
            rb / rt.as_secs_f64(),
            wt.as_secs_f64(),
            wb / wt.as_secs_f64()
        );
    }

    // Modeled GPU points.
    let gpu = GpuModel::ampere();
    let opts = ProfileOptions::default();
    let wp = profile_walk(&d.graph, &walk_cfg, &opts);
    let rwalk_gpu = gpu
        .estimate_profile(&wp, wp.work_scale(), n as f64, 1.0, d.graph.memory_bytes() as f64)
        .total_secs();
    let w2p = profile_word2vec(&walks, 8, 5, 5, n, &opts);
    let batches = walks.num_walks().div_ceil(16_384) as f64;
    let w2v_gpu = gpu
        .estimate_profile(
            &w2p,
            w2p.work_scale(),
            (16_384 * 8) as f64,
            batches,
            (walks.total_vertices() * 4) as f64,
        )
        .total_secs();
    println!(
        "| GPU (modeled) | {rwalk_gpu:.3} | {:.2}x | {w2v_gpu:.3} | {:.2}x |",
        rwalk_base.unwrap_or(1.0) / rwalk_gpu,
        w2v_base.unwrap_or(1.0) / w2v_gpu
    );
    println!();
    println!(
        "Shape targets: both kernels scale with threads despite irregularity (work stealing); \
         the paper saw the GPU land near 32 CPU threads for rwalk (divergence + transfer) but \
         far ahead for the batched word2vec."
    );
}
