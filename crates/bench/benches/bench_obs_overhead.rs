//! Metrics-overhead gate: the global recorder ON must cost < 2% over OFF
//! on the instrumented walk + word2vec hot paths.
//!
//! This is the enforcement half of the obs crate's design contract
//! (DESIGN.md §12): every instrumentation point is either post-hoc,
//! per-chunk-flushed, or behind a single relaxed bool load, so enabling
//! metrics must be invisible at the workload level. The gate runs the
//! same workload with the recorder off and on, interleaved A/B to cancel
//! drift, compares min-of-N times, and exits nonzero if ON exceeds
//! OFF × (1 + threshold).
//!
//! Custom harness (not the criterion shim) because the gate needs to
//! toggle process-global state between timed sections and to *assert* on
//! the ratio, not just report it. `--test` shrinks rep counts for smoke
//! runs.

use std::time::{Duration, Instant};

use par::ParConfig;
use std::hint::black_box;
use twalk::WalkConfig;

/// One instrumented workload pass: RW-P1 walks then RW-P2 word2vec, the
/// two phases with per-round / per-chunk recorder traffic.
fn workload(g: &tgraph::TemporalGraph, par: &ParConfig) -> Duration {
    let t0 = Instant::now();
    let cfg = WalkConfig::new(4, 8).seed(3);
    let walks = twalk::generate_walks(g, &cfg, par);
    let w2v = embed::Word2VecConfig::default().dim(8).epochs(1).seed(5);
    black_box(embed::train(&walks, g.num_nodes(), &w2v, par));
    t0.elapsed()
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if test_mode { 3 } else { 9 };
    let max_pct = 2.0;

    let g = tgraph::gen::preferential_attachment(4_000, 4, 11).undirected(true).build();
    let par = ParConfig::default();

    // Warm caches, the thread pool, and the lazily-initialized global
    // registry outside the timed region.
    obs::set_global_enabled(true);
    let _ = workload(&g, &par);
    obs::set_global_enabled(false);
    let _ = workload(&g, &par);

    // Interleave OFF/ON passes so frequency scaling and background noise
    // hit both sides equally.
    let (mut off_min, mut on_min) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        obs::set_global_enabled(false);
        off_min = off_min.min(workload(&g, &par));
        obs::set_global_enabled(true);
        on_min = on_min.min(workload(&g, &par));
    }
    obs::set_global_enabled(false);

    let overhead_pct = (on_min.as_secs_f64() / off_min.as_secs_f64() - 1.0) * 100.0;
    println!(
        "obs overhead gate: off min {:.3} ms, on min {:.3} ms, overhead {overhead_pct:+.2}% (limit {max_pct}%)",
        off_min.as_secs_f64() * 1e3,
        on_min.as_secs_f64() * 1e3,
    );
    assert!(
        overhead_pct < max_pct,
        "metrics recorder overhead {overhead_pct:.2}% exceeds the {max_pct}% budget \
         (off min {off_min:?}, on min {on_min:?})"
    );
}
