//! Perf-trend gate: compares a fresh `BENCH_rwalk.json` against the
//! committed baseline and fails on >25% regressions in the tracked rows.
//!
//! The gating rules live in [`rwalk_bench::trendgate`] (unit-tested over
//! synthetic captures); this binary is the argv/IO/exit-code wrapper.
//!
//! Tracked rows are the serving closed-loop latencies
//! (`serve/loadgen/closed/*`) and the walk kernel on its two paths
//! (`rwalk/walks/*`). For the `p50_p95_p99` latency rows the gated
//! metric is the p99 (the `max_ns` field); for everything else it is the
//! min-of-N (`min_ns`), which is the noise-robust statistic every
//! custom-harness gate in this repo already keys on.
//!
//! Rows present on only one side are reported but never fail the gate:
//! benches come and go across commits, and a trend gate that blocks
//! adding a bench teaches people not to add benches.
//!
//! ## Baseline provenance and runner heterogeneity
//!
//! The committed baseline is *absolute* nanoseconds captured on one
//! machine, while CI runs land on a heterogeneous shared-runner fleet:
//! a fresh run can execute on a faster or slower hardware generation
//! than the one that produced the baseline. Min-of-N and the generous
//! 25% threshold absorb scheduler noise, but not a runner-class gap —
//! that can fire the gate with no causal diff, or mask a real
//! regression of similar size. Policy:
//!
//! * **Refresh the baseline** (commit the bench job's fresh
//!   `BENCH_rwalk.json` artifact) whenever the gate fires and the diff
//!   plausibly cannot explain the delta, and after any intentional perf
//!   change to a tracked row — so the committed trajectory always comes
//!   from the same runner class that gates against it.
//! * **`TREND_GATE_WARN_ONLY=1` is expected** (not a cheat) on exactly
//!   three kinds of runs: the baseline-refresh commit itself, a known
//!   runner-image/hardware migration, and bisection runs replaying old
//!   commits against a newer baseline. Anywhere else, a firing gate
//!   deserves a look before the escape hatch.
//!
//! Usage: `trend_gate BASELINE.json FRESH.json [--warn-only]`
//! (`TREND_GATE_WARN_ONLY=1` and `TREND_GATE_MAX_PCT` are the env
//! equivalents). Exit status 1 on any regression unless warn-only.

use std::process::ExitCode;

use rwalk_bench::trendgate::{evaluate, parse_rows, DEFAULT_MAX_PCT};

fn load(path: &str) -> std::collections::BTreeMap<String, rwalk_bench::trendgate::Row> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("trend_gate: cannot read {path}: {e}"));
    parse_rows(&text).unwrap_or_else(|e| panic!("trend_gate: {path}: {e}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args.next();
    let fresh_path = args.next();
    let mut warn_only = std::env::var("TREND_GATE_WARN_ONLY").is_ok_and(|v| v == "1");
    for extra in args {
        match extra.as_str() {
            "--warn-only" => warn_only = true,
            other => {
                eprintln!("trend_gate: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline_path), Some(fresh_path)) = (baseline_path, fresh_path) else {
        eprintln!("usage: trend_gate BASELINE.json FRESH.json [--warn-only]");
        return ExitCode::FAILURE;
    };
    let max_pct: f64 = std::env::var("TREND_GATE_MAX_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_MAX_PCT);

    let outcome = evaluate(&load(&baseline_path), &load(&fresh_path), max_pct);

    for id in &outcome.new_rows {
        println!("  new    {id} (no baseline row, not gated)");
    }
    for c in &outcome.compared {
        let verdict = if c.regressed { "REGRESS" } else { "ok" };
        println!(
            "  {verdict:<8}{}: {} {:.3} ms -> {:.3} ms ({:+.1}%)",
            c.id,
            c.which,
            c.base_ns as f64 / 1e6,
            c.fresh_ns as f64 / 1e6,
            c.delta_pct,
        );
    }
    for id in &outcome.gone_rows {
        println!("  gone   {id} (baseline row missing from fresh run, not gated)");
    }

    let regressions: Vec<String> = outcome
        .regressions()
        .map(|c| format!("{} ({} {:+.1}%)", c.id, c.which, c.delta_pct))
        .collect();
    println!(
        "trend gate: {} rows compared against {baseline_path}, \
         {} regression(s) beyond {max_pct}%",
        outcome.compared.len(),
        regressions.len()
    );
    if regressions.is_empty() {
        return ExitCode::SUCCESS;
    }
    for r in &regressions {
        eprintln!("trend gate regression: {r}");
    }
    eprintln!(
        "trend gate: if the diff cannot plausibly explain the delta, suspect runner \
         heterogeneity — refresh the committed baseline from a recent run of this job, \
         or rerun with TREND_GATE_WARN_ONLY=1 (see the module docs for when that is expected)"
    );
    if !outcome.should_fail_build(warn_only) {
        eprintln!("trend gate: warn-only mode, not failing the build");
        return ExitCode::SUCCESS;
    }
    ExitCode::FAILURE
}
