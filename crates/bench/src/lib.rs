//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary accepts `--scale <f64>` (default 1.0) to grow or shrink
//! the workload; the defaults are laptop-sized. Binaries print
//! markdown-ish tables whose rows correspond to the series in the paper's
//! figures and tables, so `cargo run -p rwalk-bench --bin fig05_w2v_batching`
//! regenerates the Fig. 5 data.

use std::time::{Duration, Instant};

/// Parses `--scale` from the process arguments (default `1.0`).
///
/// # Panics
///
/// Panics if the value is present but not a positive number.
pub fn arg_scale() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--scale" {
            let s: f64 = w[1].parse().expect("--scale must be a number");
            assert!(s > 0.0, "--scale must be positive");
            return s;
        }
    }
    1.0
}

/// Prints the experiment banner.
pub fn banner(id: &str, paper_ref: &str, what: &str) {
    println!("== {id} — {paper_ref} ==");
    println!("{what}");
    println!();
}

/// Times one closure invocation.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Formats a duration in seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Best-of-`n` timing to damp scheduler noise in kernel measurements.
pub fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(n >= 1, "need at least one run");
    let (mut out, mut best) = time_it(&mut f);
    for _ in 1..n {
        let (o, d) = time_it(&mut f);
        if d < best {
            best = d;
            out = o;
        }
    }
    (out, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_value_and_positive_time() {
        let (v, d) = time_it(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn best_of_keeps_minimum() {
        let mut calls = 0;
        let (_, d) = best_of(3, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(calls, 3);
        assert!(d >= Duration::from_millis(1));
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }
}
