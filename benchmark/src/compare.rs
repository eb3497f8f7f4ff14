//! `bench_e2e compare A.json B.json`: is B worse than A by more than the
//! bound, on any end-to-end metric of any workload? A and B are result
//! files written by `run --all`, best with `--repeat 10`, so that each
//! side's own run-to-run spread is known.

use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats;

/// How many more operations may fail, as a share of those attempted,
/// before the difference counts as a regression.
const FAIL_FRAC_BOUND: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound, and both sides repeat
    /// more tightly than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The difference is within the bound, but one side's own quartile
    /// spread is wider than the bound: not known to be unchanged.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better), and what that means against `bound`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if lower_is_better { change } else { -change };
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if stats::spread(a) > bound || stats::spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn values_of(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = result.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    values.get("values")?.as_array()?.iter().map(Json::as_f64).collect()
}

fn fail_frac(result: &Json, workload: &str) -> Option<f64> {
    let w = result.get("workloads")?.get(workload)?;
    let attempted = w.get("attempted")?.as_f64()?;
    Some(w.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// Prints one row per workload and end-to-end metric; returns how many
/// rows regressed and how many are unresolved.
pub fn compare(a: &Json, b: &Json) -> Result<(usize, usize), String> {
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "B spread"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let missing = |side| format!("{side} has no {} for {}", m.name, w.name);
            let va = values_of(a, w.name, m.name).ok_or_else(|| missing("A"))?;
            let vb = values_of(b, w.name, m.name).ok_or_else(|| missing("B"))?;
            if va.is_empty() || vb.is_empty() {
                return Err(missing("one side"));
            }
            let (worse, verdict) = judge(&va, &vb, m.lower_is_better, m.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<14} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}% {:>7.1}%  {} ({})",
                w.name,
                m.name,
                stats::median(&va),
                stats::median(&vb),
                worse * 100.0,
                m.bound * 100.0,
                stats::spread(&va) * 100.0,
                stats::spread(&vb) * 100.0,
                verdict.label(),
                m.unit,
            );
        }
        let (fa, fb) = (fail_frac(a, w.name).unwrap_or(0.0), fail_frac(b, w.name).unwrap_or(0.0));
        let failing = fb > fa + FAIL_FRAC_BOUND;
        regressed += usize::from(failing);
        println!(
            "{:<14} {:<12} {:>14.6} {:>14.6} {:>9} {:>7} {:>8} {:>8}  {} (failed / attempted)",
            w.name,
            "fail_frac",
            fa,
            fb,
            "",
            "+0.001",
            "",
            "",
            if failing { Verdict::Regressed.label() } else { Verdict::Ok.label() },
        );
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn within_bound_is_ok() {
        let b = [104.0, 105.0, 103.0, 104.5, 103.5];
        let (worse, verdict) = judge(&TIGHT_A, &b, true, 0.10);
        assert!((worse - 0.04).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Ok);
        // An improvement is never a regression, whatever its size.
        let faster = [50.0, 50.5, 49.5, 50.2, 49.8];
        assert_eq!(judge(&TIGHT_A, &faster, true, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_regressed_in_the_metric_s_direction() {
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(judge(&TIGHT_A, &slower, true, 0.10).1, Verdict::Regressed);
        // The same numbers as a throughput (higher is better) improved.
        assert_eq!(judge(&TIGHT_A, &slower, false, 0.10).1, Verdict::Ok);
        let fewer = [85.0, 86.0, 84.0, 85.5, 84.5];
        let (worse, verdict) = judge(&TIGHT_A, &fewer, false, 0.10);
        assert!((worse - 0.15).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regressed);
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved_not_ok() {
        let noisy = [90.0, 110.0, 100.0, 120.0, 80.0];
        assert!(stats::spread(&noisy) > 0.10);
        assert_eq!(judge(&TIGHT_A, &noisy, true, 0.10).1, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &TIGHT_A, true, 0.10).1, Verdict::Unresolved);
        // A single run per side has no spread to judge by.
        assert_eq!(judge(&[100.0], &[105.0], true, 0.10).1, Verdict::Ok);
        // A difference beyond the bound stays a regression.
        let noisy_slow = [120.0, 150.0, 135.0, 160.0, 110.0];
        assert_eq!(judge(&TIGHT_A, &noisy_slow, true, 0.10).1, Verdict::Regressed);
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |op_ms: f64, failed: u64| {
            let workloads = WORKLOADS.iter().map(|w| {
                let metrics = END_TO_END.iter().map(|m| {
                    let v = if m.name == "op_ms" { op_ms } else { 10.0 };
                    (m.name, Json::obj([("values", Json::Arr(vec![Json::from(v); 3]))]))
                });
                let fields = [
                    ("attempted", Json::from(1000u64)),
                    ("failed", Json::from(failed)),
                    ("metrics", Json::obj(metrics)),
                ];
                (w.name, Json::obj(fields))
            });
            Json::obj([("workloads", Json::obj(workloads))])
        };
        assert_eq!(compare(&file(5.0, 0), &file(5.2, 1)), Ok((0, 0)));
        assert_eq!(compare(&file(5.0, 0), &file(6.5, 0)), Ok((WORKLOADS.len(), 0)));
        assert_eq!(compare(&file(5.0, 0), &file(5.0, 2)), Ok((WORKLOADS.len(), 0)));
        assert!(compare(&file(5.0, 0), &Json::obj([("workloads", Json::Null)])).is_err());
    }
}
