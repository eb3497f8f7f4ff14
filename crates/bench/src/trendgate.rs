//! Perf-trend gate logic, factored out of the `trend_gate` binary so the
//! gating rules are unit-testable over synthetic `BENCH_rwalk.json` rows
//! (the binary stays a thin argv/exit-code wrapper).
//!
//! See the binary's module docs for the operational policy (baseline
//! provenance, runner heterogeneity, when warn-only is expected).

use std::collections::BTreeMap;

use rwserve::json::Json;

/// Bench-row prefixes under trend protection.
pub const TRACKED: [&str; 2] = ["serve/loadgen/closed/", "rwalk/walks/"];

/// Default regression threshold (percent) when none is configured.
pub const DEFAULT_MAX_PCT: f64 = 25.0;

/// One parsed JSON-lines row, keyed by bench id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub min_ns: u64,
    pub max_ns: u64,
}

impl Row {
    /// The gated metric: p99 for percentile rows, min-of-N otherwise.
    pub fn metric(&self, id: &str) -> (u64, &'static str) {
        if id.contains("p50_p95_p99") {
            (self.max_ns, "p99")
        } else {
            (self.min_ns, "min")
        }
    }
}

/// Parses JSON-lines bench capture text into rows keyed by bench id.
/// Last write wins, matching append-only capture files.
///
/// # Errors
///
/// A malformed line (bad JSON, missing `bench`/`min_ns`/`max_ns`) is
/// reported with its 1-based line number.
pub fn parse_rows(text: &str) -> Result<BTreeMap<String, Row>, String> {
    let mut rows = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: bad JSON: {e}", n + 1))?;
        let field = |k: &str| {
            v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("line {}: missing {k}", n + 1))
        };
        let id = v
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing bench id", n + 1))?
            .to_owned();
        rows.insert(id, Row { min_ns: field("min_ns")?, max_ns: field("max_ns")? });
    }
    Ok(rows)
}

/// One tracked row present in both captures.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub id: String,
    /// Which statistic was gated ("p99" or "min").
    pub which: &'static str,
    pub base_ns: u64,
    pub fresh_ns: u64,
    pub delta_pct: f64,
    pub regressed: bool,
}

/// The gate's verdict over two captures.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Tracked rows present on both sides, in bench-id order.
    pub compared: Vec<Comparison>,
    /// Tracked fresh rows with no baseline (reported, never gated).
    pub new_rows: Vec<String>,
    /// Tracked baseline rows missing from the fresh run (reported, never
    /// gated).
    pub gone_rows: Vec<String>,
}

impl Outcome {
    /// Rows whose delta exceeded the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &Comparison> {
        self.compared.iter().filter(|c| c.regressed)
    }

    /// Whether the gate should fail the build (ignoring warn-only mode).
    pub fn failed(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// The process exit decision: regressions fail the build unless
    /// warn-only mode downgrades them to a report.
    pub fn should_fail_build(&self, warn_only: bool) -> bool {
        self.failed() && !warn_only
    }
}

/// Applies the gating rules: tracked rows compared by their gated metric
/// against `max_pct`; rows present on only one side are reported but
/// never gated.
pub fn evaluate(
    baseline: &BTreeMap<String, Row>,
    fresh: &BTreeMap<String, Row>,
    max_pct: f64,
) -> Outcome {
    let tracked = |id: &str| TRACKED.iter().any(|p| id.starts_with(p));
    let mut outcome = Outcome { compared: Vec::new(), new_rows: Vec::new(), gone_rows: Vec::new() };
    for (id, fresh_row) in fresh {
        if !tracked(id) {
            continue;
        }
        let Some(base_row) = baseline.get(id) else {
            outcome.new_rows.push(id.clone());
            continue;
        };
        let (base_ns, which) = base_row.metric(id);
        let (fresh_ns, _) = fresh_row.metric(id);
        let delta_pct = (fresh_ns as f64 / base_ns.max(1) as f64 - 1.0) * 100.0;
        outcome.compared.push(Comparison {
            id: id.clone(),
            which,
            base_ns,
            fresh_ns,
            delta_pct,
            regressed: delta_pct > max_pct,
        });
    }
    for id in baseline.keys() {
        if tracked(id) && !fresh.contains_key(id) {
            outcome.gone_rows.push(id.clone());
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capture(rows: &[(&str, u64, u64)]) -> BTreeMap<String, Row> {
        rows.iter().map(|&(id, min_ns, max_ns)| (id.to_string(), Row { min_ns, max_ns })).collect()
    }

    #[test]
    fn regression_beyond_threshold_fires() {
        let baseline = capture(&[("rwalk/walks/pa150k", 100_000, 200_000)]);
        // +26% on the min-of-N statistic: just past the 25% gate.
        let fresh = capture(&[("rwalk/walks/pa150k", 126_000, 130_000)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(outcome.failed());
        let r: Vec<_> = outcome.regressions().collect();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, "rwalk/walks/pa150k");
        assert_eq!(r[0].which, "min");
        assert!((r[0].delta_pct - 26.0).abs() < 1e-9);
    }

    #[test]
    fn regression_within_threshold_passes() {
        let baseline = capture(&[("rwalk/walks/pa150k", 100_000, 0)]);
        let fresh = capture(&[("rwalk/walks/pa150k", 124_000, 0)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(!outcome.failed());
        assert_eq!(outcome.compared.len(), 1);
        assert!(!outcome.compared[0].regressed);
    }

    #[test]
    fn percentile_rows_gate_on_p99_not_min() {
        // min improves but p99 blows up: the latency row must gate on p99.
        let baseline = capture(&[("serve/loadgen/closed/p50_p95_p99", 1_000, 10_000)]);
        let fresh = capture(&[("serve/loadgen/closed/p50_p95_p99", 500, 20_000)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(outcome.failed());
        let r: Vec<_> = outcome.regressions().collect();
        assert_eq!(r[0].which, "p99");
        assert_eq!(r[0].base_ns, 10_000);
        assert_eq!(r[0].fresh_ns, 20_000);
        // And the inverse: p99 steady, min regressed — not gated.
        let fresh = capture(&[("serve/loadgen/closed/p50_p95_p99", 50_000, 10_500)]);
        assert!(!evaluate(&baseline, &fresh, DEFAULT_MAX_PCT).failed());
    }

    #[test]
    fn new_and_gone_rows_are_reported_but_never_gated() {
        let baseline = capture(&[("rwalk/walks/gone_bench", 100, 100)]);
        let fresh = capture(&[("rwalk/walks/new_bench", 1_000_000, 1_000_000)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(!outcome.failed(), "one-sided rows must not gate");
        assert_eq!(outcome.new_rows, vec!["rwalk/walks/new_bench"]);
        assert_eq!(outcome.gone_rows, vec!["rwalk/walks/gone_bench"]);
        assert!(outcome.compared.is_empty());
    }

    #[test]
    fn untracked_rows_are_ignored_entirely() {
        let baseline = capture(&[("w2v/train/epoch", 100, 100)]);
        let fresh = capture(&[("w2v/train/epoch", 100_000, 100_000)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(!outcome.failed());
        assert!(outcome.compared.is_empty());
        assert!(outcome.new_rows.is_empty());
        assert!(outcome.gone_rows.is_empty());
    }

    #[test]
    fn custom_threshold_is_respected() {
        let baseline = capture(&[("rwalk/walks/pa150k", 100_000, 0)]);
        let fresh = capture(&[("rwalk/walks/pa150k", 110_000, 0)]);
        assert!(evaluate(&baseline, &fresh, 5.0).failed());
        assert!(!evaluate(&baseline, &fresh, 15.0).failed());
    }

    #[test]
    fn warn_only_downgrades_regressions_to_reports() {
        let baseline = capture(&[("rwalk/walks/pa150k", 100_000, 0)]);
        let fresh = capture(&[("rwalk/walks/pa150k", 200_000, 0)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(outcome.failed(), "the regression is still detected and reported");
        assert!(outcome.should_fail_build(false));
        assert!(!outcome.should_fail_build(true), "warn-only must not fail the build");
        // A clean run never fails, warn-only or not.
        let clean = evaluate(&baseline, &baseline, DEFAULT_MAX_PCT);
        assert!(!clean.should_fail_build(false));
        assert!(!clean.should_fail_build(true));
    }

    #[test]
    fn parse_rows_handles_json_lines() {
        let text = concat!(
            r#"{"bench":"rwalk/walks/a","min_ns":10,"max_ns":20}"#,
            "\n\n",
            r#"{"bench":"rwalk/walks/a","min_ns":30,"max_ns":40}"#,
            "\n",
            r#"{"bench":"other","min_ns":1,"max_ns":2}"#,
            "\n",
        );
        let rows = parse_rows(text).expect("parse");
        assert_eq!(rows.len(), 2);
        // Last write wins for duplicate ids.
        assert_eq!(rows["rwalk/walks/a"].min_ns, 30);
        assert_eq!(rows["rwalk/walks/a"].max_ns, 40);
    }

    #[test]
    fn parse_rows_reports_malformed_lines() {
        assert!(parse_rows("{oops").unwrap_err().contains("line 1"));
        let missing = r#"{"bench":"x","min_ns":1}"#;
        assert!(parse_rows(missing).unwrap_err().contains("missing max_ns"));
        let no_id = r#"{"min_ns":1,"max_ns":2}"#;
        assert!(parse_rows(no_id).unwrap_err().contains("missing bench id"));
    }

    #[test]
    fn zero_baseline_does_not_divide_by_zero() {
        let baseline = capture(&[("rwalk/walks/x", 0, 0)]);
        let fresh = capture(&[("rwalk/walks/x", 1_000, 0)]);
        let outcome = evaluate(&baseline, &fresh, DEFAULT_MAX_PCT);
        assert!(outcome.compared[0].delta_pct.is_finite());
        assert!(outcome.failed());
    }
}
