//! The benchmark's vocabulary: workloads, metrics, and the result of one
//! run. `BENCHMARK.json` lists the same names; a test holds the two equal.

use std::collections::BTreeMap;

use crate::json::Json;

/// Worker threads given to every pipeline and to the server's scans: the
/// sandbox has two cores, and both sides of a later A/B must use the same.
pub const THREADS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "walk.pa150k",
        why: "Walks only, on a 150k-node graph whose CSR (~11 MB) exceeds L2: twalk does all the work, so embed, nn and serve changes must show nothing here.",
    },
    Workload {
        name: "lp.pa10k",
        why: "Link prediction at the paper's headline shape: classifier training dominates (nn ~86 %), and the corpus is below the fusion floor, so the sequential trainer runs.",
    },
    Workload {
        name: "nc.sbm36k",
        why: "Node classification on a dense graph: long walks make embed dominate, and 2.16 M tokens cross the fusion floor, so the fused streaming path runs.",
    },
    Workload {
        name: "serve.read",
        why: "Reactor server on a 10k-node model, link_score 90 / topk 10 with Zipf keys, paced then saturated: serve does all the work, and the idle refresher must publish nothing.",
    },
    Workload {
        name: "serve.ingest",
        why: "Same server with 25 % ingest beside the reads: incremental refresh and snapshot swaps compete with the read path on two cores.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one.
///
/// The bounds are the widest the driver allows. Across ten runs with ten
/// seeds on the 2-CPU sandbox each metric has a workload whose quartile
/// spread is 6-15 % (noisy spells of the host that outlast a run; two
/// allocator-dependent modes of `peak_rss_mb` on `serve.ingest`), and a
/// bound has to hold about three times the spread.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", lower_is_better: true, bound: 0.25 },
    EndToEnd { name: "op_ms", unit: "ms", lower_is_better: true, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", lower_is_better: false, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", lower_is_better: true, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str, lower_is_better: bool) -> PerLayer {
    PerLayer { name, unit, lower_is_better }
}

/// Single-layer metrics, reported by a traced run. A layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: [PerLayer; 38] = [
    layer("bench.op_ms", "ms", true),
    layer("tgraph.build_s", "s", true),
    layer("tgraph.edges_per_s", "edges/s", false),
    layer("twalk.walk_s", "s", true),
    layer("twalk.hops", "count", false),
    layer("twalk.ns_per_hop", "ns/hop", true),
    layer("twalk.self_frac", "ratio", false),
    layer("embed.p12_s", "s", true),
    layer("embed.train_s", "s", true),
    layer("embed.tokens", "count", false),
    layer("embed.tokens_per_s", "tokens/s", false),
    layer("embed.fused", "count", false),
    layer("embed.self_frac", "ratio", false),
    layer("dataprep.prep_s", "s", true),
    layer("nn.train_s", "s", true),
    layer("nn.epochs", "count", false),
    layer("nn.s_per_epoch", "s", true),
    layer("nn.test_s", "s", true),
    layer("nn.self_frac", "ratio", false),
    layer("core.unattributed_frac", "ratio", true),
    layer("core.quality", "ratio", false),
    layer("core.refresh_s", "s", true),
    layer("core.refresh_dirty", "count", false),
    layer("store.pack_s", "s", true),
    layer("store.open_s", "s", true),
    layer("store.bytes", "bytes", true),
    layer("serve.parse_ns", "ns", true),
    layer("serve.respond_ns", "ns", true),
    layer("serve.transport_us", "us", true),
    layer("serve.paced_p50_us", "us", true),
    layer("serve.paced_p99_us", "us", true),
    layer("serve.req_per_s", "req/s", false),
    layer("serve.batches", "count", false),
    layer("serve.mean_batch", "count", false),
    layer("serve.shed", "count", true),
    layer("serve.refreshes", "count", false),
    layer("gen.late_frac", "ratio", true),
    layer("gen.max_late_us", "us", true),
];

/// One metric as a run reports it.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub value: f64,
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations tried: iterations of the top-level call, or requests sent.
    pub attempted: u64,
    /// Operations whose output check failed, or that got no valid reply.
    pub failed: u64,
    /// Failed checks that are not tied to one operation.
    pub problems: Vec<String>,
    pub setup_s: f64,
    pub op_ms: f64,
    pub ops_per_s: f64,
    /// Per-layer metrics by name; names absent here are reported as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the reader: sample counts, quartiles, what was checked.
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    fn end_to_end_value(&self, name: &str, peak_rss_mb: f64) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "op_ms" => self.op_ms,
            "ops_per_s" => self.ops_per_s,
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("end-to-end metric {other} has no source"),
        }
    }

    /// Each metric this run reports: the end-to-end ones untraced, the
    /// per-layer ones traced.
    pub fn reported(&self, traced: bool, peak_rss_mb: f64) -> Vec<Reported> {
        let one =
            |name, unit, lower_is_better, value| Reported { name, unit, lower_is_better, value };
        if traced {
            let value = |name| self.layers.get(name).copied().unwrap_or(0.0);
            PER_LAYER
                .iter()
                .map(|m| one(m.name, m.unit, m.lower_is_better, value(m.name)))
                .collect()
        } else {
            let value = |name| self.end_to_end_value(name, peak_rss_mb);
            END_TO_END
                .iter()
                .map(|m| one(m.name, m.unit, m.lower_is_better, value(m.name)))
                .collect()
        }
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn result_line(&self, traced: bool, peak_rss_mb: f64) -> Json {
        let metrics = self.reported(traced, peak_rss_mb).into_iter().map(|m| {
            (m.name, Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_compiled_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let b = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = b.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = b.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{} why too long", w.name);
        }

        let better = |lower: bool| if lower { "lower" } else { "higher" };
        let e2e = b.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), better(m.lower_is_better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers = b.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), better(m.lower_is_better));
        }

        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput { attempted: 3, op_ms: 1.5, ..RunOutput::default() };
        out.set("twalk.hops", 9.0);
        let line = out.result_line(false, 12.5);
        let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[3].1.get("value").and_then(Json::as_f64), Some(12.5));
        let traced = out.result_line(true, 12.5);
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(metrics.as_object().unwrap().len(), PER_LAYER.len());
        assert_eq!(metrics.get("twalk.hops").unwrap().get("value").unwrap().as_f64(), Some(9.0));
        assert_eq!(metrics.get("nn.train_s").unwrap().get("value").unwrap().as_f64(), Some(0.0));
        out.problems.push("bad".into());
        assert_eq!(out.result_line(false, 1.0).get("correct"), Some(&Json::Bool(false)));
    }
}
