//! Black-box tests for the `rwalk` binary: exit codes and stderr for
//! every rejected flag combination, plus the `--metrics-out` snapshot.
//!
//! These run the real binary (`CARGO_BIN_EXE_rwalk`), so they cover the
//! whole arg-parsing path including the exhaustive "valid values" error
//! listings from the `FromStr` impls in `twalk::config`.

use std::process::{Command, Output};

fn rwalk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rwalk")).args(args).output().expect("spawn rwalk")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn rejected_flag_combinations_fail_with_explanations() {
    // (args, substring that must appear on stderr)
    let cases: &[(&[&str], &str)] = &[
        // Unknown sampler/engine spellings list every valid value.
        (&["linkpred", "--sampler", "sofmax"], "valid values"),
        (&["linkpred", "--sampler", "sofmax"], "uniform, softmax, recency"),
        (&["linkpred", "--sampler", ""], "valid values"),
        (&["nodeclass", "--dataset", "dblp3", "--sampler", "temporal"], "unknown sampler"),
        (&["linkpred", "--engine", "batch"], "valid values"),
        (&["linkpred", "--engine", "batch"], "auto, perwalk"),
        (&["linkpred", "--engine", "gpu"], "unknown engine"),
        (&["linkpred", "--sampler-method", "vose"], "unknown sampling method"),
        (&["linkpred", "--sampler-method", "vose"], "auto, cdf, alias, rejection"),
        // The fused walk→train pipeline is gone, and its flag with it.
        (&["linkpred", "--fused", "on"], "unknown flag"),
        // Forcing a table method on a closed-form bias is a cross-flag
        // error caught at parse time, whichever order the flags come in.
        (&["linkpred", "--sampler", "uniform", "--sampler-method", "alias"], "closed form"),
        (&["linkpred", "--sampler-method", "rejection", "--sampler", "linear"], "closed form"),
        // Degenerate numeric values are rejected with the flag named.
        (&["linkpred", "--scale", "0"], "--scale"),
        (&["linkpred", "--scale", "-1"], "--scale"),
        (&["linkpred", "--scale", "NaN"], "--scale"),
        (&["linkpred", "--scale", "x"], "--scale"),
        (&["linkpred", "--walks", "0"], "--walks"),
        (&["linkpred", "--len", "0"], "--len"),
        (&["linkpred", "--dim", "0"], "--dim"),
        (&["linkpred", "--walks", "-3"], "--walks"),
        // The micro-batcher is gone, and its flags with it.
        (&["serve", "--max-batch", "64"], "unknown flag"),
        (&["serve", "--max-wait-us", "200"], "unknown flag"),
        (&["serve", "--refresh-ms", "0"], "--refresh-ms"),
        // Reactor transport flags.
        (&["serve", "--io", "uring"], "valid values: blocking, reactor"),
        (&["serve", "--io", ""], "--io"),
        (&["serve", "--io"], "--io needs a value"),
        (&["serve", "--shard-budget", "0"], "--shard-budget"),
        (&["serve", "--max-conns", "0"], "--max-conns"),
        (&["serve", "--idle-timeout-ms", "0"], "--idle-timeout-ms"),
        (&["serve", "--shards", "-1"], "--shards"),
        // Structural errors.
        (&["linkpred", "--no-such-flag"], "unknown flag"),
        (&["linkpred", "--sampler"], "--sampler needs a value"),
        (&["linkpred", "--metrics-out"], "--metrics-out needs a value"),
        (&["frobnicate"], "unknown command"),
        (&["linkpred", "--dataset", "no-such-dataset", "--scale", "0.05"], "unknown dataset"),
        (&["nodeclass", "--dataset", "ia-email", "--scale", "0.05"], "no labels"),
        // Store flags: conflicting sources, missing outputs, missing files.
        (&["serve", "--wel", "edges.wel", "--graph-store", "g.rws"], "mutually exclusive"),
        (&["pack", "--dataset", "ia-email"], "pack needs at least one output"),
        (&["pack", "--graph-store", "g.rws", "--graph-out", "o.rws"], "not a pack input"),
        (&["linkpred", "--graph-store", "/no/such/graph.rws"], "--graph-store /no/such/graph.rws"),
        (
            &["serve", "--snapshot", "/no/such/model.rws", "--smoke"],
            "--snapshot /no/such/model.rws",
        ),
        (&["nodeclass", "--graph-store", "g.rws"], "holds no labels"),
        (&["inspect"], "usage: rwalk inspect FILE"),
        (&["inspect", "a.rws", "b.rws"], "usage: rwalk inspect FILE"),
    ];
    for (args, needle) in cases {
        let out = rwalk(args);
        assert!(!out.status.success(), "rwalk {args:?} unexpectedly succeeded");
        let err = stderr(&out);
        assert!(err.contains(needle), "rwalk {args:?}: stderr {err:?} missing {needle:?}");
    }

    // No arguments at all prints usage and fails.
    let out = rwalk(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn store_paths_that_are_not_valid_store_files_are_rejected() {
    let dir = std::env::temp_dir().join(format!("rwalk-badstore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap().to_owned();

    // A directory is not a store file: rejected up front, not mmapped.
    let out = rwalk(&["inspect", &dir_s]);
    assert!(!out.status.success(), "inspect on a directory succeeded");
    assert!(stderr(&out).contains(&format!("inspect {dir_s}")), "{}", stderr(&out));

    // A file with the wrong magic is rejected with the bytes named.
    let garbage = dir.join("garbage.rws");
    std::fs::write(&garbage, b"not a store file at all, sorry. ".repeat(4)).unwrap();
    let garbage_s = garbage.to_str().unwrap();
    for args in [
        vec!["inspect", garbage_s],
        vec!["linkpred", "--graph-store", garbage_s],
        vec!["serve", "--snapshot", garbage_s, "--smoke"],
    ] {
        let out = rwalk(&args);
        assert!(!out.status.success(), "rwalk {args:?} accepted garbage");
        assert!(stderr(&out).contains("not a store file"), "rwalk {args:?}: {}", stderr(&out));
    }

    // A truncated-but-magic-prefixed file fails the structural checks.
    let truncated = dir.join("truncated.rws");
    std::fs::write(&truncated, b"RWSTORE\0only a header fragment").unwrap();
    let out = rwalk(&["inspect", truncated.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("truncated"), "{}", stderr(&out));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn accepted_spellings_are_case_and_separator_insensitive() {
    // `datasets` runs no pipeline, so this stays fast while still going
    // through the same Options::parse path.
    for args in [
        ["datasets", "--sampler", "SOFTMAX"],
        ["datasets", "--sampler", "linear_time"],
        ["datasets", "--engine", "Per_Walk"],
        ["datasets", "--engine", "BATCHED"],
        ["datasets", "--engine", "Interleaved"],
        ["datasets", "--sampler-method", "ALIAS"],
        ["datasets", "--sampler-method", " Rejection "],
    ] {
        let out = rwalk(&args);
        assert!(out.status.success(), "rwalk {args:?} failed: {}", stderr(&out));
    }
}

#[test]
fn metrics_out_snapshot_has_all_pipeline_phases() {
    let dir = std::env::temp_dir().join(format!("rwalk-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let path_s = path.to_str().unwrap();

    let out = rwalk(&[
        "linkpred",
        "--dataset",
        "ia-email",
        "--scale",
        "0.05",
        "--walks",
        "2",
        "--len",
        "4",
        "--dim",
        "4",
        "--metrics-out",
        path_s,
    ]);
    assert!(
        out.status.success(),
        "linkpred failed: {}\n{}",
        stderr(&out),
        String::from_utf8_lossy(&out.stdout)
    );

    let text = std::fs::read_to_string(&path).expect("snapshot written");
    let v = rwserve::json::Json::parse(&text).expect("snapshot is valid JSON");
    let histograms = v.get("histograms").expect("histograms section");
    for phase in ["rw_p1_walk", "rw_p2_word2vec", "rw_p3_train", "rw_p4_test"] {
        let name = format!("pipeline_phase_ns{{phase=\"{phase}\"}}");
        let h = histograms.get(&name).unwrap_or_else(|| panic!("missing {name} in {text}"));
        let sum = h.get("sum").and_then(rwserve::json::Json::as_f64).unwrap();
        assert!(sum > 0.0, "phase {phase} recorded zero duration: {text}");
        assert_eq!(h.get("count").and_then(rwserve::json::Json::as_u64), Some(1), "{name}");
    }
    // Both layers of the link classifier timed their forward GEMM.
    for layer in 0..2 {
        let name = format!("nn_gemm_ns{{layer=\"{layer}\"}}");
        let h = histograms.get(&name).unwrap_or_else(|| panic!("missing {name} in {text}"));
        let count = h.get("count").and_then(rwserve::json::Json::as_u64).unwrap();
        assert!(count > 0, "{name} recorded nothing: {text}");
    }
    // The walk engine's own counters rode along.
    let counters = v.get("counters").expect("counters section");
    let walks = counters.get("twalk_walks_total").and_then(rwserve::json::Json::as_u64).unwrap();
    assert!(walks > 0, "no walks counted: {text}");
    // word2vec's counters: a step is one (context, target) score, and a
    // negative-table draw happens once per centre, shared by its window.
    let counter = |name: &str| {
        counters.get(name).and_then(rwserve::json::Json::as_u64).unwrap_or_else(|| {
            panic!("missing {name} in {text}");
        })
    };
    let steps = counter("embed_grad_steps_total");
    let draws = counter("embed_negative_draws_total");
    assert!(steps > 0, "no gradient steps counted: {text}");
    assert!(0 < draws && draws < steps, "draws {draws} vs steps {steps}: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn without_metrics_out_no_snapshot_is_written_and_runs_succeed() {
    let out = rwalk(&["datasets", "--scale", "0.05"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("metrics snapshot"));
}
