//! `bench_e2e`: one end-to-end, layer-attributed benchmark for the offline
//! pipeline and the server. See `benchmark/README.md`.
//!
//! ```text
//! bench_e2e [run] --workload NAME --seed N --seconds S --trace 0|1   one workload, one process
//! bench_e2e run --all [--repeat N] [--trace 1] [--out FILE]           every workload, a process each
//! bench_e2e run --smoke                                               all five at 1/50 size
//! bench_e2e compare A.json B.json                                     is B worse than A?
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod offline;
mod rng;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{RunOutput, END_TO_END, WORKLOADS};
use trace::Tracer;

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 12.0;

/// What one run of one workload is asked to do.
pub struct RunConfig {
    /// Feeds the input generators and nothing else.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// `--smoke`: inputs at 1/50 size, floors to match.
    pub smoke: bool,
}

impl RunConfig {
    /// An input size, cut to 1/50 in a smoke run.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            n / 50
        } else {
            n
        }
    }
}

struct Args {
    command: String,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    all: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        all: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut it = raw.iter().peekable();
    if let Some(first) = it.next_if(|a| !a.starts_with("--")) {
        args.command = first.clone();
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            // `--trace 0|1` as the driver writes it; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.next_if(|v| *v == "0" || *v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--repeat" => {
                args.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            file if !file.starts_with("--") && args.command == "compare" => {
                args.files.push(file.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`, where result, trace and snapshot files go: inside the
/// checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn run_workload(name: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Option<RunOutput> {
    Some(match name {
        "walk.pa150k" => offline::run_walk(cfg, tracer),
        "lp.pa10k" => offline::run_link_prediction(cfg, tracer),
        "nc.sbm36k" => offline::run_node_classification(cfg, tracer),
        "serve.read" => serve::run_serve(cfg, tracer, name, serve::READ_MIX),
        "serve.ingest" => serve::run_serve(cfg, tracer, name, serve::INGEST_MIX),
        _ => return None,
    })
}

/// Runs one workload in this process and prints its result; the last line
/// of stdout is the JSON object the driver reads.
fn run_one(name: &str, cfg: &RunConfig, traced: bool) -> ExitCode {
    let mut tracer = Tracer::new(traced);
    let Some(out) = run_workload(name, cfg, &mut tracer) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: unknown workload {name}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let peak_rss_mb = host::peak_rss_mb();
    println!(
        "{name}: seed {}, {} s, {}{}",
        cfg.seed,
        cfg.seconds,
        if traced { "traced" } else { "untraced" },
        if cfg.smoke { ", smoke size" } else { "" }
    );
    println!("host: {}", host::fingerprint(cfg.seed, cfg.seconds));
    if host::degraded() {
        println!(
            "DEGRADED: fewer than 2 logical CPUs; overlap and the two-connection client assume two"
        );
    }
    for m in out.reported(traced, peak_rss_mb) {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        println!("  {:<24} {:>18.6} {:<9} ({better} is better)", m.name, m.value, m.unit);
    }
    println!("  operations: {} attempted, {} failed", out.attempted, out.failed);
    for note in &out.notes {
        println!("  {note}");
    }
    for problem in &out.problems {
        println!("  CHECK FAILED: {problem}");
    }
    if traced {
        let layers = trace::layer_self_times(tracer.spans());
        let total: u64 = layers.values().sum();
        println!("  self time by layer, set-up included ({} spans):", tracer.spans().len());
        for (layer, ns) in &layers {
            let share = *ns as f64 / total.max(1) as f64 * 100.0;
            println!("    {layer:<8} {:>10.4} s {share:>6.1} %", *ns as f64 / 1e9);
        }
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  could not write {}: {e}", path.display()),
        }
    }
    println!("{}", out.result_line(traced, peak_rss_mb));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The values one workload's runs reported, per metric.
struct Collected {
    runs: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<String, (String, Vec<f64>)>,
}

impl Collected {
    fn new() -> Self {
        Self { runs: 0, attempted: 0, failed: 0, correct: true, metrics: BTreeMap::new() }
    }

    fn absorb(&mut self, line: &Json) {
        self.runs += 1;
        self.attempted += line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        self.failed += line.get("failed").and_then(Json::as_u64).unwrap_or(0);
        self.correct &= line.get("correct") == Some(&Json::Bool(true));
        for (name, m) in line.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            self.metrics.entry(name.clone()).or_insert((unit, Vec::new())).1.push(value);
        }
    }

    fn median(&self, metric: &str) -> Option<f64> {
        self.metrics.get(metric).map(|(_, values)| stats::median(values))
    }

    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, (unit, values))| {
            let [q1, _, q3] = stats::quartiles(values);
            let fields = [
                ("unit", Json::from(unit.as_str())),
                ("median", Json::from(stats::median(values))),
                ("q1", Json::from(q1)),
                ("q3", Json::from(q3)),
                ("spread", Json::from(stats::spread(values))),
                ("values", Json::Arr(values.iter().map(|&v| Json::from(v)).collect())),
            ];
            (name.clone(), Json::obj(fields))
        });
        Json::obj([
            ("runs", Json::from(self.runs)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs `bench_e2e run --workload ...` as a process of its own, so that
/// peak memory is the workload's and no allocator state is carried from
/// one workload to the next. Returns the parsed result line.
fn run_child(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("path of this program");
    let mut command = Command::new(exe);
    command.args(["run", "--workload", name, "--seed", &seed.to_string()]);
    command.args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
    let output = output.expect("start a child of this program");
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let line = Json::parse(text.lines().last()?).ok()?;
    if !output.status.success() {
        println!("{name}: child exited with {}", output.status);
    }
    Some(line)
}

/// `run --all` and `run --smoke`: every workload, `repeat` times with
/// seeds `seed, seed + 1, ...`; with `--trace`, a traced pass after each
/// untraced one (a smoke run always makes both, since some checks run only
/// traced). Writes one result file.
fn run_all(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
    let trace = args.trace || args.smoke;
    let mut workloads = Vec::new();
    let mut overheads = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        println!("\n== {}: {}", w.name, w.why);
        let mut untraced = Collected::new();
        let mut traced = Collected::new();
        for rep in 0..args.repeat as u64 {
            let seed = args.seed + rep;
            match run_child(w.name, seed, seconds, false, args.smoke) {
                Some(line) => untraced.absorb(&line),
                None => untraced.correct = false,
            }
            if trace {
                match run_child(w.name, seed, seconds, true, args.smoke) {
                    Some(line) => traced.absorb(&line),
                    None => traced.correct = false,
                }
            }
        }
        all_correct &= untraced.correct && traced.correct;
        let mut entry = untraced.to_json();
        if let (Json::Obj(fields), true) = (&mut entry, trace) {
            fields.push(("layers".to_string(), traced.to_json()));
            // Tracing overhead: the same operation timed in the traced pass
            // against the untraced one.
            if let (Some(t), Some(u)) = (traced.median("bench.op_ms"), untraced.median("op_ms")) {
                overheads.push((w.name, Json::from(t / u - 1.0)));
            }
        }
        workloads.push((w.name, entry));
    }

    println!("\n{:<14} {:<12} {:>16} {:>9}  unit", "workload", "metric", "median", "spread");
    for (name, entry) in &workloads {
        for m in &END_TO_END {
            let v = entry.get("metrics").and_then(|x| x.get(m.name));
            let get = |k| v.and_then(|v| v.get(k)).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (median, spread) = (get("median"), get("spread") * 100.0);
            println!("{name:<14} {:<12} {median:>16.4} {spread:>8.1}%  {}", m.name, m.unit);
        }
    }
    for (name, overhead) in &overheads {
        println!("{name:<14} trace_overhead_frac {overhead}");
    }

    let result = Json::obj([
        ("fingerprint", host::fingerprint(args.seed, seconds)),
        (
            "constants",
            Json::obj([
                ("offline_setup_repeats", Json::from(offline::SETUP_REPEATS as u64)),
                ("walk_warmup_passes", Json::from(offline::WALK_WARMUP_PASSES as u64)),
                ("serve", serve::constants()),
            ]),
        ),
        ("repeat", Json::from(args.repeat as u64)),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
        ("trace_overhead_frac", Json::obj(overheads)),
        // This benchmark claims no gain; its numbers are the baseline.
        ("claim", Json::Null),
    ]);
    let path = args.out.clone().unwrap_or_else(|| out_dir().join("result.json"));
    match std::fs::write(&path, format!("{result}\n")) {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("at least one run failed its checks");
        ExitCode::FAILURE
    }
}

fn run_compare(files: &[String]) -> ExitCode {
    let [a, b] = files else {
        eprintln!("usage: bench_e2e compare A.json B.json");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match read(a).and_then(|a| read(b).and_then(|b| compare::compare(&a, &b))) {
        Ok((0, _)) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), &args.workload) {
        ("compare", _) => run_compare(&args.files),
        ("run", _) if args.all || (args.smoke && args.workload.is_none()) => run_all(&args),
        ("run", Some(name)) => {
            let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
            let cfg = RunConfig { seed: args.seed, seconds, smoke: args.smoke };
            run_one(name, &cfg, args.trace)
        }
        ("run", None) => {
            eprintln!("error: give --workload NAME, --all or --smoke");
            ExitCode::from(2)
        }
        (other, _) => {
            eprintln!("error: unknown command {other}; use run or compare");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_flags_parse_with_and_without_the_run_word() {
        for prefix in [&["run"][..], &[][..]] {
            let mut argv = prefix.to_vec();
            argv.extend([
                "--workload",
                "lp.pa10k",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]);
            let a = parse(&argv).unwrap();
            assert_eq!(a.command, "run");
            assert_eq!(a.workload.as_deref(), Some("lp.pa10k"));
            assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        }
        assert!(!parse(&["--workload", "x", "--trace", "0"]).unwrap().trace);
        // A bare `--trace` is `--trace 1` and does not swallow the next flag.
        let a = parse(&["run", "--all", "--trace", "--repeat", "3"]).unwrap();
        assert!(a.all && a.trace && a.repeat == 3);
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "61"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["run", "stray"]).is_err());
        let a = parse(&["compare", "a.json", "b.json"]).unwrap();
        assert_eq!(a.files, ["a.json", "b.json"]);
    }
}
