//! The three offline workloads: walks only, link prediction, node
//! classification. Each times its top-level `Pipeline` call; a traced run
//! also times the pipeline's prefixes, so each layer's self time follows.

use std::time::{Duration, Instant};

use rwalk_core::{Hyperparams, Pipeline, TaskReport};
use tgraph::TemporalGraph;

use crate::metrics::{RunOutput, THREADS};
use crate::stats;
use crate::trace::{layer_self_times, Tracer};
use crate::RunConfig;

/// How often set-up is repeated, so `setup_s` is a median and not one draw.
pub const SETUP_REPEATS: usize = 5;
/// Walk passes run before timing starts: the first ones fault in the
/// output matrix and the sampler tables.
pub const WALK_WARMUP_PASSES: usize = 2;

/// Library defaults (engine, sampler and fusion all `Auto`) on two threads.
/// The library's own seed stays fixed; `--seed` feeds only the generators.
pub fn hyperparams() -> Hyperparams {
    Hyperparams::paper_optimal().with_threads(THREADS)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `build` `repeats` times, keeps the last product, and returns it
/// with the median build time in seconds. Each product is dropped, untimed,
/// before the next is built, so peak memory holds one copy.
pub fn repeat_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..repeats {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(secs(t0.elapsed()));
    }
    (last.expect("set-up ran"), stats::median(&times))
}

/// [`repeat_setup`] for a generated graph, inside a `tgraph` span.
fn repeat_graph_setup<T>(tracer: &mut Tracer, mut build: impl FnMut() -> (T, u64)) -> (T, f64) {
    repeat_setup(SETUP_REPEATS, || tracer.span(None, "tgraph", "generate+build", &mut build))
}

fn set_graph_layers(out: &mut RunOutput, g: &TemporalGraph, build_s: f64) {
    out.setup_s = build_s;
    out.set("tgraph.build_s", build_s);
    out.set("tgraph.edges_per_s", g.num_edges() as f64 / build_s);
}

/// Fills the end-to-end timing fields from per-operation samples.
fn set_timings(out: &mut RunOutput, samples: &[f64]) {
    let [q1, q2, q3] = if samples.len() >= 2 { stats::quartiles(samples) } else { [samples[0]; 3] };
    out.op_ms = stats::median(samples) * 1e3;
    out.ops_per_s = samples.len() as f64 / samples.iter().sum::<f64>();
    out.set("bench.op_ms", out.op_ms);
    out.notes
        .push(format!("{} operations; quartiles {q1:.4} / {q2:.4} / {q3:.4} s", samples.len()));
}

/// True when every consecutive pair of `walk` is an edge of `g` and the
/// edge times can be chosen strictly increasing. Taking the earliest
/// admissible edge at each hop is enough: it leaves the most room for the
/// hops that follow.
fn temporally_valid(g: &TemporalGraph, walk: &[tgraph::NodeId]) -> bool {
    let mut last = f64::NEG_INFINITY;
    walk.windows(2).all(|pair| {
        let (dsts, times) = g.neighbors_after(pair[0], last);
        match dsts.iter().position(|&d| d == pair[1]) {
            Some(i) => {
                last = times[i];
                true
            }
            None => false,
        }
    })
}

/// `walk.pa150k`: `Pipeline::walks` over a preferential-attachment graph.
pub fn run_walk(cfg: &RunConfig, tracer: &mut Tracer) -> RunOutput {
    let nodes = cfg.scaled(150_000);
    let mut out = RunOutput::default();
    let (g, build_s) = repeat_graph_setup(tracer, || {
        let g = tgraph::gen::preferential_attachment(nodes, 3, cfg.seed).undirected(true).build();
        let edges = g.num_edges() as u64;
        (g, edges)
    });
    set_graph_layers(&mut out, &g, build_s);
    let pipeline = Pipeline::new(hyperparams());
    let hp = pipeline.hyperparams().clone();
    for _ in 0..WALK_WARMUP_PASSES {
        std::hint::black_box(pipeline.walks(&g));
    }

    let first_measured = tracer.spans().len();
    let mut samples = Vec::new();
    let mut hops_seen = None;
    let mut last_walks = None;
    let started = Instant::now();
    while secs(started.elapsed()) < cfg.seconds || samples.len() < 3 {
        // Freed outside the timed call, like the caller's own buffers.
        drop(last_walks.take());
        let t0 = Instant::now();
        let walks = tracer.span(None, "twalk", "Pipeline::walks", || {
            let walks = pipeline.walks(std::hint::black_box(&g));
            let hops = (walks.total_vertices() - walks.num_walks()) as u64;
            (walks, hops)
        });
        samples.push(secs(t0.elapsed()));
        out.attempted += 1;
        let hops = walks.total_vertices() - walks.num_walks();
        // Walks depend on the graph and the library seed alone, so every
        // pass must take exactly the same hops.
        if *hops_seen.get_or_insert(hops) != hops {
            out.failed += 1;
        }
        last_walks = Some(walks);
    }
    set_timings(&mut out, &samples);

    let walks = last_walks.expect("at least one pass ran");
    let hops = hops_seen.expect("at least one pass ran");
    let mut starts = vec![0u32; g.num_nodes()];
    let mut invalid = 0usize;
    for walk in walks.iter() {
        starts[walk[0] as usize] += 1;
        if walk.len() > hp.walk_length || !temporally_valid(&g, walk) {
            invalid += 1;
        }
    }
    if invalid > 0 {
        out.problems.push(format!("{invalid} walks are not temporally valid"));
    }
    if starts.iter().any(|&k| k as usize != hp.walks_per_node) {
        out.problems.push(format!("not every vertex starts {} walks", hp.walks_per_node));
    }
    out.notes.push(format!(
        "checked {} walks ({hops} hops): temporal validity, K starts per vertex, equal hops on every pass",
        walks.num_walks()
    ));

    let walk_s = stats::median(&samples);
    out.set("twalk.walk_s", walk_s);
    out.set("twalk.hops", hops as f64);
    out.set("twalk.ns_per_hop", walk_s * 1e9 / hops as f64);
    if tracer.enabled() {
        let layers = layer_self_times(&tracer.spans()[first_measured..]);
        let total: u64 = layers.values().sum();
        out.set("twalk.self_frac", layers["twalk"] as f64 / total as f64);
    }
    out
}

/// What distinguishes the two pipeline workloads.
struct Task<'a> {
    name: &'static str,
    graph: &'a TemporalGraph,
    /// Runs the top-level call; returns the report and whether every
    /// number it produced besides the report is finite.
    run: &'a dyn Fn(&Pipeline, &TemporalGraph) -> (TaskReport, bool),
    /// Test AUC (link prediction) or test accuracy (node classification).
    quality: fn(&TaskReport) -> f64,
    floor: f64,
}

/// Shared body of `lp.pa10k` and `nc.sbm36k`.
fn run_task(cfg: &RunConfig, tracer: &mut Tracer, out: &mut RunOutput, task: &Task<'_>) {
    let pipeline = Pipeline::new(hyperparams());
    let hp = pipeline.hyperparams().clone();
    let g = task.graph;
    let first_measured = tracer.spans().len();
    let mut samples = Vec::new();
    let (mut walk_s, mut p12_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while secs(started.elapsed()) < cfg.seconds || samples.is_empty() {
        let run_id = tracer.reserve();
        let mut tokens = 0;
        if tracer.enabled() {
            // Prefix replays (see `trace::Span`): walks, then walks+train,
            // then the whole pipeline; each parent is explained by the one
            // before it.
            let emb_id = tracer.reserve();
            let t0 = Instant::now();
            let corpus = tracer.span(Some(emb_id), "twalk", "Pipeline::walks", || {
                let walks = pipeline.walks(g);
                let hops = walks.total_vertices() - walks.num_walks();
                out.set("twalk.hops", hops as f64);
                (walks.total_vertices(), hops as u64)
            });
            walk_s.push(secs(t0.elapsed()));
            tokens = (corpus * hp.w2v_epochs) as u64;
            let t0 = Instant::now();
            let finite =
                tracer.span_as(emb_id, Some(run_id), "embed", "Pipeline::embeddings", || {
                    let emb = pipeline.embeddings(g);
                    (emb.as_slice().iter().all(|x| x.is_finite()), tokens)
                });
            p12_s.push(secs(t0.elapsed()));
            if !finite {
                out.problems.push("embeddings are not finite".to_string());
            }
        }
        let t0 = Instant::now();
        let (report, finite) =
            tracer.span_as(run_id, None, "core", task.name, || ((task.run)(&pipeline, g), 1));
        samples.push(secs(t0.elapsed()));
        out.attempted += 1;
        let quality = (task.quality)(&report);
        if !(finite && quality >= task.floor && report.metrics.final_train_loss.is_finite()) {
            out.failed += 1;
            out.notes.push(format!("iteration failed its check: quality {quality:.4}"));
        }
        last = Some((report, tokens));
    }
    set_timings(out, &samples);

    let (report, tokens) = last.expect("at least one iteration ran");
    let quality = (task.quality)(&report);
    out.notes.push(format!("{} | floor {}", report.summary(), task.floor));
    let wall = *samples.last().expect("at least one iteration ran");
    let t = report.phase_times;
    out.set("core.quality", quality);
    out.set("core.unattributed_frac", 1.0 - secs(t.total()) / wall);
    // Read from the summary text, not from `PhaseTimes::fused`, so that a
    // refactor of that field cannot stop the benchmark from compiling.
    out.set("embed.fused", f64::from(u8::from(report.summary().contains("fused"))));
    // Reported by the program (`TaskReport::phase_times`), not timed here:
    // the stages behind `embeddings` have no call of their own.
    out.set("dataprep.prep_s", secs(t.data_prep));
    out.set("nn.train_s", secs(t.train_total));
    out.set("nn.epochs", report.epochs_run as f64);
    out.set("nn.s_per_epoch", secs(t.train_per_epoch));
    out.set("nn.test_s", secs(t.test));
    if tracer.enabled() {
        let (walk, p12) = (stats::median(&walk_s), stats::median(&p12_s));
        let train = (p12 - walk).max(0.0);
        out.set("twalk.walk_s", walk);
        out.set("twalk.ns_per_hop", walk * 1e9 / out.layers["twalk.hops"]);
        out.set("embed.p12_s", p12);
        out.set("embed.train_s", train);
        out.set("embed.tokens", tokens as f64);
        out.set("embed.tokens_per_s", if train > 0.0 { tokens as f64 / train } else { 0.0 });
        let layers = layer_self_times(&tracer.spans()[first_measured..]);
        let op_ns: f64 = samples.iter().sum::<f64>() * 1e9;
        out.set("twalk.self_frac", layers["twalk"] as f64 / op_ns);
        out.set("embed.self_frac", layers["embed"] as f64 / op_ns);
        out.set("nn.self_frac", secs(t.train_total + t.test) / wall);
    }
}

/// `lp.pa10k`: the whole link-prediction pipeline.
pub fn run_link_prediction(cfg: &RunConfig, tracer: &mut Tracer) -> RunOutput {
    let nodes = cfg.scaled(10_000);
    let mut out = RunOutput::default();
    let (g, build_s) = repeat_graph_setup(tracer, || {
        let g = tgraph::gen::preferential_attachment(nodes, 5, cfg.seed)
            .undirected(true)
            .normalize_times(true)
            .build();
        let edges = g.num_edges() as u64;
        (g, edges)
    });
    set_graph_layers(&mut out, &g, build_s);
    let task = Task {
        name: "Pipeline::train_link_model",
        graph: &g,
        // The same pipeline as `run_link_prediction`, keeping the trained
        // embeddings so they can be checked.
        run: &|p, g| {
            let model = p.train_link_model(g).expect("the graph is large enough to split");
            let finite = model.emb.as_slice().iter().all(|x| x.is_finite());
            (model.report, finite)
        },
        quality: |r| r.metrics.auc.unwrap_or(0.0),
        floor: if cfg.smoke { 0.55 } else { 0.85 },
    };
    run_task(cfg, tracer, &mut out, &task);
    out
}

/// `nc.sbm36k`: the whole node-classification pipeline.
pub fn run_node_classification(cfg: &RunConfig, tracer: &mut Tracer) -> RunOutput {
    let nodes = cfg.scaled(36_000);
    let mut out = RunOutput::default();
    let ((g, labels), build_s) = repeat_graph_setup(tracer, || {
        let gen = tgraph::gen::temporal_sbm(nodes, 10, nodes * 40, 0.85, cfg.seed);
        let g = gen.builder.undirected(true).build();
        let edges = g.num_edges() as u64;
        ((g, gen.labels), edges)
    });
    set_graph_layers(&mut out, &g, build_s);
    let task = Task {
        name: "Pipeline::run_node_classification",
        graph: &g,
        run: &|p, g| {
            let report = p.run_node_classification(g, &labels).expect("labels cover the graph");
            (report, true)
        },
        quality: |r| r.metrics.accuracy,
        floor: if cfg.smoke { 0.5 } else { 0.95 },
    };
    run_task(cfg, tracer, &mut out, &task);
    out
}
