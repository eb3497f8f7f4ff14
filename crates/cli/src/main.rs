//! `rwalk` — command-line driver for the pipeline and its experiments.
//!
//! ```text
//! rwalk datasets [--scale S]
//! rwalk linkpred  [--dataset NAME | --wel FILE] [--scale S] [--walks K]
//!                 [--len N] [--dim D] [--threads T] [--gpu] [--seed X]
//!                 [--sampler uniform|softmax|recency|linear] [--static]
//! rwalk nodeclass [--dataset NAME] [--scale S] [--walks K] [--len N]
//!                 [--dim D] [--threads T] [--gpu] [--seed X]
//!                 [--sampler uniform|softmax|recency|linear] [--static]
//! rwalk sweep     [--dataset NAME] [--scale S]   # Fig. 8 mini-sweep
//! rwalk profile   [--dataset NAME] [--scale S]   # instruction mix + stalls
//! rwalk serve     [--dataset NAME | --wel FILE | --graph-store FILE]
//!                 [--snapshot FILE] [--scale S] [--port P]
//!                 [--threads T] [--refresh-ms R]
//!                 [--io blocking|reactor] [--shards N]
//!                 [--shard-budget Q] [--max-conns C]
//!                 [--idle-timeout-ms I] [--smoke]
//! rwalk pack      [--dataset NAME | --wel FILE] [--scale S]
//!                 [--graph-out FILE] [--snapshot-out FILE] [walk flags]
//! rwalk inspect   FILE
//! ```
//!
//! `--sampler` selects the walk transition bias (default `softmax`, the
//! paper's Eq. 1); `--static` ignores timestamps entirely — the static
//! DeepWalk baseline. `--scale`, `--walks`, `--len`, and `--dim` must be
//! positive.
//!
//! Every command additionally accepts `--metrics-out <path>`: it enables
//! the process-global metrics recorder and, after the command succeeds,
//! writes a JSON snapshot of every counter/gauge/histogram to `<path>` —
//! including the `pipeline_phase_ns{phase=…}` spans that reproduce the
//! paper's Fig. 7 phase breakdown (DESIGN.md §12).
//!
//! `serve` trains a link model and serves it over the JSON-lines TCP
//! protocol (see the README's "Serving" section); `--smoke` starts the
//! server on a loopback port, issues one query of each type against it,
//! prints the responses, and exits — the CI smoke test. `--io` selects
//! the transport: `reactor` (default; epoll event loop + `--shards`
//! consistent-hash query workers with `--shard-budget` admission
//! control, `--max-conns`, `--idle-timeout-ms`) or `blocking`
//! (thread-per-connection on `--threads` handlers, kept for hosts the
//! reactor does not support).
//!
//! Persistence (README "Persistence", DESIGN.md §14): `pack` writes
//! store files — `--graph-out` the ingested graph plus its prepared
//! sampler tables, `--snapshot-out` a trained model snapshot; `inspect`
//! validates a store file and prints its section table. `--graph-store`
//! opens a packed graph (memory-mapped, zero-copy) instead of
//! re-ingesting a dataset, and `serve --snapshot` warm-restarts from a
//! packed snapshot without training — the first query answers in
//! milliseconds under the version the snapshot was packed with.

use std::process::ExitCode;

use rwalk_core::{Backend, EmbeddingStrategy, Hyperparams, Pipeline};
use twalk::TransitionSampler;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!(
            "usage: rwalk <datasets|linkpred|nodeclass|sweep|profile|serve|pack|inspect> [options]"
        );
        return ExitCode::FAILURE;
    };
    // `inspect` takes a positional file path, not flags; handle it before
    // the flag parser.
    if cmd == "inspect" {
        return match cmd_inspect(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The recorder must be on before any phase runs; handles resolved
    // while it is off are permanent no-ops.
    if opts.metrics_out.is_some() {
        obs::set_global_enabled(true);
    }
    let result = match cmd.as_str() {
        "datasets" => cmd_datasets(&opts),
        "linkpred" => cmd_linkpred(&opts),
        "nodeclass" => cmd_nodeclass(&opts),
        "sweep" => cmd_sweep(&opts),
        "profile" => cmd_profile(&opts),
        "serve" => cmd_serve(&opts),
        "pack" => cmd_pack(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    let result = result.and_then(|()| write_metrics_snapshot(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Dumps the global registry as JSON to `--metrics-out`, if requested.
fn write_metrics_snapshot(opts: &Options) -> Result<(), String> {
    let Some(path) = &opts.metrics_out else {
        return Ok(());
    };
    let json = obs::global_registry().snapshot().to_json();
    std::fs::write(path, json).map_err(|e| format!("--metrics-out {path}: {e}"))?;
    println!("metrics snapshot written to {path}");
    Ok(())
}

struct Options {
    dataset: String,
    wel: Option<String>,
    scale: f64,
    walks: usize,
    len: usize,
    dim: usize,
    threads: usize,
    seed: u64,
    gpu: bool,
    sampler: TransitionSampler,
    static_walks: bool,
    port: u16,
    refresh_ms: u64,
    io: String,
    shards: usize,
    shard_budget: usize,
    max_conns: usize,
    idle_timeout_ms: u64,
    smoke: bool,
    metrics_out: Option<String>,
    graph_store: Option<String>,
    snapshot: Option<String>,
    graph_out: Option<String>,
    snapshot_out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            dataset: "ia-email".into(),
            wel: None,
            scale: 0.25,
            walks: 10,
            len: 6,
            dim: 8,
            threads: 0,
            seed: 42,
            gpu: false,
            sampler: TransitionSampler::Softmax,
            static_walks: false,
            port: 7878,
            refresh_ms: 1_000,
            io: "reactor".into(),
            shards: 0,
            shard_budget: 1024,
            max_conns: 4096,
            idle_timeout_ms: 60_000,
            smoke: false,
            metrics_out: None,
            graph_store: None,
            snapshot: None,
            graph_out: None,
            snapshot_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = |name: &str| -> Result<String, String> {
                it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--dataset" => o.dataset = val("--dataset")?,
                "--wel" => o.wel = Some(val("--wel")?),
                "--scale" => {
                    o.scale = val("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?
                }
                "--walks" => {
                    o.walks = val("--walks")?.parse().map_err(|e| format!("--walks: {e}"))?
                }
                "--len" => o.len = val("--len")?.parse().map_err(|e| format!("--len: {e}"))?,
                "--dim" => o.dim = val("--dim")?.parse().map_err(|e| format!("--dim: {e}"))?,
                "--threads" => {
                    o.threads = val("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?
                }
                "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--gpu" => o.gpu = true,
                "--sampler" => {
                    o.sampler = val("--sampler")?.parse().map_err(|e| format!("--sampler: {e}"))?
                }
                "--static" => o.static_walks = true,
                "--port" => o.port = val("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
                "--refresh-ms" => {
                    o.refresh_ms =
                        val("--refresh-ms")?.parse().map_err(|e| format!("--refresh-ms: {e}"))?
                }
                "--io" => o.io = val("--io")?.trim().to_ascii_lowercase(),
                "--shards" => {
                    o.shards = val("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?
                }
                "--shard-budget" => {
                    o.shard_budget = val("--shard-budget")?
                        .parse()
                        .map_err(|e| format!("--shard-budget: {e}"))?
                }
                "--max-conns" => {
                    o.max_conns =
                        val("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?
                }
                "--idle-timeout-ms" => {
                    o.idle_timeout_ms = val("--idle-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--idle-timeout-ms: {e}"))?
                }
                "--smoke" => o.smoke = true,
                "--metrics-out" => o.metrics_out = Some(val("--metrics-out")?),
                "--graph-store" => o.graph_store = Some(val("--graph-store")?),
                "--snapshot" => o.snapshot = Some(val("--snapshot")?),
                "--graph-out" => o.graph_out = Some(val("--graph-out")?),
                "--snapshot-out" => o.snapshot_out = Some(val("--snapshot-out")?),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        // Zero values would make the pipeline panic deep inside (or
        // degenerate into an empty dataset); reject them here with flag
        // names attached.
        if !(o.scale.is_finite() && o.scale > 0.0) {
            return Err(format!("--scale must be a positive number, got {}", o.scale));
        }
        if o.walks == 0 {
            return Err("--walks must be at least 1".into());
        }
        if o.len == 0 {
            return Err("--len must be at least 1".into());
        }
        if o.dim == 0 {
            return Err("--dim must be at least 1".into());
        }
        if o.refresh_ms == 0 {
            return Err("--refresh-ms must be at least 1".into());
        }
        if !matches!(o.io.as_str(), "blocking" | "reactor") {
            return Err(format!(
                "--io: unknown transport {:?} (valid values: blocking, reactor)",
                o.io
            ));
        }
        if o.shard_budget == 0 {
            return Err("--shard-budget must be at least 1".into());
        }
        if o.max_conns == 0 {
            return Err("--max-conns must be at least 1".into());
        }
        if o.idle_timeout_ms == 0 {
            return Err("--idle-timeout-ms must be at least 1".into());
        }
        if o.wel.is_some() && o.graph_store.is_some() {
            return Err("--wel and --graph-store are mutually exclusive graph sources".into());
        }
        Ok(o)
    }

    fn hyperparams(&self) -> Hyperparams {
        let strategy = if self.static_walks {
            EmbeddingStrategy::StaticDeepWalk
        } else {
            EmbeddingStrategy::TemporalWalks
        };
        Hyperparams::paper_optimal()
            .with_walks_per_node(self.walks)
            .with_walk_length(self.len)
            .with_dim(self.dim)
            .with_threads(self.threads)
            .with_seed(self.seed)
            .with_sampler(self.sampler)
            .with_strategy(strategy)
    }

    fn pipeline(&self) -> Pipeline {
        let p = Pipeline::new(self.hyperparams());
        if self.gpu {
            p.with_backend(Backend::GpuModel(perfmodel::GpuModel::ampere()))
        } else {
            p
        }
    }

    fn named_dataset(&self) -> Result<datasets::NamedDataset, String> {
        if let Some(path) = &self.wel {
            return datasets::load_wel(path, "custom").map_err(|e| e.to_string());
        }
        let d = match self.dataset.as_str() {
            "ia-email" => datasets::ia_email(self.scale),
            "wiki-talk" => datasets::wiki_talk(self.scale),
            "stackoverflow" => datasets::stackoverflow(self.scale),
            "dblp3" => datasets::dblp3(self.scale),
            "dblp5" => datasets::dblp5(self.scale),
            "brain" => datasets::brain(self.scale),
            other => return Err(format!("unknown dataset {other:?}")),
        };
        Ok(d)
    }

    /// The graph to operate on: a packed store file when `--graph-store`
    /// is given (opened zero-copy from the mapping), otherwise the named
    /// dataset (ingested and CSR-built from scratch).
    fn load_graph(&self) -> Result<(String, tgraph::TemporalGraph), String> {
        if let Some(path) = &self.graph_store {
            let t0 = std::time::Instant::now();
            let opened = store::open_graph(std::path::Path::new(path))
                .map_err(|e| format!("--graph-store {path}: {e}"))?;
            println!(
                "graph store {path}: {} bytes, {} in {:.1} ms",
                opened.file_len,
                if opened.mapped { "mapped" } else { "heap-loaded" },
                t0.elapsed().as_secs_f64() * 1e3
            );
            return Ok((format!("store:{path}"), opened.graph));
        }
        let d = self.named_dataset()?;
        Ok((d.name, d.graph))
    }
}

fn cmd_datasets(o: &Options) -> Result<(), String> {
    let ds = datasets::all(o.scale);
    println!("{}", datasets::table2(&ds));
    Ok(())
}

fn cmd_linkpred(o: &Options) -> Result<(), String> {
    let (name, graph) = o.load_graph()?;
    println!("dataset {} ({} nodes, {} edges)", name, graph.num_nodes(), graph.num_edges());
    let report = o.pipeline().run_link_prediction(&graph).map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    Ok(())
}

fn cmd_nodeclass(o: &Options) -> Result<(), String> {
    if o.graph_store.is_some() {
        return Err("--graph-store holds no labels; node classification needs a labeled dataset \
             (dblp3/dblp5/brain)"
            .into());
    }
    let d = o.named_dataset()?;
    let labels = d
        .labels
        .as_ref()
        .ok_or_else(|| format!("dataset {} has no labels; pick dblp3/dblp5/brain", d.name))?;
    println!(
        "dataset {} ({} nodes, {} edges, {} classes)",
        d.name,
        d.graph.num_nodes(),
        d.graph.num_edges(),
        d.num_classes()
    );
    let report =
        o.pipeline().run_node_classification(&d.graph, labels).map_err(|e| e.to_string())?;
    println!("{}", report.summary());
    Ok(())
}

fn cmd_sweep(o: &Options) -> Result<(), String> {
    let d = o.named_dataset()?;
    println!("Fig. 8 mini-sweep on {}:", d.name);
    println!("| K | N | d | accuracy | AUC |");
    println!("|---|---|---|---|---|");
    for (k, n, dim) in [(1, 6, 8), (5, 6, 8), (10, 6, 8), (10, 2, 8), (10, 6, 2), (10, 6, 16)] {
        let hp =
            o.hyperparams().with_walks_per_node(k).with_walk_length(n).with_dim(dim).quick_test();
        let report = Pipeline::new(hp).run_link_prediction(&d.graph).map_err(|e| e.to_string())?;
        println!(
            "| {k} | {n} | {dim} | {:.3} | {:.3} |",
            report.metrics.accuracy,
            report.metrics.auc.unwrap_or(f64::NAN)
        );
    }
    Ok(())
}

fn cmd_profile(o: &Options) -> Result<(), String> {
    use perfmodel::profile::{
        profile_testing, profile_training, profile_walk, profile_word2vec, ProfileOptions,
    };
    use perfmodel::stalls::stall_breakdown;
    use perfmodel::{GpuModel, KernelClass};

    let d = o.named_dataset()?;
    let hp = o.hyperparams();
    println!("profiling {} ({} nodes, {} edges)", d.name, d.graph.num_nodes(), d.graph.num_edges());
    let opts = ProfileOptions::default();
    let walk_cfg = hp.walk_config();
    let walks = twalk::generate_walks(&d.graph, &walk_cfg, &hp.par_config());
    let gpu = GpuModel::ampere();

    let profiles = [
        (
            KernelClass::RandomWalk,
            profile_walk(&d.graph, &walk_cfg, &opts),
            d.graph.num_nodes() as f64,
        ),
        (
            KernelClass::Word2Vec,
            profile_word2vec(&walks, hp.dim, hp.window, hp.negatives, d.graph.num_nodes(), &opts),
            (16_384 * hp.dim) as f64,
        ),
        (
            KernelClass::Training,
            profile_training(&[2 * hp.dim, hp.hidden, 1], hp.batch_size, 128, &opts),
            (hp.batch_size * hp.hidden) as f64,
        ),
        (
            KernelClass::Testing,
            profile_testing(&[2 * hp.dim, hp.hidden, 1], 4_096, 1, &opts),
            (hp.hidden * hp.hidden) as f64,
        ),
    ];

    println!(
        "| kernel | memory % | branch % | compute % | other % | irregularity | dominant stall |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (class, p, parallelism) in &profiles {
        let mix = p.ops.mix();
        let occ = gpu.estimate_profile(p, p.work_scale(), *parallelism, 1.0, 0.0).occupancy;
        let stalls = stall_breakdown(*class, p, occ);
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.2} | {:?} |",
            p.name,
            mix.memory * 100.0,
            mix.branch * 100.0,
            mix.compute * 100.0,
            mix.other * 100.0,
            p.irregularity,
            stalls.dominant(),
        );
    }
    Ok(())
}

fn cmd_serve(o: &Options) -> Result<(), String> {
    use rwalk_core::IncrementalEmbedder;
    use rwserve::{BatchPolicy, EmbeddingStore, Server, Service};
    use std::sync::Arc;
    use std::time::Duration;

    let hp = if o.smoke { o.hyperparams().quick_test() } else { o.hyperparams() };

    // Model source: a packed snapshot (warm restart, no training) or a
    // fresh training run on the graph.
    let (store, graph) = if let Some(path) = &o.snapshot {
        let t0 = std::time::Instant::now();
        let snap = store::open_snapshot(std::path::Path::new(path))
            .map_err(|e| format!("--snapshot {path}: {e}"))?;
        println!(
            "warm start from snapshot {path}: version {}, {} nodes x dim {}, {} in {:.1} ms",
            snap.version,
            snap.emb.num_nodes(),
            snap.emb.dim(),
            if snap.mapped { "mapped" } else { "heap-loaded" },
            t0.elapsed().as_secs_f64() * 1e3
        );
        if snap.emb.dim() != hp.dim {
            return Err(format!(
                "--snapshot {path} was packed with dim {} but --dim is {}; pass --dim {}",
                snap.emb.dim(),
                hp.dim,
                snap.emb.dim()
            ));
        }
        // A graph is only needed for the ingest/refresh path; without
        // one the server answers queries but rejects ingest.
        let graph = if o.graph_store.is_some() { Some(o.load_graph()?.1) } else { None };
        (Arc::new(EmbeddingStore::with_version(snap.version, snap.emb, snap.model)), graph)
    } else {
        let (name, graph) = o.load_graph()?;
        println!("dataset {} ({} nodes, {} edges)", name, graph.num_nodes(), graph.num_edges());
        println!("training link model...");
        let model =
            Pipeline::new(hp.clone()).train_link_model(&graph).map_err(|e| e.to_string())?;
        println!("{}", model.report.summary());
        (Arc::new(EmbeddingStore::new(model.emb, model.mlp)), Some(graph))
    };

    let mut service = Service::new(
        Arc::clone(&store),
        par::ParConfig::with_threads(o.threads),
        BatchPolicy::default(),
    );
    let ingest_enabled = graph.is_some();
    if let Some(graph) = graph {
        // Warm restarts skip the initial refresh — the served embedding
        // comes from the snapshot; the embedder only runs when ingested
        // edges trigger a background cycle.
        let mut embedder = IncrementalEmbedder::new(hp, &graph);
        if o.snapshot.is_none() {
            // Warm the incremental embedder so background cycles are
            // dirty-vertex refreshes, not full rebuilds.
            embedder.refresh();
        }
        service = service.with_refresher(embedder, Duration::from_millis(o.refresh_ms));
    } else {
        println!("no graph source: ingest disabled (pass --graph-store to enable)");
    }
    let service = Arc::new(service);

    let addr = if o.smoke {
        "127.0.0.1:0".to_string() // OS-assigned port; smoke must not collide
    } else {
        format!("127.0.0.1:{}", o.port)
    };

    // `--io` selects the transport: the readiness-driven reactor
    // (default) or the thread-per-connection blocking server.
    if o.io == "reactor" {
        let config = rwserve::ReactorConfig {
            shards: o.shards,
            shard_budget: o.shard_budget,
            max_conns: o.max_conns,
            idle_timeout: Duration::from_millis(o.idle_timeout_ms),
            ..rwserve::ReactorConfig::default()
        };
        let server = rwserve::ReactorServer::start(Arc::clone(&service), &addr, config)
            .map_err(|e| e.to_string())?;
        println!(
            "serving on {} (reactor, {} shards, budget {}, max {} conns)",
            server.local_addr(),
            config.resolved_shards(),
            config.shard_budget,
            config.max_conns
        );
        if o.smoke {
            return smoke_check(server.local_addr(), ingest_enabled);
        }
        // Serve until killed; the stats summary goes to stdout once a minute.
        loop {
            std::thread::sleep(Duration::from_secs(60));
            println!("{}", service.stats().summary());
        }
    }

    let threads = if o.threads == 0 { 4 } else { o.threads };
    let server = Server::start(Arc::clone(&service), &addr, threads).map_err(|e| e.to_string())?;
    println!("serving on {} (blocking, {} handler threads)", server.local_addr(), threads);

    if o.smoke {
        return smoke_check(server.local_addr(), ingest_enabled);
    }
    loop {
        std::thread::sleep(Duration::from_secs(60));
        println!("{}", service.stats().summary());
    }
}

fn cmd_pack(o: &Options) -> Result<(), String> {
    if o.graph_out.is_none() && o.snapshot_out.is_none() {
        return Err(
            "pack needs at least one output: --graph-out FILE and/or --snapshot-out FILE".into()
        );
    }
    if o.graph_store.is_some() {
        // Re-packing an already packed graph is a no-op round trip; the
        // flag combination is almost certainly a mistake.
        return Err(
            "pack ingests a dataset (--dataset/--wel); --graph-store is not a pack input".into()
        );
    }
    let d = o.named_dataset()?;
    println!("dataset {} ({} nodes, {} edges)", d.name, d.graph.num_nodes(), d.graph.num_edges());

    if let Some(path) = &o.graph_out {
        // Pack the graph together with the sampler tables the configured
        // bias would build, so opening skips preparation too.
        let prepared = o.sampler.prepare(&d.graph);
        let t0 = std::time::Instant::now();
        let bytes =
            store::pack_graph_to_path(std::path::Path::new(path), &d.graph, Some(&prepared))
                .map_err(|e| format!("--graph-out {path}: {e}"))?;
        println!(
            "graph store written to {path}: {bytes} bytes ({} sampler table bytes) in {:.1} ms",
            prepared.stats().table_bytes,
            t0.elapsed().as_secs_f64() * 1e3
        );
    }

    if let Some(path) = &o.snapshot_out {
        println!("training link model...");
        let model =
            Pipeline::new(o.hyperparams()).train_link_model(&d.graph).map_err(|e| e.to_string())?;
        println!("{}", model.report.summary());
        let t0 = std::time::Instant::now();
        let bytes =
            store::pack_snapshot_to_path(std::path::Path::new(path), 1, &model.emb, &model.mlp)
                .map_err(|e| format!("--snapshot-out {path}: {e}"))?;
        println!(
            "snapshot written to {path}: {bytes} bytes (version 1) in {:.1} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
    Ok(())
}

/// `rwalk inspect FILE` — validates a store file (all checksums) and
/// prints its header and section table.
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: rwalk inspect FILE".into());
    };
    let c = store::Container::open(std::path::Path::new(path))
        .map_err(|e| format!("inspect {path}: {e}"))?;
    println!(
        "{path}: {} store, {} bytes, {} sections, all checksums ok",
        match c.kind() {
            store::ArtifactKind::Graph => "graph",
            store::ArtifactKind::Snapshot => "snapshot",
        },
        c.file_len(),
        c.sections().len()
    );
    println!("| section | offset | bytes | elem | checksum |");
    println!("|---|---|---|---|---|");
    for s in c.sections() {
        println!(
            "| {} | {} | {} | {} | {:#018x} |",
            s.name_str(),
            s.offset,
            s.len,
            s.elem_size,
            s.checksum
        );
    }
    // Checksums passed, but the meta sections are still untrusted: their
    // word counts are checked before any word is read.
    let words = |name: &str, want: usize| -> Result<Vec<u64>, String> {
        let w = c.u64s(name).map_err(|e| format!("inspect {path}: {e}"))?;
        if w.len() != want {
            return Err(format!(
                "inspect {path}: section {name:?} has {} words, expected {want}",
                w.len()
            ));
        }
        Ok(w.to_vec())
    };
    match c.kind() {
        store::ArtifactKind::Graph => {
            let meta = words("meta", 2)?;
            println!("graph: {} nodes, {} edges", meta[0], meta[1]);
            if c.has_section("smet") {
                let s = words("smet", 2)?;
                let bias = match s[0] {
                    0 => "uniform".to_string(),
                    1 => "linear".to_string(),
                    2 => "softmax".to_string(),
                    3 => "recency".to_string(),
                    other => format!("unknown({other})"),
                };
                // A weighted sampler's tables are its CDF weights plus
                // their row bounds, which are the CSR offsets.
                let bytes = if c.has_section("scdf") {
                    let len = |name: &str| {
                        c.sections().iter().find(|e| e.name_str() == name).map_or(0, |e| e.len)
                    };
                    len("goff") + len("scdf")
                } else {
                    0
                };
                println!("sampler: {bias}, {bytes} table bytes");
            } else {
                println!("sampler: none packed");
            }
        }
        store::ArtifactKind::Snapshot => {
            let meta = words("meta", 6)?;
            println!(
                "snapshot: version {}, {} nodes x dim {}, {} layers, head {}",
                meta[0],
                meta[1],
                meta[2],
                meta[5],
                if meta[3] == 0 { "binary" } else { "multiclass" }
            );
        }
    }
    Ok(())
}

/// One query of each protocol op against the live server (either
/// transport — only the address matters); any failure is a hard error.
/// This is the CI smoke test behind `rwalk serve --smoke`. A server
/// without a graph source has no refresher, so `ingest` is expected to
/// answer with its structured "unavailable" error instead.
fn smoke_check(addr: std::net::SocketAddr, ingest_enabled: bool) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let requests = [
        r#"{"op":"link_score","u":0,"v":1}"#,
        r#"{"op":"embedding","u":0}"#,
        r#"{"op":"topk","u":0,"k":3}"#,
        r#"{"op":"ingest","edges":[[0,1,0.99]]}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"metrics"}"#,
    ];
    for request in requests {
        stream.write_all(format!("{request}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| e.to_string())?;
        let response = response.trim();
        println!("> {request}");
        println!("< {response}");
        if request.contains("ingest") && !ingest_enabled {
            if !response.contains("ingest unavailable") {
                return Err(format!("expected ingest-unavailable error, got: {response}"));
            }
            continue;
        }
        if !response.contains("\"ok\":true") {
            return Err(format!("smoke query failed: {request} -> {response}"));
        }
        if request.contains("metrics") && !response.contains("serve_request_ns") {
            return Err(format!("metrics scrape has no latency histograms: {response}"));
        }
    }
    println!("smoke: all {} protocol ops answered ok", requests.len());
    Ok(())
}
