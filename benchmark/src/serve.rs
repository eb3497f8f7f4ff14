//! The two serving workloads. The server runs in this process on
//! `127.0.0.1:0`; the load comes from this process too, over two
//! connections: first *paced* (open loop: requests leave on a fixed
//! schedule whatever the server does, and each is timed from the instant
//! it was due), then *saturate* (closed loop: each connection keeps a
//! fixed number of requests in flight).
//!
//! `std` has no way to wait on two sockets at once, so each connection has
//! a reader thread blocked in `read`; it costs no CPU while it waits and
//! wakes the moment a reply arrives. One more thread paces the sends.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use par::ParConfig;
use rwalk_core::{IncrementalEmbedder, Pipeline};
use rwserve::protocol::parse_request;
use rwserve::{BatchPolicy, EmbeddingStore, ReactorConfig, ReactorServer, Service};
use tgraph::{TemporalEdge, TemporalGraph};

use crate::json::Json;
use crate::metrics::{RunOutput, THREADS};
use crate::offline::{hyperparams, repeat_setup};
use crate::rng::{Rng, Zipf};
use crate::stats;
use crate::trace::Tracer;
use crate::RunConfig;

const CONNS: usize = 2;
/// Requests per second, both connections together, in the paced phase:
/// about a sixth (`serve.read`) and a quarter (`serve.ingest`) of what the
/// server sustains on the 2-CPU sandbox. Not lower: at 2 000 req/s the
/// server's threads sleep between requests, every request pays several
/// idle wake-ups, and the median latency varies twice as much from run to
/// run.
const PACED_RATE: f64 = 4000.0;
/// Requests each connection keeps in flight in the saturate phase.
const PIPELINE_DEPTH: usize = 32;
/// Closed-loop traffic before timing starts, so lazy set-up is over.
const WARMUP_SECONDS: f64 = 1.0;
const TOPK_K: usize = 8;
const EDGES_PER_INGEST: usize = 8;
const ZIPF_EXPONENT: f64 = 0.99;
/// As `rwalk serve` sets it.
const REFRESH_INTERVAL: Duration = Duration::from_millis(1000);
/// Length of the windows both phases are cut into.
const WINDOW_NS: u64 = 1_000_000_000;
/// A paced send issued later than this after its due time counts as late.
const LATE_THRESHOLD_NS: u64 = 1_000_000;
/// A reader gives up on a reply after this long; the reply counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Request lines timed in-process for `serve.parse_ns`/`serve.respond_ns`.
const INPROC_REQUESTS: usize = 2000;
const SETUP_REPEATS: usize = 3;

/// Shares of `topk` and `ingest` requests; the rest are `link_score`.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub topk: f64,
    pub ingest: f64,
}

/// `link_score` 90 / `topk` 10.
pub const READ_MIX: Mix = Mix { topk: 0.10, ingest: 0.0 };
/// `link_score` 70 / `topk` 5 / `ingest` 25.
pub const INGEST_MIX: Mix = Mix { topk: 0.05, ingest: 0.25 };

/// The fixed settings of the serving workloads, for the result file.
pub fn constants() -> Json {
    Json::obj([
        ("connections", Json::from(CONNS as u64)),
        ("paced_req_per_s", Json::from(PACED_RATE)),
        ("pipeline_depth", Json::from(PIPELINE_DEPTH as u64)),
        ("warmup_seconds", Json::from(WARMUP_SECONDS)),
        ("window_seconds", Json::from(WINDOW_NS as f64 / 1e9)),
        ("topk_k", Json::from(TOPK_K as u64)),
        ("edges_per_ingest", Json::from(EDGES_PER_INGEST as u64)),
        ("zipf_exponent", Json::from(ZIPF_EXPONENT)),
        ("refresh_interval_ms", Json::from(REFRESH_INTERVAL.as_millis() as u64)),
        ("inproc_requests", Json::from(INPROC_REQUESTS as u64)),
        ("setup_repeats", Json::from(SETUP_REPEATS as u64)),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    LinkScore,
    TopK,
    Ingest,
}

/// Draws the workload's requests: kinds by the mix, node ids Zipf over the
/// model's nodes (rank 0 is node 0, a hub of the generated graph), ingest
/// timestamps increasing from the end of the training graph's time range.
struct RequestGen {
    rng: Rng,
    zipf: Zipf,
    mix: Mix,
    ingested: u64,
}

impl RequestGen {
    fn new(seed: u64, nodes: usize, mix: Mix) -> Self {
        Self { rng: Rng::new(seed), zipf: Zipf::new(nodes, ZIPF_EXPONENT), mix, ingested: 0 }
    }

    fn pair(&mut self) -> (u32, u32) {
        let u = self.zipf.draw(&mut self.rng);
        let mut v = self.zipf.draw(&mut self.rng);
        if v == u {
            v = (v + 1) % self.zipf.len();
        }
        (u as u32, v as u32)
    }

    fn kind(&mut self) -> Kind {
        let x = self.rng.next_f64();
        if x < self.mix.ingest {
            Kind::Ingest
        } else if x < self.mix.ingest + self.mix.topk {
            Kind::TopK
        } else {
            Kind::LinkScore
        }
    }

    fn edges(&mut self) -> Vec<TemporalEdge> {
        (0..EDGES_PER_INGEST)
            .map(|_| {
                let (u, v) = self.pair();
                self.ingested += 1;
                TemporalEdge::new(u, v, 1.0 + self.ingested as f64 * 1e-6)
            })
            .collect()
    }

    /// Appends the next request line, newline included, to `line`.
    fn next_line(&mut self, line: &mut String) -> Kind {
        let kind = self.kind();
        match kind {
            Kind::LinkScore => {
                let (u, v) = self.pair();
                let _ = writeln!(line, r#"{{"op":"link_score","u":{u},"v":{v}}}"#);
            }
            Kind::TopK => {
                let u = self.zipf.draw(&mut self.rng);
                let _ = writeln!(line, r#"{{"op":"topk","u":{u},"k":{TOPK_K}}}"#);
            }
            Kind::Ingest => {
                line.push_str(r#"{"op":"ingest","edges":["#);
                for (i, e) in self.edges().iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(line, "{sep}[{},{},{:.6}]", e.src, e.dst, e.time);
                }
                line.push_str("]}\n");
            }
        }
        kind
    }
}

/// Why a reply did not count.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// The server shed the request (`"error":"overloaded"`).
    Overloaded,
    /// Not parseable, `ok:false`, or a payload that fails its check.
    Invalid,
}

/// Checks one reply line against the request kind it answers; returns the
/// snapshot version that answered.
fn check_reply(line: &str, kind: Kind) -> Result<u64, Refused> {
    let v = Json::parse(line.trim_end()).map_err(|_| Refused::Invalid)?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        let overloaded = v.get("error").and_then(Json::as_str) == Some("overloaded");
        return Err(if overloaded { Refused::Overloaded } else { Refused::Invalid });
    }
    let payload_ok = match kind {
        Kind::LinkScore => {
            v.get("score").and_then(Json::as_f64).is_some_and(|s| (0.0..=1.0).contains(&s))
        }
        Kind::TopK => v.get("neighbors").and_then(Json::as_array).is_some_and(|items| {
            let scores: Option<Vec<f64>> = items
                .iter()
                .map(|item| match item.as_array() {
                    Some([id, score]) if id.as_u64().is_some() => score.as_f64(),
                    _ => None,
                })
                .collect();
            scores.is_some_and(|s| s.len() == TOPK_K && s.windows(2).all(|w| w[0] >= w[1]))
        }),
        Kind::Ingest => v.get("queued").and_then(Json::as_u64) == Some(EDGES_PER_INGEST as u64),
    };
    match v.get("version").and_then(Json::as_u64) {
        Some(version) if payload_ok && version >= 1 => Ok(version),
        _ => Err(Refused::Invalid),
    }
}

/// What one phase, or one connection's part of it, saw. Both phases are
/// cut into windows of [`WINDOW_NS`]; each window yields its own median or
/// rate, and the run reports the median over windows, so that a stall of
/// the host shorter than the phase moves one window and not the result.
#[derive(Debug, Default)]
struct PhaseStats {
    sent: u64,
    failed: u64,
    shed: u64,
    /// Closed loop: replies that arrived in each window of the phase.
    replies: Vec<u64>,
    /// Open loop: latency of each request, by the window it was due in.
    latencies_us: Vec<Vec<f64>>,
    versions: Option<(u64, u64)>,
}

/// The smallest range of snapshot versions covering both.
fn widen(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    match (a, b) {
        (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
        (a, b) => a.or(b),
    }
}

/// `windows[index]`, growing the vector as needed.
fn window_slot<T: Default>(windows: &mut Vec<T>, index: usize) -> &mut T {
    if windows.len() <= index {
        windows.resize_with(index + 1, T::default);
    }
    &mut windows[index]
}

impl PhaseStats {
    fn record(&mut self, line: &str, kind: Kind) {
        match check_reply(line, kind) {
            Ok(version) => self.versions = widen(self.versions, Some((version, version))),
            Err(refused) => {
                self.failed += 1;
                self.shed += u64::from(refused == Refused::Overloaded);
            }
        }
    }

    fn merge(&mut self, other: PhaseStats) {
        self.sent += other.sent;
        self.failed += other.failed;
        self.shed += other.shed;
        for (i, n) in other.replies.into_iter().enumerate() {
            *window_slot(&mut self.replies, i) += n;
        }
        for (i, samples) in other.latencies_us.into_iter().enumerate() {
            window_slot(&mut self.latencies_us, i).extend(samples);
        }
        self.versions = widen(self.versions, other.versions);
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
    stream
}

/// How late the paced generator ran.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Lateness {
    pub sends: u64,
    pub late: u64,
    pub max_late_ns: u64,
}

/// When request `i` of an open loop at `rate` per second is due, in
/// nanoseconds from the start of the phase. Computed from `i`, not
/// accumulated, so a stall never shifts the requests after it.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Walks the open-loop schedule: waits for each request's due time, then
/// hands it to `send` with that due time. A send that starts late is
/// counted; the requests after it keep their own due times, so a stall
/// shows up as latency on each of them, as it would for independent users.
pub fn pace(
    requests: usize,
    rate: f64,
    now_ns: &mut dyn FnMut() -> u64,
    sleep_ns: &mut dyn FnMut(u64),
    send: &mut dyn FnMut(usize, u64),
) -> Lateness {
    let mut lateness = Lateness::default();
    for i in 0..requests {
        let due = due_ns(i, rate);
        let mut now = now_ns();
        while now < due {
            sleep_ns(due - now);
            now = now_ns();
        }
        let late = now - due;
        lateness.sends += 1;
        lateness.late += u64::from(late > LATE_THRESHOLD_NS);
        lateness.max_late_ns = lateness.max_late_ns.max(late);
        send(i, due);
    }
    lateness
}

/// The reader of one paced connection: matches each reply line to the
/// next announced request (the server answers a connection in order) and
/// times it from that request's due time. `requests` is how many this
/// connection will be sent.
fn read_paced(
    stream: TcpStream,
    announced: mpsc::Receiver<(u64, Kind)>,
    requests: usize,
    start: Instant,
) -> PhaseStats {
    let mut stats = PhaseStats { sent: requests as u64, ..PhaseStats::default() };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for done in 0..requests {
        line.clear();
        let arrived = matches!(reader.read_line(&mut line), Ok(n) if n > 0);
        let now = start.elapsed().as_nanos() as u64;
        // A request is announced before it is written, so the reply to it
        // finds its announcement waiting.
        let Some((due, kind)) = arrived.then(|| announced.recv().ok()).flatten() else {
            // Closed, or silent for the whole timeout: this request and
            // every later one of the connection count as failed.
            stats.failed += (requests - done) as u64;
            break;
        };
        let latency_us = now.saturating_sub(due) as f64 / 1e3;
        window_slot(&mut stats.latencies_us, (due / WINDOW_NS) as usize).push(latency_us);
        stats.record(&line, kind);
    }
    stats
}

/// Open loop at [`PACED_RATE`] for `seconds`, request `i` on connection
/// `i % 2`.
fn paced_phase(addr: SocketAddr, gen: &mut RequestGen, seconds: f64) -> (PhaseStats, Lateness) {
    let requests = (PACED_RATE * seconds) as usize;
    let mut streams: Vec<TcpStream> = (0..CONNS).map(|_| connect(addr)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut announce = Vec::new();
        let mut readers = Vec::new();
        for (c, stream) in streams.iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let stream = stream.try_clone().expect("clone the connection for its reader");
            let share = requests / CONNS + usize::from(c < requests % CONNS);
            readers.push(scope.spawn(move || read_paced(stream, rx, share, start)));
            announce.push(tx);
        }
        let mut line = String::new();
        let mut kind = gen.next_line(&mut line);
        let lateness = pace(
            requests,
            PACED_RATE,
            &mut || start.elapsed().as_nanos() as u64,
            &mut |ns| std::thread::sleep(Duration::from_nanos(ns)),
            &mut |i, due| {
                let c = i % CONNS;
                let _ = announce[c].send((due, kind));
                // A blocked write (full socket buffer) delays the sends
                // after it; `pace` counts them late and they are timed
                // from their due times all the same. A failed write shows
                // as a reply that never comes.
                let _ = streams[c].write_all(line.as_bytes());
                // The next line is made before its wait, not after it.
                line.clear();
                kind = gen.next_line(&mut line);
            },
        );
        drop(announce);
        let mut stats = PhaseStats::default();
        for reader in readers {
            stats.merge(reader.join().expect("paced reader panicked"));
        }
        (stats, lateness)
    })
}

/// One connection of a closed loop: keeps [`PIPELINE_DEPTH`] requests in
/// flight from `start` until `deadline`, then reads the replies still owed.
fn closed_loop_conn(
    stream: TcpStream,
    mut gen: RequestGen,
    start: Instant,
    deadline: Instant,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let mut writer = stream.try_clone().expect("clone the connection for writing");
    let mut reader = BufReader::new(stream);
    let mut in_flight = VecDeque::with_capacity(PIPELINE_DEPTH);
    // Request lines made but not yet written, and how many they are.
    let mut pending = String::new();
    let mut unsent = 0;
    for _ in 0..PIPELINE_DEPTH {
        in_flight.push_back(gen.next_line(&mut pending));
        unsent += 1;
    }
    let mut line = String::new();
    while let Some(&kind) = in_flight.front() {
        // Requests made while buffered replies were being consumed leave
        // in one write, just before the reader would block.
        if reader.buffer().is_empty() && unsent > 0 {
            if writer.write_all(pending.as_bytes()).is_err() {
                break;
            }
            stats.sent += unsent;
            unsent = 0;
            pending.clear();
        }
        line.clear();
        if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            break;
        }
        in_flight.pop_front();
        stats.record(&line, kind);
        let now = Instant::now();
        if now < deadline {
            let window = (now - start).as_nanos() as u64 / WINDOW_NS;
            *window_slot(&mut stats.replies, window as usize) += 1;
            in_flight.push_back(gen.next_line(&mut pending));
            unsent += 1;
        }
    }
    // Requests that were sent and never answered; the unsent ones never
    // left.
    stats.failed += in_flight.len() as u64 - unsent;
    stats
}

/// Closed loop over both connections for `seconds`.
fn closed_loop_phase(
    addr: SocketAddr,
    seed: u64,
    nodes: usize,
    mix: Mix,
    seconds: f64,
) -> PhaseStats {
    let streams: Vec<TcpStream> = (0..CONNS).map(|_| connect(addr)).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let gen = RequestGen::new(seed.wrapping_add(c as u64), nodes, mix);
                scope.spawn(move || closed_loop_conn(stream, gen, start, deadline))
            })
            .collect();
        let mut stats = PhaseStats::default();
        for handle in handles {
            stats.merge(handle.join().expect("closed-loop connection panicked"));
        }
        stats
    })
}

struct Served {
    server: ReactorServer,
    graph: TemporalGraph,
}

/// One full set-up as a deployment does it: generate the graph, train the
/// link model, pack it to a `.rws` file, open that file, start the reactor
/// server over it with a refresher attached. With `ingest`, also feed one
/// ingest and wait for the snapshot it publishes, so the embedder's
/// from-scratch first refresh is set-up and not measurement.
fn set_up(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    out: &mut RunOutput,
    name: &str,
    ingest: bool,
) -> Served {
    let nodes = cfg.scaled(10_000);
    let hp = hyperparams();
    let graph = tracer.span(None, "tgraph", "generate+build", || {
        let g = tgraph::gen::preferential_attachment(nodes, 2, cfg.seed)
            .undirected(true)
            .normalize_times(true)
            .build();
        let edges = g.num_edges() as u64;
        (g, edges)
    });
    let model = tracer.span(None, "core", "Pipeline::train_link_model", || {
        let model = Pipeline::new(hp.clone()).train_link_model(&graph);
        (model.expect("the graph is large enough to split"), 1)
    });
    let path = crate::out_dir().join(format!("model-{name}-{}.rws", std::process::id()));
    let t0 = Instant::now();
    let bytes = tracer.span(None, "store", "pack_snapshot_to_path", || {
        let bytes = store::pack_snapshot_to_path(&path, 1, &model.emb, &model.mlp);
        let bytes = bytes.expect("write the snapshot under benchmark/out");
        (bytes, bytes)
    });
    out.set("store.pack_s", t0.elapsed().as_secs_f64());
    out.set("store.bytes", bytes as f64);
    let t0 = Instant::now();
    let snap = tracer.span(None, "store", "open_snapshot", || {
        (store::open_snapshot(&path).expect("open the snapshot just written"), bytes)
    });
    out.set("store.open_s", t0.elapsed().as_secs_f64());
    // The mapping outlives the name.
    let _ = std::fs::remove_file(&path);
    if snap.emb.num_nodes() != nodes || !snap.emb.as_slice().iter().all(|x| x.is_finite()) {
        out.problems.push("the opened snapshot is not the trained model".to_string());
    }
    let server = tracer.span(None, "serve", "ReactorServer::start", || {
        let store = Arc::new(EmbeddingStore::with_version(snap.version, snap.emb, snap.model));
        let service = Service::new(store, ParConfig::with_threads(THREADS), BatchPolicy::default())
            .with_refresher(IncrementalEmbedder::new(hp.clone(), &graph), REFRESH_INTERVAL);
        let server =
            ReactorServer::start(Arc::new(service), "127.0.0.1:0", ReactorConfig::default());
        (server.expect("start the reactor server"), 1)
    });
    if ingest {
        tracer.span(None, "core", "first refresh", || {
            let service = server.service();
            let before = service.store().version();
            let mut line = String::new();
            let mut gen = RequestGen::new(cfg.seed, nodes, Mix { topk: 0.0, ingest: 1.0 });
            gen.next_line(&mut line);
            if check_reply(&service.handle_line(line.trim_end()), Kind::Ingest).is_err() {
                out.problems.push("the set-up ingest was refused".to_string());
            }
            let waited = Instant::now();
            while service.store().version() == before {
                if waited.elapsed() > Duration::from_secs(60) {
                    out.problems.push("no snapshot followed the set-up ingest".to_string());
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            ((), 1)
        });
    }
    Served { server, graph }
}

/// Median time of `parse_request` and of `Service::handle_line` over the
/// workload's own request lines, called in this process with no socket.
fn time_in_process(
    service: &Service,
    gen: &mut RequestGen,
    tracer: &mut Tracer,
    out: &mut RunOutput,
) -> f64 {
    let lines: Vec<(Kind, String)> = (0..INPROC_REQUESTS)
        .map(|_| {
            let mut line = String::new();
            let kind = gen.next_line(&mut line);
            line.truncate(line.trim_end().len());
            (kind, line)
        })
        .collect();
    let mut parse_ns = Vec::with_capacity(lines.len());
    tracer.span(None, "serve", "parse_request", || {
        for (_, line) in &lines {
            let t0 = Instant::now();
            let parsed = parse_request(std::hint::black_box(line));
            parse_ns.push(t0.elapsed().as_nanos() as f64);
            if std::hint::black_box(parsed).is_err() {
                out.problems.push(format!("parse_request rejected {line}"));
            }
        }
        ((), lines.len() as u64)
    });
    let mut respond_ns = Vec::with_capacity(lines.len());
    tracer.span(None, "serve", "Service::handle_line", || {
        for (kind, line) in &lines {
            let t0 = Instant::now();
            let reply = service.handle_line(std::hint::black_box(line));
            respond_ns.push(t0.elapsed().as_nanos() as f64);
            if check_reply(&reply, *kind).is_err() {
                out.problems.push(format!("in-process reply to {line} failed its check"));
            }
        }
        ((), lines.len() as u64)
    });
    out.set("serve.parse_ns", stats::median(&parse_ns));
    let respond = stats::median(&respond_ns);
    out.set("serve.respond_ns", respond);
    respond
}

/// Times `IncrementalEmbedder::refresh` on an embedder like the server's,
/// fed one second of the paced phase's ingest.
fn time_refresh(
    cfg: &RunConfig,
    graph: &TemporalGraph,
    mix: Mix,
    tracer: &mut Tracer,
    out: &mut RunOutput,
) {
    let ingests = (PACED_RATE * mix.ingest) as usize;
    if ingests == 0 {
        return;
    }
    let mut embedder = IncrementalEmbedder::new(hyperparams(), graph);
    embedder.refresh();
    let mut gen = RequestGen::new(cfg.seed ^ 0x5EED, graph.num_nodes(), mix);
    for _ in 0..ingests {
        embedder.ingest(gen.edges());
    }
    let dirty = embedder.pending_dirty();
    let t0 = Instant::now();
    tracer.span(None, "core", "IncrementalEmbedder::refresh", || {
        let finite = embedder.refresh().as_slice().iter().all(|x| x.is_finite());
        if !finite {
            out.problems.push("refreshed embeddings are not finite".to_string());
        }
        ((), dirty as u64)
    });
    out.set("core.refresh_s", t0.elapsed().as_secs_f64());
    out.set("core.refresh_dirty", dirty as f64);
}

/// Shared body of `serve.read` and `serve.ingest`.
pub fn run_serve(cfg: &RunConfig, tracer: &mut Tracer, name: &str, mix: Mix) -> RunOutput {
    let mut out = RunOutput::default();
    let ingest = mix.ingest > 0.0;
    // Each repeat stops the previous server and joins its threads first.
    let (Served { server, graph }, setup_s) =
        repeat_setup(SETUP_REPEATS, || set_up(cfg, tracer, &mut out, name, ingest));
    out.setup_s = setup_s;
    let (addr, nodes) = (server.local_addr(), graph.num_nodes());
    let service = Arc::clone(server.service());

    let warmup = if cfg.smoke { 0.2 } else { WARMUP_SECONDS };
    closed_loop_phase(addr, cfg.seed ^ 0xAA, nodes, mix, warmup);
    let version_before = service.store().version();
    let stats_before = service.stats();

    let mut gen = RequestGen::new(cfg.seed, nodes, mix);
    let paced_seconds = cfg.seconds / 2.0;
    let (paced, lateness) = tracer.span(None, "serve", "paced", || {
        let (stats, lateness) = paced_phase(addr, &mut gen, paced_seconds);
        let sent = stats.sent;
        ((stats, lateness), sent)
    });
    let saturate_seconds = cfg.seconds - paced_seconds;
    let saturate = tracer.span(None, "serve", "saturate", || {
        let stats = closed_loop_phase(addr, cfg.seed ^ 0x55, nodes, mix, saturate_seconds);
        let sent = stats.sent;
        (stats, sent)
    });
    let stats_after = service.stats();

    // Whole windows only: a shorter last one has fewer samples and, in the
    // closed loop, a lower count for no fault of the server.
    let paced_windows = ((paced_seconds * 1e9) as u64 / WINDOW_NS).max(1) as usize;
    let saturate_windows = ((saturate_seconds * 1e9) as u64 / WINDOW_NS).max(1) as usize;
    let window_s = (WINDOW_NS as f64 / 1e9).min(saturate_seconds);
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut tail_p = 0.5;
    let timed: usize = paced.latencies_us.iter().map(Vec::len).sum();
    for samples in paced.latencies_us.into_iter().take(paced_windows).filter(|w| !w.is_empty()) {
        let (p50, tail, p) = stats::median_and_tail(samples);
        p50s.push(p50);
        tails.push(tail);
        tail_p = p;
    }
    if p50s.is_empty() {
        out.problems.push("the paced phase got no reply".to_string());
        return out;
    }
    let rates: Vec<f64> =
        saturate.replies.iter().take(saturate_windows).map(|&n| n as f64 / window_s).collect();
    let (p50_us, tail_us) = (stats::median(&p50s), stats::median(&tails));
    let req_per_s = if rates.is_empty() { 0.0 } else { stats::median(&rates) };
    out.op_ms = p50_us / 1e3;
    out.ops_per_s = req_per_s;
    out.attempted = paced.sent + saturate.sent;
    out.failed = paced.failed + saturate.failed;
    let late_frac = lateness.late as f64 / lateness.sends.max(1) as f64;
    out.notes.push(format!(
        "paced: {} sent at {PACED_RATE}/s, {timed} timed; median over {} windows of p50 {p50_us:.1} us and p{} {tail_us:.1} us; {} failed; {} sends late (> 1 ms), worst {:.1} us",
        paced.sent,
        p50s.len(),
        tail_p * 100.0,
        paced.failed,
        lateness.late,
        lateness.max_late_ns as f64 / 1e3
    ));
    out.notes.push(format!(
        "saturate: {CONNS} connections x {PIPELINE_DEPTH} in flight, {} sent; median over {} windows {req_per_s:.0} req/s; {} failed",
        saturate.sent,
        rates.len(),
        saturate.failed
    ));
    let list =
        |values: &[f64]| values.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>().join(" ");
    out.notes.push(format!(
        "per window: p50 [{}] us; saturate [{}] req/s",
        list(&p50s),
        list(&rates)
    ));
    if late_frac > 0.01 {
        out.notes.push(format!(
            "FLAGGED: {:.2} % of paced sends were late; the paced numbers are partly the generator's",
            late_frac * 100.0
        ));
    }

    match widen(paced.versions, saturate.versions) {
        Some((_, hi)) if ingest && hi <= version_before => {
            out.problems.push("no new snapshot version was served while ingesting".to_string());
        }
        Some((lo, hi)) if !ingest && (lo, hi) != (version_before, version_before) => {
            out.problems
                .push(format!("snapshot version moved ({lo}..{hi}) although nothing was ingested"));
        }
        Some((lo, hi)) => out.notes.push(format!("snapshot versions served: {lo}..{hi}")),
        None => out.problems.push("no reply carried a snapshot version".to_string()),
    }

    let batches = stats_after.batches - stats_before.batches;
    let scored = stats_after.mean_batch * stats_after.batches as f64
        - stats_before.mean_batch * stats_before.batches as f64;
    out.set("bench.op_ms", out.op_ms);
    out.set("serve.paced_p50_us", p50_us);
    out.set("serve.paced_p99_us", tail_us);
    out.set("serve.req_per_s", req_per_s);
    out.set("serve.batches", batches as f64);
    out.set("serve.mean_batch", if batches > 0 { scored / batches as f64 } else { 0.0 });
    out.set("serve.shed", (paced.shed + saturate.shed) as f64);
    out.set("serve.refreshes", (stats_after.refreshes - stats_before.refreshes) as f64);
    out.set("gen.late_frac", late_frac);
    out.set("gen.max_late_us", lateness.max_late_ns as f64 / 1e3);
    if tracer.enabled() {
        let respond_ns = time_in_process(&service, &mut gen, tracer, &mut out);
        out.set("serve.transport_us", p50_us - respond_ns / 1e3);
        drop(service);
        drop(server);
        time_refresh(cfg, &graph, mix, tracer, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_index_and_rate() {
        assert_eq!(due_ns(0, 4000.0), 0);
        assert_eq!(due_ns(1, 4000.0), 250_000);
        assert_eq!(due_ns(4000, 4000.0), 1_000_000_000);
        // No drift: request 40 000 is due at exactly ten seconds.
        assert_eq!(due_ns(40_000, 4000.0), 10_000_000_000);
    }

    #[test]
    fn a_stall_makes_later_sends_late_but_leaves_their_due_times() {
        use std::cell::Cell;
        let clock = Cell::new(0u64);
        let mut dues = Vec::new();
        let lateness = pace(
            100,
            4000.0,
            &mut || clock.get(),
            &mut |ns| clock.set(clock.get() + ns),
            &mut |i, due| {
                dues.push(due);
                // Request 10 blocks for 5 ms (a full socket buffer, say).
                if i == 10 {
                    clock.set(clock.get() + 5_000_000);
                }
            },
        );
        // Due times never move: they are what latency is timed from.
        assert!(dues.iter().enumerate().all(|(i, &d)| d == due_ns(i, 4000.0)));
        // Requests 11.. were due 0.25 ms apart while the clock stood 5 ms
        // ahead: 11 is 4.75 ms late, and each later one 0.25 ms less, so
        // 11..=25 are more than 1 ms late (26 is exactly 1 ms: not late).
        assert_eq!(lateness, Lateness { sends: 100, late: 15, max_late_ns: 4_750_000 });
    }

    #[test]
    fn an_unstalled_schedule_is_never_late() {
        use std::cell::Cell;
        let clock = Cell::new(0u64);
        let lateness = pace(
            50,
            4000.0,
            &mut || clock.get(),
            &mut |ns| clock.set(clock.get() + ns + 60_000), // sleeps overshoot by 60 us
            &mut |_, _| {},
        );
        assert_eq!((lateness.sends, lateness.late), (50, 0));
        assert_eq!(lateness.max_late_ns, 60_000);
    }

    #[test]
    fn request_lines_repeat_per_seed_and_parse() {
        let lines = |seed| {
            let mut gen = RequestGen::new(seed, 1000, INGEST_MIX);
            let mut text = String::new();
            let kinds: Vec<Kind> = (0..500).map(|_| gen.next_line(&mut text)).collect();
            (kinds, text)
        };
        assert_eq!(lines(3), lines(3));
        assert_ne!(lines(3).1, lines(4).1);
        let (kinds, text) = lines(3);
        assert_eq!(text.lines().count(), kinds.len());
        for (line, kind) in text.lines().zip(&kinds) {
            let request = parse_request(line).expect("the server's parser accepts the line");
            let op = Json::parse(line).unwrap().get("op").unwrap().as_str().unwrap().to_string();
            assert_eq!(
                op,
                match kind {
                    Kind::LinkScore => "link_score",
                    Kind::TopK => "topk",
                    Kind::Ingest => "ingest",
                }
            );
            drop(request);
        }
        let ingest = kinds.iter().filter(|&&k| k == Kind::Ingest).count() as f64 / 500.0;
        assert!((0.18..0.32).contains(&ingest), "ingest share {ingest}");
        // Ingest timestamps increase through the whole stream.
        let times: Vec<f64> = text
            .lines()
            .filter_map(|l| Json::parse(l).unwrap().get("edges").cloned())
            .flat_map(|e| e.as_array().unwrap().to_vec())
            .map(|e| e.as_array().unwrap()[2].as_f64().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]) && times[0] > 1.0);
    }

    #[test]
    fn replies_are_checked_against_their_request() {
        let ok = |line, kind| check_reply(line, kind);
        assert_eq!(ok(r#"{"ok":true,"score":0.5,"version":3}"#, Kind::LinkScore), Ok(3));
        assert_eq!(
            ok(r#"{"ok":true,"score":1.5,"version":3}"#, Kind::LinkScore),
            Err(Refused::Invalid)
        );
        assert_eq!(ok(r#"{"ok":true,"score":0.5}"#, Kind::LinkScore), Err(Refused::Invalid));
        assert_eq!(ok("garbage", Kind::LinkScore), Err(Refused::Invalid));
        assert_eq!(
            ok(r#"{"ok":false,"error":"overloaded","detail":"shard"}"#, Kind::TopK),
            Err(Refused::Overloaded)
        );
        assert_eq!(ok(r#"{"ok":false,"error":"unknown node"}"#, Kind::TopK), Err(Refused::Invalid));
        let sorted = r#"{"ok":true,"neighbors":[[1,0.9],[2,0.8],[3,0.7],[4,0.6],[5,0.5],[6,0.4],[7,0.3],[8,0.2]],"version":1}"#;
        assert_eq!(ok(sorted, Kind::TopK), Ok(1));
        let unsorted = sorted.replace("[1,0.9]", "[1,0.1]");
        assert_eq!(ok(&unsorted, Kind::TopK), Err(Refused::Invalid));
        let short = r#"{"ok":true,"neighbors":[[1,0.9]],"version":1}"#;
        assert_eq!(ok(short, Kind::TopK), Err(Refused::Invalid));
        assert_eq!(ok(r#"{"ok":true,"queued":8,"version":2}"#, Kind::Ingest), Ok(2));
        assert_eq!(
            ok(r#"{"ok":true,"queued":7,"version":2}"#, Kind::Ingest),
            Err(Refused::Invalid)
        );
    }
}
