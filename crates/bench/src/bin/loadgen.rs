//! `loadgen` — closed/open-loop load generator for the serving stack,
//! built to answer one question: what does each transport (`--io
//! blocking|reactor|both`) sustain at a given concurrency, and what do
//! its latency tails look like at that point?
//!
//! ```text
//! cargo run --release -p rwalk-bench --bin loadgen -- \
//!     --io both --conns 64 --secs 3 --mix link=90,topk=5,ingest=5
//! ```
//!
//! - **Closed loop** (`--mode closed`, default): each of `--conns`
//!   connections keeps exactly one request in flight — throughput is
//!   whatever the server sustains, latency is honest (no coordinated
//!   omission from a self-throttling client). On Linux the client is a
//!   single thread multiplexing every connection over epoll (the same
//!   readiness primitives the reactor uses), so client-side scheduling
//!   overhead does not drown the server signal on small hosts the way a
//!   thread-per-connection client would.
//! - **Open loop** (`--mode open`): requests are paced at `--rate` per
//!   second across all connections regardless of responses, the arrival
//!   pattern that actually drives a server past saturation. Pair with a
//!   small `--shard-budget` to watch admission control shed load while
//!   queue depth stays bounded.
//! - **Op mix** (`--mix link=W,topk=W,ingest=W`): weighted draw per
//!   request. Keys are drawn Zipfian (`--zipf`, default 0.99) over the
//!   model's nodes, so shard routing sees realistic skew.
//!
//! Latencies are recorded into `obs` histograms and reported as
//! p50/p95/p99 per op; rows append to `$BENCH_JSON` in the repo's
//! bench-shim schema (the `pXX` rows carry `min/mean/max = p50/p95/p99`).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use embed::EmbeddingMatrix;
use nn::{Mlp, OutputHead};
use par::ParConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rwalk_core::{Hyperparams, IncrementalEmbedder};
use rwserve::{BatchPolicy, EmbeddingStore, ReactorConfig, ReactorServer, Server, Service};

const NODES: usize = 10_000;
const DIM: usize = 8;
const TOPK_K: usize = 8;

fn main() {
    let cfg = Config::parse();
    println!(
        "loadgen: io={} mode={} conns={} secs={} rate={}/s mix={} zipf={} shards={} budget={}",
        cfg.io,
        cfg.mode,
        cfg.conns,
        cfg.secs,
        cfg.rate,
        cfg.mix_spec,
        cfg.zipf,
        cfg.shards,
        cfg.shard_budget
    );

    let mut results = Vec::new();
    if cfg.io == "blocking" || cfg.io == "both" {
        results.push(run_one(&cfg, "blocking"));
    }
    if cfg.io == "reactor" || cfg.io == "both" {
        results.push(run_one(&cfg, "reactor"));
    }
    if let [blocking, reactor] = results.as_slice() {
        let speedup = reactor.rps / blocking.rps.max(1e-9);
        println!(
            "\nloadgen/ab @ {} {} conns: blocking {:.0} rps (p99 {:.2} ms), \
             reactor {:.0} rps (p99 {:.2} ms) -> {speedup:.2}x",
            cfg.conns,
            cfg.mode,
            blocking.rps,
            blocking.worst_p99_ms,
            reactor.rps,
            reactor.worst_p99_ms
        );
    }
}

struct Config {
    io: String,
    mode: String,
    conns: usize,
    secs: f64,
    rate: f64,
    mix_spec: String,
    mix: Vec<(Op, u32)>,
    zipf: f64,
    seed: u64,
    shards: usize,
    shard_budget: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    LinkScore,
    TopK,
    Ingest,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::LinkScore => "link_score",
            Op::TopK => "topk",
            Op::Ingest => "ingest",
        }
    }
}

impl Config {
    fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut cfg = Self {
            io: "both".into(),
            mode: "closed".into(),
            conns: 64,
            secs: 3.0,
            rate: 5_000.0,
            mix_spec: "link=90,topk=5,ingest=5".into(),
            mix: Vec::new(),
            zipf: 0.99,
            seed: 42,
            shards: 0,
            shard_budget: 1024,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = || it.next().unwrap_or_else(|| panic!("{flag} needs a value")).clone();
            match flag.as_str() {
                "--io" => cfg.io = val(),
                "--mode" => cfg.mode = val(),
                "--conns" => cfg.conns = val().parse().expect("--conns"),
                "--secs" => cfg.secs = val().parse().expect("--secs"),
                "--rate" => cfg.rate = val().parse().expect("--rate"),
                "--mix" => cfg.mix_spec = val(),
                "--zipf" => cfg.zipf = val().parse().expect("--zipf"),
                "--seed" => cfg.seed = val().parse().expect("--seed"),
                "--shards" => cfg.shards = val().parse().expect("--shards"),
                "--shard-budget" => cfg.shard_budget = val().parse().expect("--shard-budget"),
                other => panic!("unknown flag {other:?}"),
            }
        }
        assert!(matches!(cfg.io.as_str(), "blocking" | "reactor" | "both"), "--io: {}", cfg.io);
        assert!(matches!(cfg.mode.as_str(), "closed" | "open"), "--mode: {}", cfg.mode);
        assert!(cfg.conns >= 1, "--conns must be at least 1");
        assert!(cfg.secs > 0.0, "--secs must be positive");
        assert!(cfg.rate > 0.0, "--rate must be positive");
        assert!(cfg.zipf >= 0.0, "--zipf must be non-negative");
        cfg.mix = parse_mix(&cfg.mix_spec);
        cfg
    }
}

/// Parses `link=90,topk=5,ingest=5` into weighted ops.
fn parse_mix(spec: &str) -> Vec<(Op, u32)> {
    let mut mix = Vec::new();
    for part in spec.split(',') {
        let (name, weight) = part
            .split_once('=')
            .unwrap_or_else(|| panic!("--mix entry {part:?} is not name=weight"));
        let op = match name.trim() {
            "link" | "link_score" => Op::LinkScore,
            "topk" => Op::TopK,
            "ingest" => Op::Ingest,
            other => panic!("--mix: unknown op {other:?} (valid: link, topk, ingest)"),
        };
        let weight: u32 =
            weight.trim().parse().unwrap_or_else(|_| panic!("--mix weight {weight:?}"));
        if weight > 0 {
            mix.push((op, weight));
        }
    }
    assert!(!mix.is_empty(), "--mix selected no ops");
    mix
}

/// Zipfian sampler over `0..n` by inverse-CDF lookup: exact, one binary
/// search per draw.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 1..=n {
            total += 1.0 / (i as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The serving stack under test: synthetic d=8 embeddings over 10k
/// nodes, the paper's 2-layer link FNN, and a live refresher so `ingest`
/// exercises the real write path.
fn make_service() -> Arc<Service> {
    let data: Vec<f32> = (0..NODES * DIM).map(|i| ((i % 17) as f32 - 8.0) * 0.05).collect();
    let emb = EmbeddingMatrix::from_vec(NODES, DIM, data);
    let store =
        Arc::new(EmbeddingStore::new(emb, Mlp::new(&[2 * DIM, 64, 1], OutputHead::Binary, 42)));
    let graph = tgraph::gen::preferential_attachment(NODES, 3, 7).undirected(true).build();
    let embedder = IncrementalEmbedder::new(Hyperparams::paper_optimal().quick_test(), &graph);
    // The refresher makes `ingest` a real op (edges are queued for the
    // incremental embedder), but its interval is kept past the run
    // length: a mid-run refresh would steal a large random CPU slice
    // from whichever transport happens to be under measurement.
    let service = Service::new(store, ParConfig::with_threads(2), BatchPolicy::default())
        .with_refresher(embedder, Duration::from_secs(30));
    Arc::new(service)
}

/// Either transport, started and stoppable; only the address matters to
/// the clients.
enum Running {
    Blocking(Server),
    Reactor(ReactorServer),
}

impl Running {
    fn addr(&self) -> SocketAddr {
        match self {
            Running::Blocking(s) => s.local_addr(),
            Running::Reactor(s) => s.local_addr(),
        }
    }

    fn service(&self) -> &Arc<Service> {
        match self {
            Running::Blocking(s) => s.service(),
            Running::Reactor(s) => s.service(),
        }
    }

    fn shutdown(self) {
        match self {
            Running::Blocking(s) => s.shutdown(),
            Running::Reactor(s) => s.shutdown(),
        }
    }
}

struct RunResult {
    rps: f64,
    worst_p99_ms: f64,
}

#[allow(clippy::too_many_lines)]
fn run_one(cfg: &Config, io: &str) -> RunResult {
    let service = make_service();
    let server = if io == "reactor" {
        let rc = ReactorConfig {
            shards: cfg.shards,
            shard_budget: cfg.shard_budget,
            ..ReactorConfig::default()
        };
        Running::Reactor(
            ReactorServer::start(Arc::clone(&service), "127.0.0.1:0", rc).expect("start reactor"),
        )
    } else {
        // Thread-per-connection: the pool must have one handler per
        // connection or concurrency silently caps at the pool size.
        Running::Blocking(
            Server::start(Arc::clone(&service), "127.0.0.1:0", cfg.conns).expect("start blocking"),
        )
    };
    let addr = server.addr();

    // Latency sink: one obs histogram per op, in a private registry.
    let registry = Arc::new(obs::Registry::new());
    let rec = obs::Recorder::with_registry(Arc::clone(&registry));
    let zipf = Arc::new(Zipf::new(NODES, cfg.zipf));
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));

    // Sample server-side queue depths during the run: the acceptance
    // check is that admission control keeps them bounded past
    // saturation, which the final snapshot alone cannot show.
    let max_shard_depth = Arc::new(AtomicU64::new(0));
    let sampler = {
        let stop = Arc::clone(&stop);
        let svc = Arc::clone(&service);
        let max_shard = Arc::clone(&max_shard_depth);
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let snap = svc.registry().snapshot();
                for shard in 0..64 {
                    let name = format!("serve_shard_queue_depth{{shard=\"{shard}\"}}");
                    match snap.gauge(&name) {
                        Some(depth) => max_shard.fetch_max(depth.max(0) as u64, Ordering::Relaxed),
                        None => break,
                    };
                }
                thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let deadline = Instant::now() + Duration::from_secs_f64(cfg.secs);
    let started = Instant::now();
    if cfg.mode == "closed" {
        let hists: Vec<(Op, obs::HistogramHandle)> = cfg
            .mix
            .iter()
            .map(|&(op, _)| {
                (op, rec.histogram(&format!("loadgen_latency_ns{{op=\"{}\"}}", op.name())))
            })
            .collect();
        run_closed(addr, cfg, deadline, &zipf, &hists, &sent, &ok, &overloaded, &errors);
    } else {
        let per_conn_interval = Duration::from_secs_f64(cfg.conns as f64 / cfg.rate);
        let workers: Vec<_> = (0..cfg.conns)
            .map(|c| {
                let zipf = Arc::clone(&zipf);
                let mix = cfg.mix.clone();
                let seed = cfg.seed;
                let hists: Vec<(Op, obs::HistogramHandle)> = mix
                    .iter()
                    .map(|&(op, _)| {
                        (op, rec.histogram(&format!("loadgen_latency_ns{{op=\"{}\"}}", op.name())))
                    })
                    .collect();
                let (sent, ok, overloaded, errors) = (
                    Arc::clone(&sent),
                    Arc::clone(&ok),
                    Arc::clone(&overloaded),
                    Arc::clone(&errors),
                );
                thread::spawn(move || {
                    let mut rng =
                        StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).ok();
                    open_loop(
                        stream,
                        deadline,
                        per_conn_interval,
                        &mix,
                        &zipf,
                        &mut rng,
                        &hists,
                        &sent,
                        &ok,
                        &overloaded,
                        &errors,
                    );
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client thread panicked");
        }
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Release);
    sampler.join().expect("sampler thread panicked");

    let total_sent = sent.load(Ordering::Relaxed);
    let total_ok = ok.load(Ordering::Relaxed);
    let total_overloaded = overloaded.load(Ordering::Relaxed);
    let total_errors = errors.load(Ordering::Relaxed);
    let answered = total_ok + total_overloaded + total_errors;
    let rps = answered as f64 / elapsed.as_secs_f64();
    let shed = server.service().registry().snapshot().counter("serve_shed_total").unwrap_or(0);

    println!(
        "\n[{io}/{}] {answered}/{total_sent} answered in {:.2}s -> {rps:.0} rps \
         ({total_ok} ok, {total_overloaded} overloaded, {total_errors} errors; \
         server shed {shed}; max shard depth {})",
        cfg.mode,
        elapsed.as_secs_f64(),
        max_shard_depth.load(Ordering::Relaxed),
    );
    println!("| op | count | p50 us | p95 us | p99 us |");
    println!("|---|---|---|---|---|");
    let snapshot = registry.snapshot();
    let mut worst_p99 = 0.0f64;
    for &(op, _) in &cfg.mix {
        let name = format!("loadgen_latency_ns{{op=\"{}\"}}", op.name());
        let Some(h) = snapshot.histogram(&name) else { continue };
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        worst_p99 = worst_p99.max(p99);
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.0} |",
            op.name(),
            h.count,
            p50 / 1e3,
            p95 / 1e3,
            p99 / 1e3
        );
        append_json(
            &format!("serve/loadgen/{}/{io}/{}/p50_p95_p99", cfg.mode, op.name()),
            h.count as usize,
            Duration::from_nanos(p50 as u64),
            Duration::from_nanos(p95 as u64),
            Duration::from_nanos(p99 as u64),
        );
    }
    // Throughput row: min/mean/max all carry mean ns-per-request so the
    // schema stays uniform; `samples` is the answered-request count.
    let ns_per_req = Duration::from_nanos(
        (elapsed.as_nanos() as u64 * cfg.conns as u64).checked_div(answered).unwrap_or(0),
    );
    append_json(
        &format!("serve/loadgen/{}/{io}/ns_per_req", cfg.mode),
        answered as usize,
        ns_per_req,
        ns_per_req,
        ns_per_req,
    );
    if total_overloaded > 0 {
        // Shed row: samples = overloaded responses; min/mean/max carry
        // the bounded max shard queue depth observed while shedding.
        let depth = Duration::from_nanos(max_shard_depth.load(Ordering::Relaxed));
        append_json(
            &format!("serve/loadgen/{}/{io}/shed_max_depth", cfg.mode),
            total_overloaded as usize,
            depth,
            depth,
            depth,
        );
    }

    server.shutdown();
    RunResult { rps, worst_p99_ms: worst_p99 / 1e6 }
}

/// One request drawn from the mix, serialized to a wire line.
fn draw_request(mix: &[(Op, u32)], zipf: &Zipf, rng: &mut StdRng, t: f64) -> (Op, String) {
    let total: u32 = mix.iter().map(|&(_, w)| w).sum();
    let mut roll = rng.gen_range(0..total);
    let op = mix
        .iter()
        .find(|&&(_, w)| {
            if roll < w {
                true
            } else {
                roll -= w;
                false
            }
        })
        .map_or(Op::LinkScore, |&(op, _)| op);
    let u = zipf.draw(rng);
    let line = match op {
        Op::LinkScore => {
            let v = zipf.draw(rng);
            format!("{{\"op\":\"link_score\",\"u\":{u},\"v\":{v}}}")
        }
        Op::TopK => format!("{{\"op\":\"topk\",\"u\":{u},\"k\":{TOPK_K}}}"),
        Op::Ingest => {
            let v = zipf.draw(rng);
            format!("{{\"op\":\"ingest\",\"edges\":[[{u},{v},{t:.3}]]}}")
        }
    };
    (op, line)
}

/// Classifies a response line into ok / overloaded / other error.
fn classify(line: &str, ok: &AtomicU64, overloaded: &AtomicU64, errors: &AtomicU64) {
    if line.contains("\"ok\":true") {
        ok.fetch_add(1, Ordering::Relaxed);
    } else if line.contains("\"error\":\"overloaded\"") {
        overloaded.fetch_add(1, Ordering::Relaxed);
    } else {
        errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Closed loop, epoll-multiplexed: one thread drives every connection,
/// keeping exactly one request in flight per connection. The closed-loop
/// semantics are identical to a thread-per-connection client; only the
/// client's own cost changes, which is the point — the run should
/// measure the server, not the load generator's context switches.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_closed(
    addr: SocketAddr,
    cfg: &Config,
    deadline: Instant,
    zipf: &Zipf,
    hists: &[(Op, obs::HistogramHandle)],
    sent: &AtomicU64,
    ok: &AtomicU64,
    overloaded: &AtomicU64,
    errors: &AtomicU64,
) {
    use std::io::Read;
    use std::os::fd::AsRawFd;

    use rwserve::reactor::conn::{Frame, LineFramer, MAX_LINE_BYTES};
    use rwserve::reactor::sys::{Epoll, EpollEvent, EPOLLIN};

    struct MuxConn {
        stream: TcpStream,
        framer: LineFramer,
        rng: StdRng,
        inflight: Option<(Op, Instant)>,
        t: f64,
        done: bool,
    }

    /// Writes the whole line, spinning briefly on `WouldBlock`. With one
    /// request outstanding the send buffer is empty at every send, so
    /// the spin path is essentially never taken.
    fn write_full(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
        while !buf.is_empty() {
            match stream.write(buf) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn send_next(conn: &mut MuxConn, mix: &[(Op, u32)], zipf: &Zipf, sent: &AtomicU64) {
        conn.t += 0.001;
        let (op, line) = draw_request(mix, zipf, &mut conn.rng, conn.t);
        let mut wire = line.into_bytes();
        wire.push(b'\n');
        conn.inflight = Some((op, Instant::now()));
        if write_full(&mut conn.stream, &wire).is_err() {
            conn.inflight = None;
            conn.done = true;
        } else {
            sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    let epoll = Epoll::new().expect("epoll");
    let mut conns: Vec<MuxConn> = (0..cfg.conns)
        .map(|c| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).expect("nonblocking");
            epoll.add(stream.as_raw_fd(), EPOLLIN, c as u64).expect("epoll add");
            MuxConn {
                stream,
                framer: LineFramer::new(MAX_LINE_BYTES),
                rng: StdRng::seed_from_u64(cfg.seed ^ (c as u64).wrapping_mul(0x9e37_79b9)),
                inflight: None,
                t: 1_000.0,
                done: false,
            }
        })
        .collect();
    for conn in &mut conns {
        send_next(conn, &cfg.mix, zipf, sent);
    }

    // Past the deadline no new requests go out; the loop then only
    // drains in-flight responses, with a hard stop in case the server
    // drops one on the floor (which would itself be a bug worth seeing
    // as missing samples rather than a hang).
    let hard_stop = deadline + Duration::from_secs(5);
    let mut events = [EpollEvent::default(); 128];
    let mut buf = [0u8; 16 * 1024];
    loop {
        let waiting = conns.iter().any(|c| !c.done && c.inflight.is_some());
        let now = Instant::now();
        if (now >= deadline && !waiting) || now >= hard_stop {
            break;
        }
        let n = epoll.wait(&mut events, 100).expect("epoll wait");
        for ev in &events[..n] {
            let idx = { ev.data } as usize;
            let conn = &mut conns[idx];
            if conn.done {
                continue;
            }
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.done = true;
                        epoll.delete(conn.stream.as_raw_fd()).ok();
                        break;
                    }
                    Ok(n) => {
                        let Ok(frames) = conn.framer.push(&buf[..n]) else {
                            conn.done = true;
                            epoll.delete(conn.stream.as_raw_fd()).ok();
                            break;
                        };
                        for frame in frames {
                            let Frame::Line(line) = frame else { continue };
                            if let Some((op, t0)) = conn.inflight.take() {
                                if let Some((_, h)) = hists.iter().find(|(o, _)| *o == op) {
                                    h.record_duration(t0.elapsed());
                                }
                                classify(line.trim(), ok, overloaded, errors);
                            }
                            if Instant::now() < deadline {
                                send_next(conn, &cfg.mix, zipf, sent);
                            } else {
                                conn.stream.shutdown(std::net::Shutdown::Write).ok();
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.done = true;
                        epoll.delete(conn.stream.as_raw_fd()).ok();
                        break;
                    }
                }
            }
        }
    }
}

/// Closed loop, thread-per-connection fallback for hosts without the
/// raw-epoll shim. Same semantics, heavier client.
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
#[allow(clippy::too_many_arguments)]
fn run_closed(
    addr: SocketAddr,
    cfg: &Config,
    deadline: Instant,
    zipf: &Zipf,
    hists: &[(Op, obs::HistogramHandle)],
    sent: &AtomicU64,
    ok: &AtomicU64,
    overloaded: &AtomicU64,
    errors: &AtomicU64,
) {
    thread::scope(|scope| {
        for c in 0..cfg.conns {
            let hists = hists.to_vec();
            scope.spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(cfg.seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone stream");
                let mut reader = BufReader::new(stream);
                let mut response = String::new();
                let mut t = 1_000.0;
                while Instant::now() < deadline {
                    t += 0.001;
                    let (op, line) = draw_request(&cfg.mix, zipf, &mut rng, t);
                    let t0 = Instant::now();
                    if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
                        return;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                    response.clear();
                    if reader.read_line(&mut response).unwrap_or(0) == 0 {
                        return; // server closed on us
                    }
                    let elapsed = t0.elapsed();
                    if let Some((_, h)) = hists.iter().find(|(o, _)| *o == op) {
                        h.record_duration(elapsed);
                    }
                    classify(response.trim(), ok, overloaded, errors);
                }
            });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn open_loop(
    stream: TcpStream,
    deadline: Instant,
    interval: Duration,
    mix: &[(Op, u32)],
    zipf: &Zipf,
    rng: &mut StdRng,
    hists: &[(Op, obs::HistogramHandle)],
    sent: &AtomicU64,
    ok: &Arc<AtomicU64>,
    overloaded: &Arc<AtomicU64>,
    errors: &Arc<AtomicU64>,
) {
    // Send half paces by the clock; read half matches responses FIFO
    // (both transports answer in request order per connection), so each
    // latency sample spans queueing *and* service time — the open-loop
    // point.
    let in_flight: Arc<Mutex<VecDeque<(Op, Instant)>>> = Arc::new(Mutex::new(VecDeque::new()));
    let reader_flights = Arc::clone(&in_flight);
    let reader_stream = stream.try_clone().expect("clone stream");
    let (ok2, over2, err2) = (Arc::clone(ok), Arc::clone(overloaded), Arc::clone(errors));
    let hists2: Vec<(Op, obs::HistogramHandle)> = hists.to_vec();
    let reader = thread::spawn(move || {
        let mut reader = BufReader::new(reader_stream);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let started = reader_flights.lock().expect("in-flight lock").pop_front();
            if let Some((op, t0)) = started {
                if let Some((_, h)) = hists2.iter().find(|(o, _)| *o == op) {
                    h.record_duration(t0.elapsed());
                }
            }
            classify(line.trim(), &ok2, &over2, &err2);
        }
    });

    let mut writer = stream;
    let mut next = Instant::now();
    let mut t = 1_000.0;
    while Instant::now() < deadline {
        let now = Instant::now();
        if now < next {
            thread::sleep(next - now);
        }
        next += interval;
        t += 0.001;
        let (op, line) = draw_request(mix, zipf, rng, t);
        in_flight.lock().expect("in-flight lock").push_back((op, Instant::now()));
        if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
            break;
        }
        sent.fetch_add(1, Ordering::Relaxed);
    }
    // Half-close: the server answers everything in flight, then EOF ends
    // the reader thread.
    writer.shutdown(std::net::Shutdown::Write).ok();
    reader.join().expect("reader thread panicked");
}

fn append_json(name: &str, samples: usize, min: Duration, mean: Duration, max: Duration) {
    let Some(path) = std::env::var_os("BENCH_JSON").filter(|p| !p.is_empty()) else {
        return;
    };
    let line = format!(
        "{{\"bench\":\"{name}\",\"samples\":{samples},\"min_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}\n",
        min.as_nanos(),
        mean.as_nanos(),
        max.as_nanos(),
    );
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("BENCH_JSON: could not append: {e}");
    }
}
