//! Request dispatch: protocol lines in, protocol lines out.
//!
//! [`Service`] ties the subsystem together — store, query engine,
//! metrics, and (optionally) the background refresher — behind one
//! transport-agnostic entry point, [`Service::handle_line`]. The TCP
//! server is a thin loop around it, and tests can exercise the whole
//! protocol without a socket.
//!
//! Every `link_score` is scored on the thread that already holds it: a
//! blocking connection handler scores its one request inline, and a
//! shard worker scores its whole drained group in one forward pass
//! ([`Service::respond_batch`]). Nothing waits for company.

use std::sync::Arc;
use std::time::{Duration, Instant};

use par::ParConfig;
use rwalk_core::{IncrementalEmbedder, ServeStats};
use tgraph::NodeId;

use crate::engine::{score_pairs, QueryError};
use crate::json::{obj, Json};
use crate::metrics::{Metrics, OpKind};
use crate::protocol::{error_response, ok_response, parse_request, Request};
use crate::refresh::Refresher;
use crate::store::EmbeddingStore;
use crate::QueryEngine;

/// Retained only so existing callers of [`Service::new`] keep compiling.
/// `link_score`s are scored on the thread that holds them, so there is
/// no batching policy left to set. The benchmark harness (`benchmark/`)
/// still passes `BatchPolicy::default()`; the type goes when that
/// harness next changes (ROADMAP item 12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPolicy {}

/// Per-op request-latency histograms, resolved once at construction so
/// the request path never touches the registry's shard locks.
#[derive(Debug)]
struct OpLatency {
    link_score: Arc<obs::Histogram>,
    embedding: Arc<obs::Histogram>,
    topk: Arc<obs::Histogram>,
    ingest: Arc<obs::Histogram>,
    stats: Arc<obs::Histogram>,
}

impl OpLatency {
    fn resolve(registry: &obs::Registry) -> Self {
        let h = |op: &str| registry.histogram(&format!("serve_request_ns{{op=\"{op}\"}}"));
        Self {
            link_score: h("link_score"),
            embedding: h("embedding"),
            topk: h("topk"),
            ingest: h("ingest"),
            stats: h("stats"),
        }
    }

    fn for_op(&self, op: OpKind) -> &Arc<obs::Histogram> {
        match op {
            OpKind::LinkScore => &self.link_score,
            OpKind::Embedding => &self.embedding,
            OpKind::TopK => &self.topk,
            OpKind::Ingest => &self.ingest,
            OpKind::Stats => &self.stats,
        }
    }
}

/// The full serving stack minus the transport.
#[derive(Debug)]
pub struct Service {
    store: Arc<EmbeddingStore>,
    engine: QueryEngine,
    metrics: Arc<Metrics>,
    registry: Arc<obs::Registry>,
    latency: OpLatency,
    // One sample per `link_score` forward pass: how many pairs it scored.
    batch_sizes: Arc<obs::Histogram>,
    refresher: Option<Refresher>,
}

impl Service {
    /// Builds the stack over `store`: a query engine with `par`
    /// parallelism for scans. Each service owns its own metrics registry
    /// (scraped via the `metrics` op or `GET /metrics`), isolated from
    /// the process-global one.
    pub fn new(store: Arc<EmbeddingStore>, par: ParConfig, _policy: BatchPolicy) -> Self {
        let metrics = Arc::new(Metrics::new());
        let registry = Arc::new(obs::Registry::new());
        let engine = QueryEngine::new(Arc::clone(&store), par);
        let latency = OpLatency::resolve(&registry);
        let batch_sizes = registry.histogram("serve_batch_size");
        Self { store, engine, metrics, registry, latency, batch_sizes, refresher: None }
    }

    /// Attaches a background refresher, enabling the `ingest` op. The
    /// embedder must be tracking the same graph the store's snapshot was
    /// built from. Warm refreshes run on one thread fewer than this
    /// service's pool (see [`Refresher::spawn`]).
    #[must_use]
    pub fn with_refresher(mut self, embedder: IncrementalEmbedder, interval: Duration) -> Self {
        self.refresher = Some(Refresher::spawn(
            Arc::clone(&self.store),
            embedder,
            Arc::clone(&self.metrics),
            interval,
            self.engine.par(),
        ));
        self
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &Arc<EmbeddingStore> {
        &self.store
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStats {
        self.metrics.snapshot(self.store.version())
    }

    /// The service's metrics registry (per-op latency histograms and
    /// forward-pass sizes).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Renders the service registry in Prometheus text exposition format
    /// — the payload behind both the `metrics` op and `GET /metrics`.
    pub fn prometheus_text(&self) -> String {
        self.registry.snapshot().to_prometheus()
    }

    /// Answers one protocol line with one response line (no trailing
    /// newline). Never panics on caller input: malformed JSON, unknown
    /// ops, and invalid queries all become `"ok":false` responses.
    pub fn handle_line(&self, line: &str) -> String {
        match parse_request(line) {
            Ok(request) => self.respond(request),
            Err(message) => self.reject(&message),
        }
    }

    /// Records a request that failed before dispatch (unparseable line,
    /// framing overflow) and returns its structured error line. The
    /// reactor calls this directly because it parses on the event loop
    /// and only ships valid requests to shard workers.
    pub fn reject(&self, message: &str) -> String {
        self.metrics.record(OpKind::Stats, Duration::ZERO, false);
        error_response(message)
    }

    /// Dispatches one already-parsed request, with per-op metrics.
    pub fn respond(&self, request: Request) -> String {
        let started = Instant::now();
        let (op, outcome) = self.dispatch(request);
        let ok = outcome.is_ok();
        let response = match outcome {
            Ok(line) => line,
            Err(message) => error_response(&message),
        };
        let elapsed = started.elapsed();
        self.metrics.record(op, elapsed, ok);
        self.latency.for_op(op).record_duration(elapsed);
        response
    }

    /// Dispatches a slice of requests drained together by one shard
    /// worker, scoring all their `link_score`s in one forward pass on the
    /// calling thread, a group of one included. The drained queue *is*
    /// the batch. Responses come back in `requests` order.
    pub fn respond_batch(&self, requests: Vec<Request>) -> Vec<String> {
        let mut pairs = Vec::new();
        let mut slots = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            if let Request::LinkScore { u, v } = *r {
                slots.push(i);
                pairs.push((u, v));
            }
        }
        let mut out: Vec<Option<String>> = (0..requests.len()).map(|_| None).collect();
        if !pairs.is_empty() {
            let started = Instant::now();
            let (results, version) = self.score(&pairs);
            // Every request in the group waited for the whole forward
            // pass, so the group latency is each request's latency.
            let elapsed = started.elapsed();
            for (&slot, result) in slots.iter().zip(results) {
                let reply = score_reply(result, version);
                self.metrics.record(OpKind::LinkScore, elapsed, reply.is_ok());
                self.latency.for_op(OpKind::LinkScore).record_duration(elapsed);
                out[slot] = Some(reply.unwrap_or_else(|message| error_response(&message)));
            }
        }
        requests
            .into_iter()
            .zip(out)
            .map(|(request, done)| done.unwrap_or_else(|| self.respond(request)))
            .collect()
    }

    /// Scores `pairs` in one forward pass against the current snapshot
    /// and records the pass. Returns per-pair results and the version
    /// that produced them.
    fn score(&self, pairs: &[(NodeId, NodeId)]) -> (Vec<Result<f32, QueryError>>, u64) {
        let snap = self.store.load();
        let results = score_pairs(&snap, pairs);
        self.metrics.record_batch(pairs.len());
        self.batch_sizes.record(pairs.len() as u64);
        (results, snap.version)
    }

    fn dispatch(&self, request: Request) -> (OpKind, Result<String, String>) {
        match request {
            Request::LinkScore { u, v } => {
                let (mut results, version) = self.score(&[(u, v)]);
                let result = results.pop().expect("one pair in, one result out");
                (OpKind::LinkScore, score_reply(result, version))
            }
            Request::Embedding { u } => {
                let outcome = self
                    .engine
                    .embedding(u)
                    .map(|(row, version)| {
                        let values = row.iter().map(|&x| Json::Num(f64::from(x))).collect();
                        ok_response(vec![("embedding", Json::Arr(values))], version)
                    })
                    .map_err(|e| e.to_string());
                (OpKind::Embedding, outcome)
            }
            Request::TopK { u, k } => {
                let outcome = self
                    .engine
                    .topk_neighbors(u, k)
                    .map(|(neighbors, version)| {
                        let items = neighbors
                            .into_iter()
                            .map(|(v, s)| {
                                Json::Arr(vec![Json::Num(f64::from(v)), Json::Num(f64::from(s))])
                            })
                            .collect();
                        ok_response(vec![("neighbors", Json::Arr(items))], version)
                    })
                    .map_err(|e| e.to_string());
                (OpKind::TopK, outcome)
            }
            Request::Ingest { edges } => {
                let outcome = match &self.refresher {
                    Some(refresher) => refresher.enqueue(edges).map(|queued| {
                        ok_response(
                            vec![("queued", Json::Num(queued as f64))],
                            self.store.version(),
                        )
                    }),
                    None => Err("ingest unavailable: server has no refresher".to_string()),
                };
                (OpKind::Ingest, outcome)
            }
            Request::Stats => {
                let s = self.stats();
                let payload = obj([
                    ("uptime_secs", Json::Num(s.uptime_secs)),
                    ("requests_total", Json::Num(s.requests_total as f64)),
                    ("errors", Json::Num(s.errors as f64)),
                    ("link_score", Json::Num(s.link_score as f64)),
                    ("embedding", Json::Num(s.embedding as f64)),
                    ("topk", Json::Num(s.topk as f64)),
                    ("ingest", Json::Num(s.ingest as f64)),
                    ("throughput_rps", Json::Num(s.throughput_rps())),
                    ("mean_latency_us", Json::Num(s.mean_latency_us)),
                    ("max_latency_us", Json::Num(s.max_latency_us)),
                    ("batches", Json::Num(s.batches as f64)),
                    ("mean_batch", Json::Num(s.mean_batch)),
                    ("refreshes", Json::Num(s.refreshes as f64)),
                ]);
                (OpKind::Stats, Ok(ok_response(vec![("stats", payload)], s.snapshot_version)))
            }
            Request::Metrics => {
                let text = self.prometheus_text();
                let outcome =
                    Ok(ok_response(vec![("metrics", Json::Str(text))], self.store.version()));
                (OpKind::Stats, outcome)
            }
        }
    }
}

/// The protocol reply to one scored pair.
fn score_reply(result: Result<f32, QueryError>, version: u64) -> Result<String, String> {
    result
        .map(|score| ok_response(vec![("score", Json::Num(f64::from(score)))], version))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use embed::EmbeddingMatrix;
    use nn::{Mlp, OutputHead};

    fn service() -> Service {
        let n = 12;
        let d = 4;
        let data: Vec<f32> = (0..n * d).map(|i| ((i % 5) as f32 - 2.0) * 0.2).collect();
        let emb = EmbeddingMatrix::from_vec(n, d, data);
        let store =
            Arc::new(EmbeddingStore::new(emb, Mlp::new(&[2 * d, 8, 1], OutputHead::Binary, 42)));
        Service::new(store, ParConfig::with_threads(2), BatchPolicy::default())
    }

    #[test]
    fn every_op_round_trips_through_the_protocol() {
        let svc = service();
        let score = Json::parse(&svc.handle_line(r#"{"op":"link_score","u":1,"v":2}"#)).unwrap();
        assert_eq!(score.get("ok"), Some(&Json::Bool(true)));
        let p = score.get("score").and_then(Json::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(score.get("version").and_then(Json::as_u64), Some(1));

        let emb = Json::parse(&svc.handle_line(r#"{"op":"embedding","u":3}"#)).unwrap();
        assert_eq!(emb.get("embedding").and_then(Json::as_array).map(<[Json]>::len), Some(4));

        let topk = Json::parse(&svc.handle_line(r#"{"op":"topk","u":0,"k":3}"#)).unwrap();
        assert_eq!(topk.get("neighbors").and_then(Json::as_array).map(<[Json]>::len), Some(3));

        let stats = Json::parse(&svc.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let payload = stats.get("stats").unwrap();
        assert_eq!(payload.get("link_score").and_then(Json::as_u64), Some(1));
        assert_eq!(payload.get("topk").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn metrics_op_returns_valid_prometheus_text() {
        let svc = service();
        svc.handle_line(r#"{"op":"link_score","u":1,"v":2}"#);
        svc.handle_line(r#"{"op":"topk","u":0,"k":3}"#);
        let v = Json::parse(&svc.handle_line(r#"{"op":"metrics"}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let text = v.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("# TYPE serve_request_ns histogram"), "missing TYPE line:\n{text}");
        assert!(text.contains(r#"serve_request_ns_count{op="link_score"} 1"#), "{text}");
        assert!(text.contains(r#"serve_request_ns_count{op="topk"} 1"#), "{text}");
        // The lone link_score was one forward pass of one pair.
        assert!(text.contains("serve_batch_size_count 1"), "{text}");
        // Exposition-format sanity: every non-comment line is `name value`
        // with a parseable numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        }
    }

    #[test]
    fn respond_batch_matches_per_request_dispatch() {
        let svc = service();
        let lines = [
            r#"{"op":"link_score","u":1,"v":2}"#,
            r#"{"op":"embedding","u":3}"#,
            r#"{"op":"link_score","u":4,"v":5}"#,
            r#"{"op":"topk","u":0,"k":2}"#,
            r#"{"op":"link_score","u":0,"v":999}"#, // per-request error
        ];
        let requests: Vec<_> =
            lines.iter().map(|l| crate::protocol::parse_request(l).unwrap()).collect();
        let batched = svc.respond_batch(requests);
        let individual: Vec<_> = lines.iter().map(|l| svc.handle_line(l)).collect();
        assert_eq!(batched, individual);
        // Both paths counted their requests.
        assert_eq!(svc.stats().link_score, 6);
        assert_eq!(svc.stats().errors, 2);
    }

    #[test]
    fn failures_are_structured_and_counted() {
        let svc = service();
        for line in [
            "this is not json",
            r#"{"op":"link_score","u":0,"v":999}"#,
            r#"{"op":"topk","u":0,"k":0}"#,
            r#"{"op":"embedding","u":400}"#,
            r#"{"op":"ingest","edges":[[1,2,0.5]]}"#, // no refresher attached
        ] {
            let v = Json::parse(&svc.handle_line(line)).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "line {line:?}");
            assert!(v.get("error").and_then(Json::as_str).is_some());
        }
        assert_eq!(svc.stats().errors, 5);
        // The service keeps answering after errors.
        let again = Json::parse(&svc.handle_line(r#"{"op":"link_score","u":1,"v":2}"#)).unwrap();
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn lone_link_scores_wait_for_nothing() {
        // Scored on the calling thread, 1 000 sequential requests take a
        // few ms even unoptimized. Any per-request linger of 100 µs or
        // more would push the loop past 100 ms.
        let svc = service();
        let started = Instant::now();
        for i in 0..1000u32 {
            let line = format!(r#"{{"op":"link_score","u":{},"v":{}}}"#, i % 12, (i * 5 + 1) % 12);
            assert!(svc.handle_line(&line).starts_with(r#"{"ok":true"#));
        }
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(100), "1 000 link_scores took {elapsed:?}");
        let stats = svc.stats();
        assert_eq!((stats.batches, stats.mean_batch), (1000, 1.0), "one pass per request");
    }

    /// A service over a 120-node graph with a live refresher.
    fn ingesting_service() -> (Service, Arc<EmbeddingStore>) {
        let g = tgraph::gen::preferential_attachment(120, 2, 5).undirected(true).build();
        let hp = rwalk_core::Hyperparams::paper_optimal().quick_test();
        let mut embedder = IncrementalEmbedder::new(hp.clone(), &g);
        let emb = embedder.refresh().clone();
        let mlp = Mlp::new(&[2 * emb.dim(), 8, 1], OutputHead::Binary, hp.seed);
        let store = Arc::new(EmbeddingStore::new(emb, mlp));
        let svc =
            Service::new(Arc::clone(&store), ParConfig::with_threads(2), BatchPolicy::default())
                .with_refresher(embedder, Duration::from_secs(60));
        (svc, store)
    }

    #[test]
    fn ingest_refuses_a_sparse_endpoint_and_queues_nothing() {
        let (svc, store) = ingesting_service();
        let line = format!(r#"{{"op":"ingest","edges":[[0,1,2.0],[0,{},2.0]]}}"#, u32::MAX);
        let v = Json::parse(&svc.handle_line(&line)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{v}");
        let error = v.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with("edges[1] [0, 4294967295]"), "{error}");
        assert!(error.contains("growth limit 124"), "{error}");
        // Dropping the service joins the refresher after it has processed
        // everything queued; the refused batch must not have been.
        drop(svc);
        assert_eq!(store.version(), 1);
        assert_eq!(store.load().emb.num_nodes(), 120);
    }

    #[test]
    fn ingest_accepts_dense_growth_across_requests_before_a_publish() {
        let (svc, store) = ingesting_service();
        // 120 known nodes and one edge allow ids below 122.
        let first = svc.handle_line(r#"{"op":"ingest","edges":[[0,121,2.0]]}"#);
        assert!(first.starts_with(r#"{"ok":true"#), "{first}");
        // Node 121 is now known whether or not a refresh has published
        // it, so one more edge reaches 122.
        let second = svc.handle_line(r#"{"op":"ingest","edges":[[121,122,2.0]]}"#);
        assert!(second.starts_with(r#"{"ok":true"#), "{second}");
        let third = svc.handle_line(r#"{"op":"ingest","edges":[[122,125,2.0]]}"#);
        assert!(third.contains("edges[0] [122, 125]"), "{third}");
        drop(svc);
        assert_eq!(store.load().emb.num_nodes(), 123);
    }
}
