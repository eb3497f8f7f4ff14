//! Background model refresh: ingest streamed edges, re-embed off the hot
//! path, publish new snapshots.
//!
//! The paper's own motivation (§VII-B) is that a deployed graph evolves
//! and "an entire pipeline needs to run" to keep up; the workspace's
//! [`IncrementalEmbedder`] makes that refresh cheap (dirty-vertex
//! re-walks + warm-start fine-tuning), and this module keeps the expense
//! off the query path entirely. Queries read whatever snapshot is
//! current; the refresher ingests queued edges, refreshes embeddings, and
//! publishes a new snapshot — the FNN weights carry forward unchanged
//! (classifier retraining is a heavier, offline operation).

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use par::ParConfig;
use rwalk_core::IncrementalEmbedder;
use tgraph::TemporalEdge;

use crate::metrics::Metrics;
use crate::store::EmbeddingStore;

struct RefreshState {
    inbox: Vec<TemporalEdge>,
    // One past the largest endpoint accepted so far; with the served
    // node count it sets how far the next batch may grow the graph.
    accepted_nodes: u64,
    stop: bool,
}

struct RefreshShared {
    state: Mutex<RefreshState>,
    wake: Condvar,
}

/// Handle to the refresh thread. Dropping it stops the loop (after at
/// most one in-flight refresh) and joins the thread.
pub struct Refresher {
    shared: Arc<RefreshShared>,
    store: Arc<EmbeddingStore>,
    worker: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Refresher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Refresher").finish_non_exhaustive()
    }
}

/// Pool for warm refreshes on a service whose own pool is `service`:
/// `max(1, threads − 1)` threads. The refresher runs back to back under
/// steady ingest, so a refresh on every core would take them all from the
/// reactor and the shards, and a faster refresh would only mean more of
/// them.
fn warm_refresh_pool(service: &ParConfig) -> ParConfig {
    ParConfig::with_threads(service.threads().saturating_sub(1))
}

impl Refresher {
    /// Spawns the refresh loop. Every `interval` (or sooner, when edges
    /// arrive) it drains the inbox; if anything was queued it ingests,
    /// refreshes, and publishes.
    ///
    /// The embedder should have had one initial `refresh()` already (its
    /// embedding feeding the store's first snapshot), so background
    /// cycles are incremental rather than full rebuilds. Those warm
    /// refreshes run on one thread fewer than the service's pool `par`
    /// (but at least one), leaving a core to the read path; a never-warmed
    /// embedder's from-scratch first refresh keeps its own pool.
    pub fn spawn(
        store: Arc<EmbeddingStore>,
        mut embedder: IncrementalEmbedder,
        metrics: Arc<Metrics>,
        interval: Duration,
        par: &ParConfig,
    ) -> Self {
        let warm = warm_refresh_pool(par);
        let shared = Arc::new(RefreshShared {
            state: Mutex::new(RefreshState { inbox: Vec::new(), accepted_nodes: 0, stop: false }),
            wake: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker_store = Arc::clone(&store);
        let worker = thread::Builder::new()
            .name("rwserve-refresh".to_string())
            .spawn(move || loop {
                let pending = {
                    let mut state = worker_shared.state.lock().expect("refresh lock poisoned");
                    while state.inbox.is_empty() && !state.stop {
                        let (next, _timeout) = worker_shared
                            .wake
                            .wait_timeout(state, interval)
                            .expect("refresh lock poisoned");
                        state = next;
                        // On a plain timeout the inbox is still empty and
                        // the loop re-waits: an idle server publishes
                        // nothing.
                    }
                    if state.stop && state.inbox.is_empty() {
                        return;
                    }
                    std::mem::take(&mut state.inbox)
                };
                // The expensive part runs without any lock held: queries
                // keep reading the old snapshot, ingestion keeps queueing.
                embedder.ingest(pending);
                let emb = embedder.refresh_on(&warm).clone();
                worker_store.publish_embedding(emb);
                metrics.record_refresh();
            })
            .expect("spawn refresh thread");
        Self { shared, store, worker: Some(worker) }
    }

    /// Queues edges for the next refresh cycle and wakes the loop.
    /// Returns how many edges were queued.
    ///
    /// # Errors
    ///
    /// Refuses the whole batch, naming the first offending edge, when an
    /// endpoint is at or past `known + 2 × edges.len()`, where `known` is
    /// the larger of the served node count and one past the largest
    /// endpoint accepted so far. New vertices must arrive densely, so one
    /// request cannot make the next refresh allocate for millions of ids.
    pub fn enqueue(&self, edges: Vec<TemporalEdge>) -> Result<usize, String> {
        let mut state = self.shared.state.lock().expect("refresh lock poisoned");
        let known = (self.store.load().emb.num_nodes() as u64).max(state.accepted_nodes);
        let limit = known + 2 * edges.len() as u64;
        let mut top = 0;
        for (i, e) in edges.iter().enumerate() {
            let far = e.src.max(e.dst);
            if u64::from(far) >= limit {
                return Err(format!(
                    "edges[{i}] [{}, {}]: node id {far} is past the growth limit {limit} \
                     ({known} known nodes + 2 per edge in the request)",
                    e.src, e.dst
                ));
            }
            top = top.max(u64::from(far) + 1);
        }
        state.accepted_nodes = state.accepted_nodes.max(top);
        let added = edges.len();
        state.inbox.extend(edges);
        if added > 0 {
            self.shared.wake.notify_one();
        }
        Ok(added)
    }
}

impl Drop for Refresher {
    fn drop(&mut self) {
        self.shared.state.lock().expect("refresh lock poisoned").stop = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwalk_core::Hyperparams;
    use std::time::Instant;

    fn serving_setup() -> (Arc<EmbeddingStore>, IncrementalEmbedder) {
        let g = tgraph::gen::preferential_attachment(120, 2, 5).undirected(true).build();
        let hp = Hyperparams::paper_optimal().quick_test();
        let mut embedder = IncrementalEmbedder::new(hp.clone(), &g);
        let emb = embedder.refresh().clone();
        let mlp = nn::Mlp::new(&[2 * emb.dim(), 8, 1], nn::OutputHead::Binary, hp.seed);
        (Arc::new(EmbeddingStore::new(emb, mlp)), embedder)
    }

    #[test]
    fn warm_refreshes_leave_one_thread_to_the_service() {
        for (service, warm) in [(1, 1), (2, 1), (3, 2), (8, 7)] {
            let pool = warm_refresh_pool(&ParConfig::with_threads(service));
            assert_eq!(pool.threads(), warm, "service on {service} threads");
        }
    }

    #[test]
    fn enqueued_edges_trigger_a_published_refresh() {
        let (store, embedder) = serving_setup();
        let metrics = Arc::new(Metrics::new());
        let refresher = Refresher::spawn(
            Arc::clone(&store),
            embedder,
            Arc::clone(&metrics),
            Duration::from_millis(500), // long: the enqueue wake must drive it
            &ParConfig::with_threads(2),
        );
        let n = store.load().emb.num_nodes() as u32;
        assert_eq!(refresher.enqueue(vec![TemporalEdge::new(0, n, 2.0)]), Ok(1));
        let deadline = Instant::now() + Duration::from_secs(30);
        while store.version() < 2 {
            assert!(Instant::now() < deadline, "refresh never published");
            thread::sleep(Duration::from_millis(10));
        }
        let snap = store.load();
        assert_eq!(snap.emb.num_nodes(), n as usize + 1, "new vertex embedded");
        assert!(metrics.snapshot(snap.version).refreshes >= 1);
    }

    #[test]
    fn idle_refresher_publishes_nothing() {
        let (store, embedder) = serving_setup();
        let metrics = Arc::new(Metrics::new());
        let _refresher = Refresher::spawn(
            Arc::clone(&store),
            embedder,
            metrics,
            Duration::from_millis(5),
            &ParConfig::with_threads(2),
        );
        thread::sleep(Duration::from_millis(60));
        assert_eq!(store.version(), 1, "idle loop must not republish");
    }

    #[test]
    fn drop_processes_queued_edges_before_joining() {
        let (store, embedder) = serving_setup();
        let metrics = Arc::new(Metrics::new());
        let refresher = Refresher::spawn(
            Arc::clone(&store),
            embedder,
            metrics,
            Duration::from_secs(60),
            &ParConfig::with_threads(2),
        );
        refresher.enqueue(vec![TemporalEdge::new(1, 2, 2.5)]).expect("known nodes");
        drop(refresher); // joins; the queued edge must not be lost
        assert!(store.version() >= 2, "queued edge dropped at shutdown");
    }
}
