//! Sharded query workers with bounded admission budgets.
//!
//! The reactor never blocks: it parses requests on the event loop and
//! hands them to N shard workers, each owning a disjoint contiguous
//! range of the 64-bit FNV hash ring. Keyed operations route by
//! `hash(u)` — a hot key lands on one shard, like it would on one node
//! of a real consistent-hash cluster — keyless ones by connection token,
//! which spreads them uniformly.
//!
//! Each shard's pending queue is bounded by an admission budget. When a
//! push would exceed it, [`ShardPool::try_submit`] refuses and the
//! reactor sheds the request with a structured `"overloaded"` response
//! instead of queueing it — bounded memory and bounded queueing delay
//! past saturation, at the price of explicit errors the client can retry.
//!
//! A worker drains whatever is queued (up to the budget) in one gulp and
//! dispatches it through [`Service::respond_batch`], so the `link_score`s
//! that queued up from *all* connections meanwhile are scored in one
//! forward pass on the worker's own thread. A lone request is a group of
//! one and waits for nothing.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::protocol::Request;
use crate::Service;

/// One parsed request in flight between the reactor and a shard worker.
#[derive(Debug)]
pub struct Job {
    /// Reactor token of the connection that sent it.
    pub conn: u64,
    /// Per-connection sequence number (responses are reordered by it).
    pub seq: u64,
    /// The parsed request.
    pub request: Request,
}

/// A finished response on its way back to the reactor.
#[derive(Debug)]
pub struct Completion {
    /// Connection token the response belongs to.
    pub conn: u64,
    /// Sequence number within that connection.
    pub seq: u64,
    /// The response line (no trailing newline).
    pub response: String,
}

/// Completions shared between shard workers (producers) and the reactor
/// (consumer). A plain locked vector: pushes are rare relative to the
/// work that produced them, and the reactor swaps the whole vector out
/// in one lock acquisition.
#[derive(Debug, Default)]
pub struct CompletionQueue {
    done: Mutex<Vec<Completion>>,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a batch of completions.
    pub fn push_many(&self, items: impl IntoIterator<Item = Completion>) {
        self.done.lock().expect("completion lock poisoned").extend(items);
    }

    /// Takes everything queued so far.
    pub fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().expect("completion lock poisoned"))
    }
}

struct ShardState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    nonempty: Condvar,
    budget: usize,
    depth: obs::GaugeHandle,
}

/// The worker pool: N shards, each with its own bounded queue and
/// dedicated worker thread. Dropping the pool drains queued jobs and
/// joins every worker.
pub struct ShardPool {
    shards: Vec<Arc<Shard>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool").field("shards", &self.shards.len()).finish_non_exhaustive()
    }
}

/// FNV-1a 64 over a node id / connection token — the routing hash.
/// Deliberately tiny and dependency-free; what matters is that it
/// scatters nearby keys across the ring.
fn fnv64(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which shard of `shards` owns hash-ring position `fnv64(key)`. The
/// ring is split into `shards` equal contiguous ranges.
pub fn route(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // Ranges of width ceil(2^64 / shards); the last shard absorbs the
    // remainder, and the min() guards the rounding edge.
    let width = (u128::from(u64::MAX) + 1).div_ceil(shards as u128);
    ((u128::from(fnv64(key)) / width) as usize).min(shards - 1)
}

impl ShardPool {
    /// Spawns `shards` workers over `service`. Completed responses land
    /// in `completions` and `wake` is invoked after each push (the
    /// reactor passes its eventfd signal). Each shard queues at most
    /// `budget` pending requests; per-shard depth gauges register as
    /// `serve_shard_queue_depth{shard="i"}` in the service registry.
    pub fn new(
        service: &Arc<Service>,
        completions: &Arc<CompletionQueue>,
        wake: Arc<dyn Fn() + Send + Sync>,
        shards: usize,
        budget: usize,
    ) -> Self {
        let shards = shards.max(1);
        let budget = budget.max(1);
        let rec = obs::Recorder::with_registry(Arc::clone(service.registry()));
        let mut pool = Self { shards: Vec::with_capacity(shards), workers: Vec::new() };
        for i in 0..shards {
            let shard = Arc::new(Shard {
                state: Mutex::new(ShardState { jobs: VecDeque::new(), shutdown: false }),
                nonempty: Condvar::new(),
                budget,
                depth: rec.gauge(&format!("serve_shard_queue_depth{{shard=\"{i}\"}}")),
            });
            let worker_shard = Arc::clone(&shard);
            let worker_service = Arc::clone(service);
            let worker_completions = Arc::clone(completions);
            let worker_wake = Arc::clone(&wake);
            let handle = thread::Builder::new()
                .name(format!("rwserve-shard-{i}"))
                .spawn(move || {
                    worker_loop(&worker_shard, &worker_service, &worker_completions, &worker_wake)
                })
                .expect("spawn shard worker");
            pool.shards.push(shard);
            pool.workers.push(handle);
        }
        pool
    }

    /// How many shards the pool runs.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Routes `job` to its shard and enqueues it — unless that shard's
    /// admission budget is exhausted, in which case the job comes back
    /// as `Err` and the caller sheds it with a structured error.
    pub fn try_submit(&self, job: Job) -> Result<(), Job> {
        let key = job.request.routing_key().unwrap_or(job.conn);
        let shard = &self.shards[route(key, self.shards.len())];
        let mut state = shard.state.lock().expect("shard lock poisoned");
        if state.jobs.len() >= shard.budget {
            return Err(job);
        }
        state.jobs.push_back(job);
        shard.depth.add(1);
        // Workers drain the whole queue per wakeup, so only the
        // empty->nonempty transition needs a notify.
        if state.jobs.len() == 1 {
            shard.nonempty.notify_one();
        }
        Ok(())
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.state.lock().expect("shard lock poisoned").shutdown = true;
            shard.nonempty.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(
    shard: &Shard,
    service: &Service,
    completions: &CompletionQueue,
    wake: &Arc<dyn Fn() + Send + Sync>,
) {
    loop {
        let jobs: Vec<Job> = {
            let mut state = shard.state.lock().expect("shard lock poisoned");
            while state.jobs.is_empty() {
                if state.shutdown {
                    return;
                }
                state = shard.nonempty.wait(state).expect("shard lock poisoned");
            }
            // Lowered under the lock, like `try_submit` raises it, so a
            // submit cannot refill the queue before the gauge drops.
            shard.depth.sub(state.jobs.len() as i64);
            state.jobs.drain(..).collect()
        };
        let mut meta = Vec::with_capacity(jobs.len());
        let mut requests = Vec::with_capacity(jobs.len());
        for job in jobs {
            meta.push((job.conn, job.seq));
            requests.push(job.request);
        }
        let responses = service.respond_batch(requests);
        completions.push_many(
            meta.into_iter().zip(responses).map(|((conn, seq), response)| Completion {
                conn,
                seq,
                response,
            }),
        );
        wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchPolicy, EmbeddingStore};
    use embed::EmbeddingMatrix;
    use nn::{Mlp, OutputHead};
    use par::ParConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn service() -> Arc<Service> {
        let n = 16;
        let d = 4;
        let data: Vec<f32> = (0..n * d).map(|i| ((i % 5) as f32 - 2.0) * 0.2).collect();
        let emb = EmbeddingMatrix::from_vec(n, d, data);
        let store =
            Arc::new(EmbeddingStore::new(emb, Mlp::new(&[2 * d, 8, 1], OutputHead::Binary, 7)));
        Arc::new(Service::new(store, ParConfig::with_threads(1), BatchPolicy::default()))
    }

    #[test]
    fn routing_ranges_are_disjoint_and_exhaustive() {
        for shards in [1usize, 2, 3, 5, 8] {
            let mut seen = vec![0usize; shards];
            for key in 0..10_000u64 {
                seen[route(key, shards)] += 1;
            }
            // Every shard owns a nonempty range, and FNV spreads keys
            // roughly evenly (within 3x of fair share).
            for (i, &count) in seen.iter().enumerate() {
                assert!(count > 0, "shard {i}/{shards} owns no keys");
                assert!(count < 3 * 10_000 / shards, "shard {i}/{shards} owns {count} keys");
            }
        }
        // Same key, same shard — deterministic routing.
        assert_eq!(route(42, 4), route(42, 4));
    }

    #[test]
    fn jobs_flow_through_workers_to_completions() {
        let svc = service();
        let completions = Arc::new(CompletionQueue::new());
        let woken = Arc::new(AtomicUsize::new(0));
        let wake_count = Arc::clone(&woken);
        let pool = ShardPool::new(
            &svc,
            &completions,
            Arc::new(move || {
                wake_count.fetch_add(1, Ordering::SeqCst);
            }),
            2,
            64,
        );
        for seq in 0..20u64 {
            let request = Request::LinkScore { u: (seq % 16) as u32, v: ((seq + 1) % 16) as u32 };
            pool.try_submit(Job { conn: 5, seq, request }).expect("under budget");
        }
        // Wait for all 20 completions.
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while got.len() < 20 {
            assert!(std::time::Instant::now() < deadline, "only {} completions", got.len());
            got.extend(completions.drain());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(woken.load(Ordering::SeqCst) >= 1);
        got.sort_by_key(|c| c.seq);
        for (i, c) in got.iter().enumerate() {
            assert_eq!(c.conn, 5);
            assert_eq!(c.seq, i as u64);
            assert!(c.response.contains("\"ok\":true"), "{}", c.response);
        }
        drop(pool);
    }

    #[test]
    fn budget_exhaustion_refuses_submission() {
        let svc = service();
        let completions = Arc::new(CompletionQueue::new());
        // The single worker parks inside its first `wake` call, after it
        // has drained and answered the first job, until it is released.
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(Some((parked_tx, release_rx)));
        let wake = move || {
            let first = gate.lock().expect("gate lock poisoned").take();
            if let Some((parked, release)) = first {
                let _ = parked.send(());
                // Returns on release, or when the test drops the sender.
                let _ = release.recv();
            }
        };
        let budget = 2;
        let pool = ShardPool::new(&svc, &completions, Arc::new(wake), 1, budget);
        // Declared after the pool so that a failing assertion drops it
        // first and frees the parked worker before the pool joins it.
        let release_tx = release_tx;
        let request = |seq: u64| Request::LinkScore { u: (seq % 16) as u32, v: 3 };
        pool.try_submit(Job { conn: 0, seq: 0, request: request(0) }).expect("empty queue");
        parked_rx.recv_timeout(Duration::from_secs(10)).expect("worker never parked");

        // Nothing drains the queue now, so exactly `budget` jobs fit.
        let mut accepted = 0;
        let mut shed = 0;
        for seq in 1..=200u64 {
            match pool.try_submit(Job { conn: seq, seq, request: request(seq) }) {
                Ok(()) => accepted += 1,
                Err(job) => {
                    assert_eq!(job.seq, seq, "a refused job comes back unchanged");
                    shed += 1;
                }
            }
        }
        assert_eq!(accepted, budget);
        assert_eq!(shed, 200 - budget);
        let depth = svc.registry().snapshot().gauge("serve_shard_queue_depth{shard=\"0\"}");
        assert_eq!(depth, Some(budget as i64));

        release_tx.send(()).expect("worker is parked");
        drop(pool); // drains the queued jobs and joins the worker
        assert_eq!(completions.drain().len(), 1 + budget);
    }

    #[test]
    fn depth_gauge_never_reads_above_the_budget() {
        // A worker that drains and answers as fast as one submitter can
        // refill: if the worker lowered the gauge after releasing the
        // queue lock, a submit in that window would raise it first and
        // the read below would see more than `budget` queued jobs.
        let svc = service();
        let completions = Arc::new(CompletionQueue::new());
        let budget = 2;
        let pool = ShardPool::new(&svc, &completions, Arc::new(|| {}), 1, budget);
        let depth = &pool.shards[0].depth;
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let (mut accepted, mut max_read, mut above) = (0u64, 0i64, 0u64);
        while std::time::Instant::now() < deadline {
            let request = Request::LinkScore { u: (accepted % 16) as u32, v: 3 };
            if pool.try_submit(Job { conn: 0, seq: accepted, request }).is_ok() {
                accepted += 1;
                let read = depth.get();
                max_read = max_read.max(read);
                above += u64::from(read > budget as i64);
            }
            if accepted % 64 == 0 {
                drop(completions.drain());
            }
        }
        assert!(accepted > 0, "no submission was accepted");
        assert_eq!(
            above, 0,
            "{above} of {accepted} reads exceeded the budget {budget} (max {max_read})"
        );
    }
}
