//! Dynamically scheduled parallel loops over index ranges and slices,
//! plus a persistent [`TaskPool`] for long-lived services.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::ParConfig;

/// A dynamic work queue handing out disjoint chunk ranges of `0..len`.
///
/// This is the atomic-cursor "work-stealing" heart of every parallel loop
/// in this crate, exposed so callers can drive the worker loop themselves:
/// a worker that pulls chunks via [`ChunkQueue::next_chunk`] keeps its own
/// per-thread scratch state alive *across* chunks, which per-chunk closure
/// APIs like [`parallel_chunks`] cannot express. The walk kernel's ring
/// relies on this to keep its in-flight walks between blocks.
///
/// A chunk size of zero is clamped to one, mirroring
/// [`ParConfig::chunk_size`]'s documented policy.
///
/// # Examples
///
/// ```
/// use par::ChunkQueue;
///
/// let q = ChunkQueue::new(10, 4);
/// assert_eq!(q.next_chunk(), Some((0, 4)));
/// assert_eq!(q.next_chunk(), Some((4, 8)));
/// assert_eq!(q.next_chunk(), Some((8, 10)));
/// assert_eq!(q.next_chunk(), None);
/// ```
#[derive(Debug)]
pub struct ChunkQueue {
    cursor: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ChunkQueue {
    /// Creates a queue over `0..len` dealing chunks of `chunk` items
    /// (clamped to at least 1).
    pub fn new(len: usize, chunk: usize) -> Self {
        Self { cursor: AtomicUsize::new(0), len, chunk: chunk.max(1) }
    }

    /// Claims the next unclaimed chunk as a half-open `(start, end)` range,
    /// or `None` once the queue is drained. Safe to call from any number of
    /// threads; claimed chunks are disjoint and together partition `0..len`
    /// exactly.
    pub fn next_chunk(&self) -> Option<(usize, usize)> {
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.len {
            None
        } else {
            Some((start, (start + self.chunk).min(self.len)))
        }
    }

    /// Total number of items the queue deals out.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue covers an empty range.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items per claimed chunk (except possibly the last).
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

/// Spawns the configured number of workers and hands each the shared
/// [`ChunkQueue`] over `0..len`; each worker invocation drains chunks with
/// [`ChunkQueue::next_chunk`] until the queue is empty.
///
/// Unlike [`parallel_chunks`], the worker closure is entered *once per
/// thread*, so scratch buffers allocated at the top of `worker` persist
/// across all chunks that thread processes — the pattern the walk
/// kernel's ring uses for its in-flight walk state.
///
/// With one effective thread the worker runs inline on the caller's
/// thread (no spawn).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use par::{parallel_workers, ParConfig};
///
/// let sum = AtomicUsize::new(0);
/// parallel_workers(&ParConfig::with_threads(4).chunk_size(8), 100, |queue| {
///     let mut local = 0; // per-worker state, lives across chunks
///     while let Some((start, end)) = queue.next_chunk() {
///         local += end - start;
///     }
///     sum.fetch_add(local, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 100);
/// ```
pub fn parallel_workers<F>(cfg: &ParConfig, len: usize, worker: F)
where
    F: Fn(&ChunkQueue) + Sync,
{
    if len == 0 {
        return;
    }
    let queue = ChunkQueue::new(len, cfg.chunk());
    let threads = cfg.threads().min(len.div_ceil(queue.chunk())).max(1);
    if threads == 1 {
        worker(&queue);
        return;
    }
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker(&queue));
        }
    });
}

/// Runs `body(start..end)` over disjoint chunks of `0..len` on the
/// configured number of threads, handing out chunks dynamically.
///
/// This is the direct analog of `#pragma omp parallel for schedule(dynamic)`
/// used by the paper's random-walk kernel: an atomic cursor (a
/// [`ChunkQueue`]) acts as the shared work queue and idle threads grab
/// ("steal") the next chunk.
///
/// The chunk bounds passed to `body` partition `0..len` exactly; `body` may
/// run concurrently on different chunks.
pub fn parallel_chunks<F>(cfg: &ParConfig, len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    parallel_workers(cfg, len, |queue| {
        while let Some((start, end)) = queue.next_chunk() {
            body(start, end);
        }
    });
}

/// [`parallel_chunks`] with an explicit piece of read-only shared state
/// passed to every chunk invocation.
///
/// Functionally equivalent to capturing `shared` in the closure, but the
/// signature makes the sharing contract explicit: `shared` must be [`Sync`]
/// and workers receive it immutably, so precomputed tables (e.g. a
/// prepared transition sampler) are provably read-only across threads.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use par::{parallel_chunks_shared, ParConfig};
///
/// let weights = vec![2usize; 100];
/// let sum = AtomicUsize::new(0);
/// parallel_chunks_shared(&ParConfig::default(), &weights, 100, |w, start, end| {
///     sum.fetch_add(w[start..end].iter().sum(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 200);
/// ```
pub fn parallel_chunks_shared<S, F>(cfg: &ParConfig, shared: &S, len: usize, body: F)
where
    S: Sync + ?Sized,
    F: Fn(&S, usize, usize) + Sync,
{
    parallel_chunks(cfg, len, |start, end| body(shared, start, end));
}

/// Runs `body(i, &mut out[i])` for every element of `out` in parallel.
///
/// Each invocation receives exclusive access to its own slot, so `body`
/// needs no synchronization to write results.
pub fn parallel_for<T, F>(cfg: &ParConfig, out: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = out.len();
    let base = out.as_mut_ptr() as usize;
    parallel_chunks(cfg, len, |start, end| {
        // SAFETY: chunks returned by `parallel_chunks` are disjoint
        // subranges of 0..len, so each slot is mutated by exactly one
        // worker; the slice outlives the scoped threads.
        let ptr = base as *mut T;
        for i in start..end {
            let slot = unsafe { &mut *ptr.add(i) };
            body(i, slot);
        }
    });
}

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
    active: AtomicUsize,
}

/// A persistent fixed-size worker pool for services that outlive a single
/// parallel loop.
///
/// The scoped loops above ([`parallel_chunks`] and friends) spawn and join
/// threads per call, which is right for batch kernels but wrong for a
/// long-lived server that handles a stream of independent jobs (e.g. one
/// per client connection). `TaskPool` keeps `threads` workers alive and
/// feeds them closures through a shared queue; dropping the pool finishes
/// queued jobs and joins every worker.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use par::TaskPool;
///
/// let pool = TaskPool::new(4);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     pool.execute(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// drop(pool); // joins workers, so all jobs have run
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct TaskPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("threads", &self.workers.len())
            .field("active", &self.active())
            .finish()
    }
}

impl TaskPool {
    /// Spawns a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            available: Condvar::new(),
            active: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("taskpool-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let job = {
                let mut state = shared.state.lock().expect("pool lock poisoned");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = shared.available.wait(state).expect("pool lock poisoned");
                }
            };
            shared.active.fetch_add(1, Ordering::SeqCst);
            job();
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently executing (not queued).
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Enqueues a job; an idle worker picks it up in FIFO order.
    ///
    /// # Panics
    ///
    /// Panics if called after the pool started shutting down (impossible
    /// through the public API, which consumes the pool on drop).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        assert!(!state.shutdown, "execute on a shut-down pool");
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.available.notify_one();
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool lock poisoned").shutdown = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn task_pool_runs_queued_jobs_across_workers() {
        let pool = TaskPool::new(3);
        let sum = Arc::new(AtomicUsize::new(0));
        for i in 0..200 {
            let sum = Arc::clone(&sum);
            pool.execute(move || {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(sum.load(Ordering::Relaxed), (0..200).sum());
    }

    #[test]
    fn task_pool_zero_threads_clamps_to_one() {
        let pool = TaskPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        pool.execute(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn task_pool_jobs_can_block_independently() {
        // Two jobs that rendezvous with each other require >= 2 live
        // workers; this deadlocks if the pool serializes jobs.
        let pool = TaskPool::new(2);
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                let (lock, cv) = &*gate;
                let mut n = lock.lock().unwrap();
                *n += 1;
                cv.notify_all();
                while *n < 2 {
                    let (guard, timeout) =
                        cv.wait_timeout(n, std::time::Duration::from_secs(5)).unwrap();
                    n = guard;
                    assert!(!timeout.timed_out(), "partner job never ran");
                }
            });
        }
        drop(pool);
        assert_eq!(*gate.0.lock().unwrap(), 2);
    }

    #[test]
    fn chunks_partition_range_exactly() {
        let seen = AtomicUsize::new(0);
        parallel_chunks(&ParConfig::with_threads(7).chunk_size(13), 1000, |s, e| {
            assert!(s < e && e <= 1000);
            seen.fetch_add(e - s, Ordering::SeqCst);
        });
        assert_eq!(seen.into_inner(), 1000);
    }

    #[test]
    fn empty_range_is_a_noop() {
        parallel_chunks(&ParConfig::default(), 0, |_, _| panic!("must not run"));
    }

    #[test]
    fn chunk_larger_than_len() {
        let seen = AtomicUsize::new(0);
        parallel_chunks(&ParConfig::with_threads(4).chunk_size(10_000), 37, |s, e| {
            seen.fetch_add(e - s, Ordering::SeqCst);
        });
        assert_eq!(seen.into_inner(), 37);
    }

    #[test]
    fn chunk_queue_zero_chunk_clamps_to_one() {
        // Documented policy: a zero chunk size degenerates to single-item
        // chunks rather than an infinite loop or a panic.
        let q = ChunkQueue::new(3, 0);
        assert_eq!(q.chunk(), 1);
        assert_eq!(q.next_chunk(), Some((0, 1)));
        assert_eq!(q.next_chunk(), Some((1, 2)));
        assert_eq!(q.next_chunk(), Some((2, 3)));
        assert_eq!(q.next_chunk(), None);
    }

    #[test]
    fn chunk_queue_is_exhausted_exactly_once_across_threads() {
        let q = ChunkQueue::new(10_000, 7);
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some((s, e)) = q.next_chunk() {
                        assert!(s < e && e <= 10_000);
                        claimed.fetch_add(e - s, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(claimed.into_inner(), 10_000);
        assert_eq!(q.next_chunk(), None);
    }

    #[test]
    fn workers_keep_state_across_chunks() {
        // Each worker counts how many chunks it drained; the per-worker
        // totals must sum to the chunk count of the whole range, proving
        // one closure invocation spans many chunks.
        let total_chunks = AtomicUsize::new(0);
        parallel_workers(&ParConfig::with_threads(3).chunk_size(10), 95, |queue| {
            let mut mine = 0usize;
            while queue.next_chunk().is_some() {
                mine += 1;
            }
            total_chunks.fetch_add(mine, Ordering::Relaxed);
        });
        assert_eq!(total_chunks.into_inner(), 95usize.div_ceil(10));
    }

    #[test]
    fn skewed_work_is_balanced() {
        // Emulate the walk kernel's skew: item i does O(i) work.
        let mut out = vec![0u64; 2048];
        parallel_for(&ParConfig::with_threads(8).chunk_size(8), &mut out, |i, slot| {
            let mut acc = 0u64;
            for k in 0..i {
                acc = acc.wrapping_add(k as u64);
            }
            *slot = acc;
        });
        assert_eq!(out[3], 3);
        assert_eq!(out[100], (0..100).sum::<u64>());
    }
}
