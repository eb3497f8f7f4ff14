//! Bounded MPMC channel with producer-count-based completion.
//!
//! A handoff between walk workers (producers) and trainer workers
//! (consumers) that applies *backpressure* instead of queueing an unbounded
//! corpus: when the trainer falls behind, walk workers block in `push`
//! rather than growing the heap by the full corpus size. It was built for
//! the fused walk→train pipeline, since removed (DESIGN.md §16). The queue is a `Mutex<VecDeque>` with
//! two condvars — contention is negligible because items are coarse
//! (multi-kilobyte walk chunks), so a lock-free ring would buy nothing
//! while costing the clean close/drain semantics below.
//!
//! Completion is tracked by *producer registration*, not a separate close
//! flag: each producer holds a [`ProducerGuard`]; when the last guard
//! drops, blocked consumers wake and [`BoundedQueue::pop`] returns `None`
//! once the queue drains. This makes the common shutdown path panic-safe
//! (a panicking producer still drops its guard) and leaves [`close`] as an
//! abort-only escape hatch that discards queued items and unblocks both
//! sides.
//!
//! [`close`]: BoundedQueue::close

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Error from [`BoundedQueue::try_push`], returning the rejected item.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; retry or fall back to the blocking push.
    Full(T),
    /// The queue was closed (aborted); the item will never be accepted.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// Recovers the item that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Full(item) | TryPushError::Closed(item) => item,
        }
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    producers: usize,
    closed: bool,
}

/// Bounded multi-producer multi-consumer queue with blocking push/pop.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                producers: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of queued items before `push` blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth (racy snapshot; for metrics only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers a producer; completion is signalled by dropping the guard.
    ///
    /// `pop` only reports end-of-stream after every registered guard has
    /// dropped, so register *before* spawning the producer's work and let
    /// the guard travel into the worker thread.
    pub fn register_producer(&self) -> ProducerGuard<'_, T> {
        self.inner.lock().unwrap().producers += 1;
        ProducerGuard { queue: self }
    }

    /// Non-blocking push; fails with the item if full or closed.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.queue.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.queue.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push; waits while full, fails with the item once closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.queue.len() < self.capacity {
                inner.queue.push_back(item);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).unwrap();
        }
    }

    /// Non-blocking pop; `None` means "nothing available right now", not
    /// end-of-stream — use [`pop`](Self::pop) to distinguish.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        let item = inner.queue.pop_front();
        drop(inner);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Blocking pop; `None` means the stream ended (all producers dropped
    /// their guards and the queue drained, or the queue was closed).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed || inner.producers == 0 {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap();
        }
    }

    /// Aborts the stream: discards queued items, rejects future pushes,
    /// and wakes every blocked producer and consumer.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        inner.queue.clear();
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// RAII registration for one producer of a [`BoundedQueue`].
///
/// Dropping the guard (normally or via unwind) decrements the live-producer
/// count; when it reaches zero, blocked consumers wake and drain.
pub struct ProducerGuard<'a, T> {
    queue: &'a BoundedQueue<T>,
}

impl<T> Drop for ProducerGuard<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.queue.inner.lock().unwrap();
        inner.producers -= 1;
        let last = inner.producers == 0;
        drop(inner);
        if last {
            self.queue.not_empty.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let q = BoundedQueue::new(8);
        let guard = q.register_producer();
        for i in 0..5 {
            q.push(i).unwrap();
        }
        drop(guard);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_reports_full_then_accepts_after_pop() {
        let q = BoundedQueue::new(2);
        let _guard = q.register_producer();
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_push(3), Err(TryPushError::Full(3)));
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_blocks_until_producer_guard_drops() {
        let q = BoundedQueue::<u32>::new(4);
        let guard = q.register_producer();
        thread::scope(|s| {
            let consumer = s.spawn(|| q.pop());
            // The consumer must see end-of-stream only after the guard drops.
            thread::sleep(std::time::Duration::from_millis(10));
            drop(guard);
            assert_eq!(consumer.join().unwrap(), None);
        });
    }

    #[test]
    fn push_blocks_on_full_until_consumer_drains() {
        let q = BoundedQueue::new(1);
        let _guard = q.register_producer();
        q.push(0u32).unwrap();
        let pushed = AtomicUsize::new(0);
        thread::scope(|s| {
            s.spawn(|| {
                q.push(1).unwrap();
                pushed.fetch_add(1, Ordering::SeqCst);
            });
            thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(pushed.load(Ordering::SeqCst), 0, "push must backpressure");
            assert_eq!(q.pop(), Some(0));
            assert_eq!(q.pop(), Some(1));
        });
        assert_eq!(pushed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn close_discards_items_and_unblocks_both_sides() {
        let q = BoundedQueue::new(1);
        let _guard = q.register_producer();
        q.push(7u32).unwrap();
        thread::scope(|s| {
            let blocked_producer = s.spawn(|| q.push(8));
            thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(blocked_producer.join().unwrap(), Err(8));
        });
        assert_eq!(q.pop(), None, "close discards queued items");
        assert_eq!(q.try_push(9), Err(TryPushError::Closed(9)));
    }

    #[test]
    fn panicking_producer_releases_consumers() {
        let q = BoundedQueue::<u32>::new(4);
        thread::scope(|s| {
            let consumer = s.spawn(|| q.pop());
            let producer = s.spawn(|| {
                let _guard = q.register_producer();
                panic!("worker died");
            });
            assert!(producer.join().is_err());
            assert_eq!(consumer.join().unwrap(), None);
        });
    }
}
