//! Stress tests for [`par::BoundedQueue`] under producer/consumer churn.
//!
//! The contract under test: every item pushed before end-of-stream is
//! popped exactly once — no loss, no duplication — regardless of how many
//! producers or consumers join or leave mid-stream, and the multi-epoch
//! replay shape (fresh producer wave per epoch over one long-lived
//! consumer pool per epoch) never deadlocks.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use par::BoundedQueue;

/// Waves of 1–64 producers and 1–64 consumers over tiny capacities; every
/// pushed item must be claimed exactly once even when some consumers exit
/// early and leave the tail to whoever is still draining.
#[test]
fn churn_waves_deliver_each_item_exactly_once() {
    let waves: [(usize, usize, usize); 6] =
        [(1, 1, 1), (1, 8, 2), (8, 1, 2), (3, 17, 4), (17, 3, 4), (64, 64, 8)];
    for (wave, &(producers, consumers, capacity)) in waves.iter().enumerate() {
        let per_producer = 1_009; // prime, so shares never divide evenly
        let total = producers * per_producer;
        let queue = Arc::new(BoundedQueue::<usize>::new(capacity));
        let claims: Arc<Vec<AtomicU8>> = Arc::new((0..total).map(|_| AtomicU8::new(0)).collect());

        // Register every producer before any thread starts, so a fast
        // consumer can never observe a spuriously empty stream.
        let guards: Vec<_> = (0..producers).map(|_| queue.register_producer()).collect();

        thread::scope(|s| {
            for (p, guard) in guards.into_iter().enumerate() {
                let queue = Arc::clone(&queue);
                s.spawn(move || {
                    let _guard = guard;
                    for i in 0..per_producer {
                        queue.push(p * per_producer + i).unwrap();
                    }
                });
            }
            for c in 0..consumers {
                let queue = Arc::clone(&queue);
                let claims = Arc::clone(&claims);
                s.spawn(move || {
                    let mut claimed = 0usize;
                    while let Some(item) = queue.pop() {
                        claims[item].fetch_add(1, Ordering::Relaxed);
                        claimed += 1;
                        // Churn: some consumers exit early, leaving their
                        // share to whoever is still draining.
                        if c % 3 == 0 && claimed > total / (consumers * 2 + 1) {
                            break;
                        }
                    }
                });
            }
            // A sweeper that never exits early drains whatever the churned
            // consumers abandon. It must run *concurrently* with the
            // producers: with every regular consumer gone, producers would
            // block forever on the full queue and the scope would never
            // join them.
            {
                let queue = Arc::clone(&queue);
                let claims = Arc::clone(&claims);
                s.spawn(move || {
                    while let Some(item) = queue.pop() {
                        claims[item].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        for (i, c) in claims.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "item {i} delivered {} times in wave {wave} ({producers}p/{consumers}c, cap {capacity})",
                c.load(Ordering::Relaxed)
            );
        }
        assert_eq!(queue.pop(), None, "drained stream must stay ended");
    }
}

/// Depth never exceeds capacity while producers race consumers: the
/// channel is a backpressure device, not an elastic buffer.
#[test]
fn depth_never_exceeds_capacity_under_race() {
    let capacity = 3;
    let queue = Arc::new(BoundedQueue::<u64>::new(capacity));
    let max_seen = AtomicUsize::new(0);
    let guard = queue.register_producer();
    thread::scope(|s| {
        {
            let queue = Arc::clone(&queue);
            s.spawn(move || {
                let _guard = guard;
                for i in 0..20_000u64 {
                    queue.push(i).unwrap();
                }
            });
        }
        s.spawn(|| {
            while let Some(_item) = queue.pop() {
                max_seen.fetch_max(queue.len(), Ordering::Relaxed);
            }
        });
    });
    assert!(
        max_seen.load(Ordering::Relaxed) <= capacity,
        "observed depth {} above capacity {capacity}",
        max_seen.load(Ordering::Relaxed)
    );
}

/// The epochs>1 replay shape: each epoch spins up a fresh channel, a
/// fresh producer wave re-walking the same stream, and a consumer pool; a
/// stall in any epoch would hang this test.
#[test]
fn multi_epoch_replay_is_deadlock_free() {
    let producers = 4;
    let consumers = 4;
    let per_producer = 2_003;
    for epoch in 0..5usize {
        let queue = Arc::new(BoundedQueue::<usize>::new(2));
        let popped = AtomicUsize::new(0);
        let guards: Vec<_> = (0..producers).map(|_| queue.register_producer()).collect();
        thread::scope(|s| {
            for guard in guards {
                let queue = Arc::clone(&queue);
                s.spawn(move || {
                    let _guard = guard;
                    // Replay is deterministic: the same items re-walked
                    // every epoch.
                    for i in 0..per_producer {
                        queue.push(i).unwrap();
                    }
                });
            }
            for _ in 0..consumers {
                let queue = Arc::clone(&queue);
                let popped = &popped;
                s.spawn(move || {
                    while queue.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(
            popped.load(Ordering::Relaxed),
            producers * per_producer,
            "epoch {epoch} lost items"
        );
    }
}

/// Closing mid-stream releases every blocked producer and consumer; no
/// thread is left waiting on a condvar that will never signal.
#[test]
fn close_releases_all_blocked_threads() {
    let queue = Arc::new(BoundedQueue::<usize>::new(1));
    let guard = queue.register_producer();
    queue.push(0).unwrap(); // fill to capacity so producers block
    thread::scope(|s| {
        let _guard = guard; // keep the stream open so consumers block
        for i in 0..8 {
            let queue = Arc::clone(&queue);
            s.spawn(move || {
                // Half block in push (queue full), half block in pop
                // (queue drained by the first popper).
                if i % 2 == 0 {
                    let _ = queue.push(i);
                } else {
                    let _ = queue.pop();
                }
            });
        }
        thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
    });
    assert_eq!(queue.pop(), None);
}
