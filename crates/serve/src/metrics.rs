//! Lock-free serving counters, surfaced as [`rwalk_core::ServeStats`].
//!
//! Every request path increments relaxed atomics; [`Metrics::snapshot`]
//! folds them into the report type the rest of the workspace already
//! understands. Latency is tracked as a running sum + max in integer
//! microseconds, which keeps the hot path to two atomic ops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rwalk_core::ServeStats;

/// Which protocol operation a request was, for per-op counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `link_score`.
    LinkScore,
    /// `embedding`.
    Embedding,
    /// `topk`.
    TopK,
    /// `ingest`.
    Ingest,
    /// `stats` (counted only in the request total).
    Stats,
}

/// Aggregated serving counters. All methods take `&self`; the struct is
/// shared across connection handlers, shard workers, and the refresher
/// via `Arc`.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    requests_total: AtomicU64,
    errors: AtomicU64,
    link_score: AtomicU64,
    embedding: AtomicU64,
    topk: AtomicU64,
    ingest: AtomicU64,
    latency_sum_us: AtomicU64,
    latency_max_us: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    refreshes: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Starts the uptime clock at construction.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            requests_total: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            link_score: AtomicU64::new(0),
            embedding: AtomicU64::new(0),
            topk: AtomicU64::new(0),
            ingest: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            latency_max_us: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
        }
    }

    /// Records one answered request (success or structured error).
    pub fn record(&self, op: OpKind, latency: Duration, ok: bool) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        match op {
            OpKind::LinkScore => self.link_score.fetch_add(1, Ordering::Relaxed),
            OpKind::Embedding => self.embedding.fetch_add(1, Ordering::Relaxed),
            OpKind::TopK => self.topk.fetch_add(1, Ordering::Relaxed),
            OpKind::Ingest => self.ingest.fetch_add(1, Ordering::Relaxed),
            OpKind::Stats => 0,
        };
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one `link_score` forward pass covering `size` requests
    /// (a lone request is a pass of one).
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Records one background refresh publish.
    pub fn record_refresh(&self) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters as a [`ServeStats`], stamped with the snapshot
    /// version being served.
    pub fn snapshot(&self, snapshot_version: u64) -> ServeStats {
        let requests_total = self.requests_total.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let sum_us = self.latency_sum_us.load(Ordering::Relaxed);
        ServeStats {
            uptime_secs: self.start.elapsed().as_secs_f64(),
            requests_total,
            errors: self.errors.load(Ordering::Relaxed),
            link_score: self.link_score.load(Ordering::Relaxed),
            embedding: self.embedding.load(Ordering::Relaxed),
            topk: self.topk.load(Ordering::Relaxed),
            ingest: self.ingest.load(Ordering::Relaxed),
            mean_latency_us: if requests_total == 0 {
                0.0
            } else {
                sum_us as f64 / requests_total as f64
            },
            max_latency_us: self.latency_max_us.load(Ordering::Relaxed) as f64,
            batches,
            mean_batch: if batches == 0 { 0.0 } else { batched as f64 / batches as f64 },
            snapshot_version,
            refreshes: self.refreshes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_into_serve_stats() {
        let m = Metrics::new();
        m.record(OpKind::LinkScore, Duration::from_micros(100), true);
        m.record(OpKind::LinkScore, Duration::from_micros(300), true);
        m.record(OpKind::TopK, Duration::from_micros(50), false);
        m.record(OpKind::Embedding, Duration::from_micros(10), true);
        m.record(OpKind::Ingest, Duration::from_micros(20), true);
        m.record(OpKind::Stats, Duration::from_micros(5), true);
        m.record_batch(2);
        m.record_batch(6);
        m.record_refresh();

        let s = m.snapshot(3);
        assert_eq!(s.requests_total, 6);
        assert_eq!(s.errors, 1);
        assert_eq!(s.link_score, 2);
        assert_eq!(s.topk, 1);
        assert_eq!(s.embedding, 1);
        assert_eq!(s.ingest, 1);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch - 4.0).abs() < 1e-9);
        assert_eq!(s.max_latency_us, 300.0);
        assert!((s.mean_latency_us - 485.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.snapshot_version, 3);
        assert_eq!(s.refreshes, 1);
    }

    #[test]
    fn empty_metrics_have_zero_means() {
        let s = Metrics::new().snapshot(1);
        assert_eq!(s.mean_latency_us, 0.0);
        assert_eq!(s.mean_batch, 0.0);
        assert_eq!(s.requests_total, 0);
    }
}
