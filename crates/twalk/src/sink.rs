//! Chunked walk emission: stream the corpus instead of materializing it.
//!
//! The bulk engines produce walks in worker-local blocks already — the
//! [`WalkSet`] assembler just happens to write every block into one
//! `|V| × K × N` matrix. A [`WalkSink`] reroutes those blocks as
//! self-describing [`WalkChunk`]s the moment a worker finishes them, so a
//! consumer can start on the first chunk while walk workers are still
//! producing the rest, and the full corpus never exists in memory at once.
//! The fused walk→train pipeline that consumed them has been removed
//! (DESIGN.md §16); only tests call this module now.
//!
//! Chunks cover disjoint walk-index ranges and together partition
//! `0..total`; concatenated in `start` order they are **bit-identical** to
//! the `WalkSet` the same configuration produces (each `(walk, vertex)`
//! pair owns its RNG stream, so routing never changes content — asserted
//! across engines × sampling methods in `tests/engine_equivalence.rs`).
//! Delivery *order* across chunks follows dynamic scheduling and is not
//! deterministic; consumers needing global positions use
//! [`WalkChunk::start`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use obs::{GaugeHandle, HistogramHandle};
use par::BoundedQueue;
use tgraph::NodeId;

use crate::WalkSet;

/// A contiguous block of walks in [`WalkSet`] layout: walk `start + i`
/// occupies `nodes[i * max_length ..][.. lengths[i]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkChunk {
    /// Global index of the first walk in the chunk (`w * stride + i`
    /// addressing, same as the bulk matrix).
    pub start: usize,
    /// Row stride (`N`); shared by every chunk of a run.
    pub max_length: usize,
    /// Flat vertex buffer, `num_walks() * max_length` entries.
    pub nodes: Vec<NodeId>,
    /// Per-walk vertex counts (each ≥ 1).
    pub lengths: Vec<u32>,
}

impl WalkChunk {
    /// Number of walks in the chunk.
    pub fn num_walks(&self) -> usize {
        self.lengths.len()
    }

    /// The `i`-th walk (chunk-local index) as a vertex slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_walks()`.
    pub fn walk(&self, i: usize) -> &[NodeId] {
        let row = i * self.max_length;
        &self.nodes[row..row + self.lengths[i] as usize]
    }

    /// Total vertex occurrences across the chunk's walks (tokens).
    pub fn total_vertices(&self) -> usize {
        self.lengths.iter().map(|&l| l as usize).sum()
    }
}

/// Receives finished walk blocks from engine workers.
///
/// Implementations must tolerate concurrent calls (workers emit
/// independently) and chunks arriving in any order.
pub trait WalkSink: Sync {
    /// Accepts one finished chunk. Called from engine worker threads.
    fn emit(&self, chunk: WalkChunk);
}

/// Test/reference sink: collects every chunk, then reassembles the
/// canonical [`WalkSet`] — the executable statement of the streamed ≡
/// materialized equivalence contract.
#[derive(Debug, Default)]
pub struct CollectSink {
    chunks: Mutex<Vec<WalkChunk>>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected chunks, sorted by [`WalkChunk::start`].
    pub fn into_chunks(self) -> Vec<WalkChunk> {
        let mut chunks = self.chunks.into_inner().unwrap();
        chunks.sort_by_key(|c| c.start);
        chunks
    }

    /// Reassembles the chunks into a [`WalkSet`].
    ///
    /// # Panics
    ///
    /// Panics if the chunks do not exactly tile `0..total` walks or
    /// disagree on `max_length` — either means an engine violated the
    /// sink contract.
    pub fn into_walkset(self) -> WalkSet {
        let chunks = self.into_chunks();
        let max_length = chunks.first().map_or(0, |c| c.max_length);
        let total: usize = chunks.iter().map(WalkChunk::num_walks).sum();
        let mut nodes = Vec::with_capacity(total * max_length);
        let mut lengths = Vec::with_capacity(total);
        for c in &chunks {
            assert_eq!(c.start, lengths.len(), "chunks must tile 0..total without gaps");
            assert_eq!(c.max_length, max_length, "chunks must share one row stride");
            assert_eq!(c.nodes.len(), c.num_walks() * max_length, "malformed chunk buffer");
            nodes.extend_from_slice(&c.nodes);
            lengths.extend_from_slice(&c.lengths);
        }
        WalkSet::from_parts(nodes, lengths, max_length)
    }
}

impl WalkSink for CollectSink {
    fn emit(&self, chunk: WalkChunk) {
        self.chunks.lock().unwrap().push(chunk);
    }
}

/// Channel sink: pushes chunks into a bounded channel, blocking (and
/// recording the stall) when consumers fall behind.
pub struct ChannelSink<'a> {
    queue: &'a BoundedQueue<WalkChunk>,
    /// Total nanoseconds walk workers spent blocked on a full channel —
    /// always accumulated, even with the metrics recorder off.
    stall_ns: AtomicU64,
    /// Per-stall distribution (`pipeline_producer_stall_ns`); no-op when
    /// the recorder is off.
    stall: HistogramHandle,
    /// Channel depth after each push (`pipeline_channel_depth`).
    depth: GaugeHandle,
}

impl<'a> ChannelSink<'a> {
    /// Wraps a bounded channel; callers keep ownership to pop from it.
    pub fn new(queue: &'a BoundedQueue<WalkChunk>) -> Self {
        let rec = obs::Recorder::global();
        Self {
            queue,
            stall_ns: AtomicU64::new(0),
            stall: rec.histogram("pipeline_producer_stall_ns"),
            depth: rec.gauge("pipeline_channel_depth"),
        }
    }

    /// Cumulative time walk workers spent blocked on backpressure.
    pub fn stalled(&self) -> Duration {
        Duration::from_nanos(self.stall_ns.load(Ordering::Relaxed))
    }
}

impl WalkSink for ChannelSink<'_> {
    fn emit(&self, chunk: WalkChunk) {
        // Fast path first so only genuine backpressure is timed; a closed
        // channel means the consumer side aborted, and dropping the chunk
        // is the correct producer response (the run is already failed).
        let chunk = match self.queue.try_push(chunk) {
            Ok(()) => {
                if self.depth.is_enabled() {
                    self.depth.set(self.queue.len() as i64);
                }
                return;
            }
            Err(par::TryPushError::Closed(_)) => return,
            Err(par::TryPushError::Full(chunk)) => chunk,
        };
        let t0 = std::time::Instant::now();
        let _ = self.queue.push(chunk);
        let stalled = t0.elapsed();
        self.stall_ns.fetch_add(stalled.as_nanos() as u64, Ordering::Relaxed);
        if self.stall.is_enabled() {
            self.stall.record_duration(stalled);
            self.depth.set(self.queue.len() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(start: usize, walks: &[&[NodeId]], max_length: usize) -> WalkChunk {
        let mut nodes = vec![0; walks.len() * max_length];
        let mut lengths = Vec::new();
        for (i, w) in walks.iter().enumerate() {
            nodes[i * max_length..i * max_length + w.len()].copy_from_slice(w);
            lengths.push(w.len() as u32);
        }
        WalkChunk { start, max_length, nodes, lengths }
    }

    #[test]
    fn collect_sink_reassembles_out_of_order_chunks() {
        let sink = CollectSink::new();
        sink.emit(chunk(2, &[&[5, 6, 7]], 3));
        sink.emit(chunk(0, &[&[1], &[2, 3]], 3));
        let ws = sink.into_walkset();
        assert_eq!(ws.num_walks(), 3);
        assert_eq!(ws.walk(0), &[1]);
        assert_eq!(ws.walk(1), &[2, 3]);
        assert_eq!(ws.walk(2), &[5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "without gaps")]
    fn collect_sink_rejects_gapped_coverage() {
        let sink = CollectSink::new();
        sink.emit(chunk(1, &[&[4, 5]], 2));
        let _ = sink.into_walkset();
    }

    #[test]
    fn channel_sink_delivers_through_bounded_queue() {
        let queue = BoundedQueue::new(2);
        let guard = queue.register_producer();
        {
            let sink = ChannelSink::new(&queue);
            sink.emit(chunk(0, &[&[1, 2]], 2));
            sink.emit(chunk(1, &[&[3]], 2));
        }
        drop(guard);
        assert_eq!(queue.pop().unwrap().start, 0);
        assert_eq!(queue.pop().unwrap().start, 1);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn chunk_walk_accessors_match_layout() {
        let c = chunk(7, &[&[9, 8], &[4]], 4);
        assert_eq!(c.num_walks(), 2);
        assert_eq!(c.walk(0), &[9, 8]);
        assert_eq!(c.walk(1), &[4]);
        assert_eq!(c.total_vertices(), 3);
    }
}
