//! Work-stealing parallel-for substrate.
//!
//! The paper parallelizes the temporal random walk's middle loop (over all
//! vertices) with *dynamically scheduled OpenMP threads*, i.e. work stealing,
//! because per-vertex work is highly skewed (it depends on out-degree and
//! timestamp distribution). This crate provides the equivalent building
//! block for the rest of the workspace: a chunked, dynamically scheduled
//! `parallel_for` built on [`std::thread::scope`] and a shared work
//! queue, plus a parallel reduce with per-chunk accumulators.
//!
//! # Examples
//!
//! ```
//! use par::{parallel_for, ParConfig};
//!
//! let mut squares = vec![0u64; 1000];
//! parallel_for(&ParConfig::default(), &mut squares, |i, slot| {
//!     *slot = (i as u64) * (i as u64);
//! });
//! assert_eq!(squares[31], 961);
//! ```

mod config;
mod pool;
mod reduce;

pub use config::ParConfig;
pub use pool::{
    parallel_chunks, parallel_chunks_shared, parallel_for, parallel_workers, ChunkQueue, TaskPool,
};
pub use reduce::parallel_reduce_with;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_touches_every_slot() {
        let mut v = vec![0usize; 4097];
        parallel_for(&ParConfig::with_threads(4), &mut v, |i, slot| *slot = i + 1);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i + 1);
        }
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let mut a = vec![0u64; 1000];
        let mut b = vec![0u64; 1000];
        parallel_for(&ParConfig::with_threads(1), &mut a, |i, s| *s = (i as u64).pow(2));
        parallel_for(&ParConfig::with_threads(8), &mut b, |i, s| *s = (i as u64).pow(2));
        assert_eq!(a, b);
    }
}
