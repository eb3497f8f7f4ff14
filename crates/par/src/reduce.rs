//! Parallel reduce with per-chunk accumulators.

use std::sync::Mutex;

use crate::{parallel_chunks, ParConfig};

/// Folds chunk ranges of `0..len` into per-chunk accumulators with
/// `fold(acc, start, end)` and combines the partials with `merge`.
///
/// `merge` must be associative and commutative, and `identity` must be a
/// true identity for it, because partials arrive in scheduling order.
///
/// # Examples
///
/// ```
/// use par::{parallel_reduce_with, ParConfig};
///
/// let hist = parallel_reduce_with(
///     &ParConfig::default(),
///     100,
///     vec![0u32; 4],
///     |mut acc, start, end| {
///         for i in start..end { acc[i % 4] += 1; }
///         acc
///     },
///     |mut a, b| {
///         for (x, y) in a.iter_mut().zip(b) { *x += y; }
///         a
///     },
/// );
/// assert_eq!(hist, vec![25u32; 4]);
/// ```
pub fn parallel_reduce_with<T, F, R>(
    cfg: &ParConfig,
    len: usize,
    identity: T,
    fold: F,
    merge: R,
) -> T
where
    T: Clone + Send + Sync,
    F: Fn(T, usize, usize) -> T + Sync,
    R: Fn(T, T) -> T,
{
    let partials: Mutex<Vec<T>> = Mutex::new(Vec::new());
    parallel_chunks(cfg, len, |start, end| {
        let part = fold(identity.clone(), start, end);
        partials.lock().expect("reduce worker panicked").push(part);
    });
    partials.into_inner().expect("reduce worker panicked").into_iter().fold(identity, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_reduce_sum_matches_serial() {
        let total = parallel_reduce_with(
            &ParConfig::with_threads(8).chunk_size(7),
            12_345,
            0u64,
            |acc, start, end| acc + (start..end).map(|i| (i as u64) % 97).sum::<u64>(),
            |a, b| a + b,
        );
        let serial: u64 = (0..12_345u64).map(|i| i % 97).sum();
        assert_eq!(total, serial);
    }

    #[test]
    fn histogram_merge() {
        let hist = parallel_reduce_with(
            &ParConfig::with_threads(4).chunk_size(64),
            1_000,
            vec![0u64; 10],
            |mut acc, start, end| {
                for i in start..end {
                    acc[i % 10] += 1;
                }
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        assert_eq!(hist, vec![100u64; 10]);
    }

    #[test]
    fn empty_reduce_returns_identity() {
        let v =
            parallel_reduce_with(&ParConfig::default(), 0, 42u64, |acc, _, _| acc, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn max_reduce() {
        let m = parallel_reduce_with(
            &ParConfig::with_threads(3).chunk_size(11),
            500,
            0u64,
            |acc, start, end| (start..end).map(|i| ((i * 7919) % 1009) as u64).fold(acc, u64::max),
            |a, b| a.max(b),
        );
        let serial = (0..500u64).map(|i| (i * 7919) % 1009).max().unwrap();
        assert_eq!(m, serial);
    }
}
