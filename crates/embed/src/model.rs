//! Shared, racily-updatable embedding storage for hogwild training.

// Indexed loops over parallel arrays are the intended idiom here.
#![allow(clippy::needless_range_loop)]

use std::sync::atomic::{AtomicU32, Ordering};

/// A matrix of `f32` rows that multiple trainer threads read and update
/// concurrently without locks.
///
/// This reproduces the paper's batched GPU word2vec semantics: sentences in
/// a batch update the model concurrently, so a thread "may read from a
/// stale word embedding model" (§V-B). Because each SGNS update touches
/// only a handful of rows, the races are sparse and empirically harmless —
/// the same argument as the original hogwild paper the authors cite.
///
/// Element storage is `AtomicU32` holding `f32` bits; this type's own
/// loads and stores use relaxed ordering. Read-modify-write updates are
/// intentionally non-atomic read/add/store sequences — lost updates are
/// part of the modeled algorithm. The production window step
/// ([`simd::sgns_window`]) reads and adds to the same cells with plain
/// vector loads and stores on SIMD hardware, which is formally a data
/// race (DESIGN.md §10.2).
#[derive(Debug)]
pub struct SharedMatrix {
    rows: usize,
    dim: usize,
    stride: usize,
    data: Vec<AtomicU32>,
}

impl SharedMatrix {
    /// Creates a zeroed matrix with `rows` rows of logical width `dim`,
    /// physically strided every `stride` floats (`stride >= dim`).
    ///
    /// # Panics
    ///
    /// Panics if `stride < dim` or `dim == 0`.
    pub fn zeros(rows: usize, dim: usize, stride: usize) -> Self {
        assert!(dim >= 1, "dim must be positive");
        assert!(stride >= dim, "stride must cover dim");
        let data = (0..rows * stride).map(|_| AtomicU32::new(0)).collect();
        Self { rows, dim, stride, data }
    }

    /// Creates a matrix with entries uniform in
    /// `[-0.5 / dim, 0.5 / dim)` — word2vec's standard `syn0` init — using
    /// a deterministic splitmix stream.
    pub fn uniform_init(rows: usize, dim: usize, stride: usize, seed: u64) -> Self {
        let m = Self::zeros(rows, dim, stride);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for r in 0..rows {
            for c in 0..dim {
                let u = (next() >> 11) as f32 / (1u64 << 53) as f32;
                let v = (u - 0.5) / dim as f32;
                m.data[r * stride + c].store(v.to_bits(), Ordering::Relaxed);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Physical row stride in floats.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Copies row `r` into `buf` (`buf.len() == dim`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `buf` has the wrong length.
    #[inline]
    pub fn read_row(&self, r: usize, buf: &mut [f32]) {
        assert_eq!(buf.len(), self.dim, "buffer width mismatch");
        let base = r * self.stride;
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = f32::from_bits(self.data[base + i].load(Ordering::Relaxed));
        }
    }

    /// Row `r` as a freshly allocated vector.
    pub fn row_vec(&self, r: usize) -> Vec<f32> {
        let mut buf = vec![0.0; self.dim];
        self.read_row(r, &mut buf);
        buf
    }

    /// Overwrites row `r` with `v` (relaxed stores).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `v.len() != dim`.
    #[inline]
    pub fn write_row(&self, r: usize, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector width mismatch");
        let base = r * self.stride;
        for (i, &x) in v.iter().enumerate() {
            self.data[base + i].store(x.to_bits(), Ordering::Relaxed);
        }
    }

    /// `row[r] += scale * v` element-wise (racy read-add-store, by design).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `v.len() != dim`.
    #[inline]
    pub fn add_scaled(&self, r: usize, scale: f32, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector width mismatch");
        let base = r * self.stride;
        for (i, &x) in v.iter().enumerate() {
            let slot = &self.data[base + i];
            let cur = f32::from_bits(slot.load(Ordering::Relaxed));
            slot.store((cur + scale * x).to_bits(), Ordering::Relaxed);
        }
    }

    /// Dot product of row `r` with `v` using a scalar loop.
    #[inline]
    pub fn dot_scalar(&self, r: usize, v: &[f32]) -> f32 {
        let base = r * self.stride;
        let mut acc = 0.0f32;
        for (i, &x) in v.iter().enumerate() {
            acc += f32::from_bits(self.data[base + i].load(Ordering::Relaxed)) * x;
        }
        acc
    }

    /// Dot product of row `r` with `v` using 4-lane unrolled accumulation
    /// (the coalesced / parallel-reduction analog).
    #[inline]
    pub fn dot_chunked(&self, r: usize, v: &[f32]) -> f32 {
        let base = r * self.stride;
        let mut acc = [0.0f32; 4];
        let chunks = v.len() / 4;
        for c in 0..chunks {
            let o = c * 4;
            for lane in 0..4 {
                acc[lane] += f32::from_bits(self.data[base + o + lane].load(Ordering::Relaxed))
                    * v[o + lane];
            }
        }
        let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for i in chunks * 4..v.len() {
            total += f32::from_bits(self.data[base + i].load(Ordering::Relaxed)) * v[i];
        }
        total
    }

    /// The raw cells, row `r` starting at `r · stride`: what
    /// [`simd::sgns_window`] reads and updates in place.
    pub(crate) fn cells(&self) -> &[AtomicU32] {
        &self.data
    }

    /// Hints the CPU to pull row `r` (every cache line of it) into L1
    /// ahead of a window step that will use it.
    #[inline]
    pub(crate) fn prefetch_row(&self, r: usize) {
        // Prefetches never fault, so the address needs no bounds check.
        let row = self.data.as_ptr().wrapping_add(r * self.stride);
        // One float per 16 (a cache line's worth), then the last float.
        let mut off = 0;
        while off < self.dim {
            tgraph::prefetch::prefetch_read(row.wrapping_add(off));
            off += 16;
        }
        tgraph::prefetch::prefetch_read(row.wrapping_add(self.dim - 1));
    }

    /// Snapshot of the logical (unpadded) contents, row-major.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.dim);
        let mut buf = vec![0.0; self.dim];
        for r in 0..self.rows {
            self.read_row(r, &mut buf);
            out.extend_from_slice(&buf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_round_trip() {
        let m = SharedMatrix::zeros(3, 4, 4);
        m.add_scaled(1, 2.0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row_vec(1), vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(m.row_vec(0), vec![0.0; 4]);
    }

    #[test]
    fn padded_stride_isolates_rows() {
        let m = SharedMatrix::zeros(2, 3, 16);
        m.add_scaled(0, 1.0, &[1.0, 1.0, 1.0]);
        assert_eq!(m.row_vec(1), vec![0.0; 3]);
        assert_eq!(m.stride(), 16);
    }

    #[test]
    fn write_row_overwrites() {
        let m = SharedMatrix::uniform_init(2, 4, 4, 9);
        m.write_row(1, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row_vec(1), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dot_variants_agree() {
        let m = SharedMatrix::uniform_init(4, 11, 11, 5);
        let v: Vec<f32> = (0..11).map(|i| i as f32 * 0.1).collect();
        for r in 0..4 {
            let a = m.dot_scalar(r, &v);
            let b = m.dot_chunked(r, &v);
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn uniform_init_is_bounded_and_deterministic() {
        let a = SharedMatrix::uniform_init(5, 8, 8, 1).to_dense();
        let b = SharedMatrix::uniform_init(5, 8, 8, 1).to_dense();
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.abs() <= 0.5 / 8.0 + 1e-6));
        assert!(a.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn concurrent_updates_do_not_corrupt_bits() {
        // Hogwild loses updates but every stored value must remain a valid
        // finite float written by someone.
        let m = std::sync::Arc::new(SharedMatrix::zeros(1, 8, 8));
        let mut handles = Vec::new();
        for t in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let v = vec![t as f32 + 1.0; 8];
                for _ in 0..1_000 {
                    m.add_scaled(0, 1.0, &v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let row = m.row_vec(0);
        assert!(row.iter().all(|x| x.is_finite() && *x > 0.0));
    }

    #[test]
    #[should_panic(expected = "stride must cover dim")]
    fn narrow_stride_panics() {
        let _ = SharedMatrix::zeros(1, 8, 4);
    }
}
