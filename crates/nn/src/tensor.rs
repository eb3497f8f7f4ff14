//! Dense row-major 2-D tensors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense `rows × cols` matrix of `f32` in row-major layout.
///
/// This is the only tensor shape the paper's classifiers need (mini-batch
/// activations and weight matrices).
///
/// # Examples
///
/// ```
/// use nn::Tensor2;
///
/// let t = Tensor2::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.get(1, 0), 3.0);
/// assert_eq!(t.shape(), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from explicit row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Takes ownership of a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `seed` —
    /// the standard initialization for the paper's FNN layers.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
        Self { rows, cols, data }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor2 {
        let mut out = Tensor2::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise `self += alpha * other` (SIMD-dispatched).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor2) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        simd::axpy(alpha, &other.data, &mut self.data);
    }

    /// Element-wise `self = a · self + b · other` — the fused
    /// scale-then-accumulate step (SIMD-dispatched), e.g. SGD momentum's
    /// `v ← μv − lr·g`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn scale_accum(&mut self, a: f32, b: f32, other: &Tensor2) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in scale_accum");
        simd::scale_accum(&mut self.data, a, b, &other.data);
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Adds `bias` (length `cols`) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias_row(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor2::zeros(2, 3);
        t.set(1, 2, 5.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor2::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let tt = t.transposed();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor2::from_rows(&[&[1.0, 1.0]]);
        let b = Tensor2::from_rows(&[&[2.0, 4.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let mut t = Tensor2::zeros(2, 2);
        t.add_bias_row(&[1.0, -1.0]);
        assert_eq!(t.as_slice(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Tensor2::xavier(10, 10, 7);
        let b = Tensor2::xavier(10, 10, 7);
        assert_eq!(a, b);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(a.as_slice().iter().all(|&x| x.abs() <= bound));
        // Not all identical.
        assert!(a.as_slice().windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn bad_from_vec_panics() {
        let _ = Tensor2::from_vec(2, 2, vec![0.0; 3]);
    }
}
