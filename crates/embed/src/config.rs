//! word2vec configuration and ablation knobs.

/// Embedding-row storage layout (paper Fig. 6 "No-pad" ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Rows padded to a 64-byte cache line (16 `f32`s) — the layout a prior
    /// GPU implementation used to avoid false sharing. Wasteful when
    /// `d = 8` occupies half a line.
    Padded,
    /// Rows packed back-to-back — the paper's optimized layout.
    #[default]
    Packed,
}

/// Inner-product / accumulation strategy (paper Fig. 6 "Coalesce" and
/// "Par-red" ablations, mapped onto CPU SIMD-friendly loop shapes).
/// `Scalar` and `Chunked` run word2vec's per-pair loop; `Simd` runs the
/// window-batched step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Straightforward scalar loop over per-element atomics.
    Scalar,
    /// 4-lane unrolled loops (coalesced access + parallel reduction
    /// analog), which the compiler vectorizes.
    Chunked,
    /// The window-batched step: negatives drawn once per center and
    /// shared by its whole window, with scores and updates in one
    /// `simd::sgns_window` call (AVX2/FMA with runtime dispatch, scalar
    /// fallback elsewhere) — see DESIGN.md §10.
    #[default]
    Simd,
}

/// Hyperparameters of the skip-gram-with-negative-sampling trainer.
///
/// Defaults follow the paper's empirically optimal setting: embedding
/// dimension 8 (§VII-A) with standard word2vec training constants.
///
/// # Examples
///
/// ```
/// use embed::Word2VecConfig;
///
/// let cfg = Word2VecConfig::default().dim(16).epochs(2);
/// assert_eq!(cfg.dim, 16);
/// assert_eq!(cfg.epochs, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Word2VecConfig {
    /// Embedding dimensionality `d` (paper optimal: 8).
    pub dim: usize,
    /// Skip-gram window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to `min_lr`).
    pub initial_lr: f32,
    /// Floor for the decayed learning rate.
    pub min_lr: f32,
    /// RNG seed.
    pub seed: u64,
    /// Embedding storage layout.
    pub layout: Layout,
    /// Dot-product/accumulation strategy.
    pub reduction: Reduction,
}

impl Word2VecConfig {
    /// Sets the embedding dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn dim(mut self, dim: usize) -> Self {
        assert!(dim >= 1, "embedding dimension must be positive");
        self.dim = dim;
        self
    }

    /// Sets the number of epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0`.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> Self {
        assert!(epochs >= 1, "need at least one epoch");
        self.epochs = epochs;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the storage layout ablation knob.
    #[must_use]
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the reduction-strategy ablation knob.
    #[must_use]
    pub fn reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Row stride in floats implied by the layout.
    pub fn stride(&self) -> usize {
        match self.layout {
            Layout::Packed => self.dim,
            Layout::Padded => self.dim.div_ceil(16) * 16,
        }
    }
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 8,
            window: 5,
            negatives: 5,
            epochs: 3,
            initial_lr: 0.05,
            min_lr: 0.0001,
            seed: 0,
            layout: Layout::default(),
            reduction: Reduction::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_depends_on_layout() {
        let packed = Word2VecConfig::default().dim(8);
        assert_eq!(packed.stride(), 8);
        let padded = Word2VecConfig::default().dim(8).layout(Layout::Padded);
        assert_eq!(padded.stride(), 16);
        let wide = Word2VecConfig::default().dim(20).layout(Layout::Padded);
        assert_eq!(wide.stride(), 32);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = Word2VecConfig::default().dim(0);
    }
}
