//! word2vec configuration.

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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        let _ = Word2VecConfig::default().dim(0);
    }
}
