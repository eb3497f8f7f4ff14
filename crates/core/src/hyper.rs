//! Pipeline hyperparameters.

use twalk::TransitionSampler;

/// How node embeddings are produced (phases 1–2).
///
/// [`TemporalWalks`](EmbeddingStrategy::TemporalWalks) is the paper's
/// CTDNE pipeline; the other two are the baseline families its related
/// work contrasts against (§II-B): modeling the dynamic graph as fully
/// static, or as a sequence of static snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbeddingStrategy {
    /// Temporally-valid random walks (the paper's method).
    #[default]
    TemporalWalks,
    /// Static DeepWalk: timestamps ignored, walks over the full graph.
    StaticDeepWalk,
    /// DeepWalk over a sequence of cumulative snapshots `G_{t_1..t_S}`;
    /// walk budget is divided across snapshots so corpus size stays
    /// comparable.
    SnapshotDeepWalk {
        /// Number of snapshots `S` (≥ 1).
        snapshots: usize,
    },
}

/// All tunables of the end-to-end pipeline.
///
/// Defaults are the paper's empirically optimal operating point (§VII-A):
/// 10 walks per node, walk length 6, embedding dimension 8, with standard
/// word2vec and SGD training constants. The artifact's tunables (§A.8)
/// map onto these fields.
///
/// # Examples
///
/// ```
/// use rwalk_core::Hyperparams;
///
/// let hp = Hyperparams::paper_optimal();
/// assert_eq!(hp.walks_per_node, 10);
/// assert_eq!(hp.walk_length, 6);
/// assert_eq!(hp.dim, 8);
/// let sweep = hp.clone().with_dim(16);
/// assert_eq!(sweep.dim, 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperparams {
    /// Random walks per node (`K`).
    pub walks_per_node: usize,
    /// Maximum walk length (`N`).
    pub walk_length: usize,
    /// Embedding dimension (`d`).
    pub dim: usize,
    /// Walk transition probability model.
    pub sampler: TransitionSampler,
    /// word2vec skip-gram window.
    pub window: usize,
    /// word2vec negative samples.
    pub negatives: usize,
    /// word2vec epochs.
    pub w2v_epochs: usize,
    /// Hidden layer width of the FNN classifiers.
    pub hidden: usize,
    /// Hidden layers appended beyond the paper's defaults (2-layer FNN for
    /// link prediction, 3-layer for node classification). Non-zero values
    /// deepen both classifiers; combined with [`Self::residual`] this
    /// realizes the §VIII-A ResNet-style variant.
    pub extra_hidden_layers: usize,
    /// Maximum classifier training epochs.
    pub train_epochs: usize,
    /// Classifier mini-batch size.
    pub batch_size: usize,
    /// Classifier learning rate.
    pub lr: f32,
    /// Classifier momentum.
    pub momentum: f32,
    /// Per-epoch learning-rate decay.
    pub lr_decay: f32,
    /// Early-stop once validation accuracy reaches this target.
    pub target_accuracy: Option<f64>,
    /// Seed for every random stage (walks, word2vec, splits, init).
    pub seed: u64,
    /// Worker threads (`0` = all available).
    pub threads: usize,
    /// ResNet-style skip connections in the classifier (paper §VIII-A).
    pub residual: bool,
    /// Embedding production strategy (temporal walks vs static/snapshot
    /// baselines).
    pub strategy: EmbeddingStrategy,
}

impl Hyperparams {
    /// The paper's optimal setting: `K = 10`, `N = 6`, `d = 8`.
    pub fn paper_optimal() -> Self {
        Self {
            walks_per_node: 10,
            walk_length: 6,
            dim: 8,
            sampler: TransitionSampler::Softmax,
            window: 5,
            negatives: 5,
            w2v_epochs: 3,
            hidden: 64,
            extra_hidden_layers: 0,
            train_epochs: 30,
            batch_size: 64,
            lr: 0.1,
            momentum: 0.9,
            lr_decay: 0.97,
            target_accuracy: None,
            seed: 42,
            threads: 0,
            residual: false,
            strategy: EmbeddingStrategy::default(),
        }
    }

    /// Shrinks the training budget for fast unit/integration tests while
    /// keeping the pipeline end-to-end.
    #[must_use]
    pub fn quick_test(mut self) -> Self {
        self.w2v_epochs = 2;
        self.train_epochs = 10;
        self
    }

    /// Sets the walks-per-node sweep parameter (Fig. 8b x-axis).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_walks_per_node(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one walk per node");
        self.walks_per_node = k;
        self
    }

    /// Sets the walk-length sweep parameter (Fig. 8c x-axis).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_walk_length(mut self, n: usize) -> Self {
        assert!(n >= 1, "walks must have at least one vertex");
        self.walk_length = n;
        self
    }

    /// Sets the embedding-dimension sweep parameter (Fig. 8d x-axis).
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn with_dim(mut self, d: usize) -> Self {
        assert!(d >= 1, "embedding dimension must be positive");
        self.dim = d;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the walk transition sampler.
    #[must_use]
    pub fn with_sampler(mut self, sampler: TransitionSampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the embedding strategy (paper method vs baselines).
    #[must_use]
    pub fn with_strategy(mut self, strategy: EmbeddingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the thread count (`0` = all).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Resolved parallel configuration.
    pub fn par_config(&self) -> par::ParConfig {
        if self.threads == 0 {
            par::ParConfig::new()
        } else {
            par::ParConfig::with_threads(self.threads)
        }
        .chunk_size(64)
    }

    /// The walk configuration this setting implies.
    pub fn walk_config(&self) -> twalk::WalkConfig {
        twalk::WalkConfig::new(self.walks_per_node, self.walk_length)
            .sampler(self.sampler)
            .seed(self.seed)
    }

    /// The word2vec configuration this setting implies.
    pub fn w2v_config(&self) -> embed::Word2VecConfig {
        let mut cfg = embed::Word2VecConfig::default()
            .dim(self.dim)
            .epochs(self.w2v_epochs)
            .seed(self.seed ^ 0x77);
        cfg.window = self.window;
        cfg.negatives = self.negatives;
        cfg
    }

    /// The classifier training options this setting implies.
    pub fn train_options(&self) -> nn::TrainOptions {
        nn::TrainOptions {
            epochs: self.train_epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            momentum: self.momentum,
            lr_decay: self.lr_decay,
            shuffle_seed: self.seed ^ 0xBEEF,
            target_valid_accuracy: self.target_accuracy,
        }
    }
}

impl Default for Hyperparams {
    fn default() -> Self {
        Self::paper_optimal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimal_matches_section_vii_summary() {
        let hp = Hyperparams::paper_optimal();
        assert_eq!((hp.walks_per_node, hp.walk_length, hp.dim), (10, 6, 8));
    }

    #[test]
    fn derived_configs_carry_values() {
        let hp = Hyperparams::paper_optimal().with_dim(16).with_seed(9);
        assert_eq!(hp.w2v_config().dim, 16);
        assert_eq!(hp.walk_config().walks_per_node, 10);
        assert_eq!(hp.walk_config().seed, 9);
        assert_eq!(hp.train_options().epochs, hp.train_epochs);
    }

    #[test]
    fn zero_threads_resolves_to_available() {
        let hp = Hyperparams::paper_optimal().with_threads(0);
        assert!(hp.par_config().threads() >= 1);
        let hp = hp.with_threads(3);
        assert_eq!(hp.par_config().threads(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one walk")]
    fn zero_walks_rejected() {
        let _ = Hyperparams::paper_optimal().with_walks_per_node(0);
    }
}
