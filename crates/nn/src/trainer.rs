//! Mini-batch training loop with validation tracking and per-epoch timing.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::mlp::{Targets, Workspace};
use crate::{metrics, Mlp, OutputHead, Sgd, Tensor2};

/// Training-loop hyperparameters (artifact §A.8: epochs, hidden dims,
/// learning rate, batch size, target accuracy).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Classical momentum coefficient (`0.0` disables it).
    pub momentum: f32,
    /// Per-epoch multiplicative learning-rate decay.
    pub lr_decay: f32,
    /// Seed for epoch shuffling.
    pub shuffle_seed: u64,
    /// Stop early once validation accuracy reaches this value.
    pub target_valid_accuracy: Option<f64>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 64,
            lr: 0.1,
            momentum: 0.9,
            lr_decay: 0.97,
            shuffle_seed: 0,
            target_valid_accuracy: None,
        }
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Validation accuracy after the epoch (0.5-threshold for binary).
    pub valid_accuracy: f64,
    /// Wall-clock time of the epoch (the paper's per-epoch training time,
    /// Table III).
    pub duration: Duration,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Stats for each epoch actually run.
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock training time.
    pub total_time: Duration,
}

impl TrainReport {
    /// Mean per-epoch duration (Table III reports training time per epoch).
    pub fn mean_epoch_time(&self) -> Duration {
        if self.epochs.is_empty() {
            return Duration::ZERO;
        }
        self.total_time / self.epochs.len() as u32
    }

    /// Final validation accuracy (0 if no epochs ran).
    pub fn final_valid_accuracy(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.valid_accuracy)
    }
}

/// Drives SGD over mini-batches for either task head.
///
/// # Examples
///
/// ```
/// use nn::{Mlp, OutputHead, Tensor2, TrainOptions, Trainer};
///
/// // Learn y = x > 0 on one feature.
/// let x: Vec<Vec<f32>> = (-20..20).map(|i| vec![i as f32 / 10.0]).collect();
/// let rows: Vec<&[f32]> = x.iter().map(|r| r.as_slice()).collect();
/// let xs = Tensor2::from_rows(&rows);
/// let ys: Vec<f32> = (-20..20).map(|i| if i > 0 { 1.0 } else { 0.0 }).collect();
/// let mut mlp = Mlp::new(&[1, 4, 1], OutputHead::Binary, 0);
/// let trainer = Trainer::new(TrainOptions { epochs: 50, batch_size: 8, ..Default::default() });
/// let report = trainer.fit_binary(&mut mlp, &xs, &ys, &xs, &ys);
/// assert!(report.final_valid_accuracy() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    opts: TrainOptions,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `epochs == 0` or `batch_size == 0`.
    pub fn new(opts: TrainOptions) -> Self {
        assert!(opts.epochs >= 1, "need at least one epoch");
        assert!(opts.batch_size >= 1, "need a positive batch size");
        Self { opts }
    }

    /// The options this trainer runs with.
    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    /// Trains a binary-head network on `{0.0, 1.0}` targets.
    ///
    /// # Panics
    ///
    /// Panics if the network head is not [`OutputHead::Binary`] or if
    /// feature/target row counts disagree.
    pub fn fit_binary(
        &self,
        mlp: &mut Mlp,
        x_train: &Tensor2,
        y_train: &[f32],
        x_valid: &Tensor2,
        y_valid: &[f32],
    ) -> TrainReport {
        assert_eq!(mlp.head(), OutputHead::Binary, "trainer/head mismatch");
        assert_eq!(y_train.len(), x_train.rows(), "target count mismatch");
        self.run(mlp, x_train, Targets::Binary(y_train), x_valid, Targets::Binary(y_valid))
    }

    /// Trains a multi-class network on integer labels.
    ///
    /// # Panics
    ///
    /// Panics if the network head is not [`OutputHead::MultiClass`] or if
    /// feature/label row counts disagree.
    pub fn fit_multiclass(
        &self,
        mlp: &mut Mlp,
        x_train: &Tensor2,
        y_train: &[usize],
        x_valid: &Tensor2,
        y_valid: &[usize],
    ) -> TrainReport {
        assert_eq!(mlp.head(), OutputHead::MultiClass, "trainer/head mismatch");
        assert_eq!(y_train.len(), x_train.rows(), "label count mismatch");
        self.run(mlp, x_train, Targets::MultiClass(y_train), x_valid, Targets::MultiClass(y_valid))
    }

    /// The training loop. One [`Workspace`] sized to `batch_size` carries
    /// every batch — gather, step, `Sgd::step` — and the block-wise
    /// validation pass, so after the first batch an epoch allocates
    /// nothing. The whole fit flushes subnormals to zero: the momentum of
    /// a weight whose gradient has died decays geometrically into the
    /// subnormal range, and each `Sgd::step` over it would otherwise take
    /// the CPU's microcoded slow path.
    fn run(
        &self,
        mlp: &mut Mlp,
        x_train: &Tensor2,
        train: Targets<'_>,
        x_valid: &Tensor2,
        valid: Targets<'_>,
    ) -> TrainReport {
        let n_rows = x_train.rows();
        assert!(n_rows > 0, "no training rows");
        let _flush = simd::FlushSubnormals::new();
        let mut opt = Sgd::new(self.opts.lr).decay(self.opts.lr_decay);
        if self.opts.momentum > 0.0 {
            opt = opt.momentum(self.opts.momentum);
        }
        let mut rng = StdRng::seed_from_u64(self.opts.shuffle_seed);
        let mut order: Vec<usize> = (0..n_rows).collect();
        let mut ws = Workspace::new(mlp, self.opts.batch_size);
        let (mut proba, mut classes) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut epochs = Vec::with_capacity(self.opts.epochs);

        for epoch in 0..self.opts.epochs {
            let tick = Instant::now();
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f64;
            let mut batches = 0usize;
            for idx in order.chunks(self.opts.batch_size) {
                ws.gather(x_train, train, idx);
                let loss = mlp.train_step(&mut ws, idx.len());
                opt.step(mlp.params_iter_mut(), ws.grads());
                loss_sum += loss as f64;
                batches += 1;
            }
            opt.decay_lr();
            let valid_accuracy = match valid {
                Targets::Binary(y) => {
                    mlp.predict_proba_into(x_valid, &mut ws.acts, &mut proba);
                    metrics::binary_accuracy(&proba, y)
                }
                Targets::MultiClass(y) => {
                    mlp.predict_class_into(x_valid, &mut ws.acts, &mut classes);
                    metrics::accuracy(&classes, y)
                }
            };
            epochs.push(EpochStats {
                epoch,
                train_loss: loss_sum / batches.max(1) as f64,
                valid_accuracy,
                duration: tick.elapsed(),
            });
            if let Some(target) = self.opts.target_valid_accuracy {
                if valid_accuracy >= target {
                    break;
                }
            }
        }

        TrainReport { epochs, total_time: start.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(seed: f32) -> (Tensor2, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let j = i as f32 * 0.03 + seed;
            rows.push(vec![j.sin() * 0.2, j.cos() * 0.2]);
            labels.push(0usize);
            rows.push(vec![3.0 + j.sin() * 0.2, 3.0 + j.cos() * 0.2]);
            labels.push(1usize);
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Tensor2::from_rows(&refs), labels)
    }

    #[test]
    fn multiclass_trainer_reaches_high_accuracy() {
        let (x, y) = blob_data(0.0);
        let (xv, yv) = blob_data(0.5);
        let mut mlp = Mlp::new(&[2, 8, 8, 2], OutputHead::MultiClass, 1);
        let trainer = Trainer::new(TrainOptions {
            epochs: 40,
            batch_size: 16,
            lr: 0.2,
            ..Default::default()
        });
        let report = trainer.fit_multiclass(&mut mlp, &x, &y, &xv, &yv);
        assert!(report.final_valid_accuracy() > 0.95, "{}", report.final_valid_accuracy());
        assert!(report.total_time >= report.mean_epoch_time());
    }

    #[test]
    fn early_stop_halts_at_target() {
        let (x, y) = blob_data(0.0);
        let mut mlp = Mlp::new(&[2, 8, 2], OutputHead::MultiClass, 2);
        let trainer = Trainer::new(TrainOptions {
            epochs: 500,
            batch_size: 16,
            lr: 0.3,
            target_valid_accuracy: Some(0.99),
            ..Default::default()
        });
        let report = trainer.fit_multiclass(&mut mlp, &x, &y, &x, &y);
        assert!(report.epochs.len() < 500, "early stop never triggered");
        assert!(report.final_valid_accuracy() >= 0.99);
    }

    #[test]
    fn loss_trends_downward() {
        let (x, y) = blob_data(0.0);
        let mut mlp = Mlp::new(&[2, 8, 2], OutputHead::MultiClass, 3);
        let trainer = Trainer::new(TrainOptions { epochs: 20, lr: 0.1, ..Default::default() });
        let report = trainer.fit_multiclass(&mut mlp, &x, &y, &x, &y);
        let first = report.epochs.first().unwrap().train_loss;
        let last = report.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss went {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "trainer/head mismatch")]
    fn head_mismatch_panics() {
        let mut mlp = Mlp::new(&[2, 2], OutputHead::MultiClass, 0);
        let x = Tensor2::zeros(2, 2);
        let _ = Trainer::new(TrainOptions::default()).fit_binary(
            &mut mlp,
            &x,
            &[0.0, 1.0],
            &x,
            &[0.0, 1.0],
        );
    }
}
