//! Stochastic gradient descent (the paper's optimizer for both tasks).

use crate::Tensor2;

/// SGD with optional classical momentum and multiplicative learning-rate
/// decay (the paper's training hyperparameters include learning rate and
/// rate decay, artifact §A.8).
///
/// # Examples
///
/// ```
/// use nn::{Sgd, Tensor2};
///
/// let mut w = Tensor2::from_rows(&[&[1.0]]);
/// let g = Tensor2::from_rows(&[&[0.5]]);
/// let mut opt = Sgd::new(0.1);
/// opt.step(vec![&mut w], std::slice::from_ref(&g));
/// assert!((w.get(0, 0) - 0.95).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    decay: f32,
    velocity: Vec<Tensor2>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, momentum: 0.0, decay: 1.0, velocity: Vec::new() }
    }

    /// Adds classical momentum (`v ← μ v - lr g`, `w ← w + v`).
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is outside `[0, 1)`.
    #[must_use]
    pub fn momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// Sets a per-epoch multiplicative decay applied by
    /// [`decay_lr`](Self::decay_lr).
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `(0, 1]`.
    #[must_use]
    pub fn decay(mut self, decay: f32) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        self.decay = decay;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one multiplicative decay step (call once per epoch).
    pub fn decay_lr(&mut self) {
        self.lr *= self.decay;
    }

    /// Applies one update to `params` given matching `grads`. Takes any
    /// iterator of parameters (a `Vec<&mut Tensor2>`, or the trainer's
    /// non-collecting one), so a step need not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in count or any shape
    /// mismatches (after the first call establishes velocity shapes).
    pub fn step<'a>(
        &mut self,
        params: impl IntoIterator<Item = &'a mut Tensor2>,
        grads: &[Tensor2],
    ) {
        let mut params = params.into_iter();
        if self.momentum > 0.0 && self.velocity.is_empty() {
            self.velocity = grads.iter().map(|g| Tensor2::zeros(g.rows(), g.cols())).collect();
        }
        for (i, g) in grads.iter().enumerate() {
            let p = params.next().expect("params/grads length mismatch");
            if self.momentum == 0.0 {
                p.axpy(-self.lr, g);
            } else {
                // v ← μv − lr·g in one fused pass, then w ← w + v.
                let v = &mut self.velocity[i];
                v.scale_accum(self.momentum, -self.lr, g);
                p.axpy(1.0, v);
            }
        }
        assert!(params.next().is_none(), "params/grads length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn momentum_accumulates_velocity() {
        let mut w = Tensor2::from_rows(&[&[0.0]]);
        let g = Tensor2::from_rows(&[&[1.0]]);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        opt.step(vec![&mut w], std::slice::from_ref(&g));
        assert!((w.get(0, 0) + 0.1).abs() < 1e-6);
        opt.step(vec![&mut w], std::slice::from_ref(&g));
        // v = 0.9 * (-0.1) - 0.1 = -0.19; w = -0.1 - 0.19 = -0.29.
        assert!((w.get(0, 0) + 0.29).abs() < 1e-6);
    }

    #[test]
    fn lr_decay_compounds() {
        let mut opt = Sgd::new(1.0).decay(0.5);
        opt.decay_lr();
        opt.decay_lr();
        assert!((opt.lr() - 0.25).abs() < 1e-7);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize (w - 3)^2 by hand-fed gradients 2(w - 3).
        let mut w = Tensor2::from_rows(&[&[0.0]]);
        let mut opt = Sgd::new(0.1).momentum(0.5);
        for _ in 0..200 {
            let g = Tensor2::from_rows(&[&[2.0 * (w.get(0, 0) - 3.0)]]);
            opt.step(vec![&mut w], std::slice::from_ref(&g));
        }
        assert!((w.get(0, 0) - 3.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0);
    }
}
