//! Multi-layer perceptron with manual backpropagation.
//!
//! Every pass — a training step, [`Mlp::forward`], `predict_*`, the
//! trainer's validation — runs through preallocated [`Workspace`] /
//! [`Acts`] buffers and the `simd` GEMM kernels, which read weights,
//! activations and deltas in place: a step allocates nothing and copies
//! no transposed matrix, and a forward pass over `n` rows runs in
//! fixed-size row blocks, so its scratch does not grow with `n`.

use std::time::Instant;

use obs::HistogramHandle;
use simd::Epilogue;

use crate::Tensor2;

/// Rows per block for a standalone forward pass ([`Mlp::forward`],
/// `predict_*`): bounds its scratch at `BLOCK_ROWS × Σ widths` floats.
const BLOCK_ROWS: usize = 256;

/// Output head of an [`Mlp`], fixing the final activation and loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputHead {
    /// Single-logit sigmoid output trained with binary cross-entropy —
    /// the paper's link prediction head (Eq. 4).
    Binary,
    /// `C`-logit log-softmax output trained with negative log-likelihood —
    /// the paper's node classification head.
    MultiClass,
}

/// A feed-forward neural network with ReLU hidden layers.
///
/// `dims` gives the layer widths including input and output, so the
/// paper's 2-layer link prediction FNN over `2d`-dimensional edge features
/// is `Mlp::new(&[2 * d, hidden, 1], OutputHead::Binary, seed)` and the
/// 3-layer node classification FNN is
/// `Mlp::new(&[d, h1, h2, C], OutputHead::MultiClass, seed)`.
///
/// Optional residual (skip) connections on equal-width hidden layers
/// implement the ResNet-style variant the paper suggests in §VIII-A.
#[derive(Debug, Clone)]
pub struct Mlp {
    weights: Vec<Tensor2>, // layer i: dims[i] × dims[i+1]
    biases: Vec<Tensor2>,  // layer i: 1 × dims[i+1]
    head: OutputHead,
    residual: bool,
}

impl Mlp {
    /// Creates a network with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given, any dim is zero, or a
    /// `Binary` head is requested with output width ≠ 1.
    pub fn new(dims: &[usize], head: OutputHead, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        if head == OutputHead::Binary {
            assert_eq!(*dims.last().unwrap(), 1, "binary head needs one output");
        }
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for (i, w) in dims.windows(2).enumerate() {
            weights.push(Tensor2::xavier(w[0], w[1], seed.wrapping_add(i as u64)));
            biases.push(Tensor2::zeros(1, w[1]));
        }
        Self { weights, biases, head, residual: false }
    }

    /// Enables ResNet-style skip connections on hidden layers whose input
    /// and output widths match (paper §VIII-A extension).
    #[must_use]
    pub fn with_residual(mut self, yes: bool) -> Self {
        self.residual = yes;
        self
    }

    /// Rebuilds a network from explicit parameters — the import path for
    /// the persistent storage layer, which round-trips a trained model
    /// through a snapshot file. Shapes are *checked*, not assumed: the
    /// same chaining and head invariants [`Mlp::new`] constructs must
    /// hold, or an `Err` comes back (never a panic on file data).
    pub fn from_parts(
        weights: Vec<Tensor2>,
        biases: Vec<Tensor2>,
        head: OutputHead,
        residual: bool,
    ) -> Result<Self, String> {
        if weights.is_empty() {
            return Err("network needs at least one layer".into());
        }
        if weights.len() != biases.len() {
            return Err(format!("{} weight layers but {} bias rows", weights.len(), biases.len()));
        }
        for (i, (w, b)) in weights.iter().zip(&biases).enumerate() {
            if w.rows() == 0 || w.cols() == 0 {
                return Err(format!("layer {i} has a zero dimension"));
            }
            if b.shape() != (1, w.cols()) {
                return Err(format!(
                    "layer {i} bias shape {:?} does not match weight columns {}",
                    b.shape(),
                    w.cols()
                ));
            }
            if i + 1 < weights.len() && weights[i + 1].rows() != w.cols() {
                return Err(format!(
                    "layer {} input width {} does not chain from layer {i} output {}",
                    i + 1,
                    weights[i + 1].rows(),
                    w.cols()
                ));
            }
        }
        if head == OutputHead::Binary && weights.last().expect("nonempty").cols() != 1 {
            return Err("binary head needs one output".into());
        }
        Ok(Self { weights, biases, head, residual })
    }

    /// Layer widths including input and output — the `dims` that
    /// [`Mlp::new`] was (or could have been) called with.
    pub fn layer_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.weights.len() + 1);
        dims.push(self.weights[0].rows());
        dims.extend(self.weights.iter().map(Tensor2::cols));
        dims
    }

    /// The per-layer weight matrices (`dims[i] × dims[i+1]`).
    pub fn weights(&self) -> &[Tensor2] {
        &self.weights
    }

    /// The per-layer bias rows (`1 × dims[i+1]`).
    pub fn biases(&self) -> &[Tensor2] {
        &self.biases
    }

    /// Whether residual (skip) connections are enabled.
    pub fn residual(&self) -> bool {
        self.residual
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Input feature width (`dims[0]`) — what a serving layer must feed
    /// each row of the forward batch.
    pub fn input_dim(&self) -> usize {
        self.weights[0].rows()
    }

    /// Output width (`dims.last()`): 1 for a binary head, `C` for
    /// multi-class.
    pub fn output_dim(&self) -> usize {
        self.weights.last().expect("at least one layer").cols()
    }

    /// Output head.
    pub fn head(&self) -> OutputHead {
        self.head
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.weights.iter().map(Tensor2::len).sum::<usize>()
            + self.biases.iter().map(Tensor2::len).sum::<usize>()
    }

    /// Mutable references to all parameters interleaved as
    /// `[W0, b0, W1, b1, …]`, matching the gradient order returned by the
    /// loss functions — hand both to [`crate::Sgd::step`].
    pub fn params_mut(&mut self) -> Vec<&mut Tensor2> {
        self.params_iter_mut().collect()
    }

    /// [`params_mut`](Self::params_mut) without collecting: what the
    /// trainer hands [`crate::Sgd::step`] so a step allocates nothing.
    pub(crate) fn params_iter_mut(&mut self) -> impl Iterator<Item = &mut Tensor2> {
        self.weights.iter_mut().zip(self.biases.iter_mut()).flat_map(|(w, b)| [w, b])
    }

    fn layer_has_residual(&self, i: usize) -> bool {
        self.residual
            && i + 1 < self.weights.len() // hidden layers only
            && self.weights[i].rows() == self.weights[i].cols()
    }

    /// Forward pass returning raw logits (`batch × out`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` is not the network's input width.
    pub fn forward(&self, x: &Tensor2) -> Tensor2 {
        let mut logits = Vec::with_capacity(x.rows() * self.output_dim());
        self.forward_blocks(x, &mut Acts::for_rows(self, x.rows()), |z| {
            logits.extend_from_slice(z)
        });
        Tensor2::from_vec(x.rows(), self.output_dim(), logits)
    }

    /// Runs the forward pass over `x` in blocks of at most `acts.cap`
    /// rows, handing each block's logits (`rows × out`) to `f` in order.
    fn forward_blocks(&self, x: &Tensor2, acts: &mut Acts, mut f: impl FnMut(&[f32])) {
        let d = self.input_dim();
        assert_eq!(x.cols(), d, "input width does not match the network");
        for block in x.as_slice().chunks(acts.cap * d) {
            f(self.forward_into(block, block.len() / d, acts));
        }
    }

    /// Forward pass over the `m` rows of `x` (`m × dims[0]`), leaving every
    /// layer's output in `acts` for the backward pass; returns the logits
    /// (`m × out`). Bias and ReLU run inside the GEMM's store.
    fn forward_into<'a>(&self, x: &[f32], m: usize, acts: &'a mut Acts) -> &'a [f32] {
        let l = self.weights.len();
        for i in 0..l {
            let (k, n) = self.weights[i].shape();
            let (done, rest) = acts.out.split_at_mut(i);
            let (res_done, res_rest) = acts.res.split_at_mut(i);
            let input = layer_input(x, done, res_done, i, m * k);
            let out = &mut rest[0][..m * n];
            let bias = self.biases[i].as_slice();
            let epi = if i + 1 == l { Epilogue::Bias(bias) } else { Epilogue::BiasRelu(bias) };
            // Per-layer GEMM timing (RW-P3/P4 breakdown): the handle was
            // resolved once per workspace; without a recorder this is one
            // `is_some` check and no clock read.
            let timer = &acts.gemm_ns[i];
            let t0 = timer.is_enabled().then(Instant::now);
            simd::gemm(m, n, k, input, self.weights[i].as_slice(), out, epi);
            if let Some(t0) = t0 {
                timer.record_duration(t0.elapsed());
            }
            if self.layer_has_residual(i) {
                let res = &mut res_rest[0][..m * n];
                res.copy_from_slice(out);
                simd::axpy(1.0, input, res);
            }
        }
        &acts.out[l - 1][..m * self.output_dim()]
    }

    /// One training step over the first `m` gathered rows of `ws`:
    /// forward, loss, backward. Leaves the gradients in `ws.grads` and
    /// returns the mean loss. Allocates nothing.
    pub(crate) fn train_step(&self, ws: &mut Workspace, m: usize) -> f32 {
        assert!(m <= ws.acts.cap, "batch of {m} rows exceeds the workspace");
        let Workspace { x, y, labels, acts, back } = ws;
        let x = &x[..m * self.input_dim()];
        let classes = self.output_dim();
        let logits = self.forward_into(x, m, acts);
        let delta = &mut back.delta[..m * classes];
        let loss = match self.head {
            OutputHead::Binary => binary_loss(logits, &y[..m], delta),
            OutputHead::MultiClass => multiclass_loss(logits, &labels[..m], classes, delta),
        };
        self.backward(x, m, acts, back);
        loss
    }

    /// Backpropagates `back.delta = dL/d(logits)` through the outputs the
    /// forward pass left in `acts`, writing `[gW0, gb0, gW1, gb1, …]` into
    /// `back.grads`. `gW = Xᵀ·δ` accumulates over the batch rows in place;
    /// `δ·Wᵀ` reads `W` as stored.
    fn backward(&self, x: &[f32], m: usize, acts: &Acts, back: &mut Back) {
        for i in (0..self.weights.len()).rev() {
            let (k, n) = self.weights[i].shape();
            let input = layer_input(x, &acts.out, &acts.res, i, m * k);
            let delta = &back.delta[..m * n];
            let [gw, gb] = &mut back.grads[2 * i..2 * i + 2] else {
                unreachable!("two gradients per layer")
            };
            gw.as_mut_slice().fill(0.0);
            simd::gemm_transa_accum(m, n, k, input, delta, gw.as_mut_slice());
            let gb = gb.as_mut_slice();
            gb.fill(0.0);
            for row in delta.chunks_exact(n) {
                for (g, d) in gb.iter_mut().zip(row) {
                    *g += d;
                }
            }
            if i == 0 {
                break;
            }
            // dL/d(input of layer i) = δ·Wᵀ (+ the identity path of a
            // residual layer). A one-wide layer's `W` (k × 1) is laid out
            // exactly as `Wᵀ` (1 × k), so that product is the plain form.
            let prev = &mut back.prev[..m * k];
            let w = self.weights[i].as_slice();
            if n == 1 {
                simd::gemm(m, k, 1, delta, w, prev, Epilogue::None);
            } else {
                simd::gemm_transb(m, k, n, delta, w, prev);
            }
            if self.layer_has_residual(i) {
                simd::axpy(1.0, &back.ga[..m * n], prev);
            }
            std::mem::swap(&mut back.ga, &mut back.prev);
            // dL/dz of layer i − 1: its ReLU output is positive exactly
            // where its pre-activation was.
            let relu_out = &acts.out[i - 1][..m * k];
            for ((d, &g), &h) in back.delta[..m * k].iter_mut().zip(&back.ga[..m * k]).zip(relu_out)
            {
                *d = if h > 0.0 { g } else { 0.0 };
            }
        }
    }

    /// Mean binary cross-entropy loss and parameter gradients for targets
    /// `y ∈ {0, 1}` (paper Eq. 4). Gradients are ordered like
    /// [`params_mut`](Self::params_mut).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`OutputHead::Binary`] or
    /// `y.len() != x.rows()`.
    pub fn loss_and_grads_binary(&self, x: &Tensor2, y: &[f32]) -> (f32, Vec<Tensor2>) {
        assert_eq!(self.head, OutputHead::Binary, "binary loss on non-binary head");
        assert_eq!(y.len(), x.rows(), "target count mismatch");
        let mut ws = Workspace::new(self, x.rows());
        ws.x.copy_from_slice(x.as_slice());
        ws.y.copy_from_slice(y);
        let loss = self.train_step(&mut ws, x.rows());
        (loss, ws.back.grads)
    }

    /// Mean negative log-likelihood loss and gradients for integer class
    /// labels (paper's node classification loss).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`OutputHead::MultiClass`], a label is out
    /// of range, or `labels.len() != x.rows()`.
    pub fn loss_and_grads_multiclass(&self, x: &Tensor2, labels: &[usize]) -> (f32, Vec<Tensor2>) {
        assert_eq!(self.head, OutputHead::MultiClass, "multiclass loss on wrong head");
        assert_eq!(labels.len(), x.rows(), "label count mismatch");
        let mut ws = Workspace::new(self, x.rows());
        ws.x.copy_from_slice(x.as_slice());
        ws.labels.copy_from_slice(labels);
        let loss = self.train_step(&mut ws, x.rows());
        (loss, ws.back.grads)
    }

    /// Predicted positive-class probabilities for a binary head.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`OutputHead::Binary`].
    pub fn predict_proba(&self, x: &Tensor2) -> Vec<f32> {
        let mut out = Vec::with_capacity(x.rows());
        self.predict_proba_into(x, &mut Acts::for_rows(self, x.rows()), &mut out);
        out
    }

    /// [`predict_proba`](Self::predict_proba) through caller-owned
    /// buffers: `out` is cleared and refilled, keeping its capacity.
    pub(crate) fn predict_proba_into(&self, x: &Tensor2, acts: &mut Acts, out: &mut Vec<f32>) {
        assert_eq!(self.head, OutputHead::Binary, "predict_proba needs binary head");
        out.clear();
        out.reserve(x.rows());
        self.forward_blocks(x, acts, |z| out.extend(z.iter().map(|&z| sigmoid(z))));
    }

    /// Predicted class index per row for a multi-class head.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`OutputHead::MultiClass`].
    pub fn predict_class(&self, x: &Tensor2) -> Vec<usize> {
        let mut out = Vec::with_capacity(x.rows());
        self.predict_class_into(x, &mut Acts::for_rows(self, x.rows()), &mut out);
        out
    }

    /// [`predict_class`](Self::predict_class) through caller-owned
    /// buffers: `out` is cleared and refilled, keeping its capacity.
    pub(crate) fn predict_class_into(&self, x: &Tensor2, acts: &mut Acts, out: &mut Vec<usize>) {
        assert_eq!(self.head, OutputHead::MultiClass, "predict_class needs multiclass head");
        out.clear();
        out.reserve(x.rows());
        let classes = self.output_dim();
        self.forward_blocks(x, acts, |z| {
            out.extend(z.chunks_exact(classes).map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            }))
        });
    }
}

/// The input of layer `i` (its first `len` values): the batch for layer
/// 0, else the previous layer's output — with the skip added for a
/// residual layer, whose `res` buffer is non-empty.
fn layer_input<'a>(
    x: &'a [f32],
    out: &'a [Vec<f32>],
    res: &'a [Vec<f32>],
    i: usize,
    len: usize,
) -> &'a [f32] {
    match i.checked_sub(1) {
        None => &x[..len],
        Some(p) if res[p].is_empty() => &out[p][..len],
        Some(p) => &res[p][..len],
    }
}

/// Numerically stable BCE-with-logits over one batch, writing
/// `dL/dz = (sigmoid(z) − y) / m` into `delta`:
/// loss = max(z, 0) − z·y + ln(1 + e), with `e = exp(−|z|)` also giving
/// the sigmoid, so each row costs one `exp`.
fn binary_loss(logits: &[f32], y: &[f32], delta: &mut [f32]) -> f32 {
    let batch = y.len() as f32;
    let mut loss = 0.0f32;
    for ((&z, &t), d) in logits.iter().zip(y).zip(delta) {
        let e = (-z.abs()).exp();
        loss += z.max(0.0) - z * t + e.ln_1p();
        let p = if z >= 0.0 { 1.0 / (1.0 + e) } else { e / (1.0 + e) };
        *d = (p - t) / batch;
    }
    loss / batch
}

/// Mean NLL of log-softmax over one batch, writing
/// `dL/dz = (softmax(z) − onehot) / m` into `delta`; each `exp(z − max)`
/// is computed once and serves both the log-sum-exp and the softmax.
fn multiclass_loss(logits: &[f32], labels: &[usize], classes: usize, delta: &mut [f32]) -> f32 {
    let batch = labels.len() as f32;
    let mut loss = 0.0f32;
    for ((row, &label), drow) in
        logits.chunks_exact(classes).zip(labels).zip(delta.chunks_exact_mut(classes))
    {
        assert!(label < classes, "label {label} out of range for {classes} classes");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (d, &v) in drow.iter_mut().zip(row) {
            *d = (v - max).exp();
            sum += *d;
        }
        loss += max + sum.ln() - row[label];
        for (c, d) in drow.iter_mut().enumerate() {
            let onehot = if c == label { 1.0 } else { 0.0 };
            *d = (*d / sum - onehot) / batch;
        }
    }
    loss / batch
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// Forward-pass buffers for up to `cap` rows of one [`Mlp`].
#[derive(Debug)]
pub(crate) struct Acts {
    cap: usize,
    /// Per layer, `cap × dims[i+1]`: the ReLU output of a hidden layer
    /// (the backward pass's mask) or the logits of the last.
    out: Vec<Vec<f32>>,
    /// Per residual hidden layer, `out[i]` plus the layer's input — the
    /// next layer's input. Empty for every other layer.
    res: Vec<Vec<f32>>,
    /// `nn_gemm_ns{layer="i"}`, resolved once here, not per batch.
    gemm_ns: Vec<HistogramHandle>,
}

impl Acts {
    fn new(mlp: &Mlp, cap: usize) -> Self {
        let rec = obs::Recorder::global();
        let widths = || mlp.weights.iter().map(Tensor2::cols).enumerate();
        Self {
            cap,
            out: widths().map(|(_, n)| vec![0.0; cap * n]).collect(),
            res: widths()
                .map(|(i, n)| vec![0.0; if mlp.layer_has_residual(i) { cap * n } else { 0 }])
                .collect(),
            gemm_ns: widths()
                .map(|(i, _)| {
                    // Only an enabled recorder pays for the name.
                    if rec.is_enabled() {
                        rec.histogram(&format!("nn_gemm_ns{{layer=\"{i}\"}}"))
                    } else {
                        HistogramHandle::disabled()
                    }
                })
                .collect(),
        }
    }

    /// Buffers for a standalone forward pass over `rows` rows.
    fn for_rows(mlp: &Mlp, rows: usize) -> Self {
        Self::new(mlp, rows.clamp(1, BLOCK_ROWS))
    }
}

/// Backward-pass buffers: three `cap × max width` delta slabs and the
/// gradients [`crate::Sgd::step`] consumes.
#[derive(Debug)]
struct Back {
    /// dL/d(output) of the layer being backpropagated.
    ga: Vec<f32>,
    /// dL/dz of that layer (`ga` through the ReLU mask).
    delta: Vec<f32>,
    /// dL/d(input) being built; swapped into `ga`.
    prev: Vec<f32>,
    /// Ordered like [`Mlp::params_mut`].
    grads: Vec<Tensor2>,
}

/// Everything one training step touches, sized once for batches of up to
/// `cap` rows: the gathered rows and targets, each layer's activations,
/// the deltas and the gradients. [`Trainer`](crate::Trainer) owns one per
/// run, so after the first step nothing in a step allocates.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Gathered input rows, `cap × dims[0]`.
    x: Vec<f32>,
    /// Gathered binary targets (binary head).
    y: Vec<f32>,
    /// Gathered class labels (multi-class head).
    labels: Vec<usize>,
    pub(crate) acts: Acts,
    back: Back,
}

impl Workspace {
    pub(crate) fn new(mlp: &Mlp, cap: usize) -> Self {
        let widest = mlp.layer_dims().into_iter().max().expect("at least one layer");
        let (y, labels) = match mlp.head {
            OutputHead::Binary => (vec![0.0; cap], Vec::new()),
            OutputHead::MultiClass => (Vec::new(), vec![0; cap]),
        };
        Self {
            x: vec![0.0; cap * mlp.input_dim()],
            y,
            labels,
            acts: Acts::new(mlp, cap),
            back: Back {
                ga: vec![0.0; cap * widest],
                delta: vec![0.0; cap * widest],
                prev: vec![0.0; cap * widest],
                grads: mlp
                    .weights
                    .iter()
                    .zip(&mlp.biases)
                    .flat_map(|(w, b)| [w, b].map(|p| Tensor2::zeros(p.rows(), p.cols())))
                    .collect(),
            },
        }
    }

    /// Copies rows `idx` of `x` and their targets into the batch buffers.
    pub(crate) fn gather(&mut self, x: &Tensor2, targets: Targets<'_>, idx: &[usize]) {
        for (dst, &i) in self.x.chunks_exact_mut(x.cols()).zip(idx) {
            dst.copy_from_slice(x.row(i));
        }
        match targets {
            Targets::Binary(y) => self.y.iter_mut().zip(idx).for_each(|(t, &i)| *t = y[i]),
            Targets::MultiClass(y) => self.labels.iter_mut().zip(idx).for_each(|(t, &i)| *t = y[i]),
        }
    }

    /// The gradients of the last [`Mlp::train_step`], ordered like
    /// [`Mlp::params_mut`].
    pub(crate) fn grads(&self) -> &[Tensor2] {
        &self.back.grads
    }
}

/// Per-row training or validation targets, by head.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Targets<'a> {
    /// `{0.0, 1.0}` targets of a binary head.
    Binary(&'a [f32]),
    /// Class labels of a multi-class head.
    MultiClass(&'a [usize]),
}

/// The step as it was before the workspace: clones the input and every
/// activation, transposes `W` on every forward and `acts` / `delta` on
/// every backward, and applies bias and ReLU as separate passes. Kept
/// only as the oracle the workspace step is held to.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::gemm::matmul_transb;

    /// `A · B` the old way: transpose `B`, then the dot-form kernel.
    fn matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        matmul_transb(a, &b.transposed())
    }

    /// Mean loss and `[gW0, gb0, …]` for one batch.
    pub(super) fn loss_and_grads(
        mlp: &Mlp,
        x: &Tensor2,
        targets: Targets<'_>,
    ) -> (f32, Vec<Tensor2>) {
        let (zs, acts, logits) = forward_cached(mlp, x);
        let batch = x.rows() as f32;
        let mut loss = 0.0f32;
        let mut delta = Tensor2::zeros(x.rows(), logits.cols());
        for r in 0..x.rows() {
            match targets {
                Targets::Binary(y) => {
                    let (z, t) = (logits.get(r, 0), y[r]);
                    loss += z.max(0.0) - z * t + (-z.abs()).exp().ln_1p();
                    delta.set(r, 0, (sigmoid(z) - t) / batch);
                }
                Targets::MultiClass(labels) => {
                    let row = logits.row(r);
                    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
                    loss += lse - row[labels[r]];
                    for (c, &v) in row.iter().enumerate() {
                        let onehot = if c == labels[r] { 1.0 } else { 0.0 };
                        delta.set(r, c, ((v - lse).exp() - onehot) / batch);
                    }
                }
            }
        }
        (loss / batch, backward(mlp, &zs, &acts, delta))
    }

    /// The reference forward's logits.
    pub(super) fn logits(mlp: &Mlp, x: &Tensor2) -> Tensor2 {
        forward_cached(mlp, x).2
    }

    /// Returns `(zs, activations, logits)`; `activations[0]` is the input.
    fn forward_cached(mlp: &Mlp, x: &Tensor2) -> (Vec<Tensor2>, Vec<Tensor2>, Tensor2) {
        let l = mlp.weights.len();
        let mut zs = Vec::with_capacity(l);
        let mut acts: Vec<Tensor2> = vec![x.clone()];
        for i in 0..l {
            let mut z = matmul(&acts[i], &mlp.weights[i]);
            z.add_bias_row(mlp.biases[i].as_slice());
            if i + 1 == l {
                let logits = z.clone();
                zs.push(z);
                return (zs, acts, logits);
            }
            let mut a = z.clone();
            for v in a.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            if mlp.layer_has_residual(i) {
                let prev = acts[i].clone();
                a.axpy(1.0, &prev);
            }
            zs.push(z);
            acts.push(a);
        }
        unreachable!("loop returns at the last layer")
    }

    fn backward(mlp: &Mlp, zs: &[Tensor2], acts: &[Tensor2], delta_out: Tensor2) -> Vec<Tensor2> {
        let l = mlp.weights.len();
        let mut grads = vec![Tensor2::zeros(0, 0); l * 2];
        let mut grad_a = delta_out;
        for i in (0..l).rev() {
            let mut delta = grad_a.clone();
            if i + 1 < l {
                for (v, &z) in delta.as_mut_slice().iter_mut().zip(zs[i].as_slice()) {
                    if z <= 0.0 {
                        *v = 0.0;
                    }
                }
            }
            grads[2 * i] = matmul(&acts[i].transposed(), &delta);
            let mut gb = Tensor2::zeros(1, delta.cols());
            for r in 0..delta.rows() {
                for c in 0..delta.cols() {
                    gb.set(0, c, gb.get(0, c) + delta.get(r, c));
                }
            }
            grads[2 * i + 1] = gb;
            if i > 0 {
                let mut prev = matmul_transb(&delta, &mlp.weights[i]);
                if mlp.layer_has_residual(i) {
                    prev.axpy(1.0, &grad_a);
                }
                grad_a = prev;
            }
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `rows` random feature rows, binary targets and class labels.
    fn batch(
        rows: usize,
        dim: usize,
        classes: usize,
        seed: u64,
    ) -> (Tensor2, Vec<f32>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = (0..rows * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = (0..rows).map(|_| f32::from(u8::from(rng.gen_range(0.0..1.0) < 0.5))).collect();
        let labels = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
        (Tensor2::from_vec(rows, dim, x), y, labels)
    }

    /// Loss and every gradient element within 1e-4 of the reference,
    /// relative to that tensor's largest magnitude.
    fn assert_matches(got: &(f32, Vec<Tensor2>), want: &(f32, Vec<Tensor2>), ctx: &str) {
        let rel = |g: f32, w: f32, scale: f32| (g - w).abs() <= 1e-4 * scale.max(1e-6);
        assert!(rel(got.0, want.0, want.0.abs()), "{ctx}: loss {} vs {}", got.0, want.0);
        assert_eq!(got.1.len(), want.1.len(), "{ctx}");
        for (p, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
            assert_eq!(g.shape(), w.shape(), "{ctx}: param {p}");
            let scale = w.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (idx, (&a, &b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
                assert!(rel(a, b, scale), "{ctx}: param {p}[{idx}] {a} vs {b} (scale {scale})");
            }
        }
    }

    /// The workspace step against the reference over {Binary, MultiClass}
    /// × residual {off, on} × batch {1, 7, 64} on both pipeline shapes —
    /// `[16, 64, ·]` (link prediction) and `[8, 64, 64, ·]` (node
    /// classification), the output width set by the head.
    #[test]
    fn workspace_step_matches_reference() {
        for (s, hidden) in [(16, &[64][..]), (8, &[64, 64][..])].into_iter().enumerate() {
            for head in [OutputHead::Binary, OutputHead::MultiClass] {
                let out = if head == OutputHead::Binary { 1 } else { 10 };
                let dims: Vec<usize> = [&[hidden.0][..], hidden.1, &[out]].concat();
                for residual in [false, true] {
                    let mlp = Mlp::new(&dims, head, 5 + s as u64).with_residual(residual);
                    for rows in [1, 7, 64] {
                        let (x, y, labels) = batch(rows, dims[0], out, rows as u64);
                        let (got, want) = match head {
                            OutputHead::Binary => (
                                mlp.loss_and_grads_binary(&x, &y),
                                reference::loss_and_grads(&mlp, &x, Targets::Binary(&y)),
                            ),
                            OutputHead::MultiClass => (
                                mlp.loss_and_grads_multiclass(&x, &labels),
                                reference::loss_and_grads(&mlp, &x, Targets::MultiClass(&labels)),
                            ),
                        };
                        let ctx = format!("{dims:?} {head:?} residual={residual} rows={rows}");
                        assert_matches(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    /// A ragged last batch (130 rows in batches of 64) on a workspace that
    /// already ran two full batches must give exactly what a fresh
    /// workspace gives: no stale row may reach the loss or the gradients.
    #[test]
    fn ragged_last_batch_ignores_stale_workspace_rows() {
        for (dims, head) in
            [(&[16, 64, 1][..], OutputHead::Binary), (&[8, 64, 64, 10], OutputHead::MultiClass)]
        {
            let mlp = Mlp::new(dims, head, 11).with_residual(true);
            let classes = *dims.last().unwrap();
            let (x, y, labels) = batch(130, dims[0], classes, 3);
            let targets = match head {
                OutputHead::Binary => Targets::Binary(&y),
                OutputHead::MultiClass => Targets::MultiClass(&labels),
            };
            let order: Vec<usize> = (0..130).rev().collect();
            let mut reused = Workspace::new(&mlp, 64);
            let mut last = 0.0;
            for idx in order.chunks(64) {
                reused.gather(&x, targets, idx);
                last = mlp.train_step(&mut reused, idx.len());
            }
            let tail = &order[128..];
            let mut fresh = Workspace::new(&mlp, 64);
            fresh.gather(&x, targets, tail);
            assert_eq!(last, mlp.train_step(&mut fresh, tail.len()), "{dims:?} loss");
            assert_eq!(reused.grads(), fresh.grads(), "{dims:?} gradients");
            let rows: Vec<&[f32]> = tail.iter().map(|&i| x.row(i)).collect();
            let sub = Tensor2::from_rows(&rows);
            let (sy, sl): (Vec<f32>, Vec<usize>) = tail.iter().map(|&i| (y[i], labels[i])).unzip();
            let sub_targets = match head {
                OutputHead::Binary => Targets::Binary(&sy),
                OutputHead::MultiClass => Targets::MultiClass(&sl),
            };
            let want = reference::loss_and_grads(&mlp, &sub, sub_targets);
            assert_matches(&(last, reused.grads().to_vec()), &want, &format!("{dims:?} ragged"));
        }
    }

    /// Block-wise `forward` / `predict_*` over more rows than one block
    /// agree with the reference forward.
    #[test]
    fn blocked_forward_matches_reference_logits() {
        let rows = 2 * BLOCK_ROWS + 3;
        for (dims, head) in
            [(&[16, 64, 1][..], OutputHead::Binary), (&[8, 64, 64, 10], OutputHead::MultiClass)]
        {
            let mlp = Mlp::new(dims, head, 2).with_residual(true);
            let (x, ..) = batch(rows, dims[0], 1, 9);
            let got = mlp.forward(&x);
            let want = reference::logits(&mlp, &x);
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{dims:?}: {a} vs {b}");
            }
            match head {
                OutputHead::Binary => {
                    let p = mlp.predict_proba(&x);
                    assert!(p.iter().zip(got.as_slice()).all(|(&p, &z)| p == sigmoid(z)));
                }
                OutputHead::MultiClass => assert_eq!(mlp.predict_class(&x).len(), rows),
            }
        }
    }

    /// Central-difference gradient check for every parameter of a tiny net.
    fn grad_check(head: OutputHead, residual: bool) {
        let dims: &[usize] = match head {
            OutputHead::Binary => &[3, 4, 4, 1],
            OutputHead::MultiClass => &[3, 4, 4, 3],
        };
        let mut mlp = Mlp::new(dims, head, 9).with_residual(residual);
        let x = Tensor2::from_rows(&[&[0.5, -0.2, 0.8], &[-0.7, 0.1, 0.3]]);
        let yb = vec![1.0f32, 0.0];
        let ym = vec![2usize, 0];

        let loss_fn = |mlp: &Mlp| -> f32 {
            match head {
                OutputHead::Binary => mlp.loss_and_grads_binary(&x, &yb).0,
                OutputHead::MultiClass => mlp.loss_and_grads_multiclass(&x, &ym).0,
            }
        };
        let grads = match head {
            OutputHead::Binary => mlp.loss_and_grads_binary(&x, &yb).1,
            OutputHead::MultiClass => mlp.loss_and_grads_multiclass(&x, &ym).1,
        };

        let eps = 1e-3f32;
        let num_layers = mlp.num_layers();
        for layer in 0..num_layers {
            for pi in 0..2 {
                let g = grads[2 * layer + pi].clone();
                for idx in 0..g.len() {
                    let orig = {
                        let mut params = mlp.params_mut();
                        let p = &mut params[2 * layer + pi];
                        let orig = p.as_slice()[idx];
                        p.as_mut_slice()[idx] = orig + eps;
                        orig
                    };
                    let up = loss_fn(&mlp);
                    {
                        let mut params = mlp.params_mut();
                        params[2 * layer + pi].as_mut_slice()[idx] = orig - eps;
                    }
                    let down = loss_fn(&mlp);
                    {
                        let mut params = mlp.params_mut();
                        params[2 * layer + pi].as_mut_slice()[idx] = orig;
                    }
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = g.as_slice()[idx];
                    assert!(
                        (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                        "layer {layer} param {pi} idx {idx}: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_binary() {
        grad_check(OutputHead::Binary, false);
    }

    #[test]
    fn gradients_match_finite_differences_multiclass() {
        grad_check(OutputHead::MultiClass, false);
    }

    #[test]
    fn gradients_match_finite_differences_residual() {
        grad_check(OutputHead::Binary, true);
        grad_check(OutputHead::MultiClass, true);
    }

    #[test]
    fn multiclass_learns_separable_classes() {
        // Three well-separated clusters in 2-D.
        let mut rows: Vec<Vec<f32>> = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in [(0usize, (0.0, 0.0)), (1, (4.0, 0.0)), (2, (0.0, 4.0))] {
            for k in 0..20 {
                let jitter = (k as f32) * 0.01;
                rows.push(vec![center.0 + jitter, center.1 - jitter]);
                labels.push(c);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Tensor2::from_rows(&refs);
        let mut mlp = Mlp::new(&[2, 16, 16, 3], OutputHead::MultiClass, 3);
        let mut opt = Sgd::new(0.1);
        for _ in 0..300 {
            let (_l, g) = mlp.loss_and_grads_multiclass(&x, &labels);
            opt.step(mlp.params_mut(), &g);
        }
        let pred = mlp.predict_class(&x);
        let correct = pred.iter().zip(&labels).filter(|(a, b)| a == b).count();
        assert!(correct >= 58, "only {correct}/60 correct");
    }

    #[test]
    fn loss_decreases_under_training() {
        let x = Tensor2::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.0, 0.0]]);
        let y = vec![1.0f32, 1.0, 0.0, 0.0];
        let mut mlp = Mlp::new(&[2, 8, 1], OutputHead::Binary, 1);
        let mut opt = Sgd::new(0.3);
        let (first, g) = mlp.loss_and_grads_binary(&x, &y);
        opt.step(mlp.params_mut(), &g);
        let mut last = first;
        for _ in 0..200 {
            let (l, g) = mlp.loss_and_grads_binary(&x, &y);
            opt.step(mlp.params_mut(), &g);
            last = l;
        }
        assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
    }

    #[test]
    fn param_count_matches_dims() {
        let mlp = Mlp::new(&[4, 8, 2], OutputHead::MultiClass, 0);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn io_dims_match_construction() {
        let mlp = Mlp::new(&[16, 64, 1], OutputHead::Binary, 0);
        assert_eq!(mlp.input_dim(), 16);
        assert_eq!(mlp.output_dim(), 1);
        let mc = Mlp::new(&[8, 32, 32, 5], OutputHead::MultiClass, 0);
        assert_eq!(mc.input_dim(), 8);
        assert_eq!(mc.output_dim(), 5);
    }

    #[test]
    #[should_panic(expected = "binary head needs one output")]
    fn binary_head_with_wide_output_panics() {
        let _ = Mlp::new(&[4, 8, 2], OutputHead::Binary, 0);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_label_panics() {
        let mlp = Mlp::new(&[2, 4, 3], OutputHead::MultiClass, 0);
        let x = Tensor2::zeros(1, 2);
        let _ = mlp.loss_and_grads_multiclass(&x, &[5]);
    }
}
