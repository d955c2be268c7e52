//! The pipeline operators: layers with explicit forward/backward passes.
//!
//! Layers are the "operators" of the tutorial's query-processing analogy.
//! Each caches exactly the intermediates its backward pass needs, which is
//! the quantity `dl-memsched` trades against recompute time.
//!
//! All layers consume and produce batched matrices `[batch, features]`;
//! spatial layers ([`Conv2d`], [`MaxPool2d`]) carry their own `[C, H, W]`
//! geometry and reinterpret each row.

use dl_tensor::{acct, init, par, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cost::LayerCost;

/// A layer of the network pipeline.
///
/// Modeled as an enum (rather than trait objects) so that networks serialize
/// cleanly and the compression crate can pattern-match its way to weight
/// matrices for pruning/quantization surgery.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully-connected affine layer.
    Dense(Dense),
    /// Rectified linear activation.
    ReLU(ReLU),
    /// Logistic sigmoid activation.
    Sigmoid(Sigmoid),
    /// Hyperbolic tangent activation.
    Tanh(Tanh),
    /// Inverted dropout regularizer.
    Dropout(Dropout),
    /// 2-D convolution over `[C, H, W]` rows.
    Conv2d(Conv2d),
    /// 2-D max pooling over `[C, H, W]` rows.
    MaxPool2d(MaxPool2d),
    /// Batch normalization over feature columns.
    BatchNorm1d(BatchNorm1d),
}

impl Layer {
    /// The read-only inference forward: the arithmetic of
    /// `forward(x, false)`, with the same bits and the same
    /// [`dl_tensor::acct`] charge, but nothing cached for backward.
    pub fn eval(&self, x: &Tensor) -> Tensor {
        match self {
            Layer::Dense(l) => l.eval(x, false),
            Layer::ReLU(_) => ReLU::eval(x),
            Layer::Sigmoid(_) => Sigmoid::eval(x),
            Layer::Tanh(_) => Tanh::eval(x),
            Layer::Dropout(_) => x.clone(),
            Layer::Conv2d(l) => l.apply(x, None),
            Layer::MaxPool2d(l) => l.apply(x, None),
            Layer::BatchNorm1d(l) => l.eval(x),
        }
    }

    /// Runs the layer forward. `train` enables training-only behaviour
    /// (dropout masks, batch statistics).
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        match self {
            Layer::Dense(l) => l.forward(x),
            Layer::ReLU(l) => l.forward(x),
            Layer::Sigmoid(l) => l.forward(x),
            Layer::Tanh(l) => l.forward(x),
            Layer::Dropout(l) => l.forward(x, train),
            Layer::Conv2d(l) => l.forward(x),
            Layer::MaxPool2d(l) => l.forward(x),
            Layer::BatchNorm1d(l) => l.forward(x, train),
        }
    }

    /// Propagates `grad` (d loss / d output) backward, accumulating
    /// parameter gradients and returning d loss / d input.
    ///
    /// # Panics
    /// Panics if called before `forward` (no cached intermediates).
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        match self {
            Layer::Dense(l) => l.backward(grad),
            Layer::ReLU(l) => l.backward(grad),
            Layer::Sigmoid(l) => l.backward(grad),
            Layer::Tanh(l) => l.backward(grad),
            Layer::Dropout(l) => l.backward(grad),
            Layer::Conv2d(l) => l.backward(grad),
            Layer::MaxPool2d(l) => l.backward(grad),
            Layer::BatchNorm1d(l) => l.backward(grad),
        }
    }

    /// Trainable parameters, paired with their gradients, in a fixed order.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        match self {
            Layer::Dense(l) => vec![(&mut l.weight, &mut l.grad_weight), (&mut l.bias, &mut l.grad_bias)],
            Layer::Conv2d(l) => vec![(&mut l.weight, &mut l.grad_weight), (&mut l.bias, &mut l.grad_bias)],
            Layer::BatchNorm1d(l) => vec![(&mut l.gamma, &mut l.grad_gamma), (&mut l.beta, &mut l.grad_beta)],
            _ => Vec::new(),
        }
    }

    /// Read-only view of trainable parameters in the same order as
    /// [`Layer::params_and_grads`].
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Dense(l) => vec![&l.weight, &l.bias],
            Layer::Conv2d(l) => vec![&l.weight, &l.bias],
            Layer::BatchNorm1d(l) => vec![&l.gamma, &l.beta],
            _ => Vec::new(),
        }
    }

    /// Zeroes accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.map_inplace(|_| 0.0);
        }
    }

    /// Drops cached activations (between steps, or to model checkpointing).
    pub fn clear_cache(&mut self) {
        match self {
            Layer::Dense(l) => l.input = None,
            Layer::ReLU(l) => l.mask = None,
            Layer::Sigmoid(l) => l.output = None,
            Layer::Tanh(l) => l.output = None,
            Layer::Dropout(l) => l.mask = None,
            Layer::Conv2d(l) => l.cols = None,
            Layer::MaxPool2d(l) => l.argmax = None,
            Layer::BatchNorm1d(l) => l.cache = None,
        }
    }

    /// Static resource cost at the given batch size and input width.
    /// Returns the cost and the layer's output width.
    pub fn cost(&self, batch: usize, input_dim: usize) -> (LayerCost, usize) {
        match self {
            Layer::Dense(l) => {
                let (fi, fo) = (l.weight.dims()[0], l.weight.dims()[1]);
                (LayerCost::dense(batch, fi, fo), fo)
            }
            Layer::Conv2d(l) => {
                let (oh, ow) = l.output_hw();
                let out_dim = l.out_channels * oh * ow;
                (
                    LayerCost::conv2d(batch, l.in_channels, l.out_channels, l.kh, l.kw, oh, ow),
                    out_dim,
                )
            }
            Layer::MaxPool2d(l) => {
                let (oh, ow) = l.output_hw();
                let out_dim = l.channels * oh * ow;
                (LayerCost::elementwise(batch * input_dim), out_dim)
            }
            Layer::BatchNorm1d(_)
            | Layer::ReLU(_)
            | Layer::Sigmoid(_)
            | Layer::Tanh(_)
            | Layer::Dropout(_) => {
                let mut c = LayerCost::elementwise(batch * input_dim);
                if let Layer::BatchNorm1d(l) = self {
                    c.params = 2 * l.gamma.len() as u64;
                }
                (c, input_dim)
            }
        }
    }

    /// Short human-readable layer name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Dense(_) => "dense",
            Layer::ReLU(_) => "relu",
            Layer::Sigmoid(_) => "sigmoid",
            Layer::Tanh(_) => "tanh",
            Layer::Dropout(_) => "dropout",
            Layer::Conv2d(_) => "conv2d",
            Layer::MaxPool2d(_) => "maxpool2d",
            Layer::BatchNorm1d(_) => "batchnorm1d",
        }
    }
}

// ----------------------------------------------------------------------
// Dense
// ----------------------------------------------------------------------

/// Fully-connected layer: `y = x W + b` with `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix `[in, out]`.
    pub weight: Tensor,
    /// Bias vector `[out]`.
    pub bias: Tensor,
    /// Gradient of the loss with respect to [`Dense::weight`].
    pub grad_weight: Tensor,
    /// Gradient of the loss with respect to [`Dense::bias`].
    pub grad_bias: Tensor,
    input: Option<Tensor>,
}

impl Dense {
    /// He-initialized dense layer (suited to the ReLU nets used throughout).
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Self {
        Dense {
            weight: init::he(fan_in, fan_out, rng),
            bias: Tensor::zeros([fan_out]),
            grad_weight: Tensor::zeros([fan_in, fan_out]),
            grad_bias: Tensor::zeros([fan_out]),
            input: None,
        }
    }

    /// Dense layer with explicit weights (used by distillation / hatching).
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        let gw = Tensor::zeros(weight.shape().clone());
        let gb = Tensor::zeros(bias.shape().clone());
        Dense {
            weight,
            bias,
            grad_weight: gw,
            grad_bias: gb,
            input: None,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weight.dims()[1]
    }

    /// `x W + b`, with a ReLU folded into the bias pass when `relu` is
    /// set. The parallel kernel is bit-identical to `x.matmul(..)` at any
    /// thread count, so training trajectories do not depend on
    /// DL_THREADS.
    pub(crate) fn eval(&self, x: &Tensor, relu: bool) -> Tensor {
        let mut y = par::matmul(x, &self.weight);
        y.add_bias_inplace(&self.bias, relu);
        if relu {
            ReLU::charge_mask(y.len());
        }
        y
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.input = Some(x.clone());
        self.eval(x, false)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self
            .input
            .as_ref()
            .expect("Dense::backward called before forward");
        self.grad_weight = par::matmul(&x.transpose(), grad);
        self.grad_bias = grad.sum_axis(0);
        par::matmul(grad, &self.weight.transpose())
    }
}

// ----------------------------------------------------------------------
// Activations
// ----------------------------------------------------------------------

/// Rectified linear unit: `max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Tensor>,
}

impl ReLU {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        ReLU::default()
    }

    /// Charges the mask map that the training forward builds for
    /// backward (`n` flops, `4n` bytes read, `4n` written). Inference
    /// builds no mask but charges it too, so every measured cost table,
    /// and the admission decisions priced from them, is the same on
    /// either path.
    fn charge_mask(n: usize) {
        let n = n as u64;
        acct::charge(n, 4 * n, 4 * n);
    }

    fn eval(x: &Tensor) -> Tensor {
        ReLU::charge_mask(x.len());
        x.map(|v| v.max(0.0))
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mask = x.data().iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 });
        self.mask =
            Some(Tensor::from_vec(mask.collect(), x.shape().clone()).expect("mask matches input"));
        ReLU::eval(x)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("ReLU::backward called before forward");
        grad * mask.clone()
    }
}

/// Logistic sigmoid: `1 / (1 + e^-x)`.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// A fresh sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }

    fn eval(x: &Tensor) -> Tensor {
        x.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = Sigmoid::eval(x);
        self.output = Some(y.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("Sigmoid::backward called before forward");
        grad.zip(y, |g, y| g * y * (1.0 - y))
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// A fresh tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }

    fn eval(x: &Tensor) -> Tensor {
        x.map(f32::tanh)
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = Tanh::eval(x);
        self.output = Some(y.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let y = self
            .output
            .as_ref()
            .expect("Tanh::backward called before forward");
        grad.zip(y, |g, y| g * (1.0 - y * y))
    }
}

// ----------------------------------------------------------------------
// Dropout
// ----------------------------------------------------------------------

/// Inverted dropout: at train time zeroes each activation with probability
/// `p` and scales survivors by `1/(1-p)`; identity at inference.
///
/// Randomness is derived from `(seed, step)` so a deserialized model
/// reproduces the exact same mask sequence.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
    seed: u64,
    step: u64,
    mask: Option<Tensor>,
}

impl Dropout {
    /// A dropout layer with drop probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Dropout {
            p,
            seed,
            step: 0,
            mask: None,
        }
    }

    /// Reconstructs a dropout layer mid-sequence: the next training-time
    /// mask continues the `(seed, step)` stream exactly where `step`
    /// points, so a persisted model resumes the identical mask sequence.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    #[must_use]
    pub fn from_state(p: f32, seed: u64, step: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Dropout {
            p,
            seed,
            step,
            mask: None,
        }
    }

    /// The seed the mask stream is derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of training-time masks drawn so far.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.step
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = Some(Tensor::ones(x.shape().clone()));
            return x.clone();
        }
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(self.step));
        self.step += 1;
        let keep = 1.0 - self.p;
        let mask = Tensor::from_vec(
            (0..x.len())
                .map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 })
                .collect(),
            x.shape().clone(),
        )
        .expect("mask length matches input");
        self.mask = Some(mask.clone());
        x * &mask
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("Dropout::backward called before forward");
        grad * mask.clone()
    }
}

// ----------------------------------------------------------------------
// Conv2d
// ----------------------------------------------------------------------

/// 2-D convolution. Rows of the incoming batch matrix are reinterpreted as
/// `[in_channels, height, width]` images; each sample is lowered with
/// `im2col` so the convolution runs as a single matmul (the tutorial's
/// data-layout lens on convolution).
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Filter bank `[out_channels, in_channels * kh * kw]`.
    pub weight: Tensor,
    /// Per-filter bias `[out_channels]`.
    pub bias: Tensor,
    /// Gradient for [`Conv2d::weight`].
    pub grad_weight: Tensor,
    /// Gradient for [`Conv2d::bias`].
    pub grad_bias: Tensor,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters).
    pub out_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    cols: Option<Vec<Tensor>>,
}

impl Conv2d {
    /// He-initialized convolution over `[in_channels, height, width]` rows.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        height: usize,
        width: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kh * kw;
        Conv2d {
            weight: init::he(out_channels, fan_in, rng)
                .reshape([out_channels, fan_in])
                .expect("he init shape"),
            bias: Tensor::zeros([out_channels]),
            grad_weight: Tensor::zeros([out_channels, fan_in]),
            grad_bias: Tensor::zeros([out_channels]),
            in_channels,
            out_channels,
            height,
            width,
            kh,
            kw,
            stride,
            pad,
            cols: None,
        }
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (
            (self.height + 2 * self.pad - self.kh) / self.stride + 1,
            (self.width + 2 * self.pad - self.kw) / self.stride + 1,
        )
    }

    /// Flattened output width (`out_channels * out_h * out_w`).
    pub fn output_dim(&self) -> usize {
        let (oh, ow) = self.output_hw();
        self.out_channels * oh * ow
    }

    /// The convolution; each sample's `im2col` matrix goes to `cols`
    /// when backward will need it.
    fn apply(&self, x: &Tensor, mut cols_cache: Option<&mut Vec<Tensor>>) -> Tensor {
        let batch = x.dims()[0];
        let in_dim = self.in_channels * self.height * self.width;
        assert_eq!(
            x.dims()[1],
            in_dim,
            "Conv2d expected rows of {in_dim} elements ({}x{}x{})",
            self.in_channels,
            self.height,
            self.width
        );
        let (oh, ow) = self.output_hw();
        let out_dim = self.out_channels * oh * ow;
        let mut out = Vec::with_capacity(batch * out_dim);
        for s in 0..batch {
            let img = x
                .row(s)
                .reshape([self.in_channels, self.height, self.width])
                .expect("row length checked above");
            let cols = par::im2col(&img, self.kh, self.kw, self.stride, self.pad);
            let y = par::matmul(&self.weight, &cols); // [out_c, oh*ow]
            for c in 0..self.out_channels {
                let b = self.bias.data()[c];
                for p in 0..oh * ow {
                    out.push(y.data()[c * oh * ow + p] + b);
                }
            }
            if let Some(cache) = cols_cache.as_deref_mut() {
                cache.push(cols);
            }
        }
        Tensor::from_vec(out, [batch, out_dim]).expect("length matches by construction")
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cols = Vec::with_capacity(x.dims()[0]);
        let y = self.apply(x, Some(&mut cols));
        self.cols = Some(cols);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cols_cache = self
            .cols
            .as_ref()
            .expect("Conv2d::backward called before forward");
        let batch = grad.dims()[0];
        let (oh, ow) = self.output_hw();
        let positions = oh * ow;
        let fan_in = self.in_channels * self.kh * self.kw;
        let in_dim = self.in_channels * self.height * self.width;
        let mut gw = Tensor::zeros([self.out_channels, fan_in]);
        let mut gb = Tensor::zeros([self.out_channels]);
        let mut gx = Vec::with_capacity(batch * in_dim);
        for (s, cols) in cols_cache.iter().enumerate().take(batch) {
            let g_s = grad
                .row(s)
                .reshape([self.out_channels, positions])
                .expect("grad row matches output geometry");
            gw = &gw + &par::matmul(&g_s, &cols.transpose());
            gb = &gb + &g_s.sum_axis(1);
            let dcols = par::matmul(&self.weight.transpose(), &g_s);
            let dx = par::col2im(
                &dcols,
                self.in_channels,
                self.height,
                self.width,
                self.kh,
                self.kw,
                self.stride,
                self.pad,
            );
            gx.extend_from_slice(dx.data());
        }
        self.grad_weight = gw;
        self.grad_bias = gb;
        Tensor::from_vec(gx, [batch, in_dim]).expect("length matches by construction")
    }
}

// ----------------------------------------------------------------------
// MaxPool2d
// ----------------------------------------------------------------------

/// 2-D max pooling with a square `k`-window and stride `stride`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Channels of the incoming `[C, H, W]` rows.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Pooling window side.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    argmax: Option<Vec<usize>>,
    in_dims: Option<(usize, usize)>,
}

impl MaxPool2d {
    /// A pooling layer over `[channels, height, width]` rows.
    pub fn new(channels: usize, height: usize, width: usize, k: usize, stride: usize) -> Self {
        MaxPool2d {
            channels,
            height,
            width,
            k,
            stride,
            argmax: None,
            in_dims: None,
        }
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn output_hw(&self) -> (usize, usize) {
        (
            (self.height - self.k) / self.stride + 1,
            (self.width - self.k) / self.stride + 1,
        )
    }

    /// Flattened output width.
    pub fn output_dim(&self) -> usize {
        let (oh, ow) = self.output_hw();
        self.channels * oh * ow
    }

    /// The pooling; each window's flat input index of its maximum goes
    /// to `argmax` when backward will need it.
    fn apply(&self, x: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        let batch = x.dims()[0];
        let in_dim = self.channels * self.height * self.width;
        assert_eq!(x.dims()[1], in_dim, "MaxPool2d row width mismatch");
        let (oh, ow) = self.output_hw();
        let out_dim = self.channels * oh * ow;
        let mut out = Vec::with_capacity(batch * out_dim);
        for s in 0..batch {
            let base = s * in_dim;
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_val = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let idx =
                                    base + (c * self.height + iy) * self.width + ix;
                                let v = x.data()[idx];
                                if v > best_val {
                                    best_val = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        out.push(best_val);
                        if let Some(argmax) = argmax.as_deref_mut() {
                            argmax.push(best_idx);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, [batch, out_dim]).expect("length matches by construction")
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut argmax = Vec::with_capacity(x.dims()[0] * self.output_dim());
        let y = self.apply(x, Some(&mut argmax));
        self.argmax = Some(argmax);
        self.in_dims = Some((x.dims()[0], x.dims()[1]));
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        let (batch, in_dim) = self.in_dims.expect("set together with argmax");
        let mut gx = vec![0.0f32; batch * in_dim];
        for (g, &idx) in grad.data().iter().zip(argmax) {
            gx[idx] += g;
        }
        Tensor::from_vec(gx, [batch, in_dim]).expect("length matches by construction")
    }
}

// ----------------------------------------------------------------------
// BatchNorm1d
// ----------------------------------------------------------------------

/// Batch normalization over feature columns with learnable scale/shift and
/// running statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    /// Learnable scale `[features]`.
    pub gamma: Tensor,
    /// Learnable shift `[features]`.
    pub beta: Tensor,
    /// Gradient for [`BatchNorm1d::gamma`].
    pub grad_gamma: Tensor,
    /// Gradient for [`BatchNorm1d::beta`].
    pub grad_beta: Tensor,
    /// Running mean used at inference.
    pub running_mean: Tensor,
    /// Running variance used at inference.
    pub running_var: Tensor,
    /// Exponential-average momentum for running statistics.
    pub momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    std_inv: Tensor,
}

impl BatchNorm1d {
    /// Batch norm over `features` columns (momentum 0.1, eps 1e-5).
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            gamma: Tensor::ones([features]),
            beta: Tensor::zeros([features]),
            grad_gamma: Tensor::zeros([features]),
            grad_beta: Tensor::zeros([features]),
            running_mean: Tensor::zeros([features]),
            running_var: Tensor::ones([features]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Batch norm with an explicit variance epsilon (persistence passes
    /// the stored value back through so reconstruction is exact).
    #[must_use]
    pub fn with_eps(features: usize, eps: f32) -> Self {
        let mut bn = BatchNorm1d::new(features);
        bn.eps = eps;
        bn
    }

    /// Numerical-stability epsilon added to the variance.
    #[must_use]
    pub fn eps(&self) -> f32 {
        self.eps
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            let mean = x.mean_axis(0);
            let centered = x - &mean;
            let var = (&centered * &centered).mean_axis(0);
            let std_inv = var.map(|v| 1.0 / (v + self.eps).sqrt());
            let x_hat = &centered * &std_inv;
            // update running statistics
            let m = self.momentum;
            self.running_mean = &(&self.running_mean * (1.0 - m)) + &(&mean * m);
            self.running_var = &(&self.running_var * (1.0 - m)) + &(&var * m);
            let out = &(&x_hat * &self.gamma) + &self.beta;
            self.cache = Some(BnCache { x_hat, std_inv });
            out
        } else {
            self.eval(x)
        }
    }

    /// Normalizes with the running statistics.
    fn eval(&self, x: &Tensor) -> Tensor {
        let std_inv = self.running_var.map(|v| 1.0 / (v + self.eps).sqrt());
        let x_hat = &(x - &self.running_mean) * &std_inv;
        &(&x_hat * &self.gamma) + &self.beta
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm1d::backward called before forward (train mode)");
        let n = grad.dims()[0] as f32;
        let x_hat = &cache.x_hat;
        self.grad_gamma = (grad * x_hat.clone()).sum_axis(0);
        self.grad_beta = grad.sum_axis(0);
        // dx = (gamma * std_inv / N) * (N*g - sum(g) - x_hat * sum(g*x_hat))
        let sum_g = grad.sum_axis(0);
        let sum_gx = (grad * x_hat.clone()).sum_axis(0);
        let term = &(&(grad * n) - &sum_g) - &(x_hat * &sum_gx);
        let scale = &self.gamma * &cache.std_inv;
        &(&term * &scale) * (1.0 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init::rng;

    /// Finite-difference gradient check for a layer's input gradient.
    /// Finite-difference step of the input gradchecks.
    const FD_EPS: f32 = 1e-2;

    fn check_input_grad(layer: &mut Layer, x: &Tensor, tol: f32) {
        check_input_grad_except(layer, x, tol, |_| false);
    }

    /// Gradchecks every input coordinate `i` with `!skip(i)` and returns
    /// how many it checked.
    fn check_input_grad_except(
        layer: &mut Layer,
        x: &Tensor,
        tol: f32,
        skip: impl Fn(usize) -> bool,
    ) -> usize {
        let y = layer.forward(x, true);
        // loss = sum(y^2)/2, so dL/dy = y
        let gx = layer.backward(&y);
        let eps = FD_EPS;
        let mut checked = 0;
        for i in 0..x.len() {
            if skip(i) {
                continue;
            }
            checked += 1;
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut lp = layer.clone();
            let yp = lp.forward(&xp, true);
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut lm = layer.clone();
            let ym = lm.forward(&xm, true);
            let numeric =
                (yp.sum_squares() / 2.0 - ym.sum_squares() / 2.0) / (2.0 * eps);
            let analytic = gx.data()[i];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs()),
                "input grad mismatch at {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
        checked
    }

    #[test]
    fn dense_forward_known_values() {
        let mut l = Dense::from_parts(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap(),
            Tensor::from_vec(vec![0.5, -0.5], [2]).unwrap(),
        );
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.data(), &[1.0 + 3.0 + 0.5, 2.0 + 4.0 - 0.5]);
    }

    #[test]
    fn dense_backward_shapes_and_values() {
        let mut l = Dense::from_parts(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]).unwrap(),
            Tensor::zeros([2]),
        );
        let x = Tensor::from_vec(vec![2.0, 3.0], [1, 2]).unwrap();
        let _ = l.forward(&x);
        let g = Tensor::from_vec(vec![1.0, 1.0], [1, 2]).unwrap();
        let gx = l.backward(&g);
        // identity weights: grad passes straight through
        assert_eq!(gx.data(), &[1.0, 1.0]);
        // dW = x^T g
        assert_eq!(l.grad_weight.data(), &[2.0, 2.0, 3.0, 3.0]);
        assert_eq!(l.grad_bias.data(), &[1.0, 1.0]);
    }

    #[test]
    fn dense_gradcheck() {
        let mut r = rng(1);
        let mut layer = Layer::Dense(Dense::new(3, 2, &mut r));
        let x = init::uniform([2, 3], -1.0, 1.0, &mut r);
        check_input_grad(&mut layer, &x, 1e-2);
    }

    #[test]
    fn relu_masks_negative() {
        let mut l = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], [1, 2]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = Tensor::from_vec(vec![5.0, 5.0], [1, 2]).unwrap();
        assert_eq!(l.backward(&g).data(), &[0.0, 5.0]);
    }

    #[test]
    fn sigmoid_range_and_gradcheck() {
        let mut r = rng(2);
        let mut layer = Layer::Sigmoid(Sigmoid::new());
        let x = init::uniform([2, 4], -2.0, 2.0, &mut r);
        let y = layer.forward(&x, true);
        assert!(y.min() > 0.0 && y.max() < 1.0);
        check_input_grad(&mut layer, &x, 1e-2);
    }

    #[test]
    fn tanh_gradcheck() {
        let mut r = rng(3);
        let mut layer = Layer::Tanh(Tanh::new());
        let x = init::uniform([2, 4], -2.0, 2.0, &mut r);
        check_input_grad(&mut layer, &x, 1e-2);
    }

    #[test]
    fn dropout_scales_survivors_and_is_identity_at_eval() {
        let mut l = Dropout::new(0.5, 7);
        let x = Tensor::ones([1, 1000]);
        let y = l.forward(&x, true);
        // inverted dropout: survivors scaled to 2.0, mean stays ~1
        assert!(y.data().iter().all(|&v| v == 0.0 || v == 2.0));
        assert!((y.mean() - 1.0).abs() < 0.1);
        let y_eval = l.forward(&x, false);
        assert_eq!(y_eval.data(), x.data());
    }

    #[test]
    fn dropout_mask_sequence_is_deterministic() {
        let xs = Tensor::ones([1, 64]);
        let mut a = Dropout::new(0.3, 42);
        let mut b = Dropout::new(0.3, 42);
        for _ in 0..3 {
            assert_eq!(a.forward(&xs, true).data(), b.forward(&xs, true).data());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn dropout_rejects_p_one() {
        Dropout::new(1.0, 0);
    }

    #[test]
    fn conv_known_edge_filter() {
        let mut r = rng(0);
        let mut conv = Conv2d::new(1, 1, 3, 3, 2, 2, 1, 0, &mut r);
        conv.weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], [1, 4]).unwrap();
        conv.bias = Tensor::zeros([1]);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            [1, 9],
        )
        .unwrap();
        let y = conv.forward(&x);
        assert_eq!(y.dims(), &[1, 4]);
        assert_eq!(y.data(), &[-4.0, -4.0, -4.0, -4.0]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut r = rng(5);
        let mut layer = Layer::Conv2d(Conv2d::new(1, 2, 4, 4, 3, 3, 1, 1, &mut r));
        let x = init::uniform([2, 16], -1.0, 1.0, &mut r);
        check_input_grad(&mut layer, &x, 2e-2);
    }

    #[test]
    fn conv_weight_gradcheck() {
        let mut r = rng(6);
        let conv = Conv2d::new(1, 1, 3, 3, 2, 2, 1, 0, &mut r);
        let x = init::uniform([1, 9], -1.0, 1.0, &mut r);
        let mut layer = Layer::Conv2d(conv.clone());
        let y = layer.forward(&x, true);
        let _ = layer.backward(&y);
        let analytic = match &layer {
            Layer::Conv2d(c) => c.grad_weight.clone(),
            _ => unreachable!(),
        };
        let eps = 1e-2;
        for i in 0..4 {
            let mut cp = conv.clone();
            cp.weight.data_mut()[i] += eps;
            let mut cm = conv.clone();
            cm.weight.data_mut()[i] -= eps;
            let lp = cp.forward(&x).sum_squares() / 2.0;
            let lm = cm.forward(&x).sum_squares() / 2.0;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[i]).abs() < 1e-2 * (1.0 + numeric.abs()),
                "weight grad mismatch at {i}"
            );
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut pool = MaxPool2d::new(1, 4, 4, 2, 2);
        let x = Tensor::from_vec(
            (0..16).map(|i| i as f32).collect(),
            [1, 16],
        )
        .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.dims(), &[1, 4]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let g = Tensor::ones([1, 4]);
        let gx = pool.backward(&g);
        // gradient routed only to the max positions
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.data()[5], 1.0);
        assert_eq!(gx.data()[15], 1.0);
        assert_eq!(gx.data()[0], 0.0);
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut r = rng(8);
        let (c, h, w, k, stride) = (1, 4, 4, 2, 2);
        let mut layer = Layer::MaxPool2d(MaxPool2d::new(c, h, w, k, stride));
        let x = init::uniform([2, c * h * w], -1.0, 1.0, &mut r);
        // Max pooling has a kink wherever two values of a window tie. A
        // central difference of ±FD_EPS crosses it when a coordinate lies
        // within FD_EPS of another value in one of its windows, so those
        // coordinates are skipped (and counted).
        let near_tie = |i: usize| {
            let (row, ch) = (i / (c * h * w), i % (c * h * w) / (h * w));
            let (y, xx) = (i % (h * w) / w, i % w);
            let v = x.data()[i];
            let origins = |n: usize, at: usize| {
                (0..=n - k)
                    .step_by(stride)
                    .filter(move |&o| o <= at && at < o + k)
            };
            origins(h, y).any(|oy| {
                origins(w, xx).any(|ox| {
                    (oy..oy + k).any(|wy| {
                        (ox..ox + k).any(|wx| {
                            let j = row * c * h * w + ch * h * w + wy * w + wx;
                            j != i && (x.data()[j] - v).abs() <= FD_EPS
                        })
                    })
                })
            })
        };
        let checked = check_input_grad_except(&mut layer, &x, 1e-2, near_tie);
        assert!(
            4 * checked >= 3 * x.len(),
            "only {checked} of {} coordinates were away from a near-tie",
            x.len()
        );
    }

    #[test]
    fn batchnorm_normalizes_at_train() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0, 5.0, 30.0], [3, 2]).unwrap();
        let y = bn.forward(&x, true);
        let m = y.mean_axis(0);
        assert!(m.data().iter().all(|&v| v.abs() < 1e-5));
        let var = (&y - &m).map(|v| v * v).mean_axis(0);
        assert!(var.data().iter().all(|&v| (v - 1.0).abs() < 1e-3));
    }

    #[test]
    fn batchnorm_uses_running_stats_at_eval() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![10.0, 12.0, 8.0, 10.0], [4, 1]).unwrap();
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        // running mean converges to 10, so eval output is ~centered
        let y = bn.forward(&x, false);
        assert!((y.mean()).abs() < 0.1, "eval mean was {}", y.mean());
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut r = rng(9);
        let mut layer = Layer::BatchNorm1d(BatchNorm1d::new(3));
        let x = init::uniform([4, 3], -1.0, 1.0, &mut r);
        check_input_grad(&mut layer, &x, 2e-2);
    }

    #[test]
    fn params_and_grads_ordering() {
        let mut r = rng(10);
        let mut layer = Layer::Dense(Dense::new(2, 3, &mut r));
        let pg = layer.params_and_grads();
        assert_eq!(pg.len(), 2);
        assert_eq!(pg[0].0.dims(), &[2, 3]); // weight first
        assert_eq!(pg[1].0.dims(), &[3]); // bias second
        assert!(Layer::ReLU(ReLU::new()).params_and_grads().is_empty());
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut r = rng(11);
        let mut layer = Layer::Dense(Dense::new(2, 2, &mut r));
        let x = init::uniform([3, 2], -1.0, 1.0, &mut r);
        let y = layer.forward(&x, true);
        let _ = layer.backward(&y);
        layer.zero_grads();
        for (_, g) in layer.params_and_grads() {
            assert_eq!(g.sum(), 0.0);
        }
    }

    #[test]
    fn cost_tracks_output_width() {
        let mut r = rng(12);
        let layer = Layer::Dense(Dense::new(5, 7, &mut r));
        let (cost, out) = layer.cost(4, 5);
        assert_eq!(out, 7);
        assert_eq!(cost.params, 5 * 7 + 7);
        let conv = Layer::Conv2d(Conv2d::new(1, 2, 4, 4, 3, 3, 1, 1, &mut r));
        let (_, out) = conv.cost(1, 16);
        assert_eq!(out, 2 * 4 * 4);
    }
}
