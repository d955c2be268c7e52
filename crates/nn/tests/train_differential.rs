//! Differential test of one training step.
//!
//! `Trainer::step` (forward, softmax cross-entropy, backward, optimizer
//! update) is checked bit for bit against a reference step written here
//! with whole-tensor operations only: every transposed GEMM operand is
//! materialised with `transpose()` and multiplied by `par::matmul`, every
//! gradient and every intermediate is a fresh tensor, and each optimizer
//! builds one temporary tensor per operation. After every step the
//! parameters, their gradients, the loss and the optimizer state (Adam's
//! moments, momentum's velocity) must have the same bits; at the end, so
//! must `Network::backward`'s input gradient.
//!
//! The nets are seeded MLPs, including the 16-64-64-5 serving shape, and
//! small conv nets. Each runs finite steps whose inputs hold ±0.0 and
//! subnormals, then one whose inputs also hold NaN and ±inf, under every
//! `with_kernel` × `with_threads` setting and for SGD, momentum and Adam.
//! A NaN only has to meet a NaN: Rust leaves its sign and payload open.

use dl_nn::layers::{Dense, ReLU};
use dl_nn::loss::one_hot;
use dl_nn::{Conv2d, Layer, Loss, Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::par::{self, Kernel};
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

const FINITE_SPECIALS: [f32; 4] = [0.0, -0.0, 1e-40, -1e-42];
const NON_FINITE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// Bit patterns, with every NaN mapped to `f32::NAN`'s.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

fn assert_same(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    assert_eq!(bits(got), bits(want), "{what}: bits");
}

/// A `[rows, cols]` batch uniform in ±2, about a fifth of it drawn from
/// `specials`.
fn batch(rows: usize, cols: usize, specials: &[f32], rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f32>() < 0.2 {
                specials[rng.gen_range(0..specials.len())]
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Tensor::from_vec(data, [rows, cols]).expect("batch length")
}

// ---------------------------------------------------------------------
// The reference step
// ---------------------------------------------------------------------

/// What the reference forward keeps for its backward, per layer.
enum Cache {
    Dense(Tensor),
    ReLU(Tensor),
    Conv(Vec<Tensor>),
}

/// The update rules, each operation a whole-tensor kernel.
enum RefOptimizer {
    Sgd(f32),
    Momentum(f32, Vec<Tensor>),
    Adam {
        lr: f32,
        t: i32,
        m: Vec<Tensor>,
        v: Vec<Tensor>,
    },
}

impl RefOptimizer {
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) {
        match self {
            RefOptimizer::Sgd(lr) => {
                for (p, g) in params.iter_mut().zip(grads) {
                    *p = &*p - &(g * *lr);
                }
            }
            RefOptimizer::Momentum(lr, vel) => {
                if vel.is_empty() {
                    *vel = params
                        .iter()
                        .map(|p| Tensor::zeros(p.shape().clone()))
                        .collect();
                }
                for ((p, g), vel) in params.iter_mut().zip(grads).zip(vel.iter_mut()) {
                    *vel = &(&*vel * 0.9) + &(g * *lr);
                    *p = &*p - &*vel;
                }
            }
            RefOptimizer::Adam { lr, t, m, v } => {
                let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
                if m.is_empty() {
                    *m = params
                        .iter()
                        .map(|p| Tensor::zeros(p.shape().clone()))
                        .collect();
                    *v = m.clone();
                }
                *t += 1;
                let bc1 = 1.0 - beta1.powi(*t);
                let bc2 = 1.0 - beta2.powi(*t);
                for (i, (p, g)) in params.iter_mut().zip(grads).enumerate() {
                    m[i] = &(&m[i] * beta1) + &(g * (1.0 - beta1));
                    v[i] = &(&v[i] * beta2) + &(g.map(|x| x * x) * (1.0 - beta2));
                    let m_hat = &m[i] * (1.0 / bc1);
                    let v_hat = &v[i] * (1.0 / bc2);
                    let update = m_hat.zip(&v_hat, |mh, vh| *lr * mh / (vh.sqrt() + eps));
                    *p = &*p - &update;
                }
            }
        }
    }

    /// The optimizer state, in parameter order, as the program names it.
    fn state(&self) -> Vec<(&'static str, &[Tensor])> {
        match self {
            RefOptimizer::Sgd(_) => Vec::new(),
            RefOptimizer::Momentum(_, vel) => vec![("velocity", vel)],
            RefOptimizer::Adam { m, v, .. } => vec![("m", m), ("v", v)],
        }
    }
}

/// The program's optimizer state, named like [`RefOptimizer::state`].
fn program_state(opt: &Optimizer) -> Vec<(&'static str, &[Tensor])> {
    match opt {
        Optimizer::Sgd { .. } => Vec::new(),
        Optimizer::Momentum { velocity, .. } => vec![("velocity", velocity)],
        Optimizer::Adam { m, v, .. } => vec![("m", m), ("v", v)],
    }
}

/// A reference copy of a network: its layer kinds and geometry, and its
/// parameters and gradients in `params_and_grads` order.
struct Reference {
    layers: Vec<Layer>,
    params: Vec<Tensor>,
    grads: Vec<Tensor>,
    opt: RefOptimizer,
}

impl Reference {
    fn new(net: &Network, opt: RefOptimizer) -> Self {
        let params = net
            .layers()
            .iter()
            .flat_map(Layer::params)
            .cloned()
            .collect();
        Reference {
            layers: net.layers().to_vec(),
            params,
            grads: Vec::new(),
            opt,
        }
    }

    fn forward(&self, x: &Tensor) -> (Tensor, Vec<Cache>) {
        let mut cur = x.clone();
        let mut caches = Vec::new();
        let mut pi = 0;
        for layer in &self.layers {
            cur = match layer {
                Layer::Dense(_) => {
                    let (w, b) = (&self.params[pi], &self.params[pi + 1]);
                    pi += 2;
                    let y = &par::matmul(&cur, w) + b;
                    caches.push(Cache::Dense(cur));
                    y
                }
                Layer::ReLU(_) => {
                    caches.push(Cache::ReLU(cur.map(|v| if v > 0.0 { 1.0 } else { 0.0 })));
                    cur.map(|v| v.max(0.0))
                }
                Layer::Conv2d(c) => {
                    let (w, b) = (&self.params[pi], &self.params[pi + 1]);
                    pi += 2;
                    let (oh, ow) = c.output_hw();
                    let rows = cur.dims()[0];
                    let mut out = Vec::new();
                    let mut all_cols = Vec::new();
                    for s in 0..rows {
                        let img = cur
                            .row(s)
                            .reshape([c.in_channels, c.height, c.width])
                            .unwrap();
                        let cols = par::im2col(&img, c.kh, c.kw, c.stride, c.pad);
                        let y = par::matmul(w, &cols);
                        for ch in 0..c.out_channels {
                            for p in 0..oh * ow {
                                out.push(y.data()[ch * oh * ow + p] + b.data()[ch]);
                            }
                        }
                        all_cols.push(cols);
                    }
                    caches.push(Cache::Conv(all_cols));
                    Tensor::from_vec(out, [rows, c.output_dim()]).unwrap()
                }
                other => panic!("no reference for {}", other.name()),
            };
        }
        (cur, caches)
    }

    /// Writes every parameter gradient and returns d loss / d input.
    fn backward(&mut self, grad: &Tensor, caches: Vec<Cache>) -> Tensor {
        let mut cur = grad.clone();
        let mut grads = Vec::new();
        let mut pi = self.params.len();
        for (layer, cache) in self.layers.iter().zip(caches).rev() {
            cur = match (layer, cache) {
                (Layer::Dense(_), Cache::Dense(x)) => {
                    pi -= 2;
                    let w = &self.params[pi];
                    grads.push(cur.sum_axis(0));
                    grads.push(par::matmul(&x.transpose(), &cur));
                    par::matmul(&cur, &w.transpose())
                }
                (Layer::ReLU(_), Cache::ReLU(mask)) => &cur * &mask,
                (Layer::Conv2d(c), Cache::Conv(cols)) => {
                    pi -= 2;
                    let w = &self.params[pi];
                    let (oh, ow) = c.output_hw();
                    let fan_in = c.in_channels * c.kh * c.kw;
                    let mut gw = Tensor::zeros([c.out_channels, fan_in]);
                    let mut gb = Tensor::zeros([c.out_channels]);
                    let mut gx = Vec::new();
                    for (s, cols) in cols.iter().enumerate() {
                        let g_s = cur.row(s).reshape([c.out_channels, oh * ow]).unwrap();
                        gw = &gw + &par::matmul(&g_s, &cols.transpose());
                        gb = &gb + &g_s.sum_axis(1);
                        let dcols = par::matmul(&w.transpose(), &g_s);
                        let dx = par::col2im(
                            &dcols,
                            c.in_channels,
                            c.height,
                            c.width,
                            c.kh,
                            c.kw,
                            c.stride,
                            c.pad,
                        );
                        gx.extend_from_slice(dx.data());
                    }
                    grads.push(gb);
                    grads.push(gw);
                    let rows = cur.dims()[0];
                    Tensor::from_vec(gx, [rows, c.in_channels * c.height * c.width]).unwrap()
                }
                _ => unreachable!("caches follow the layers"),
            };
        }
        grads.reverse();
        self.grads = grads;
        cur
    }

    /// Softmax cross-entropy: the loss and its gradient, averaged over
    /// the batch.
    fn loss(logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        let (rows, cols) = (logits.dims()[0], logits.dims()[1]);
        let mut out = Vec::new();
        for r in 0..rows {
            let row = &logits.data()[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let total: f32 = exps.iter().sum();
            out.extend(exps.iter().map(|e| e / total));
        }
        let probs = Tensor::from_vec(out, [rows, cols]).unwrap();
        let batch = rows as f32;
        let ce = probs.zip(
            targets,
            |p, t| if t > 0.0 { t * p.max(1e-12).ln() } else { 0.0 },
        );
        let loss = -ce.sum() / batch;
        (loss, (&probs - targets).map(|g| g / batch))
    }

    fn step(&mut self, x: &Tensor, targets: &Tensor) -> f32 {
        let (logits, caches) = self.forward(x);
        let (loss, grad) = Reference::loss(&logits, targets);
        self.backward(&grad, caches);
        self.opt.step(&mut self.params, &self.grads);
        loss
    }
}

// ---------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------

fn optimizers() -> [(&'static str, Optimizer, RefOptimizer); 3] {
    [
        ("sgd", Optimizer::sgd(0.05), RefOptimizer::Sgd(0.05)),
        (
            "momentum",
            Optimizer::momentum(0.02),
            RefOptimizer::Momentum(0.02, Vec::new()),
        ),
        (
            "adam",
            Optimizer::adam(0.01),
            RefOptimizer::Adam {
                lr: 0.01,
                t: 0,
                m: Vec::new(),
                v: Vec::new(),
            },
        ),
    ]
}

/// Trains `net` and its reference side by side: `finite_steps` batches
/// with ±0.0 and subnormals, then one with NaN and ±inf as well,
/// comparing everything after each step.
fn check_net(what: &str, net: &Network, classes: usize, rows: usize, seed: u64) {
    for (name, opt, ref_opt) in optimizers() {
        let mut net = net.clone();
        let mut reference = Reference::new(&net, ref_opt);
        let mut trainer = Trainer::new(TrainConfig::default(), opt);
        let mut rng = init::rng(seed);
        let non_finite = [&FINITE_SPECIALS[..], &NON_FINITE[..]].concat();
        for step in 0..4 {
            let specials = if step < 3 {
                &FINITE_SPECIALS[..]
            } else {
                &non_finite
            };
            let x = batch(rows, net.input_dim, specials, &mut rng);
            let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
            let targets = one_hot(&labels, classes);
            let at = format!("{what}, {name}, step {step}");
            let loss = trainer.step(&mut net, &x, &targets, 1.0);
            let want_loss = reference.step(&x, &targets);
            assert_eq!(
                bits(&Tensor::scalar(loss)),
                bits(&Tensor::scalar(want_loss)),
                "{at}: loss"
            );
            let pg = net.params_and_grads();
            assert_eq!(pg.len(), reference.params.len(), "{at}: parameter count");
            for (i, (p, g)) in pg.iter().enumerate() {
                assert_same(&format!("{at}: gradient {i}"), g, &reference.grads[i]);
                assert_same(&format!("{at}: parameter {i}"), p, &reference.params[i]);
            }
            let want_state = reference.opt.state();
            let got_state = program_state(&trainer.optimizer);
            assert_eq!(got_state.len(), want_state.len(), "{at}: state");
            for ((name, got), (_, want)) in got_state.iter().zip(&want_state) {
                assert_eq!(got.len(), want.len(), "{at}: {name} count");
                for (i, (g, w)) in got.iter().zip(*want).enumerate() {
                    assert_same(&format!("{at}: {name} {i}"), g, w);
                }
            }
        }
        // The input gradient the trainer discards, through the public
        // forward and backward.
        let x = batch(rows, net.input_dim, &FINITE_SPECIALS, &mut rng);
        let targets = one_hot(&vec![0; rows], classes);
        let logits = net.forward(&x, true);
        let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
        let (want_logits, caches) = reference.forward(&x);
        assert_same(&format!("{what}: logits"), &logits, &want_logits);
        let (_, want_grad) = Reference::loss(&want_logits, &targets);
        assert_same(&format!("{what}: loss gradient"), &grad, &want_grad);
        let dx = net.backward(&grad);
        let want_dx = reference.backward(&want_grad, caches);
        assert_same(&format!("{what}: input gradient"), &dx, &want_dx);
    }
}

/// Runs `check` under both kernels at one and four threads.
fn every_setting(mut check: impl FnMut(&str)) {
    for kernel in [Kernel::Scalar, Kernel::Unrolled] {
        for threads in [1, 4] {
            par::with_kernel(kernel, || {
                par::with_threads(threads, || check(&format!("{kernel:?}/{threads}t")))
            });
        }
    }
}

#[test]
fn mlp_steps_match_the_reference_bit_for_bit() {
    for (seed, dims) in [
        (1u64, &[16usize, 64, 64, 5][..]),
        (2, &[7, 13, 3]),
        (3, &[5, 9]),
        (4, &[3, 40, 17, 2]),
    ] {
        let net = Network::mlp(dims, &mut init::rng(seed));
        for rows in [1, 7, 32] {
            every_setting(|setting| {
                let what = format!("mlp {dims:?}, {rows} rows, {setting}");
                check_net(&what, &net, dims[dims.len() - 1], rows, seed);
            });
        }
    }
}

#[test]
fn conv_steps_match_the_reference_bit_for_bit() {
    let mut rng = init::rng(11);
    // (in channels, filters, height, width, kernel, stride, pad)
    for (cin, cout, h, w, k, stride, pad) in [(1, 3, 6, 6, 3, 1, 1), (2, 4, 7, 5, 2, 2, 0)] {
        let conv = Conv2d::new(cin, cout, h, w, k, k, stride, pad, &mut rng);
        let width = conv.output_dim();
        let net = Network::new(cin * h * w)
            .push(Layer::Conv2d(conv))
            .push(Layer::ReLU(ReLU::new()))
            .push(Layer::Dense(Dense::new(width, 4, &mut rng)));
        for rows in [1, 6] {
            every_setting(|setting| {
                let what = format!("conv {cin}x{h}x{w} -> {cout}, {rows} rows, {setting}");
                check_net(&what, &net, 4, rows, 5);
            });
        }
    }
}
