//! Differential test of the read-only inference forward.
//!
//! `Layer::eval` and `Network::eval` must give the bits and the
//! `acct::measure` charge of the training forward run with `train =
//! false`, for every layer kind, an MLP (whose Dense+ReLU pairs run fused)
//! and a `simple_cnn`, under every `with_kernel` × `with_threads` setting.
//! Inputs hold NaN, ±0.0, ±inf and subnormal values, and batches of 0 and
//! 1 rows are included.

use dl_nn::layers::{Dense, ReLU, Sigmoid, Tanh};
use dl_nn::{BatchNorm1d, Conv2d, Dropout, Layer, MaxPool2d, Network};
use dl_tensor::acct::{self, OpCost};
use dl_tensor::par::{self, Kernel};
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

const SPECIALS: [f32; 7] = [
    f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    -1e-40,
];
const BATCHES: [usize; 4] = [0, 1, 7, 32];

/// A `[rows, cols]` input, uniform in ±2 with about a fifth of the values
/// drawn from [`SPECIALS`].
fn input(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f32>() < 0.2 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-2.0..2.0)
            }
        })
        .collect();
    Tensor::from_vec(data, [rows, cols]).expect("input length")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
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

fn assert_same(what: &str, eval: (Tensor, OpCost), forward: (Tensor, OpCost)) {
    assert_eq!(eval.0.dims(), forward.0.dims(), "{what}: shape");
    assert_eq!(bits(&eval.0), bits(&forward.0), "{what}: bits");
    assert_eq!(eval.1, forward.1, "{what}: charge");
}

/// Redraws every parameter uniformly in ±1, so biases, BatchNorm's shift
/// and scale and the like are not the zeros and ones they start at.
fn randomize(layer: &mut Layer, rng: &mut StdRng) {
    for (p, _) in layer.params_and_grads() {
        *p = init::uniform(p.shape().clone(), -1.0, 1.0, rng);
    }
}

fn check_layer(name: &str, mut layer: Layer, width: usize, rng: &mut StdRng) {
    randomize(&mut layer, rng);
    let layer = &layer;
    for rows in BATCHES {
        let x = input(rows, width, rng);
        every_setting(|setting| {
            let eval = acct::measure(|| layer.eval(&x));
            let forward = acct::measure(|| layer.clone().forward(&x, false));
            assert_same(&format!("{name}, {rows} rows, {setting}"), eval, forward);
        });
    }
}

fn check_network(name: &str, mut net: Network, rng: &mut StdRng) {
    for layer in net.layers_mut() {
        randomize(layer, rng);
    }
    let net = &net;
    for rows in BATCHES {
        let x = input(rows, net.input_dim, rng);
        every_setting(|setting| {
            let eval = acct::measure(|| net.eval(&x));
            let forward = acct::measure(|| net.clone().forward(&x, false));
            let what = format!("{name}, {rows} rows, {setting}");
            assert_same(&what, eval, forward);
            let reference = net.clone().forward(&x, false);
            let (proba, _) = acct::measure(|| net.predict_proba(&x));
            assert_eq!(
                bits(&proba),
                bits(&dl_nn::loss::softmax(&reference)),
                "{what}"
            );
            assert_eq!(net.predict(&x), reference.argmax_rows(), "{what}");
        });
    }
}

/// BatchNorm with running statistics moved off their defaults by a few
/// training passes.
fn warmed_batchnorm(width: usize, rng: &mut StdRng) -> Layer {
    let mut bn = Layer::BatchNorm1d(BatchNorm1d::new(width));
    for _ in 0..3 {
        let _ = bn.forward(&init::uniform([16, width], -2.0, 2.0, rng), true);
    }
    bn
}

#[test]
fn every_layer_kind_evals_like_its_forward() {
    let mut rng = init::rng(41);
    let conv = Conv2d::new(2, 3, 6, 6, 3, 3, 1, 1, &mut rng);
    let conv_in = 2 * 6 * 6;
    let layers = [
        ("dense", Layer::Dense(Dense::new(9, 5, &mut rng)), 9),
        ("relu", Layer::ReLU(ReLU::new()), 9),
        ("sigmoid", Layer::Sigmoid(Sigmoid::new()), 9),
        ("tanh", Layer::Tanh(Tanh::new()), 9),
        ("dropout", Layer::Dropout(Dropout::new(0.4, 3)), 9),
        ("conv2d", Layer::Conv2d(conv), conv_in),
        (
            "maxpool2d",
            Layer::MaxPool2d(MaxPool2d::new(3, 6, 6, 2, 2)),
            3 * 6 * 6,
        ),
        ("batchnorm1d", warmed_batchnorm(9, &mut rng), 9),
    ];
    for (name, layer, width) in layers {
        check_layer(name, layer, width, &mut rng);
    }
}

#[test]
fn networks_eval_like_their_forward() {
    let mut rng = init::rng(42);
    let mlp = Network::mlp(&[16, 64, 64, 5], &mut rng);
    check_network("mlp", mlp, &mut rng);
    let cnn = Network::simple_cnn(1, 8, 8, 3, 12, 4, &mut rng);
    check_network("simple_cnn", cnn, &mut rng);
    // Every row-wise kind in one pipeline: a ReLU after a non-Dense layer,
    // a fused Dense+ReLU followed by Tanh, and a Dense that ends it.
    let mixed = Network::new(6)
        .push(Layer::Dense(Dense::new(6, 11, &mut rng)))
        .push(warmed_batchnorm(11, &mut rng))
        .push(Layer::ReLU(ReLU::new()))
        .push(Layer::Dropout(Dropout::new(0.3, 9)))
        .push(Layer::Dense(Dense::new(11, 8, &mut rng)))
        .push(Layer::Sigmoid(Sigmoid::new()))
        .push(Layer::Dense(Dense::new(8, 4, &mut rng)))
        .push(Layer::ReLU(ReLU::new()))
        .push(Layer::Tanh(Tanh::new()))
        .push(Layer::Dense(Dense::new(4, 3, &mut rng)));
    check_network("mixed", mixed, &mut rng);
    check_network("empty", Network::new(5), &mut rng);
}
