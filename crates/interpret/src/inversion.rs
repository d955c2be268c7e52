//! Network inversion: reconstructing inputs from layer activations.
//!
//! The tutorial's §4.2 describes DeconvNet and Network Inversion as
//! operating "in the reverse direction": given only the information
//! present at some layer, what input does it correspond to? The answer
//! visualizes which aspects of the input each layer preserves — early
//! layers reconstruct almost everything, late layers only what matters
//! for the task.
//!
//! This module implements inversion by optimization: minimize
//! `|| f_k(x') - a ||² + λ ||x'||²` over the input `x'`, where `f_k` is
//! the network truncated at layer `k` and `a` the target activation.

use dl_nn::{Layer, Loss, Network};
use dl_tensor::{init, Tensor};

/// Inversion hyper-parameters.
#[derive(Debug, Clone)]
pub struct InversionConfig {
    /// Gradient-descent steps.
    pub steps: usize,
    /// Step size.
    pub lr: f32,
    /// L2 regularization on the reconstructed input.
    pub weight_decay: f32,
    /// Seed for the starting point.
    pub seed: u64,
}

impl Default for InversionConfig {
    fn default() -> Self {
        InversionConfig {
            steps: 300,
            lr: 0.5,
            weight_decay: 0.002,
            seed: 0,
        }
    }
}

/// A network truncated after its first `layers` layers.
///
/// # Panics
/// Panics when `layers` is zero or exceeds the pipeline length.
pub fn truncate(net: &Network, layers: usize) -> Network {
    assert!(
        layers > 0 && layers <= net.layers().len(),
        "cannot truncate to {layers} of {} layers",
        net.layers().len()
    );
    let mut out = Network::new(net.input_dim);
    let kept: Vec<Layer> = net.layers()[..layers].to_vec();
    *out.layers_mut() = kept;
    out
}

/// Result of an inversion run.
#[derive(Debug, Clone)]
pub struct Inversion {
    /// The reconstructed input `[1, d]`.
    pub reconstruction: Tensor,
    /// Final activation-matching loss.
    pub residual: f32,
}

/// Inverts `target` (a `[1, units]` activation of `net` truncated at
/// `layer_count` layers) back to input space.
fn invert_activation(
    net: &Network,
    layer_count: usize,
    target: &Tensor,
    config: &InversionConfig,
) -> Inversion {
    let mut truncated = truncate(net, layer_count);
    let mut rng = init::rng(config.seed);
    let mut x = init::normal([1, net.input_dim], 0.0, 0.1, &mut rng);
    let mut residual = f32::INFINITY;
    for _ in 0..config.steps {
        let out = truncated.forward(&x, false);
        let (loss, grad) = Loss::MeanSquaredError.evaluate(&out, target);
        residual = loss;
        let gx = truncated.backward(&grad);
        // descent with decay toward zero (the natural-image prior's poor
        // man's version)
        x = &(&x - &(&gx * config.lr)) * (1.0 - config.weight_decay);
    }
    truncated.clear_caches();
    Inversion {
        reconstruction: x,
        residual,
    }
}

/// Inverts the representation of a concrete input at layer `layer_count`:
/// runs the input forward to get its activation, then reconstructs from
/// that activation alone. The reconstruction error against the original
/// input measures how much the layer preserves.
pub fn invert_input(
    net: &Network,
    layer_count: usize,
    input: &Tensor,
    config: &InversionConfig,
) -> (Inversion, f32) {
    let mut truncated = truncate(net, layer_count);
    let target = truncated.forward(input, false);
    truncated.clear_caches();
    let inv = invert_activation(net, layer_count, &target, config);
    let input_err = (&inv.reconstruction - input).map(f32::abs).mean();
    (inv, input_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_nn::{Optimizer, TrainConfig, Trainer};
    use dl_tensor::init::rng;

    fn trained() -> (Network, dl_nn::Dataset) {
        let data = dl_data::blobs(150, 3, 6, 6.0, 0.4, 0);
        let mut r = rng(1);
        let mut net = Network::mlp(&[6, 16, 8, 3], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        (net, data)
    }

    #[test]
    fn truncate_produces_prefix() {
        let (net, data) = trained();
        let mut t2 = truncate(&net, 2);
        assert_eq!(t2.layers().len(), 2);
        // prefix output equals the full trace at that depth
        let mut full = net.clone();
        let trace = full.forward_trace(&data.x, false);
        let out = t2.forward(&data.x, false);
        assert!(out.approx_eq(&trace[2], 1e-6));
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_rejects_zero() {
        let (net, _) = trained();
        truncate(&net, 0);
    }

    #[test]
    fn inversion_reduces_residual() {
        let (net, data) = trained();
        let x0 = data.x.select_rows(&[0]);
        let (inv, _) = invert_input(&net, 2, &x0, &InversionConfig::default());
        // activation matched well after optimization
        assert!(inv.residual < 0.05, "residual {}", inv.residual);
    }

    #[test]
    fn reconstruction_activates_like_the_original() {
        let (net, data) = trained();
        let x0 = data.x.select_rows(&[3]);
        let (inv, _) = invert_input(&net, 2, &x0, &InversionConfig::default());
        let mut t = truncate(&net, 2);
        let a_orig = t.forward(&x0, false);
        let a_rec = t.forward(&inv.reconstruction, false);
        assert!(
            (&a_orig - &a_rec).map(f32::abs).mean() < 0.2,
            "reconstruction does not reproduce the activation"
        );
    }

    #[test]
    fn early_layers_preserve_more_than_late_layers() {
        let (net, data) = trained();
        // average input-space reconstruction error at depth 1 vs full depth
        let mut early = 0.0;
        let mut late = 0.0;
        for i in 0..5 {
            let x0 = data.x.select_rows(&[i * 7]);
            let (_, e) = invert_input(&net, 1, &x0, &InversionConfig::default());
            let (_, l) = invert_input(&net, net.layers().len(), &x0, &InversionConfig::default());
            early += e;
            late += l;
        }
        assert!(
            early < late,
            "early-layer inversion ({early}) should beat late ({late})"
        );
    }
}
