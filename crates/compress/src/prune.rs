//! Parameter pruning: unstructured, saliency-based and structural.
//!
//! The tutorial (§2.1) organizes pruning along two axes: *granularity*
//! (parameter / filter / network level) and *criterion* (magnitude / loss
//! / learned). This module covers:
//!
//! * [`magnitude_prune`] — parameter-level, magnitude criterion: zero the
//!   globally smallest weights (Han et al. style).
//! * [`saliency_prune`] — parameter-level, loss criterion: first-order
//!   Taylor saliency `|w * dL/dw|` estimated on a calibration batch.
//! * [`neuron_prune`] — filter-level structural pruning of dense layers:
//!   physically removes the lowest-norm output neurons and the matching
//!   rows of the next dense layer, shrinking real memory and FLOPs.

use dl_nn::{Dataset, Dense, Layer, Loss, Network};
use dl_tensor::Tensor;

/// What a pruning pass did to the network.
#[derive(Debug, Clone)]
pub struct PruneReport {
    /// Parameters before pruning.
    pub params_before: usize,
    /// Parameters after (for unstructured pruning, params that remain
    /// nonzero; for structural pruning, params that physically remain).
    pub params_after: usize,
    /// Fraction of weight parameters zeroed/removed.
    pub achieved_sparsity: f64,
}

/// Fraction of *weight-matrix* entries that are exactly zero.
/// (Biases and norm parameters are excluded, matching pruning practice.)
pub fn sparsity(net: &Network) -> f64 {
    let mut zeros = 0usize;
    let mut total = 0usize;
    for layer in net.layers() {
        if let Some(w) = weight_of(layer) {
            zeros += w.data().iter().filter(|&&v| v == 0.0).count();
            total += w.len();
        }
    }
    if total == 0 {
        0.0
    } else {
        zeros as f64 / total as f64
    }
}

fn weight_of(layer: &Layer) -> Option<&Tensor> {
    match layer {
        Layer::Dense(d) => Some(&d.weight),
        Layer::Conv2d(c) => Some(&c.weight),
        _ => None,
    }
}

/// Zeroes the `target_sparsity` fraction of weight entries with smallest
/// absolute value, chosen **globally** across all weight matrices.
///
/// # Panics
/// Panics unless `0 <= target_sparsity <= 1`.
pub fn magnitude_prune(net: &mut Network, target_sparsity: f64) -> PruneReport {
    assert!(
        (0.0..=1.0).contains(&target_sparsity),
        "sparsity must lie in [0,1], got {target_sparsity}"
    );
    // collect |w| across all weight matrices to find the global threshold
    let mut magnitudes: Vec<f32> = Vec::new();
    for layer in net.layers() {
        if let Some(w) = weight_of(layer) {
            magnitudes.extend(w.data().iter().map(|v| v.abs()));
        }
    }
    let params_before = magnitudes.len();
    if params_before == 0 {
        return PruneReport {
            params_before: 0,
            params_after: 0,
            achieved_sparsity: 0.0,
        };
    }
    let cut = ((params_before as f64) * target_sparsity).floor() as usize;
    let threshold = if cut == 0 {
        f32::NEG_INFINITY
    } else {
        let (_, t, _) = magnitudes.select_nth_unstable_by(cut - 1, f32::total_cmp);
        *t
    };
    let mut zeroed = 0usize;
    for layer in net.layers_mut() {
        let w = match layer {
            Layer::Dense(d) => &mut d.weight,
            Layer::Conv2d(c) => &mut c.weight,
            _ => continue,
        };
        for v in w.data_mut() {
            if v.abs() <= threshold && zeroed < cut {
                *v = 0.0;
                zeroed += 1;
            }
        }
    }
    PruneReport {
        params_before,
        params_after: params_before - zeroed,
        achieved_sparsity: zeroed as f64 / params_before as f64,
    }
}

/// First-order loss-saliency pruning: scores every weight by
/// `|w * dL/dw|` on a calibration batch (the Taylor expansion of the loss
/// change from removing the weight) and zeroes the least-salient fraction.
///
/// # Panics
/// Panics unless `0 <= target_sparsity <= 1`, or on an empty dataset.
pub fn saliency_prune(
    net: &mut Network,
    calibration: &Dataset,
    target_sparsity: f64,
) -> PruneReport {
    assert!(
        (0.0..=1.0).contains(&target_sparsity),
        "sparsity must lie in [0,1]"
    );
    assert!(!calibration.is_empty(), "calibration data required");
    // one forward/backward over the calibration set to populate gradients
    net.zero_grads();
    let logits = net.forward(&calibration.x, true);
    let targets = dl_nn::loss::one_hot(&calibration.y, calibration.classes);
    let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
    net.backward(&grad);
    // collect saliencies of weight matrices only
    let mut saliencies: Vec<f32> = Vec::new();
    for layer in net.layers_mut() {
        match layer {
            Layer::Dense(d) => {
                saliencies.extend(
                    d.weight
                        .data()
                        .iter()
                        .zip(d.grad_weight.data())
                        .map(|(&w, &g)| (w * g).abs()),
                );
            }
            Layer::Conv2d(c) => {
                saliencies.extend(
                    c.weight
                        .data()
                        .iter()
                        .zip(c.grad_weight.data())
                        .map(|(&w, &g)| (w * g).abs()),
                );
            }
            _ => {}
        }
    }
    let params_before = saliencies.len();
    let cut = ((params_before as f64) * target_sparsity).floor() as usize;
    let threshold = if cut == 0 {
        f32::NEG_INFINITY
    } else {
        let (_, t, _) = saliencies.select_nth_unstable_by(cut - 1, f32::total_cmp);
        *t
    };
    let mut zeroed = 0usize;
    for layer in net.layers_mut() {
        let (w, g) = match layer {
            Layer::Dense(d) => (&mut d.weight, &d.grad_weight),
            Layer::Conv2d(c) => (&mut c.weight, &c.grad_weight),
            _ => continue,
        };
        for (v, &gv) in w.data_mut().iter_mut().zip(g.data()) {
            if (*v * gv).abs() <= threshold && zeroed < cut {
                *v = 0.0;
                zeroed += 1;
            }
        }
    }
    net.clear_caches();
    PruneReport {
        params_before,
        params_after: params_before - zeroed,
        achieved_sparsity: zeroed as f64 / params_before as f64,
    }
}

/// Structural (filter-level) pruning of the dense layer at `layer_index`:
/// removes the `remove` output neurons with lowest L2 weight norm, and the
/// matching input rows of the **next** dense layer.
///
/// Unlike unstructured pruning this physically shrinks both matrices, so
/// memory and FLOPs drop without sparse kernels.
///
/// # Panics
/// Panics when `layer_index` is not a dense layer followed (possibly after
/// activations) by another dense layer, or `remove` >= neuron count.
pub fn neuron_prune(net: &mut Network, layer_index: usize, remove: usize) -> PruneReport {
    let params_before = net.param_count();
    let layers = net.layers_mut();
    // find the next dense layer after layer_index
    let next_dense = (layer_index + 1..layers.len())
        .find(|&i| matches!(layers[i], Layer::Dense(_)))
        .expect("neuron_prune requires a following dense layer");
    let (out_dim, keep): (usize, Vec<usize>) = {
        let Layer::Dense(d) = &layers[layer_index] else {
            panic!("layer {layer_index} is not dense");
        };
        let out_dim = d.fan_out();
        assert!(
            remove < out_dim,
            "cannot remove {remove} of {out_dim} neurons"
        );
        // L2 norm of each output column
        let mut norms: Vec<(f32, usize)> = (0..out_dim)
            .map(|j| {
                let norm: f32 = (0..d.fan_in())
                    .map(|i| d.weight.get(&[i, j]).powi(2))
                    .sum();
                (norm, j)
            })
            .collect();
        norms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let removed: std::collections::HashSet<usize> =
            norms[..remove].iter().map(|&(_, j)| j).collect();
        let keep: Vec<usize> = (0..out_dim).filter(|j| !removed.contains(j)).collect();
        (out_dim, keep)
    };
    // shrink layer_index's columns
    {
        let Layer::Dense(d) = &mut layers[layer_index] else {
            unreachable!();
        };
        let fan_in = d.fan_in();
        let mut w = Vec::with_capacity(fan_in * keep.len());
        for i in 0..fan_in {
            for &j in &keep {
                w.push(d.weight.get(&[i, j]));
            }
        }
        let b: Vec<f32> = keep.iter().map(|&j| d.bias.data()[j]).collect();
        *d = Dense::from_parts(
            Tensor::from_vec(w, [fan_in, keep.len()]).expect("length matches"),
            Tensor::from_vec(b, [keep.len()]).expect("length matches"),
        );
    }
    // shrink next dense layer's rows
    {
        let Layer::Dense(d) = &mut layers[next_dense] else {
            unreachable!();
        };
        assert_eq!(
            d.fan_in(),
            out_dim,
            "next dense layer fan_in must match pruned layer fan_out"
        );
        let w = d.weight.select_rows(&keep);
        *d = Dense::from_parts(w, d.bias.clone());
    }
    let params_after = net.param_count();
    PruneReport {
        params_before,
        params_after,
        achieved_sparsity: 1.0 - params_after as f64 / params_before as f64,
    }
}

/// Filter-level pruning of a convolution layer: zeroes the `remove`
/// filters with the lowest L2 norm (weights and bias). The filters'
/// outputs become constant zero, so downstream layers see structured
/// sparsity — the "filter-level granularity" of the tutorial's taxonomy,
/// without the index surgery a flattened-spatial interface would need.
///
/// Returns the indices of the zeroed filters.
///
/// # Panics
/// Panics when `layer_index` is not a convolution or `remove` is not
/// smaller than the filter count.
pub fn filter_prune(net: &mut Network, layer_index: usize, remove: usize) -> Vec<usize> {
    let Layer::Conv2d(conv) = &mut net.layers_mut()[layer_index] else {
        panic!("layer {layer_index} is not a convolution");
    };
    let filters = conv.out_channels;
    assert!(
        remove < filters,
        "cannot remove {remove} of {filters} filters"
    );
    let fan_in = conv.weight.dims()[1];
    let mut norms: Vec<(f32, usize)> = (0..filters)
        .map(|f| {
            let norm: f32 = (0..fan_in)
                .map(|i| conv.weight.get(&[f, i]).powi(2))
                .sum::<f32>()
                + conv.bias.data()[f].powi(2);
            (norm, f)
        })
        .collect();
    norms.sort_by(|a, b| a.0.total_cmp(&b.0));
    let removed: Vec<usize> = norms[..remove].iter().map(|&(_, f)| f).collect();
    for &f in &removed {
        for i in 0..fan_in {
            conv.weight.set(&[f, i], 0.0);
        }
        conv.bias.data_mut()[f] = 0.0;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::blobs;
    use dl_nn::{Optimizer, TrainConfig, Trainer};
    use dl_tensor::init::rng;

    fn trained_net(seed: u64) -> (Network, Dataset) {
        let data = blobs(120, 3, 4, 6.0, 0.3, seed);
        let mut r = rng(seed);
        let mut net = Network::mlp(&[4, 16, 8, 3], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        (net, data)
    }

    #[test]
    fn magnitude_prune_hits_target() {
        let (mut net, _) = trained_net(0);
        let report = magnitude_prune(&mut net, 0.5);
        assert!((report.achieved_sparsity - 0.5).abs() < 0.01);
        assert!((sparsity(&net) - 0.5).abs() < 0.01);
    }

    #[test]
    fn magnitude_prune_zero_is_noop() {
        let (mut net, _) = trained_net(1);
        let before = net.flat_params();
        let report = magnitude_prune(&mut net, 0.0);
        assert_eq!(report.achieved_sparsity, 0.0);
        assert_eq!(net.flat_params(), before);
    }

    #[test]
    fn magnitude_prune_removes_smallest_first() {
        let mut r = rng(2);
        let mut net = Network::new(2).push(Layer::Dense(Dense::new(2, 2, &mut r)));
        // plant known weights
        if let Layer::Dense(d) = &mut net.layers_mut()[0] {
            d.weight = Tensor::from_vec(vec![0.01, -5.0, 0.02, 4.0], [2, 2]).unwrap();
        }
        magnitude_prune(&mut net, 0.5);
        if let Layer::Dense(d) = &net.layers()[0] {
            assert_eq!(d.weight.data(), &[0.0, -5.0, 0.0, 4.0]);
        }
    }

    #[test]
    fn mild_pruning_keeps_accuracy_heavy_pruning_kills_it() {
        let (net, data) = trained_net(3);
        let base = Trainer::evaluate(&net, &data);
        let mut mild = net.clone();
        magnitude_prune(&mut mild, 0.3);
        let mild_acc = Trainer::evaluate(&mild, &data);
        let mut heavy = net.clone();
        magnitude_prune(&mut heavy, 0.99);
        let heavy_acc = Trainer::evaluate(&heavy, &data);
        assert!(base - mild_acc < 0.1, "mild pruning lost {}", base - mild_acc);
        assert!(heavy_acc < base, "99% pruning should hurt: {heavy_acc} vs {base}");
    }

    #[test]
    fn saliency_prune_hits_target_and_respects_loss() {
        let (mut net, data) = trained_net(4);
        let base = Trainer::evaluate(&net, &data);
        let report = saliency_prune(&mut net, &data, 0.4);
        assert!((report.achieved_sparsity - 0.4).abs() < 0.01);
        let acc = Trainer::evaluate(&net, &data);
        assert!(base - acc < 0.15, "saliency pruning lost {}", base - acc);
    }

    #[test]
    fn neuron_prune_shrinks_shapes() {
        let (mut net, data) = trained_net(5);
        let before_params = net.param_count();
        let report = neuron_prune(&mut net, 0, 8); // 16 -> 8 hidden neurons
        assert!(report.params_after < before_params);
        if let Layer::Dense(d) = &net.layers()[0] {
            assert_eq!(d.fan_out(), 8);
        }
        if let Layer::Dense(d) = &net.layers()[2] {
            assert_eq!(d.fan_in(), 8);
        }
        // network still runs end to end
        let acc = Trainer::evaluate(&net, &data);
        assert!(acc > 0.4, "pruned net collapsed to {acc}");
    }

    #[test]
    fn neuron_prune_removes_lowest_norm_neurons() {
        let mut r = rng(6);
        let mut net = Network::new(2)
            .push(Layer::Dense(Dense::new(2, 3, &mut r)))
            .push(Layer::Dense(Dense::new(3, 2, &mut r)));
        if let Layer::Dense(d) = &mut net.layers_mut()[0] {
            // neuron 1 has tiny weights -> should be removed
            d.weight = Tensor::from_vec(vec![1.0, 0.001, 2.0, 1.5, 0.001, -2.0], [2, 3]).unwrap();
            d.bias = Tensor::from_vec(vec![0.1, 0.2, 0.3], [3]).unwrap();
        }
        neuron_prune(&mut net, 0, 1);
        if let Layer::Dense(d) = &net.layers()[0] {
            assert_eq!(d.fan_out(), 2);
            assert_eq!(d.weight.data(), &[1.0, 2.0, 1.5, -2.0]);
            assert_eq!(d.bias.data(), &[0.1, 0.3]);
        }
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn neuron_prune_rejects_removing_all() {
        let (mut net, _) = trained_net(7);
        neuron_prune(&mut net, 0, 16);
    }

    #[test]
    #[should_panic(expected = "sparsity must lie")]
    fn magnitude_prune_rejects_bad_sparsity() {
        let (mut net, _) = trained_net(8);
        magnitude_prune(&mut net, 1.5);
    }

    #[test]
    fn filter_prune_zeroes_lowest_norm_filters() {
        let mut r = rng(20);
        let mut net = Network::simple_cnn(1, 12, 12, 4, 8, 10, &mut r);
        // shrink one filter's weights so it becomes the obvious victim
        if let Layer::Conv2d(c) = &mut net.layers_mut()[0] {
            for i in 0..9 {
                c.weight.set(&[2, i], 1e-6);
            }
            c.bias.data_mut()[2] = 0.0;
        }
        let removed = filter_prune(&mut net, 0, 1);
        assert_eq!(removed, vec![2]);
        if let Layer::Conv2d(c) = &net.layers()[0] {
            assert!((0..9).all(|i| c.weight.get(&[2, i]) == 0.0));
            // the other filters are untouched
            assert!((0..9).any(|i| c.weight.get(&[0, i]) != 0.0));
        }
        // a zeroed filter emits constant zero feature maps
        let x = dl_tensor::init::uniform([2, 144], 0.0, 1.0, &mut r);
        if let Layer::Conv2d(c) = &mut net.layers_mut()[0] {
            let mut probe = c.clone();
            let y = Layer::Conv2d(probe.clone()).forward(&x, false);
            let (oh, ow) = probe.output_hw();
            for s in 0..2 {
                for p in 0..oh * ow {
                    assert_eq!(y.get(&[s, 2 * oh * ow + p]), 0.0);
                }
            }
            let _ = &mut probe; // silence unused-mut in release configs
        }
    }

    #[test]
    #[should_panic(expected = "not a convolution")]
    fn filter_prune_rejects_dense_layers() {
        let (mut net, _) = trained_net(21);
        filter_prune(&mut net, 0, 1);
    }

    #[test]
    fn cnn_trains_and_prunes_end_to_end() {
        use dl_data::digits_dataset;
        let data = digits_dataset(150, 0.05, 22);
        let mut r = rng(23);
        let mut net = Network::simple_cnn(1, 12, 12, 4, 16, 10, &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 8,
                batch_size: 32,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        let base = Trainer::evaluate(&net, &data);
        assert!(base > 0.8, "cnn failed to train: {base}");
        filter_prune(&mut net, 0, 1);
        let pruned = Trainer::evaluate(&net, &data);
        assert!(pruned > 0.5, "one filter should not collapse the model: {pruned}");
    }

    #[test]
    fn sparsity_of_fresh_net_is_zero() {
        let mut r = rng(9);
        let net = Network::mlp(&[4, 8, 2], &mut r);
        assert_eq!(sparsity(&net), 0.0);
    }
}
