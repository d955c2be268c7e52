//! MorphNet-style iterative structure optimization (§2.2).
//!
//! MorphNet alternates short training phases with a resize step that
//! reallocates width under a resource constraint: layers whose neurons
//! carry weight mass get wider, layers that don't get narrower, and the
//! whole network is rescaled to the parameter budget. The comparison
//! baseline is *uniform scaling*, which shrinks every layer by the same
//! factor regardless of where the capacity is needed.

use dl_nn::{Dataset, Dense, Layer, Network, Optimizer, TrainConfig, Trainer};
use rand::rngs::StdRng;

/// Morph optimization configuration.
#[derive(Debug, Clone)]
pub struct MorphConfig {
    /// Target total parameter budget.
    pub param_budget: usize,
    /// Morph iterations (train -> resize).
    pub rounds: usize,
    /// Epochs of training inside each round.
    pub epochs_per_round: usize,
    /// Minimum width any hidden layer may shrink to.
    pub min_width: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for MorphConfig {
    fn default() -> Self {
        MorphConfig {
            param_budget: 2000,
            rounds: 3,
            epochs_per_round: 10,
            min_width: 2,
            seed: 0,
        }
    }
}

/// Outcome of a morph run.
#[must_use = "the report carries the width/accuracy measurements this run exists to produce"]
#[derive(Debug, Clone)]
pub struct MorphReport {
    /// Hidden widths after the final resize.
    pub final_widths: Vec<usize>,
    /// Parameters of the final network.
    pub final_params: usize,
    /// Accuracy of the final network on the evaluation set.
    pub accuracy: f64,
    /// Total optimization-time FLOPs spent across rounds.
    pub optimization_flops: u64,
}

/// Per-hidden-layer importance: mean L2 mass of each layer's neurons
/// (incoming + outgoing weights), summed over the layer.
fn layer_importance(net: &Network) -> Vec<f64> {
    let dense: Vec<&Dense> = net
        .layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Dense(d) => Some(d),
            _ => None,
        })
        .collect();
    // hidden layer h sits between dense[h] (incoming) and dense[h+1]
    (0..dense.len().saturating_sub(1))
        .map(|h| {
            let incoming = f64::from(dense[h].weight.sum_squares());
            let outgoing = f64::from(dense[h + 1].weight.sum_squares());
            (incoming + outgoing).sqrt()
        })
        .collect()
}

/// Computes hidden widths proportional to `importance`, scaled so the MLP
/// `input -> widths -> classes` meets `budget` parameters as closely as
/// possible (floored at `min_width`).
fn widths_for_budget(
    input: usize,
    classes: usize,
    importance: &[f64],
    budget: usize,
    min_width: usize,
) -> Vec<usize> {
    assert!(!importance.is_empty(), "need at least one hidden layer");
    let total_imp: f64 = importance.iter().sum();
    let shares: Vec<f64> = importance
        .iter()
        .map(|&i| {
            if total_imp > 0.0 {
                i / total_imp
            } else {
                1.0 / importance.len() as f64
            }
        })
        .collect();
    // binary search a global scale so params(widths = scale * share) ~ budget
    let params_of = |widths: &[usize]| -> usize {
        let mut dims = vec![input];
        dims.extend_from_slice(widths);
        dims.push(classes);
        dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    };
    let mut lo = 1.0f64;
    let mut hi = 4096.0f64;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let widths: Vec<usize> = shares
            .iter()
            .map(|s| ((s * mid).round() as usize).max(min_width))
            .collect();
        if params_of(&widths) > budget {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    shares
        .iter()
        .map(|s| ((s * lo).round() as usize).max(min_width))
        .collect()
}

/// Runs the morph loop on an MLP: train, measure importance, resize to the
/// budget, re-embed surviving structure, repeat. Returns the final network
/// and report.
pub fn morph_resize(
    data: &Dataset,
    eval: &Dataset,
    initial_hidden: &[usize],
    config: &MorphConfig,
    rng: &mut StdRng,
) -> (Network, MorphReport) {
    assert!(!initial_hidden.is_empty(), "morph needs hidden layers");
    let input = data.x.dims()[1];
    let classes = data.classes;
    let mut widths = initial_hidden.to_vec();
    let mut dims = vec![input];
    dims.extend(&widths);
    dims.push(classes);
    let mut net = Network::mlp(&dims, rng);
    let mut flops = 0u64;
    for round in 0..config.rounds {
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: config.epochs_per_round,
                seed: config.seed.wrapping_add(round as u64),
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, data);
        flops += trainer.flops;
        if round + 1 == config.rounds {
            break; // final round trains only
        }
        let importance = layer_importance(&net);
        widths = widths_for_budget(
            input,
            classes,
            &importance,
            config.param_budget,
            config.min_width,
        );
        let mut new_dims = vec![input];
        new_dims.extend(&widths);
        new_dims.push(classes);
        net = reembed(&net, &new_dims, rng);
    }
    net.clear_caches();
    let accuracy = dl_nn::metrics::accuracy(&net.predict(&eval.x), &eval.y);
    let report = MorphReport {
        final_widths: widths,
        final_params: net.param_count(),
        accuracy,
        optimization_flops: flops,
    };
    (net, report)
}

/// Uniform-scaling baseline: shrink every hidden layer by the same factor
/// to meet the budget, then train once with the same total epoch budget.
pub fn uniform_baseline(
    data: &Dataset,
    eval: &Dataset,
    initial_hidden: &[usize],
    config: &MorphConfig,
    rng: &mut StdRng,
) -> (Network, MorphReport) {
    let input = data.x.dims()[1];
    let classes = data.classes;
    let uniform_imp = vec![1.0; initial_hidden.len()];
    // uniform shares but honoring the relative sizes of the initial widths
    let imp: Vec<f64> = initial_hidden
        .iter()
        .zip(&uniform_imp)
        .map(|(&w, &u)| w as f64 * u)
        .collect();
    let widths = widths_for_budget(input, classes, &imp, config.param_budget, config.min_width);
    let mut dims = vec![input];
    dims.extend(&widths);
    dims.push(classes);
    let mut net = Network::mlp(&dims, rng);
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: config.epochs_per_round * config.rounds,
            seed: config.seed,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, data);
    net.clear_caches();
    let accuracy = dl_nn::metrics::accuracy(&net.predict(&eval.x), &eval.y);
    let report = MorphReport {
        final_widths: widths,
        final_params: net.param_count(),
        accuracy,
        optimization_flops: trainer.flops,
    };
    (net, report)
}

/// Builds a network of `dims`, copying the overlapping weight block from
/// `old` (keeping its highest-norm neurons when shrinking).
fn reembed(old: &Network, dims: &[usize], rng: &mut StdRng) -> Network {
    let old_dense: Vec<&Dense> = old
        .layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Dense(d) => Some(d),
            _ => None,
        })
        .collect();
    let mut fresh = Network::mlp(dims, rng);
    // per-interface kept indices: input/output interfaces keep identity
    let mut kept: Vec<Vec<usize>> = Vec::with_capacity(dims.len());
    kept.push((0..dims[0]).collect());
    for (h, &width) in dims[1..dims.len() - 1].iter().enumerate() {
        let d = old_dense[h];
        let old_width = d.fan_out();
        if width >= old_width {
            kept.push((0..old_width).collect());
        } else {
            // keep the top-norm neurons
            let mut norms: Vec<(f32, usize)> = (0..old_width)
                .map(|j| {
                    let n: f32 = (0..d.fan_in()).map(|i| d.weight.get(&[i, j]).powi(2)).sum();
                    (n, j)
                })
                .collect();
            norms.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut keep: Vec<usize> = norms[..width].iter().map(|&(_, j)| j).collect();
            keep.sort_unstable();
            kept.push(keep);
        }
    }
    kept.push((0..*dims.last().expect("non-empty dims")).collect());
    let mut dense_idx = 0;
    for layer in fresh.layers_mut() {
        let Layer::Dense(nd) = layer else { continue };
        let od = old_dense[dense_idx];
        let rows = &kept[dense_idx];
        let cols = &kept[dense_idx + 1];
        let mut w = nd.weight.clone();
        for (ni, &oi) in rows.iter().enumerate().take(nd.fan_in()) {
            if oi >= od.fan_in() {
                continue;
            }
            for (nj, &oj) in cols.iter().enumerate().take(nd.fan_out()) {
                if oj >= od.fan_out() {
                    continue;
                }
                w.set(&[ni, nj], od.weight.get(&[oi, oj]));
            }
        }
        let mut b = nd.bias.clone();
        for (nj, &oj) in cols.iter().enumerate().take(nd.fan_out()) {
            if oj < od.fan_out() {
                b.data_mut()[nj] = od.bias.data()[oj];
            }
        }
        *nd = Dense::from_parts(w, b);
        dense_idx += 1;
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::blobs;
    use dl_tensor::init::rng;

    #[test]
    fn widths_meet_budget() {
        let widths = widths_for_budget(10, 3, &[1.0, 1.0], 500, 2);
        let mut dims = vec![10];
        dims.extend(&widths);
        dims.push(3);
        let params: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
        assert!(params <= 550, "params {params} exceed budget slack");
        assert!(params >= 300, "params {params} far below budget");
    }

    #[test]
    fn importance_shifts_width_allocation() {
        let balanced = widths_for_budget(10, 3, &[1.0, 1.0], 500, 2);
        let skewed = widths_for_budget(10, 3, &[4.0, 1.0], 500, 2);
        assert!(skewed[0] > balanced[0]);
        assert!(skewed[1] < balanced[1]);
    }

    #[test]
    fn min_width_respected() {
        let widths = widths_for_budget(10, 3, &[100.0, 0.0001], 400, 3);
        assert!(widths.iter().all(|&w| w >= 3));
    }

    #[test]
    fn reembed_same_dims_preserves_function() {
        let mut r = rng(0);
        let data = blobs(40, 2, 3, 6.0, 0.3, 0);
        let mut old = Network::mlp(&[3, 8, 2], &mut r);
        let mut new = reembed(&old, &[3, 8, 2], &mut r);
        let a = old.forward(&data.x, false);
        let b = new.forward(&data.x, false);
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn morph_meets_budget_and_learns() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 1);
        let eval = blobs(60, 3, 4, 6.0, 0.4, 2);
        let mut r = rng(3);
        let cfg = MorphConfig {
            param_budget: 150,
            rounds: 3,
            epochs_per_round: 10,
            ..MorphConfig::default()
        };
        let (net, report) = morph_resize(&data, &eval, &[32, 32], &cfg, &mut r);
        assert!(
            report.final_params <= 200,
            "final params {} blew the budget",
            report.final_params
        );
        assert_eq!(report.final_params, net.param_count());
        assert!(report.accuracy > 0.7, "accuracy {}", report.accuracy);
    }

    #[test]
    fn morph_at_least_matches_uniform_at_same_budget() {
        let data = blobs(200, 3, 4, 6.0, 0.4, 4);
        let eval = blobs(80, 3, 4, 6.0, 0.4, 5);
        let cfg = MorphConfig {
            param_budget: 150,
            rounds: 3,
            epochs_per_round: 12,
            ..MorphConfig::default()
        };
        let (_, morph) = morph_resize(&data, &eval, &[32, 32], &cfg, &mut rng(6));
        let (_, uniform) = uniform_baseline(&data, &eval, &[32, 32], &cfg, &mut rng(6));
        // the resized network should be at least competitive
        assert!(
            morph.accuracy >= uniform.accuracy - 0.1,
            "morph {} vs uniform {}",
            morph.accuracy,
            uniform.accuracy
        );
    }
}
