//! Per-decision and global explanations: LIME, saliency maps, activation
//! maximization, and decision-tree surrogates.

use dl_nn::Network;
use dl_tensor::{init, Tensor};

// ----------------------------------------------------------------------
// Saliency
// ----------------------------------------------------------------------

/// Input-gradient saliency: `|d logit_class / d input|` per input feature
/// for a single sample `[1, d]`. Large values mark the features the
/// decision is most sensitive to.
///
/// # Panics
/// Panics when `x` is not a single row or `class` is out of range.
pub fn saliency(net: &mut Network, x: &Tensor, class: usize) -> Tensor {
    assert_eq!(x.dims()[0], 1, "saliency expects a single row");
    let logits = net.forward(x, false);
    assert!(class < logits.dims()[1], "class out of range");
    let mut seed = Tensor::zeros(logits.shape().clone());
    seed.set(&[0, class], 1.0);
    let grad = net.backward(&seed);
    net.clear_caches();
    grad.map(f32::abs)
}

// ----------------------------------------------------------------------
// Activation maximization
// ----------------------------------------------------------------------

/// Synthesizes an input that maximally activates output unit `unit` of
/// `net` (gradient ascent with L2 decay). To target a hidden unit, pass a
/// truncated network. Returns the synthetic input `[1, d]`.
pub fn activation_maximization(
    net: &mut Network,
    unit: usize,
    steps: usize,
    lr: f32,
    seed: u64,
) -> Tensor {
    let d = net.input_dim;
    let mut rng = init::rng(seed);
    let mut x = init::normal([1, d], 0.0, 0.1, &mut rng);
    for _ in 0..steps {
        let out = net.forward(&x, false);
        assert!(unit < out.dims()[1], "unit out of range");
        let mut g = Tensor::zeros(out.shape().clone());
        g.set(&[0, unit], 1.0);
        let gx = net.backward(&g);
        // ascent + weight decay keeps the input bounded
        x = &(&x + &(&gx * lr)) * 0.995;
    }
    net.clear_caches();
    x
}

// ----------------------------------------------------------------------
// LIME
// ----------------------------------------------------------------------

/// A LIME explanation: a local linear surrogate around one input.
#[derive(Debug, Clone)]
pub struct LimeExplanation {
    /// Per-feature weight of the linear surrogate (importance + sign).
    pub weights: Vec<f32>,
    /// Surrogate intercept.
    pub intercept: f32,
    /// Weighted R² of the surrogate on the perturbation sample — the
    /// explanation's local fidelity.
    pub r_squared: f64,
    /// The class being explained.
    pub class: usize,
}

impl LimeExplanation {
    /// Indices of the `k` most important features by |weight|.
    pub fn top_features(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| self.weights[b].abs().total_cmp(&self.weights[a].abs()));
        idx.truncate(k);
        idx
    }
}

/// LIME: samples Gaussian perturbations around `x` (a `[1, d]` row), reads
/// the model's probability for `class`, weights samples by an RBF
/// proximity kernel and fits a weighted ridge regression. The result
/// explains which features locally drive the decision.
///
/// # Panics
/// Panics when `x` is not a single row or `samples < d + 2`.
pub fn lime_explain(
    net: &mut Network,
    x: &Tensor,
    class: usize,
    samples: usize,
    kernel_width: f32,
    seed: u64,
) -> LimeExplanation {
    assert_eq!(x.dims()[0], 1, "lime expects a single row");
    let d = x.dims()[1];
    assert!(
        samples >= d + 2,
        "need more samples ({samples}) than features ({d})"
    );
    let mut rng = init::rng(seed);
    // perturbations and their model outputs
    let noise = init::normal([samples, d], 0.0, 0.5, &mut rng);
    let xs = &noise + x; // broadcast the row
    let probs = net.predict_proba(&xs);
    let targets: Vec<f32> = (0..samples).map(|i| probs.get(&[i, class])).collect();
    // proximity weights
    let weights: Vec<f64> = (0..samples)
        .map(|i| {
            let d2: f32 = (0..d)
                .map(|f| (xs.get(&[i, f]) - x.get(&[0, f])).powi(2))
                .sum();
            f64::from((-d2 / (kernel_width * kernel_width)).exp())
        })
        .collect();
    // weighted ridge regression on (features, 1) -> target
    // normal equations: (Z^T W Z + rI) beta = Z^T W t, Z = [x | 1]
    let dim = d + 1;
    let mut a = vec![0.0f64; dim * dim];
    let mut b = vec![0.0f64; dim];
    for i in 0..samples {
        let w = weights[i];
        let mut row: Vec<f64> = (0..d).map(|f| f64::from(xs.get(&[i, f]))).collect();
        row.push(1.0);
        for p in 0..dim {
            b[p] += w * row[p] * f64::from(targets[i]);
            for q in 0..dim {
                a[p * dim + q] += w * row[p] * row[q];
            }
        }
    }
    for p in 0..d {
        a[p * dim + p] += 1e-3; // ridge (not on the intercept)
    }
    let beta = solve(&mut a, &mut b, dim);
    // weighted R²
    let wsum: f64 = weights.iter().sum();
    let mean_t: f64 = (0..samples)
        .map(|i| weights[i] * f64::from(targets[i]))
        .sum::<f64>()
        / wsum.max(1e-300);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for i in 0..samples {
        let mut pred = beta[d];
        for (f, b) in beta.iter().enumerate().take(d) {
            pred += b * f64::from(xs.get(&[i, f]));
        }
        let t = f64::from(targets[i]);
        ss_res += weights[i] * (t - pred) * (t - pred);
        ss_tot += weights[i] * (t - mean_t) * (t - mean_t);
    }
    let r_squared = if ss_tot <= 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LimeExplanation {
        weights: beta[..d].iter().map(|&v| v as f32).collect(),
        intercept: beta[d] as f32,
        r_squared,
        class,
    }
}

/// Gaussian elimination with partial pivoting; solves `A x = b` in place.
fn solve(a: &mut [f64], b: &mut [f64], n: usize) -> Vec<f64> {
    for col in 0..n {
        // pivot
        let mut pivot = col;
        for r in (col + 1)..n {
            if a[r * n + col].abs() > a[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * n + col];
        if diag.abs() < 1e-12 {
            continue; // singular direction; ridge keeps this rare
        }
        for r in (col + 1)..n {
            let factor = a[r * n + col] / diag;
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            b[r] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col * n + c] * x[c];
        }
        let diag = a[col * n + col];
        x[col] = if diag.abs() < 1e-12 { 0.0 } else { acc / diag };
    }
    x
}

// ----------------------------------------------------------------------
// Surrogate decision tree
// ----------------------------------------------------------------------

/// A CART-style decision tree distilled from a network's predictions —
/// the "self-explanatory surrogate model" of §4.2.
#[derive(Debug, Clone)]
pub enum SurrogateTree {
    /// A leaf predicting one class.
    Leaf {
        /// Predicted class.
        class: usize,
    },
    /// An internal split `feature < threshold`.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold.
        threshold: f32,
        /// Branch taken when `value < threshold`.
        left: Box<SurrogateTree>,
        /// Branch taken otherwise.
        right: Box<SurrogateTree>,
    },
}

impl SurrogateTree {
    /// Fits a depth-bounded tree to the network's own predictions on `x`
    /// (model distillation into an interpretable form).
    pub fn distill(net: &mut Network, x: &Tensor, max_depth: usize) -> Self {
        let targets = net.predict(x);
        let indices: Vec<usize> = (0..x.dims()[0]).collect();
        Self::grow(x, &targets, &indices, max_depth)
    }

    fn grow(x: &Tensor, y: &[usize], indices: &[usize], depth: usize) -> SurrogateTree {
        let majority = {
            let mut counts = std::collections::HashMap::new();
            for &i in indices {
                *counts.entry(y[i]).or_insert(0usize) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(c, n)| (n, std::cmp::Reverse(c)))
                .map(|(c, _)| c)
                .unwrap_or(0)
        };
        if depth == 0 || indices.len() < 4 {
            return SurrogateTree::Leaf { class: majority };
        }
        let pure = indices.iter().all(|&i| y[i] == y[indices[0]]);
        if pure {
            return SurrogateTree::Leaf { class: majority };
        }
        // best gini split over all features, candidate thresholds at
        // feature quantiles
        let d = x.dims()[1];
        let gini = |subset: &[usize]| -> f64 {
            let mut counts = std::collections::HashMap::new();
            for &i in subset {
                *counts.entry(y[i]).or_insert(0usize) += 1;
            }
            let n = subset.len() as f64;
            1.0 - counts
                .values()
                .map(|&c| (c as f64 / n).powi(2))
                .sum::<f64>()
        };
        let parent_gini = gini(indices);
        let mut best: Option<(f64, usize, f32)> = None;
        for f in 0..d {
            let mut vals: Vec<f32> = indices.iter().map(|&i| x.get(&[i, f])).collect();
            vals.sort_by(f32::total_cmp);
            for q in [0.25, 0.5, 0.75] {
                let t = vals[((vals.len() - 1) as f64 * q) as usize];
                let (left, right): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| x.get(&[i, f]) < t);
                if left.is_empty() || right.is_empty() {
                    continue;
                }
                let n = indices.len() as f64;
                let weighted =
                    gini(&left) * left.len() as f64 / n + gini(&right) * right.len() as f64 / n;
                let gain = parent_gini - weighted;
                if best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, t));
                }
            }
        }
        match best {
            Some((gain, f, t)) if gain > 1e-9 => {
                let (left, right): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| x.get(&[i, f]) < t);
                SurrogateTree::Split {
                    feature: f,
                    threshold: t,
                    left: Box::new(Self::grow(x, y, &left, depth - 1)),
                    right: Box::new(Self::grow(x, y, &right, depth - 1)),
                }
            }
            _ => SurrogateTree::Leaf { class: majority },
        }
    }

    /// Predicts the class of a feature row.
    fn predict_row(&self, row: &[f32]) -> usize {
        match self {
            SurrogateTree::Leaf { class } => *class,
            SurrogateTree::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if row[*feature] < *threshold {
                    left.predict_row(row)
                } else {
                    right.predict_row(row)
                }
            }
        }
    }

    /// Fidelity: fraction of rows where the tree agrees with the network.
    pub fn fidelity(&self, net: &mut Network, x: &Tensor) -> f64 {
        let model = net.predict(x);
        let n = x.dims()[0];
        let d = x.dims()[1];
        let agree = (0..n)
            .filter(|&i| {
                let row: Vec<f32> = (0..d).map(|f| x.get(&[i, f])).collect();
                self.predict_row(&row) == model[i]
            })
            .count();
        agree as f64 / n as f64
    }

    /// Number of decision nodes (interpretability proxy).
    pub fn node_count(&self) -> usize {
        match self {
            SurrogateTree::Leaf { .. } => 1,
            SurrogateTree::Split { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::blobs;
    use dl_nn::{Dataset, Optimizer, TrainConfig, Trainer};
    use dl_tensor::init::rng;

    /// Data where only feature 0 matters: label = (x0 > 0).
    fn single_feature_data(n: usize, d: usize, seed: u64) -> Dataset {
        let mut r = rng(seed);
        let x = init::uniform([n, d], -1.0, 1.0, &mut r);
        let y: Vec<usize> = (0..n).map(|i| usize::from(x.get(&[i, 0]) > 0.0)).collect();
        Dataset::new(x, y, 2)
    }

    fn train(data: &Dataset, seed: u64) -> Network {
        let mut r = rng(seed);
        let mut net = Network::mlp(&[data.x.dims()[1], 16, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, data);
        net
    }

    #[test]
    fn saliency_highlights_the_causal_feature() {
        let data = single_feature_data(200, 6, 0);
        let mut net = train(&data, 1);
        let x = data.x.select_rows(&[0]);
        let s = saliency(&mut net, &x, 1);
        let max_f = s.argmax();
        assert_eq!(max_f, 0, "saliency should peak on feature 0: {s:?}");
    }

    #[test]
    fn lime_recovers_the_causal_feature() {
        let data = single_feature_data(300, 6, 2);
        let mut net = train(&data, 3);
        let x = data.x.select_rows(&[5]);
        let exp = lime_explain(&mut net, &x, 1, 400, 2.0, 4);
        assert_eq!(exp.top_features(1), vec![0], "weights {:?}", exp.weights);
        // the causal feature has positive influence on class 1
        assert!(exp.weights[0] > 0.0);
    }

    #[test]
    fn lime_fidelity_improves_with_samples() {
        let data = blobs(200, 2, 4, 6.0, 0.4, 5);
        let mut net = train(&data, 6);
        let x = data.x.select_rows(&[3]);
        let small = lime_explain(&mut net, &x, 1, 30, 2.0, 7);
        let large = lime_explain(&mut net, &x, 1, 600, 2.0, 7);
        // more samples: fidelity estimate stabilizes; both should be
        // meaningfully positive in the smooth region
        assert!(large.r_squared > 0.3, "large-sample R² {}", large.r_squared);
        assert!(large.r_squared >= small.r_squared - 0.3);
    }

    #[test]
    fn activation_maximization_drives_the_unit_up() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 8);
        let mut net = train_k3(&data, 9);
        let before = {
            let mut r = rng(10);
            let x = init::normal([1, 4], 0.0, 0.1, &mut r);
            net.forward(&x, false).get(&[0, 2])
        };
        let x = activation_maximization(&mut net, 2, 100, 0.5, 10);
        let after = net.forward(&x, false).get(&[0, 2]);
        assert!(after > before + 1.0, "activation {before} -> {after}");
    }

    fn train_k3(data: &Dataset, seed: u64) -> Network {
        let mut r = rng(seed);
        let mut net = Network::mlp(&[4, 16, 3], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, data);
        net
    }

    #[test]
    fn surrogate_tree_high_fidelity_on_simple_model() {
        let data = single_feature_data(300, 4, 11);
        let mut net = train(&data, 12);
        let tree = SurrogateTree::distill(&mut net, &data.x, 4);
        let fid = tree.fidelity(&mut net, &data.x);
        assert!(fid > 0.9, "fidelity {fid}");
        assert!(tree.node_count() < 40);
    }

    #[test]
    fn deeper_surrogates_are_at_least_as_faithful() {
        let data = blobs(200, 3, 4, 6.0, 0.5, 13);
        let mut net = train_k3(&data, 14);
        let shallow = SurrogateTree::distill(&mut net, &data.x, 1);
        let deep = SurrogateTree::distill(&mut net, &data.x, 6);
        assert!(deep.fidelity(&mut net, &data.x) >= shallow.fidelity(&mut net, &data.x));
    }

    #[test]
    fn solve_linear_system() {
        // 2x + y = 5; x - y = 1 -> x = 2, y = 1
        let mut a = vec![2.0, 1.0, 1.0, -1.0];
        let mut b = vec![5.0, 1.0];
        let x = solve(&mut a, &mut b, 2);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "single row")]
    fn saliency_rejects_batches() {
        let data = single_feature_data(10, 3, 15);
        let mut net = train(&data, 16);
        saliency(&mut net, &data.x, 0);
    }
}
