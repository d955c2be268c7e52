//! The network: an ordered pipeline of layers.

use dl_tensor::Tensor;
use rand::rngs::StdRng;

use crate::cost::{CostProfile, LayerCost};
use crate::layers::{Dense, Layer, ReLU};
use crate::loss::softmax;

/// A feed-forward network: the tutorial's "predefined pipeline" that every
/// data item passes through.
///
/// ```
/// use dl_nn::{Network, Layer, Dense};
/// use dl_tensor::{init, Tensor};
/// let mut rng = init::rng(0);
/// let mut net = Network::mlp(&[4, 8, 2], &mut rng);
/// let x = init::uniform([3, 4], -1.0, 1.0, &mut rng);
/// let logits = net.forward(&x, false);
/// assert_eq!(logits.dims(), &[3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Layer>,
    /// Width of the expected input rows.
    pub input_dim: usize,
}

impl Network {
    /// An empty network expecting `input_dim`-wide rows.
    pub fn new(input_dim: usize) -> Self {
        Network {
            layers: Vec::new(),
            input_dim,
        }
    }

    /// Builder-style layer append.
    pub fn push(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// A ReLU multi-layer perceptron with the given widths
    /// (`dims[0]` input, `dims.last()` output logits; ReLU between).
    ///
    /// # Panics
    /// Panics when fewer than two widths are given.
    pub fn mlp(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut net = Network::new(dims[0]);
        for w in dims.windows(2).take(dims.len() - 2) {
            net.layers.push(Layer::Dense(Dense::new(w[0], w[1], rng)));
            net.layers.push(Layer::ReLU(ReLU::new()));
        }
        let last = &dims[dims.len() - 2..];
        net.layers
            .push(Layer::Dense(Dense::new(last[0], last[1], rng)));
        net
    }

    /// A small convolutional network over `[channels, height, width]`
    /// rows: conv(3x3, `filters`, pad 1) -> ReLU -> 2x2 maxpool ->
    /// dense(`hidden`) -> ReLU -> dense(`classes`).
    ///
    /// The class of model the tutorial draws its examples from; used by
    /// the CNN variants of the compression experiments.
    ///
    /// # Panics
    /// Panics when `height`/`width` are not even (the 2x2 pool must tile).
    #[allow(clippy::too_many_arguments)]
    pub fn simple_cnn(
        channels: usize,
        height: usize,
        width: usize,
        filters: usize,
        hidden: usize,
        classes: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            height.is_multiple_of(2) && width.is_multiple_of(2),
            "simple_cnn needs even spatial dims for the 2x2 pool"
        );
        let conv = crate::layers::Conv2d::new(channels, filters, height, width, 3, 3, 1, 1, rng);
        let (oh, ow) = conv.output_hw();
        let pool = crate::layers::MaxPool2d::new(filters, oh, ow, 2, 2);
        let pooled = pool.output_dim();
        let mut net = Network::new(channels * height * width);
        net.layers.push(Layer::Conv2d(conv));
        net.layers.push(Layer::ReLU(ReLU::new()));
        net.layers.push(Layer::MaxPool2d(pool));
        net.layers
            .push(Layer::Dense(Dense::new(pooled, hidden, rng)));
        net.layers.push(Layer::ReLU(ReLU::new()));
        net.layers
            .push(Layer::Dense(Dense::new(hidden, classes, rng)));
        net
    }

    /// The layer pipeline.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access for parameter surgery (pruning, quantization,
    /// hatching). Callers must preserve inter-layer shape compatibility.
    pub fn layers_mut(&mut self) -> &mut Vec<Layer> {
        &mut self.layers
    }

    /// Runs the pipeline forward. `train` enables dropout/batch statistics.
    /// `x` is copied once; each activation then passes to the next layer
    /// by value, so a layer that keeps its input keeps it without a copy.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(cur, train);
        }
        cur
    }

    /// The read-only inference forward: the bits and the
    /// [`dl_tensor::acct`] charge of `forward(x, false)`, without touching
    /// any layer's backward cache. It copies no input, and runs a Dense
    /// followed by a ReLU as one GEMM plus one in-place bias + ReLU pass
    /// over its output.
    pub fn eval(&self, x: &Tensor) -> Tensor {
        let mut cur: Option<Tensor> = None;
        let mut layers = self.layers.iter().peekable();
        while let Some(layer) = layers.next() {
            let input = cur.as_ref().unwrap_or(x);
            cur = Some(match (layer, layers.peek()) {
                (Layer::Dense(d), Some(Layer::ReLU(_))) => {
                    layers.next();
                    d.eval(input, true)
                }
                _ => layer.eval(input),
            });
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Forward pass that also returns every intermediate activation
    /// (input first, logits last). Feeds the interpretability stack.
    pub fn forward_trace(&mut self, x: &Tensor, train: bool) -> Vec<Tensor> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &mut self.layers {
            let next = layer.forward(acts.last().expect("non-empty").clone(), train);
            acts.push(next);
        }
        acts
    }

    /// Backward pass from the loss gradient, which it reads without a
    /// copy; writes every layer's parameter gradients and returns
    /// d loss / d input.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for layer in self.layers.iter_mut().rev() {
            cur = Some(layer.backward(cur.as_ref().unwrap_or(grad)));
        }
        cur.unwrap_or_else(|| grad.clone())
    }

    /// Drops all cached activations.
    pub fn clear_caches(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    /// All `(param, grad)` pairs, in pipeline order, for the optimizer.
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(Tensor::len)
            .sum()
    }

    /// Class predictions (row-wise argmax of the logits).
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.eval(x).argmax_rows()
    }

    /// Class probabilities (softmax of the logits).
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        softmax(&self.eval(x))
    }

    /// Eval-mode class predictions computed `max_batch` rows at a time —
    /// the inference-serving forward path. Each chunk runs one matmul per
    /// dense layer over a `[B, d]` input, so weights are read once per
    /// chunk instead of once per sample, while peak activation memory
    /// stays bounded by `max_batch` rows. Every eval-mode kernel is
    /// row-independent with a fixed per-element accumulation order
    /// (matmul sums over `k` in index order; BatchNorm applies running
    /// statistics; Dropout is the identity), so the result is bitwise
    /// identical to [`Network::predict`] at any chunk size.
    ///
    /// # Panics
    /// Panics when `max_batch` is zero or `x` is not a matrix.
    pub fn predict_batched(&self, x: &Tensor, max_batch: usize) -> Vec<usize> {
        assert!(max_batch > 0, "max_batch must be positive");
        let rows = x.dims()[0];
        if rows <= max_batch {
            // Single chunk: forward the matrix as-is, no row copies.
            return self.predict(x);
        }
        let mut out = Vec::with_capacity(rows);
        let mut lo = 0usize;
        while lo < rows {
            let hi = usize::min(lo + max_batch, rows);
            let idx: Vec<usize> = (lo..hi).collect();
            out.extend(self.predict(&x.select_rows(&idx)));
            lo = hi;
        }
        out
    }

    /// Static resource profile at the given batch size.
    pub fn cost_profile(&self, batch: usize) -> CostProfile {
        let mut dim = self.input_dim;
        let mut costs: Vec<LayerCost> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (c, out) = layer.cost(batch, dim);
            costs.push(c);
            dim = out;
        }
        CostProfile::from_layers(&costs)
    }

    /// Per-layer costs at the given batch size (used by `dl-memsched` and
    /// the placement optimizer in `dl-distributed`).
    pub fn layer_costs(&self, batch: usize) -> Vec<LayerCost> {
        let mut dim = self.input_dim;
        self.layers
            .iter()
            .map(|layer| {
                let (c, out) = layer.cost(batch, dim);
                dim = out;
                c
            })
            .collect()
    }

    /// Flattens every trainable parameter into one vector (communication
    /// and averaging in `dl-distributed`).
    pub fn flat_params(&self) -> Vec<f32> {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .flat_map(|t| t.data().iter().copied())
            .collect()
    }

    /// Overwrites every trainable parameter from a flat vector produced by
    /// [`Network::flat_params`] on an identically-shaped network.
    ///
    /// # Panics
    /// Panics when the flat length does not match this network.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        let mut offset = 0;
        for layer in &mut self.layers {
            for (p, _) in layer.params_and_grads() {
                let n = p.len();
                assert!(
                    offset + n <= flat.len(),
                    "flat parameter vector too short: need more than {}",
                    flat.len()
                );
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        assert_eq!(
            offset,
            flat.len(),
            "flat parameter vector has {} extra values",
            flat.len() - offset
        );
    }

    /// Flattens every accumulated gradient (same order as
    /// [`Network::flat_params`]).
    pub fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            for (_, g) in layer.params_and_grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Overwrites accumulated gradients from a flat vector (used to inject
    /// compressed/averaged gradients in `dl-distributed`).
    ///
    /// # Panics
    /// Panics when the flat length does not match this network.
    pub fn set_flat_grads(&mut self, flat: &[f32]) {
        let mut offset = 0;
        for layer in &mut self.layers {
            for (_, g) in layer.params_and_grads() {
                let n = g.len();
                g.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        assert_eq!(offset, flat.len(), "flat gradient length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{one_hot, Loss};
    use crate::optim::Optimizer;
    use dl_tensor::init::{self, rng};

    #[test]
    fn mlp_shapes() {
        let mut r = rng(0);
        let net = Network::mlp(&[4, 16, 8, 3], &mut r);
        // dense, relu, dense, relu, dense
        assert_eq!(net.layers().len(), 5);
        assert_eq!(Network::mlp(&[4, 2], &mut r).layers().len(), 1);
        assert_eq!(
            net.param_count(),
            (4 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3)
        );
    }

    #[test]
    fn forward_output_shape() {
        let mut r = rng(1);
        let mut net = Network::mlp(&[4, 8, 2], &mut r);
        let x = init::uniform([5, 4], -1.0, 1.0, &mut r);
        assert_eq!(net.forward(&x, false).dims(), &[5, 2]);
    }

    #[test]
    fn forward_trace_has_all_activations() {
        let mut r = rng(2);
        let mut net = Network::mlp(&[4, 8, 2], &mut r);
        let x = init::uniform([3, 4], -1.0, 1.0, &mut r);
        let trace = net.forward_trace(&x, false);
        assert_eq!(trace.len(), 4); // input + dense/relu/dense
        assert_eq!(trace[0].dims(), &[3, 4]);
        assert_eq!(trace[1].dims(), &[3, 8]);
        assert_eq!(trace[3].dims(), &[3, 2]);
    }

    #[test]
    fn batched_predict_bitwise_equals_per_sample_forward() {
        use crate::layers::{BatchNorm1d, Dense, Dropout, Tanh};
        let mut r = rng(7);
        // Every eval-mode layer kind that can sit in an MLP, including the
        // two whose train-mode behaviour depends on the batch (BatchNorm,
        // Dropout) — eval mode must be row-independent.
        let mut net = Network::new(6)
            .push(Layer::Dense(Dense::new(6, 11, &mut r)))
            .push(Layer::BatchNorm1d(BatchNorm1d::new(11)))
            .push(Layer::ReLU(crate::layers::ReLU::new()))
            .push(Layer::Dropout(Dropout::new(0.3, 9)))
            .push(Layer::Dense(Dense::new(11, 4, &mut r)))
            .push(Layer::Tanh(Tanh::new()));
        // Train-mode passes populate BatchNorm's running statistics so the
        // eval path exercises a non-trivial normalization.
        let warm = init::uniform([16, 6], -2.0, 2.0, &mut r);
        for _ in 0..3 {
            let _ = net.forward(&warm, true);
        }
        let x = init::uniform([17, 6], -2.0, 2.0, &mut r);
        // Per-sample reference loop: one [1, d] forward per row.
        let batch_logits = net.forward(&x, false);
        for i in 0..17 {
            let single = net.forward(&x.select_rows(&[i]), false);
            assert_eq!(
                single.data(),
                &batch_logits.data()[i * 4..(i + 1) * 4],
                "row {i}: batched forward drifted from the per-sample loop"
            );
        }
        // The chunked predict path agrees bitwise at every chunk size,
        // including ones that do not divide the row count.
        let reference = net.predict(&x);
        for max_batch in [1usize, 2, 5, 16, 17, 64] {
            assert_eq!(
                net.predict_batched(&x, max_batch),
                reference,
                "chunk size {max_batch} changed predictions"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut r = rng(3);
        let mut net = Network::mlp(&[2, 16, 2], &mut r);
        let mut opt = Optimizer::adam(0.01);
        // class 0 around (-1,-1), class 1 around (1,1)
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let c = i % 2;
            let center = if c == 0 { -1.0 } else { 1.0 };
            let jitter = init::uniform([2], -0.2, 0.2, &mut r);
            xs.push(center + jitter.data()[0]);
            xs.push(center + jitter.data()[1]);
            labels.push(c);
        }
        let x = Tensor::from_vec(xs, [40, 2]).unwrap();
        let y = one_hot(&labels, 2);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let logits = net.forward(&x, true);
            let (loss, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &y);
            net.backward(&grad);
            let mut pg = net.params_and_grads();
            opt.step(&mut pg, 1.0);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.2, "loss {last_loss}");
        let preds = net.predict(&x);
        let correct = preds.iter().zip(&labels).filter(|(a, b)| a == b).count();
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let mut r = rng(4);
        let net = Network::mlp(&[3, 4, 3], &mut r);
        let x = init::uniform([2, 3], -1.0, 1.0, &mut r);
        let p = net.predict_proba(&x);
        for row in 0..2 {
            let s: f32 = (0..3).map(|c| p.get(&[row, c])).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut r = rng(5);
        let net = Network::mlp(&[3, 5, 2], &mut r);
        let flat = net.flat_params();
        assert_eq!(flat.len(), net.param_count());
        let mut other = Network::mlp(&[3, 5, 2], &mut rng(99));
        other.set_flat_params(&flat);
        assert_eq!(other.flat_params(), flat);
    }

    #[test]
    #[should_panic(expected = "flat parameter")]
    fn set_flat_params_rejects_wrong_length() {
        let mut r = rng(6);
        let mut net = Network::mlp(&[3, 5, 2], &mut r);
        net.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn flat_grads_roundtrip() {
        let mut r = rng(7);
        let mut net = Network::mlp(&[2, 4, 2], &mut r);
        let x = init::uniform([3, 2], -1.0, 1.0, &mut r);
        let y = net.forward(&x, true);
        net.backward(&y);
        let g = net.flat_grads();
        assert_eq!(g.len(), net.param_count());
        let zeros = vec![0.0; g.len()];
        net.set_flat_grads(&zeros);
        assert!(net.flat_grads().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn regularized_mlp_trains_through_bn_and_dropout() {
        let mut r = rng(30);
        // dense -> batchnorm -> relu -> dropout per hidden layer, then the
        // output dense.
        let mut net = Network::new(4);
        for (i, (fan_in, fan_out)) in [(4, 16), (16, 16)].into_iter().enumerate() {
            net = net
                .push(Layer::Dense(Dense::new(fan_in, fan_out, &mut r)))
                .push(Layer::BatchNorm1d(crate::layers::BatchNorm1d::new(fan_out)))
                .push(Layer::ReLU(ReLU::new()))
                .push(Layer::Dropout(crate::layers::Dropout::new(
                    0.2,
                    7 + i as u64,
                )));
        }
        let mut net = net.push(Layer::Dense(Dense::new(16, 2, &mut r)));
        let data_x = init::uniform([60, 4], -1.0, 1.0, &mut r);
        let labels: Vec<usize> = (0..60)
            .map(|i| usize::from(data_x.get(&[i, 0]) + data_x.get(&[i, 1]) > 0.0))
            .collect();
        let data = crate::train::Dataset::new(data_x, labels, 2);
        let mut trainer = crate::train::Trainer::new(
            crate::train::TrainConfig {
                epochs: 40,
                ..crate::train::TrainConfig::default()
            },
            crate::optim::Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        let acc = crate::train::Trainer::evaluate(&net, &data);
        assert!(acc > 0.85, "regularized mlp accuracy {acc}");
        // eval mode is deterministic despite dropout
        let a = net.forward(&data.x, false);
        let b = net.forward(&data.x, false);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn simple_cnn_learns_digits_shape() {
        let mut r = rng(20);
        let mut net = Network::simple_cnn(1, 12, 12, 4, 16, 10, &mut r);
        assert_eq!(net.input_dim, 144);
        let x = init::uniform([3, 144], 0.0, 1.0, &mut r);
        let y = net.forward(&x, false);
        assert_eq!(y.dims(), &[3, 10]);
        // backward runs end to end through conv/pool/dense
        let logits = net.forward(&x, true);
        net.backward(&logits);
        assert!(net.flat_grads().iter().any(|&g| g != 0.0));
        // the conv carries most structure: profile sees all layers
        let p = net.cost_profile(3);
        assert!(p.forward_flops > 0);
        assert_eq!(p.params as usize, net.param_count());
    }

    #[test]
    #[should_panic(expected = "even spatial dims")]
    fn simple_cnn_rejects_odd_dims() {
        Network::simple_cnn(1, 11, 12, 4, 16, 10, &mut rng(21));
    }

    #[test]
    fn cost_profile_counts_all_layers() {
        let mut r = rng(9);
        let net = Network::mlp(&[4, 8, 2], &mut r);
        let p = net.cost_profile(10);
        assert_eq!(p.params as usize, net.param_count());
        assert!(p.forward_flops > 0);
        assert_eq!(p.param_bytes(), p.params * 4);
        let per_layer = net.layer_costs(10);
        assert_eq!(per_layer.len(), 3);
        let merged: u64 = per_layer.iter().map(|c| c.forward_flops).sum();
        assert_eq!(merged, p.forward_flops);
    }
}
