//! Native int8 inference: serve quantized MLPs on their packed codes.
//!
//! [`crate::quantize_network_tensors`] produces per-tensor affine codes,
//! but until this module the only way to *run* the quantized model was
//! to dequantize back to f32 and pay full-precision compute and memory
//! traffic. [`QuantizedMlp`] closes that gap: weights stay as packed
//! [`QuantizedTensor`] codes, each forward dynamically quantizes the
//! activation batch to 8 bits, and the layer product runs on
//! [`dl_tensor::par::matmul_q8`] — integer accumulation over the codes
//! with one affine rescale per output. The compute-on-compressed idea
//! from SystemML's compressed linear algebra, applied to the serving
//! path.
//!
//! A layer holds its bias as packed codes too, so a model is exactly
//! what an artifact stores. The `f32` bias the epilogue adds is derived
//! from those codes once, in [`QuantizedDense::new`]: a `[fan_out]`
//! vector, negligible next to the `[fan_in, fan_out]` weight matrix that
//! stays packed through the hot path.
//!
//! Inference is deterministic: the int8 GEMM is exact integer
//! arithmetic (bitwise identical at every `DL_THREADS` count) and the
//! surrounding elementwise ops are order-free, so predictions are
//! independent of both the thread knob and the `DL_KERNEL` knob.

use crate::quant::QuantizedTensor;
use dl_nn::layers::{Dense, Layer, ReLU};
use dl_nn::Network;
use dl_tensor::{acct, par, Tensor};

/// One dense layer held in packed int8 form.
#[derive(Debug, Clone)]
pub struct QuantizedDense {
    weight: QuantizedTensor,
    bias: QuantizedTensor,
    /// `bias` dequantized: the vector the epilogue adds.
    bias_f32: Tensor,
    /// Whether a ReLU follows this layer in the source network.
    pub relu: bool,
}

impl QuantizedDense {
    /// A layer of packed `[in, out]` weight codes and `[out]` bias codes;
    /// the bias is dequantized here, once.
    #[must_use]
    pub fn new(weight: QuantizedTensor, bias: QuantizedTensor, relu: bool) -> Self {
        let bias_f32 = bias.dequantize();
        QuantizedDense {
            weight,
            bias,
            bias_f32,
            relu,
        }
    }

    /// Packed affine codes of the `[in, out]` weight matrix.
    #[must_use]
    pub fn weight(&self) -> &QuantizedTensor {
        &self.weight
    }

    /// Packed affine codes of the `[out]` bias vector.
    #[must_use]
    pub fn bias(&self) -> &QuantizedTensor {
        &self.bias
    }

    /// Applies the layer to a `[batch, in]` activation matrix: dynamic
    /// 8-bit activation quantization, native int8 GEMM on the packed
    /// weight codes, then one in-place pass adding the bias and applying
    /// ReLU when the source network had one (`max(0, x)`, the exact
    /// [`dl_nn::layers::ReLU`] formula). The pass charges a broadcast add
    /// and one elementwise map, as the separate ops it replaces did.
    ///
    /// # Panics
    /// Panics when `x` is not `[batch, in]` for this layer's `in`.
    #[must_use]
    pub fn apply(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "quantized dense input must be a matrix");
        let (m, k) = (x.dims()[0], x.dims()[1]);
        let wd = self.weight.dims();
        assert_eq!(
            k, wd[0],
            "quantized dense input width {k} does not match weight {wd:?}"
        );
        let n = wd[1];
        let xq = quantize_activations(x);
        let data = par::matmul_q8(
            xq.codes(),
            xq.scale(),
            xq.zero_point(),
            self.weight.codes(),
            self.weight.scale(),
            self.weight.zero_point(),
            m,
            k,
            n,
        );
        let mut y = Tensor::from_vec(data, [m, n]).expect("q8 gemm output length matches");
        y.add_bias_inplace(&self.bias_f32, self.relu);
        y
    }
}

/// Dynamically quantizes one activation batch to 8-bit affine codes,
/// charging the rule documented in [`dl_tensor::acct`]: `3·n` flops,
/// `8·n` bytes read (range scan + encode pass), `n` bytes written.
fn quantize_activations(x: &Tensor) -> QuantizedTensor {
    let q = QuantizedTensor::quantize(x, 8);
    let n = x.len() as u64;
    acct::charge(3 * n, 8 * n, n);
    q
}

/// A feed-forward Dense/ReLU network executing natively on packed int8
/// weight codes.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedDense>,
    input_dim: usize,
}

impl QuantizedMlp {
    /// Builds a native int8 model from a Dense/ReLU network and the
    /// quantized tensors [`crate::quantize_network_tensors`] produced
    /// for it (in `params_and_grads` order: weight, bias per Dense).
    /// The network supplies only the architecture; all weight math runs
    /// on the packed codes.
    ///
    /// # Panics
    /// Panics when the network contains layers other than Dense/ReLU,
    /// when a ReLU precedes the first Dense, when the tensor list does
    /// not match the network's parameter list one to one, or where
    /// [`QuantizedMlp::try_from_layers`] fails.
    #[must_use]
    pub fn from_network_tensors(net: &Network, quantized: &[QuantizedTensor]) -> Self {
        let mut layers: Vec<QuantizedDense> = Vec::new();
        let mut params = quantized.iter();
        for layer in net.layers() {
            match layer {
                Layer::Dense(d) => {
                    let (Some(weight), Some(bias_q)) = (params.next(), params.next()) else {
                        panic!("quantized tensor list is shorter than the network's parameters");
                    };
                    assert_eq!(
                        weight.dims(),
                        d.weight.dims(),
                        "quantized weight dims do not match the network"
                    );
                    layers.push(QuantizedDense::new(weight.clone(), bias_q.clone(), false));
                }
                Layer::ReLU(_) => {
                    let last = layers.last_mut();
                    last.expect("ReLU must follow a Dense layer in a quantized MLP")
                        .relu = true;
                }
                other => panic!(
                    "native int8 serving supports Dense/ReLU MLPs; got a {} layer",
                    other.name()
                ),
            }
        }
        assert!(
            params.next().is_none(),
            "quantized tensor list is longer than the network's parameters"
        );
        Self::try_from_layers(net.input_dim, layers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A native int8 model taking `input_dim`-wide rows through `layers`
    /// in order, such as the layers an artifact decoder read.
    ///
    /// # Errors
    /// A message when a layer's weight is not a `[in, out]` matrix
    /// taking the previous layer's width (`input_dim` for the first) with
    /// an `out`-long bias.
    pub fn try_from_layers(input_dim: usize, layers: Vec<QuantizedDense>) -> Result<Self, String> {
        let mut width = input_dim;
        for l in &layers {
            let &[fan_in, fan_out] = l.weight.dims() else {
                return Err(format!(
                    "quantized weight dims {:?} are not a matrix",
                    l.weight.dims()
                ));
            };
            if fan_in != width || l.bias.dims() != [fan_out] {
                return Err(format!(
                    "quantized layer [{fan_in}, {fan_out}] with a {:?} bias does not take width {width}",
                    l.bias.dims()
                ));
            }
            width = fan_out;
        }
        Ok(QuantizedMlp { layers, input_dim })
    }

    /// Logits for a `[batch, input_dim]` matrix, computed natively on
    /// the packed codes layer by layer.
    ///
    /// # Panics
    /// Panics when `x` is not `[batch, input_dim]`.
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "quantized forward input must be a matrix");
        assert_eq!(
            x.dims()[1],
            self.input_dim,
            "quantized forward input width does not match the model"
        );
        let mut cur: Option<Tensor> = None;
        for layer in &self.layers {
            cur = Some(layer.apply(cur.as_ref().unwrap_or(x)));
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Class predictions (row-wise argmax of the native int8 logits).
    #[must_use]
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Total stored parameter count (packed weight and bias codes).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weight.codes().len() + l.bias.codes().len())
            .sum()
    }

    /// Input width the model expects.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The dense layers in order.
    #[must_use]
    pub fn layers(&self) -> &[QuantizedDense] {
        &self.layers
    }

    /// Reconstructs the dequantized f32 shadow network — the exact
    /// Dense/ReLU network [`crate::quantize_network_tensors`] returns as
    /// its reconstruction. Used for structural profiling; never on the
    /// serving hot path.
    #[must_use]
    pub fn to_network(&self) -> Network {
        let mut net = Network::new(self.input_dim);
        for l in &self.layers {
            net = net.push(Layer::Dense(Dense::from_parts(
                l.weight.dequantize(),
                l.bias_f32.clone(),
            )));
            if l.relu {
                net = net.push(Layer::ReLU(ReLU::new()));
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_network_tensors;
    use dl_tensor::init;
    use rand::Rng;

    fn mlp(seed: u64) -> Network {
        let mut r = init::rng(seed);
        Network::new(6)
            .push(Layer::Dense(Dense::new(6, 10, &mut r)))
            .push(Layer::ReLU(ReLU::new()))
            .push(Layer::Dense(Dense::new(10, 4, &mut r)))
    }

    #[test]
    fn native_predictions_match_shadow_network_closely() {
        let net = mlp(3);
        let (shadow, _, qts) = quantize_network_tensors(&net, 8);
        let q = QuantizedMlp::from_network_tensors(&net, &qts);
        let mut r = init::rng(9);
        let x = init::uniform([32, 6], -1.5, 1.5, &mut r);
        let native = q.forward(&x);
        let mut shadow = shadow;
        let reference = shadow.forward(&x, false);
        assert_eq!(native.dims(), reference.dims());
        // The weights are the *same* quantized values; only the
        // activation re-quantization (8-bit, step/2 rounding) and the
        // kernel arithmetic differ.
        let mut agree = 0usize;
        let preds = q.predict(&x);
        let want = shadow.predict(&x);
        for (p, w) in preds.iter().zip(&want) {
            if p == w {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= preds.len() * 9,
            "native int8 predictions diverged from the shadow: {agree}/{}",
            preds.len()
        );
    }

    #[test]
    fn forward_is_deterministic_across_thread_and_kernel_knobs() {
        let net = mlp(5);
        let (_, _, qts) = quantize_network_tensors(&net, 8);
        let q = QuantizedMlp::from_network_tensors(&net, &qts);
        let mut r = init::rng(11);
        let x = init::uniform([17, 6], -2.0, 2.0, &mut r);
        let want = par::with_threads(1, || q.forward(&x));
        for t in [2usize, 4, 7] {
            let got = par::with_threads(t, || q.forward(&x));
            assert_eq!(got.data(), want.data(), "threads {t} changed int8 bits");
        }
        let got = par::with_kernel(par::Kernel::Unrolled, || q.forward(&x));
        assert_eq!(got.data(), want.data(), "DL_KERNEL changed int8 bits");
    }

    #[test]
    fn to_network_reconstructs_the_dequantized_shadow_bitwise() {
        let net = mlp(7);
        let (shadow, _, qts) = quantize_network_tensors(&net, 8);
        let q = QuantizedMlp::from_network_tensors(&net, &qts);
        let rebuilt = q.to_network();
        assert_eq!(rebuilt.input_dim, shadow.input_dim);
        assert_eq!(rebuilt.layers().len(), shadow.layers().len());
        let a: Vec<u32> = rebuilt.flat_params().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = shadow.flat_params().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "shadow reconstruction must be bitwise");
    }

    #[test]
    fn int8_forward_reads_fewer_bytes_than_the_shadow() {
        // Wide enough that weight traffic dominates activation traffic —
        // the regime the serve variants live in.
        let mut rr = init::rng(13);
        let net = Network::mlp(&[32, 64, 8], &mut rr);
        let (mut shadow, _, qts) = quantize_network_tensors(&net, 8);
        let q = QuantizedMlp::from_network_tensors(&net, &qts);
        let mut r = init::rng(15);
        let x = init::uniform([8, 32], -1.0, 1.0, &mut r);
        let (_, native) = acct::measure(|| q.forward(&x));
        let (_, f32_cost) = acct::measure(|| shadow.forward(&x, false));
        assert!(
            native.bytes_read < f32_cost.bytes_read,
            "packed codes must stream fewer bytes: {} vs {}",
            native.bytes_read,
            f32_cost.bytes_read
        );
    }

    /// `apply` as it was before the in-place epilogue: a broadcast bias
    /// add, then a separate ReLU map.
    fn unfused_apply(layer: &QuantizedDense, x: &Tensor) -> Tensor {
        let (m, k, n) = (x.dims()[0], x.dims()[1], layer.bias_f32.len());
        let xq = quantize_activations(x);
        let w = &layer.weight;
        let (xs, xz, ws, wz) = (xq.scale(), xq.zero_point(), w.scale(), w.zero_point());
        let data = par::matmul_q8(xq.codes(), xs, xz, w.codes(), ws, wz, m, k, n);
        let y = &Tensor::from_vec(data, [m, n]).unwrap() + &layer.bias_f32;
        if layer.relu {
            y.map(|v| v.max(0.0))
        } else {
            y
        }
    }

    #[test]
    fn apply_matches_the_unfused_bias_add_and_relu() {
        let specials = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
        for case in 0..64 {
            let mut r = init::rng(100 + case);
            let (m, k, n) = (r.gen_range(0..6), r.gen_range(0..7), r.gen_range(0..6));
            let mut x = init::uniform([m, k], -3.0, 3.0, &mut r);
            for v in x.data_mut() {
                if r.gen::<f32>() < 0.2 {
                    *v = specials[r.gen_range(0..specials.len())];
                }
            }
            let w = init::uniform([k, n], -1.0, 1.0, &mut r);
            let bias = init::uniform([n], -1.0, 1.0, &mut r);
            let layer = QuantizedDense::new(
                QuantizedTensor::quantize(&w, 8),
                QuantizedTensor::quantize(&bias, 8),
                case % 2 == 0,
            );
            for kernel in [par::Kernel::Scalar, par::Kernel::Unrolled] {
                for threads in [1, 4] {
                    let run = |f: &dyn Fn() -> Tensor| {
                        par::with_kernel(kernel, || par::with_threads(threads, || acct::measure(f)))
                    };
                    let (got, got_cost) = run(&|| layer.apply(&x));
                    let (want, want_cost) = run(&|| unfused_apply(&layer, &x));
                    let bits =
                        |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let what = format!("case {case} ({m}x{k}x{n}), {kernel:?}/{threads}t");
                    assert_eq!(got.dims(), want.dims(), "{what}");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    assert_eq!(got_cost, want_cost, "{what}");
                }
            }
        }
    }

    /// One infinite feature in row 0 must not change any other row's
    /// answer: the batch quantizes as if the infinity were the batch's
    /// finite max (or min).
    #[test]
    fn an_infinite_feature_leaves_the_other_rows_alone() {
        let net = Network::mlp(&[6, 16, 4], &mut init::rng(21));
        let (_, _, qts) = quantize_network_tensors(&net, 8);
        let q = QuantizedMlp::from_network_tensors(&net, &qts);
        let x = init::uniform([32, 6], -2.0, 2.0, &mut init::rng(22));
        for inf in [f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = x.clone();
            poisoned.data_mut()[3] = inf;
            let mut clamped = x.clone();
            clamped.data_mut()[3] = if inf > 0.0 { x.max() } else { x.min() };
            let want = q.predict(&clamped);
            assert!(
                want[1..].iter().any(|&p| p != want[1]),
                "predictions must vary"
            );
            assert_eq!(q.predict(&poisoned)[1..], want[1..], "inf = {inf}");
        }
    }

    #[test]
    #[should_panic(expected = "Dense/ReLU")]
    fn non_mlp_layers_are_rejected() {
        let mut r = init::rng(1);
        let net = Network::new(4)
            .push(Layer::Dense(Dense::new(4, 4, &mut r)))
            .push(Layer::Tanh(dl_nn::layers::Tanh::new()));
        let (_, _, qts) = quantize_network_tensors(&net, 8);
        let _ = QuantizedMlp::from_network_tensors(&net, &qts);
    }

    /// Satellite (b): the native int8 GEMM (with dynamic activation
    /// quantization) stays within the step/2-derived affine bound of
    /// the dequantize-then-f32 reference, over arbitrary scales,
    /// zero points and shapes including empty dims.
    #[test]
    fn native_qlinear_within_affine_bound_of_f32_reference() {
        for case in 0..256 {
            let mut r = init::rng(case);
            let m = r.gen_range(0usize..6);
            let k = r.gen_range(0usize..7);
            let n = r.gen_range(0usize..6);
            let w_scale = r.gen_range(1e-4f32..2.0);
            let w_zero = r.gen_range(-8.0f32..8.0);
            let x = init::uniform([m, k], -3.0, 3.0, &mut r);
            let w_codes: Vec<u8> = (0..k * n)
                .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(case) % 256) as u8)
                .collect();
            let wq = QuantizedTensor::from_parts(w_codes, w_scale, w_zero, 8, vec![k, n]);
            let zero_bias = QuantizedTensor::from_parts(vec![0; n], 1.0, 0.0, 8, vec![n]);
            let layer = QuantizedDense::new(wq.clone(), zero_bias, false);
            let native = layer.apply(&x);
            let reference = x.matmul(&wq.dequantize());
            // Activation quantization step for this batch: the only
            // lossy stage (weight codes are shared by both sides).
            let sx = QuantizedTensor::quantize(&x, 8).scale();
            let w_hat = wq.dequantize();
            for i in 0..m {
                for j in 0..n {
                    let got = native.data()[i * n + j];
                    let want = reference.data()[i * n + j];
                    // step/2 per activation element, propagated through
                    // the |w| column, plus float rounding slack.
                    let mut bound = 1e-4f64;
                    for kk in 0..k {
                        let wv = f64::from(w_hat.data()[kk * n + j].abs());
                        let xv = f64::from(x.data()[i * k + kk].abs());
                        bound += 0.5 * f64::from(sx) * 1.01 * wv + 1e-5 * xv * wv;
                    }
                    assert!(
                        f64::from((got - want).abs()) <= bound,
                        "case {case} ({i},{j}): native {got} vs reference {want}, bound {bound}"
                    );
                }
            }
        }
    }
}
