//! Encoding and decoding models through the artifact format: f32
//! `dl_nn::Network`s, and native int8 `dl_compress::QuantizedMlp`s
//! through their own codec.
//!
//! Every network layer kind round-trips: parameters land in the tensor
//! directory as f32, structure and scalar knobs land in the hparams
//! section under a caller-chosen key prefix so several models can share
//! one artifact (how dl-serve persists whole variant families). `f32`
//! knobs are stored as bit patterns, never re-parsed from text, so
//! reconstruction is exact. An int8 MLP uses the same key layout for
//! its Dense/ReLU layers, but stores each weight and bias as the packed
//! codes and quant params the model holds; [`decode_quantized_mlp`]
//! reads them back into those codes, and [`decode_network`] rejects
//! them, since no f32 network holds codes.
//!
//! Gradients are training scratch and are not persisted; a loaded network
//! carries no gradient buffers until a backward sizes them, like a
//! freshly constructed one. Parameters, structure, dropout mask streams and batch-norm
//! running statistics round-trip bit-for-bit.

use crate::format::{Artifact, ArtifactBuilder, HParam};
use crate::StoreError;
use dl_compress::{QuantizedDense, QuantizedMlp, QuantizedTensor};
use dl_nn::layers::{BatchNorm1d, Conv2d, Dense, Dropout, Layer, MaxPool2d, ReLU, Sigmoid, Tanh};
use dl_nn::Network;
use dl_tensor::Tensor;

/// Value of the `artifact.kind` hparam written by [`save_network`].
const NETWORK_KIND: &str = "network";

fn key(prefix: &str, i: usize, field: &str) -> String {
    format!("{prefix}.layer{i}.{field}")
}

fn put_f32_bits(b: &mut ArtifactBuilder<'_>, name: String, v: f32) {
    b.hparam(name, HParam::U64(u64::from(v.to_bits())));
}

fn put_q8<'a>(b: &mut ArtifactBuilder<'a>, name: String, q: &'a QuantizedTensor) {
    b.tensor_q8(
        name,
        q.dims(),
        q.codes(),
        q.scale(),
        q.zero_point(),
        q.bits(),
    );
}

fn put_f32<'a>(b: &mut ArtifactBuilder<'a>, name: String, t: &'a Tensor) {
    b.tensor_f32(name, t.dims(), t.data());
}

/// Writes `net` into `b` under `prefix`, every tensor as f32.
pub fn encode_network<'a>(b: &mut ArtifactBuilder<'a>, prefix: &str, net: &'a Network) {
    b.hparam(
        format!("{prefix}.input_dim"),
        HParam::U64(net.input_dim as u64),
    );
    b.hparam(
        format!("{prefix}.layer_count"),
        HParam::U64(net.layers().len() as u64),
    );
    for (i, layer) in net.layers().iter().enumerate() {
        b.hparam(key(prefix, i, "kind"), HParam::Str(layer.name().into()));
        match layer {
            Layer::Dense(d) => {
                put_f32(b, key(prefix, i, "weight"), &d.weight);
                put_f32(b, key(prefix, i, "bias"), &d.bias);
            }
            Layer::ReLU(_) | Layer::Sigmoid(_) | Layer::Tanh(_) => {}
            Layer::Dropout(d) => {
                put_f32_bits(b, key(prefix, i, "p_bits"), d.p);
                b.hparam(key(prefix, i, "seed"), HParam::U64(d.seed()));
                b.hparam(key(prefix, i, "step"), HParam::U64(d.step()));
            }
            Layer::Conv2d(c) => {
                for (field, v) in [
                    ("in_channels", c.in_channels),
                    ("out_channels", c.out_channels),
                    ("height", c.height),
                    ("width", c.width),
                    ("kh", c.kh),
                    ("kw", c.kw),
                    ("stride", c.stride),
                    ("pad", c.pad),
                ] {
                    b.hparam(key(prefix, i, field), HParam::U64(v as u64));
                }
                put_f32(b, key(prefix, i, "weight"), &c.weight);
                put_f32(b, key(prefix, i, "bias"), &c.bias);
            }
            Layer::MaxPool2d(m) => {
                for (field, v) in [
                    ("channels", m.channels),
                    ("height", m.height),
                    ("width", m.width),
                    ("k", m.k),
                    ("stride", m.stride),
                ] {
                    b.hparam(key(prefix, i, field), HParam::U64(v as u64));
                }
            }
            Layer::BatchNorm1d(bn) => {
                put_f32_bits(b, key(prefix, i, "momentum_bits"), bn.momentum);
                put_f32_bits(b, key(prefix, i, "eps_bits"), bn.eps());
                put_f32(b, key(prefix, i, "gamma"), &bn.gamma);
                put_f32(b, key(prefix, i, "beta"), &bn.beta);
                put_f32(b, key(prefix, i, "running_mean"), &bn.running_mean);
                put_f32(b, key(prefix, i, "running_var"), &bn.running_var);
            }
        }
    }
}

/// Writes a native int8 MLP into `b` under `prefix`: the key layout of
/// a Dense/ReLU network, with each dense layer's weight and bias stored
/// as the packed codes `mlp` holds.
pub fn encode_quantized_mlp<'a>(b: &mut ArtifactBuilder<'a>, prefix: &str, mlp: &'a QuantizedMlp) {
    let layers = mlp.layers();
    let layer_count: usize = layers.iter().map(|l| 1 + usize::from(l.relu)).sum();
    b.hparam(
        format!("{prefix}.input_dim"),
        HParam::U64(mlp.input_dim() as u64),
    );
    b.hparam(
        format!("{prefix}.layer_count"),
        HParam::U64(layer_count as u64),
    );
    let mut i = 0;
    for l in layers {
        b.hparam(key(prefix, i, "kind"), HParam::Str("dense".into()));
        put_q8(b, key(prefix, i, "weight"), l.weight());
        put_q8(b, key(prefix, i, "bias"), l.bias());
        i += 1;
        if l.relu {
            b.hparam(key(prefix, i, "kind"), HParam::Str("relu".into()));
            i += 1;
        }
    }
}

/// Windows a `k`-wide kernel with stride `stride` fits across `size`
/// cells padded by `pad` on each side; `None` when no window fits, the
/// kernel or stride is zero, or the padded size overflows.
fn window_count(size: usize, pad: usize, k: usize, stride: usize) -> Option<usize> {
    let padded = pad.checked_mul(2)?.checked_add(size)?;
    (k > 0 && stride > 0 && k <= padded).then(|| (padded - k) / stride + 1)
}

/// Width of a flattened `channels x height x width` image row, `None`
/// on overflow.
fn image_width(channels: usize, height: usize, width: usize) -> Option<usize> {
    channels.checked_mul(height)?.checked_mul(width)
}

/// Reconstructs an f32 network stored under `prefix`.
///
/// Every layer is checked to take the rows the one before it produces,
/// starting from `input_dim`, and to produce rows of at least one value,
/// so a decoded network's forward on `input_dim`-wide rows cannot fail
/// on shapes or divide by zero.
///
/// # Errors
/// [`StoreError::Corrupt`] for missing or inconsistent sections, a
/// tensor not stored as f32 (int8 MLPs have their own codec,
/// [`decode_quantized_mlp`]), layers whose widths do not chain, and a
/// zero or over-large kernel or stride.
pub fn decode_network(a: &Artifact<'_>, prefix: &str) -> Result<Network, StoreError> {
    let mut s = a.scope(format_args!("{prefix}."));
    let input_dim = s.u64("input_dim")? as usize;
    let layer_count = s.u64("layer_count")? as usize;
    if input_dim == 0 {
        return Err(StoreError::Corrupt(format!("{prefix}: zero input width")));
    }
    let mut net = Network::new(input_dim);
    // Width of the rows reaching layer `i`.
    let mut width = input_dim;
    for i in 0..layer_count {
        s.enter(format_args!("{prefix}.layer{i}."));
        let corrupt = |what: String| StoreError::Corrupt(format!("{prefix}.layer{i}: {what}"));
        let layer = match s.str("kind")? {
            "dense" => {
                let w = a.f32_of(s.tensor("weight")?)?;
                let bias = a.f32_of(s.tensor("bias")?)?;
                match *w.dims() {
                    [fan_in, fan_out] if fan_in == width && bias.dims() == [fan_out] => {
                        width = fan_out;
                    }
                    _ => {
                        let (wd, bd) = (w.dims(), bias.dims());
                        return Err(corrupt(format!(
                            "dense weight {wd:?} and bias {bd:?} do not take {width}-wide rows"
                        )));
                    }
                }
                Layer::Dense(Dense::from_parts(w, bias))
            }
            "relu" => Layer::ReLU(ReLU::new()),
            "sigmoid" => Layer::Sigmoid(Sigmoid::new()),
            "tanh" => Layer::Tanh(Tanh::new()),
            "dropout" => {
                let p = s.f32_bits("p_bits")?;
                if !(0.0..1.0).contains(&p) {
                    return Err(corrupt(format!("dropout probability {p}")));
                }
                let seed = s.u64("seed")?;
                let step = s.u64("step")?;
                Layer::Dropout(Dropout::from_state(p, seed, step))
            }
            "conv2d" => {
                // The stored tensors are read and their shapes checked
                // against the claimed geometry before the layer is built
                // from them.
                let w = a.f32_of(s.tensor("weight")?)?;
                let bias = a.f32_of(s.tensor("bias")?)?;
                let mut u = |field: &str| s.u64(field).map(|v| v as usize);
                let (cin, cout, kh, kw) =
                    (u("in_channels")?, u("out_channels")?, u("kh")?, u("kw")?);
                let (height, wide, stride, pad) =
                    (u("height")?, u("width")?, u("stride")?, u("pad")?);
                let fan_in = [kh, kw].into_iter().try_fold(cin, usize::checked_mul);
                if fan_in.is_none_or(|f| w.dims() != [cout, f]) || bias.dims() != [cout] {
                    let (wd, bd) = (w.dims(), bias.dims());
                    return Err(corrupt(format!(
                        "conv weight {wd:?} and bias {bd:?} do not fit {cin} -> {cout} channels"
                    )));
                }
                let windows =
                    window_count(height, pad, kh, stride).zip(window_count(wide, pad, kw, stride));
                width = match windows {
                    Some((oh, ow)) if image_width(cin, height, wide) == Some(width) => {
                        [oh, ow].into_iter().try_fold(cout, usize::checked_mul)
                    }
                    _ => None,
                }
                .ok_or_else(|| {
                    corrupt(format!(
                        "conv {kh}x{kw}, stride {stride}, pad {pad} over {cin}x{height}x{wide} \
                         does not take {width}-wide rows"
                    ))
                })?;
                Layer::Conv2d(Conv2d::from_parts(
                    w, bias, cin, height, wide, kh, kw, stride, pad,
                ))
            }
            "maxpool2d" => {
                let mut u = |field: &str| s.u64(field).map(|v| v as usize);
                let (channels, height, wide) = (u("channels")?, u("height")?, u("width")?);
                let (k, stride) = (u("k")?, u("stride")?);
                let windows =
                    window_count(height, 0, k, stride).zip(window_count(wide, 0, k, stride));
                width = match windows {
                    Some((oh, ow)) if image_width(channels, height, wide) == Some(width) => {
                        Some(channels * oh * ow)
                    }
                    _ => None,
                }
                .ok_or_else(|| {
                    corrupt(format!(
                        "pool {k}x{k}, stride {stride} over {channels}x{height}x{wide} \
                         does not take {width}-wide rows"
                    ))
                })?;
                Layer::MaxPool2d(MaxPool2d::new(channels, height, wide, k, stride))
            }
            "batchnorm1d" => {
                let momentum = s.f32_bits("momentum_bits")?;
                let eps = s.f32_bits("eps_bits")?;
                let gamma = a.f32_of(s.tensor("gamma")?)?;
                let beta = a.f32_of(s.tensor("beta")?)?;
                let running_mean = a.f32_of(s.tensor("running_mean")?)?;
                let running_var = a.f32_of(s.tensor("running_var")?)?;
                if gamma.dims() != [width] {
                    let gd = gamma.dims();
                    return Err(corrupt(format!(
                        "batch-norm gamma {gd:?} for {width}-wide rows"
                    )));
                }
                let features = width;
                let stats = [&beta, &running_mean, &running_var];
                if stats.iter().any(|t| t.dims() != [features]) {
                    return Err(corrupt("batch-norm tensors differ in shape".into()));
                }
                let mut bn = BatchNorm1d::with_eps(features, eps);
                bn.momentum = momentum;
                bn.gamma = gamma;
                bn.beta = beta;
                bn.running_mean = running_mean;
                bn.running_var = running_var;
                Layer::BatchNorm1d(bn)
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown layer kind {other:?} at {prefix}.layer{i}"
                )))
            }
        };
        if width == 0 {
            return Err(corrupt("zero-wide output".into()));
        }
        net = net.push(layer);
    }
    Ok(net)
}

/// Reads a Dense/ReLU MLP stored under `prefix` with packed int8
/// parameters (as [`encode_quantized_mlp`] writes one) straight into a
/// native [`QuantizedMlp`]: each payload is read once into the codes the
/// model keeps, which re-encode it byte for byte, and no dequantized
/// shadow network is built.
///
/// # Errors
/// [`StoreError::Corrupt`] for missing sections, a layer other than
/// dense or relu, a relu before the first dense layer, a parameter not
/// stored q8 or with codes wider than its bit width, and layers whose
/// widths do not chain from a non-zero `input_dim` or are zero.
pub fn decode_quantized_mlp(a: &Artifact<'_>, prefix: &str) -> Result<QuantizedMlp, StoreError> {
    let mut s = a.scope(format_args!("{prefix}."));
    let input_dim = s.u64("input_dim")? as usize;
    let layer_count = s.u64("layer_count")? as usize;
    if input_dim == 0 {
        return Err(StoreError::Corrupt(format!("{prefix}: zero input width")));
    }
    let mut layers: Vec<QuantizedDense> = Vec::new();
    for i in 0..layer_count {
        s.enter(format_args!("{prefix}.layer{i}."));
        let corrupt = |what: String| StoreError::Corrupt(format!("{prefix}.layer{i}: {what}"));
        match s.str("kind")? {
            "dense" => {
                let weight = a.q8_of(s.tensor("weight")?)?;
                let bias = a.q8_of(s.tensor("bias")?)?;
                if weight.dims().get(1) == Some(&0) {
                    return Err(corrupt("zero-wide output".into()));
                }
                layers.push(QuantizedDense::new(weight, bias, false));
            }
            "relu" => match layers.last_mut() {
                Some(last) => last.relu = true,
                None => return Err(corrupt("a relu before the first dense layer".into())),
            },
            other => {
                return Err(corrupt(format!(
                    "a {other:?} layer in an int8 MLP, which holds dense and relu layers only"
                )))
            }
        }
    }
    QuantizedMlp::try_from_layers(input_dim, layers)
        .map_err(|e| StoreError::Corrupt(format!("{prefix}: {e}")))
}

/// Serializes one network as a standalone artifact.
#[must_use]
pub fn save_network(net: &Network) -> Vec<u8> {
    let mut b = ArtifactBuilder::new();
    b.hparam("artifact.kind", HParam::Str(NETWORK_KIND.into()));
    encode_network(&mut b, "net", net);
    b.finish()
}

/// Loads a network saved by [`save_network`].
///
/// # Errors
/// Format errors from [`Artifact::parse`]; [`StoreError::Corrupt`] when
/// the artifact is not a network artifact.
pub fn load_network(bytes: &[u8]) -> Result<Network, StoreError> {
    let a = Artifact::parse(bytes)?;
    let kind = a.hparam_str("artifact.kind")?;
    if kind != NETWORK_KIND {
        return Err(StoreError::Corrupt(format!(
            "artifact kind {kind:?} is not a network"
        )));
    }
    decode_network(&a, "net")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init;
    use rand::Rng;

    fn all_kinds_network() -> Network {
        let mut rng = init::rng(11);
        // 1x6x6 image input -> conv -> pool -> dense stack exercising
        // every persistable layer kind.
        let conv = Conv2d::new(1, 2, 6, 6, 3, 3, 1, 1, &mut rng);
        let pool = MaxPool2d::new(2, 6, 6, 2, 2);
        let pooled = 2 * 3 * 3;
        let mut bn = BatchNorm1d::with_eps(pooled, 3e-5);
        bn.momentum = 0.25;
        Network::new(36)
            .push(Layer::Conv2d(conv))
            .push(Layer::ReLU(ReLU::new()))
            .push(Layer::MaxPool2d(pool))
            .push(Layer::BatchNorm1d(bn))
            .push(Layer::Dense(Dense::new(pooled, 8, &mut rng)))
            .push(Layer::Tanh(Tanh::new()))
            .push(Layer::Dropout(Dropout::from_state(0.25, 99, 3)))
            .push(Layer::Dense(Dense::new(8, 4, &mut rng)))
            .push(Layer::Sigmoid(Sigmoid::new()))
    }

    #[test]
    fn mlp_roundtrip_is_bit_identical_and_byte_stable() {
        let mut rng = init::rng(7);
        let mut net = Network::mlp(&[5, 8, 3], &mut rng);
        let bytes = save_network(&net);
        assert_eq!(bytes, save_network(&net), "same model, same bytes");
        let mut back = load_network(&bytes).expect("valid artifact");
        let a = net.flat_params();
        let b = back.flat_params();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let x = Tensor::from_vec(vec![0.3, -1.0, 0.5, 2.0, -0.25], [1, 5]).unwrap();
        let ya = net.forward(&x, false);
        let yb = back.forward(&x, false);
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        // Re-saving the loaded model reproduces the artifact exactly.
        assert_eq!(save_network(&back), bytes);
    }

    #[test]
    fn every_layer_kind_roundtrips() {
        let mut net = all_kinds_network();
        let bytes = save_network(&net);
        let mut back = load_network(&bytes).expect("valid artifact");
        assert_eq!(net.layers().len(), back.layers().len());
        for (l, m) in net.layers().iter().zip(back.layers()) {
            assert_eq!(l.name(), m.name());
        }
        // Forward in train mode exercises dropout's (seed, step) stream
        // and batch-norm's running-stat updates on both copies equally.
        let x = Tensor::from_vec((0..72).map(|i| i as f32 * 0.1 - 3.0).collect(), [2, 36]).unwrap();
        for train in [false, true, true] {
            let ya = net.forward(&x, train);
            let yb = back.forward(&x, train);
            for (p, q) in ya.data().iter().zip(yb.data()) {
                assert_eq!(p.to_bits(), q.to_bits(), "train={train}");
            }
        }
        // Dropout advanced in lockstep, so a re-save of both still agrees.
        assert_eq!(save_network(&net), save_network(&back));
    }

    #[test]
    fn native_int8_mlps_store_packed_codes_and_decode_bitwise() {
        let mut rng = init::rng(23);
        let net = Network::mlp(&[6, 10, 8, 4], &mut rng);
        let (deq, _report, qts) = dl_compress::quantize_network_tensors(&net, 8);
        let mlp = QuantizedMlp::from_network_tensors(&deq, &qts);
        let mut b = ArtifactBuilder::new();
        encode_quantized_mlp(&mut b, "q", &mlp);
        let bytes = b.finish();

        // Every parameter payload is the packed codes, not dequantized
        // f32s, and the model kept the codes it was built from.
        let a = Artifact::parse(&bytes).unwrap();
        let held = mlp.layers().iter().flat_map(|l| [l.weight(), l.bias()]);
        assert_eq!(a.entries().len(), qts.len());
        for ((e, q), held) in a.entries().iter().zip(&qts).zip(held) {
            assert_eq!(e.dtype, crate::Dtype::Q8, "{}", e.name);
            assert_eq!(a.payload(e).unwrap(), q.codes(), "{}", e.name);
            assert_eq!(held.codes(), q.codes(), "{}", e.name);
        }

        let back = decode_quantized_mlp(&a, "q").unwrap();
        let x = Tensor::from_vec((0..18).map(|i| i as f32 * 0.37 - 3.0).collect(), [3, 6]).unwrap();
        let (ya, yb) = (mlp.forward(&x), back.forward(&x));
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        let mut again = ArtifactBuilder::new();
        encode_quantized_mlp(&mut again, "q", &back);
        assert_eq!(
            again.finish(),
            bytes,
            "the decoded codes re-encode byte for byte"
        );

        // An f32 network is not an int8 MLP.
        let f32_bytes = {
            let mut b = ArtifactBuilder::new();
            encode_network(&mut b, "q", &net);
            b.finish()
        };
        let a = Artifact::parse(&f32_bytes).unwrap();
        assert!(matches!(
            decode_quantized_mlp(&a, "q"),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn foreign_artifact_kind_is_rejected() {
        let mut b = ArtifactBuilder::new();
        b.hparam("artifact.kind", HParam::Str("something-else".into()));
        let bytes = b.finish();
        assert!(matches!(load_network(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn hostile_layer_fields_are_corrupt_not_panics() {
        // One-layer network artifacts whose fields no encoder writes.
        fn one_layer<'a>(kind: &'a str, fill: &dyn Fn(&mut ArtifactBuilder<'a>)) -> Vec<u8> {
            let mut b = ArtifactBuilder::new();
            b.hparam("artifact.kind", HParam::Str(NETWORK_KIND.into()));
            b.hparam("net.input_dim", HParam::U64(16));
            b.hparam("net.layer_count", HParam::U64(1));
            b.hparam("net.layer0.kind", HParam::Str(kind.into()));
            fill(&mut b);
            b.finish()
        }
        // A 1x4x4 -> 2x4x4 conv (3x3, stride 1, pad 1) with `edits`
        // applied; its stored weight is [2, 9] unless `fan_in` says
        // otherwise.
        let conv = |edits: &[(&str, u64)], fan_in: usize| {
            let weight = vec![0.5; 2 * fan_in];
            one_layer("conv2d", &|b| {
                for (field, v) in [
                    ("in_channels", 1),
                    ("out_channels", 2),
                    ("height", 4),
                    ("width", 4),
                    ("kh", 3),
                    ("kw", 3),
                    ("stride", 1),
                    ("pad", 1),
                ] {
                    let v = edits.iter().find(|(f, _)| *f == field).map_or(v, |e| e.1);
                    b.hparam(key("net", 0, field), HParam::U64(v));
                }
                b.tensor_f32(key("net", 0, "weight"), &[2, fan_in], &weight);
                b.tensor_f32(key("net", 0, "bias"), &[2], &[0.0; 2]);
            })
        };
        // A 1x4x4 pool with window `k` and stride `stride`.
        let pool = |k: u64, stride: u64| {
            one_layer("maxpool2d", &|b| {
                for (field, v) in [
                    ("channels", 1),
                    ("height", 4),
                    ("width", 4),
                    ("k", k),
                    ("stride", stride),
                ] {
                    b.hparam(key("net", 0, field), HParam::U64(v));
                }
            })
        };
        // A dense layer with a [rows, cols] weight and a cols-long bias.
        let dense = |rows: usize, cols: usize| {
            let (weight, bias) = (vec![0.5; rows * cols], vec![0.0; cols]);
            one_layer("dense", &|b| {
                b.tensor_f32(key("net", 0, "weight"), &[rows, cols], &weight);
                b.tensor_f32(key("net", 0, "bias"), &[cols], &bias);
            })
        };
        let x = Tensor::zeros([1, 16]);
        for (case, bytes) in [
            ("conv", conv(&[], 9)),
            ("strided conv", conv(&[("stride", 3)], 9)),
            (
                "conv filling the padded image",
                conv(&[("kh", 6), ("kw", 6)], 36),
            ),
            ("pool", pool(2, 2)),
            ("whole-image pool", pool(4, 9)),
            ("dense", dense(16, 3)),
        ] {
            let net = load_network(&bytes).unwrap_or_else(|e| panic!("a consistent {case}: {e}"));
            assert_eq!(net.predict(&x).len(), 1, "{case}");
        }
        let dropout = one_layer("dropout", &|b| {
            put_f32_bits(b, key("net", 0, "p_bits"), 1.0);
            b.hparam(key("net", 0, "seed"), HParam::U64(1));
            b.hparam(key("net", 0, "step"), HParam::U64(0));
        });
        let scalar_batch_norm = one_layer("batchnorm1d", &|b| {
            put_f32_bits(b, key("net", 0, "momentum_bits"), 0.1);
            put_f32_bits(b, key("net", 0, "eps_bits"), 1e-5);
            for field in ["gamma", "beta", "running_mean", "running_var"] {
                b.tensor_f32(key("net", 0, field), &[], &[1.0]);
            }
        });
        for (case, bytes) in [
            (
                "conv weight of another geometry",
                conv(&[("in_channels", 2)], 9),
            ),
            (
                "conv channel count that overflows",
                conv(&[("in_channels", 1 << 62)], 9),
            ),
            ("conv image wider than the input", conv(&[("height", 5)], 9)),
            ("conv stride 0", conv(&[("stride", 0)], 9)),
            (
                "conv kernel taller than the padded image",
                conv(&[("kh", 7), ("kw", 1)], 7),
            ),
            ("conv padding that overflows", conv(&[("pad", u64::MAX)], 9)),
            ("conv output that overflows", conv(&[("pad", 1 << 31)], 9)),
            ("pool window wider than the image", pool(5, 1)),
            ("pool stride 0", pool(2, 0)),
            ("pool window 0", pool(0, 1)),
            ("dense weight taking other rows", dense(10, 16)),
            ("dense weight with no outputs", dense(16, 0)),
            ("dropout probability 1", dropout),
            ("rank-0 batch-norm gamma", scalar_batch_norm),
        ] {
            match load_network(&bytes) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("net.layer0"), "{case}: {msg}")
                }
                other => panic!("{case}: expected Corrupt, got {other:?}"),
            }
        }
        // Packed codes in an f32 network: no writer makes one, and the
        // error names the tensor.
        let q8_weight = one_layer("dense", &|b| {
            b.tensor_q8(key("net", 0, "weight"), &[16, 3], &[1; 48], 0.5, 0.0, 8);
            b.tensor_f32(key("net", 0, "bias"), &[3], &[0.0; 3]);
        });
        match load_network(&q8_weight) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("\"net.layer0.weight\" is not f32"), "{msg}");
            }
            other => panic!("q8 weight in an f32 network: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_int8_fields_are_corrupt_not_panics() {
        // One-layer int8 MLP artifacts: a [16, 3] dense layer whose
        // weight codes are all `code`, of `bits` bits.
        let dense_q8 = |bits: u8, code: u8| {
            let weight = [code; 48];
            let mut b = ArtifactBuilder::new();
            b.hparam("q.input_dim", HParam::U64(16));
            b.hparam("q.layer_count", HParam::U64(1));
            b.hparam("q.layer0.kind", HParam::Str("dense".into()));
            b.tensor_q8(key("q", 0, "weight"), &[16, 3], &weight, 0.5, 0.0, bits);
            b.tensor_q8(key("q", 0, "bias"), &[3], &[0; 3], 1.0, 0.0, 8);
            b.finish()
        };
        let load =
            |bytes: &[u8]| Artifact::parse(bytes).and_then(|a| decode_quantized_mlp(&a, "q"));
        let mlp = load(&dense_q8(4, 15)).expect("a consistent 4-bit dense layer loads");
        assert_eq!(mlp.predict(&Tensor::zeros([1, 16])).len(), 1);
        for (case, bytes) in [
            ("0-bit codes", dense_q8(0, 0)),
            ("9-bit codes", dense_q8(9, 1)),
            ("a code too wide for 4 bits", dense_q8(4, 200)),
        ] {
            match load(&bytes) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains("q.layer0"), "{case}: {msg}"),
                other => panic!("{case}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn save_load_dequantize_equals_dequantize_before_save() {
        // As a property over random models: persisting an int8 MLP's
        // packed codes and dequantizing after load gives exactly the f32s
        // of the dequantized model before the save.
        for case in 0..256 {
            let mut rng = init::rng(case);
            let hidden = rng.gen_range(2usize..12);
            let net = Network::mlp(&[4, hidden, 3], &mut rng);
            let (deq, _report, qts) = dl_compress::quantize_network_tensors(&net, 8);
            let mlp = QuantizedMlp::from_network_tensors(&deq, &qts);
            let mut b = ArtifactBuilder::new();
            encode_quantized_mlp(&mut b, "net", &mlp);
            let bytes = b.finish();
            let a = Artifact::parse(&bytes).unwrap();
            let back = decode_quantized_mlp(&a, "net").unwrap().to_network();
            assert_eq!(back.param_count(), deq.param_count(), "case {case}");
            for (x, y) in deq.flat_params().iter().zip(back.flat_params()) {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case}");
            }
        }
    }
}
