//! Saving and loading whole variant families as `dl-store` artifacts.
//!
//! One artifact carries the entire served family: every variant's model
//! (single network, ensemble members, or native-int8 quantized MLP), its
//! measured accuracy, weight footprint, per-layer profile and batch cost
//! tables. The int8 variant's parameters are written as their packed
//! codes plus quant params — never dequantized on the way to disk — and
//! load rebuilds the *native* [`dl_compress::QuantizedMlp`] from those
//! codes, so a loaded int8 variant serves on packed codes exactly like
//! the one that was saved.
//!
//! The round-trip contract is the serving-side analogue of dl-store's:
//! a loaded registry is bit-identical to the one saved (predictions,
//! admission decisions, cost tables, accuracies), and re-saving it is
//! byte-identical. Measured metadata is persisted rather than re-measured
//! on load: re-profiling would need calibration data and real compute,
//! and the numbers are already exact u64/f64 values.

use crate::variant::{Variant, VariantModel, VariantRegistry};
use dl_ensemble::Ensemble;
use dl_nn::{CostProfile, LayerCost, Network};
use dl_prof::{LayerProfile, NetworkProfile};
use dl_store::{
    decode_network, decode_quantized_mlp, encode_network, encode_quantized_mlp, Artifact,
    ArtifactBuilder, HParam, StoreError,
};
use dl_tensor::acct::OpCost;

/// Value of the `artifact.kind` hparam written by [`save_family`].
const FAMILY_KIND: &str = "variant-family";

struct U64Packer(Vec<u8>);

impl U64Packer {
    fn push(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn push_op(&mut self, c: &OpCost) {
        self.push(c.flops);
        self.push(c.bytes_read);
        self.push(c.bytes_written);
    }

    fn push_layer_cost(&mut self, c: &LayerCost) {
        self.push(c.forward_flops);
        self.push(c.backward_flops);
        self.push(c.params);
        self.push(c.activation_elems);
    }
}

struct U64Unpacker<'a>(&'a [u8]);

impl U64Unpacker<'_> {
    fn pop(&mut self) -> Result<u64, StoreError> {
        if self.0.len() < 8 {
            return Err(StoreError::Corrupt("metadata blob too short".to_string()));
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    fn pop_op(&mut self) -> Result<OpCost, StoreError> {
        Ok(OpCost {
            flops: self.pop()?,
            bytes_read: self.pop()?,
            bytes_written: self.pop()?,
        })
    }

    fn pop_layer_cost(&mut self) -> Result<LayerCost, StoreError> {
        Ok(LayerCost {
            forward_flops: self.pop()?,
            backward_flops: self.pop()?,
            params: self.pop()?,
            activation_elems: self.pop()?,
        })
    }
}

fn encode_profile<'a>(b: &mut ArtifactBuilder<'a>, prefix: &str, p: &'a NetworkProfile) {
    b.hparam(format!("{prefix}.batch"), HParam::U64(p.batch as u64));
    b.hparam(
        format!("{prefix}.layer_count"),
        HParam::U64(p.layers.len() as u64),
    );
    let mut pk = U64Packer(Vec::new());
    for l in &p.layers {
        b.hparam(
            format!("{prefix}.layer{}.name", l.index),
            HParam::Str(l.name.as_str().into()),
        );
        pk.push(l.index as u64);
        pk.push_op(&l.forward);
        pk.push_op(&l.backward);
        pk.push_layer_cost(&l.modeled);
        pk.push(l.output_elems);
    }
    pk.push_op(&p.forward);
    pk.push_op(&p.backward);
    pk.push(p.param_bytes);
    pk.push(p.input_bytes);
    pk.push(p.peak_live_bytes);
    pk.push_layer_cost(&LayerCost {
        forward_flops: p.modeled.forward_flops,
        backward_flops: p.modeled.backward_flops,
        params: p.modeled.params,
        activation_elems: p.modeled.activation_elems,
    });
    b.hparam(format!("{prefix}.nums"), HParam::Bytes(pk.0.into()));
}

fn decode_profile(a: &Artifact<'_>, prefix: &str) -> Result<NetworkProfile, StoreError> {
    let mut s = a.scope(format_args!("{prefix}."));
    let batch = s.u64("batch")? as usize;
    let layer_count = s.u64("layer_count")? as usize;
    let raw = s.bytes("nums")?;
    // Twelve words per layer, thirteen for the totals: checking the blob
    // against the claimed count first keeps the reservation to the
    // bytes the file really holds.
    let expect = layer_count
        .checked_mul(12)
        .and_then(|w| w.checked_add(13))
        .and_then(|w| w.checked_mul(8));
    if expect != Some(raw.len()) {
        return Err(StoreError::Corrupt(format!(
            "profile blob {prefix}.nums holds {} bytes, not {layer_count} layers",
            raw.len()
        )));
    }
    let mut up = U64Unpacker(raw);
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let index = up.pop()? as usize;
        s.enter(format_args!("{prefix}.layer{index}."));
        let name = s.str("name")?.to_string();
        layers.push(LayerProfile {
            index,
            name,
            forward: up.pop_op()?,
            backward: up.pop_op()?,
            modeled: up.pop_layer_cost()?,
            output_elems: up.pop()?,
        });
    }
    let forward = up.pop_op()?;
    let backward = up.pop_op()?;
    let param_bytes = up.pop()?;
    let input_bytes = up.pop()?;
    let peak_live_bytes = up.pop()?;
    let m = up.pop_layer_cost()?;
    Ok(NetworkProfile {
        batch,
        layers,
        forward,
        backward,
        param_bytes,
        input_bytes,
        peak_live_bytes,
        modeled: CostProfile {
            forward_flops: m.forward_flops,
            backward_flops: m.backward_flops,
            params: m.params,
            activation_elems: m.activation_elems,
        },
    })
}

/// Serializes a whole variant family as one artifact.
#[must_use]
pub fn save_family(reg: &VariantRegistry) -> Vec<u8> {
    let mut b = ArtifactBuilder::new();
    b.hparam("artifact.kind", HParam::Str(FAMILY_KIND.into()));
    b.hparam(
        "family.variant_count",
        HParam::U64(reg.variants.len() as u64),
    );
    for (i, v) in reg.variants.iter().enumerate() {
        b.hparam(format!("v{i}.name"), HParam::Str(v.name.as_str().into()));
        b.hparam(format!("v{i}.accuracy"), HParam::F64(v.accuracy));
        b.hparam(format!("v{i}.weight_bytes"), HParam::U64(v.weight_bytes));
        match &v.model {
            VariantModel::Single(net) => {
                b.hparam(format!("v{i}.model"), HParam::Str("single".into()));
                encode_network(&mut b, &format!("v{i}.net"), net);
            }
            VariantModel::Ensemble(e) => {
                b.hparam(format!("v{i}.model"), HParam::Str("ensemble".into()));
                b.hparam(format!("v{i}.members"), HParam::U64(e.members.len() as u64));
                for (j, m) in e.members.iter().enumerate() {
                    encode_network(&mut b, &format!("v{i}.m{j}"), m);
                }
            }
            VariantModel::Quantized(q) => {
                b.hparam(format!("v{i}.model"), HParam::Str("quantized".into()));
                encode_quantized_mlp(&mut b, &format!("v{i}.net"), q);
            }
        }
        encode_profile(&mut b, &format!("v{i}.profile"), &v.profile);
        let mut pk = U64Packer(Vec::new());
        for c in &v.batch_costs {
            pk.push_op(c);
        }
        b.hparam(format!("v{i}.batch_costs"), HParam::Bytes(pk.0.into()));
    }
    b.finish()
}

/// The widths of the rows `net` takes and of the logits it returns.
fn row_widths(net: &Network) -> (usize, usize) {
    let out = net
        .layers()
        .iter()
        .fold(net.input_dim, |d, l| l.cost(1, d).1);
    (net.input_dim, out)
}

/// Loads a family saved by [`save_family`].
///
/// # Errors
/// Format errors from [`Artifact::parse`]; [`StoreError::Corrupt`] for a
/// non-family artifact or inconsistent sections. Counts the file claims
/// (variants, ensemble members, profile layers) reserve nothing before
/// the sections they count are found, and a `quantized` variant that is
/// not a Dense/ReLU MLP of packed tensors whose widths chain is corrupt.
/// So is a family whose variants or ensemble members do not all take
/// rows of one width and return logits of one width: any variant must
/// be able to answer any request.
pub fn load_family(bytes: &[u8]) -> Result<VariantRegistry, StoreError> {
    let a = Artifact::parse(bytes)?;
    let kind = a.hparam_str("artifact.kind")?;
    if kind != FAMILY_KIND {
        return Err(StoreError::Corrupt(format!(
            "artifact kind {kind:?} is not a variant family"
        )));
    }
    let count = a.hparam_u64("family.variant_count")? as usize;
    let mut variants = Vec::new();
    // Row and logit widths of the first model decoded; every other
    // model must match them.
    let mut family_widths = None;
    let mut check_widths = |(rows, logits): (usize, usize), what: &dyn std::fmt::Display| {
        let family = *family_widths.get_or_insert((rows, logits));
        if family == (rows, logits) {
            return Ok(());
        }
        Err(StoreError::Corrupt(format!(
            "{what} maps {rows}-wide rows to {logits} logits; the family maps {} to {}",
            family.0, family.1
        )))
    };
    let mut s = a.scope(format_args!(""));
    for i in 0..count {
        s.enter(format_args!("v{i}."));
        let name = s.str("name")?.to_string();
        let accuracy = s.f64("accuracy")?;
        let weight_bytes = s.u64("weight_bytes")?;
        let model = match s.str("model")? {
            "single" => {
                let net = decode_network(&a, s.name("net"))?;
                check_widths(row_widths(&net), &format_args!("v{i}"))?;
                VariantModel::Single(net)
            }
            "ensemble" => {
                let members = s.u64("members")? as usize;
                if members == 0 {
                    return Err(StoreError::Corrupt(format!("ensemble v{i} has no members")));
                }
                let mut nets = Vec::new();
                for j in 0..members {
                    let net = decode_network(&a, s.name(&format!("m{j}")))?;
                    check_widths(row_widths(&net), &format_args!("v{i}.m{j}"))?;
                    nets.push(net);
                }
                VariantModel::Ensemble(Ensemble::new(nets))
            }
            "quantized" => {
                let mlp = decode_quantized_mlp(&a, s.name("net"))?;
                let logits = mlp
                    .layers()
                    .last()
                    .map_or(mlp.input_dim(), |l| l.bias().dims()[0]);
                check_widths((mlp.input_dim(), logits), &format_args!("v{i}"))?;
                VariantModel::Quantized(mlp)
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown model kind {other:?} for v{i}"
                )))
            }
        };
        let profile = decode_profile(&a, s.name("profile"))?;
        let raw = s.bytes("batch_costs")?;
        if raw.len() % 24 != 0 {
            return Err(StoreError::Corrupt(format!(
                "batch-cost blob for v{i} is not a whole number of entries"
            )));
        }
        let mut up = U64Unpacker(raw);
        let mut batch_costs = Vec::with_capacity(raw.len() / 24);
        for _ in 0..raw.len() / 24 {
            batch_costs.push(up.pop_op()?);
        }
        variants.push(Variant {
            name,
            model,
            accuracy,
            weight_bytes,
            profile,
            batch_costs,
        });
    }
    Ok(VariantRegistry { variants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{build_family, FamilyConfig};
    use dl_store::Dtype;

    fn tiny_registry() -> (VariantRegistry, dl_nn::Dataset) {
        let data = dl_data::blobs(120, 3, 8, 6.0, 0.5, 50);
        let eval = dl_data::blobs(60, 3, 8, 6.0, 0.5, 51);
        let reg = build_family(
            &data,
            &eval,
            &FamilyConfig {
                teacher_dims: vec![8, 20, 3],
                student_hidden: vec![6],
                prune_sparsity: 0.6,
                morph_budget: 120,
                ensemble_members: 2,
                max_batch: 6,
                epochs: 6,
                seed: 33,
            },
        );
        (reg, eval)
    }

    #[test]
    fn family_roundtrip_is_bit_identical_and_byte_stable() {
        let (mut reg, eval) = tiny_registry();
        let bytes = save_family(&reg);
        assert_eq!(bytes, save_family(&reg), "same family, same bytes");
        let mut back = load_family(&bytes).expect("valid artifact");
        assert_eq!(back.variants.len(), reg.variants.len());
        for (v, w) in reg.variants.iter_mut().zip(back.variants.iter_mut()) {
            assert_eq!(v.name, w.name);
            assert_eq!(v.accuracy.to_bits(), w.accuracy.to_bits());
            assert_eq!(v.weight_bytes, w.weight_bytes);
            assert_eq!(v.batch_costs, w.batch_costs);
            assert_eq!(v.profile.layers.len(), w.profile.layers.len());
            assert_eq!(v.profile.forward, w.profile.forward);
            assert_eq!(v.profile.modeled, w.profile.modeled);
            let preds_a = v.model.predict(&eval.x);
            let preds_b = w.model.predict(&eval.x);
            assert_eq!(preds_a, preds_b, "{}: identical predictions", v.name);
        }
        // The loaded registry re-saves byte-identically.
        assert_eq!(save_family(&back), bytes);
        // The downgrade chain — what admission navigates — is unchanged.
        assert_eq!(reg.by_cost(), back.by_cost());
    }

    #[test]
    fn int8_params_are_stored_as_packed_codes() {
        let (reg, _) = tiny_registry();
        let bytes = save_family(&reg);
        let a = Artifact::parse(&bytes).unwrap();
        let i = reg.index_of("int8").expect("int8 variant");
        let entry = a
            .tensor(&format!("v{i}.net.layer0.weight"))
            .expect("int8 weight entry");
        assert_eq!(entry.dtype, Dtype::Q8, "codes stored natively");
        let VariantModel::Quantized(q) = &reg.variants[i].model else {
            panic!("int8 variant is native-quantized");
        };
        assert_eq!(a.payload(entry).unwrap(), q.layers()[0].weight().codes());
        // And the fp32 teacher is stored as f32.
        let t = a.tensor("v0.net.layer0.weight").expect("teacher weight");
        assert_eq!(t.dtype, Dtype::F32);
    }

    #[test]
    fn loaded_int8_variant_is_native_quantized() {
        let (reg, eval) = tiny_registry();
        let back = load_family(&save_family(&reg)).expect("valid artifact");
        let i = back.index_of("int8").expect("int8 variant");
        assert!(
            matches!(back.variants[i].model, VariantModel::Quantized(_)),
            "load must rebuild the native int8 model, not an f32 shadow"
        );
        let (a, b) = (&reg.variants[i].model, &back.variants[i].model);
        assert_eq!(a.predict(&eval.x), b.predict(&eval.x));
    }

    #[test]
    fn non_family_artifacts_are_rejected() {
        let net = dl_nn::Network::mlp(&[4, 5, 2], &mut dl_tensor::init::rng(3));
        let bytes = dl_store::save_network(&net);
        assert!(matches!(load_family(&bytes), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn loaded_family_admits_identically() {
        use crate::admission::{admit, AdmissionContext, AdmissionPolicy, PriceTable};
        use crate::batcher::BatchPolicy;
        use crate::device::DeviceModel;
        let (reg, _) = tiny_registry();
        let back = load_family(&save_family(&reg)).expect("valid artifact");
        let policy = AdmissionPolicy::SloAware {
            p99_slo_s: 0.001,
            headroom: 0.9,
            min_accuracy: 0.4,
        };
        let batch = BatchPolicy::dynamic(4, 0.002);
        let queue_lens = vec![3; reg.variants.len()];
        let busy = 0.0005;
        let d1 = {
            let ctx = AdmissionContext {
                prices: &PriceTable::new(&reg, &DeviceModel::nominal(), &batch),
                queue_lens: &queue_lens,
                busy_remaining_s: busy,
                residency_delay_s: 0.0,
            };
            admit(&policy, &ctx, 0)
        };
        let d2 = {
            let ctx = AdmissionContext {
                prices: &PriceTable::new(&back, &DeviceModel::nominal(), &batch),
                queue_lens: &queue_lens,
                busy_remaining_s: busy,
                residency_delay_s: 0.0,
            };
            admit(&policy, &ctx, 0)
        };
        assert_eq!(d1, d2);
    }
}
