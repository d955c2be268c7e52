//! Saving and loading whole variant families as `dl-store` artifacts.
//!
//! One artifact carries the entire served family: every variant's model
//! (single network, ensemble members, or native-int8 quantized MLP), its
//! measured accuracy, weight footprint and batch cost table. The int8
//! variant's parameters are written as their packed codes plus quant
//! params — never dequantized on the way to disk — and load rebuilds the
//! *native* [`dl_compress::QuantizedMlp`] from those codes, so a loaded
//! int8 variant serves on packed codes exactly like the one that was
//! saved.
//!
//! The round-trip contract is the serving-side analogue of dl-store's:
//! a loaded registry is bit-identical to the one saved (predictions,
//! admission decisions, cost tables, accuracies), and re-saving it is
//! byte-identical. Measured metadata is persisted rather than re-measured
//! on load: re-measuring would need calibration data and real compute,
//! and the numbers are already exact u64/f64 values.

use crate::variant::{Variant, VariantModel, VariantRegistry};
use dl_ensemble::Ensemble;
use dl_nn::Network;
use dl_store::{
    decode_network, decode_quantized_mlp, encode_network, encode_quantized_mlp, Artifact,
    ArtifactBuilder, HParam, StoreError,
};
use dl_tensor::acct::OpCost;

/// Value of the `artifact.kind` hparam written by [`save_family`].
const FAMILY_KIND: &str = "variant-family";

/// Bytes of one batch-cost entry: flops, bytes read, bytes written, each
/// a little-endian `u64`.
const COST_BYTES: usize = 24;

/// The little-endian `u64` at word `i` of `entry`.
fn word(entry: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(entry[8 * i..8 * i + 8].try_into().expect("8 bytes"))
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
        let mut costs = Vec::with_capacity(COST_BYTES * v.batch_costs.len());
        for c in &v.batch_costs {
            for w in [c.flops, c.bytes_read, c.bytes_written] {
                costs.extend_from_slice(&w.to_le_bytes());
            }
        }
        b.hparam(format!("v{i}.batch_costs"), HParam::Bytes(costs.into()));
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

/// Loads a family saved by [`save_family`]: verifies the bytes with
/// [`Artifact::parse`], then decodes the verified artifact. This is the
/// one decode path; a weight store parses each artifact once per run and
/// decodes the parsed artifact at every cold load.
///
/// # Errors
/// Format errors from [`Artifact::parse`]; [`StoreError::Corrupt`] for a
/// non-family artifact or inconsistent sections. Counts the file claims
/// (variants, ensemble members) reserve nothing before the sections
/// they count are found, and a `quantized` variant that is
/// not a Dense/ReLU MLP of packed tensors whose widths chain is corrupt.
/// So is a family whose variants or ensemble members do not all take
/// rows of one width and return logits of one width: any variant must
/// be able to answer any request. A family with no variants, or a
/// variant with an empty batch-cost table, is corrupt too: the engine
/// needs a variant to route to and prices every batch from that table.
pub fn load_family(bytes: &[u8]) -> Result<VariantRegistry, StoreError> {
    decode_family(&Artifact::parse(bytes)?)
}

/// Decodes a family from an artifact [`Artifact::parse`] has verified.
/// The format's checks are the parse's; every family check runs here,
/// on every decode.
///
/// # Errors
/// [`StoreError::Corrupt`], as listed under [`load_family`].
pub(crate) fn decode_family(a: &Artifact<'_>) -> Result<VariantRegistry, StoreError> {
    let kind = a.hparam_str("artifact.kind")?;
    if kind != FAMILY_KIND {
        return Err(StoreError::Corrupt(format!(
            "artifact kind {kind:?} is not a variant family"
        )));
    }
    let count = a.hparam_u64("family.variant_count")? as usize;
    if count == 0 {
        return Err(StoreError::Corrupt("family has no variants".into()));
    }
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
                let net = decode_network(a, s.name("net"))?;
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
                    let net = decode_network(a, s.name(&format!("m{j}")))?;
                    check_widths(row_widths(&net), &format_args!("v{i}.m{j}"))?;
                    nets.push(net);
                }
                VariantModel::Ensemble(Ensemble::new(nets))
            }
            "quantized" => {
                let mlp = decode_quantized_mlp(a, s.name("net"))?;
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
        let raw = s.bytes("batch_costs")?;
        if raw.is_empty() {
            return Err(StoreError::Corrupt(format!(
                "batch-cost table for v{i} is empty"
            )));
        }
        if raw.len() % COST_BYTES != 0 {
            return Err(StoreError::Corrupt(format!(
                "batch-cost blob for v{i} is not a whole number of entries"
            )));
        }
        let batch_costs = raw
            .chunks_exact(COST_BYTES)
            .map(|e| OpCost {
                flops: word(e, 0),
                bytes_read: word(e, 1),
                bytes_written: word(e, 2),
            })
            .collect();
        variants.push(Variant {
            name,
            model,
            accuracy,
            weight_bytes,
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
            let preds_a = v.model.predict(&eval.x);
            let preds_b = w.model.predict(&eval.x);
            assert_eq!(preds_a, preds_b, "{}: identical predictions", v.name);
        }
        // The loaded registry re-saves byte-identically.
        assert_eq!(save_family(&back), bytes);
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
