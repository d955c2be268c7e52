//! Seeded mutation driver for dl-store artifacts.
//!
//! Feeds [`Artifact::parse`], [`load_network`] and [`load_family`] bytes
//! that no writer produced, and requires every outcome to be `Ok` or a
//! typed [`StoreError`]: never a panic, never a reservation sized by a
//! count the file claims. Every model that loads `Ok` then predicts
//! once, on zero rows of the width it takes, and every family that
//! loads `Ok` is priced for admission as an engine would price it;
//! neither may panic either. Inputs come in three kinds:
//!
//! - random [`ArtifactBuilder`] artifacts, which must also round-trip;
//! - byte mutations of the committed `tiny_mlp.dlst` golden and of a
//!   small family artifact: flips, truncations and splices, half of
//!   them behind a re-sealed trailer so the parser gets past the file
//!   checksum to the padding and payload checks;
//! - structured mutations of the family: one hparam or tensor changed
//!   and the artifact rebuilt, so every checksum holds and only the
//!   decoders stand between the damage and a panic.
//!
//! Every case is a function of its seed, so a failure names the seed
//! that reproduces it. The named regression tests at the end pin the
//! hostile families that panicked before `load_family` checked them.

use dl_serve::{
    build_family, load_family, save_family, BatchPolicy, DeviceModel, FamilyConfig, PriceTable,
    VariantModel,
};
use dl_store::{checksum, load_network, Artifact, ArtifactBuilder, Dtype, HParam, StoreError};
use dl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeds per input kind: enough to reach every field of both artifacts
/// many times over, small enough to run in about a second.
const SEEDS: u64 = 1500;

fn tiny_mlp_golden() -> Vec<u8> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../store/tests/golden/tiny_mlp.dlst"
    );
    std::fs::read(path).expect("committed golden artifact")
}

fn small_family() -> Vec<u8> {
    let data = dl_data::blobs(60, 3, 6, 6.0, 0.5, 70);
    let eval = dl_data::blobs(30, 3, 6, 6.0, 0.5, 71);
    let reg = build_family(
        &data,
        &eval,
        &FamilyConfig {
            teacher_dims: vec![6, 10, 3],
            student_hidden: vec![4],
            prune_sparsity: 0.5,
            morph_budget: 60,
            ensemble_members: 2,
            max_batch: 3,
            epochs: 2,
            seed: 72,
        },
    );
    save_family(&reg)
}

/// Widest rows fed to a loaded model. A wider claim that chains through
/// every layer is a large model, not damage, and is not fed.
const MAX_ROW_WIDTH: usize = 1 << 12;

/// Loads a network and runs one forward on two zero rows.
fn load_and_predict_network(bytes: &[u8]) -> Result<(), StoreError> {
    let net = load_network(bytes)?;
    if net.input_dim <= MAX_ROW_WIDTH {
        net.predict(&Tensor::zeros([2, net.input_dim]));
    }
    Ok(())
}

/// Loads a family, prices it on the nominal device under dynamic
/// batching, and runs one forward of every variant on two zero rows.
/// `load_family` holds every variant to one row width.
fn load_and_predict_family(bytes: &[u8]) -> Result<(), StoreError> {
    let reg = load_family(bytes)?;
    let _ = PriceTable::new(
        &reg,
        &DeviceModel::nominal(),
        &BatchPolicy::dynamic(32, 8e-6),
    );
    let width = reg.variants.iter().find_map(|v| match &v.model {
        VariantModel::Single(net) => Some(net.input_dim),
        VariantModel::Quantized(q) => Some(q.input_dim()),
        VariantModel::Ensemble(_) => None,
    });
    if let Some(width) = width.filter(|&w| w <= MAX_ROW_WIDTH) {
        for v in &reg.variants {
            v.model.predict(&Tensor::zeros([2, width]));
        }
    }
    Ok(())
}

/// Runs `f` and turns a panic into a test failure that names `case`.
fn no_panic<T>(case: &str, f: impl FnOnce() -> Result<T, StoreError>) -> Result<T, StoreError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(outcome) => outcome,
        Err(_) => panic!("{case}: panicked instead of returning a StoreError"),
    }
}

/// Recomputes the trailer over the first `head` bytes (the header,
/// hparams and directory it covers), so it passes again.
fn reseal(bytes: &mut [u8], head: usize) {
    if let Some(body) = bytes.len().checked_sub(8) {
        let sum = checksum(&bytes[..head.min(body)]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// One random byte-level mutation of `clean` and its kind. The kind is
/// `"resealed"` when the trailer was recomputed afterwards; a `"flip"`
/// (one byte) or `"truncate"` behind the original trailer must always
/// be rejected.
fn mutate_bytes(clean: &[u8], rng: &mut StdRng) -> (Vec<u8>, &'static str) {
    let mut bytes = clean.to_vec();
    let n = bytes.len();
    // Where the mutated head ends, for a reseal.
    let mut head = Artifact::parse(clean).expect("clean artifact").head_len();
    let kind = match rng.gen_range(0..4u32) {
        0 => {
            let at = rng.gen_range(0..n);
            bytes[at] ^= rng.gen_range(1..=255u8);
            "flip"
        }
        1 => {
            for _ in 0..rng.gen_range(2..=8usize) {
                let at = rng.gen_range(0..n);
                bytes[at] ^= rng.gen_range(1..=255u8);
            }
            "flips"
        }
        2 => {
            bytes.truncate(rng.gen_range(0..n));
            "truncate"
        }
        _ => {
            // Copy a run of the artifact over another place in it, or
            // insert it there: directory entries land on hparams,
            // payload words on lengths, and the file changes size.
            let len = rng.gen_range(1..=48usize).min(n);
            let from = rng.gen_range(0..=n - len);
            let to = rng.gen_range(0..n);
            let run = clean[from..from + len].to_vec();
            if rng.gen::<bool>() {
                let end = (to + len).min(n);
                bytes[to..end].copy_from_slice(&run[..end - to]);
            } else {
                bytes.splice(to..to, run);
                if to < head {
                    head += len;
                }
            }
            "splice"
        }
    };
    if rng.gen::<bool>() {
        reseal(&mut bytes, head);
        return (bytes, "resealed");
    }
    (bytes, kind)
}

#[test]
fn random_builder_artifacts_round_trip_and_survive_mutation() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = ArtifactBuilder::new();
        let mut hparams = Vec::new();
        for i in 0..rng.gen_range(0..5usize) {
            let value = match rng.gen_range(0..4u32) {
                0 => HParam::U64(rng.next_u64()),
                1 => HParam::F64(f64::from_bits(rng.next_u64())),
                2 => HParam::Str("é".repeat(rng.gen_range(0..4usize)).into()),
                _ => HParam::Bytes(
                    (0..rng.gen_range(0..20usize))
                        .map(|_| rng.next_u32() as u8)
                        .collect::<Vec<u8>>()
                        .into(),
                ),
            };
            b.hparam(format!("h{i}"), value.clone());
            hparams.push(value);
        }
        // Each tensor with its stored bytes, and its f32 values if it
        // has any; the builder borrows both.
        let mut tensors = Vec::new();
        let mut values = Vec::new();
        for _ in 0..rng.gen_range(0..4usize) {
            let dims: Vec<usize> = (0..rng.gen_range(0..4usize))
                .map(|_| rng.gen_range(0..6usize))
                .collect();
            let count: usize = dims.iter().product();
            let codes: Vec<u8> = (0..count).map(|_| rng.next_u32() as u8).collect();
            if rng.gen::<bool>() {
                let data: Vec<f32> = codes.iter().map(|&c| f32::from(c) - 100.0).collect();
                tensors.push((
                    Dtype::F32,
                    dims,
                    data.iter().flat_map(|v| v.to_le_bytes()).collect(),
                ));
                values.push(Some(data));
            } else {
                tensors.push((Dtype::Q8, dims, codes));
                values.push(None);
            }
        }
        for (i, ((_, dims, payload), data)) in tensors.iter().zip(&values).enumerate() {
            match data {
                Some(data) => b.tensor_f32(format!("t{i}"), dims, data),
                None => b.tensor_q8(format!("t{i}"), dims, payload, 0.5, -3.0, 8),
            }
        }
        let clean = b.finish();
        let a = Artifact::parse(&clean).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let got: Vec<&HParam> = a.hparams().iter().map(|(_, v)| v).collect();
        // `F64` may hold a NaN, so compare what the bytes carry.
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", hparams.iter().collect::<Vec<_>>())
        );
        assert_eq!(a.entries().len(), tensors.len(), "seed {seed}");
        for (e, (dtype, dims, payload)) in a.entries().iter().zip(&tensors) {
            assert_eq!((e.dtype, &e.dims.to_vec()), (*dtype, dims), "seed {seed}");
            assert_eq!(a.payload(e).unwrap(), payload.as_slice(), "seed {seed}");
        }
        let (bytes, kind) = mutate_bytes(&clean, &mut rng);
        let outcome = no_panic(&format!("seed {seed} {kind}"), || {
            Artifact::parse(&bytes).map(drop)
        });
        if kind == "flip" || kind == "truncate" {
            assert!(outcome.is_err(), "seed {seed}: {kind} went unnoticed");
        }
    }
}

#[test]
fn mutated_golden_and_family_artifacts_never_panic() {
    let golden = tiny_mlp_golden();
    let family = small_family();
    assert!(load_network(&golden).is_ok() && load_family(&family).is_ok());
    let mut rejected = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (clean, is_family) = if seed % 2 == 0 {
            (&golden, false)
        } else {
            (&family, true)
        };
        let (bytes, kind) = mutate_bytes(clean, &mut rng);
        let case = format!("seed {seed} {kind}");
        let outcome = if is_family {
            no_panic(&case, || load_and_predict_family(&bytes))
        } else {
            no_panic(&case, || load_and_predict_network(&bytes))
        };
        if kind == "flip" || kind == "truncate" {
            assert!(outcome.is_err(), "{case} went unnoticed");
        }
        rejected += usize::from(outcome.is_err());
    }
    // The driver must mostly produce damage, or it tests nothing.
    assert!(rejected as u64 > SEEDS * 9 / 10, "only {rejected} rejected");
}

/// A parsed artifact's hparams and tensors, to edit and rebuild with
/// valid checksums.
struct Parts<'a> {
    hparams: Vec<(String, HParam<'a>)>,
    tensors: Vec<Stored>,
}

/// One tensor as stored: its directory fields and payload bytes. It is
/// q8 exactly when it has quant params.
struct Stored {
    name: String,
    dims: Vec<usize>,
    quant: Option<(f32, f32, u8)>,
    payload: Vec<u8>,
}

impl Stored {
    /// Re-encodes a q8 tensor as f32 or an f32 tensor as q8, each
    /// element mapped to a plausible value of the other type.
    fn flip_dtype(&mut self) {
        if self.quant.take().is_some() {
            self.payload = self
                .payload
                .iter()
                .flat_map(|&c| f32::from(c).to_le_bytes())
                .collect();
        } else {
            self.payload = self.payload.chunks_exact(4).map(|c| c[0]).collect();
            self.quant = Some((0.25, 0.0, 8));
        }
    }
}

impl<'a> Parts<'a> {
    fn of(bytes: &'a [u8]) -> Parts<'a> {
        let a = Artifact::parse(bytes).expect("clean artifact");
        Parts {
            hparams: a
                .hparams()
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
            tensors: a
                .entries()
                .iter()
                .map(|e| Stored {
                    name: e.name.to_string(),
                    dims: e.dims.to_vec(),
                    quant: e.quant,
                    payload: a.payload(e).unwrap().to_vec(),
                })
                .collect(),
        }
    }

    fn set(&mut self, name: &str, value: HParam<'a>) {
        let slot = self.hparams.iter_mut().find(|(n, _)| n == name);
        slot.unwrap_or_else(|| panic!("no hparam {name:?}")).1 = value;
    }

    fn build(&self) -> Vec<u8> {
        // The f32 values of each unquantized tensor, for the builder to
        // borrow.
        let values: Vec<Vec<f32>> = self
            .tensors
            .iter()
            .map(|t| match t.quant {
                Some(_) => Vec::new(),
                None => t
                    .payload
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            })
            .collect();
        let mut b = ArtifactBuilder::new();
        for (name, value) in &self.hparams {
            b.hparam(name.clone(), value.clone());
        }
        for (t, data) in self.tensors.iter().zip(&values) {
            match t.quant {
                Some((scale, zero, bits)) => {
                    b.tensor_q8(t.name.clone(), &t.dims, &t.payload, scale, zero, bits);
                }
                None => b.tensor_f32(t.name.clone(), &t.dims, data),
            }
        }
        b.finish()
    }
}

/// One structured mutation: an hparam's value, type or presence, or a
/// tensor's presence, shape, dtype or quant params.
fn mutate_parts(parts: &mut Parts, rng: &mut StdRng) {
    let strings: Vec<String> = parts
        .hparams
        .iter()
        .filter_map(|(_, v)| match v {
            HParam::Str(s) => Some(s.to_string()),
            _ => None,
        })
        .collect();
    if rng.gen_range(0..4u32) > 0 {
        let i = rng.gen_range(0..parts.hparams.len());
        let choice = rng.gen_range(0..5u32);
        if choice == 0 {
            parts.hparams.remove(i);
            return;
        }
        let value = &mut parts.hparams[i].1;
        *value = match (choice, &*value) {
            (1, HParam::U64(v)) => {
                let picks = [
                    0,
                    1,
                    2,
                    v.wrapping_sub(1),
                    v.wrapping_add(1),
                    1 << 31,
                    1 << 58,
                    u64::MAX,
                ];
                HParam::U64(picks[rng.gen_range(0..picks.len())])
            }
            (1 | 2, HParam::F64(_)) => {
                HParam::F64([f64::NAN, -0.0, f64::INFINITY][rng.gen_range(0..3usize)])
            }
            (2, HParam::Bytes(b)) => HParam::Bytes(b[..rng.gen_range(0..=b.len())].to_vec().into()),
            (3, _) => HParam::Str(strings[rng.gen_range(0..strings.len())].clone().into()),
            _ => HParam::U64(rng.gen_range(0..4u64)),
        };
        return;
    }
    let i = rng.gen_range(0..parts.tensors.len());
    match rng.gen_range(0..4u32) {
        0 => {
            parts.tensors.remove(i);
        }
        1 => {
            // Same element count, another shape.
            let t = &mut parts.tensors[i];
            let count: usize = t.dims.iter().product();
            t.dims = match rng.gen_range(0..3u32) {
                0 => vec![count],
                1 => t.dims.iter().rev().copied().collect(),
                _ => vec![1, count, 1],
            };
        }
        2 => parts.tensors[i].flip_dtype(),
        _ => {
            // A q8 tensor's bit width or scale: widths outside 1..=8, or
            // one too narrow for the codes it holds.
            let t = &mut parts.tensors[i];
            if t.quant.is_none() {
                t.flip_dtype();
            }
            let (scale, zero, bits) = t.quant.as_mut().expect("q8 after the flip");
            match rng.gen_range(0..6u32) {
                0 => *bits = 0,
                1 => *bits = 9,
                2 => *bits = u8::MAX,
                3 => *bits = rng.gen_range(1..8u8),
                4 => *scale = [f32::NAN, f32::INFINITY, 0.0][rng.gen_range(0..3usize)],
                _ => *zero = [f32::NAN, f32::NEG_INFINITY, 1e30][rng.gen_range(0..3usize)],
            }
        }
    }
}

/// A network holding every layer kind the codec knows, so structured
/// mutations reach each kind's decoder.
fn all_kinds_network() -> Vec<u8> {
    use dl_nn::layers::{
        BatchNorm1d, Conv2d, Dense, Dropout, Layer, MaxPool2d, ReLU, Sigmoid, Tanh,
    };
    let mut rng = dl_tensor::init::rng(11);
    let net = dl_nn::Network::new(36)
        .push(Layer::Conv2d(Conv2d::new(1, 2, 6, 6, 3, 3, 1, 1, &mut rng)))
        .push(Layer::ReLU(ReLU::new()))
        .push(Layer::MaxPool2d(MaxPool2d::new(2, 6, 6, 2, 2)))
        .push(Layer::BatchNorm1d(BatchNorm1d::with_eps(18, 1e-5)))
        .push(Layer::Dense(Dense::new(18, 8, &mut rng)))
        .push(Layer::Tanh(Tanh::new()))
        .push(Layer::Dropout(Dropout::from_state(0.25, 99, 3)))
        .push(Layer::Dense(Dense::new(8, 4, &mut rng)))
        .push(Layer::Sigmoid(Sigmoid::new()));
    dl_store::save_network(&net)
}

#[test]
fn structurally_mutated_artifacts_never_panic() {
    let family = small_family();
    let network = all_kinds_network();
    for clean in [&family, &network] {
        assert_eq!(
            &Parts::of(clean).build(),
            clean,
            "an unedited rebuild is exact"
        );
    }
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let is_family = seed % 2 == 1;
        let mut parts = Parts::of(if is_family { &family } else { &network });
        for _ in 0..rng.gen_range(1..=3usize) {
            mutate_parts(&mut parts, &mut rng);
        }
        let bytes = parts.build();
        let case = format!("seed {seed} structured");
        if is_family {
            let _ = no_panic(&case, || load_and_predict_family(&bytes));
        } else {
            let _ = no_panic(&case, || load_and_predict_network(&bytes));
        }
    }
}

/// `small_family()` with `edit` applied, rebuilt with valid checksums.
fn edited_family(edit: impl FnOnce(&mut Parts)) -> Vec<u8> {
    let clean = small_family();
    let mut parts = Parts::of(&clean);
    edit(&mut parts);
    parts.build()
}

fn expect_corrupt(bytes: &[u8], case: &str) {
    match no_panic(case, || load_family(bytes).map(drop)) {
        Err(StoreError::Corrupt(_)) => {}
        other => panic!("{case}: expected Corrupt, got {other:?}"),
    }
}

/// Index of the variant named `name` in `parts`.
fn variant(parts: &Parts, name: &str) -> usize {
    (0..)
        .find(|i| {
            let key = format!("v{i}.name");
            parts
                .hparams
                .iter()
                .any(|(n, v)| *n == key && *v == HParam::Str(name.into()))
        })
        .expect("variant present")
}

#[test]
fn huge_claimed_counts_are_corrupt_not_reserved() {
    for count in [1 << 58, u64::MAX >> 8] {
        let bytes = edited_family(|p| p.set("family.variant_count", HParam::U64(count)));
        expect_corrupt(&bytes, &format!("variant count {count}"));
    }
    for count in [0, 1 << 58] {
        let bytes = edited_family(|p| {
            let i = variant(p, "ensemble");
            p.set(&format!("v{i}.members"), HParam::U64(count));
        });
        // Zero members would reach `Ensemble::new`, which panics.
        expect_corrupt(&bytes, &format!("ensemble members {count}"));
    }
}

#[test]
fn a_quantized_variant_that_is_not_a_lined_up_mlp_is_corrupt() {
    // A Tanh where the int8 network had its ReLU.
    let bytes = edited_family(|p| {
        let i = variant(p, "int8");
        p.set(&format!("v{i}.net.layer1.kind"), HParam::Str("tanh".into()));
    });
    expect_corrupt(&bytes, "tanh in an int8 MLP");
    // A ReLU before the first Dense.
    let bytes = edited_family(|p| {
        let i = variant(p, "int8");
        p.set(&format!("v{i}.net.layer0.kind"), HParam::Str("relu".into()));
    });
    expect_corrupt(&bytes, "relu first");
    // One bias stored as f32, so the packed tensors no longer line up
    // with the network's parameters.
    let bytes = edited_family(|p| {
        let name = format!("v{}.net.layer0.bias", variant(p, "int8"));
        let t = p
            .tensors
            .iter_mut()
            .find(|t| t.name == name)
            .expect("int8 bias");
        t.flip_dtype();
    });
    expect_corrupt(&bytes, "f32 bias among packed tensors");
    // Layers whose widths do not chain.
    let bytes = edited_family(|p| {
        let i = variant(p, "int8");
        p.set(&format!("v{i}.net.input_dim"), HParam::U64(5));
    });
    expect_corrupt(&bytes, "input width mismatch");
}

#[test]
fn variants_of_another_logit_width_are_corrupt() {
    // Cutting a [6, 10, 3] network to its first layer leaves a model
    // that loads on its own but returns 10 logits where the family
    // returns 3. An ensemble of the two would panic adding their
    // probabilities.
    let bytes = edited_family(|p| p.set("v0.net.layer_count", HParam::U64(1)));
    expect_corrupt(&bytes, "fp32 teacher cut short");
    let bytes = edited_family(|p| {
        let i = variant(p, "ensemble");
        p.set(&format!("v{i}.m1.layer_count"), HParam::U64(1));
    });
    expect_corrupt(&bytes, "ensemble member cut short");
}

#[test]
fn an_empty_batch_cost_table_is_corrupt() {
    // Pricing the family would index the empty table in `cost_at`.
    let bytes = edited_family(|p| p.set("v0.batch_costs", HParam::Bytes(Vec::new().into())));
    expect_corrupt(&bytes, "empty batch-cost table");
}

#[test]
fn a_family_without_variants_is_corrupt() {
    // No engine can serve a family with nothing to route to.
    let bytes = edited_family(|p| p.set("family.variant_count", HParam::U64(0)));
    expect_corrupt(&bytes, "zero variants");
}
