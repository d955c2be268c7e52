//! The model-variant registry: one trained network, a whole served family.
//!
//! Part 1 of the tutorial builds its compression menu (quantization,
//! pruning, distillation, MorphNet resizing, ensembling) as training-side
//! experiments; serving is where that menu becomes a *choice*. The
//! registry materializes every entry from a single teacher network,
//! measures each variant's accuracy on a holdout set and its eval-mode
//! forward cost at every batch size the batcher may form, and annotates
//! it with a per-layer [`dl_prof::NetworkProfile`]. The admission
//! controller later routes between these variants by measured cost.

use dl_compress::{
    distill, magnitude_prune, quantize_network_tensors, DistillConfig, QuantizedMlp,
    QuantizedTensor,
};
use dl_distributed::{morph_resize, MorphConfig};
use dl_ensemble::{snapshot, Ensemble};
use dl_nn::{metrics, Dataset, Network, Optimizer, TrainConfig, Trainer};
use dl_prof::NetworkProfile;
use dl_tensor::acct::{self, OpCost};
use dl_tensor::{init, Tensor};

/// A servable model: a single network, an ensemble of them, or a
/// quantized MLP executing natively on packed int8 codes.
#[derive(Debug, Clone)]
pub enum VariantModel {
    /// One network.
    Single(Network),
    /// A probability-averaging ensemble.
    Ensemble(Ensemble),
    /// A quantized MLP whose batched forwards run on the packed codes
    /// (native int8 GEMM) — no dequantized f32 weights on the hot path.
    Quantized(QuantizedMlp),
}

impl VariantModel {
    /// Eval-mode class predictions for a `[B, d]` batch — one batched
    /// forward per network (the dl-nn batched path), never a per-row loop.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        match self {
            VariantModel::Single(net) => net.predict(x),
            VariantModel::Ensemble(e) => e.predict(x),
            VariantModel::Quantized(q) => q.predict(x),
        }
    }

    /// Total parameters held at inference.
    #[must_use]
    pub fn param_count(&self) -> usize {
        match self {
            VariantModel::Single(net) => net.param_count(),
            VariantModel::Ensemble(e) => e.total_params(),
            VariantModel::Quantized(q) => q.param_count(),
        }
    }
}

/// One entry in the served family.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Registry-unique name (`fp32-base`, `int8`, `pruned`, ...).
    pub name: String,
    /// The model answering requests.
    pub model: VariantModel,
    /// Accuracy measured on the holdout set at build time.
    pub accuracy: f64,
    /// Stored weight footprint in bytes (packed size for the int8
    /// variant, fp32 parameter bytes otherwise).
    pub weight_bytes: u64,
    /// Per-layer measured forward/backward costs at batch 1, from
    /// `dl_prof::NetworkProfile` (representative member for ensembles).
    pub profile: NetworkProfile,
    /// Measured eval-mode forward cost of the whole model at batch
    /// `b`, stored at index `b - 1` for `b` in `1..=max_batch`.
    pub batch_costs: Vec<OpCost>,
    /// The packed int8 tensors behind a quantized variant (parameter
    /// order), retained from quantization so persistence can store the
    /// codes natively instead of dequantized f32s. `None` for fp32
    /// variants.
    pub quantized: Option<Vec<QuantizedTensor>>,
}

impl Variant {
    /// Measured forward cost at batch size `b` (clamped to the table).
    ///
    /// # Panics
    /// Panics when `b` is zero.
    pub fn cost_at(&self, b: usize) -> &OpCost {
        assert!(b > 0, "batch size must be positive");
        &self.batch_costs[(b - 1).min(self.batch_costs.len() - 1)]
    }

    /// Largest batch size the cost table covers.
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.batch_costs.len()
    }
}

/// How to materialize the family from one teacher.
#[derive(Debug, Clone)]
pub struct FamilyConfig {
    /// Teacher MLP dimensions, input and output included.
    pub teacher_dims: Vec<usize>,
    /// Hidden widths of the distilled student.
    pub student_hidden: Vec<usize>,
    /// Global magnitude-pruning sparsity for the pruned variant.
    pub prune_sparsity: f64,
    /// Parameter budget for the MorphNet-resized variant.
    pub morph_budget: usize,
    /// Snapshot-ensemble member count.
    pub ensemble_members: usize,
    /// Largest batch the cost tables cover (the batcher's ceiling).
    pub max_batch: usize,
    /// Teacher/student training epochs.
    pub epochs: usize,
    /// Seed for every training run in the family.
    pub seed: u64,
}

impl Default for FamilyConfig {
    fn default() -> Self {
        FamilyConfig {
            teacher_dims: vec![16, 64, 64, 5],
            student_hidden: vec![16],
            prune_sparsity: 0.8,
            morph_budget: 600,
            ensemble_members: 3,
            max_batch: 32,
            epochs: 30,
            seed: 0,
        }
    }
}

/// The served family plus the holdout it was calibrated on.
#[derive(Debug, Clone)]
pub struct VariantRegistry {
    /// All variants, teacher first.
    pub variants: Vec<Variant>,
}

impl VariantRegistry {
    /// Index of the variant named `name`.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.variants.iter().position(|v| v.name == name)
    }

    /// Variant indices ordered by measured per-request service cost at
    /// full batch, cheapest first — the admission controller's downgrade
    /// chain. Cost here is the device-independent proxy
    /// `flops + bytes_read + bytes_written` per request; ties break by
    /// registry order so the chain is deterministic.
    #[must_use]
    pub fn by_cost(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.variants.len()).collect();
        let per_request = |v: &Variant| {
            let b = v.max_batch();
            let c = v.cost_at(b);
            (c.flops + c.bytes_read + c.bytes_written) as f64 / b as f64
        };
        idx.sort_by(|&a, &b| {
            per_request(&self.variants[a]).total_cmp(&per_request(&self.variants[b]))
        });
        idx
    }
}

/// Measures the eval-mode forward cost of `model` at every batch size in
/// `1..=max_batch`, using rows cycled from `calib` as representative
/// inputs (zero-skip kernels make cost mildly input-dependent, so the
/// table is calibrated on the same distribution it will serve).
fn measure_batch_costs(model: &VariantModel, calib: &Tensor, max_batch: usize) -> Vec<OpCost> {
    let rows = calib.dims()[0];
    (1..=max_batch)
        .map(|b| {
            let idx: Vec<usize> = (0..b).map(|i| i % rows).collect();
            let xb = calib.select_rows(&idx);
            let (_, cost) = acct::measure(|| model.predict(&xb));
            cost
        })
        .collect()
}

fn build_variant(
    name: &str,
    mut model: VariantModel,
    weight_bytes: u64,
    eval: &Dataset,
    max_batch: usize,
) -> Variant {
    let accuracy = match &model {
        VariantModel::Single(net) => Trainer::evaluate(net, eval),
        VariantModel::Ensemble(e) => e.accuracy(eval),
        VariantModel::Quantized(q) => metrics::accuracy(&q.predict(&eval.x), &eval.y),
    };
    let x1 = eval.x.select_rows(&[0]);
    // Per-layer profiles need a structural f32 network: member 0 for an
    // ensemble, the dequantized shadow (built once, off the hot path)
    // for the native int8 variant.
    let profile = match &mut model {
        VariantModel::Single(net) => NetworkProfile::profile(net, &x1),
        VariantModel::Ensemble(e) => NetworkProfile::profile(&mut e.members[0], &x1),
        VariantModel::Quantized(q) => NetworkProfile::profile(&mut q.to_network(), &x1),
    };
    let batch_costs = measure_batch_costs(&model, &eval.x, max_batch);
    Variant {
        name: name.to_string(),
        model,
        accuracy,
        weight_bytes,
        profile,
        batch_costs,
        quantized: None,
    }
}

/// Materializes the full served family from one freshly trained teacher:
/// `fp32-base`, `int8` (affine 8-bit), `pruned` (global magnitude),
/// `distilled` (small student on soft targets), `morph` (width
/// reallocation under a budget) and `ensemble` (snapshot cycle).
///
/// Every step is seeded, so the same inputs produce a byte-identical
/// family — the property E25's committed baseline leans on.
pub fn build_family(data: &Dataset, eval: &Dataset, cfg: &FamilyConfig) -> VariantRegistry {
    let train_cfg = TrainConfig {
        epochs: cfg.epochs,
        seed: cfg.seed,
        ..TrainConfig::default()
    };

    // Teacher.
    let mut rng = init::rng(cfg.seed);
    let mut teacher = Network::mlp(&cfg.teacher_dims, &mut rng);
    Trainer::new(train_cfg.clone(), Optimizer::adam(0.01)).fit(&mut teacher, data);
    let fp32_bytes = 4 * teacher.param_count() as u64;

    // Int8: the packed codes both serve (native int8 GEMM on the codes,
    // no dequantized f32 weights on the hot path) and persist. The
    // reconstruction network supplies only the Dense/ReLU architecture.
    let (int8_shadow, quant_report, int8_tensors) = quantize_network_tensors(&teacher, 8);
    let int8_native = QuantizedMlp::from_network_tensors(&int8_shadow, &int8_tensors);

    // Pruned: iterative global magnitude pruning (prune, briefly
    // fine-tune, re-prune). The fine-tune recovers accuracy; ending on a
    // prune keeps the final net sparse, so the matmul zero-skip turns the
    // sparsity into genuinely smaller measured cost.
    let mut pruned = teacher.clone();
    let _ = magnitude_prune(&mut pruned, cfg.prune_sparsity);
    for round in 0..2u64 {
        let ft = TrainConfig {
            epochs: (cfg.epochs / 3).max(1),
            seed: cfg.seed.wrapping_add(4 + round),
            ..TrainConfig::default()
        };
        Trainer::new(ft, Optimizer::adam(0.01)).fit(&mut pruned, data);
        let _ = magnitude_prune(&mut pruned, cfg.prune_sparsity);
    }

    // Distilled student.
    let mut student_dims = vec![cfg.teacher_dims[0]];
    student_dims.extend_from_slice(&cfg.student_hidden);
    student_dims.push(*cfg.teacher_dims.last().expect("non-empty dims"));
    let mut student = Network::mlp(&student_dims, &mut init::rng(cfg.seed.wrapping_add(1)));
    let mut teacher_for_distill = teacher.clone();
    let _ = distill(
        &mut teacher_for_distill,
        &mut student,
        data,
        &DistillConfig {
            temperature: 3.0,
            soft_weight: 0.7,
            train: train_cfg.clone(),
            optimizer: Optimizer::adam(0.01),
        },
    );

    // MorphNet-resized under a parameter budget.
    let hidden: Vec<usize> = cfg.teacher_dims[1..cfg.teacher_dims.len() - 1].to_vec();
    let (morph_net, _) = morph_resize(
        data,
        eval,
        &hidden,
        &MorphConfig {
            param_budget: cfg.morph_budget,
            rounds: 3,
            epochs_per_round: cfg.epochs / 3,
            min_width: 2,
            seed: cfg.seed,
        },
        &mut init::rng(cfg.seed.wrapping_add(2)),
    );

    // Snapshot ensemble: highest accuracy, highest cost. Total training
    // stays one run of ~`epochs` epochs split into member cycles.
    let (ens, _) = snapshot(
        data,
        eval,
        &cfg.teacher_dims,
        cfg.ensemble_members,
        (cfg.epochs / cfg.ensemble_members).max(1),
        cfg.seed,
        &mut init::rng(cfg.seed.wrapping_add(3)),
    );

    let ens_bytes = 4 * ens.total_params() as u64;
    let student_bytes = 4 * student.param_count() as u64;
    let morph_bytes = 4 * morph_net.param_count() as u64;
    let pruned_bytes = 4 * pruned.param_count() as u64;
    let mut variants = vec![
        build_variant(
            "fp32-base",
            VariantModel::Single(teacher),
            fp32_bytes,
            eval,
            cfg.max_batch,
        ),
        build_variant(
            "int8",
            VariantModel::Quantized(int8_native),
            quant_report.compressed_bytes as u64,
            eval,
            cfg.max_batch,
        ),
        build_variant(
            "pruned",
            VariantModel::Single(pruned),
            pruned_bytes,
            eval,
            cfg.max_batch,
        ),
        build_variant(
            "distilled",
            VariantModel::Single(student),
            student_bytes,
            eval,
            cfg.max_batch,
        ),
        build_variant(
            "morph",
            VariantModel::Single(morph_net),
            morph_bytes,
            eval,
            cfg.max_batch,
        ),
        build_variant(
            "ensemble",
            VariantModel::Ensemble(ens),
            ens_bytes,
            eval,
            cfg.max_batch,
        ),
    ];
    variants[1].quantized = Some(int8_tensors);
    VariantRegistry { variants }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_family() -> (VariantRegistry, Dataset) {
        let data = dl_data::blobs(120, 3, 8, 6.0, 0.5, 40);
        let eval = dl_data::blobs(60, 3, 8, 6.0, 0.5, 41);
        let reg = build_family(
            &data,
            &eval,
            &FamilyConfig {
                teacher_dims: vec![8, 24, 3],
                student_hidden: vec![8],
                prune_sparsity: 0.7,
                morph_budget: 150,
                ensemble_members: 2,
                max_batch: 8,
                epochs: 9,
                seed: 42,
            },
        );
        (reg, eval)
    }

    #[test]
    fn family_has_all_six_variants_with_measured_costs() {
        let (reg, _) = tiny_family();
        let names: Vec<&str> = reg.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            ["fp32-base", "int8", "pruned", "distilled", "morph", "ensemble"]
        );
        for v in &reg.variants {
            assert_eq!(v.batch_costs.len(), 8, "{}: cost table covers 1..=8", v.name);
            assert!(v.cost_at(1).flops > 0, "{}: measured flops", v.name);
            assert!(v.accuracy > 1.0 / 3.0, "{}: above chance", v.name);
            assert!(!v.profile.layers.is_empty(), "{}: per-layer profile", v.name);
            assert!(v.weight_bytes > 0);
        }
    }

    #[test]
    fn batching_amortizes_weight_traffic_in_measured_costs() {
        let (reg, _) = tiny_family();
        let base = &reg.variants[0];
        let b = base.max_batch();
        let c1 = base.cost_at(1);
        let cb = base.cost_at(b);
        // One batched forward reads the weights once; B single-row
        // forwards read them B times. The measured per-request traffic
        // must therefore genuinely shrink with batch size.
        let per_req_1 = (c1.bytes_read + c1.bytes_written) as f64;
        let per_req_b = (cb.bytes_read + cb.bytes_written) as f64 / b as f64;
        assert!(
            per_req_b < per_req_1 / 2.0,
            "batch {b} per-request traffic {per_req_b} vs batch-1 {per_req_1}"
        );
    }

    #[test]
    fn int8_variant_stores_roughly_quarter_the_bytes() {
        let (reg, _) = tiny_family();
        let fp32 = reg.variants[reg.index_of("fp32-base").unwrap()].weight_bytes;
        let int8 = reg.variants[reg.index_of("int8").unwrap()].weight_bytes;
        assert!(
            (int8 as f64) < 0.35 * fp32 as f64,
            "int8 {int8} bytes vs fp32 {fp32} bytes"
        );
    }

    #[test]
    fn int8_variant_serves_natively_on_packed_codes() {
        let (reg, eval) = tiny_family();
        let i = reg.index_of("int8").unwrap();
        assert!(
            matches!(reg.variants[i].model, VariantModel::Quantized(_)),
            "int8 variant must execute on packed codes, not a dequantized f32 net"
        );
        assert!(reg.variants[i].quantized.is_some(), "codes retained for persistence");
        // It still predicts competitively against the f32 teacher.
        let fp32_acc = reg.variants[0].accuracy;
        let int8_acc = reg.variants[i].accuracy;
        assert!(
            int8_acc >= fp32_acc - 0.1,
            "native int8 accuracy {int8_acc} collapsed vs fp32 {fp32_acc}"
        );
        // And its predictions match the dequantized shadow almost always.
        let shadow = match &reg.variants[i].model {
            VariantModel::Quantized(q) => q.to_network(),
            _ => unreachable!(),
        };
        let native = reg.variants[i].model.predict(&eval.x);
        let want = shadow.predict(&eval.x);
        let agree = native.iter().zip(&want).filter(|(a, b)| a == b).count();
        assert!(
            agree * 10 >= native.len() * 9,
            "native int8 agreed with shadow on only {agree}/{}",
            native.len()
        );
    }

    #[test]
    fn int8_batch_costs_count_packed_bytes_not_f32_footprint() {
        // Satellite: the measured bytes-read term that flows into
        // DeviceModel pricing must reflect what actually streams —
        // 1-byte packed codes — not a dequantized f32 shadow.
        let (reg, _) = tiny_family();
        let fp32 = &reg.variants[reg.index_of("fp32-base").unwrap()];
        let int8 = &reg.variants[reg.index_of("int8").unwrap()];
        let b = int8.max_batch();
        let f32_br = fp32.cost_at(b).bytes_read;
        let int8_br = int8.cost_at(b).bytes_read;
        assert!(
            int8_br < f32_br,
            "int8 batch-{b} bytes_read {int8_br} must undercut fp32 {f32_br}"
        );
        // Compute shrinks too: integer GEMM flops ≈ f32 flops without
        // the zero-skip discount, but the byte traffic is the point.
        assert!(int8.cost_at(b).flops > 0);
    }

    #[test]
    fn downgrade_chain_is_cost_sorted_and_deterministic() {
        let (reg, _) = tiny_family();
        let chain = reg.by_cost();
        assert_eq!(chain.len(), reg.variants.len());
        let per_req = |i: usize| {
            let v = &reg.variants[i];
            let c = v.cost_at(v.max_batch());
            (c.flops + c.bytes_read + c.bytes_written) as f64 / v.max_batch() as f64
        };
        for w in chain.windows(2) {
            assert!(per_req(w[0]) <= per_req(w[1]));
        }
        // The ensemble forwards every member: it can never be cheapest.
        assert_ne!(chain[0], reg.index_of("ensemble").unwrap());
        assert_eq!(chain, reg.by_cost(), "same family, same chain");
    }
}
