//! E2 — pruning sparsity sweep (§2.1).
//!
//! Claim: many parameters are unnecessary; accuracy survives moderate
//! pruning and falls off a cliff at extreme sparsity. Loss-saliency
//! pruning should tolerate more sparsity than magnitude pruning.

use crate::table::{f3, flops, ExperimentResult, Table};
use dl_compress::{filter_prune, magnitude_prune, saliency_prune};
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_obs::fields;
use dl_tensor::{acct, init};

/// Measured FLOPs of a sparse-aware forward pass: each dense layer runs as
/// `(Wᵀ·actᵀ)ᵀ` so the matmul kernel's zero-skip iterates over the pruned
/// *weights* — the measured cost genuinely shrinks with sparsity instead
/// of merely modeling the shrink.
fn measured_sparse_fwd(net: &Network, x: &dl_tensor::Tensor) -> u64 {
    let mut m = net.clone();
    let mut total = 0u64;
    let mut act = x.clone();
    for layer in m.layers_mut().iter_mut() {
        if let dl_nn::Layer::Dense(d) = layer {
            let wt = d.weight.transpose();
            let at = act.transpose();
            total += acct::measure(|| wt.matmul(&at)).1.flops;
        }
        act = layer.forward(&act, false);
    }
    total
}

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let (train, test, net, _) = super::digits_setup(600, &[48], 20, 2);
    let base_acc = Trainer::evaluate(&net, &test);
    let mut table = Table::new(&["sparsity", "magnitude acc", "saliency acc", "measured fwd"]);
    let mut records = Vec::new();
    let mut cliff_seen = false;
    let mut survives_half = false;
    let mut dense_fwd = 0u64;
    let mut sparse_fwd = u64::MAX;
    for sparsity in [0.0, 0.3, 0.5, 0.7, 0.9, 0.98] {
        let mut mag = net.clone();
        magnitude_prune(&mut mag, sparsity);
        let mag_acc = Trainer::evaluate(&mag, &test);
        let mag_fwd = measured_sparse_fwd(&mag, &test.x);
        if sparsity == 0.0 {
            dense_fwd = mag_fwd;
        }
        sparse_fwd = sparse_fwd.min(mag_fwd);
        let mut sal = net.clone();
        saliency_prune(&mut sal, &train, sparsity);
        let sal_acc = Trainer::evaluate(&sal, &test);
        table.row(&[
            format!("{:.0}%", sparsity * 100.0),
            f3(mag_acc),
            f3(sal_acc),
            flops(mag_fwd),
        ]);
        records.push(fields! {
            "sparsity" => sparsity, "magnitude_acc" => mag_acc, "saliency_acc" => sal_acc,
            "measured_fwd_flops" => mag_fwd,
        });
        if sparsity == 0.5 && mag_acc > base_acc - 0.1 {
            survives_half = true;
        }
        if sparsity >= 0.9 && mag_acc < base_acc - 0.15 {
            cliff_seen = true;
        }
    }
    // structural pruning row: physically remove half the hidden neurons
    let mut structural = net.clone();
    let report = dl_compress::neuron_prune(&mut structural, 0, 24);
    let s_acc = Trainer::evaluate(&structural, &test);
    table.row(&[
        "24/48 neurons".into(),
        f3(s_acc),
        "-".into(),
        format!(
            "params {} -> {} (real shrink)",
            report.params_before, report.params_after
        ),
    ]);
    records.push(fields! {
        "structural" => true, "accuracy" => s_acc,
        "params_before" => report.params_before, "params_after" => report.params_after,
    });
    // filter-level pruning on a small CNN (the tutorial's example class)
    let cnn_data = dl_data::digits_dataset(150, 0.05, 30);
    let mut cnn = Network::simple_cnn(1, 12, 12, 4, 16, 10, &mut init::rng(31));
    let mut cnn_trainer = Trainer::new(
        TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    cnn_trainer.fit(&mut cnn, &cnn_data);
    let cnn_base = Trainer::evaluate(&cnn, &cnn_data);
    filter_prune(&mut cnn, 0, 1);
    let cnn_pruned = Trainer::evaluate(&cnn, &cnn_data);
    table.row(&[
        "cnn: 1/4 filters".into(),
        f3(cnn_pruned),
        "-".into(),
        format!("filter-level (conv), base {}", f3(cnn_base)),
    ]);
    records.push(fields! {
        "cnn_filter_prune" => true, "base" => cnn_base, "pruned" => cnn_pruned,
    });
    records.push(fields! {
        "dense_measured_fwd" => dense_fwd, "min_measured_fwd" => sparse_fwd,
        "sparse_speedup" => dense_fwd as f64 / sparse_fwd.max(1) as f64,
    });
    ExperimentResult {
        id: "e2".into(),
        title: "pruning: sparsity vs accuracy, with the cliff".into(),
        table,
        verdict: if survives_half && cliff_seen {
            "matches the claim: graceful to ~50-70% sparsity, cliff by 90%+".into()
        } else if survives_half {
            "PARTIAL: graceful at 50%, but no cliff appeared at 90-98% on this model".into()
        } else {
            "MISMATCH: accuracy degraded early".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e2_runs() {
        let r = super::run();
        assert_eq!(r.table.rows.len(), 8);
        assert!(r.verdict.contains("claim") || r.verdict.contains("PARTIAL"));
        // the sparse-aware kernel must measure real savings at 98% sparsity
        let summary = r.records.last().unwrap();
        let speedup = crate::table::field_f64(summary, "sparse_speedup").unwrap();
        assert!(speedup > 2.0, "sparse execution speedup {speedup} too small");
    }
}
