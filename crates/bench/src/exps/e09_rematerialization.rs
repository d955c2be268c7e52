//! E9 — checkpointing/rematerialization schedules (§2.3).
//!
//! Claim: equidistant checkpoints train in geometrically less memory at
//! the cost of one extra forward pass; Checkmate-style optimization finds
//! the best schedule for *any* budget.

use crate::table::{bytes, col, flops, text, Column, ExperimentResult};
use dl_memsched::{optimal_schedule, sqrt_schedule, store_all};
use dl_obs::fields;
use dl_prof::NetworkProfile;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("schedule", "schedule", text),
    col("budget", "budget", bytes),
    col("feasible", "feasible", text),
    col("peak memory", "peak", bytes),
    col("recompute", "recompute", flops),
    col("checkpoints", "checkpoints", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    // a 24-layer MLP with uneven layer sizes at batch 64
    let mut dims = vec![256usize];
    for i in 0..24 {
        dims.push([512, 64, 256, 128][i % 4]);
    }
    dims.push(10);
    let net = dl_nn::Network::mlp(&dims, &mut init::rng(60));
    let costs = net.layer_costs(64);
    // measured counterpart: drive a real forward/backward pass under the
    // kernel cost accounting and schedule on what the kernels actually did
    // (ReLU zeros make measured FLOPs genuinely smaller than modeled).
    let x = init::uniform([64, 256], -1.0, 1.0, &mut init::rng(61));
    let measured_prof = NetworkProfile::profile(&mut net.clone(), &x);
    let measured_costs = measured_prof.measured_layer_costs();
    let base = store_all(&costs);
    let sq = sqrt_schedule(&costs);
    let sq_measured = sqrt_schedule(&measured_costs);
    let mut records = Vec::new();
    records.push(fields! {
        "schedule" => "store-all", "peak" => base.peak_bytes, "recompute" => 0u64,
        "checkpoints" => base.checkpoints.len(),
    });
    records.push(fields! {
        "schedule" => "sqrt(n)", "peak" => sq.peak_bytes, "recompute" => sq.recompute_flops,
        "checkpoints" => sq.checkpoints.len(),
    });
    records.push(fields! {
        "schedule" => "sqrt(n), measured",
        "peak" => sq_measured.peak_bytes,
        "recompute" => sq_measured.recompute_flops,
        "measured_fwd_flops" => measured_prof.forward.flops,
        "modeled_fwd_flops" => measured_prof.modeled.forward_flops,
        "peak_live_bytes" => measured_prof.peak_live_bytes,
        "checkpoints" => sq_measured.checkpoints.len(),
    });
    // optimal DP across a budget sweep
    let mut optimal_beats_sqrt = false;
    for frac in [0.5, 0.25, 0.15, 0.08] {
        let budget = (base.peak_bytes as f64 * frac) as u64;
        match optimal_schedule(&costs, budget) {
            Some(opt) => {
                records.push(fields! {
                    "schedule" => format!("optimal@{:.0}%", frac * 100.0),
                    "budget" => budget, "peak" => opt.peak_bytes,
                    "recompute" => opt.recompute_flops,
                    "checkpoints" => opt.checkpoints.len(), "feasible" => true,
                });
                if opt.peak_bytes <= sq.peak_bytes && opt.recompute_flops <= sq.recompute_flops {
                    optimal_beats_sqrt = true;
                }
            }
            None => {
                records.push(fields! {
                    "schedule" => format!("optimal@{:.0}%", frac * 100.0),
                    "budget" => budget, "feasible" => false,
                });
            }
        }
    }
    let sqrt_saves = sq.peak_bytes * 2 < base.peak_bytes;
    let one_extra_fwd = sq.recompute_flops <= costs.iter().map(|c| c.forward_flops).sum();
    // measured activations mirror the model exactly (geometry is geometry),
    // so the measured schedule must reach the same peak; only its
    // recompute FLOPs may shrink (ReLU zero-skips).
    debug_assert_eq!(sq_measured.peak_bytes, sq.peak_bytes);
    ExperimentResult {
        id: "e9".into(),
        title: "rematerialization: store-all vs sqrt(n) vs optimal DP under budgets".into(),
        tables: vec![COLUMNS],
        verdict: if sqrt_saves && one_extra_fwd && optimal_beats_sqrt {
            "matches the claim: sqrt(n) cuts memory for <= one extra forward; the DP \
             dominates sqrt(n) and extends to any feasible budget"
                .into()
        } else {
            format!(
                "PARTIAL: sqrt_saves={sqrt_saves} one_extra={one_extra_fwd} dp_dominates={optimal_beats_sqrt}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e9_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [7]);
    }
}
