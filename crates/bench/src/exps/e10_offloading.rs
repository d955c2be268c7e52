//! E10 — offloading intermediates to host memory (§2.3, vDNN).
//!
//! Claim: offloading reduces device memory at the cost of reread time
//! over the host link; the cost is hidden while transfers fit under
//! compute.

use crate::table::{bytes, col, fixed, pct, Column, ExperimentResult};
use dl_memsched::offload_plan;
use dl_obs::fields;
use dl_prof::NetworkProfile;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("offload %", "fraction", pct::<0>),
    col("device bytes", "device_bytes", bytes),
    col("host bytes", "host_bytes", bytes),
    col("slowdown (fast link)", "slowdown_fast", fixed::<3>),
    col("slowdown (slow link)", "slowdown_slow", fixed::<3>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let net = dl_nn::Network::mlp(&[512, 2048, 2048, 1024, 512, 10], &mut init::rng(70));
    let profile = net.cost_profile(128);
    // ground the model in a measurement: profile the same architecture at a
    // small batch and check the modeled activation bytes against what a
    // real forward/backward pass holds live (geometry scales linearly in
    // batch, so the parity at batch 8 validates the batch-128 model).
    let probe_batch = 8;
    let x = init::uniform([probe_batch, 512], -1.0, 1.0, &mut init::rng(71));
    let measured = NetworkProfile::profile(&mut net.clone(), &x);
    let modeled_small = net.cost_profile(probe_batch);
    let act_parity = measured.peak_live_bytes as f64
        / (measured.param_bytes + measured.input_bytes + modeled_small.activation_bytes()) as f64;
    let flops_per_sec = 10e12;
    let mut records = Vec::new();
    let mut hidden_on_fast = true;
    let mut visible_on_slow = false;
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let fast = offload_plan(&profile, frac, flops_per_sec, 50e9); // PCIe5-class
        let slow = offload_plan(&profile, frac, flops_per_sec, 2e9); // constrained link
        records.push(fields! {
            "fraction" => frac,
            "device_bytes" => fast.device_bytes,
            "slowdown_fast" => fast.slowdown(),
            "slowdown_slow" => slow.slowdown(),
            "host_bytes" => fast.host_bytes,
        });
        if frac > 0.0 {
            if fast.slowdown() > 1.001 {
                hidden_on_fast = false;
            }
            if slow.slowdown() > 1.2 {
                visible_on_slow = true;
            }
        }
    }
    records.push(fields! {
        "probe_batch" => probe_batch,
        "measured_peak_live_bytes" => measured.peak_live_bytes,
        "measured_fwd_flops" => measured.forward.flops,
        "activation_parity" => act_parity,
    });
    ExperimentResult {
        id: "e10".into(),
        title: "offloading: device memory vs training-time overhead".into(),
        tables: vec![COLUMNS],
        verdict: if hidden_on_fast && visible_on_slow {
            "matches the claim: transfers hide behind compute on a fast link and surface \
             as training-time overhead on a slow one"
                .into()
        } else {
            format!("PARTIAL: hidden_on_fast={hidden_on_fast} visible_on_slow={visible_on_slow}")
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [5]);
    }
}
