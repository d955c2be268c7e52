//! E18 — LIME fidelity and feature recovery (§4.2).
//!
//! Claim: LIME's local linear surrogate explains individual predictions
//! faithfully (high local R²) and its top feature matches the known
//! generative cause; fidelity stabilizes as the perturbation sample
//! grows. Saliency and the surrogate tree corroborate.

use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_interpret::{lime_explain, saliency, SurrogateTree};
use dl_nn::{Dataset, Network, Optimizer, TrainConfig, Trainer};
use dl_obs::fields;
use dl_tensor::init;

const LIME: &[Column] = &[
    col("samples", "samples", text),
    col("median local R²", "median_r2", fixed::<3>),
    col("top-feature recovery", "recovery", fixed::<3>),
];

const CORROBORATION: &[Column] = &[
    col("saliency top feature", "saliency_top", text),
    col("agrees", "saliency_agrees", text),
    col("tree surrogate fidelity", "tree_fidelity", fixed::<3>),
    col("tree nodes", "tree_nodes", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    // ground truth: label depends only on feature 2 of 8
    let causal = 2usize;
    let mut rng = init::rng(140);
    let x = init::uniform([400, 8], -1.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..400)
        .map(|i| usize::from(x.get(&[i, causal]) > 0.0))
        .collect();
    let data = Dataset::new(x, y, 2);
    let mut net = Network::mlp(&[8, 16, 2], &mut init::rng(141));
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, &data);
    let mut records = Vec::new();
    let mut final_recovery = 0.0;
    let mut final_r2 = 0.0;
    for samples in [50usize, 150, 500] {
        let mut r2s = Vec::new();
        let mut recovered = 0usize;
        let probes = 20;
        for p in 0..probes {
            let xi = data.x.select_rows(&[p * 17]);
            let exp = lime_explain(&mut net, &xi, 1, samples, 2.0, 142 + p as u64);
            r2s.push(exp.r_squared);
            if exp.top_features(1) == vec![causal] {
                recovered += 1;
            }
        }
        r2s.sort_by(f64::total_cmp);
        let med = r2s[r2s.len() / 2];
        let rec = recovered as f64 / probes as f64;
        records.push(fields! {"samples" => samples, "median_r2" => med, "recovery" => rec});
        final_recovery = rec;
        final_r2 = med;
    }
    // corroboration: saliency and a global surrogate point the same way
    let xi = data.x.select_rows(&[0]);
    let sal = saliency(&mut net, &xi, 1);
    let sal_top = sal.argmax();
    let tree = SurrogateTree::distill(&mut net, &data.x, 3);
    let fid = tree.fidelity(&mut net, &data.x);
    records.push(fields! {
        "saliency_top" => sal_top, "tree_fidelity" => fid,
        "saliency_agrees" => sal_top == causal, "tree_nodes" => tree.node_count(),
    });
    ExperimentResult {
        id: "e18".into(),
        title: "LIME fidelity vs sample count + saliency/surrogate corroboration".into(),
        tables: vec![LIME, CORROBORATION],
        verdict: if final_recovery >= 0.9 && final_r2 > 0.3 && sal_top == causal && fid > 0.85 {
            "matches the claim: LIME recovers the causal feature with high local fidelity; \
             saliency and the tree surrogate agree"
                .into()
        } else {
            format!(
                "PARTIAL: recovery={final_recovery} r2={final_r2:.2} saliency_agrees={} fidelity={fid:.2}",
                sal_top == causal
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e18_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [3, 1]);
    }
}
