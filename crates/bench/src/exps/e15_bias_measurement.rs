//! E15 — biased data yields biased models (§4.1).
//!
//! Claim: the model inherits (and the fairness metrics recover) the bias
//! injected into the training data — even though the protected attribute
//! is *not* a model input (the proxy column leaks it, the tutorial's
//! retina example).

use crate::table::{col, fixed, Column, ExperimentResult};
use dl_data::{CensusConfig, CensusData};
use dl_fairness::FairnessReport;
use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
use dl_obs::fields;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("injected bias", "bias", fixed::<3>),
    col("data base-rate gap", "data_gap", fixed::<3>),
    col("model parity gap", "parity_gap", fixed::<3>),
    col("eq-odds gap", "eq_odds_gap", fixed::<3>),
    col("accuracy", "accuracy", fixed::<3>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let mut records = Vec::new();
    let mut gaps = Vec::new();
    for bias in [0.0f64, 0.2, 0.4, 0.6, 0.8] {
        let census = CensusData::generate(CensusConfig {
            n: 3000,
            bias,
            seed: 110,
            ..CensusConfig::default()
        });
        let data = census.to_dataset();
        let mut net = Network::mlp(&[6, 16, 2], &mut init::rng(111));
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        let preds = net.predict(&data.x);
        let report = FairnessReport::new(&preds, &census.labels, &census.groups);
        let data_gap = census.base_rate(0) - census.base_rate(1);
        records.push(fields! {
            "bias" => bias, "data_gap" => data_gap,
            "parity_gap" => report.demographic_parity_diff(),
            "eq_odds_gap" => report.equalized_odds_gap(),
            "accuracy" => report.accuracy(),
        });
        gaps.push(report.demographic_parity_diff());
    }
    let tracks = gaps.windows(2).filter(|w| w[1] > w[0] - 0.03).count() >= 3
        && gaps.last().copied().unwrap_or(0.0) > gaps[0] + 0.15;
    ExperimentResult {
        id: "e15".into(),
        title: "bias knob sweep: injected data bias vs measured model bias".into(),
        tables: vec![COLUMNS],
        verdict: if tracks {
            "matches the claim: the model's demographic-parity gap tracks the injected bias \
             even though group membership is never a feature"
                .into()
        } else {
            "PARTIAL: the measured gap did not track the injected bias cleanly".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e15_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [5]);
    }
}
