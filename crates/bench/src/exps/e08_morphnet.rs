//! E8 — MorphNet-style structure optimization under a budget (§2.2).
//!
//! Claim: an optimization step that reallocates width by measured
//! importance beats uniform scaling to the same parameter budget.

use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_distributed::{morph_resize, uniform_baseline, MorphConfig};
use dl_obs::fields;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("budget", "budget", text),
    col("morph widths", "morph_widths", text),
    col("morph params", "morph_params", text),
    col("morph acc", "morph_acc", fixed::<3>),
    col("uniform widths", "uniform_widths", text),
    col("uniform params", "uniform_params", text),
    col("uniform acc", "uniform_acc", fixed::<3>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let data = dl_data::blobs(500, 4, 12, 6.0, 0.6, 50);
    let eval = dl_data::blobs(200, 4, 12, 6.0, 0.6, 51);
    let mut records = Vec::new();
    let mut morph_wins = 0usize;
    let mut budgets_run = 0usize;
    for budget in [200usize, 400, 800] {
        let cfg = MorphConfig {
            param_budget: budget,
            rounds: 3,
            epochs_per_round: 12,
            min_width: 2,
            seed: 52,
        };
        let (_, m) = morph_resize(&data, &eval, &[48, 48], &cfg, &mut init::rng(53));
        let (_, u) = uniform_baseline(&data, &eval, &[48, 48], &cfg, &mut init::rng(53));
        records.push(fields! {
            "budget" => budget, "morph_acc" => m.accuracy, "uniform_acc" => u.accuracy,
            "morph_widths" => format!("{:?}", m.final_widths),
            "uniform_widths" => format!("{:?}", u.final_widths),
            "morph_params" => m.final_params, "uniform_params" => u.final_params,
        });
        budgets_run += 1;
        if m.accuracy >= u.accuracy - 0.02 {
            morph_wins += 1;
        }
    }
    ExperimentResult {
        id: "e8".into(),
        title: "MorphNet-style width reallocation vs uniform scaling".into(),
        tables: vec![COLUMNS],
        verdict: if morph_wins == budgets_run {
            "matches the claim: importance-driven resizing matches or beats uniform scaling \
             at every budget"
                .into()
        } else {
            format!("PARTIAL: morph won {morph_wins}/{budgets_run} budgets")
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [3]);
    }
}
