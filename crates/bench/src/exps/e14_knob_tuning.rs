//! E14 — RL knob tuning over a simulated database (Part 2).
//!
//! Claim: reinforcement learning can tune database knobs toward high
//! throughput, competitively with search baselines under the same
//! evaluation budget, while learning a reusable policy.

use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_learneddb::tuner::{grid_search, random_search, tuner_rng};
use dl_learneddb::{DbSimulator, QLearningTuner};
use dl_obs::fields;

const COLUMNS: &[Column] = &[
    col("workload", "workload", text),
    col("optimum", "optimum", fixed::<0>),
    col("q-learning", "qlearning", fixed::<0>),
    col("random", "random", fixed::<0>),
    col("grid", "grid", fixed::<0>),
    col("q-learn % of opt", "qlearn_of_opt", fixed::<3>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let mut records = Vec::new();
    let mut all_near_optimal = true;
    for (name, scan, write) in [
        ("scan-heavy", 0.8, 0.1),
        ("point-heavy", 0.1, 0.1),
        ("write-heavy", 0.3, 0.7),
    ] {
        let db = DbSimulator::new(8, scan, write);
        let (_, opt) = db.optimum();
        // average tuner/baseline performance over seeds
        let mut q_sum = 0.0;
        let mut r_sum = 0.0;
        let mut g_sum = 0.0;
        let seeds = 5;
        for seed in 0..seeds {
            let mut tuner = QLearningTuner::new(8);
            let mut rng = tuner_rng(seed);
            let (_, q_best, evals) = tuner.tune(&db, 25, 20, &mut rng);
            let mut rng = tuner_rng(seed + 1000);
            let (_, r_best) = random_search(&db, evals, &mut rng);
            let (_, g_best, _) = grid_search(&db, evals);
            q_sum += q_best;
            r_sum += r_best;
            g_sum += g_best;
        }
        let (q, r, g) = (
            q_sum / seeds as f64,
            r_sum / seeds as f64,
            g_sum / seeds as f64,
        );
        records.push(fields! {
            "workload" => name, "optimum" => opt,
            "qlearning" => q, "random" => r, "grid" => g, "qlearn_of_opt" => q / opt,
        });
        if q / opt < 0.95 {
            all_near_optimal = false;
        }
    }
    ExperimentResult {
        id: "e14".into(),
        title: "knob tuning: Q-learning vs random and grid search".into(),
        tables: vec![COLUMNS],
        verdict: if all_near_optimal {
            "matches the claim: RL tuning reaches >95% of the exhaustive optimum on every \
             workload within the same evaluation budget as the baselines"
                .into()
        } else {
            "PARTIAL: RL fell below 95% of optimum on some workload".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e14_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [3]);
    }
}
