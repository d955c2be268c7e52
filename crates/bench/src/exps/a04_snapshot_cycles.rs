//! A4 (ablation) — cycle length in Snapshot Ensembles, plus FGE.
//!
//! Design choice under test: how a fixed training budget is split into
//! cycles. Many short cycles give many weak, under-converged members;
//! few long cycles give few strong but similar members. FGE's warmup +
//! short triangular cycles is the refinement the literature proposes.

use crate::table::{col, fixed, flops, text, Column, ExperimentResult};
use dl_ensemble::{fge, snapshot, FgeConfig};
use dl_obs::fields;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("strategy", "strategy", text),
    col("members", "members", text),
    col("cycle len", "cycle", text),
    col("warmup", "warmup", text),
    col("accuracy", "accuracy", fixed::<3>),
    col("train flops", "train_flops", flops),
];

/// Runs the ablation.
pub fn run() -> ExperimentResult {
    let all = dl_data::digits_dataset(600, 0.12, 220);
    let (train, test) = all.split(0.3, 221);
    let budget = 24usize; // total epochs, fixed across variants
    let mut records = Vec::new();
    let mut best_snapshot = 0.0f64;
    for (members, cycle) in [(12usize, 2usize), (6, 4), (4, 6), (2, 12)] {
        let (_, report) = snapshot(
            &train,
            &test,
            &[144, 32, 10],
            members,
            cycle,
            222,
            &mut init::rng(222),
        );
        records.push(fields! {
            "strategy" => "snapshot", "members" => members, "cycle" => cycle,
            "accuracy" => report.accuracy, "train_flops" => report.train_flops,
        });
        best_snapshot = best_snapshot.max(report.accuracy);
    }
    // FGE at the same budget: 12 warmup + 4 cycles of 3
    let fge_cfg = FgeConfig {
        warmup_epochs: budget / 2,
        members: 4,
        cycle_len: 3,
        floor: 0.1,
        seed: 223,
    };
    let (_, fge_report) = fge(&train, &test, &[144, 32, 10], &fge_cfg, &mut init::rng(223));
    records.push(fields! {
        "strategy" => "fge", "accuracy" => fge_report.accuracy,
        "members" => fge_cfg.members, "cycle" => fge_cfg.cycle_len,
        "warmup" => fge_cfg.warmup_epochs, "train_flops" => fge_report.train_flops,
    });
    let extremes_lose = {
        use crate::table::field_f64;
        let shortest = field_f64(&records[0], "accuracy").unwrap_or(0.0);
        let middle: f64 = records[1..3]
            .iter()
            .map(|r| field_f64(r, "accuracy").unwrap_or(0.0))
            .fold(0.0, f64::max);
        middle >= shortest
    };
    ExperimentResult {
        id: "a4".into(),
        title: format!("ablation: snapshot cycle length at a fixed {budget}-epoch budget"),
        tables: vec![COLUMNS],
        verdict: if extremes_lose && fge_report.accuracy > best_snapshot - 0.05 {
            "the design choice matters: very short cycles under-converge members; \
             mid-length cycles win, and FGE's warmup+short-cycles matches the best \
             snapshot split"
                .into()
        } else {
            format!(
                "inconclusive on this task: extremes_lose={extremes_lose} fge={:.3} vs best snapshot={:.3}",
                fge_report.accuracy, best_snapshot
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a4_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [5]);
    }
}
