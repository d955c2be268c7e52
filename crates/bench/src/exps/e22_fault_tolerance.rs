//! E22 — fault tolerance: the checkpoint-interval tradeoff (§2.1,
//! robustness).
//!
//! Claim: under a nonzero failure rate, the time to complete a fixed
//! workload has an *interior* minimum in the checkpoint interval (the
//! classic Young/Daly tradeoff) — checkpointing every sync round drowns
//! in write overhead, checkpointing rarely drowns in replayed work after
//! each crash — and Local SGD's larger sync periods make recovery
//! cheaper by shrinking the per-step replay cost.

use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_core::{Category, Constraint, Metrics, Registry, Technique, TradeoffNavigator};
use dl_distributed::{
    resilient_local_sgd_traced, Cluster, Device, FaultEvent, FaultPlan, FaultProfile, Link,
    LocalSgdConfig, ResilientConfig, StorageProfile,
};
use dl_obs::{fields, FieldValue, NullRecorder, Recorder, ToFields};

const STEPS: usize = 256;
const WORKERS: usize = 4;

/// Crash/repair schedule with worker 0 pinned (never crashed) so every
/// configuration runs to completion and the sweeps stay comparable.
/// Scans seeds deterministically so the sweep always has several crashes
/// to recover from, whatever the RNG deals to individual seeds.
pub(crate) fn faulty_plan() -> FaultPlan {
    (97u64..117)
        .map(|seed| {
            let profile = FaultProfile::crashes(seed, 48.0, 16.0);
            let full = FaultPlan::from_profile(&profile, WORKERS, STEPS);
            FaultPlan::new(
                full.events()
                    .iter()
                    .filter(|e| {
                        !matches!(
                            e,
                            FaultEvent::WorkerCrash { worker: 0, .. }
                                | FaultEvent::WorkerRejoin { worker: 0, .. }
                        )
                    })
                    .copied()
                    .collect(),
            )
        })
        .find(|p| p.crash_count() >= 8)
        .expect("some seed in the scan must crash workers 1..4 repeatedly")
}

/// The sweep configuration whose trace tells the headline story: Local
/// SGD (sync 8) with the interior-optimal checkpoint interval under the
/// faulty plan. `run_with` threads the recorder into exactly this run.
pub const TRACED_CONFIG: (&str, usize, usize) = ("mtbf48", 8, 32);

const SWEEP: &[Column] = &[
    col("crashes", "faults", text),
    col("sync", "sync_period", text),
    col("ckpt every", "checkpoint_interval", never_if_zero),
    col("total s", "simulated_seconds", fixed::<4>),
    col("goodput smp/s", "goodput", fixed::<0>),
    col("lost smp", "lost_samples", text),
    col("recovery s", "recovery_seconds", fixed::<4>),
    col("ckpt s", "checkpoint_seconds", fixed::<4>),
    col("accuracy", "accuracy", fixed::<3>),
];

const QUERY: &[Column] = &[
    col("query: ckpt storage <= B", "query_ckpt_budget", text),
    col("pick", "pick", text),
];

/// A checkpoint interval, where 0 means checkpointing is off.
fn never_if_zero(v: &FieldValue) -> String {
    match v.as_u64() {
        Some(0) => "never".into(),
        _ => text(v),
    }
}

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    run_with(&NullRecorder::new())
}

/// Runs the experiment, tracing the [`TRACED_CONFIG`] sweep point onto
/// `rec` (crashes, rollbacks, rejoins and checkpoint writes become
/// events; see `dl_distributed::resilient_local_sgd_traced`).
pub fn run_with(rec: &dyn Recorder) -> ExperimentResult {
    let data = dl_data::blobs(400, 3, 8, 6.0, 0.5, 6);
    let eval = dl_data::blobs(150, 3, 8, 6.0, 0.5, 7);
    let cluster = Cluster::homogeneous(WORKERS, Device::accelerator(), Link::ethernet());
    let dims = [8, 32, 3];
    let faulty = faulty_plan();
    let clean = FaultPlan::none();

    let mut records = Vec::new();
    let mut registry = Registry::new();
    // completion time [(faults, sync_period, interval)]
    let mut seconds = std::collections::BTreeMap::new();
    for (label, plan) in [("none", &clean), ("mtbf48", &faulty)] {
        for sync_period in [1usize, 8] {
            for interval in [0usize, 8, 32, 128] {
                let config = ResilientConfig {
                    base: LocalSgdConfig {
                        sync_period,
                        steps: STEPS,
                        batch_size: 16,
                        lr: 0.05,
                        seed: 20,
                    },
                    checkpoint_interval: interval,
                    storage: StorageProfile::blob_store(),
                    detection_timeout: 5e-3,
                    ..ResilientConfig::default()
                };
                let null = NullRecorder::new();
                let point_rec: &dyn Recorder = if (label, sync_period, interval) == TRACED_CONFIG {
                    rec
                } else {
                    &null
                };
                let (net, report) = resilient_local_sgd_traced(
                    &cluster, &data, &eval, &dims, &config, plan, point_rec,
                );
                // One serialization path: the same fields annotate the
                // run span and become the machine-readable record.
                let mut fields = report.to_fields();
                fields.insert(0, ("faults".into(), label.into()));
                records.push(fields.clone());
                seconds.insert((label, sync_period, interval), report.simulated_seconds);
                if label == "mtbf48" {
                    let step_flops = net.cost_profile(16).train_step_flops();
                    registry
                        .add(Technique {
                            name: format!("elastic-s{sync_period}-i{interval}"),
                            category: Category::Robustness,
                            metrics: Metrics {
                                accuracy: report.accuracy,
                                train_flops: (report.total_samples / 16) * step_flops,
                                inference_flops: net.cost_profile(1).forward_flops,
                                memory_bytes: report.checkpoint_bytes,
                                energy_kwh: 0.0,
                            },
                            baseline: Some("elastic-s1-i0".into()),
                        })
                        .expect("unique");
                }
            }
        }
    }

    // navigator query over the robustness techniques: best accuracy under
    // a checkpoint-storage budget
    let nav = TradeoffNavigator::new(&registry);
    let budget = 64 * 1024u64;
    let pick = nav.recommend(&[Constraint::MaxMemoryBytes(budget)]);
    records.push(fields! {
        "query_ckpt_budget" => budget,
        "pick" => pick.map_or_else(|| "none".to_string(), |t| t.name.clone()),
    });
    let t = |sync: usize, interval: usize| seconds[&("mtbf48", sync, interval)];
    // the headline: at sync 8 under faults, a middling interval finishes
    // the workload faster than both extremes and "never"
    let interior_optimum = t(8, 32) < t(8, 8) && t(8, 32) < t(8, 128) && t(8, 32) < t(8, 0);
    // Local SGD amortizes recovery: its best faulted completion time
    // beats synchronous training's best
    let best = |sync: usize| {
        [0usize, 8, 32, 128]
            .iter()
            .map(|&i| t(sync, i))
            .fold(f64::INFINITY, f64::min)
    };
    let local_sgd_wins = best(8) < best(1);
    // without faults, checkpointing is pure overhead
    let clean_overhead = seconds[&("none", 8, 0)] <= seconds[&("none", 8, 8)];
    ExperimentResult {
        id: "e22".into(),
        title: "fault tolerance: checkpoint interval vs completion time under crashes".into(),
        tables: vec![SWEEP, QUERY],
        verdict: if interior_optimum && local_sgd_wins && clean_overhead {
            "matches the claim: completion time bottoms out at an interior checkpoint \
             interval (frequent checkpoints pay write overhead, rare ones replay lost \
             work), larger sync periods amortize recovery, and fault-free runs see \
             checkpointing as pure cost"
                .into()
        } else {
            format!(
                "PARTIAL: interior_optimum={interior_optimum} (i8={:.4}s i32={:.4}s \
                 i128={:.4}s never={:.4}s) local_sgd_wins={local_sgd_wins} \
                 clean_overhead={clean_overhead}",
                t(8, 8),
                t(8, 32),
                t(8, 128),
                t(8, 0)
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e22_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [16, 1]);
    }

    #[test]
    fn e22_plan_spares_worker_zero() {
        let plan = super::faulty_plan();
        assert!(plan.crash_count() > 0, "the sweep needs real crashes");
        assert!(plan
            .events()
            .iter()
            .all(|e| !matches!(e, dl_distributed::FaultEvent::WorkerCrash { worker: 0, .. })));
    }
}
