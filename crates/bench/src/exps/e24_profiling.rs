//! E24 — profiling: critical path, lost-time attribution, measured costs.
//!
//! Claim: the dl-prof stack explains where simulated wall time goes.
//! Three checks ground it: (1) in the sync-dominated regime (averaging
//! every step) the critical path through sync rounds explains >= 95% of
//! E5's wall time, and the decomposition closes (no unattributed time);
//! (2) under E22's fault plan, lost time attributes to the workers whose
//! crashes caused it, down to "worker w contributed X% across its k
//! crashes"; (3) the kernel cost accounting agrees with E9's static
//! model exactly on dense layers, so the measured sqrt(n) remat schedule
//! reaches the same peak.

use crate::table::{col, fixed, flops, pct, text, Column, ExperimentResult};
use dl_core::{Category, Metrics, Registry, Technique};
use dl_distributed::{
    local_sgd_traced, resilient_local_sgd_traced, Cluster, Device, Link, LocalSgdConfig,
    ResilientConfig, StorageProfile,
};
use dl_memsched::sqrt_schedule;
use dl_nn::layers::{Dense, Sigmoid};
use dl_nn::{Layer, Network};
use dl_obs::{fields, TimelineRecorder, ToFields};
use dl_prof::{analyze, runs, NetworkProfile};
use dl_tensor::init;

/// Sigmoid activations keep every activation strictly positive, so the
/// matmul zero-skip never fires and dense FLOPs match the model exactly.
fn sigmoid_mlp(dims: &[usize], seed: u64) -> Network {
    let mut rng = init::rng(seed);
    let mut net = Network::new(dims[0]);
    for w in dims.windows(2) {
        net = net
            .push(Layer::Dense(Dense::new(w[0], w[1], &mut rng)))
            .push(Layer::Sigmoid(Sigmoid::new()));
    }
    net
}

const RUNS: &[Column] = &[
    col("run", "run", text),
    col("total s", "total_seconds", fixed::<4>),
    col("compute s", "compute_seconds", fixed::<4>),
    col("sync s", "sync_seconds", fixed::<4>),
    col("ckpt s", "checkpoint_seconds", fixed::<4>),
    col("lost s", "lost_seconds", fixed::<4>),
    col("crit path s", "critical_path_seconds", fixed::<4>),
    col("explained", "explained_fraction", pct::<1>),
];

/// Lost-time attribution of the resilient run.
const WORKERS: &[Column] = &[
    col("worker", "worker", text),
    col("crashes", "crashes", text),
    col("lost s", "lost_seconds", fixed::<4>),
    col("share of lost", "share", pct::<1>),
];

/// Measured against modeled costs on a sigmoid MLP.
const PARITY: &[Column] = &[
    col("dense fwd", "measured_fwd_flops", flops),
    col("dense exact", "dense_exact", text),
    col("sqrt(n) peak measured", "sqrt_peak_measured", text),
    col("sqrt(n) peak modeled", "sqrt_peak_modeled", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let data = dl_data::blobs(400, 3, 8, 6.0, 0.5, 6);
    let eval = dl_data::blobs(150, 3, 8, 6.0, 0.5, 7);
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());

    let mut records = Vec::new();

    // --- pillar 1: E5's sweep under the trace analyzer --------------------
    // One shared timeline; `runs` splits it back into per-period windows.
    let rec = TimelineRecorder::new();
    for period in [1usize, 16] {
        // the measurements we want are the trace events, not the report
        let _ = local_sgd_traced(
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
            &rec,
        );
    }
    let events = rec.events();
    let windows = runs(&events, "local_sgd");
    let mut local_profiles = Vec::new();
    for (window, period) in windows.iter().zip([1usize, 16]) {
        let p = analyze(window);
        let label = format!("local sgd, sync={period}");
        let mut f = p.to_fields();
        f.insert(0, ("run".into(), label.into()));
        records.push(f);
        local_profiles.push(p);
    }
    // Averaging every step means every step sits on the coordinator's
    // serialized path: the critical path must explain almost everything.
    let sync_dominated = local_profiles
        .first()
        .map(|p| p.explained_fraction() >= 0.95)
        .unwrap_or(false);
    // At sync=16 compute gaps widen 16x between rounds, so the fraction
    // must genuinely fall — the analyzer distinguishes the regimes.
    let regimes_differ = local_profiles.len() == 2
        && local_profiles[1].explained_fraction() < local_profiles[0].explained_fraction();
    let closes = local_profiles
        .iter()
        .all(|p| p.unattributed_seconds() < 1e-9 + 0.01 * p.total_seconds);

    // --- pillar 2: E22's traced point, lost time per crashing worker -----
    let (_, sync_period, interval) = super::e22_fault_tolerance::TRACED_CONFIG;
    let frec = TimelineRecorder::new();
    let (_, report) = resilient_local_sgd_traced(
        &cluster,
        &data,
        &eval,
        &[8, 32, 3],
        &ResilientConfig {
            base: LocalSgdConfig {
                sync_period,
                steps: 256,
                batch_size: 16,
                lr: 0.05,
                seed: 20,
            },
            checkpoint_interval: interval,
            storage: StorageProfile::blob_store(),
            detection_timeout: 5e-3,
            ..ResilientConfig::default()
        },
        &super::e22_fault_tolerance::faulty_plan(),
        &frec,
    );
    let fevents = frec.events();
    let fwindows = runs(&fevents, "resilient_local_sgd");
    let fault = fwindows.first().map(|w| analyze(w)).unwrap_or_default();
    let flabel = format!("resilient, sync={sync_period} ckpt={interval}");
    let mut f = fault.to_fields();
    f.insert(0, ("run".into(), flabel.into()));
    records.push(f);
    for w in &fault.workers {
        records.push(w.to_fields());
    }
    // The analyzed window and the run report describe the same simulated
    // interval; micro-tick rounding is the only slack allowed.
    let time_parity = fault.total_seconds / report.simulated_seconds.max(1e-12);
    let attribution = fault.crash_count > 0
        && fault.lost_seconds() > 0.0
        && (fault.workers.iter().map(|w| w.share).sum::<f64>() - 1.0).abs() < 1e-6
        && (0.999..1.001).contains(&time_parity);

    // --- pillar 3: measured kernel costs vs E9's static model ------------
    let mut dims = vec![64usize];
    for i in 0..12 {
        dims.push([96, 48, 64][i % 3]);
    }
    dims.push(10);
    let mut net = sigmoid_mlp(&dims, 24);
    let x = init::uniform([32, 64], 0.05, 1.0, &mut init::rng(25));
    let prof = NetworkProfile::profile(&mut net, &x);
    let dense_exact = prof
        .layers
        .iter()
        .filter(|l| l.name == "dense")
        .all(|l| l.forward.flops == l.modeled.forward_flops);
    let sq_measured = sqrt_schedule(&prof.measured_layer_costs());
    let sq_modeled = sqrt_schedule(&net.layer_costs(32));
    let peak_match = sq_measured.peak_bytes == sq_modeled.peak_bytes;
    records.push(fields! {
        "forward_parity" => prof.forward_parity(),
        "backward_parity" => prof.backward_parity(),
        "measured_fwd_flops" => prof.forward.flops,
        "peak_live_bytes" => prof.peak_live_bytes,
        "sqrt_peak_measured" => sq_measured.peak_bytes,
        "sqrt_peak_modeled" => sq_modeled.peak_bytes,
        "dense_exact" => dense_exact,
    });

    // The profiler is itself an observability technique: it spends trace
    // memory to make every other tradeoff's cost measurable.
    let mut registry = Registry::new();
    registry
        .add(Technique {
            name: "trace-profiler".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: report.accuracy,
                train_flops: 0,
                inference_flops: 0,
                memory_bytes: ((events.len() + fevents.len())
                    * std::mem::size_of::<dl_obs::Event>()) as u64,
                energy_kwh: 0.0,
            },
            baseline: Some("untraced".into()),
        })
        .expect("unique");

    let top = fault.workers.first();
    records.push(fields! {
        "sync_dominated_explained" => local_profiles
            .first()
            .map(|p| p.explained_fraction())
            .unwrap_or(0.0),
        "relaxed_explained" => local_profiles
            .get(1)
            .map(|p| p.explained_fraction())
            .unwrap_or(0.0),
        "time_parity" => time_parity,
        "top_lost_worker" => top.map(|w| w.worker).unwrap_or(0),
        "top_lost_share" => top.map(|w| w.share).unwrap_or(0.0),
        "crashes" => fault.crash_count,
        "observability_techniques" => registry.by_category(Category::Observability).len(),
    });

    let ok = sync_dominated && regimes_differ && closes && attribution && dense_exact && peak_match;
    ExperimentResult {
        id: "e24".into(),
        title: "profiling: critical path, lost-time attribution, measured costs".into(),
        tables: vec![RUNS, WORKERS, PARITY],
        verdict: if ok {
            let w = top.expect("attribution implies a worker");
            format!(
                "matches the claim: the critical path explains {:.3} of sync-dominated wall time, \
                 worker {} contributed {:.0}% of lost time across its {} crashes, and measured \
                 dense costs equal the static model",
                local_profiles[0].explained_fraction(),
                w.worker,
                w.share * 100.0,
                w.crashes
            )
        } else {
            format!(
                "PARTIAL: sync_dominated={sync_dominated} regimes_differ={regimes_differ} \
                 closes={closes} attribution={attribution} dense_exact={dense_exact} \
                 peak_match={peak_match}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e24_profiles_and_attributes() {
        let r = super::run();
        assert!(
            r.verdict.contains("matches the claim"),
            "verdict: {}",
            r.verdict
        );
        assert_eq!(r.row_counts(), [3, 3, 1]);
        let summary = r.records.last().unwrap();
        let explained = crate::table::field_f64(summary, "sync_dominated_explained").unwrap();
        assert!(explained >= 0.95, "critical path explains only {explained}");
        let relaxed = crate::table::field_f64(summary, "relaxed_explained").unwrap();
        assert!(relaxed < explained);
    }
}
