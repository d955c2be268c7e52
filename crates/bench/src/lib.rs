//! # dl-bench
//!
//! The experiment harness: one module per experiment in `DESIGN.md`'s
//! index (E1-E31), each regenerating one quantitative claim of the
//! tutorial. Each experiment states every number once, as a field of its
//! records; the `exp` binary dispatches on experiment id and prints the
//! tables its column lists render from those records. Every run also
//! writes the id, title, verdict and records as JSON under
//! `target/experiments/`, which `EXPERIMENTS.md` references (E21's
//! tradeoff navigator re-measures E1-E4 in process rather than reading
//! them). `exp <id> --trace <path>` additionally exports the run as a
//! Chrome `trace_event` file.
//!
//! Baselines: `exp <id> --baseline <dir>` writes the result's
//! [`ExperimentResult::baseline_json`] to `<dir>/BENCH_<ID>.json`, and
//! `exp check --against <dir>` re-runs each experiment and compares that
//! encoding with the committed file byte for byte.
//!
//! Determinism: every experiment takes no inputs and uses fixed seeds, so
//! reruns reproduce identical rows (E26 and E31 also report wall-clock
//! figures, but only as string fields that the baseline leaves out).
//! Traces are timestamped by `dl_obs::VirtualClock` simulated time, so
//! they are byte-reproducible too.

#![warn(missing_docs)]

pub mod exps;
pub mod table;

pub use table::ExperimentResult;

use dl_obs::{fields, NullRecorder, Recorder};

/// Runs one experiment by id (`"e1"`..`"e31"`). Returns its result.
///
/// # Errors
/// Returns an error string for unknown ids.
pub fn run_experiment(id: &str) -> Result<ExperimentResult, String> {
    run_experiment_traced(id, &NullRecorder::new())
}

/// Runs one experiment by id, emitting events onto `rec`: every
/// experiment becomes an `experiment` span, and the instrumented
/// experiments (E5's Local SGD sweep, E22's headline fault scenario, E27's
/// headline crash-storm cell, E28's monitored ramp-overload cell, E29's
/// traced crash-storm cell)
/// additionally thread the recorder into their training drivers.
///
/// # Errors
/// Returns an error string for unknown ids.
pub fn run_experiment_traced(id: &str, rec: &dyn Recorder) -> Result<ExperimentResult, String> {
    let canonical = id.to_ascii_lowercase();
    let span = rec.span_start(0, "experiment", fields! { "id" => canonical.clone() });
    // Route per-kernel spans (kernel.matmul etc.) from the parallel
    // compute backend onto the same recorder for the span's duration.
    let result = dl_tensor::par::with_recorder(rec, || dispatch(&canonical, rec));
    match &result {
        Ok(r) => rec.span_end(
            span,
            fields! { "id" => canonical.clone(), "verdict" => r.verdict.clone() },
        ),
        Err(e) => rec.span_end(
            span,
            fields! { "id" => canonical.clone(), "error" => e.clone() },
        ),
    }
    result
}

fn dispatch(id: &str, rec: &dyn Recorder) -> Result<ExperimentResult, String> {
    match id {
        "e1" => Ok(exps::e01_quantization::run()),
        "e2" => Ok(exps::e02_pruning::run()),
        "e3" => Ok(exps::e03_distillation::run()),
        "e4" => Ok(exps::e04_ensembles::run()),
        "e5" => Ok(exps::e05_local_sgd::run_with(rec)),
        "e6" => Ok(exps::e06_gradient_compression::run()),
        "e7" => Ok(exps::e07_placement_search::run()),
        "e8" => Ok(exps::e08_morphnet::run()),
        "e9" => Ok(exps::e09_rematerialization::run()),
        "e10" => Ok(exps::e10_offloading::run()),
        "e11" => Ok(exps::e11_learned_index::run()),
        "e12" => Ok(exps::e12_learned_bloom::run()),
        "e13" => Ok(exps::e13_selectivity::run()),
        "e14" => Ok(exps::e14_knob_tuning::run()),
        "e15" => Ok(exps::e15_bias_measurement::run()),
        "e16" => Ok(exps::e16_bias_mitigation::run()),
        "e17" => Ok(exps::e17_tsne::run()),
        "e18" => Ok(exps::e18_lime::run()),
        "e19" => Ok(exps::e19_mistique::run()),
        "e20" => Ok(exps::e20_carbon::run()),
        "e21" => Ok(exps::e21_tradeoff_navigator::run()),
        "e22" => Ok(exps::e22_fault_tolerance::run_with(rec)),
        "e23" => Ok(exps::e23_observability::run()),
        "e24" => Ok(exps::e24_profiling::run()),
        "e25" => Ok(exps::e25_serving::run()),
        "e26" => Ok(exps::e26_parallel::run()),
        "e27" => Ok(exps::e27_cluster::run_with(rec)),
        "e28" => Ok(exps::e28_monitoring::run_with(rec)),
        "e29" => Ok(exps::e29_request_tracing::run_with(rec)),
        "e30" => Ok(exps::e30_weight_store::run()),
        "e31" => Ok(exps::e31_kernels::run()),
        "a1" => Ok(exps::a01_error_feedback::run()),
        "a2" => Ok(exps::a02_rmi_leaves::run()),
        "a3" => Ok(exps::a03_p3_slices::run()),
        "a4" => Ok(exps::a04_snapshot_cycles::run()),
        other => Err(format!(
            "unknown experiment {other:?}; expected e1..e31, a1..a4, or 'all'"
        )),
    }
}

/// All experiment ids in order: claims E1-E31, then ablations A1-A4.
pub fn all_ids() -> Vec<String> {
    let mut ids: Vec<String> = (1..=31).map(|i| format!("e{i}")).collect();
    ids.extend((1..=4).map(|i| format!("a{i}")));
    ids
}

/// One-line description per experiment id (for `exp --list`).
pub fn describe(id: &str) -> &'static str {
    match id {
        "e1" => "quantization: accuracy vs memory across bit widths",
        "e2" => "pruning: sparsity sweep with the accuracy cliff",
        "e3" => "knowledge distillation into small students",
        "e4" => "ensembles: independent vs snapshot vs treenet vs mothernet",
        "e5" => "Local SGD: sync period vs communication",
        "e6" => "gradient compression + P3 scheduling",
        "e7" => "FlexFlow-style placement search vs defaults",
        "e8" => "MorphNet-style width reallocation vs uniform scaling",
        "e9" => "rematerialization: sqrt(n) vs optimal DP",
        "e10" => "offloading: memory vs training-time overhead",
        "e11" => "learned index (RMI) vs B-tree",
        "e12" => "learned Bloom filter vs classic",
        "e13" => "selectivity estimation: histogram vs sample vs neural",
        "e14" => "DB knob tuning: Q-learning vs search baselines",
        "e15" => "bias knob sweep: injected vs measured bias",
        "e16" => "bias mitigation at three intervention points",
        "e17" => "t-SNE vs PCA: neighborhood preservation",
        "e18" => "LIME fidelity and feature recovery",
        "e19" => "Mistique-lite intermediate store footprint",
        "e20" => "carbon: size x hardware x region + scheduling",
        "e21" => "tradeoff navigator: Pareto frontier",
        "e22" => "fault tolerance: checkpoint interval vs completion time under crashes",
        "e23" => "observability: fault-recovery timeline and tracing overhead",
        "e24" => "profiling: critical path, lost-time attribution, measured costs",
        "e25" => "serving: dynamic batching, variant selection, load shedding",
        "e26" => "parallel + cache-blocked kernels: speedup, bit-identical results",
        "e27" => "cluster serving: replication, fault-aware routing, autoscaling",
        "e28" => "online monitoring: SLO burn-rate alerts, health, drift detection",
        "e29" => "request tracing: waterfalls, tail attribution, conservation",
        "e30" => "weight store: model artifacts, memory budget, cold-start tail",
        "e31" => "reduced-precision kernels: unrolled f32 FMA + native int8 GEMM",
        "a1" => "ablation: error feedback in gradient compression",
        "a2" => "ablation: RMI leaf budget",
        "a3" => "ablation: P3 slice granularity",
        "a4" => "ablation: snapshot cycle split + FGE",
        _ => "unknown",
    }
}
