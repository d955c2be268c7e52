//! E28 — online monitoring: SLO burn-rate alerts, health, and drift.
//!
//! Claim: the `dl-monitor` tap turns the serving tier's event stream
//! into actionable, deterministic alerts. Three pillars: (1) during a
//! ramp overload, a fast/slow-window error-budget **burn-rate** alert
//! fires measurably *before* the p99 latency SLO itself is violated —
//! the early-warning lead the burn-rate construction exists to buy;
//! (2) PSI **input-drift** and KL **prediction-drift** alerts fire when
//! the served distribution is shifted mid-run, with detection latency
//! that does not grow as the injected drift magnitude grows, and stay
//! silent at zero magnitude; (3) on a steady fault-free run with the
//! full rule set attached the monitor raises **zero false alerts** and
//! the run is bit-identical — report, timeline, and latency histogram —
//! to the unmonitored run. Everything runs on one `VirtualClock`, so
//! every cell is byte-reproducible and gated by `BENCH_E28.json`.

use super::{cluster_engine, cluster_family, load};
use crate::table::{col, fixed, text, us, Column, ExperimentResult};
use dl_core::{Category, Metrics, Registry, Technique};
use dl_monitor::{AlertKind, DriftConfig, Monitor, MonitorConfig, ReferenceProfile, SloRule};
use dl_nn::Dataset;
use dl_obs::{fields, FieldValue, Fields, NullRecorder, Recorder, TimelineRecorder, ToFields};
use dl_serve::{
    bursty, replica_capacity_rps, serve, AdmissionPolicy, BurstConfig, DeviceModel, LoadConfig,
};
use dl_tensor::Tensor;

/// Reference-profile interior bins for input-drift tracking.
const DRIFT_BINS: usize = 8;
/// Drift magnitudes injected mid-run (in input-feature units; the blobs
/// generator's within-cluster noise is sigma = 0.5, so 1.5 is a 3-sigma
/// shift).
const DRIFT_MAGNITUDES: [f32; 4] = [0.0, 0.75, 1.5, 3.0];
/// Sentinel for "no alert fired" in the latency records (keeps the
/// baseline gate on plain f64s).
const NO_ALERT: f64 = -1.0;
/// PSI that fires an input-drift alert. Calibrated to ~2x the largest
/// in-distribution PSI observed on this setup (~0.40 — train and eval
/// are independent finite draws, so their windowed PSI never reaches 0)
/// and ~2.7x *below* the signal at the smallest injected shift (~2.2).
const PSI_THRESHOLD: f64 = 0.8;
/// KL (nats) that fires a prediction-drift alert; the in-distribution
/// predicted-class KL tops out near 0.04 here.
const KL_THRESHOLD: f64 = 0.2;

/// Scalar input-feature projection: column 0 of the dataset, row order.
fn feature_column(x: &Tensor) -> Vec<f64> {
    let d = x.dims()[1];
    x.data().chunks(d).map(|row| f64::from(row[0])).collect()
}

/// The served dataset for one drift cell: the clean rows followed by a
/// copy with every feature shifted by `m` — requests index the clean
/// half before the drift point and the shifted half after it.
fn with_shifted_copy(eval: &Dataset, m: f32) -> Dataset {
    let n = eval.x.dims()[0];
    let d = eval.x.dims()[1];
    let mut data = eval.x.data().to_vec();
    data.extend(eval.x.data().iter().map(|&v| v + m));
    let mut y = eval.y.clone();
    y.extend_from_slice(&eval.y);
    Dataset {
        x: Tensor::from_vec(data, vec![2 * n, d]).expect("shape matches data"),
        y,
        classes: eval.classes,
    }
}

const SCENARIOS: &[Column] = &[
    col("scenario", "scenario", text),
    col("config", "config", text),
    col("shift", "magnitude", text),
    col("p99 us", "p99_s", us::<1>),
    col("served", "served", text),
    col("slo us", "latency_slo_s", us::<1>),
];

const RAMP: &[Column] = &[
    col("ramp burn alerts", "burn_alerts", text),
    col("latency alerts", "latency_alerts", text),
    col("health alerts", "health_alerts", text),
    col("first burn us", "t_burn_alert_s", alert_us),
    col("first slo us", "t_slo_alert_s", alert_us),
    col("lead us", "lead_s", alert_us),
];

const DRIFT: &[Column] = &[
    col("drift shift", "magnitude", text),
    col("input alerts", "input_alerts", text),
    col("pred alerts", "pred_alerts", text),
    col("first alert us", "t_input_alert_s", alert_us),
    col("detect latency us", "detect_latency_s", alert_us),
    col("max psi", "max_input_psi", fixed::<3>),
    col("max kl", "max_pred_kl", fixed::<3>),
];

const STEADY: &[Column] = &[
    col("steady false alerts", "false_alerts", text),
    col("bit-identical", "bit_identical", text),
    col("fleet health", "fleet_health", fixed::<2>),
    col("queue depth", "fleet_queue_depth", fixed::<2>),
];

/// An alert time in microseconds, or `-` for the no-alert sentinel.
fn alert_us(v: &FieldValue) -> String {
    if v.as_f64() == Some(NO_ALERT) {
        "-".into()
    } else {
        us::<1>(v)
    }
}

/// Runs the experiment without tracing.
pub fn run() -> ExperimentResult {
    run_with(&NullRecorder::new())
}

/// Runs the experiment. The headline ramp-overload cell is monitored on
/// a private timeline (so its clock always starts at zero) and that
/// timeline — per-variant tracks, admit/complete instants, and the
/// `monitor.alert` instants — is mirrored into `rec` afterwards.
pub fn run_with(rec: &dyn Recorder) -> ExperimentResult {
    let (data, eval, family) = cluster_family(111);
    let rows = eval.x.dims()[0];
    let cap_dyn = replica_capacity_rps(&DeviceModel::nominal(), &family.variants[0]);
    let scfg = cluster_engine(AdmissionPolicy::AcceptAll);

    let mut records: Vec<Fields> = Vec::new();

    // --- calibration: a healthy steady run fixes the SLO ------------------
    // The latency objective is derived from measurement, not guessed: the
    // compliance SLO is 6x the healthy p99 and the burn rule's (stricter)
    // budget objective is 1.5x — the standard "alert on the objective you
    // can still do something about" split.
    let healthy_reqs = load(0.6 * cap_dyn, 900, 201, rows);
    let healthy = serve(&family, &eval, &healthy_reqs, &scfg, &NullRecorder::new());
    let p99h = healthy.p99_s;
    let slo_s = 6.0 * p99h;
    let tight_s = 1.5 * p99h;
    let mut rec_healthy = fields! {
        "scenario" => "calibrate",
        "config" => "steady 0.6x cap",
        "p99_healthy_s" => p99h,
        "latency_slo_s" => slo_s,
        "burn_objective_s" => tight_s,
    };
    rec_healthy.extend(healthy.to_fields());
    records.push(rec_healthy);

    let rules = vec![
        SloRule::BurnRate {
            name: "p99-burn".into(),
            latency_slo_s: tight_s,
            budget: 0.02,
            fast_windows: 2,
            slow_windows: 8,
            threshold: 3.0,
        },
        SloRule::LatencyQuantile {
            name: "p99-slo".into(),
            q: 0.99,
            target_s: slo_s,
            windows: 8,
        },
        SloRule::HealthBelow {
            name: "replica-health".into(),
            threshold: 0.25,
        },
    ];

    // --- pillar 1: burn-rate alert leads the SLO violation ----------------
    // One off-first burst period: 0.6x capacity for t_off seconds, then a
    // 3x step to 1.8x capacity. AcceptAll means the queue grows without
    // bound after the step, so latency ramps through the tight burn
    // objective long before it crosses the 6x compliance SLO.
    let base_rate = 0.6 * cap_dyn;
    let t_off = 360.0 / base_rate;
    let ramp_reqs = bursty(
        &LoadConfig {
            rate_rps: base_rate,
            requests: 1440,
            seed: 202,
        },
        &BurstConfig {
            period_s: 2.0 * t_off,
            duty: 0.5,
            multiplier: 3.0,
        },
        rows,
    );
    let window_s = t_off / 48.0;
    let ramp_tl = TimelineRecorder::new();
    let ramp_monitor = Monitor::new(
        &ramp_tl,
        MonitorConfig {
            window_s,
            history: 64,
            latency_slo_s: slo_s,
            rules: rules.clone(),
            ..MonitorConfig::default()
        },
    );
    let ramp = serve(&family, &eval, &ramp_reqs, &scfg, &ramp_monitor);
    let ramp_rep = ramp_monitor.report();
    // Mirror the monitored timeline (events carry their own timestamps)
    // into the harness trace.
    for e in ramp_tl.events() {
        rec.record(e);
    }
    let t_burn = ramp_rep.first_alert_s(AlertKind::BurnRate);
    let t_slo = ramp_rep.first_alert_s(AlertKind::Latency);
    let lead_s = match (t_burn, t_slo) {
        (Some(a), Some(v)) => v - a,
        _ => f64::NAN,
    };
    // The burn alert must come after the load step (no false fire in the
    // healthy phase) and before the compliance violation.
    let burn_leads = matches!((t_burn, t_slo), (Some(a), Some(v)) if a < v)
        && t_burn.is_some_and(|a| a > 0.9 * t_off);
    let mut rec_ramp = fields! {
        "scenario" => "ramp",
        "config" => "3x step, burn+slo",
        "step_at_s" => t_off,
        "window_s" => window_s,
        "t_burn_alert_s" => t_burn.unwrap_or(NO_ALERT),
        "t_slo_alert_s" => t_slo.unwrap_or(NO_ALERT),
        "lead_s" => if lead_s.is_nan() { NO_ALERT } else { lead_s },
        "burn_alerts" => ramp_rep.alert_count(AlertKind::BurnRate),
        "latency_alerts" => ramp_rep.alert_count(AlertKind::Latency),
        "health_alerts" => ramp_rep.alert_count(AlertKind::Health),
        "windows_closed" => ramp_rep.windows_closed,
        "monitored_completions" => ramp_rep.fleet.completions,
    };
    rec_ramp.extend(ramp.to_fields());
    records.push(rec_ramp);

    // --- pillar 2: drift alerts vs injected magnitude ---------------------
    // Reference profiles come from the *training* data — the deployment
    // story the paper's responsibility agenda tells: profile at train
    // time, monitor at serve time.
    let input_ref = ReferenceProfile::from_values(&feature_column(&data.x), DRIFT_BINS);
    let pred_ref = {
        let preds = family.variants[0].model.predict(&data.x);
        let total = preds.len() as f64;
        let mut counts = vec![0u64; data.classes];
        for p in preds {
            counts[p] += 1;
        }
        counts
            .iter()
            .map(|&c| c as f64 / total)
            .collect::<Vec<f64>>()
    };
    let mut drift_cells: Vec<(f64, usize, usize, Option<f64>, f64, f64)> = Vec::new();
    for &m in &DRIFT_MAGNITUDES {
        let served_data = with_shifted_copy(&eval, m);
        let mut reqs = load(0.5 * cap_dyn, 1200, 203, rows);
        // Re-point the second half of the schedule at the shifted copy:
        // the arrival process is untouched, only the data drifts.
        let half = reqs.len() / 2;
        let t_mid = reqs[half].arrival_s;
        for r in &mut reqs[half..] {
            r.sample += rows;
        }
        let span = reqs.last().expect("non-empty").arrival_s;
        let null = NullRecorder::new();
        let monitor = Monitor::new(
            &null,
            MonitorConfig {
                window_s: span / 40.0,
                history: 64,
                drift: Some(DriftConfig {
                    input_ref: Some(input_ref.clone()),
                    pred_ref: Some(pred_ref.clone()),
                    windows: 4,
                    min_samples: 50,
                    psi_threshold: PSI_THRESHOLD,
                    kl_threshold: KL_THRESHOLD,
                }),
                feature_of_sample: feature_column(&served_data.x),
                ..MonitorConfig::default()
            },
        );
        let drift_serve = serve(&family, &served_data, &reqs, &scfg, &monitor);
        let rep = monitor.report();
        let input_alerts = rep.alert_count(AlertKind::InputDrift);
        let pred_alerts = rep.alert_count(AlertKind::PredictionDrift);
        let latency = rep.first_alert_s(AlertKind::InputDrift).map(|t| t - t_mid);
        records.push(fields! {
            "scenario" => "drift",
            "magnitude" => f64::from(m),
            "drift_at_s" => t_mid,
            "input_alerts" => input_alerts,
            "pred_alerts" => pred_alerts,
            "detect_latency_s" => latency.unwrap_or(NO_ALERT),
            "max_input_psi" => rep.max_input_psi,
            "max_pred_kl" => rep.max_pred_kl,
            "p99_s" => drift_serve.p99_s,
            "served" => drift_serve.served,
            "t_input_alert_s" => rep.first_alert_s(AlertKind::InputDrift).unwrap_or(NO_ALERT),
        });
        drift_cells.push((
            f64::from(m),
            input_alerts,
            pred_alerts,
            latency,
            rep.max_input_psi,
            rep.max_pred_kl,
        ));
    }
    let drift_silent_at_zero = drift_cells[0].1 == 0 && drift_cells[0].2 == 0;
    let drift_fires = drift_cells[2].1 > 0 && drift_cells[3].1 > 0;
    let drift_latency_sane = match (drift_cells[2].3, drift_cells[3].3) {
        // Detection latency must not grow with magnitude, and detection
        // must happen after the injection point.
        (Some(l15), Some(l30)) => l30 <= l15 && l30 > 0.0,
        _ => false,
    };
    // PSI is monotone in the injected shift across the sweep.
    let psi_monotone = drift_cells.windows(2).all(|w| w[0].4 <= w[1].4);

    // --- pillar 3: steady run — zero false alerts, bit-identical ----------
    let steady_reqs = load(0.5 * cap_dyn, 1000, 204, rows);
    let steady_span = steady_reqs.last().expect("non-empty").arrival_s;
    let steady_cfg = MonitorConfig {
        window_s: steady_span / 40.0,
        history: 64,
        latency_slo_s: slo_s,
        rules: rules.clone(),
        drift: Some(DriftConfig {
            input_ref: Some(input_ref.clone()),
            pred_ref: Some(pred_ref.clone()),
            windows: 4,
            min_samples: 50,
            psi_threshold: PSI_THRESHOLD,
            kl_threshold: KL_THRESHOLD,
        }),
        feature_of_sample: feature_column(&eval.x),
        ..MonitorConfig::default()
    };
    // Unmonitored timeline run vs the same run with the monitor tapping
    // the timeline, plus both NullRecorder paths.
    let plain_tl = TimelineRecorder::new();
    let plain = serve(&family, &eval, &steady_reqs, &scfg, &plain_tl);
    let mon_tl = TimelineRecorder::new();
    let steady_monitor = Monitor::new(&mon_tl, steady_cfg.clone());
    let monitored = serve(&family, &eval, &steady_reqs, &scfg, &steady_monitor);
    let steady_rep = steady_monitor.report();
    let unmonitored_null = serve(&family, &eval, &steady_reqs, &scfg, &NullRecorder::new());
    let null_inner = NullRecorder::new();
    let null_monitor = Monitor::new(&null_inner, steady_cfg);
    let monitored_null = serve(&family, &eval, &steady_reqs, &scfg, &null_monitor);
    let false_alerts = steady_rep.alerts.len();
    let bit_identical = plain == monitored
        && plain == unmonitored_null
        && plain == monitored_null
        && plain_tl.events() == mon_tl.events()
        && plain_tl.histogram("serve.latency_s") == mon_tl.histogram("serve.latency_s");
    let mut rec_steady = fields! {
        "scenario" => "steady",
        "config" => "full rules + drift",
        "false_alerts" => false_alerts,
        "bit_identical" => bit_identical,
        "fleet_health" => steady_rep.fleet.health,
        "fleet_queue_depth" => steady_rep.fleet.queue_depth,
        "steady_max_input_psi" => steady_rep.max_input_psi,
        "steady_max_pred_kl" => steady_rep.max_pred_kl,
    };
    rec_steady.extend(monitored.to_fields());
    records.push(rec_steady);

    // --- cost accounting: the monitor as an observability technique -------
    // The tap's state is bounded by construction: per series, a ring of
    // (history + 1) fixed 64-bucket sketches and four window counters
    // plus two EWMA cells; drift adds the reference bins and the sliding
    // count windows.
    let series_state_bytes = |cfg: &MonitorConfig| -> u64 {
        let sketch = 64 * 8 + 4 * 8;
        let counters = 4 * 8;
        (cfg.history as u64 + 1) * (sketch + counters) + 2 * 16
    };
    let ramp_cfg_bytes =
        series_state_bytes(ramp_monitor.config()) * (1 + ramp_rep.replicas.len() as u64);
    let drift_state_bytes = ((DRIFT_BINS as u64 + 2) + data.classes as u64) * 8 * 5;
    let mut registry = Registry::new();
    registry
        .add(Technique {
            name: "unmonitored-serving".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: plain.accuracy,
                train_flops: 0,
                inference_flops: 0,
                memory_bytes: 0,
                energy_kwh: 0.0,
            },
            baseline: None,
        })
        .expect("unique");
    registry
        .add(Technique {
            name: "monitor-slo-tap".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: monitored.accuracy,
                train_flops: 0,
                inference_flops: 0,
                memory_bytes: ramp_cfg_bytes,
                energy_kwh: 0.0,
            },
            baseline: Some("unmonitored-serving".into()),
        })
        .expect("unique");
    registry
        .add(Technique {
            name: "monitor-drift-tap".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: monitored.accuracy,
                train_flops: 0,
                inference_flops: 0,
                memory_bytes: ramp_cfg_bytes + drift_state_bytes,
                energy_kwh: 0.0,
            },
            baseline: Some("monitor-slo-tap".into()),
        })
        .expect("unique");

    records.push(fields! {
        "cap_dyn_rps" => cap_dyn,
        "burn_leads" => burn_leads,
        "drift_silent_at_zero" => drift_silent_at_zero,
        "drift_fires" => drift_fires,
        "drift_latency_sane" => drift_latency_sane,
        "psi_monotone" => psi_monotone,
        "observability_techniques" => registry.by_category(Category::Observability).len(),
    });

    let ok = burn_leads
        && drift_silent_at_zero
        && drift_fires
        && drift_latency_sane
        && psi_monotone
        && false_alerts == 0
        && bit_identical;
    ExperimentResult {
        id: "e28".into(),
        title: "online monitoring: SLO burn-rate alerts, health, and drift detection".into(),
        tables: vec![SCENARIOS, RAMP, DRIFT, STEADY],
        verdict: if ok {
            format!(
                "matches the claim: the burn-rate alert fires {:.1}us before the p99 \
                 SLO violation during the ramp, input drift is detected at every nonzero \
                 magnitude (silent at zero) with non-increasing latency, and the steady \
                 run raises 0 false alerts while staying bit-identical to the unmonitored run",
                lead_s * 1e6
            )
        } else {
            format!(
                "PARTIAL: burn_leads={burn_leads} drift_silent_at_zero={drift_silent_at_zero} \
                 drift_fires={drift_fires} drift_latency_sane={drift_latency_sane} \
                 psi_monotone={psi_monotone} false_alerts={false_alerts} \
                 bit_identical={bit_identical}"
            )
        },
        records,
    }
}

/// Shared report for in-module tests (the experiment is expensive enough
/// to run once).
#[cfg(test)]
fn shared() -> &'static ExperimentResult {
    use std::sync::OnceLock;
    static RESULT: OnceLock<ExperimentResult> = OnceLock::new();
    RESULT.get_or_init(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::field_f64;
    use dl_obs::FieldValue;

    fn record<'a>(r: &'a ExperimentResult, scenario: &str) -> &'a Fields {
        r.records
            .iter()
            .find(|f| {
                f.iter().any(|(k, v)| {
                    k == "scenario" && matches!(v, FieldValue::Str(s) if s == scenario)
                })
            })
            .expect("scenario record")
    }

    #[test]
    fn e28_monitoring_matches_claim() {
        let r = shared();
        assert!(
            r.verdict.starts_with("matches the claim"),
            "verdict: {}",
            r.verdict
        );
        assert_eq!(r.row_counts(), [7, 1, 4, 1]);
        let ramp = record(r, "ramp");
        let lead = field_f64(ramp, "lead_s").expect("lead_s");
        assert!(lead > 0.0, "burn alert must lead the SLO violation: {lead}");
        let steady = record(r, "steady");
        assert_eq!(field_f64(steady, "false_alerts"), Some(0.0));
        assert_eq!(field_f64(steady, "bit_identical"), Some(1.0));
    }

    #[test]
    fn e28_is_deterministic_byte_for_byte() {
        let a = shared();
        let b = run();
        assert_eq!(a.to_json(), b.to_json());
    }
}
