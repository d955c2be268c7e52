//! E23 — observability: tracing overhead and the fault-recovery timeline.
//!
//! Claim: the `dl-obs` layer makes every run inspectable — the E22
//! fault-tolerance scenario renders as a crash/rollback/rejoin timeline —
//! at a modeled cost below 5% of the simulated run, and without
//! perturbing the trajectory by a single bit.
//!
//! Overhead is *modeled*, not wall-clocked: each recorded event is
//! charged a generous simulated cost (`PER_EVENT_SECONDS`, 0.5 µs, roughly an
//! in-memory ring-buffer push plus timestamping on the coordinator) and
//! compared against the run's simulated seconds. That keeps the
//! experiment deterministic on any machine, in the same spirit as the
//! cluster cost model itself.

use super::e22_fault_tolerance;
use crate::table::{ExperimentResult, Table};
use dl_core::{Category, Metrics, Registry, Technique};
use dl_distributed::{
    resilient_local_sgd, resilient_local_sgd_traced, Cluster, Device, Link, LocalSgdConfig,
    ResilientConfig, StorageProfile,
};
use dl_obs::{
    fields, find_field, EventKind, FieldValue, FlightRecorder, Recorder, TimelineRecorder, ToFields,
};

/// Modeled simulated cost per recorded event: 0.5 µs, an upper bound for
/// pushing a preallocated record and reading an atomic clock.
const PER_EVENT_SECONDS: f64 = 5e-7;

/// Flight-recorder capacity used in the wraparound demonstration.
const FLIGHT_CAPACITY: usize = 64;

/// The E22 headline configuration (Local SGD sync 8, interior-optimal
/// checkpoint interval 32, blob storage) whose trace E23 renders.
fn headline_config() -> ResilientConfig {
    let (_, sync_period, interval) = e22_fault_tolerance::TRACED_CONFIG;
    ResilientConfig {
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
    }
}

/// Renders one fault-recovery event as a `detail` cell.
fn detail(event: &dl_obs::Event) -> String {
    let get = |k: &str| {
        find_field(&event.fields, k)
            .map(|v| match v {
                FieldValue::Str(s) => s.to_string(),
                FieldValue::U64(n) => n.to_string(),
                FieldValue::I64(n) => n.to_string(),
                FieldValue::F64(x) => format!("{x:.4}"),
                FieldValue::Bool(b) => b.to_string(),
            })
            .unwrap_or_default()
    };
    match event.name {
        "crash" => format!("worker {} at step {}", get("worker"), get("step")),
        "rollback" => format!(
            "step {} -> {} ({} samples lost)",
            get("from_step"),
            get("to_step"),
            get("lost_samples")
        ),
        "rejoin" => format!("worker {} from {}", get("worker"), get("source")),
        "checkpoint_write" => format!("at step {}", get("step")),
        "allreduce_retry" => format!("attempt {}", get("attempt")),
        _ => String::new(),
    }
}

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let data = dl_data::blobs(400, 3, 8, 6.0, 0.5, 6);
    let eval = dl_data::blobs(150, 3, 8, 6.0, 0.5, 7);
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
    let dims = [8, 32, 3];
    let plan = e22_fault_tolerance::faulty_plan();
    let config = headline_config();

    // The same scenario three ways: untraced (the reference trajectory),
    // fully traced, and through a bounded flight recorder.
    let (plain_net, plain) = resilient_local_sgd(&cluster, &data, &eval, &dims, &config, &plan);
    let timeline = TimelineRecorder::new();
    let (traced_net, traced) =
        resilient_local_sgd_traced(&cluster, &data, &eval, &dims, &config, &plan, &timeline);
    let flight = FlightRecorder::new(FLIGHT_CAPACITY);
    let (_, _) = resilient_local_sgd_traced(&cluster, &data, &eval, &dims, &config, &plan, &flight);

    // Acceptance checks.
    let parity = plain_net.flat_params() == traced_net.flat_params()
        && plain.simulated_seconds == traced.simulated_seconds
        && plain == traced;
    let events = timeline.events();
    let overhead_seconds = events.len() as f64 * PER_EVENT_SECONDS;
    let overhead_pct = 100.0 * overhead_seconds / traced.simulated_seconds;
    let clock_mirrors = (timeline.clock().now() - traced.simulated_seconds).abs() < 1e-9;

    // The fault-recovery timeline: every membership/recovery event plus
    // checkpoint writes, in simulated-time order.
    let mut table = Table::new(&["t (s)", "track", "event", "detail"]);
    let mut timeline_rows = 0usize;
    for e in &events {
        let interesting = matches!(
            e.name,
            "crash" | "rollback" | "rejoin" | "abort" | "allreduce_retry"
        ) && e.kind == EventKind::Instant
            || (e.name == "checkpoint_write" && e.kind == EventKind::SpanStart);
        if !interesting {
            continue;
        }
        timeline_rows += 1;
        let track = if e.track == 0 {
            "coord".to_string()
        } else {
            format!("w{}", e.track - 1)
        };
        table.row(&[
            format!("{:.4}", e.ts_micros as f64 / 1e6),
            track,
            e.name.to_string(),
            detail(e),
        ]);
    }
    // Summary rows after the timeline.
    let dumped = flight.dump().len();
    for (name, value) in [
        ("trace events", events.len().to_string()),
        (
            "modeled overhead",
            format!("{overhead_pct:.4}% of {:.4} sim s", traced.simulated_seconds),
        ),
        (
            "trajectory parity",
            if parity { "bit-identical" } else { "DIVERGED" }.to_string(),
        ),
        (
            "flight recorder",
            format!(
                "kept {dumped}/{} events, dropped {}",
                events.len(),
                flight.dropped()
            ),
        ),
    ] {
        table.row(&["-".into(), "-".into(), name.into(), value]);
    }

    // The observability layer is itself a technique in the tradeoff
    // space: it spends (simulated) time to make every other tradeoff
    // measurable.
    let mut registry = Registry::new();
    registry
        .add(Technique {
            name: "full-timeline-trace".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: traced.accuracy,
                train_flops: 0,
                inference_flops: 0,
                memory_bytes: (events.len() * std::mem::size_of::<dl_obs::Event>()) as u64,
                energy_kwh: 0.0,
            },
            baseline: Some("untraced".into()),
        })
        .expect("unique");

    let mut records = vec![traced.to_fields()];
    records.push(fields! {
        "events" => events.len(),
        "per_event_seconds" => PER_EVENT_SECONDS,
        "overhead_pct" => overhead_pct,
        "parity" => parity,
        "clock_mirrors" => clock_mirrors,
        "flight_capacity" => FLIGHT_CAPACITY,
        "flight_dropped" => flight.dropped(),
        "crashes" => traced.crashes,
        "rollbacks" => traced.rollbacks,
        "rejoins" => traced.rejoins,
        "timeline_rows" => timeline_rows,
        "observability_techniques" => registry.by_category(Category::Observability).len(),
    });

    let ok = parity && overhead_pct < 5.0 && clock_mirrors && traced.crashes > 0;
    ExperimentResult {
        id: "e23".into(),
        title: "observability: fault-recovery timeline and tracing overhead".into(),
        table,
        verdict: if ok {
            format!(
                "matches the claim: the E22 scenario's {} crashes, {} rollbacks and {} \
                 rejoins render as a timeline, tracing costs a modeled {overhead_pct:.4}% \
                 (<5%) of the run, and the traced trajectory is bit-identical",
                traced.crashes, traced.rollbacks, traced.rejoins
            )
        } else {
            format!(
                "PARTIAL: parity={parity} overhead_pct={overhead_pct:.4} \
                 clock_mirrors={clock_mirrors} crashes={}",
                traced.crashes
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_reports_low_overhead_and_parity() {
        let r = run();
        assert!(
            r.verdict.starts_with("matches the claim"),
            "verdict: {}",
            r.verdict
        );
        // timeline rows + 4 summary rows
        assert!(r.table.rows.len() > 4);
        assert_eq!(r.records.len(), 2);
    }

    #[test]
    fn flight_capacity_forces_wraparound_on_the_headline_run() {
        let data = dl_data::blobs(400, 3, 8, 6.0, 0.5, 6);
        let eval = dl_data::blobs(150, 3, 8, 6.0, 0.5, 7);
        let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
        let flight = FlightRecorder::new(FLIGHT_CAPACITY);
        let (_, _) = resilient_local_sgd_traced(
            &cluster,
            &data,
            &eval,
            &[8, 32, 3],
            &headline_config(),
            &e22_fault_tolerance::faulty_plan(),
            &flight,
        );
        assert!(flight.dropped() > 0, "the run must outgrow the ring");
        assert_eq!(flight.dump().len(), FLIGHT_CAPACITY);
    }
}
