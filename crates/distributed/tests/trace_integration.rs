//! Integration test: the trace a resilient run emits must tell the same
//! story as its report — every crash is followed by its rollback, every
//! rejoin lands on the crashed worker's track, and the virtual clock
//! mirrors the simulated-seconds accounting. Plain Local SGD traces the
//! same loop, so its trace is the fault-free resilient trace.

use dl_distributed::{
    local_sgd_traced, resilient_local_sgd, resilient_local_sgd_traced, FaultEvent, FaultPlan,
    LocalSgdConfig, ResilientConfig, {Cluster, Device, Link},
};
use dl_nn::Network;
use dl_obs::{EventKind, Recorder, TimelineRecorder, ToFields};

fn cluster(n: usize) -> Cluster {
    Cluster::homogeneous(n, Device::accelerator(), Link::ethernet())
}

fn config(steps: usize) -> ResilientConfig {
    ResilientConfig {
        base: LocalSgdConfig {
            sync_period: 4,
            steps,
            batch_size: 8,
            lr: 0.05,
            seed: 0,
        },
        checkpoint_interval: 8,
        ..ResilientConfig::default()
    }
}

fn run_traced(
    plan: &FaultPlan,
    steps: usize,
) -> (Network, dl_distributed::ResilienceReport, TimelineRecorder) {
    let data = dl_data::blobs(120, 3, 6, 6.0, 0.5, 2);
    let eval = dl_data::blobs(60, 3, 6, 6.0, 0.5, 3);
    let rec = TimelineRecorder::new();
    let (net, report) = resilient_local_sgd_traced(
        &cluster(4),
        &data,
        &eval,
        &[6, 16, 3],
        &config(steps),
        plan,
        &rec,
    );
    (net, report, rec)
}

#[test]
fn trace_contains_matching_crash_rollback_rejoin_sequences() {
    let plan = FaultPlan::new(vec![
        FaultEvent::WorkerCrash {
            worker: 2,
            at_step: 10,
        },
        FaultEvent::WorkerRejoin {
            worker: 2,
            at_step: 26,
        },
        FaultEvent::WorkerCrash {
            worker: 1,
            at_step: 37,
        },
    ]);
    let (_, report, rec) = run_traced(&plan, 48);
    assert_eq!(report.crashes, 2);
    assert_eq!(report.rollbacks, 2);
    assert_eq!(report.rejoins, 1);

    let events = rec.events();
    let named = |name: &str| -> Vec<usize> {
        events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == EventKind::Instant && e.name == name)
            .map(|(i, _)| i)
            .collect()
    };
    let crashes = named("crash");
    let rollbacks = named("rollback");
    let rejoins = named("rejoin");
    assert_eq!(crashes.len(), report.crashes);
    assert_eq!(rollbacks.len(), report.rollbacks);
    assert_eq!(rejoins.len(), report.rejoins);

    // Each crash is immediately followed (in event order) by its rollback,
    // and the rollback rewinds to a checkpointed step at or before the
    // crash step.
    for (&c, &r) in crashes.iter().zip(&rollbacks) {
        assert!(r > c, "rollback must trail its crash in the timeline");
        let crash_step = events[c]
            .fields
            .iter()
            .find(|(k, _)| k == "step")
            .and_then(|(_, v)| v.as_u64())
            .expect("crash carries its step");
        let to_step = events[r]
            .fields
            .iter()
            .find(|(k, _)| k == "to_step")
            .and_then(|(_, v)| v.as_u64())
            .expect("rollback carries to_step");
        assert!(to_step <= crash_step);
        assert!(events[r].ts_micros >= events[c].ts_micros);
    }

    // Crash and rejoin instants live on the crashed worker's track
    // (track = worker + 1; track 0 is the coordinator).
    assert_eq!(events[crashes[0]].track, 3);
    assert_eq!(events[rejoins[0]].track, 3);
    assert_eq!(events[crashes[1]].track, 2);
    // The rejoin names its bootstrap source.
    assert!(events[rejoins[0]]
        .fields
        .iter()
        .any(|(k, v)| k == "source" && matches!(v.as_str(), Some("checkpoint") | Some("peer"))));

    // Checkpoint writes appear as balanced spans.
    let ckpt_starts = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "checkpoint_write")
        .count();
    let ckpt_ends = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.name == "checkpoint_write")
        .count();
    assert_eq!(ckpt_starts, report.checkpoints_written);
    assert_eq!(ckpt_starts, ckpt_ends);

    // The virtual clock mirrors the driver's simulated-seconds total.
    assert!((rec.clock().now() - report.simulated_seconds).abs() < 1e-9);
    // Timestamps never run backwards.
    assert!(events.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
}

#[test]
fn tracing_does_not_perturb_the_trajectory() {
    let data = dl_data::blobs(120, 3, 6, 6.0, 0.5, 2);
    let eval = dl_data::blobs(60, 3, 6, 6.0, 0.5, 3);
    let plan = FaultPlan::new(vec![FaultEvent::WorkerCrash {
        worker: 2,
        at_step: 21,
    }]);
    let (plain_net, plain) =
        resilient_local_sgd(&cluster(4), &data, &eval, &[6, 16, 3], &config(40), &plan);
    let rec = TimelineRecorder::new();
    let (traced_net, traced) = resilient_local_sgd_traced(
        &cluster(4),
        &data,
        &eval,
        &[6, 16, 3],
        &config(40),
        &plan,
        &rec,
    );
    assert_eq!(plain_net.flat_params(), traced_net.flat_params());
    assert_eq!(plain, traced);
    assert!(!rec.events().is_empty());
}

#[test]
fn clean_run_trace_has_no_fault_instants() {
    let (_, report, rec) = run_traced(&FaultPlan::none(), 24);
    assert_eq!(report.crashes, 0);
    let events = rec.events();
    assert!(events
        .iter()
        .all(|e| e.name != "crash" && e.name != "rollback" && e.name != "rejoin"));
    let rounds = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "sync_round")
        .count();
    assert_eq!(rounds, report.sync_rounds);
    assert_eq!(
        rec.counters()["bytes_communicated"],
        report.bytes_communicated
    );
}

#[test]
fn local_sgd_trace_is_the_fault_free_resilient_trace_in_its_own_run_span() {
    let data = dl_data::blobs(120, 3, 6, 6.0, 0.5, 2);
    let eval = dl_data::blobs(60, 3, 6, 6.0, 0.5, 3);
    let fault_free = ResilientConfig {
        checkpoint_interval: 0,
        ..config(24)
    };
    let plain = TimelineRecorder::new();
    let (plain_net, report) = local_sgd_traced(
        &cluster(4),
        &data,
        &eval,
        &[6, 16, 3],
        &fault_free.base,
        &plain,
    );
    let resilient = TimelineRecorder::new();
    let (resilient_net, _) = resilient_local_sgd_traced(
        &cluster(4),
        &data,
        &eval,
        &[6, 16, 3],
        &fault_free,
        &FaultPlan::none(),
        &resilient,
    );
    assert_eq!(plain_net.flat_params(), resilient_net.flat_params());

    let (p, r) = (plain.events(), resilient.events());
    assert_eq!(p.len(), r.len());
    let (start, end) = (&p[0], &p[p.len() - 1]);
    assert_eq!(
        (start.kind, start.name),
        (EventKind::SpanStart, "local_sgd")
    );
    assert_eq!((end.kind, end.name), (EventKind::SpanEnd, "local_sgd"));
    assert_eq!(end.fields, report.to_fields());
    assert_eq!(
        (r[0].kind, r[0].name),
        (EventKind::SpanStart, "resilient_local_sgd")
    );
    assert_eq!(p[1..p.len() - 1], r[1..r.len() - 1]);
    assert_eq!(plain.clock().now(), report.simulated_seconds);
}
