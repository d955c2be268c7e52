//! End-to-end serving integration: build a small variant family from one
//! trained network, drive it with a seeded open-loop load through the
//! SLO-aware engine, and check the cross-crate contracts that E25 relies
//! on — tracing invisibility, real batching wins, and trace content.

use dl_obs::{EventKind, NullRecorder, TimelineRecorder};
use dl_serve::{
    build_family, open_loop, serve, AdmissionPolicy, BatchPolicy, DeviceModel, FamilyConfig,
    LoadConfig, ServeConfig,
};

fn family_and_eval() -> (dl_serve::VariantRegistry, dl_nn::Dataset) {
    let data = dl_data::blobs(160, 4, 10, 6.0, 0.6, 70);
    let eval = dl_data::blobs(80, 4, 10, 6.0, 0.6, 71);
    let family = build_family(
        &data,
        &eval,
        &FamilyConfig {
            teacher_dims: vec![10, 24, 4],
            student_hidden: vec![6],
            prune_sparsity: 0.7,
            morph_budget: 260,
            ensemble_members: 2,
            max_batch: 16,
            epochs: 10,
            seed: 77,
        },
    );
    (family, eval)
}

#[test]
fn traced_and_untraced_serving_agree_and_the_trace_is_complete() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let cap1 = 1.0 / device.service_time(family.variants[0].cost_at(1));
    let load = open_loop(
        &LoadConfig {
            rate_rps: 4.0 * cap1,
            requests: 400,
            seed: 5,
        },
        eval.x.dims()[0],
    );
    let cfg = ServeConfig {
        batch: BatchPolicy::dynamic(16, 6e-6),
        admission: AdmissionPolicy::SloAware {
            p99_slo_s: 4e-5,
            headroom: 0.7,
            min_accuracy: 0.0,
        },
        primary: "fp32-base".into(),
        device,
    };

    let silent = serve(&family, &eval, &load, &cfg, &NullRecorder::new());
    let rec = TimelineRecorder::new();
    let traced = serve(&family, &eval, &load, &cfg, &rec);
    // Tracing must be invisible to the simulated outcome.
    assert_eq!(silent, traced, "recorder choice changed the serving outcome");
    assert_eq!(silent.offered, 400);
    assert_eq!(
        silent.served + silent.shed,
        silent.offered,
        "every request is either served or shed"
    );

    // The trace carries the run: one batch span per flush, a latency
    // histogram observation per served request, shed instants when the
    // controller rejects.
    let events = rec.events();
    let batch_spans = events
        .iter()
        .filter(|e| e.name == "serve.batch" && e.kind == EventKind::SpanStart)
        .count();
    let total_batches: usize = silent.per_variant.iter().map(|v| v.batches).sum();
    assert_eq!(batch_spans, total_batches, "one span per flushed batch");
    let hist = rec.histogram("serve.latency_s").expect("latency histogram");
    assert_eq!(hist.count, silent.served as u64);
    if silent.shed > 0 {
        assert!(
            events.iter().any(|e| e.name == "serve.shed"),
            "sheds must leave instants in the trace"
        );
    }
}

#[test]
fn dynamic_batching_beats_batch_one_end_to_end() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let cap1 = 1.0 / device.service_time(family.variants[0].cost_at(1));
    let load = open_loop(
        &LoadConfig {
            rate_rps: 3.0 * cap1,
            requests: 400,
            seed: 6,
        },
        eval.x.dims()[0],
    );
    let run = |batch: BatchPolicy| {
        let cfg = ServeConfig {
            batch,
            admission: AdmissionPolicy::AcceptAll,
            primary: "fp32-base".into(),
            device: device.clone(),
        };
        serve(&family, &eval, &load, &cfg, &NullRecorder::new())
    };
    let single = run(BatchPolicy::no_batching());
    let dynamic = run(BatchPolicy::dynamic(16, 5e-6));
    assert!(
        dynamic.throughput_rps > 2.0 * single.throughput_rps,
        "dynamic {} rps should beat 2x batch=1 {} rps",
        dynamic.throughput_rps,
        single.throughput_rps
    );
    assert!(
        dynamic.p99_s < single.p99_s,
        "amortized service must also shrink the tail: {} vs {}",
        dynamic.p99_s,
        single.p99_s
    );
    assert!(dynamic.mean_batch > 1.5, "batches actually formed");
}
