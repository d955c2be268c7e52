//! Cross-crate request-tracing integration: the dl-trace tap must be
//! invisible to the serving stack (bit-identical reports, histograms, and
//! timelines across every recorder path), and its reconstruction must
//! conserve — every request accounted for against the engine report, and
//! every waterfall's phases summing *exactly* to its end-to-end time.
//!
//! These pass unchanged under any `DL_THREADS` setting because simulated
//! time and answers never depend on the kernel pool width.

use dl_distributed::{FaultPlan, FaultProfile};
use dl_obs::{NullRecorder, TimelineRecorder};
use dl_serve::{
    build_family, open_loop, serve, serve_cluster, AdmissionPolicy, BatchPolicy, ClusterConfig,
    DeviceModel, FamilyConfig, LoadConfig, RetryPolicy, RouterPolicy, ServeConfig,
};
use dl_trace::{Outcome, TraceSet, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn serve_cfg(device: DeviceModel) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy::dynamic(16, 6e-6),
        admission: AdmissionPolicy::SloAware {
            p99_slo_s: 4e-5,
            headroom: 0.7,
            min_accuracy: 0.0,
        },
        primary: "fp32-base".into(),
        device,
    }
}

#[test]
fn traced_single_node_is_bit_identical_to_untraced() {
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
    let cfg = serve_cfg(device);

    // Reference: untraced serving on a plain timeline.
    let plain_rec = TimelineRecorder::new();
    let single = serve(&family, &eval, &load, &cfg, &plain_rec);

    // The same run with the Tracer tap wrapping the timeline.
    let traced_rec = TimelineRecorder::new();
    let tracer = Tracer::new(&traced_rec);
    let traced = serve(&family, &eval, &load, &cfg, &tracer);

    assert_eq!(traced, single, "tracing changed the serving outcome");
    assert_eq!(
        traced_rec.histogram("serve.latency_s"),
        plain_rec.histogram("serve.latency_s"),
        "latency histograms (including exemplar slots) must be bit-identical"
    );
    assert_eq!(
        traced_rec.events(),
        plain_rec.events(),
        "the inner timeline must not contain a single tracer-added event"
    );

    // The tap still captured a full trace while staying invisible.
    let traces = tracer.traces();
    traces
        .matches_report(single.served, single.shed, 0, 0)
        .expect("reconstruction must agree with the report");
    traces
        .verify_conservation()
        .expect("every waterfall must telescope exactly");
    assert_eq!(traces.requests.len(), single.offered);

    // Exemplar linking: the p99 bucket names a concrete served request.
    let hist = traced_rec
        .histogram("serve.latency_s")
        .expect("latency histogram exists");
    let bucket = hist.quantile_bucket(0.99).expect("non-empty histogram");
    let exemplar = hist.exemplar(bucket).expect("tail bucket has an exemplar");
    let linked = traces
        .requests
        .iter()
        .find(|t| t.id == exemplar)
        .expect("exemplar id resolves to a traced request");
    assert!(
        matches!(linked.outcome, Outcome::Served { .. }),
        "latency exemplars come from served requests"
    );
}

#[test]
fn all_four_recorder_paths_agree_on_the_outcome() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let cap1 = 1.0 / device.service_time(family.variants[0].cost_at(1));
    let load = open_loop(
        &LoadConfig {
            rate_rps: 3.0 * cap1,
            requests: 250,
            seed: 9,
        },
        eval.x.dims()[0],
    );
    let cfg = ClusterConfig::new(2, serve_cfg(device));

    let null = NullRecorder::new();
    let plain_null = serve_cluster(&family, &eval, &load, &cfg, &null);

    let timeline = TimelineRecorder::new();
    let plain_timeline = serve_cluster(&family, &eval, &load, &cfg, &timeline);

    let null_inner = NullRecorder::new();
    let traced_null = Tracer::new(&null_inner);
    let over_null = serve_cluster(&family, &eval, &load, &cfg, &traced_null);

    let timeline_inner = TimelineRecorder::new();
    let traced_timeline = Tracer::new(&timeline_inner);
    let over_timeline = serve_cluster(&family, &eval, &load, &cfg, &traced_timeline);

    assert_eq!(plain_null, plain_timeline, "timeline recording is invisible");
    assert_eq!(plain_null, over_null, "tracing over null is invisible");
    assert_eq!(plain_null, over_timeline, "tracing over timeline is invisible");
    assert_eq!(
        timeline.events(),
        timeline_inner.events(),
        "the tap forwards the timeline byte-for-byte"
    );
    assert_eq!(
        traced_null.retained_bytes(),
        traced_timeline.retained_bytes(),
        "the tap retains as much regardless of the inner recorder"
    );
    assert_eq!(
        traced_null.traces(),
        traced_timeline.traces(),
        "the tap retains the same trace regardless of the inner recorder"
    );
}

#[test]
fn crash_storm_reconstruction_conserves_every_request() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let cap1 = 1.0 / device.service_time(family.variants[0].cost_at(1));
    let load = open_loop(
        &LoadConfig {
            rate_rps: 6.0 * cap1,
            requests: 600,
            seed: 11,
        },
        eval.x.dims()[0],
    );
    let horizon_s = load.last().unwrap().arrival_s * 1.5;
    let faults = FaultPlan::from_profile(&FaultProfile::crashes(5, 12.0, 6.0), 3, 64);
    assert!(faults.crash_count() >= 2, "storm must schedule crashes");
    let cfg = ClusterConfig {
        retry: RetryPolicy::retries(2),
        faults,
        seconds_per_step: horizon_s / 64.0,
        warmup_s: horizon_s / 64.0,
        warmup_factor: 2.0,
        ..ClusterConfig::new(3, serve_cfg(device))
    };

    let rec = TimelineRecorder::new();
    let tracer = Tracer::new(&rec);
    let report = serve_cluster(&family, &eval, &load, &cfg, &tracer);
    assert!(report.crashes >= 2, "crashes must fire");

    let traces = tracer.traces();
    traces
        .matches_report(
            report.serve.served,
            report.serve.shed,
            report.lost,
            report.unavailable,
        )
        .expect("reconstruction must mirror the report under chaos");
    traces
        .verify_conservation()
        .expect("phase sums must stay exact under crashes and retries");

    // Retried-then-served requests must show their pre-branch wait.
    if report.retried > 0 && report.lost < report.serve.offered {
        let rerouted = traces
            .requests
            .iter()
            .filter(|t| {
                matches!(
                    t.outcome,
                    Outcome::Served {
                        via: dl_trace::DispatchKind::Retry,
                        ..
                    }
                )
            })
            .count();
        let lost = traces
            .requests
            .iter()
            .filter(|t| matches!(t.outcome, Outcome::Lost))
            .count();
        assert!(
            rerouted + lost > 0,
            "a crash storm with retries must leave visible retry branches"
        );
    }

    // The reconstruction is a pure function of the event stream: feeding
    // the full timeline (not just the tap's copy) gives the same answer.
    assert_eq!(traces, TraceSet::reconstruct(&rec.events()));
}

/// The live tap and the timeline agree over many seeded chaos runs: for
/// each small `serve_cluster` run with a random fault plan (crashes,
/// degraded links, stragglers), retry or hedge policy and router, the
/// tracer's waterfalls equal the ones rebuilt from the inner timeline,
/// every waterfall telescopes exactly, and the outcomes match the report.
#[test]
fn tracer_equals_timeline_reconstruction_over_many_seeds() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let service_s = device.service_time(family.variants[0].cost_at(1));
    const STEPS: usize = 32;
    let mut hedged_runs = 0;
    let mut crashed_runs = 0;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let replicas = rng.gen_range(1..5usize);
        let load = open_loop(
            &LoadConfig {
                rate_rps: rng.gen_range(1.0..8.0) / service_s,
                requests: rng.gen_range(10..60usize),
                seed,
            },
            eval.x.dims()[0],
        );
        let horizon_s = load.last().unwrap().arrival_s * 1.5;
        let profile = FaultProfile {
            crash_mtbf: rng.gen_range(4.0..40.0),
            repair_mttr: rng.gen_range(1.0..12.0),
            degrade_mtbf: rng.gen_range(0.0..20.0),
            degrade_duration: 3.0,
            degrade_factor: 0.25,
            straggler_mtbf: rng.gen_range(0.0..20.0),
            straggler_duration: 4.0,
            straggler_slowdown: 6.0,
            ..FaultProfile::none(seed)
        };
        let retry = match seed % 3 {
            0 => RetryPolicy::retries(rng.gen_range(0..3usize)),
            1 => RetryPolicy::hedged(
                rng.gen_range(0..3usize),
                service_s * rng.gen_range(0.5..4.0),
            ),
            _ => RetryPolicy::none(),
        };
        let router = match seed % 4 {
            0 => RouterPolicy::RoundRobin,
            1 => RouterPolicy::LeastLoaded,
            _ => RouterPolicy::PowerOfTwoChoices { seed },
        };
        let cfg = ClusterConfig {
            router,
            retry,
            faults: FaultPlan::from_profile(&profile, replicas, STEPS),
            seconds_per_step: horizon_s / STEPS as f64,
            dispatch_s: if seed % 2 == 0 { service_s * 0.1 } else { 0.0 },
            warmup_s: horizon_s / STEPS as f64,
            warmup_factor: 2.0,
            ..ClusterConfig::new(replicas, serve_cfg(device.clone()))
        };

        let timeline = TimelineRecorder::new();
        let tracer = Tracer::new(&timeline);
        let report = serve_cluster(&family, &eval, &load, &cfg, &tracer);
        hedged_runs += usize::from(report.hedged > 0);
        crashed_runs += usize::from(report.crashes > 0);

        let live = tracer.traces();
        assert_eq!(
            live,
            TraceSet::reconstruct(&timeline.events()),
            "seed {seed}: the tap and the timeline disagree"
        );
        live.verify_conservation()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        live.matches_report(
            report.serve.served,
            report.serve.shed,
            report.lost,
            report.unavailable,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(live.requests.len(), load.len(), "seed {seed}");
    }
    // The sweep must actually reach the chaos it claims to cover.
    assert!(hedged_runs >= 30, "only {hedged_runs} runs hedged");
    assert!(crashed_runs >= 100, "only {crashed_runs} runs crashed");
}
