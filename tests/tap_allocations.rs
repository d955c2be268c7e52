//! Allocation budget of the deployed observability taps.
//!
//! One chaos cluster cell (crashes, retries, hedging, power-of-two
//! routing) is served twice while a counting global allocator tallies
//! every heap allocation: once over a bare `NullRecorder`, and once
//! through `Tracer` over `Monitor` over a `NullRecorder`, the stack the
//! serving benchmark deploys. The budgets are per offered request, so they
//! catch an engine that builds event fields nobody reads and a tap that
//! starts allocating per event again. This file is a test binary of its
//! own with a single test, so no other test allocates while it counts.

mod counting_alloc;

use counting_alloc::allocations_during;
use dl_distributed::{FaultPlan, FaultProfile};
use dl_monitor::{Monitor, MonitorConfig, SloRule};
use dl_obs::NullRecorder;
use dl_serve::{
    build_family, open_loop, serve_cluster, AdmissionPolicy, BatchPolicy, ClusterConfig,
    DeviceModel, FamilyConfig, LoadConfig, RetryPolicy, RouterPolicy, ServeConfig,
};
use dl_trace::Tracer;

/// Allocations (including reallocations) per offered request of the
/// serving call over a bare `NullRecorder`: the measured 0.853, rounded
/// up.
const BARE_ALLOCS_PER_REQUEST: f64 = 0.86;

/// Allocations per offered request of the serving call through both taps:
/// the measured 1.4875, rounded up. Serve events reach the taps typed, so
/// no event builds a field list; when every event built one, this read
/// 6.10.
const TAPPED_ALLOCS_PER_REQUEST: f64 = 1.49;

/// Allocations of one waterfall reconstruction of the cell's 4,000
/// requests: a handful of buffers (5 measured), none per request.
const RECONSTRUCT_ALLOCS: u64 = 5;

#[test]
fn tracer_over_monitor_stays_within_its_allocation_budget() {
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
    let device = DeviceModel::nominal();
    let cap = 1.0 / device.service_time(family.variants[0].cost_at(16)) * 16.0;
    let requests = 4_000;
    let rate = 2.0 * cap;
    let load = open_loop(
        &LoadConfig {
            rate_rps: rate,
            requests,
            seed: 3,
        },
        eval.x.dims()[0],
    );
    const STEPS: usize = 64;
    let sps = requests as f64 / rate / STEPS as f64;
    let cfg = ClusterConfig {
        router: RouterPolicy::PowerOfTwoChoices { seed: 17 },
        retry: RetryPolicy::hedged(3, 4.0 * 16.0 / cap),
        faults: FaultPlan::from_profile(&FaultProfile::crashes(5, 16.0, 4.0), 4, STEPS),
        seconds_per_step: sps,
        dispatch_s: 1e-6,
        warmup_s: sps,
        warmup_factor: 2.0,
        ..ClusterConfig::new(
            4,
            ServeConfig {
                batch: BatchPolicy::dynamic(16, 5e-6),
                admission: AdmissionPolicy::AcceptAll,
                primary: "fp32-base".into(),
                device,
            },
        )
    };
    let slo_s = 2e-4;
    let monitor_cfg = MonitorConfig {
        window_s: sps,
        latency_slo_s: slo_s,
        rules: vec![
            SloRule::LatencyQuantile {
                name: "p99".into(),
                q: 0.99,
                target_s: slo_s,
                windows: 8,
            },
            SloRule::HealthBelow {
                name: "health".into(),
                threshold: 0.5,
            },
        ],
        ..MonitorConfig::default()
    };

    // One kernel thread, so the counts do not depend on `DL_THREADS`.
    let serve_through = |rec: &dyn dl_obs::Recorder| {
        let (report, allocs) = allocations_during(|| {
            dl_tensor::par::with_threads(1, || serve_cluster(&family, &eval, &load, &cfg, rec))
        });
        (report, allocs as f64 / requests as f64)
    };
    let (_, bare) = serve_through(&NullRecorder::new());
    let null = NullRecorder::new();
    let monitor = Monitor::new(&null, monitor_cfg);
    let tracer = Tracer::new(&monitor);
    let (report, tapped) = serve_through(&tracer);
    let (traces, reconstruct_allocs) = allocations_during(|| tracer.traces());

    assert!(
        report.crashes > 0 && report.hedged > 0,
        "the cell must be chaotic"
    );
    assert_eq!(traces.requests.len(), requests);
    eprintln!(
        "allocations per request: {bare:.2} bare, {tapped:.2} tapped; \
         {reconstruct_allocs} to reconstruct"
    );
    assert!(
        bare <= BARE_ALLOCS_PER_REQUEST,
        "{bare:.2} allocations per request untapped, budget {BARE_ALLOCS_PER_REQUEST}"
    );
    assert!(
        tapped <= TAPPED_ALLOCS_PER_REQUEST,
        "{tapped:.2} allocations per request tapped, budget {TAPPED_ALLOCS_PER_REQUEST}"
    );
    assert!(
        reconstruct_allocs <= RECONSTRUCT_ALLOCS,
        "{reconstruct_allocs} allocations to reconstruct, budget {RECONSTRUCT_ALLOCS}"
    );
}
