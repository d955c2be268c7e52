//! End-to-end monitoring integration: attach the `dl-monitor` tap to
//! real cluster and single-node serving runs and check the cross-crate
//! contracts E28 relies on — attaching the monitor never changes the
//! simulation (bit-identical reports, timelines, and histograms on a
//! fault-free run), the monitor aggregates per-replica series over a
//! `NullRecorder` inner (its `enabled()` override keeps the structured
//! samples flowing), and cluster fault instants land in the health
//! series. Runs identically at any `DL_THREADS` — all latencies are
//! `VirtualClock` simulated time.

use dl_distributed::{FaultEvent, FaultPlan};
use dl_monitor::{AlertKind, Monitor, MonitorConfig, SloRule};
use dl_obs::{NullRecorder, Recorder, TimelineRecorder};
use dl_serve::{
    build_family, open_loop, serve, serve_cluster, AdmissionPolicy, BatchPolicy, ClusterConfig,
    DeviceModel, FamilyConfig, LoadConfig, RouterPolicy, ServeConfig,
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

fn engine(device: DeviceModel) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy::dynamic(16, 5e-6),
        admission: AdmissionPolicy::AcceptAll,
        primary: "fp32-base".into(),
        device,
    }
}

#[test]
fn monitored_fault_free_cluster_run_is_bit_identical() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let cap1 = 1.0 / device.service_time(family.variants[0].cost_at(1));
    let load = open_loop(
        &LoadConfig {
            rate_rps: 4.0 * cap1,
            requests: 600,
            seed: 8,
        },
        eval.x.dims()[0],
    );
    let cfg = ClusterConfig {
        router: RouterPolicy::LeastLoaded,
        ..ClusterConfig::new(3, engine(device))
    };

    // Four paths over the identical run: plain timeline, monitored
    // timeline, plain null, monitored null.
    let plain_tl = TimelineRecorder::new();
    let plain = serve_cluster(&family, &eval, &load, &cfg, &plain_tl);
    let mon_tl = TimelineRecorder::new();
    let monitor = Monitor::new(&mon_tl, MonitorConfig::default());
    let monitored = serve_cluster(&family, &eval, &load, &cfg, &monitor);
    let report = monitor.report();
    let plain_null = serve_cluster(&family, &eval, &load, &cfg, &NullRecorder::new());
    let null = NullRecorder::new();
    let null_monitor = Monitor::new(&null, MonitorConfig::default());
    let monitored_null = serve_cluster(&family, &eval, &load, &cfg, &null_monitor);

    assert_eq!(plain, monitored, "monitor tap changed the cluster outcome");
    assert_eq!(plain, plain_null, "recorder choice changed the outcome");
    assert_eq!(plain, monitored_null, "monitored null path diverged");
    assert_eq!(
        plain_tl.events(),
        mon_tl.events(),
        "fault-free monitored timeline must be bit-identical (no alert instants)"
    );
    assert_eq!(
        plain_tl.histogram("serve.latency_s"),
        mon_tl.histogram("serve.latency_s"),
        "latency histogram must pass through the tap unchanged"
    );
    assert!(report.alerts.is_empty(), "no rules configured, no alerts");

    // The tap saw the whole fleet: per-replica attribution sums to the
    // fleet series and matches the cluster's own accounting.
    assert_eq!(report.replicas.len(), 3);
    assert_eq!(report.fleet.completions as usize, plain.serve.served);
    let per_replica: u64 = report.replicas.iter().map(|r| r.completions).sum();
    assert_eq!(per_replica, report.fleet.completions);
    for (mon, cluster) in report.replicas.iter().zip(&plain.per_replica) {
        assert_eq!(mon.completions as usize, cluster.served - cluster.wasted);
    }
}

#[test]
fn monitor_over_null_recorder_aggregates_and_alerts_under_overload() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let vmax = &family.variants[0];
    let cap_dyn = vmax.max_batch() as f64 / device.service_time(vmax.cost_at(vmax.max_batch()));
    // Steady 0.5x capacity fixes the healthy p99 the rules target.
    let calibrate = open_loop(
        &LoadConfig {
            rate_rps: 0.5 * cap_dyn,
            requests: 400,
            seed: 9,
        },
        eval.x.dims()[0],
    );
    let scfg = engine(device);
    let healthy = serve(&family, &eval, &calibrate, &scfg, &NullRecorder::new());
    // 2x capacity: the queue grows without bound, so the burn rule on a
    // 1.5x-healthy-p99 objective must fire.
    let overload = open_loop(
        &LoadConfig {
            rate_rps: 2.0 * cap_dyn,
            requests: 800,
            seed: 10,
        },
        eval.x.dims()[0],
    );
    let span = overload.last().expect("non-empty").arrival_s;
    let null = NullRecorder::new();
    let monitor = Monitor::new(
        &null,
        MonitorConfig {
            window_s: span / 32.0,
            latency_slo_s: 6.0 * healthy.p99_s,
            rules: vec![SloRule::BurnRate {
                name: "burn".into(),
                latency_slo_s: 1.5 * healthy.p99_s,
                budget: 0.02,
                fast_windows: 2,
                slow_windows: 8,
                threshold: 3.0,
            }],
            ..MonitorConfig::default()
        },
    );
    let report_serve = serve(&family, &eval, &overload, &scfg, &monitor);
    let rep = monitor.report();
    // enabled() == true over a NullRecorder inner keeps the structured
    // samples flowing even though nothing is stored downstream.
    assert_eq!(rep.fleet.completions as usize, report_serve.served);
    assert!(rep.fleet.completions > 0);
    assert!(
        rep.first_alert_s(AlertKind::BurnRate).is_some(),
        "sustained 2x overload must burn the error budget"
    );
    assert!(
        rep.fleet.p99_s >= rep.fleet.p50_s,
        "sketch quantiles are ordered"
    );
}

#[test]
fn cluster_crash_instants_reach_the_health_series() {
    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let cap1 = 1.0 / device.service_time(family.variants[0].cost_at(1));
    let load = open_loop(
        &LoadConfig {
            rate_rps: 4.0 * cap1,
            requests: 600,
            seed: 11,
        },
        eval.x.dims()[0],
    );
    let span = load.last().expect("non-empty").arrival_s;
    // One replica crashes a third of the way in and never rejoins.
    let cfg = ClusterConfig {
        router: RouterPolicy::LeastLoaded,
        faults: FaultPlan::new(vec![FaultEvent::WorkerCrash {
            worker: 1,
            at_step: 1,
        }]),
        seconds_per_step: span / 3.0,
        ..ClusterConfig::new(3, engine(device))
    };
    let null = NullRecorder::new();
    let monitor = Monitor::new(&null, MonitorConfig::default());
    let report = serve_cluster(&family, &eval, &load, &cfg, &monitor);
    let rep = monitor.report();
    assert_eq!(report.crashes, 1);
    assert_eq!(rep.fleet.crashes, 1, "crash instant must reach the monitor");
    assert_eq!(
        rep.replicas[1].crashes, 1,
        "attributed to the right replica"
    );
    assert_eq!(
        rep.replicas[1].health, 0.0,
        "a crashed replica's health pins to zero"
    );
    assert_eq!(rep.lost as usize, report.lost, "lost counter taps through");
}

/// A recorder that keeps every event in call order, each with the
/// clock's exact `f64` reading (event timestamps are rounded to whole
/// microseconds, too coarse to replay window rolls).
#[derive(Default)]
struct Tape {
    clock: dl_obs::VirtualClock,
    calls: std::sync::Mutex<Vec<(f64, dl_obs::Event)>>,
}

impl Tape {
    fn take(&self) -> Vec<(f64, dl_obs::Event)> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

impl Recorder for Tape {
    fn clock(&self) -> &dl_obs::VirtualClock {
        &self.clock
    }

    fn record(&self, event: dl_obs::Event) {
        let now = self.clock.now();
        self.calls.lock().unwrap().push((now, event));
    }

    fn add_counter(&self, _name: &str, _delta: u64) -> u64 {
        0
    }

    fn observe(&self, _name: &str, _value: f64) {}
}

/// A monitor fed live, where the engine's serve events arrive typed,
/// reports exactly what a second monitor reports when fed the same run's
/// recorded stream in field form through `record`: the same series,
/// drift verdicts and alerts, and the same stream forwarded inward, each
/// alert just before the event that fired it.
#[test]
fn typed_monitor_input_equals_replayed_timeline_over_many_seeds() {
    use dl_distributed::FaultProfile;
    use dl_monitor::DriftConfig;
    use dl_serve::RetryPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (family, eval) = family_and_eval();
    let device = DeviceModel::nominal();
    let service_s = device.service_time(family.variants[0].cost_at(1));
    const STEPS: usize = 32;
    let mut alerted_runs = 0;
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
        let serve = ServeConfig {
            admission: AdmissionPolicy::SloAware {
                p99_slo_s: service_s * rng.gen_range(2.0..20.0),
                headroom: 0.7,
                min_accuracy: 0.0,
            },
            ..engine(device.clone())
        };
        let cfg = ClusterConfig {
            router: RouterPolicy::PowerOfTwoChoices { seed },
            retry,
            faults: FaultPlan::from_profile(&profile, replicas, STEPS),
            seconds_per_step: horizon_s / STEPS as f64,
            dispatch_s: if seed % 2 == 0 { service_s * 0.1 } else { 0.0 },
            warmup_s: horizon_s / STEPS as f64,
            warmup_factor: 2.0,
            ..ClusterConfig::new(replicas, serve)
        };
        let slo_s = service_s * rng.gen_range(2.0..10.0);
        let monitor_cfg = MonitorConfig {
            window_s: horizon_s / rng.gen_range(8.0..64.0),
            latency_slo_s: slo_s,
            rules: vec![
                SloRule::LatencyQuantile {
                    name: "p99".into(),
                    q: 0.99,
                    target_s: slo_s,
                    windows: 4,
                },
                SloRule::BurnRate {
                    name: "burn".into(),
                    latency_slo_s: slo_s,
                    budget: 0.05,
                    fast_windows: 2,
                    slow_windows: 8,
                    threshold: 2.0,
                },
                SloRule::HealthBelow {
                    name: "health".into(),
                    threshold: 0.5,
                },
            ],
            drift: Some(DriftConfig {
                input_ref: None,
                pred_ref: Some(vec![0.7, 0.1, 0.1, 0.1]),
                windows: 4,
                min_samples: 4,
                psi_threshold: 0.25,
                kl_threshold: 0.5,
            }),
            ..MonitorConfig::default()
        };

        let live_tape = Tape::default();
        let live = Monitor::new(&live_tape, monitor_cfg.clone());
        let report = serve_cluster(&family, &eval, &load, &cfg, &live);
        crashed_runs += usize::from(report.crashes > 0);
        let live_report = live.report();
        let end_s = live_tape.clock().now();
        let calls = live_tape.take();

        let replay_tape = Tape::default();
        let replayed = Monitor::new(&replay_tape, monitor_cfg);
        for (t, e) in &calls {
            // The live monitor's own alerts are its output, not input.
            if e.name != "monitor.alert" {
                replay_tape.clock().set(*t);
                replayed.record(e.clone());
            }
        }
        replay_tape.clock().set(end_s);
        assert_eq!(
            replayed.report(),
            live_report,
            "seed {seed}: typed and replayed input disagree"
        );
        assert!(
            replay_tape.take() == calls,
            "seed {seed}: the streams forwarded inward differ"
        );
        alerted_runs += usize::from(!live_report.alerts.is_empty());
    }
    // The sweep must reach the chaos and the alerts it claims to cover.
    assert!(crashed_runs >= 100, "only {crashed_runs} runs crashed");
    assert!(alerted_runs >= 100, "only {alerted_runs} runs alerted");
}
