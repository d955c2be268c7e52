//! E27 — chaos-tested cluster serving: replication, routing, autoscaling.
//!
//! Claim: the serving tier's robustness knobs are quantifiable on the
//! deterministic cluster simulator. Four pillars: (1) under a crash
//! storm, adding replicas drives the failed-request fraction down while
//! p99 stays SLO-governed; (2) with one straggling replica, load-aware
//! routing (least-loaded) beats oblivious round-robin on p99;
//! (3) bounded crash-retries recover work fire-and-forget loses, and
//! hedged requests additionally cut the straggler tail; (4) a reactive
//! autoscaler sized by the family's measured cost tables absorbs a 3x
//! load step within a measurable reaction time. Everything runs on one
//! `VirtualClock`, so every cell is byte-reproducible and the whole
//! experiment is gated by `BENCH_E27.json`.

use crate::table::{ExperimentResult, Table};
use dl_core::{Category, Constraint, Metrics, Registry, Technique, TradeoffNavigator};
use dl_distributed::{FaultEvent, FaultPlan, FaultProfile};
use dl_obs::{fields, Fields, NullRecorder, Recorder, ToFields};
use dl_serve::{
    build_family, bursty, open_loop, serve_cluster, AdmissionPolicy, AutoscaleConfig, BatchPolicy,
    BurstConfig, ClusterConfig, ClusterReport, DeviceModel, FamilyConfig, LoadConfig, Request,
    RetryPolicy, RouterPolicy, ServeConfig,
};

/// The p99 objective the SLO-aware cells are governed against.
const SLO_S: f64 = 2e-5;
/// Fault-plan step grid every chaos schedule is laid out on.
const STEPS: usize = 64;

fn base_engine(admission: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy::dynamic(16, 5e-6),
        admission,
        primary: "fp32-base".into(),
        device: DeviceModel::nominal(),
    }
}

fn cluster_record(scenario: &str, config: &str, replicas: usize, r: &ClusterReport) -> Fields {
    let mut f = fields! {
        "scenario" => scenario.to_string(),
        "config" => config.to_string(),
        "replicas" => replicas,
        "lost" => r.lost,
        "unavailable" => r.unavailable,
        "retried" => r.retried,
        "hedged" => r.hedged,
        "crashes" => r.crashes,
        "rejoins" => r.rejoins,
        "peak_replicas" => r.peak_replicas,
        "final_replicas" => r.final_replicas,
        "failure_fraction" => r.failure_fraction(),
    };
    f.extend(r.serve.to_fields());
    f
}

fn cluster_row(
    table: &mut Table,
    scenario: &str,
    config: &str,
    replicas: usize,
    r: &ClusterReport,
) {
    table.row(&[
        scenario.into(),
        config.into(),
        format!("{replicas}"),
        format!("{:.1}", r.serve.p99_s * 1e6),
        format!("{}", r.serve.served),
        format!("{}/{}/{}", r.serve.shed, r.lost, r.unavailable),
        format!("{}/{}", r.retried, r.hedged),
        format!("{:.1}", r.failure_fraction() * 100.0),
    ]);
}

fn load(rate_rps: f64, requests: usize, seed: u64, rows: usize) -> Vec<Request> {
    open_loop(
        &LoadConfig {
            rate_rps,
            requests,
            seed,
        },
        rows,
    )
}

/// Runs the experiment without tracing.
pub fn run() -> ExperimentResult {
    run_with(&NullRecorder::new())
}

/// Runs the experiment, threading `rec` into the headline crash-storm
/// cell so its per-replica tracks, crash/rejoin instants and latency
/// histogram land in the trace.
pub fn run_with(rec: &dyn Recorder) -> ExperimentResult {
    let data = dl_data::blobs(160, 3, 8, 6.0, 0.5, 93);
    let eval = dl_data::blobs(96, 3, 8, 6.0, 0.5, 94);
    let rows = eval.x.dims()[0];
    let family = build_family(
        &data,
        &eval,
        &FamilyConfig {
            teacher_dims: vec![8, 24, 3],
            student_hidden: vec![6],
            prune_sparsity: 0.7,
            morph_budget: 150,
            ensemble_members: 2,
            max_batch: 16,
            epochs: 9,
            seed: 95,
        },
    );
    let device = DeviceModel::nominal();
    // Measured per-replica capacity at full batch — the denominator every
    // rate in this experiment is expressed against (and the same number
    // the autoscaler sizes with).
    let cap_dyn = {
        let v = &family.variants[0];
        v.max_batch() as f64 / device.service_time(v.cost_at(v.max_batch()))
    };

    let mut table = Table::new(&[
        "scenario", "config", "repl", "p99 us", "served", "shed/lost/unav", "retr/hedge",
        "fail %",
    ]);
    let mut records: Vec<Fields> = Vec::new();

    // Cost accounting for the served family (dl-prof measured costs).
    for v in &family.variants {
        records.push(fields! {
            "variant" => v.name.clone(),
            "accuracy" => v.accuracy,
            "weight_bytes" => v.weight_bytes,
            "flops1" => v.cost_at(1).flops,
            "svc1_s" => device.service_time(v.cost_at(1)),
        });
    }

    // --- pillar 1: replica sweep under a crash storm ----------------------
    // Total offered rate is fixed at 1.5x ONE replica's capacity, so the
    // one-replica cell is overloaded before the first crash and each added
    // replica buys real headroom against both load and faults.
    let storm_rate = 1.5 * cap_dyn;
    let storm_reqs = load(storm_rate, 1200, 101, rows);
    let storm_span = storm_reqs.last().expect("non-empty").arrival_s;
    let seconds_per_step = storm_span / (STEPS as f64 * 0.75);
    let mut sweep: Vec<(usize, ClusterReport)> = Vec::new();
    for replicas in 1..=4usize {
        let cfg = ClusterConfig {
            retry: RetryPolicy::retries(2),
            faults: FaultPlan::from_profile(&FaultProfile::crashes(7, 20.0, 6.0), replicas, STEPS),
            seconds_per_step,
            warmup_s: seconds_per_step,
            warmup_factor: 2.0,
            ..ClusterConfig::new(
                replicas,
                base_engine(AdmissionPolicy::SloAware {
                    p99_slo_s: SLO_S,
                    headroom: 0.7,
                    min_accuracy: 0.0,
                }),
            )
        };
        // The 3-replica cell is the headline trace.
        let cell_rec: &dyn Recorder = if replicas == 3 { rec } else { &NullRecorder::new() };
        let r = serve_cluster(&family, &eval, &storm_reqs, &cfg, cell_rec);
        cluster_row(&mut table, "crash-storm", "slo+retry2", replicas, &r);
        records.push(cluster_record("crash-storm", "slo+retry2", replicas, &r));
        sweep.push((replicas, r));
    }
    let fail_1 = sweep[0].1.failure_fraction();
    let fail_4 = sweep[3].1.failure_fraction();
    let storm_crashes: usize = sweep.iter().map(|(_, r)| r.crashes).sum();
    let replication_wins = storm_crashes >= 4 && fail_4 < 0.5 * fail_1;

    // --- pillar 2: router policies against a degraded replica -------------
    // Replica 0 straggles at 4x all run; a mid-run link degradation
    // quadruples dispatch latency for everyone. Round-robin keeps feeding
    // the slow replica obliviously; load-aware policies see its backlog.
    let router_rate = 1.8 * cap_dyn;
    let router_reqs = load(router_rate, 900, 102, rows);
    let router_span = router_reqs.last().expect("non-empty").arrival_s;
    let router_sps = router_span / (STEPS as f64 * 0.75);
    let degraded = FaultPlan::new(vec![
        FaultEvent::Straggler {
            worker: 0,
            slowdown: 4.0,
            from_step: 0,
            to_step: STEPS,
        },
        FaultEvent::LinkDegrade {
            factor: 0.25,
            from_step: STEPS / 4,
            to_step: STEPS / 2,
        },
    ]);
    let mut router_p99 = Vec::new();
    for (name, policy) in [
        ("round-robin", RouterPolicy::RoundRobin),
        ("least-loaded", RouterPolicy::LeastLoaded),
        ("power-of-two", RouterPolicy::PowerOfTwoChoices { seed: 17 }),
    ] {
        let cfg = ClusterConfig {
            router: policy,
            faults: degraded.clone(),
            seconds_per_step: router_sps,
            dispatch_s: 1e-6,
            ..ClusterConfig::new(3, base_engine(AdmissionPolicy::AcceptAll))
        };
        let r = serve_cluster(&family, &eval, &router_reqs, &cfg, &NullRecorder::new());
        cluster_row(&mut table, "degraded", name, 3, &r);
        records.push(cluster_record("degraded", name, 3, &r));
        router_p99.push((name, r.serve.p99_s, r.serve.served));
    }
    let rr_p99 = router_p99[0].1;
    let ll_p99 = router_p99[1].1;
    let routing_wins = router_p99.iter().all(|&(_, _, served)| served == 900)
        && ll_p99 < rr_p99;

    // --- pillar 3: retry vs hedge under crashes + a straggler --------------
    let tail_rate = 1.5 * cap_dyn;
    let tail_reqs = load(tail_rate, 900, 103, rows);
    let tail_span = tail_reqs.last().expect("non-empty").arrival_s;
    let tail_sps = tail_span / (STEPS as f64 * 0.75);
    let mut chaos_events = FaultPlan::from_profile(&FaultProfile::crashes(11, 24.0, 6.0), 3, STEPS)
        .events()
        .to_vec();
    chaos_events.push(FaultEvent::Straggler {
        worker: 1,
        slowdown: 8.0,
        from_step: 0,
        to_step: STEPS,
    });
    let chaos = FaultPlan::new(chaos_events);
    // The hedge fires after ~2 full-batch service times: long enough that
    // healthy replicas never trigger it, short enough to escape the 8x
    // straggler.
    let hedge_delay_s = 2.0 * 16.0 / cap_dyn;
    let mut tail_cells: Vec<(&str, ClusterReport)> = Vec::new();
    for (name, retry) in [
        ("no-retry", RetryPolicy::none()),
        ("retry2", RetryPolicy::retries(2)),
        ("retry2+hedge", RetryPolicy::hedged(2, hedge_delay_s)),
    ] {
        let cfg = ClusterConfig {
            retry,
            faults: chaos.clone(),
            seconds_per_step: tail_sps,
            warmup_s: tail_sps,
            warmup_factor: 2.0,
            ..ClusterConfig::new(3, base_engine(AdmissionPolicy::AcceptAll))
        };
        let r = serve_cluster(&family, &eval, &tail_reqs, &cfg, &NullRecorder::new());
        cluster_row(&mut table, "tail", name, 3, &r);
        records.push(cluster_record("tail", name, 3, &r));
        tail_cells.push((name, r));
    }
    let lost_none = tail_cells[0].1.lost;
    let lost_retry = tail_cells[1].1.lost;
    let retry_recovers = lost_none > 0
        && lost_retry < lost_none
        && tail_cells[1].1.retried > 0
        && tail_cells[1].1.serve.served > tail_cells[0].1.serve.served;
    let hedge = &tail_cells[2].1;
    let hedge_cuts_tail =
        hedge.hedged > 0 && hedge.serve.p99_s < tail_cells[1].1.serve.p99_s;

    // --- pillar 4: autoscale reaction to a 3x load step --------------------
    // Off-first bursty load: the first half-period runs at 70% of one
    // replica's capacity, then steps to 3x that for the rest of the run.
    let base_rate = 0.7 * cap_dyn;
    let t_off = 700.0 / base_rate;
    let step_reqs = bursty(
        &LoadConfig {
            rate_rps: base_rate,
            requests: 2000,
            seed: 104,
        },
        &BurstConfig {
            period_s: 2.0 * t_off,
            duty: 0.5,
            multiplier: 3.0,
        },
        rows,
    );
    let provision_delay_s = t_off / 20.0;
    let scale_cfg = AutoscaleConfig::new(
        t_off / 10.0,
        t_off / 8.0,
        0.7,
        1,
        6,
        provision_delay_s,
    );
    let auto_cfg = ClusterConfig {
        autoscale: Some(scale_cfg),
        warmup_s: t_off / 40.0,
        warmup_factor: 1.5,
        ..ClusterConfig::new(1, base_engine(AdmissionPolicy::AcceptAll))
    };
    let auto = serve_cluster(&family, &eval, &step_reqs, &auto_cfg, &NullRecorder::new());
    cluster_row(&mut table, "load-step", "autoscale", 1, &auto);
    records.push(cluster_record("load-step", "autoscale", 1, &auto));
    let fixed = serve_cluster(
        &family,
        &eval,
        &step_reqs,
        &ClusterConfig::new(1, base_engine(AdmissionPolicy::AcceptAll)),
        &NullRecorder::new(),
    );
    cluster_row(&mut table, "load-step", "fixed-1", 1, &fixed);
    records.push(cluster_record("load-step", "fixed-1", 1, &fixed));
    // Reaction time: step onset until enough capacity for the 3x rate
    // (ceil(3 * 0.7 / 0.7) = 3 replicas) is *live*, provisioning included.
    let needed = 3usize;
    let reaction_s = auto
        .scale_events
        .iter()
        .find(|e| e.target >= needed)
        .map(|e| e.at_s + provision_delay_s - t_off)
        .unwrap_or(f64::INFINITY);
    let autoscale_reacts = auto.peak_replicas >= needed
        && reaction_s > 0.0
        && reaction_s < 0.5 * t_off
        && auto.serve.p99_s < fixed.serve.p99_s;

    // --- the robustness knobs in the tradeoff navigator -------------------
    // Each sweep cell is a technique: availability bought with replicated
    // memory. The navigator prices the fleet from the same measured
    // weight/flop costs the serving tier uses.
    let mut registry = Registry::new();
    let base_bytes = family.variants[0].weight_bytes;
    let base_flops = family.variants[0].cost_at(1).flops;
    for (replicas, r) in &sweep {
        registry
            .add(Technique {
                name: format!("cluster-{replicas}x"),
                category: Category::Robustness,
                metrics: Metrics {
                    accuracy: 1.0 - r.failure_fraction(),
                    train_flops: 0,
                    inference_flops: base_flops * (*replicas as u64),
                    memory_bytes: base_bytes * (*replicas as u64),
                    energy_kwh: 0.0,
                },
                baseline: Some("cluster-1x".into()),
            })
            .expect("unique replica counts");
    }
    let navigator = TradeoffNavigator::new(&registry);
    let frontier = navigator.frontier().len();
    let budget_pick = navigator
        .recommend(&[Constraint::MaxMemoryBytes(base_bytes * 2)])
        .map(|t| t.name.clone())
        .unwrap_or_default();
    let navigable = frontier > 0 && !budget_pick.is_empty();

    records.push(fields! {
        "cap_dyn_rps" => cap_dyn,
        "slo_s" => SLO_S,
        "fail_frac_1" => fail_1,
        "fail_frac_4" => fail_4,
        "storm_crashes" => storm_crashes,
        "rr_p99_s" => rr_p99,
        "ll_p99_s" => ll_p99,
        "p2c_p99_s" => router_p99[2].1,
        "lost_no_retry" => lost_none,
        "lost_retry2" => lost_retry,
        "hedged" => hedge.hedged,
        "hedge_p99_s" => hedge.serve.p99_s,
        "retry_p99_s" => tail_cells[1].1.serve.p99_s,
        "reaction_s" => reaction_s,
        "peak_replicas" => auto.peak_replicas,
        "auto_p99_s" => auto.serve.p99_s,
        "fixed_p99_s" => fixed.serve.p99_s,
        "frontier_size" => frontier,
        "robustness_techniques" => registry.by_category(Category::Robustness).len(),
        "recommended_under_budget" => budget_pick.clone(),
    });

    let ok = replication_wins && routing_wins && retry_recovers && hedge_cuts_tail
        && autoscale_reacts && navigable;
    ExperimentResult {
        id: "e27".into(),
        title: "cluster serving: replication, fault-aware routing, autoscaling".into(),
        table,
        verdict: if ok {
            format!(
                "matches the claim: 4 replicas cut the crash-storm failure fraction {:.1}% -> \
                 {:.1}%, least-loaded routing beats round-robin p99 {:.1}us vs {:.1}us past a 4x \
                 straggler, retries recover {} of {} lost requests and hedging trims p99 to \
                 {:.1}us, and the autoscaler reaches {} replicas {:.0}us after a 3x load step",
                fail_1 * 100.0,
                fail_4 * 100.0,
                ll_p99 * 1e6,
                rr_p99 * 1e6,
                lost_none - lost_retry,
                lost_none,
                hedge.serve.p99_s * 1e6,
                needed,
                reaction_s * 1e6,
            )
        } else {
            format!(
                "PARTIAL: replication_wins={replication_wins} routing_wins={routing_wins} \
                 retry_recovers={retry_recovers} hedge_cuts_tail={hedge_cuts_tail} \
                 autoscale_reacts={autoscale_reacts} navigable={navigable}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e27_cluster_matches_claim() {
        let r = super::run();
        assert!(r.verdict.contains("matches the claim"), "verdict: {}", r.verdict);
        let summary = r.records.last().unwrap();
        let fail_1 = crate::table::field_f64(summary, "fail_frac_1").unwrap();
        let fail_4 = crate::table::field_f64(summary, "fail_frac_4").unwrap();
        assert!(fail_4 < fail_1, "replication must cut failures: {fail_4} vs {fail_1}");
        let reaction = crate::table::field_f64(summary, "reaction_s").unwrap();
        assert!(reaction.is_finite() && reaction > 0.0, "reaction {reaction}");
    }

    #[test]
    fn e27_is_deterministic_byte_for_byte() {
        let a = super::run();
        let b = super::run();
        assert_eq!(a.to_json(), b.to_json(), "two runs must be byte-identical");
    }
}
