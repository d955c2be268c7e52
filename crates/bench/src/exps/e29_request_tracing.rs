//! E29 — per-request tracing: waterfalls, tail attribution, conservation.
//!
//! Claim: the `dl-trace` tap explains *where* cluster tail latency comes
//! from, request by request, without perturbing a single byte. Four
//! pillars: (1) against a degraded replica, the round-robin vs
//! least-loaded p99 gap decomposes into phases — oblivious routing pays
//! in **queue wait** behind the straggler's backlog, which load-aware
//! routing avoids; (2) under chaos, hedging's tail cut is *visible in
//! the waterfalls*: requests served via the hedge branch escaped the
//! straggler, at a measurable wasted-duplicate cost; (3) on a steady
//! run, tracing is bit-invisible — report, timeline, and histogram are
//! byte-identical across plain/traced × timeline/null recorder paths —
//! while every reconstructed waterfall's phases sum *exactly* (integer
//! microseconds, not ±ε) to its end-to-end latency, and histogram tail
//! buckets link to concrete requests via exemplars; (4) a crash storm
//! conserves: reconstructed served/shed/lost/unavailable tallies equal
//! the engine report's own accounting. Everything runs on one
//! `VirtualClock` and is gated by `BENCH_E29.json`.

use super::{
    cluster_engine, cluster_family, cluster_slo, crash_storm, degraded_replica, load,
    straggler_tail, CLUSTER_SLO_S,
};
use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_core::{Category, Metrics, Registry, Technique};
use dl_obs::{fields, Fields, NullRecorder, Recorder, TimelineRecorder};
use dl_serve::{
    replica_capacity_rps, serve_cluster, ClusterConfig, DeviceModel, RetryPolicy, RouterPolicy,
};
use dl_trace::{
    by_replica, phase_breakdown, tail_mean_phase_us, DispatchKind, Outcome, Phase, TraceSet,
    Tracer, PHASE_COUNT,
};

/// Slowest fraction of served requests called "the tail" here.
const TAIL_FRAC: f64 = 0.01;

/// Tail (slowest `TAIL_FRAC` of served) mean phase vector and its sum.
/// Phase sums are exact per request, so the vector sums to the tail's
/// mean end-to-end latency exactly.
fn tail_of(set: &TraceSet) -> ([f64; PHASE_COUNT], f64) {
    let (mean, _) = tail_mean_phase_us(set, TAIL_FRAC);
    let e2e: f64 = mean.iter().sum();
    (mean, e2e)
}

/// One traced cell's record: outcome tallies, exact phase quantiles, and
/// the tail decomposition.
fn trace_record(scenario: &'static str, config: &'static str, set: &TraceSet) -> Fields {
    let pb = phase_breakdown(set);
    let (tail, tail_e2e) = tail_of(set);
    let mut f = fields! {
        "scenario" => scenario,
        "config" => config,
        "traced" => set.requests.len(),
        "served" => set.counts.served,
        "shed" => set.counts.shed,
        "lost" => set.counts.lost,
        "unavailable" => set.counts.unavailable,
        "e2e_p50_us" => pb.e2e_p50_us,
        "e2e_p99_us" => pb.e2e_p99_us,
        "tail_e2e_us" => tail_e2e,
    };
    for (i, phase) in Phase::ALL.iter().enumerate() {
        f.push((
            format!("p99_{}_us", phase.label()).into(),
            pb.p99_us[i].into(),
        ));
        f.push((format!("tail_{}_us", phase.label()).into(), tail[i].into()));
    }
    f
}

const COLUMNS: &[Column] = &[
    col("scenario", "scenario", text),
    col("config", "config", text),
    col("served", "served", text),
    col("p50 us", "e2e_p50_us", text),
    col("p99 us", "e2e_p99_us", text),
    col("tailQ us", "tail_queue_us", fixed::<1>),
    col("tailS us", "tail_service_us", fixed::<1>),
    col("tailE2E us", "tail_e2e_us", fixed::<1>),
];

/// Runs the experiment without tracing.
pub fn run() -> ExperimentResult {
    run_with(&NullRecorder::new())
}

/// Runs the experiment, threading `rec` into the headline crash-storm
/// cell (through the dl-trace tap, so its timeline carries the full
/// request-trace schema when `rec` records).
pub fn run_with(rec: &dyn Recorder) -> ExperimentResult {
    let (_, eval, family) = cluster_family(93);
    let rows = eval.x.dims()[0];
    let cap_dyn = replica_capacity_rps(&DeviceModel::nominal(), &family.variants[0]);

    let mut records: Vec<Fields> = Vec::new();

    // --- pillar 1: attribute the RR-vs-LL p99 gap to queue wait ------------
    // E27's degraded scenario: replica 0 straggles at 4x all run, a mid-run
    // link degradation quadruples dispatch latency. E27 showed least-loaded
    // beats round-robin on p99; the waterfalls show *why*.
    let degraded = degraded_replica(cap_dyn, rows);
    let mut routed: Vec<(&str, TraceSet)> = Vec::new();
    for (name, policy) in [
        ("round-robin", RouterPolicy::RoundRobin),
        ("least-loaded", RouterPolicy::LeastLoaded),
    ] {
        let cfg = ClusterConfig {
            router: policy,
            ..degraded.cluster.clone()
        };
        let inner = NullRecorder::new();
        let tracer = Tracer::new(&inner);
        let r = serve_cluster(&family, &eval, &degraded.requests, &cfg, &tracer);
        let set = tracer.traces();
        set.matches_report(r.serve.served, r.serve.shed, r.lost, r.unavailable)
            .expect("degraded cell conserves");
        set.verify_conservation().expect("exact phases");
        records.push(trace_record("degraded", name, &set));
        routed.push((name, set));
    }
    let (rr_tail, rr_tail_e2e) = tail_of(&routed[0].1);
    let (ll_tail, ll_tail_e2e) = tail_of(&routed[1].1);
    let rr_p99 = phase_breakdown(&routed[0].1).e2e_p99_us;
    let ll_p99 = phase_breakdown(&routed[1].1).e2e_p99_us;
    let queue_delta = rr_tail[Phase::Queue as usize] - ll_tail[Phase::Queue as usize];
    let gap = rr_tail_e2e - ll_tail_e2e;
    let queue_share_of_gap = if gap > 0.0 { queue_delta / gap } else { 0.0 };
    // The straggler's backlog shows up as queue wait on replica 0 under
    // oblivious routing; load-aware routing steers around it.
    let rr_by_rep = by_replica(&routed[0].1);
    let ll_by_rep = by_replica(&routed[1].1);
    let rr_r0_queue_p99 = rr_by_rep.first().map_or(0, |r| r.queue_p99_us);
    let ll_r0_served = ll_by_rep.first().map_or(0, |r| r.served);
    let rr_r0_served = rr_by_rep.first().map_or(0, |r| r.served);
    let queue_attributed = ll_p99 < rr_p99
        && queue_delta > 0.0
        && queue_share_of_gap > 0.5
        && ll_r0_served < rr_r0_served;

    // --- pillar 2: hedging's tail cut, branch by branch --------------------
    // E27's chaos tail scenario: crashes plus an 8x straggler on replica 1.
    // Hedged duplicates race the straggler; the traces show the winners.
    let (tail, hedged) = straggler_tail(cap_dyn, rows);
    let mut chaos_cells: Vec<(&str, TraceSet)> = Vec::new();
    for (name, retry) in [
        ("retry2", RetryPolicy::retries(2)),
        ("retry2+hedge", hedged),
    ] {
        let cfg = ClusterConfig {
            retry,
            ..tail.cluster.clone()
        };
        let inner = NullRecorder::new();
        let tracer = Tracer::new(&inner);
        let r = serve_cluster(&family, &eval, &tail.requests, &cfg, &tracer);
        let set = tracer.traces();
        set.matches_report(r.serve.served, r.serve.shed, r.lost, r.unavailable)
            .expect("chaos cell conserves");
        set.verify_conservation().expect("exact phases");
        records.push(trace_record("chaos", name, &set));
        chaos_cells.push((name, set));
    }
    let retry_p99 = phase_breakdown(&chaos_cells[0].1).e2e_p99_us;
    let hedged_set = &chaos_cells[1].1;
    let hedge_p99 = phase_breakdown(hedged_set).e2e_p99_us;
    let hedge_winners: Vec<&dl_trace::RequestTrace> = hedged_set
        .requests
        .iter()
        .filter(|t| {
            matches!(
                t.outcome,
                Outcome::Served {
                    via: DispatchKind::Hedge,
                    ..
                }
            )
        })
        .collect();
    // Winners that escaped the straggler: their winning replica is not
    // the slowed one.
    let off_straggler = hedge_winners
        .iter()
        .filter(|t| !matches!(t.outcome, Outcome::Served { replica: 1, .. }))
        .count();
    let wasted_total_us: u64 = hedged_set.requests.iter().map(|t| t.wasted_us).sum();
    let hedge_attributed = !hedge_winners.is_empty()
        && hedge_p99 < retry_p99
        && off_straggler * 2 > hedge_winners.len()
        && wasted_total_us > 0;

    // --- pillar 3: steady run — invisibility, exactness, exemplars ---------
    let steady_reqs = load(1.2 * cap_dyn, 800, 105, rows);
    let steady_cfg = ClusterConfig::new(3, cluster_engine(cluster_slo()));
    let null = NullRecorder::new();
    let plain_null = serve_cluster(&family, &eval, &steady_reqs, &steady_cfg, &null);
    let timeline = TimelineRecorder::new();
    let plain_timeline = serve_cluster(&family, &eval, &steady_reqs, &steady_cfg, &timeline);
    let null_inner = NullRecorder::new();
    let traced_null = Tracer::new(&null_inner);
    let over_null = serve_cluster(&family, &eval, &steady_reqs, &steady_cfg, &traced_null);
    let timeline_inner = TimelineRecorder::new();
    let traced_timeline = Tracer::new(&timeline_inner);
    let over_timeline = serve_cluster(&family, &eval, &steady_reqs, &steady_cfg, &traced_timeline);
    let invisible = plain_null == plain_timeline
        && plain_null == over_null
        && plain_null == over_timeline
        && timeline.events() == timeline_inner.events()
        && timeline.histogram("serve.latency_s") == timeline_inner.histogram("serve.latency_s")
        && traced_null.traces() == traced_timeline.traces();
    let steady_set = traced_timeline.traces();
    let exact = steady_set.verify_conservation().is_ok()
        && steady_set
            .matches_report(
                plain_null.serve.served,
                plain_null.serve.shed,
                plain_null.lost,
                plain_null.unavailable,
            )
            .is_ok();
    // Exemplar linking: the latency histogram's p99 bucket names a
    // concrete request whose waterfall we hold.
    let exemplar_linked = timeline_inner
        .histogram("serve.latency_s")
        .and_then(|h| h.quantile_bucket(0.99).and_then(|b| h.exemplar(b)))
        .and_then(|id| steady_set.requests.iter().find(|t| t.id == id))
        .is_some_and(|t| matches!(t.outcome, Outcome::Served { .. }));
    records.push(trace_record("steady", "traced", &steady_set));

    // --- pillar 4: crash-storm conservation (headline trace) ---------------
    // E27's storm at 3 replicas, threaded through `rec` via the tap.
    let cell = crash_storm(cap_dyn, rows, 3);
    let storm_tap = Tracer::new(rec);
    let storm = serve_cluster(&family, &eval, &cell.requests, &cell.cluster, &storm_tap);
    let storm_set = storm_tap.traces();
    let storm_conserved = storm.crashes > 0
        && storm_set
            .matches_report(
                storm.serve.served,
                storm.serve.shed,
                storm.lost,
                storm.unavailable,
            )
            .is_ok()
        && storm_set.verify_conservation().is_ok();
    let retry_branches = storm_set
        .requests
        .iter()
        .filter(|t| {
            matches!(
                t.outcome,
                Outcome::Served {
                    via: DispatchKind::Retry,
                    ..
                }
            ) || matches!(t.outcome, Outcome::Lost)
        })
        .count();
    records.push(trace_record("crash-storm", "slo+retry2", &storm_set));

    // --- the trace tap in the tradeoff navigator ---------------------------
    // Tracing costs retained-record memory, zero simulated time. Price the
    // tap from the storm cell's actual retention.
    let trace_state_bytes = storm_tap.retained_bytes();
    let mut registry = Registry::new();
    registry
        .add(Technique {
            name: "untraced-serving".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: plain_null.serve.accuracy,
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
            name: "request-trace-tap".into(),
            category: Category::Observability,
            metrics: Metrics {
                accuracy: plain_null.serve.accuracy,
                train_flops: 0,
                inference_flops: 0,
                memory_bytes: trace_state_bytes,
                energy_kwh: 0.0,
            },
            baseline: Some("untraced-serving".into()),
        })
        .expect("unique");

    records.push(fields! {
        "cap_dyn_rps" => cap_dyn,
        "slo_s" => CLUSTER_SLO_S,
        "rr_p99_us" => rr_p99,
        "ll_p99_us" => ll_p99,
        "tail_gap_us" => gap,
        "queue_delta_us" => queue_delta,
        "queue_share_of_gap" => queue_share_of_gap,
        "rr_r0_queue_p99_us" => rr_r0_queue_p99,
        "rr_r0_served" => rr_r0_served,
        "ll_r0_served" => ll_r0_served,
        "retry_p99_us" => retry_p99,
        "hedge_p99_us" => hedge_p99,
        "hedge_winners" => hedge_winners.len(),
        "hedge_winners_off_straggler" => off_straggler,
        "wasted_total_us" => wasted_total_us,
        "storm_retry_branches" => retry_branches,
        "trace_state_bytes" => trace_state_bytes,
        "observability_techniques" => registry.by_category(Category::Observability).len(),
    });

    let ok = queue_attributed
        && hedge_attributed
        && invisible
        && exact
        && exemplar_linked
        && storm_conserved;
    ExperimentResult {
        id: "e29".into(),
        title: "request tracing: waterfalls, tail attribution, conservation".into(),
        tables: vec![COLUMNS],
        verdict: if ok {
            format!(
                "matches the claim: the RR-vs-LL tail gap of {gap:.1}us is {:.0}% queue wait \
                 (replica 0 queue p99 {rr_r0_queue_p99}us under RR), {} hedge winners ({} off \
                 the straggler) cut p99 {retry_p99}us -> {hedge_p99}us for {wasted_total_us}us \
                 of duplicate work, tracing is byte-invisible on the steady run with every \
                 waterfall exact and the p99 exemplar resolved, and the crash storm conserves \
                 all {} traced requests",
                queue_share_of_gap * 100.0,
                hedge_winners.len(),
                off_straggler,
                storm_set.requests.len(),
            )
        } else {
            format!(
                "PARTIAL: queue_attributed={queue_attributed} hedge_attributed={hedge_attributed} \
                 invisible={invisible} exact={exact} exemplar_linked={exemplar_linked} \
                 storm_conserved={storm_conserved}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e29_request_tracing_matches_claim() {
        let r = super::run();
        assert!(
            r.verdict.contains("matches the claim"),
            "verdict: {}",
            r.verdict
        );
        assert_eq!(r.row_counts(), [6]);
        let summary = r.records.last().unwrap();
        let share = crate::table::field_f64(summary, "queue_share_of_gap").unwrap();
        assert!(
            share > 0.5,
            "queue wait must dominate the routing gap: {share}"
        );
        let winners = crate::table::field_f64(summary, "hedge_winners").unwrap();
        assert!(winners > 0.0, "hedge branches must win visibly");
    }

    #[test]
    fn e29_is_deterministic_byte_for_byte() {
        let a = super::run();
        let b = super::run();
        assert_eq!(a.to_json(), b.to_json(), "two runs must be byte-identical");
    }
}
