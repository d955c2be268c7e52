//! Golden-file guard for the serving event loop.
//!
//! A seed sweep over the three public entry points — `serve`,
//! `serve_cluster` and `serve_fleet` — hashes each cell's report together
//! with its full `TimelineRecorder` timeline (every event, field, counter
//! and the latency histogram, floats by their bits). Any change to event
//! order, routing, retry/hedge bookkeeping, store residency or report
//! assembly shows up here as a per-cell hash diff.
//!
//! Each cell also checks two invariants that must hold for every loop:
//! a `NullRecorder` run and a `TimelineRecorder` run produce the same
//! report, and the `dl_trace` reconstruction holds exactly one waterfall
//! per offered request with no request answered twice.
//!
//! Everything runs on the scalar kernel with one thread, so every
//! `DL_THREADS` × `DL_KERNEL` setting shares one golden file.
//!
//! Regenerate (after an intentional behaviour change) with:
//! `DL_REGEN_GOLDEN=1 cargo test -p dl-serve --test loop_goldens`

use std::collections::BTreeMap;

use dl_distributed::{FaultPlan, FaultProfile};
use dl_nn::Dataset;
use dl_obs::{EventKind, FieldValue, NullRecorder, Recorder, TimelineRecorder};
use dl_serve::{
    build_family, open_loop, save_family, serve, serve_cluster, serve_fleet, AdmissionPolicy,
    AutoscaleConfig, BatchPolicy, ClusterConfig, ClusterReport, DeviceModel, EvictionPolicy,
    FamilyConfig, FleetConfig, FleetReport, LoadConfig, ModelRequest, RetryPolicy, RouterPolicy,
    ServeConfig, ServeReport, VariantRegistry,
};
use dl_tensor::par::{self, Kernel};
use dl_trace::TraceSet;

const GOLDEN: &str = "loops.hex";

/// FNV-1a over little-endian words: stable across platforms and
/// toolchains, unlike `std`'s hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }
    fn s(&mut self, s: &str) {
        self.u(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn hash_serve(h: &mut Fnv, r: &ServeReport) {
    for x in [r.offered, r.served, r.shed, r.downgraded] {
        h.u(x as u64);
    }
    for x in [
        r.sim_seconds,
        r.throughput_rps,
        r.accuracy,
        r.p50_s,
        r.p99_s,
        r.max_s,
        r.mean_s,
        r.mean_batch,
    ] {
        h.f(x);
    }
    for v in &r.per_variant {
        h.s(&v.name);
        for x in [v.served, v.batches, v.correct] {
            h.u(x as u64);
        }
    }
}

fn hash_cluster(h: &mut Fnv, r: &ClusterReport) {
    hash_serve(h, &r.serve);
    for p in &r.per_replica {
        for x in [
            p.replica, p.served, p.batches, p.wasted, p.crashes, p.rejoins,
        ] {
            h.u(x as u64);
        }
    }
    for x in [
        r.lost,
        r.unavailable,
        r.retried,
        r.hedged,
        r.crashes,
        r.rejoins,
        r.peak_replicas,
        r.final_replicas,
    ] {
        h.u(x as u64);
    }
    for e in &r.scale_events {
        h.f(e.at_s);
        h.u(e.target as u64);
    }
}

fn hash_fleet(h: &mut Fnv, r: &FleetReport) {
    hash_serve(h, &r.report);
    for m in &r.per_model {
        hash_serve(h, m);
    }
    for x in [r.cold_loads, r.warm_hits, r.evictions] {
        h.u(x as u64);
    }
    h.u(r.bytes_loaded);
    h.u(r.cold_request_ids.len() as u64);
    for &id in &r.cold_request_ids {
        h.u(id);
    }
}

/// Every event (in record order), every counter, and the latency
/// histogram including its exemplar slots.
fn hash_timeline(h: &mut Fnv, rec: &TimelineRecorder) {
    let events = rec.events();
    h.u(events.len() as u64);
    for e in &events {
        h.u(e.ts_micros);
        h.s(e.kind.label());
        h.s(e.name);
        h.u(u64::from(e.track));
        h.u(e.fields.len() as u64);
        for (k, v) in &e.fields {
            h.s(k);
            match v {
                FieldValue::U64(x) => {
                    h.u(0);
                    h.u(*x);
                }
                FieldValue::I64(x) => {
                    h.u(1);
                    h.u(*x as u64);
                }
                FieldValue::F64(x) => {
                    h.u(2);
                    h.f(*x);
                }
                FieldValue::Bool(x) => {
                    h.u(3);
                    h.u(u64::from(*x));
                }
                FieldValue::Str(x) => {
                    h.u(4);
                    h.s(x);
                }
            }
        }
    }
    for (name, total) in rec.counters() {
        h.s(&name);
        h.u(total);
    }
    if let Some(hist) = rec.histogram("serve.latency_s") {
        for (&count, exemplar) in hist.buckets.iter().zip(&hist.exemplars) {
            h.u(count);
            h.u(exemplar.map_or(u64::MAX, |x| x));
        }
        h.u(hist.count);
        for x in [hist.sum, hist.min, hist.max] {
            h.f(x);
        }
    }
}

/// Asserts the per-request conservation law on a recorded run.
fn check_conservation(cell: &str, rec: &TimelineRecorder, offered: &[u64]) {
    let events = rec.events();
    let traces = TraceSet::reconstruct(&events);
    let mut traced: Vec<u64> = traces.requests.iter().map(|t| t.id).collect();
    let mut want = offered.to_vec();
    want.sort_unstable();
    traced.sort_unstable();
    assert_eq!(
        traced, want,
        "{cell}: every offered request needs exactly one waterfall"
    );
    traces
        .verify_conservation()
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    let mut answers: BTreeMap<u64, usize> = BTreeMap::new();
    for e in events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "serve.complete")
    {
        let id = e
            .fields
            .iter()
            .find(|(k, _)| k == "request")
            .and_then(|(_, v)| v.as_u64())
            .expect("serve.complete names its request");
        *answers.entry(id).or_default() += 1;
    }
    if let Some((id, n)) = answers.iter().find(|(_, &n)| n > 1) {
        panic!("{cell}: request {id} answered {n} times");
    }
}

/// Runs `f` once untraced and once on a timeline, checks both agree and
/// conserve requests, and returns the cell's hash line.
fn cell(name: String, offered: &[u64], f: &mut dyn FnMut(&dyn Recorder) -> u64) -> String {
    let untraced = f(&NullRecorder::new());
    let rec = TimelineRecorder::new();
    let traced = f(&rec);
    assert_eq!(untraced, traced, "{name}: recording changed the report");
    check_conservation(&name, &rec, offered);
    let mut h = Fnv::new();
    h.u(traced);
    hash_timeline(&mut h, &rec);
    format!("{name} {:016x}\n", h.0)
}

fn family(seed: u64, hidden: usize, epochs: usize) -> VariantRegistry {
    let data = dl_data::blobs(100, 3, 8, 6.0, 0.5, seed);
    let eval = dl_data::blobs(60, 3, 8, 6.0, 0.5, seed + 1);
    build_family(
        &data,
        &eval,
        &FamilyConfig {
            teacher_dims: vec![8, hidden, 3],
            student_hidden: vec![4],
            prune_sparsity: 0.6,
            morph_budget: 100,
            ensemble_members: 2,
            max_batch: 8,
            epochs,
            seed,
        },
    )
}

fn serve_cfg(batch: BatchPolicy, admission: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        batch,
        admission,
        primary: "fp32-base".into(),
        device: DeviceModel::nominal(),
    }
}

fn slo_aware() -> AdmissionPolicy {
    AdmissionPolicy::SloAware {
        p99_slo_s: 2e-5,
        headroom: 0.7,
        min_accuracy: 0.0,
    }
}

fn load(rate_rps: f64, requests: usize, seed: u64, eval: &Dataset) -> Vec<dl_serve::Request> {
    open_loop(
        &LoadConfig {
            rate_rps,
            requests,
            seed,
        },
        eval.x.dims()[0],
    )
}

/// One replica's full-batch capacity on the primary variant.
fn capacity_rps(reg: &VariantRegistry) -> f64 {
    dl_serve::replica_capacity_rps(&DeviceModel::nominal(), &reg.variants[0])
}

fn ids(reqs: &[dl_serve::Request]) -> Vec<u64> {
    reqs.iter().map(|r| r.id).collect()
}

fn serve_cells(reg: &VariantRegistry, eval: &Dataset, out: &mut String) {
    let batches = [
        ("b1", BatchPolicy::no_batching()),
        ("dyn8", BatchPolicy::dynamic(8, 5e-6)),
        ("dyn4", BatchPolicy::dynamic(4, 2e-6)),
    ];
    let admissions = [("accept", AdmissionPolicy::AcceptAll), ("slo", slo_aware())];
    for (bn, batch) in batches {
        for (an, admission) in admissions {
            for seed in [1, 2, 3] {
                let reqs = load(2.0 * capacity_rps(reg), 150, seed, eval);
                let cfg = serve_cfg(batch, admission);
                out.push_str(&cell(
                    format!("serve/{bn}/{an}/s{seed}"),
                    &ids(&reqs),
                    &mut |rec| {
                        let r = serve(reg, eval, &reqs, &cfg, rec);
                        let mut h = Fnv::new();
                        hash_serve(&mut h, &r);
                        h.0
                    },
                ));
            }
        }
    }
}

fn cluster_cells(reg: &VariantRegistry, eval: &Dataset, out: &mut String) {
    let reqs = load(4.0 * capacity_rps(reg), 160, 21, eval);
    let horizon_s = reqs.last().expect("non-empty load").arrival_s * 1.5;
    let seconds_per_step = horizon_s / 64.0;
    let routers = [
        ("rr", RouterPolicy::RoundRobin),
        ("ll", RouterPolicy::LeastLoaded),
        ("p2c", RouterPolicy::PowerOfTwoChoices { seed: 7 }),
    ];
    let retries = [
        ("none", RetryPolicy::none()),
        ("retry2", RetryPolicy::retries(2)),
        ("hedged", RetryPolicy::hedged(2, 4e-6)),
    ];
    for (rn, router) in routers {
        for (tn, retry) in retries {
            for fault_seed in [5, 9] {
                let faults = FaultPlan::from_profile(
                    &FaultProfile {
                        crash_mtbf: 14.0,
                        repair_mttr: 6.0,
                        degrade_mtbf: 20.0,
                        degrade_duration: 6.0,
                        degrade_factor: 0.25,
                        straggler_mtbf: 18.0,
                        straggler_duration: 8.0,
                        straggler_slowdown: 4.0,
                        ..FaultProfile::none(fault_seed)
                    },
                    3,
                    64,
                );
                for dispatch_s in [0.0, 1e-6] {
                    for autoscale in [false, true] {
                        let cfg = ClusterConfig {
                            router,
                            retry,
                            faults: faults.clone(),
                            seconds_per_step,
                            dispatch_s,
                            warmup_s: seconds_per_step,
                            warmup_factor: 1.5,
                            autoscale: autoscale.then(|| {
                                AutoscaleConfig::new(
                                    horizon_s / 20.0,
                                    horizon_s / 10.0,
                                    0.7,
                                    2,
                                    5,
                                    horizon_s / 40.0,
                                )
                            }),
                            ..ClusterConfig::new(
                                3,
                                serve_cfg(BatchPolicy::dynamic(8, 5e-6), slo_aware()),
                            )
                        };
                        let name = format!(
                            "cluster/{rn}/{tn}/f{fault_seed}/d{}/{}",
                            if dispatch_s > 0.0 { 1 } else { 0 },
                            if autoscale { "auto" } else { "fixed" }
                        );
                        out.push_str(&cell(name, &ids(&reqs), &mut |rec| {
                            let r = serve_cluster(reg, eval, &reqs, &cfg, rec);
                            let mut h = Fnv::new();
                            hash_cluster(&mut h, &r);
                            h.0
                        }));
                    }
                }
            }
        }
    }
}

fn fleet_cells(families: &[VariantRegistry], eval: &Dataset, out: &mut String) {
    let sizes: Vec<u64> = families
        .iter()
        .map(|f| save_family(f).len() as u64)
        .collect();
    let largest = *sizes.iter().max().expect("families");
    // Room for every family, for any one of them, and for any two.
    let budgets = [
        ("roomy", u64::MAX),
        ("one", largest * 3 / 2),
        ("two", largest * 5 / 2),
    ];
    // Hot set rotating every 12 requests, so residency churns.
    let base = load(6.0 * capacity_rps(&families[0]), 144, 31, eval);
    let tagged: Vec<ModelRequest> = base
        .iter()
        .map(|&req| ModelRequest {
            req,
            model: ((req.id / 12) as usize + (req.id % 2) as usize) % families.len(),
        })
        .collect();
    let routers = [
        ("rr", RouterPolicy::RoundRobin),
        ("ll", RouterPolicy::LeastLoaded),
        ("p2c", RouterPolicy::PowerOfTwoChoices { seed: 3 }),
    ];
    for (bn, budget) in budgets {
        for (en, eviction) in [
            ("lru", EvictionPolicy::Lru),
            ("cost", EvictionPolicy::CostAware),
        ] {
            for (rn, router) in routers {
                for warm_start in [false, true] {
                    let cfg = FleetConfig {
                        serve: serve_cfg(BatchPolicy::dynamic(8, 5e-6), slo_aware()),
                        replicas: 3,
                        store_budget_bytes: budget,
                        eviction,
                        router,
                        warm_start,
                    };
                    let name = format!(
                        "fleet/{bn}/{en}/{rn}/{}",
                        if warm_start { "warm" } else { "cold" }
                    );
                    out.push_str(&cell(name, &ids(&base), &mut |rec| {
                        let r = serve_fleet(families, eval, &tagged, &cfg, rec);
                        let mut h = Fnv::new();
                        hash_fleet(&mut h, &r);
                        h.0
                    }));
                }
            }
        }
    }
}

fn sweep() -> String {
    par::with_kernel(Kernel::Scalar, || {
        par::with_threads(1, || {
            let eval = dl_data::blobs(60, 3, 8, 6.0, 0.5, 901);
            let single = family(80, 24, 8);
            let mut out = String::new();
            serve_cells(&single, &eval, &mut out);
            cluster_cells(&single, &eval, &mut out);
            let fleet: Vec<VariantRegistry> = [900, 910, 920, 930, 940]
                .iter()
                .map(|&s| family(s, 16, 6))
                .collect();
            fleet_cells(&fleet, &eval, &mut out);
            out
        })
    })
}

#[test]
fn serving_loops_match_pinned_goldens() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN);
    let got = sweep();
    if std::env::var("DL_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let diverged: Vec<&str> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.split(' ').next().unwrap_or(g))
        .collect();
    assert!(
        diverged.is_empty() && got.lines().count() == want.lines().count(),
        "serving loop output diverged from the pinned golden {GOLDEN} in {} cell(s): {:?} \
         (regenerate only if the behaviour change is intentional)",
        diverged.len(),
        diverged
    );
}
