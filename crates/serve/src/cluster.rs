//! Replicated serving behind a deterministic router, with chaos.
//!
//! N replicas — each a [`ReplicaEngine`] with its own queues, batcher and
//! admission controller — share one simulated timeline on the recorder's
//! `VirtualClock`. A [`Router`] spreads arrivals;
//! `dl_distributed::FaultPlan` injects replica crashes (in-flight and
//! queued requests lost, or re-routed under a bounded [`RetryPolicy`]
//! with an optional hedged duplicate), MTTR-driven rejoins with
//! cold-queue warmup, degraded links that inflate dispatch latency
//! through `link_factor_at`, and stragglers that stretch a replica's
//! service time through `slowdown_at`. An optional reactive
//! [`Autoscaler`] resizes the fleet from the observed arrival rate and
//! the family's measured cost tables.
//!
//! [`serve_cluster`] is the crate's one event loop run with one family
//! served in place; the loop's module docs give its priority order.
//! Everything is event-ordered and seeded, so a cluster run is
//! byte-identical across reruns, and a fault-free one-replica cluster is
//! single-node [`crate::serve`] — the same loop.
//!
//! [`Router`]: crate::Router
//! [`Autoscaler`]: crate::Autoscaler
//! [`ReplicaEngine`]: crate::engine::ReplicaEngine

use dl_distributed::FaultPlan;
use dl_nn::Dataset;
use dl_obs::Recorder;

use crate::autoscale::AutoscaleConfig;
use crate::engine::{assemble_report, ServeConfig};
use crate::event_loop::{run, Weights};
use crate::load::Request;
use crate::report::ServeReport;
use crate::router::RouterPolicy;
use crate::variant::VariantRegistry;

/// What happens to requests a crashed replica was holding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many times one request may be re-routed after crash loss
    /// before it counts as lost (0 = fire and forget).
    pub max_retries: usize,
    /// When set, every request gets a hedged duplicate dispatched to a
    /// *different* replica if it has not completed this many seconds
    /// after first dispatch; the first completion wins, the loser's work
    /// is wasted but harmless.
    pub hedge_delay_s: Option<f64>,
}

impl RetryPolicy {
    /// No retries, no hedging: crash losses are final.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            hedge_delay_s: None,
        }
    }

    /// Bounded re-routing after crash loss.
    #[must_use]
    pub fn retries(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            hedge_delay_s: None,
        }
    }

    /// Bounded retries plus a hedged duplicate after `delay_s`.
    ///
    /// # Panics
    /// Panics when the hedge delay is not positive-finite.
    #[must_use]
    pub fn hedged(max_retries: usize, delay_s: f64) -> Self {
        assert!(
            delay_s.is_finite() && delay_s > 0.0,
            "hedge delay must be positive, got {delay_s}"
        );
        RetryPolicy {
            max_retries,
            hedge_delay_s: Some(delay_s),
        }
    }
}

/// One cluster run's configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Initial replica count (fault-plan worker ids address these).
    pub replicas: usize,
    /// Per-replica serving configuration (batcher, admission, device).
    pub engine: ServeConfig,
    /// How arrivals spread across replicas.
    pub router: RouterPolicy,
    /// Crash-loss handling.
    pub retry: RetryPolicy,
    /// The chaos schedule, in step time.
    pub faults: FaultPlan,
    /// Simulated seconds per fault-plan step (maps `at_step` to the
    /// serving timeline).
    pub seconds_per_step: f64,
    /// Base router→replica dispatch latency; inflated by
    /// `1 / link_factor_at(step)` while links are degraded. Zero means
    /// arrivals reach their replica instantly (the single-node-identical
    /// default).
    pub dispatch_s: f64,
    /// Cold-queue warmup window after a rejoin or scale-up activation.
    pub warmup_s: f64,
    /// Service-time multiplier (>= 1) while a replica is warming up.
    pub warmup_factor: f64,
    /// Reactive fleet sizing; `None` keeps `replicas` fixed.
    pub autoscale: Option<AutoscaleConfig>,
}

impl ClusterConfig {
    /// A fault-free fixed-size cluster: round-robin routing, no retries,
    /// instant dispatch, no warmup, no autoscaling.
    ///
    /// # Panics
    /// Panics when `replicas` is zero.
    #[must_use]
    pub fn new(replicas: usize, engine: ServeConfig) -> Self {
        assert!(replicas > 0, "need at least one replica");
        ClusterConfig {
            replicas,
            engine,
            router: RouterPolicy::RoundRobin,
            retry: RetryPolicy::none(),
            faults: FaultPlan::none(),
            seconds_per_step: 1.0,
            dispatch_s: 0.0,
            warmup_s: 0.0,
            warmup_factor: 1.0,
            autoscale: None,
        }
    }
}

/// Per-replica accounting over one cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ReplicaReport {
    /// Replica id (initial replicas first, autoscaled ones after).
    pub replica: usize,
    /// Requests this replica answered (first completions only).
    pub served: usize,
    /// Batches it flushed.
    pub batches: usize,
    /// Completions discarded because another replica answered first.
    pub wasted: usize,
    /// Crash events it suffered.
    pub crashes: usize,
    /// Rejoin events it saw.
    pub rejoins: usize,
}

/// One autoscaler decision, for reaction-time analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Decision time, simulated seconds.
    pub at_s: f64,
    /// Provisioned fleet size the decision targets (activations may
    /// still be in their provisioning delay).
    pub target: usize,
}

/// The measured outcome of one cluster run.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct ClusterReport {
    /// Aggregate serving metrics across all replicas (latencies measured
    /// from original arrival, so crash-retried requests carry their lost
    /// time into the tail).
    pub serve: ServeReport,
    /// Per-replica breakdown.
    pub per_replica: Vec<ReplicaReport>,
    /// Requests lost to crashes after retries ran out (or no replica was
    /// up to retry on). Under hedging this counts lost *copies*: a hedge
    /// twin crash-lost while its sibling answers is counted here and in
    /// `serve.served`, so the tallies can sum past `serve.offered`.
    pub lost: usize,
    /// Arrivals that found no routable replica.
    pub unavailable: usize,
    /// Crash-loss re-routes performed.
    pub retried: usize,
    /// Hedged duplicates dispatched.
    pub hedged: usize,
    /// Total crash events applied.
    pub crashes: usize,
    /// Total rejoin events applied.
    pub rejoins: usize,
    /// Largest provisioned fleet size reached.
    pub peak_replicas: usize,
    /// Provisioned (non-retired) replicas at the end of the run.
    pub final_replicas: usize,
    /// Autoscaler decisions, in time order.
    pub scale_events: Vec<ScaleEvent>,
}

impl ClusterReport {
    /// Fraction of offered requests that got no answer: admission sheds,
    /// routing unavailability and crash losses combined. Under hedging
    /// sheds and losses count copies (see [`ClusterReport::lost`]), so
    /// this can overstate the unanswered share — even past 1.
    #[must_use]
    pub fn failure_fraction(&self) -> f64 {
        if self.serve.offered == 0 {
            return 0.0;
        }
        (self.serve.shed + self.unavailable + self.lost) as f64 / self.serve.offered as f64
    }
}

/// Serves `requests` (sorted by arrival, ids dense from 0) on a
/// replicated cluster under `cfg`'s chaos schedule.
///
/// # Panics
/// Panics when request ids are not the dense `0..requests.len()` range
/// the open-loop generators produce (per-request retry/hedge state is
/// indexed by id).
pub fn serve_cluster(
    registry: &VariantRegistry,
    data: &Dataset,
    requests: &[Request],
    cfg: &ClusterConfig,
    rec: &dyn Recorder,
) -> ClusterReport {
    for (i, r) in requests.iter().enumerate() {
        assert!(r.id == i as u64, "request ids must be dense 0..n");
    }
    let n = requests.len();
    let (replicas, tally) = run(
        Weights::Shared(registry),
        data,
        n,
        |i| (requests[i], 0),
        cfg,
        rec,
    );
    let engines = || replicas.iter().map(|r| &r.engines[0]);
    let per_replica: Vec<ReplicaReport> = (replicas.iter().zip(engines()).enumerate())
        .map(|(i, (r, e))| ReplicaReport {
            replica: i,
            served: e.stats.iter().map(|s| s.served).sum(),
            batches: e.stats.iter().map(|s| s.batches).sum(),
            wasted: e.wasted,
            crashes: r.crashes,
            rejoins: r.rejoins,
        })
        .collect();
    ClusterReport {
        serve: assemble_report(n, engines()),
        crashes: per_replica.iter().map(|r| r.crashes).sum(),
        rejoins: per_replica.iter().map(|r| r.rejoins).sum(),
        per_replica,
        lost: tally.lost,
        unavailable: tally.unavailable,
        retried: tally.retried,
        hedged: tally.hedged,
        peak_replicas: tally.peak_replicas,
        final_replicas: replicas.iter().filter(|r| !r.retired).count(),
        scale_events: tally.scale_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::autoscale::replica_capacity_rps;
    use crate::batcher::BatchPolicy;
    use crate::device::DeviceModel;
    use crate::load::{open_loop, LoadConfig};
    use crate::variant::{build_family, FamilyConfig};
    use dl_distributed::FaultProfile;
    use dl_obs::{NullRecorder, TimelineRecorder};

    fn family_and_data() -> (VariantRegistry, Dataset) {
        let data = dl_data::blobs(120, 3, 8, 6.0, 0.5, 70);
        let eval = dl_data::blobs(80, 3, 8, 6.0, 0.5, 71);
        let reg = build_family(
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
                seed: 80,
            },
        );
        (reg, eval)
    }

    fn base_cfg() -> ServeConfig {
        ServeConfig {
            batch: BatchPolicy::dynamic(16, 5e-6),
            admission: AdmissionPolicy::AcceptAll,
            primary: "fp32-base".into(),
            device: DeviceModel::nominal(),
        }
    }

    fn load(rate: f64, n: usize, seed: u64, rows: usize) -> Vec<Request> {
        open_loop(
            &LoadConfig {
                rate_rps: rate,
                requests: n,
                seed,
            },
            rows,
        )
    }

    #[test]
    fn crashes_lose_work_without_retries_and_recover_with_them() {
        let (reg, eval) = family_and_data();
        let reqs = load(400_000.0, 800, 22, eval.x.dims()[0]);
        let horizon_s = reqs.last().unwrap().arrival_s * 1.5;
        let seconds_per_step = horizon_s / 64.0;
        let faults = FaultPlan::from_profile(&FaultProfile::crashes(5, 12.0, 6.0), 3, 64);
        assert!(faults.crash_count() >= 2, "profile must schedule crashes");
        let mk = |retry: RetryPolicy| ClusterConfig {
            retry,
            faults: faults.clone(),
            seconds_per_step,
            warmup_s: seconds_per_step,
            warmup_factor: 2.0,
            ..ClusterConfig::new(3, base_cfg())
        };
        let lossy = serve_cluster(
            &reg,
            &eval,
            &reqs,
            &mk(RetryPolicy::none()),
            &NullRecorder::new(),
        );
        assert!(lossy.crashes >= 2, "crashes must apply: {}", lossy.crashes);
        assert!(lossy.lost > 0, "fire-and-forget must lose crash work");
        assert_eq!(lossy.retried, 0);
        let retrying = serve_cluster(
            &reg,
            &eval,
            &reqs,
            &mk(RetryPolicy::retries(3)),
            &NullRecorder::new(),
        );
        assert!(retrying.retried > 0, "retries must fire");
        assert!(
            retrying.lost < lossy.lost,
            "retries must recover work: {} vs {}",
            retrying.lost,
            lossy.lost
        );
        assert!(
            retrying.serve.served > lossy.serve.served,
            "recovered work is served"
        );
        // Conservation: every offered request is accounted for.
        for r in [&lossy, &retrying] {
            assert_eq!(
                r.serve.served + r.serve.shed + r.lost + r.unavailable,
                r.serve.offered,
                "requests must be conserved"
            );
        }
    }

    #[test]
    fn cluster_runs_are_deterministic_for_every_router() {
        let (reg, eval) = family_and_data();
        let reqs = load(400_000.0, 400, 23, eval.x.dims()[0]);
        let horizon_s = reqs.last().unwrap().arrival_s * 1.5;
        let faults = FaultPlan::from_profile(&FaultProfile::crashes(9, 20.0, 8.0), 3, 64);
        for router in [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
            RouterPolicy::PowerOfTwoChoices { seed: 7 },
        ] {
            let cfg = ClusterConfig {
                router,
                retry: RetryPolicy::hedged(2, 3e-5),
                faults: faults.clone(),
                seconds_per_step: horizon_s / 64.0,
                dispatch_s: 1e-6,
                ..ClusterConfig::new(3, base_cfg())
            };
            let a = serve_cluster(&reg, &eval, &reqs, &cfg, &NullRecorder::new());
            let b = serve_cluster(&reg, &eval, &reqs, &cfg, &NullRecorder::new());
            assert_eq!(a, b, "router {router:?} must be deterministic");
            let rec = TimelineRecorder::new();
            let traced = serve_cluster(&reg, &eval, &reqs, &cfg, &rec);
            assert_eq!(a, traced, "tracing must not change the result");
        }
    }

    #[test]
    fn hedging_dispatches_duplicates_and_dedups_completions() {
        let (reg, eval) = family_and_data();
        let reqs = load(300_000.0, 400, 24, eval.x.dims()[0]);
        // A straggling replica 0 makes primary dispatches slow enough for
        // hedges to fire and win on other replicas.
        let faults = FaultPlan::new(vec![dl_distributed::FaultEvent::Straggler {
            worker: 0,
            slowdown: 50.0,
            from_step: 0,
            to_step: 64,
        }]);
        let horizon_s = reqs.last().unwrap().arrival_s * 1.5;
        let cfg = ClusterConfig {
            retry: RetryPolicy::hedged(1, 2e-5),
            faults,
            seconds_per_step: horizon_s / 64.0,
            ..ClusterConfig::new(2, base_cfg())
        };
        let r = serve_cluster(&reg, &eval, &reqs, &cfg, &NullRecorder::new());
        assert!(r.hedged > 0, "hedges must fire against a straggler");
        let wasted: usize = r.per_replica.iter().map(|p| p.wasted).sum();
        assert!(wasted > 0, "losing twins are wasted, not double-counted");
        assert_eq!(
            r.serve.served + r.serve.shed + r.lost + r.unavailable,
            r.serve.offered
        );
        assert!(r.serve.served <= r.serve.offered, "dedup holds");
    }

    #[test]
    fn every_wasted_hedge_twin_emits_a_loser_instant() {
        let (reg, eval) = family_and_data();
        let reqs = load(300_000.0, 400, 24, eval.x.dims()[0]);
        let faults = FaultPlan::new(vec![dl_distributed::FaultEvent::Straggler {
            worker: 0,
            slowdown: 50.0,
            from_step: 0,
            to_step: 64,
        }]);
        let horizon_s = reqs.last().unwrap().arrival_s * 1.5;
        let cfg = ClusterConfig {
            retry: RetryPolicy::hedged(1, 2e-5),
            faults,
            seconds_per_step: horizon_s / 64.0,
            ..ClusterConfig::new(2, base_cfg())
        };
        let rec = TimelineRecorder::new();
        let r = serve_cluster(&reg, &eval, &reqs, &cfg, &rec);
        let wasted: usize = r.per_replica.iter().map(|p| p.wasted).sum();
        assert!(wasted > 0, "scenario must produce losing twins");
        let losers = rec
            .events()
            .iter()
            .filter(|e| e.name == "hedge.loser")
            .count();
        assert_eq!(
            losers, wasted,
            "each deduped completion must be visible as a hedge.loser instant"
        );
        // Every loser names the request and replica that burned the slot.
        for e in rec.events().iter().filter(|e| e.name == "hedge.loser") {
            for key in ["request", "replica", "elapsed_s"] {
                assert!(
                    e.fields.iter().any(|(k, _)| k == key),
                    "hedge.loser missing field {key}"
                );
            }
        }
    }

    #[test]
    fn autoscaler_grows_fleet_under_load_and_drains_it_after() {
        let (reg, eval) = family_and_data();
        let device = DeviceModel::nominal();
        let cap = {
            let v = &reg.variants[0];
            replica_capacity_rps(&device, v)
        };
        let reqs = load(3.0 * cap, 1500, 25, eval.x.dims()[0]);
        let horizon_s = reqs.last().unwrap().arrival_s;
        let cfg = ClusterConfig {
            autoscale: Some(AutoscaleConfig::new(
                horizon_s / 50.0,
                horizon_s / 25.0,
                0.7,
                1,
                6,
                horizon_s / 100.0,
            )),
            warmup_s: horizon_s / 200.0,
            warmup_factor: 1.5,
            ..ClusterConfig::new(1, base_cfg())
        };
        let r = serve_cluster(&reg, &eval, &reqs, &cfg, &NullRecorder::new());
        assert!(
            r.peak_replicas > 1,
            "3x one replica's capacity must scale up: peak {}",
            r.peak_replicas
        );
        assert!(!r.scale_events.is_empty());
        assert_eq!(
            r.serve.served + r.serve.shed + r.lost + r.unavailable,
            r.serve.offered
        );
        assert_eq!(r.lost, 0, "no crashes, nothing lost");
        // Fixed 4-replica fleet at the same load: the autoscaled run's
        // tail should be in the same regime as over-provisioning, far
        // from the melted single-replica tail.
        let melted = serve_cluster(
            &reg,
            &eval,
            &reqs,
            &ClusterConfig::new(1, base_cfg()),
            &NullRecorder::new(),
        );
        assert!(
            r.serve.p99_s < melted.serve.p99_s,
            "autoscaling must beat the melted single replica: {} vs {}",
            r.serve.p99_s,
            melted.serve.p99_s
        );
    }
}
