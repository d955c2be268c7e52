//! Multi-model serving: a fleet of replicas hosting many families behind
//! one weight store per replica.
//!
//! The cluster tier scales one family across replicas; this tier hosts
//! *many* families whose weights do not all fit in device memory at
//! once. Each replica owns a [`WeightStore`] holding every family's
//! artifact under a byte budget, plus one [`ReplicaEngine`]
//! per family (each family keeps a dedicated execution stream; the
//! contended resource modeled here is weight memory, not compute). A run
//! encodes and verifies each family's artifact once, and every replica's
//! store shares the parsed artifact, so a cold fetch only decodes.
//! Arrivals are tagged with a model id and routed residency-first: a
//! warm replica at any load beats paying a cold artifact load. A cold
//! arrival faults the family in — evicting victims per the store's
//! policy — and its admission prediction is charged the modeled load
//! time, so cold starts show up in the tail *and* can flip an accept
//! into a shed.
//!
//! [`serve_fleet`] is the crate's one event loop run with a per-replica
//! store; the loop's module docs give its priority order. Warm fetches
//! cost zero simulated time and record zero events, so a preloaded
//! one-replica one-family fleet takes the same path as single-node
//! [`crate::serve`].
//!
//! [`ReplicaEngine`]: crate::engine::ReplicaEngine
//! [`WeightStore`]: crate::store::WeightStore

use dl_nn::Dataset;
use dl_obs::Recorder;
use dl_store::Artifact;

use crate::cluster::ClusterConfig;
use crate::engine::{assemble_report, ServeConfig};
use crate::event_loop::run;
use crate::load::Request;
use crate::persist::save_family;
use crate::report::ServeReport;
use crate::router::RouterPolicy;
use crate::store::{EvictionPolicy, WeightStore};
use crate::variant::VariantRegistry;

/// One arrival bound for a specific model family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelRequest {
    /// The request itself (id, arrival time, sample row).
    pub req: Request,
    /// Index into the served family list.
    pub model: usize,
}

/// One fleet run's configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-engine serving configuration (batching, admission, device).
    pub serve: ServeConfig,
    /// Replica count; each replica gets its own weight store.
    pub replicas: usize,
    /// Per-replica weight-store byte budget.
    pub store_budget_bytes: u64,
    /// How each store picks eviction victims.
    pub eviction: EvictionPolicy,
    /// How arrivals spread across replicas (within the warm subset when
    /// one exists).
    pub router: RouterPolicy,
    /// Preload families (in id order, first-fit against the budget) on
    /// every replica before the clock starts — deployment-time warmup.
    /// With a budget that fits everything this makes every fetch warm.
    pub warm_start: bool,
}

/// What a fleet run produced.
#[derive(Debug, Clone)]
#[must_use]
pub struct FleetReport {
    /// Aggregate over every request (per-variant stats merge by index
    /// across families, which share the standard family layout).
    pub report: ServeReport,
    /// One report per family, same order as the input family list.
    pub per_model: Vec<ServeReport>,
    /// Cold artifact loads across all replicas' stores.
    pub cold_loads: usize,
    /// Warm fetches across all replicas' stores.
    pub warm_hits: usize,
    /// Evictions across all replicas' stores.
    pub evictions: usize,
    /// Artifact bytes read by cold loads across all replicas.
    pub bytes_loaded: u64,
    /// Ids of requests that arrived while their family was cold (or
    /// still loading) on the chosen replica — join these against
    /// `serve.complete` timeline instants to split the latency
    /// population into warm and cold cohorts.
    pub cold_request_ids: Vec<u64>,
}

/// Serves model-tagged `requests` (sorted by arrival time) against
/// `families`, each replica hosting the families through a
/// memory-budgeted weight store. All state advances on the shared
/// simulated clock, so a seeded run is bit-identical every time.
///
/// # Panics
/// Panics when `families` or `replicas` is empty, a request's model id is
/// out of range, or some family's artifact alone exceeds the store
/// budget.
pub fn serve_fleet(
    families: &[VariantRegistry],
    data: &Dataset,
    requests: &[ModelRequest],
    cfg: &FleetConfig,
    rec: &dyn Recorder,
) -> FleetReport {
    assert!(!families.is_empty(), "need at least one family");
    let cluster = ClusterConfig {
        router: cfg.router,
        ..ClusterConfig::new(cfg.replicas, cfg.serve.clone())
    };
    let arrival = |i: usize| (requests[i].req, requests[i].model);
    // Encode and verify each family once; every replica's store shares
    // the parsed artifact.
    let bytes: Vec<Vec<u8>> = families.iter().map(save_family).collect();
    let artifacts: Vec<Artifact<'_>> = bytes
        .iter()
        .map(|b| Artifact::parse(b).expect("save_family writes a valid artifact"))
        .collect();
    let (n, stored) = (requests.len(), Some((&artifacts[..], cfg)));
    let (replicas, tally) = run(families, stored, data, n, arrival, &cluster, rec);
    let stores: Vec<&WeightStore> = replicas.iter().filter_map(|r| r.store.as_ref()).collect();
    // Per-model reports gather each family's engines across replicas; the
    // aggregate takes every engine, model by model.
    let of_model = |m: usize| replicas.iter().map(move |r| &r.engines[m]);
    let per_model: Vec<ServeReport> = (0..families.len())
        .map(|m| {
            assemble_report(
                requests.iter().filter(|q| q.model == m).count(),
                of_model(m),
            )
        })
        .collect();
    FleetReport {
        report: assemble_report(n, (0..families.len()).flat_map(of_model)),
        per_model,
        cold_loads: stores.iter().map(|s| s.loads).sum(),
        warm_hits: stores.iter().map(|s| s.hits).sum(),
        evictions: stores.iter().map(|s| s.evictions).sum(),
        bytes_loaded: stores.iter().map(|s| s.bytes_loaded).sum(),
        cold_request_ids: tally.cold_request_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use crate::batcher::BatchPolicy;
    use crate::device::DeviceModel;
    use crate::variant::{build_family, FamilyConfig};
    use dl_obs::{NullRecorder, TimelineRecorder};
    use dl_trace::ServeEvent;

    fn family(seed: u64) -> VariantRegistry {
        let data = dl_data::blobs(100, 3, 8, 6.0, 0.5, seed);
        let eval = dl_data::blobs(60, 3, 8, 6.0, 0.5, seed + 1);
        build_family(
            &data,
            &eval,
            &FamilyConfig {
                teacher_dims: vec![8, 16, 3],
                student_hidden: vec![4],
                prune_sparsity: 0.6,
                morph_budget: 100,
                ensemble_members: 2,
                max_batch: 8,
                epochs: 6,
                seed,
            },
        )
    }

    fn eval_set() -> Dataset {
        dl_data::blobs(60, 3, 8, 6.0, 0.5, 901)
    }

    fn serve_cfg() -> ServeConfig {
        ServeConfig {
            batch: BatchPolicy::dynamic(8, 5e-6),
            admission: AdmissionPolicy::AcceptAll,
            primary: "fp32-base".into(),
            device: DeviceModel::nominal(),
        }
    }

    #[test]
    fn thrashing_budget_pays_cold_loads_and_evictions() {
        let a = family(910);
        let b = family(920);
        let eval = eval_set();
        let budget_one = save_family(&a).len().max(save_family(&b).len()) as u64 * 3 / 2;
        // Alternate models with gaps long enough that each batch drains
        // before the next arrival: every switch faults the other family in.
        let tagged: Vec<ModelRequest> = (0..40)
            .map(|i| ModelRequest {
                req: Request {
                    id: i,
                    arrival_s: i as f64 * 1e-3,
                    sample: (i as usize * 7) % eval.x.dims()[0],
                },
                model: (i % 2) as usize,
            })
            .collect();
        let run = |budget: u64, warm: bool| {
            // batch=1 keeps the artifact load on the critical path (a
            // flush-delay window would hide these tiny families' loads).
            let mut serve = serve_cfg();
            serve.batch = BatchPolicy::no_batching();
            serve_fleet(
                &[a.clone(), b.clone()],
                &eval,
                &tagged,
                &FleetConfig {
                    serve,
                    replicas: 1,
                    store_budget_bytes: budget,
                    eviction: EvictionPolicy::Lru,
                    router: RouterPolicy::LeastLoaded,
                    warm_start: warm,
                },
                &NullRecorder::new(),
            )
        };
        let thrash = run(budget_one, false);
        assert_eq!(thrash.report.served, 40);
        assert!(
            thrash.evictions > 10,
            "alternating models must thrash: {}",
            thrash.evictions
        );
        assert_eq!(thrash.cold_loads, thrash.cold_request_ids.len());
        assert!(thrash.bytes_loaded > 0);

        let roomy = run(u64::MAX, true);
        assert_eq!(roomy.cold_loads, 0);
        assert_eq!(roomy.evictions, 0);
        assert!(
            thrash.report.p99_s > roomy.report.p99_s,
            "cold loads must show up in the tail: {} vs {}",
            thrash.report.p99_s,
            roomy.report.p99_s
        );
        // Determinism: same schedule, same thrash.
        let again = run(budget_one, false);
        assert_eq!(thrash.report, again.report);
        assert_eq!(thrash.cold_request_ids, again.cold_request_ids);
    }

    #[test]
    fn residency_routing_keeps_models_sticky_across_replicas() {
        let a = family(930);
        let b = family(940);
        let eval = eval_set();
        let budget_one = save_family(&a).len().max(save_family(&b).len()) as u64 * 3 / 2;
        // Two replicas, each able to hold one family: round-robin spreads
        // the two initial all-cold faults across the replicas, after
        // which residency-aware routing pins each model to its replica
        // and nothing ever thrashes. (Least-loaded would tie both cold
        // faults onto replica 0 and thrash forever.)
        let tagged: Vec<ModelRequest> = (0..60)
            .map(|i| ModelRequest {
                req: Request {
                    id: i,
                    arrival_s: i as f64 * 1e-3,
                    sample: (i as usize * 5) % eval.x.dims()[0],
                },
                model: (i % 2) as usize,
            })
            .collect();
        let fleet = serve_fleet(
            &[a, b],
            &eval,
            &tagged,
            &FleetConfig {
                serve: serve_cfg(),
                replicas: 2,
                store_budget_bytes: budget_one,
                eviction: EvictionPolicy::Lru,
                router: RouterPolicy::RoundRobin,
                warm_start: false,
            },
            &NullRecorder::new(),
        );
        assert_eq!(fleet.report.served, 60);
        assert_eq!(fleet.cold_loads, 2, "one fault per model, then sticky");
        assert_eq!(fleet.evictions, 0, "two replicas x one slot never evict");
        assert_eq!(fleet.cold_request_ids, vec![0, 1]);
        assert_eq!(fleet.per_model[0].served + fleet.per_model[1].served, 60);
    }

    #[test]
    fn each_family_on_each_replica_stamps_its_own_stream() {
        let families = [family(950), family(960)];
        let eval = eval_set();
        // Round-robin over two warm replicas sends request `i` to replica
        // `i % 2`; the models run 0, 0, 1, 1, ... so every (replica,
        // family) pair serves traffic.
        let tagged: Vec<ModelRequest> = (0..40)
            .map(|i| ModelRequest {
                req: Request {
                    id: i,
                    arrival_s: i as f64 * 1e-3,
                    sample: (i as usize * 3) % eval.x.dims()[0],
                },
                model: ((i / 2) % 2) as usize,
            })
            .collect();
        let rec = TimelineRecorder::new();
        let fleet = serve_fleet(
            &families,
            &eval,
            &tagged,
            &FleetConfig {
                serve: serve_cfg(),
                replicas: 2,
                store_budget_bytes: u64::MAX,
                eviction: EvictionPolicy::Lru,
                router: RouterPolicy::RoundRobin,
                warm_start: true,
            },
            &rec,
        );
        assert_eq!(fleet.report.served, 40);
        let mut stamps = Vec::new();
        for e in rec.events() {
            if let Some(ServeEvent::Admit {
                request, replica, ..
            })
            | Some(ServeEvent::Complete {
                request, replica, ..
            }) = ServeEvent::decode(&e)
            {
                let q = &tagged[request as usize];
                let expected = (q.req.id % 2) as usize * 2 + q.model;
                assert_eq!(replica as usize, expected, "request {request}");
                stamps.push(replica);
            }
        }
        assert_eq!(stamps.len(), 80, "one admit and one completion each");
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(
            stamps,
            [0, 1, 2, 3],
            "replica r runs family m as stream r * 2 + m"
        );
    }
}
