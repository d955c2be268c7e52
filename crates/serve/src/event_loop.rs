//! The one serving event loop behind [`crate::serve`],
//! [`crate::serve_cluster`] and [`crate::serve_fleet`].
//!
//! A run steps one [`ReplicaEngine`] per replica per model family on the
//! recorder's `VirtualClock`, handling the first due phase of the crate
//! docs' priority order (completion → membership → activation → delivery
//! → hedge → arrival → autoscale → flush) at each instant. A feature that
//! is off never schedules its events, so the same code is the single-node
//! engine, the chaos-tested cluster and the store-fronted fleet.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use dl_distributed::{FaultEvent, FaultTable};
use dl_nn::Dataset;
use dl_obs::{fields, Recorder};
use dl_trace::{DispatchKind, ServeEvent};

use crate::autoscale::{replica_capacity_rps, Autoscaler};
use crate::batcher::BatchPolicy;
use crate::cluster::{ClusterConfig, ScaleEvent};
use crate::engine::ReplicaEngine;
use crate::fleet::FleetConfig;
use crate::load::Request;
use crate::router::Router;
use crate::store::WeightStore;
use crate::variant::VariantRegistry;

/// Where a run's weights live.
pub(crate) enum Weights<'a> {
    /// One family served in place from the caller's registry: resident
    /// on every replica, never round-tripped through a store.
    Shared(&'a VariantRegistry),
    /// Many families and their encoded artifacts, each replica holding
    /// them in its own store under the fleet's budget and eviction
    /// policy. The stores share the artifact bytes.
    Stored(&'a [VariantRegistry], &'a [Arc<[u8]>], &'a FleetConfig),
}

impl Weights<'_> {
    /// The caller's definition of family `m`. Admission predicts from it:
    /// it is bit-identical to any decoded resident copy (round-trip
    /// tested), and unlike a store's copy it exists while a fault is
    /// still deferred.
    fn family(&self, m: usize) -> &VariantRegistry {
        match self {
            Weights::Shared(reg) => reg,
            Weights::Stored(families, ..) => &families[m],
        }
    }
}

/// One replica: an engine per family, its store, and its membership.
pub(crate) struct Replica {
    pub(crate) engines: Vec<ReplicaEngine>,
    /// When each family's weights become usable; flushes gate on it and
    /// admissions are charged the remainder (always 0 without a store).
    ready_s: Vec<f64>,
    pub(crate) store: Option<WeightStore>,
    up: bool,
    pub(crate) retired: bool,
    draining: bool,
    warm_until_s: f64,
    pub(crate) crashes: usize,
    pub(crate) rejoins: usize,
}

impl Replica {
    fn live(&self) -> bool {
        self.up && !self.retired
    }

    /// Queued plus in-flight requests over every family.
    fn load(&self) -> usize {
        self.engines.iter().map(ReplicaEngine::load).sum()
    }

    fn holds(&self, m: usize) -> bool {
        self.store.as_ref().is_none_or(|s| s.is_resident(m))
    }

    /// Retires a draining replica once it has no work left.
    fn retire_if_drained(&mut self) {
        if self.draining && !self.retired && self.engines.iter().all(ReplicaEngine::is_idle) {
            self.retired = true;
        }
    }

    /// The earliest batch completion or flush deadline (a queue cannot
    /// flush before its weights load), and the family of the first
    /// earliest completion under `total_cmp` (NaN never completes). With
    /// `after` set, only instants strictly later count, and loads
    /// finishing count too: the time a deferred fault should retry.
    fn next_event(
        &self,
        batch: &BatchPolicy,
        now: f64,
        drain: bool,
        after: Option<f64>,
    ) -> (f64, Option<(f64, usize)>) {
        let mut t = f64::INFINITY;
        let mut first_done: Option<(f64, usize)> = None;
        let mut push = |x: f64| {
            if after.is_none_or(|a| x > a) {
                t = t.min(x);
            }
        };
        for (m, (eng, &ready)) in self.engines.iter().zip(&self.ready_s).enumerate() {
            if let Some(c) = eng.next_completion_s() {
                push(c);
                if !c.is_nan() && first_done.is_none_or(|(d, _)| c.total_cmp(&d).is_lt()) {
                    first_done = Some((c, m));
                }
            }
            if let Some(d) = eng.next_flush_deadline_s(batch, now, drain) {
                push(d.max(ready));
            }
            if after.is_some() {
                push(ready);
            }
        }
        (t, first_done)
    }
}

/// A request due at a later instant: a delayed delivery to `replica`, or
/// a hedge timer. `seq` orders same-instant entries by scheduling order.
#[derive(Clone, Copy)]
struct Timed {
    at_s: f64,
    seq: u64,
    replica: usize,
    model: usize,
    req: Request,
}

// Reversed, so a `BinaryHeap` pops the earliest entry first.
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at_s
            .total_cmp(&self.at_s)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Timed {}

fn peek_s(timers: &BinaryHeap<Timed>) -> Option<f64> {
    timers.peek().map(|t| t.at_s)
}

/// Hedge timers in firing order. Each is due a fixed delay after the
/// (never decreasing) instant it was set, so timers arrive in `(at_s,
/// seq)` order and a FIFO pops exactly what a heap would.
#[derive(Default)]
struct HedgeTimers(VecDeque<Timed>);

impl HedgeTimers {
    fn push(&mut self, timer: Timed) {
        debug_assert!(
            self.0.back().is_none_or(|last| {
                let by_time = last.at_s.total_cmp(&timer.at_s);
                by_time.then(last.seq.cmp(&timer.seq)).is_lt()
            }),
            "hedge timers must be set in firing order"
        );
        self.0.push_back(timer);
    }

    fn peek_s(&self) -> Option<f64> {
        self.0.front().map(|t| t.at_s)
    }

    fn pop(&mut self) -> Option<Timed> {
        self.0.pop_front()
    }
}

/// Retry and hedge state indexed by dense request id.
struct PerRequest {
    answered: Vec<bool>,
    attempts: Vec<u32>,
    home: Vec<usize>,
}

/// Run-wide tallies the entry points project into their reports.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) lost: usize,
    pub(crate) unavailable: usize,
    pub(crate) retried: usize,
    pub(crate) hedged: usize,
    pub(crate) peak_replicas: usize,
    pub(crate) scale_events: Vec<ScaleEvent>,
    pub(crate) cold_request_ids: Vec<u64>,
}

struct Sim<'a> {
    weights: Weights<'a>,
    data: &'a Dataset,
    cfg: &'a ClusterConfig,
    /// `cfg.faults` resolved per step for the initial replicas.
    faults: FaultTable<'a>,
    rec: &'a dyn Recorder,
    n_models: usize,
    n_variants: usize,
    replicas: Vec<Replica>,
    router: Router,
    /// Allocated only when the retry policy can re-route or duplicate.
    per_request: Option<PerRequest>,
    deliveries: BinaryHeap<Timed>,
    seq: u64,
    /// No arrival or delivery can top a batch up any more.
    drain: bool,
    // Scratch reused by every dispatch and fault.
    loads: Vec<usize>,
    candidates: Vec<usize>,
    evictable: Vec<bool>,
    tally: Tally,
}

/// Serves `n` arrivals — `arrival(i)` is the `i`-th request (sorted by
/// arrival time) and its family — under `cfg`. Returns the replicas,
/// holding their engines' accounting, and the run's tallies.
///
/// # Panics
/// Panics on an invalid `cfg` (no replicas, a non-positive step length,
/// a warmup factor below 1), an unknown primary variant, a request for
/// an unknown family, or a family whose artifact alone exceeds the
/// store budget.
pub(crate) fn run(
    weights: Weights<'_>,
    data: &Dataset,
    n: usize,
    arrival: impl Fn(usize) -> (Request, usize),
    cfg: &ClusterConfig,
    rec: &dyn Recorder,
) -> (Vec<Replica>, Tally) {
    assert!(cfg.replicas > 0, "need at least one replica");
    assert!(
        cfg.seconds_per_step > 0.0 && cfg.seconds_per_step.is_finite(),
        "seconds_per_step must be positive"
    );
    assert!(cfg.warmup_factor >= 1.0, "warmup factor must be >= 1");
    let retry = cfg.retry;
    let mut sim = Sim {
        n_models: match &weights {
            Weights::Shared(_) => 1,
            Weights::Stored(families, ..) => families.len(),
        },
        n_variants: weights.family(0).variants.len(),
        weights,
        data,
        cfg,
        faults: cfg.faults.table(cfg.replicas),
        rec,
        replicas: Vec::with_capacity(cfg.replicas),
        router: Router::new(cfg.router),
        per_request: (retry.max_retries > 0 || retry.hedge_delay_s.is_some()).then(|| PerRequest {
            answered: vec![false; n],
            attempts: vec![0; n],
            home: vec![usize::MAX; n],
        }),
        deliveries: BinaryHeap::new(),
        seq: 0,
        drain: false,
        loads: Vec::new(),
        candidates: Vec::new(),
        evictable: Vec::new(),
        tally: Tally {
            peak_replicas: cfg.replicas,
            ..Tally::default()
        },
    };
    for r in 0..cfg.replicas {
        let replica = sim.new_replica(r, 0.0);
        sim.replicas.push(replica);
    }
    sim.run(n, arrival);
    (sim.replicas, sim.tally)
}

impl Sim<'_> {
    fn track(&self, replica: usize, model: usize) -> u32 {
        ((replica * self.n_models + model) * self.n_variants) as u32
    }

    fn step_of(&self, t_s: f64) -> usize {
        (t_s / self.cfg.seconds_per_step) as usize
    }

    fn provisioned(&self) -> usize {
        self.replicas.iter().filter(|r| !r.retired).count()
    }

    fn timed(&mut self, at_s: f64, replica: usize, model: usize, req: Request) -> Timed {
        let seq = self.seq;
        self.seq += 1;
        Timed {
            at_s,
            seq,
            replica,
            model,
            req,
        }
    }

    fn answered(&self, id: u64) -> bool {
        self.per_request
            .as_ref()
            .is_some_and(|p| p.answered[id as usize])
    }

    fn new_replica(&self, idx: usize, warm_until_s: f64) -> Replica {
        let store = match self.weights {
            Weights::Shared(_) => None,
            Weights::Stored(families, artifacts, fleet) => {
                let mut store = WeightStore::new(fleet.store_budget_bytes, fleet.eviction);
                for (m, artifact) in artifacts.iter().enumerate() {
                    let id = store.insert(&format!("family{m}"), Arc::clone(artifact));
                    debug_assert_eq!(id, m);
                }
                // Deployment-time warmup: first-fit in id order.
                if fleet.warm_start {
                    for m in 0..families.len() {
                        if store.resident_bytes() + store.artifact_bytes(m) <= store.budget_bytes()
                        {
                            store.preload(m);
                        }
                    }
                }
                Some(store)
            }
        };
        let engine =
            |m| ReplicaEngine::new(self.weights.family(m), &self.cfg.engine, self.track(idx, m));
        Replica {
            engines: (0..self.n_models).map(engine).collect(),
            ready_s: vec![0.0; self.n_models],
            store,
            up: true,
            retired: false,
            draining: false,
            warm_until_s,
            crashes: 0,
            rejoins: 0,
        }
    }

    fn run(&mut self, n: usize, arrival: impl Fn(usize) -> (Request, usize)) {
        let (cfg, rec) = (self.cfg, self.rec);
        // Membership faults mapped onto the serving timeline.
        let membership: Vec<(f64, usize, bool)> = cfg
            .faults
            .events()
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::WorkerCrash { worker, at_step } => Some((at_step, worker, true)),
                FaultEvent::WorkerRejoin { worker, at_step } => Some((at_step, worker, false)),
                _ => None,
            })
            .map(|(at_step, worker, crash)| (at_step as f64 * cfg.seconds_per_step, worker, crash))
            .collect();
        let mut fault_idx = 0usize;
        let mut autoscaler = cfg.autoscale.clone().map(Autoscaler::new);
        let primary = self.weights.family(0);
        let capacity_rps = primary.index_of(&cfg.engine.primary).map_or(0.0, |p| {
            replica_capacity_rps(&cfg.engine.device, &primary.variants[p])
        });
        let mut activations: Vec<f64> = Vec::new();
        let mut hedges = HedgeTimers::default();
        let mut now = 0.0f64;
        let mut next_arrival = 0usize;

        loop {
            // ---- next event time -------------------------------------------
            self.drain = next_arrival >= n && self.deliveries.is_empty();
            let work_remains = next_arrival < n
                || !self.deliveries.is_empty()
                || self.replicas.iter().any(|r| !r.retired && r.load() > 0);
            let mut t_next = f64::INFINITY;
            // The first earliest completion (lowest replica, then family),
            // due if it is no later than the instant picked below.
            let mut first_done: Option<(f64, usize, usize)> = None;
            for (i, r) in self.replicas.iter().enumerate().filter(|(_, r)| r.live()) {
                let (t, done) = r.next_event(&cfg.engine.batch, now, self.drain, None);
                t_next = t_next.min(t);
                if let Some((d, m)) = done {
                    if first_done.is_none_or(|(f, ..)| d.total_cmp(&f).is_lt()) {
                        first_done = Some((d, i, m));
                    }
                }
            }
            let next_arrival_s = (next_arrival < n).then(|| arrival(next_arrival).0.arrival_s);
            for t in [next_arrival_s, peek_s(&self.deliveries), hedges.peek_s()] {
                t_next = t_next.min(t.unwrap_or(f64::INFINITY));
            }
            if work_remains {
                if let Some(&(t, ..)) = membership.get(fault_idx) {
                    t_next = t_next.min(t);
                }
                for &t in &activations {
                    t_next = t_next.min(t);
                }
                if let Some(a) = &autoscaler {
                    t_next = t_next.min(a.next_eval_s());
                }
            }
            if t_next.is_infinite() {
                break;
            }
            now = now.max(t_next);
            rec.clock().set(now);

            // ---- 1: completion (earliest due, lowest replica/family) -------
            if let Some((_, i, m)) = first_done.filter(|&(t, ..)| t <= now) {
                // Only a request's first completion counts (hedge dedup).
                let mut answered = self.per_request.as_mut().map(|p| &mut p.answered);
                let fired = self.replicas[i].engines[m].try_complete(now, rec, &mut |req| {
                    answered
                        .as_mut()
                        .is_none_or(|a| !std::mem::replace(&mut a[req.id as usize], true))
                });
                debug_assert!(fired, "selected completion must fire");
                self.replicas[i].retire_if_drained();
                continue;
            }

            // ---- 2: membership ---------------------------------------------
            if let Some(&(_, worker, crash)) = membership.get(fault_idx).filter(|e| e.0 <= now) {
                fault_idx += 1;
                self.membership(worker, crash, now);
                continue;
            }

            // ---- 3: scale-up activation ------------------------------------
            if let Some(pos) = activations.iter().position(|&t| t <= now) {
                activations.swap_remove(pos);
                let idx = self.replicas.len();
                let replica = self.new_replica(idx, now + cfg.warmup_s);
                self.replicas.push(replica);
                let provisioned = self.provisioned() + activations.len();
                self.tally.peak_replicas = self.tally.peak_replicas.max(provisioned);
                rec.instant(
                    self.track(idx, 0),
                    "cluster.scale_up",
                    fields! { "replica" => idx },
                );
                continue;
            }

            // ---- 4: delivery -----------------------------------------------
            if peek_s(&self.deliveries).is_some_and(|t| t <= now) {
                let Timed {
                    replica: target,
                    model,
                    req,
                    ..
                } = self.deliveries.pop().expect("peeked");
                if self.answered(req.id) {
                    // A hedge twin already answered.
                } else if self.replicas[target].live() {
                    self.admit(target, model, req, now);
                } else {
                    // The replica died while the request was in transit.
                    self.retry_or_lose(req, model, target, now);
                }
                continue;
            }

            // ---- 5: hedge --------------------------------------------------
            if hedges.peek_s().is_some_and(|t| t <= now) {
                let Timed { model, req, .. } = hedges.pop().expect("peeked");
                let p = self.per_request.as_ref().expect("hedging tracks requests");
                let (home, attempt) = (p.home[req.id as usize], p.attempts[req.id as usize]);
                if !self.answered(req.id)
                    && self.dispatch(req, model, Some(home), DispatchKind::Hedge, attempt, now)
                {
                    self.tally.hedged += 1;
                    rec.add_counter("cluster.hedged", 1);
                }
                continue;
            }

            // ---- 6: arrival ------------------------------------------------
            if next_arrival_s.is_some_and(|t| t <= now) {
                let (req, model) = arrival(next_arrival);
                next_arrival += 1;
                assert!(
                    model < self.n_models,
                    "request {} targets unknown model {model}",
                    req.id
                );
                if let Some(a) = &mut autoscaler {
                    a.observe_arrival(req.arrival_s);
                }
                if !self.dispatch(req, model, None, DispatchKind::Primary, 0, now) {
                    self.tally.unavailable += 1;
                    rec.add_counter("cluster.unavailable", 1);
                    rec.typed_instant(0, &ServeEvent::Unavailable { request: req.id });
                } else if let Some(delay) = cfg.retry.hedge_delay_s {
                    hedges.push(self.timed(now + delay, usize::MAX, model, req));
                }
                continue;
            }

            // ---- 7: autoscale ----------------------------------------------
            if let Some(a) = autoscaler
                .as_mut()
                .filter(|a| work_remains && a.next_eval_s() <= now)
            {
                let desired = a.evaluate(now, capacity_rps);
                let current = self.provisioned() + activations.len();
                if desired != current {
                    self.tally.scale_events.push(ScaleEvent {
                        at_s: now,
                        target: desired,
                    });
                }
                if desired > current {
                    let delay = a.config().provision_delay_s;
                    activations.extend((current..desired).map(|_| now + delay));
                    self.tally.peak_replicas = self.tally.peak_replicas.max(desired);
                    rec.add_counter("cluster.scale_up", (desired - current) as u64);
                } else if desired < current {
                    // Cancel still-provisioning replicas first, then drain
                    // the highest-index live ones.
                    let mut excess = current - desired;
                    while excess > 0 && activations.pop().is_some() {
                        excess -= 1;
                    }
                    for i in (0..self.replicas.len()).rev() {
                        let track = self.track(i, 0);
                        let r = &mut self.replicas[i];
                        if excess > 0 && !r.retired && !r.draining {
                            r.draining = true;
                            excess -= 1;
                            rec.instant(track, "cluster.scale_down", fields! { "replica" => i });
                        }
                    }
                    rec.add_counter("cluster.scale_down", 1);
                    self.replicas
                        .iter_mut()
                        .for_each(Replica::retire_if_drained);
                }
                continue;
            }

            // ---- 8: flush --------------------------------------------------
            let step = self.step_of(now);
            for i in 0..self.replicas.len() {
                let r = &mut self.replicas[i];
                if !r.live() {
                    continue;
                }
                let warm = if now < r.warm_until_s {
                    cfg.warmup_factor
                } else {
                    1.0
                };
                let factor = warm * self.faults.slowdown_at(step, i);
                // Ready residents flush first, so a family that just
                // finished loading serves its queue before any re-fault
                // can steal its slot back.
                for m in 0..self.n_models {
                    if now < r.ready_s[m] || !r.holds(m) {
                        continue;
                    }
                    let registry = match (&self.weights, &r.store) {
                        (Weights::Shared(reg), _) => reg,
                        (_, store) => store.as_ref().expect("stored weights").registry(m),
                    };
                    let (data, drain) = (self.data, self.drain);
                    r.engines[m].try_flush(registry, data, &cfg.engine, now, drain, factor, rec);
                }
                // Families evicted from under their own queue fault back
                // in; a blocked fault retries at the replica's next event.
                for m in 0..self.n_models {
                    let r = &self.replicas[i];
                    if now >= r.ready_s[m] && !r.holds(m) && r.engines[m].queued_len() > 0 {
                        self.fault_in(i, m, now);
                    }
                }
            }
        }
    }

    /// Applies one crash or rejoin to `worker` (ignored when the replica
    /// does not exist or is already in that state).
    fn membership(&mut self, worker: usize, crash: bool, now: f64) {
        let (rec, track) = (self.rec, self.track(worker, 0));
        let Some(r) = self.replicas.get_mut(worker) else {
            return;
        };
        if crash && r.live() {
            r.up = false;
            r.crashes += 1;
            rec.add_counter("cluster.crash", 1);
            rec.typed_instant(
                track,
                &ServeEvent::Crash {
                    replica: worker as u32,
                },
            );
            let mut dropped = Vec::new();
            for (m, eng) in r.engines.iter_mut().enumerate() {
                dropped.extend(eng.crash_drain(rec).into_iter().map(|req| (req, m)));
            }
            for (req, m) in dropped {
                if !self.answered(req.id) {
                    self.retry_or_lose(req, m, worker, now);
                }
            }
            self.replicas[worker].retire_if_drained();
        } else if !crash && !r.retired && !r.up {
            r.up = true;
            r.rejoins += 1;
            r.warm_until_s = now + self.cfg.warmup_s;
            rec.add_counter("cluster.rejoin", 1);
            rec.typed_instant(
                track,
                &ServeEvent::Rejoin {
                    replica: worker as u32,
                },
            );
        }
    }

    /// Re-routes a request the dead replica `from` was holding, or counts
    /// it lost once its retries are spent or no replica can take it.
    fn retry_or_lose(&mut self, req: Request, model: usize, from: usize, now: f64) {
        let id = req.id as usize;
        let mut attempt = self.per_request.as_ref().map_or(0, |p| p.attempts[id]);
        if (attempt as usize) < self.cfg.retry.max_retries {
            attempt += 1;
            self.per_request
                .as_mut()
                .expect("retries track requests")
                .attempts[id] = attempt;
            if self.dispatch(req, model, Some(from), DispatchKind::Retry, attempt, now) {
                self.tally.retried += 1;
                self.rec.add_counter("cluster.retried", 1);
                return;
            }
        }
        self.tally.lost += 1;
        self.rec.add_counter("cluster.lost", 1);
        self.rec.typed_instant(
            self.track(from, model),
            &ServeEvent::Lost {
                request: req.id,
                attempt,
            },
        );
    }

    /// Routes `req` to an eligible replica other than `exclude`, preferring
    /// replicas that hold `model`, then admits it there at once (zero
    /// dispatch latency) or schedules a delivery inflated by the current
    /// link factor. Returns false when no replica is eligible.
    ///
    /// The trace's dispatch edge is emitted for every retry and hedge, and
    /// for a primary only when its delivery is delayed: an instant primary
    /// dispatch is indistinguishable from single-node admission.
    fn dispatch(
        &mut self,
        req: Request,
        model: usize,
        exclude: Option<usize>,
        kind: DispatchKind,
        attempt: u32,
        now: f64,
    ) -> bool {
        self.loads.clear();
        self.candidates.clear();
        for (i, r) in self.replicas.iter().enumerate() {
            self.loads.push(r.load());
            if r.live() && !r.draining && Some(i) != exclude {
                self.candidates.push(i);
            }
        }
        let (replicas, candidates) = (&self.replicas, &mut self.candidates);
        let routed = self
            .router
            .route_residency(candidates, &self.loads, |c| replicas[c].holds(model));
        let Some(target) = routed else {
            return false;
        };
        if let Some(p) = &mut self.per_request {
            p.home[req.id as usize] = target;
        }
        let cfg = self.cfg;
        let delay = if cfg.dispatch_s > 0.0 {
            cfg.dispatch_s / self.faults.link_factor_at(self.step_of(now))
        } else {
            0.0
        };
        if delay > 0.0 || kind != DispatchKind::Primary {
            self.rec.typed_instant(
                self.track(target, model),
                &ServeEvent::Dispatch {
                    request: req.id,
                    replica: target as u32,
                    attempt,
                    kind,
                },
            );
        }
        if delay > 0.0 {
            let delivery = self.timed(now + delay, target, model, req);
            self.deliveries.push(delivery);
        } else {
            self.admit(target, model, req, now);
        }
        true
    }

    /// Admits `req` on replica `i`'s engine for `model`, first faulting
    /// the family in when the replica has a store; the admission
    /// prediction is charged the seconds until its weights are usable.
    fn admit(&mut self, i: usize, model: usize, req: Request, now: f64) {
        let residency_s = if self.replicas[i].store.is_some() {
            self.fault_in(i, model, now)
        } else {
            0.0
        };
        if residency_s > 0.0 {
            self.tally.cold_request_ids.push(req.id);
        }
        let (registry, cfg) = (self.weights.family(model), &self.cfg.engine);
        let engine = &mut self.replicas[i].engines[model];
        let _ = engine.admit_arrival(req, registry, cfg, now, residency_s, self.rec);
    }

    /// Makes `model` resident on replica `i`, evicting only families that
    /// are fully loaded and owe no queued work: a family mid-load or with
    /// queued requests keeps its slot, or two queues contending for one
    /// slot would cancel each other's loads forever. Returns the seconds
    /// until the weights are usable — 0 when warm, the remaining load
    /// when cold or still loading, and when every resident is protected,
    /// the wait for the replica's next event (where the fault retries)
    /// plus the load.
    fn fault_in(&mut self, i: usize, model: usize, now: f64) -> f64 {
        let (cfg, track) = (self.cfg, self.track(i, model));
        let device = &cfg.engine.device;
        let r = &mut self.replicas[i];
        self.evictable.clear();
        for (eng, &ready) in r.engines.iter().zip(&r.ready_s) {
            self.evictable.push(now >= ready && eng.queued_len() == 0);
        }
        let store = r.store.as_mut().expect("faults need a store");
        match store.fetch_guarded(model, device, &self.evictable, track, self.rec) {
            Some(outcome) => {
                if !outcome.warm {
                    r.ready_s[model] = now + outcome.load_s;
                }
                (r.ready_s[model] - now).max(0.0)
            }
            None => {
                let load_s = store.load_seconds(model, device);
                let (next, _) = r.next_event(&cfg.engine.batch, now, self.drain, Some(now));
                let retry = if next.is_finite() { next } else { now + load_s };
                r.ready_s[model] = retry;
                retry - now + load_s
            }
        }
    }
}
