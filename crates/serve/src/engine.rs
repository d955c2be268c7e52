//! The deterministic serving engine: one simulated device, per-variant
//! queues, event-driven time on `dl_obs::VirtualClock`.
//!
//! The engine replays an open-loop arrival schedule against the variant
//! family. Each flushed batch *actually runs* the batched dl-nn forward
//! (so answers — and therefore measured accuracy — are real), while its
//! duration comes from the variant's measured cost table through the
//! [`DeviceModel`]. All state advances in event order on plain `f64`
//! simulated seconds mirrored into the recorder's `VirtualClock`, so a
//! seeded run is byte-identical every time, traced or not.
//!
//! The per-device state machine is [`ReplicaEngine`], a steppable unit.
//! The crate's one event loop steps a grid of them (replicas × model
//! families); single-node [`serve`] is that loop with one replica, one
//! family and no faults, so its priority order reduces to
//! completion → arrival → flush.

use std::collections::VecDeque;

use dl_nn::Dataset;
use dl_obs::{fields, Recorder};
use dl_trace::{FlushTrigger, ServeEvent};

use crate::admission::{admit, AdmissionContext, AdmissionPolicy, Decision, PriceTable};
use crate::batcher::BatchPolicy;
use crate::cluster::ClusterConfig;
use crate::device::DeviceModel;
use crate::event_loop::run;
use crate::load::Request;
use crate::report::{percentile_of_sorted, ServeReport, VariantServeStats};
use crate::variant::VariantRegistry;

/// One serving run's configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush policy shared by every variant queue.
    pub batch: BatchPolicy,
    /// Admission policy applied to every arrival.
    pub admission: AdmissionPolicy,
    /// Name of the variant requests target before any downgrade.
    pub primary: String,
    /// The simulated device executing batches.
    pub device: DeviceModel,
}

/// A batch the device is currently executing.
struct InFlight {
    variant: usize,
    done_s: f64,
    span: dl_obs::SpanId,
    /// The batch's requests, each flagged when downgraded.
    requests: Vec<(Request, bool)>,
    preds: Vec<usize>,
    correct: Vec<bool>,
}

/// One steppable serving device: per-variant queues, at most one batch in
/// flight, all timing in simulated seconds.
///
/// The engine never advances time itself — the event loop computes the
/// next event time from [`ReplicaEngine::next_completion_s`] /
/// [`ReplicaEngine::next_flush_deadline_s`] (plus its own arrival
/// schedule), then invokes the matching handler.
pub(crate) struct ReplicaEngine<'a> {
    /// The caller's family: admission prices it, downgrades name its
    /// variants, and a flush runs it unless a store holds a decoded copy.
    family: &'a VariantRegistry,
    cfg: &'a ServeConfig,
    track_base: u32,
    /// The execution stream this engine runs, `replica × families +
    /// family` (the replica id when one family is served), stamped as
    /// `replica` on the structured serving samples the monitor and trace
    /// tiers consume. Waterfalls measure queue wait from the previous
    /// batch end on the same stream, and each family runs its own.
    stream: u32,
    primary: usize,
    /// Per-variant queues of requests, each flagged when downgraded.
    queues: Vec<VecDeque<(Request, bool)>>,
    /// Requests over every queue.
    queued: usize,
    /// Per-variant queue lengths handed to admission, reused per arrival.
    queue_lens: Vec<usize>,
    /// The family priced for admission on this engine's device and
    /// flush policy.
    prices: PriceTable,
    in_flight: Option<InFlight>,
    /// Per-variant traffic accounting, registry order.
    pub(crate) stats: Vec<VariantServeStats>,
    /// Response latencies in completion order.
    latencies: Vec<f64>,
    shed: usize,
    downgraded: usize,
    /// Completions discarded because another replica answered first
    /// (hedged duplicates).
    pub(crate) wasted: usize,
    first_arrival: f64,
    last_completion: f64,
    /// Monotone per-replica batch sequence number, stamped on the
    /// `serve.batch` span and each member's `serve.batch_join` instant so
    /// traces can name the batch a request rode in.
    batch_seq: u64,
}

impl<'a> ReplicaEngine<'a> {
    /// A fresh, idle engine serving `family` under `cfg` on execution
    /// stream `stream`. Stream `s` of an `n`-variant family emits on the
    /// dl-obs tracks `s * n .. (s + 1) * n`, so single-node serving —
    /// stream 0 — keeps its historical track layout.
    ///
    /// # Panics
    /// Panics when the configured primary variant is unknown.
    pub(crate) fn new(family: &'a VariantRegistry, cfg: &'a ServeConfig, stream: u32) -> Self {
        let primary = family
            .index_of(&cfg.primary)
            .unwrap_or_else(|| panic!("unknown primary variant {:?}", cfg.primary));
        let n_variants = family.variants.len();
        ReplicaEngine {
            family,
            cfg,
            track_base: stream * n_variants as u32,
            stream,
            primary,
            queues: vec![VecDeque::new(); n_variants],
            queued: 0,
            queue_lens: Vec::with_capacity(n_variants),
            prices: PriceTable::new(family, &cfg.device, &cfg.batch),
            in_flight: None,
            stats: family
                .variants
                .iter()
                .map(|v| VariantServeStats {
                    name: v.name.clone(),
                    served: 0,
                    batches: 0,
                    correct: 0,
                })
                .collect(),
            latencies: Vec::new(),
            shed: 0,
            downgraded: 0,
            wasted: 0,
            first_arrival: f64::INFINITY,
            last_completion: 0.0,
            batch_seq: 0,
        }
    }

    /// When the in-flight batch (if any) completes.
    #[must_use]
    pub(crate) fn next_completion_s(&self) -> Option<f64> {
        self.in_flight.as_ref().map(|fl| fl.done_s)
    }

    /// The earliest time a queue flushes on its own (the earliest
    /// [`BatchPolicy::flush_at`] time over the queues): `None` while a
    /// batch is in flight or every queue is empty.
    #[must_use]
    pub(crate) fn next_flush_deadline_s(&self, now_s: f64, drain: bool) -> Option<f64> {
        if self.in_flight.is_some() || self.queued == 0 {
            return None;
        }
        let mut t = f64::INFINITY;
        for q in &self.queues {
            if let Some((head, _)) = q.front() {
                let flush = self
                    .cfg
                    .batch
                    .flush_at(q.len(), head.arrival_s, now_s, drain);
                t = t.min(flush.expect("non-empty queue flushes").0);
            }
        }
        (t < f64::INFINITY).then_some(t)
    }

    /// Queued plus in-flight requests — the router's load signal.
    #[must_use]
    pub(crate) fn load(&self) -> usize {
        self.queued + self.in_flight.as_ref().map_or(0, |fl| fl.requests.len())
    }

    /// True when nothing is queued or executing.
    #[must_use]
    pub(crate) fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.queued == 0
    }

    /// Requests waiting in queues — work that still needs the family's
    /// weights (an in-flight batch already read them).
    #[must_use]
    pub(crate) fn queued_len(&self) -> usize {
        self.queued
    }

    /// Completes the in-flight batch if it is due at `now_s`. `fresh`
    /// decides per request whether this completion counts (the cluster's
    /// hedging dedup; single-node passes `|_| true`). Returns whether a
    /// completion happened.
    pub(crate) fn try_complete(
        &mut self,
        now_s: f64,
        rec: &dyn Recorder,
        fresh: &mut dyn FnMut(&Request) -> bool,
    ) -> bool {
        let Some(fl) = self.in_flight.take_if(|fl| fl.done_s <= now_s) else {
            return false;
        };
        let b = fl.requests.len();
        let mut served = 0usize;
        let mut correct = 0usize;
        let mut downgrades = 0usize;
        for (i, (req, downgraded)) in fl.requests.iter().enumerate() {
            if !fresh(req) {
                self.wasted += 1;
                // The losing copy of a hedge race: it burned a batch slot
                // but another replica had already answered.
                rec.typed_instant(
                    self.track_base + fl.variant as u32,
                    &ServeEvent::HedgeLoser {
                        request: req.id,
                        replica: self.stream,
                        elapsed_s: fl.done_s - req.arrival_s,
                    },
                );
                continue;
            }
            served += 1;
            let latency = fl.done_s - req.arrival_s;
            self.latencies.push(latency);
            // The request id rides along as a bucket exemplar, linking
            // histogram tail buckets back to concrete waterfalls.
            rec.observe_exemplar("serve.latency_s", latency, req.id);
            // The structured per-request sample the monitor tier
            // subscribes to (the NullRecorder builds nothing for it, which
            // keeps unmonitored serving allocation-free).
            rec.typed_instant(
                self.track_base + fl.variant as u32,
                &ServeEvent::Complete {
                    request: req.id,
                    replica: self.stream,
                    latency_s: latency,
                    sample: Some(req.sample as u64),
                    pred: Some(fl.preds[i] as u64),
                    downgraded: *downgraded,
                },
            );
            correct += usize::from(fl.correct[i]);
            downgrades += usize::from(*downgraded);
        }
        self.stats[fl.variant].served += served;
        self.stats[fl.variant].batches += 1;
        self.stats[fl.variant].correct += correct;
        self.downgraded += downgrades;
        rec.add_counter("serve.served", served as u64);
        rec.add_counter("serve.downgraded", downgrades as u64);
        let end_fields = if rec.enabled() {
            fields! { "batch" => b, "replica" => self.stream }
        } else {
            fields!()
        };
        rec.span_end(fl.span, end_fields);
        self.last_completion = self.last_completion.max(fl.done_s);
        true
    }

    /// Runs one arrival through admission control and enqueues (or sheds)
    /// it. The prediction is charged `residency_delay_s` extra seconds
    /// before the family's weights are usable (a store's cold-start
    /// signal; `0.0` for always-resident weights).
    pub(crate) fn admit_arrival(
        &mut self,
        req: Request,
        now_s: f64,
        residency_delay_s: f64,
        rec: &dyn Recorder,
    ) {
        self.first_arrival = self.first_arrival.min(req.arrival_s);
        self.queue_lens.clear();
        self.queue_lens
            .extend(self.queues.iter().map(VecDeque::len));
        let busy_remaining_s = self
            .in_flight
            .as_ref()
            .map_or(0.0, |fl| (fl.done_s - now_s).max(0.0));
        let ctx = AdmissionContext {
            prices: &self.prices,
            queue_lens: &self.queue_lens,
            busy_remaining_s,
            residency_delay_s,
        };
        match admit(&self.cfg.admission, &ctx, self.primary) {
            Decision::Accept(v) => {
                self.queues[v].push_back((req, false));
                self.queued += 1;
                rec.typed_instant(
                    self.track_base + v as u32,
                    &ServeEvent::Admit {
                        request: req.id,
                        replica: self.stream,
                        queue: Some(self.load() as u64),
                    },
                );
            }
            Decision::Downgrade { from, to } => {
                self.queues[to].push_back((req, true));
                self.queued += 1;
                if rec.enabled() {
                    rec.instant(
                        self.track_base + to as u32,
                        "serve.downgrade",
                        fields! {
                            "request" => req.id,
                            "replica" => self.stream,
                            "queue" => self.load(),
                            "from" => self.family.variants[from].name.clone(),
                            "to" => self.family.variants[to].name.clone(),
                        },
                    );
                }
            }
            Decision::Shed => {
                self.shed += 1;
                rec.add_counter("serve.shed", 1);
                rec.typed_instant(
                    self.track_base + self.primary as u32,
                    &ServeEvent::Shed {
                        request: req.id,
                        replica: self.stream,
                    },
                );
            }
        }
    }

    /// Flushes the oldest head whose queue is due at `now_s` (ties break
    /// on the lower variant index) into an in-flight batch, if the device
    /// is idle. `stored` is a store's decoded copy of the family, which
    /// the batch then runs instead of the caller's. `service_factor`
    /// scales the batch's simulated duration (cold-start warmup,
    /// stragglers; 1.0 nominal). Returns whether a batch launched.
    pub(crate) fn try_flush(
        &mut self,
        stored: Option<&VariantRegistry>,
        data: &Dataset,
        now_s: f64,
        drain: bool,
        service_factor: f64,
        rec: &dyn Recorder,
    ) -> bool {
        if self.in_flight.is_some() || self.queued == 0 {
            return false;
        }
        let mut due: Option<(usize, f64, FlushTrigger)> = None;
        for (v, q) in self.queues.iter().enumerate() {
            let Some(&(head, _)) = q.front() else {
                continue;
            };
            let older = due.is_none_or(|(_, t, _)| head.arrival_s.total_cmp(&t).is_lt());
            let flush = self
                .cfg
                .batch
                .flush_at(q.len(), head.arrival_s, now_s, drain);
            let (at, trigger) = flush.expect("non-empty queue flushes");
            if older && at <= now_s {
                due = Some((v, head.arrival_s, trigger));
            }
        }
        let Some((v, _, trigger)) = due else {
            return false;
        };
        let (family, cfg) = (stored.unwrap_or(self.family), self.cfg);
        let b = self.queues[v].len().min(cfg.batch.max_batch);
        let requests: Vec<(Request, bool)> = self.queues[v].drain(..b).collect();
        self.queued -= b;
        let samples: Vec<usize> = requests.iter().map(|(r, _)| r.sample).collect();
        // The real batched forward: one [B, d] eval-mode pass, fanned
        // across the kernel pool only when the batch's measured cost
        // amortizes the per-thread launch overhead (small batches stay
        // sequential). The parallel kernels are bit-identical, so neither
        // answers nor simulated time depend on the thread count.
        let cost = *family.variants[v].cost_at(b);
        let threads = cfg.device.threads_for(&cost, dl_tensor::par::threads());
        let xb = data.x.select_rows(&samples);
        let variant = &family.variants[v];
        let preds = dl_tensor::par::with_threads(threads, || variant.model.predict(&xb));
        let correct: Vec<bool> = preds
            .iter()
            .zip(&samples)
            .map(|(p, &s)| *p == data.y[s])
            .collect();
        let dur = cfg.device.service_time(&cost) * service_factor;
        let start_fields = if rec.enabled() {
            fields! {
                "variant" => variant.name.clone(),
                "batch" => b,
                "replica" => self.stream,
                "seq" => self.batch_seq,
            }
        } else {
            fields!()
        };
        let span = rec.span_start(self.track_base + v as u32, "serve.batch", start_fields);
        for (pos, (r, _)) in requests.iter().enumerate() {
            rec.typed_instant(
                self.track_base + v as u32,
                &ServeEvent::BatchJoin {
                    request: r.id,
                    replica: self.stream,
                    seq: self.batch_seq,
                    pos: pos as u32,
                    size: b as u32,
                    trigger,
                },
            );
        }
        self.batch_seq += 1;
        self.in_flight = Some(InFlight {
            variant: v,
            done_s: now_s + dur,
            span,
            requests,
            preds,
            correct,
        });
        true
    }

    /// Crash-stops the replica: the in-flight batch is abandoned (its span
    /// ends marked `crashed`) and every queue empties. Returns the lost
    /// requests — in-flight first, then queued in variant order — for the
    /// retry policy to re-route or discard.
    pub(crate) fn crash_drain(&mut self, rec: &dyn Recorder) -> Vec<Request> {
        let mut lost = Vec::new();
        if let Some(fl) = self.in_flight.take() {
            rec.span_end(
                fl.span,
                fields! { "batch" => fl.requests.len(), "crashed" => true, "replica" => self.stream },
            );
            lost.extend(fl.requests.into_iter().map(|(r, _)| r));
        }
        for q in &mut self.queues {
            lost.extend(q.drain(..).map(|(r, _)| r));
        }
        self.queued = 0;
        lost
    }
}

/// Aggregates one or more engines' accounting into a [`ServeReport`].
/// Latencies concatenate in engine order (percentiles sort internally, so
/// the order only fixes the f64 summation order — deterministically).
pub(crate) fn assemble_report<'e: 'a, 'a>(
    offered: usize,
    engines: impl IntoIterator<Item = &'a ReplicaEngine<'e>>,
) -> ServeReport {
    let mut stats: Vec<VariantServeStats> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut shed = 0usize;
    let mut downgraded = 0usize;
    let mut first_arrival = f64::INFINITY;
    let mut last_completion = 0.0f64;
    for e in engines {
        if stats.is_empty() {
            stats.clone_from(&e.stats);
        } else {
            for (agg, s) in stats.iter_mut().zip(&e.stats) {
                agg.served += s.served;
                agg.batches += s.batches;
                agg.correct += s.correct;
            }
        }
        latencies.extend_from_slice(&e.latencies);
        shed += e.shed;
        downgraded += e.downgraded;
        first_arrival = first_arrival.min(e.first_arrival);
        last_completion = last_completion.max(e.last_completion);
    }
    let served: usize = stats.iter().map(|s| s.served).sum();
    let correct: usize = stats.iter().map(|s| s.correct).sum();
    let batches: usize = stats.iter().map(|s| s.batches).sum();
    let sim_seconds = if served == 0 {
        0.0
    } else {
        last_completion - first_arrival.min(last_completion)
    };
    // `num / den`, or 0 for an empty denominator.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // The mean sums in engine order; the quantiles then read one in-place
    // sort instead of a sorted copy each.
    let mean_s = ratio(latencies.iter().sum(), latencies.len() as f64);
    latencies.sort_by(f64::total_cmp);
    ServeReport {
        offered,
        served,
        shed,
        downgraded,
        sim_seconds,
        throughput_rps: ratio(served as f64, sim_seconds),
        accuracy: ratio(correct as f64, served as f64),
        p50_s: percentile_of_sorted(&latencies, 0.50),
        p99_s: percentile_of_sorted(&latencies, 0.99),
        max_s: latencies.iter().copied().fold(0.0, f64::max),
        mean_s,
        mean_batch: ratio(served as f64, batches as f64),
        per_variant: stats,
    }
}

/// Serves `requests` (sorted by arrival time) against the family on one
/// fault-free replica, in place (no weight store).
///
/// Observability: per-batch spans on the variant's track, `serve.shed` /
/// `serve.downgrade` instants, `serve.{served,shed,downgraded}` counters
/// and a `serve.latency_s` histogram — all through `rec`, so a
/// `NullRecorder` run does no collection work and returns a bit-identical
/// report (the clock still advances; it is shared simulation state).
///
/// # Panics
/// Panics when the primary variant is unknown or a request's sample index
/// is out of range for `data`.
pub fn serve(
    registry: &VariantRegistry,
    data: &Dataset,
    requests: &[Request],
    cfg: &ServeConfig,
    rec: &dyn Recorder,
) -> ServeReport {
    let (n, cluster) = (requests.len(), ClusterConfig::new(1, cfg.clone()));
    let arrival = |i| (requests[i], 0);
    let family = std::slice::from_ref(registry);
    let (replicas, _) = run(family, None, data, n, arrival, &cluster, rec);
    assemble_report(n, &replicas[0].engines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{open_loop, LoadConfig};
    use crate::variant::{build_family, FamilyConfig};
    use dl_obs::{NullRecorder, TimelineRecorder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn cfg(batch: BatchPolicy, admission: AdmissionPolicy) -> ServeConfig {
        ServeConfig {
            batch,
            admission,
            primary: "fp32-base".into(),
            device: DeviceModel::nominal(),
        }
    }

    #[test]
    fn run_is_deterministic_and_recorder_invisible() {
        let (reg, eval) = family_and_data();
        let load = open_loop(
            &LoadConfig {
                rate_rps: 200_000.0,
                requests: 400,
                seed: 5,
            },
            eval.x.dims()[0],
        );
        let c = cfg(BatchPolicy::dynamic(16, 5e-6), AdmissionPolicy::AcceptAll);
        let a = serve(&reg, &eval, &load, &c, &NullRecorder::new());
        let b = serve(&reg, &eval, &load, &c, &NullRecorder::new());
        assert_eq!(a, b, "same schedule, same report");
        let rec = TimelineRecorder::new();
        let traced = serve(&reg, &eval, &load, &c, &rec);
        assert_eq!(a, traced, "tracing must not change the result");
        let events = rec.events();
        assert!(events.iter().any(|e| e.name == "serve.batch"));
        let h = rec.histogram("serve.latency_s").expect("latency histogram");
        assert_eq!(h.count, traced.served as u64);
    }

    #[test]
    fn all_requests_served_without_admission_control() {
        let (reg, eval) = family_and_data();
        let load = open_loop(
            &LoadConfig {
                rate_rps: 50_000.0,
                requests: 300,
                seed: 6,
            },
            eval.x.dims()[0],
        );
        let c = cfg(BatchPolicy::no_batching(), AdmissionPolicy::AcceptAll);
        let r = serve(&reg, &eval, &load, &c, &NullRecorder::new());
        assert_eq!(r.served, 300);
        assert_eq!(r.shed, 0);
        assert_eq!(r.downgraded, 0);
        assert!((r.mean_batch - 1.0).abs() < 1e-12, "batch=1 policy");
        assert!(r.accuracy > 0.5, "served answers come from a real model");
        assert!(r.p50_s <= r.p99_s && r.p99_s <= r.max_s);
    }

    #[test]
    fn batching_multiplies_throughput_at_bounded_tail() {
        let (reg, eval) = family_and_data();
        // Offered load near the batch=1 saturation knee.
        let base = &reg.variants[0];
        let device = DeviceModel::nominal();
        let cap1 = 1.0 / device.service_time(base.cost_at(1));
        let load = open_loop(
            &LoadConfig {
                rate_rps: 3.0 * cap1,
                requests: 600,
                seed: 7,
            },
            eval.x.dims()[0],
        );
        let single = serve(
            &reg,
            &eval,
            &load,
            &cfg(BatchPolicy::no_batching(), AdmissionPolicy::AcceptAll),
            &NullRecorder::new(),
        );
        let dynamic = serve(
            &reg,
            &eval,
            &load,
            &cfg(BatchPolicy::dynamic(16, 5e-6), AdmissionPolicy::AcceptAll),
            &NullRecorder::new(),
        );
        assert!(dynamic.mean_batch > 2.0, "batches actually form");
        assert!(
            dynamic.throughput_rps > 2.0 * single.throughput_rps,
            "dynamic {} vs batch=1 {}",
            dynamic.throughput_rps,
            single.throughput_rps
        );
        assert!(
            dynamic.p99_s < single.p99_s,
            "amortized service keeps the tail lower at 3x the knee"
        );
    }

    #[test]
    fn slo_aware_admission_bounds_the_tail_under_overload() {
        let (reg, eval) = family_and_data();
        let device = DeviceModel::nominal();
        let batch = BatchPolicy::dynamic(16, 5e-6);
        let base = &reg.variants[0];
        let cap_dyn = 16.0 / device.service_time(base.cost_at(16));
        let slo = 2e-5;
        let load = open_loop(
            &LoadConfig {
                rate_rps: 2.0 * cap_dyn,
                requests: 2000,
                seed: 8,
            },
            eval.x.dims()[0],
        );
        let melted = serve(
            &reg,
            &eval,
            &load,
            &cfg(batch, AdmissionPolicy::AcceptAll),
            &NullRecorder::new(),
        );
        let governed = serve(
            &reg,
            &eval,
            &load,
            &cfg(
                batch,
                AdmissionPolicy::SloAware {
                    p99_slo_s: slo,
                    headroom: 0.7,
                    min_accuracy: 0.0,
                },
            ),
            &NullRecorder::new(),
        );
        assert!(
            melted.p99_s > 2.0 * slo,
            "accept-all must bust the SLO at 2x capacity: p99 {}",
            melted.p99_s
        );
        assert!(governed.shed > 0, "overload must shed");
        assert!(
            governed.p99_s <= slo,
            "governed p99 {} vs slo {slo}",
            governed.p99_s
        );
        assert!(governed.served + governed.shed == governed.offered);
    }

    #[test]
    fn stepping_to_the_flush_deadline_flushes_with_the_policys_trigger() {
        let (reg, eval) = family_and_data();
        let rows = eval.x.dims()[0];
        for case in 0..3000u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let batch = BatchPolicy::dynamic(rng.gen_range(1..=6), rng.gen_range(0.0..4e-6));
            let c = cfg(batch, AdmissionPolicy::AcceptAll);
            let mut eng = ReplicaEngine::new(&reg, &c, 0);
            // Random queue state: up to 8 requests over random variants,
            // each queue in arrival order.
            let mut now = 0.0f64;
            for id in 0..rng.gen_range(1..=8u64) {
                now += rng.gen_range(0.0..2e-6);
                let v = rng.gen_range(0..eng.queues.len());
                let req = Request {
                    id,
                    arrival_s: now,
                    sample: rng.gen_range(0..rows),
                };
                eng.queues[v].push_back((req, false));
                eng.queued += 1;
            }
            now += rng.gen_range(0.0..4e-6);
            let drain = case % 2 == 1;
            let deadline = eng.next_flush_deadline_s(now, drain).expect("queued work");
            // The event loop never steps backwards.
            let at = now.max(deadline);
            let flush_at: Vec<_> = (eng.queues.iter())
                .map(|q| {
                    q.front()
                        .map(|(h, _)| batch.flush_at(q.len(), h.arrival_s, at, drain))
                })
                .collect();
            let rec = TimelineRecorder::new();
            assert!(
                eng.try_flush(None, &eval, at, drain, 1.0, &rec),
                "case {case}: nothing flushed at the deadline {deadline} (now {now})"
            );
            let v = eng.in_flight.as_ref().expect("a batch launched").variant;
            let (due_s, trigger) = flush_at[v].flatten().expect("flushed queue was non-empty");
            assert!(
                due_s <= at,
                "case {case}: flushed a queue due at {due_s} > {at}"
            );
            let joins: Vec<FlushTrigger> = (rec.events().iter())
                .filter_map(|e| match ServeEvent::decode(e) {
                    Some(ServeEvent::BatchJoin { trigger, .. }) => Some(trigger),
                    _ => None,
                })
                .collect();
            assert!(!joins.is_empty(), "case {case}: batch members join");
            assert!(
                joins.iter().all(|&t| t == trigger),
                "case {case}: joins {joins:?}, flush_at named {trigger:?}"
            );
        }
    }
}
