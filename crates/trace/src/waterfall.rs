//! Waterfall reconstruction: rebuilds each request's lifecycle from the
//! recorded event stream into typed, conservation-checked phases.
//!
//! All arithmetic is on the integer microsecond timestamps the virtual
//! clock stamps onto events. Phases are consecutive intervals between a
//! request's own events, so their telescoping sum equals the end-to-end
//! latency *exactly* — not within epsilon — which
//! [`TraceSet::verify_conservation`] asserts for every request, and
//! [`TraceSet::matches_report`] cross-checks against the engine's own
//! served/shed/lost/unavailable accounting.

use std::collections::BTreeMap;

use dl_obs::{find_field, Event, EventKind, FieldValue};

use crate::context::{names, DispatchKind};

/// Number of phase slots in a [`RequestTrace`].
pub const PHASE_COUNT: usize = 7;

/// One segment of a request's lifecycle, in chronological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Time before the winning *retry* dispatch fired (crash detection +
    /// re-route). Zero when the primary attempt won.
    RetryWait,
    /// Time before the winning *hedge* dispatch fired (the hedge timer).
    /// Zero when the primary attempt won.
    HedgeWait,
    /// Router-to-replica delivery of the winning dispatch (zero when
    /// dispatch is instantaneous, e.g. single-node).
    Admit,
    /// Admission to the moment the serving device last went idle — pure
    /// head-of-line queueing behind earlier batches.
    Queue,
    /// Device idle but the batcher holding for more arrivals (the
    /// batching delay knob).
    BatchWait,
    /// Inside the forward batch until first completion.
    Service,
    /// Completion to delivery (zero in-process; kept as an explicit slot
    /// so the schema names every edge).
    Deliver,
}

impl Phase {
    /// All phases in chronological order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::RetryWait,
        Phase::HedgeWait,
        Phase::Admit,
        Phase::Queue,
        Phase::BatchWait,
        Phase::Service,
        Phase::Deliver,
    ];

    /// Stable snake_case label (JSON keys, table headers).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::RetryWait => "retry_wait",
            Phase::HedgeWait => "hedge_wait",
            Phase::Admit => "admit",
            Phase::Queue => "queue",
            Phase::BatchWait => "batch_wait",
            Phase::Service => "service",
            Phase::Deliver => "deliver",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::RetryWait => 0,
            Phase::HedgeWait => 1,
            Phase::Admit => 2,
            Phase::Queue => 3,
            Phase::BatchWait => 4,
            Phase::Service => 5,
            Phase::Deliver => 6,
        }
    }
}

/// How a request's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered; `replica` served the winning copy, `via` is the kind of
    /// the dispatch that won.
    Served {
        /// Replica that produced the delivered answer.
        replica: u32,
        /// Dispatch kind of the winning attempt.
        via: DispatchKind,
    },
    /// Rejected by admission control.
    Shed,
    /// Crashed away after retries ran out.
    Lost,
    /// No routable replica at arrival.
    Unavailable,
}

impl Outcome {
    /// Stable lowercase label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Served { .. } => "served",
            Outcome::Shed => "shed",
            Outcome::Lost => "lost",
            Outcome::Unavailable => "unavailable",
        }
    }
}

/// Which batch a served request rode in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRef {
    /// Replica that formed the batch.
    pub replica: u32,
    /// Per-replica batch sequence number.
    pub seq: u64,
    /// Position inside the batch (0-based).
    pub pos: u32,
    /// Batch size.
    pub size: u32,
    /// Why the batch flushed (`full` / `aged` / `drain`).
    pub trigger: String,
}

/// One request's reconstructed lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Request id.
    pub id: u64,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Timestamp of the request's first recorded event (µs).
    pub start_us: u64,
    /// Timestamp of its terminal event (µs).
    pub end_us: u64,
    /// Phase durations (µs), indexed in [`Phase::ALL`] order. Their sum
    /// is exactly `end_us - start_us`.
    pub phases: [u64; PHASE_COUNT],
    /// Explicit dispatch edges observed (0 when the zero-delay primary
    /// path emitted none).
    pub dispatches: u32,
    /// Whether a hedge duplicate was launched for this request.
    pub hedged: bool,
    /// Batch membership of the winning copy, when it reached a batch.
    pub batch: Option<BatchRef>,
    /// Wasted duplicate work (µs) from hedge copies that lost the race.
    pub wasted_us: u64,
    /// The engine's own `latency_s` field from `serve.complete` (0.0 for
    /// non-served requests). Sanity reference only — the exact number is
    /// `e2e_us`.
    pub reported_latency_s: f64,
}

impl RequestTrace {
    /// End-to-end wall time in microseconds (exact).
    #[must_use]
    pub fn e2e_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Duration of one phase in microseconds.
    #[must_use]
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phases[phase.index()]
    }
}

/// Event-level outcome tallies, mirroring the engine report's accounting
/// (a hedged request can legitimately contribute to two tallies, exactly
/// as it does in the report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Delivered first completions.
    pub served: usize,
    /// Admission-control rejections (event count).
    pub shed: usize,
    /// Terminal crash losses (event count).
    pub lost: usize,
    /// Arrivals with no routable replica (event count).
    pub unavailable: usize,
}

impl OutcomeCounts {
    /// Sum of all tallies.
    #[must_use]
    pub fn total(&self) -> usize {
        self.served + self.shed + self.lost + self.unavailable
    }
}

/// Per-request accumulator while scanning the stream.
#[derive(Default)]
struct Pending {
    first_ts: Option<u64>,
    last_ts: u64,
    /// (ts, replica, kind) per explicit dispatch edge, in record order.
    dispatches: Vec<(u64, u32, DispatchKind)>,
    /// (ts, replica) per admit/downgrade, in record order.
    admits: Vec<(u64, u32)>,
    /// (ts, replica, device_free_ts, batch) per batch join.
    joins: Vec<(u64, u32, u64, BatchRef)>,
    complete: Option<(u64, u32, f64)>,
    shed: Vec<u64>,
    lost: Vec<u64>,
    unavailable: Vec<u64>,
    hedged: bool,
    wasted_us: u64,
}

/// All requests reconstructed from one event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSet {
    /// Per-request traces, sorted by request id.
    pub requests: Vec<RequestTrace>,
    /// Event-level outcome tallies.
    pub counts: OutcomeCounts,
}

impl TraceSet {
    /// Rebuilds every request's lifecycle from `events`.
    ///
    /// Events must be in record order (as `TimelineRecorder::events` and
    /// [`crate::Tracer::events`] return them); record order doubles as
    /// the chronological tie-breaker for equal timestamps, so the stream
    /// is never re-sorted here.
    #[must_use]
    pub fn reconstruct(events: &[Event]) -> TraceSet {
        let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
        // Latest `serve.batch` end edge per replica, maintained in record
        // order: when a request joins a batch, this is the moment its
        // replica's device last went idle — the queue/batch-wait split.
        let mut device_free: BTreeMap<u32, u64> = BTreeMap::new();
        for event in events {
            let field = |key: &str| find_field(&event.fields, key);
            match event.kind {
                EventKind::SpanEnd if event.name == names::BATCH_SPAN => {
                    if let Some(replica) = field("replica").and_then(FieldValue::as_u64) {
                        device_free.insert(replica as u32, event.ts_micros);
                    }
                }
                EventKind::Instant => {
                    let name = event.name.as_str();
                    if !matches!(
                        name,
                        names::DISPATCH
                            | names::ADMIT
                            | names::DOWNGRADE
                            | names::BATCH_JOIN
                            | names::COMPLETE
                            | names::SHED
                            | names::LOST
                            | names::UNAVAILABLE
                            | names::HEDGE_LOSER
                    ) {
                        continue;
                    }
                    let Some(id) = field("request").and_then(FieldValue::as_u64) else {
                        continue;
                    };
                    let ts = event.ts_micros;
                    let replica = field("replica").and_then(FieldValue::as_u64).unwrap_or(0) as u32;
                    let free = device_free.get(&replica).copied().unwrap_or(0);
                    let entry = pending.entry(id).or_default();
                    entry.first_ts.get_or_insert(ts);
                    entry.last_ts = entry.last_ts.max(ts);
                    match name {
                        names::DISPATCH => {
                            let kind = field("kind")
                                .and_then(FieldValue::as_str)
                                .and_then(DispatchKind::parse)
                                .unwrap_or(DispatchKind::Primary);
                            entry.hedged |= kind == DispatchKind::Hedge;
                            entry.dispatches.push((ts, replica, kind));
                        }
                        names::ADMIT | names::DOWNGRADE => entry.admits.push((ts, replica)),
                        names::BATCH_JOIN => {
                            let batch = BatchRef {
                                replica,
                                seq: field("seq").and_then(FieldValue::as_u64).unwrap_or(0),
                                pos: field("pos").and_then(FieldValue::as_u64).unwrap_or(0) as u32,
                                size: field("size").and_then(FieldValue::as_u64).unwrap_or(0)
                                    as u32,
                                trigger: field("trigger")
                                    .and_then(FieldValue::as_str)
                                    .unwrap_or("?")
                                    .to_string(),
                            };
                            entry.joins.push((ts, replica, free, batch));
                        }
                        names::COMPLETE => {
                            let latency = field("latency_s")
                                .and_then(FieldValue::as_f64)
                                .unwrap_or(0.0);
                            // `fresh` dedup upstream guarantees at most
                            // one, but keep the first defensively.
                            entry.complete.get_or_insert((ts, replica, latency));
                        }
                        names::SHED => entry.shed.push(ts),
                        names::LOST => entry.lost.push(ts),
                        names::UNAVAILABLE => entry.unavailable.push(ts),
                        names::HEDGE_LOSER => {
                            let elapsed = field("elapsed_s")
                                .and_then(FieldValue::as_f64)
                                .unwrap_or(0.0);
                            entry.wasted_us += (elapsed.max(0.0) * 1e6).round() as u64;
                        }
                        _ => unreachable!("filtered above"),
                    }
                }
                _ => {}
            }
        }

        let mut counts = OutcomeCounts::default();
        let mut requests = Vec::with_capacity(pending.len());
        for (id, p) in pending {
            counts.served += usize::from(p.complete.is_some());
            counts.shed += p.shed.len();
            counts.lost += p.lost.len();
            counts.unavailable += p.unavailable.len();
            requests.push(finalize(id, p));
        }
        TraceSet { requests, counts }
    }

    /// Served requests only.
    pub fn served(&self) -> impl Iterator<Item = &RequestTrace> {
        self.requests
            .iter()
            .filter(|t| matches!(t.outcome, Outcome::Served { .. }))
    }

    /// Asserts the exact-conservation invariant: for every request the
    /// phase durations sum to precisely its end-to-end time.
    ///
    /// # Errors
    ///
    /// Describes the first request whose phases do not telescope.
    pub fn verify_conservation(&self) -> Result<(), String> {
        for t in &self.requests {
            let sum: u64 = t.phases.iter().sum();
            if sum != t.e2e_us() {
                return Err(format!(
                    "request {}: phases sum to {}µs but end-to-end is {}µs",
                    t.id,
                    sum,
                    t.e2e_us()
                ));
            }
        }
        Ok(())
    }

    /// Cross-checks reconstructed outcome tallies against the engine
    /// report's own accounting.
    ///
    /// # Errors
    ///
    /// Names the first category whose tally disagrees with the report.
    pub fn matches_report(
        &self,
        served: usize,
        shed: usize,
        lost: usize,
        unavailable: usize,
    ) -> Result<(), String> {
        let c = &self.counts;
        for (label, got, want) in [
            ("served", c.served, served),
            ("shed", c.shed, shed),
            ("lost", c.lost, lost),
            ("unavailable", c.unavailable, unavailable),
        ] {
            if got != want {
                return Err(format!(
                    "{label}: reconstructed {got} but the report says {want}"
                ));
            }
        }
        Ok(())
    }
}

/// Collapses one request's accumulated events into its trace. Cut points
/// are clamped into monotone order before differencing, so the phase sum
/// telescopes to `end - start` exactly no matter what the stream held.
fn finalize(id: u64, p: Pending) -> RequestTrace {
    let start = p.first_ts.unwrap_or(0);
    let dispatches = p.dispatches.len() as u32;
    let mut phases = [0u64; PHASE_COUNT];

    if let Some((done, winner, latency)) = p.complete {
        // Winning attempt: the last dispatch toward the serving replica
        // at or before completion. No explicit dispatch edge means the
        // instantaneous primary path.
        let (wd_raw, via) = p
            .dispatches
            .iter()
            .rev()
            .find(|(ts, r, _)| *r == winner && *ts <= done)
            .map(|(ts, _, k)| (*ts, *k))
            .unwrap_or((start, DispatchKind::Primary));
        let wd = wd_raw.clamp(start, done);
        let wa = p
            .admits
            .iter()
            .rev()
            .find(|(ts, r)| *r == winner && *ts <= done)
            .map(|(ts, _)| *ts)
            .unwrap_or(wd)
            .clamp(wd, done);
        let (wj_raw, free_raw, batch) = p
            .joins
            .iter()
            .rev()
            .find(|(ts, r, _, _)| *r == winner && *ts <= done)
            .map(|(ts, _, free, b)| (*ts, *free, Some(b.clone())))
            .unwrap_or((wa, wa, None));
        let wj = wj_raw.clamp(wa, done);
        let free = free_raw.clamp(wa, wj);
        match via {
            DispatchKind::Primary => {} // wd == start on the primary path
            DispatchKind::Retry => phases[Phase::RetryWait.index()] = wd - start,
            DispatchKind::Hedge => phases[Phase::HedgeWait.index()] = wd - start,
        }
        // A primary dispatch edge with routing delay still owns wd-start;
        // fold it into Admit so nothing is dropped.
        phases[Phase::Admit.index()] = (wa - wd) + if via == DispatchKind::Primary { wd - start } else { 0 };
        phases[Phase::Queue.index()] = free - wa;
        phases[Phase::BatchWait.index()] = wj - free;
        phases[Phase::Service.index()] = done - wj;
        return RequestTrace {
            id,
            outcome: Outcome::Served {
                replica: winner,
                via,
            },
            start_us: start,
            end_us: done,
            phases,
            dispatches,
            hedged: p.hedged,
            batch,
            wasted_us: p.wasted_us,
            reported_latency_s: latency,
        };
    }

    // Non-served terminals: attribute the whole interval to the edge that
    // ended it so the conservation sum still telescopes.
    let (outcome, end, slot) = if let Some(&ts) = p.lost.last() {
        (Outcome::Lost, ts, Phase::RetryWait)
    } else if let Some(&ts) = p.shed.last() {
        (Outcome::Shed, ts, Phase::Admit)
    } else if let Some(&ts) = p.unavailable.last() {
        (Outcome::Unavailable, ts, Phase::Admit)
    } else {
        // Defensive: a request with events but no terminal (should not
        // happen after drain) renders as lost at its last event.
        (Outcome::Lost, p.last_ts.max(start), Phase::RetryWait)
    };
    let end = end.max(start);
    phases[slot.index()] = end - start;
    RequestTrace {
        id,
        outcome,
        start_us: start,
        end_us: end,
        phases,
        dispatches,
        hedged: p.hedged,
        batch: None,
        wasted_us: p.wasted_us,
        reported_latency_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{self, FlushTrigger, SpanContext};
    use dl_obs::{fields, Recorder, TimelineRecorder};

    /// Hand-built stream: request 0 sails through (admit → join → done),
    /// request 1 is hedged after queueing and the hedge copy wins,
    /// request 2 is shed on arrival.
    fn synthetic_stream() -> Vec<Event> {
        let rec = TimelineRecorder::new();
        let r = |n: u64| n; // request ids
        // t=0: both requests admitted on replica 0.
        rec.instant(0, names::ADMIT, fields! { "request" => r(0), "replica" => 0usize });
        rec.instant(0, names::ADMIT, fields! { "request" => r(1), "replica" => 0usize });
        // t=10µs: replica 0 flushes a batch holding only request 0.
        rec.clock().advance(10e-6);
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        context::emit_batch_join(&rec, 0, 0, 0, 0, 0, 1, FlushTrigger::Aged);
        // t=40µs: batch done; request 0 completes.
        rec.clock().advance(30e-6);
        rec.span_end(span, fields! { "replica" => 0usize });
        rec.instant(
            0,
            names::COMPLETE,
            fields! { "request" => r(0), "replica" => 0usize, "latency_s" => 40e-6 },
        );
        // t=50µs: request 1 hedged to replica 1 (attempt 1).
        rec.clock().advance(10e-6);
        context::emit_dispatch(&rec, 4, SpanContext::new(1).retry(), 1, DispatchKind::Hedge);
        rec.instant(4, names::ADMIT, fields! { "request" => r(1), "replica" => 1usize });
        // t=60µs: replica 1 batches it immediately.
        rec.clock().advance(10e-6);
        let span = rec.span_start(4, names::BATCH_SPAN, fields! { "replica" => 1usize });
        context::emit_batch_join(&rec, 4, 1, 1, 0, 0, 1, FlushTrigger::Full);
        // t=90µs: hedge copy wins.
        rec.clock().advance(30e-6);
        rec.span_end(span, fields! { "replica" => 1usize });
        rec.instant(
            4,
            names::COMPLETE,
            fields! { "request" => r(1), "replica" => 1usize, "latency_s" => 90e-6 },
        );
        // t=100µs: the straggling original finally finishes and loses.
        rec.clock().advance(10e-6);
        context::emit_hedge_loser(&rec, 0, 1, 0, 100e-6);
        // Request 2 arrives late and is shed instantly.
        rec.instant(0, names::SHED, fields! { "request" => r(2), "replica" => 0usize });
        rec.events()
    }

    #[test]
    fn reconstruction_recovers_phases_and_outcomes() {
        let set = TraceSet::reconstruct(&synthetic_stream());
        assert_eq!(set.requests.len(), 3);
        assert_eq!(
            set.counts,
            OutcomeCounts {
                served: 2,
                shed: 1,
                lost: 0,
                unavailable: 0
            }
        );
        set.verify_conservation().unwrap();
        set.matches_report(2, 1, 0, 0).unwrap();

        let t0 = &set.requests[0];
        assert_eq!(
            t0.outcome,
            Outcome::Served {
                replica: 0,
                via: DispatchKind::Primary
            }
        );
        assert_eq!(t0.e2e_us(), 40);
        // No prior batch on replica 0 → the wait before the flush is all
        // batch-wait (device was free the whole time).
        assert_eq!(t0.phase_us(Phase::Queue), 0);
        assert_eq!(t0.phase_us(Phase::BatchWait), 10);
        assert_eq!(t0.phase_us(Phase::Service), 30);
        assert_eq!(t0.batch.as_ref().unwrap().trigger, "aged");

        let t1 = &set.requests[1];
        assert_eq!(
            t1.outcome,
            Outcome::Served {
                replica: 1,
                via: DispatchKind::Hedge
            }
        );
        assert!(t1.hedged);
        assert_eq!(t1.e2e_us(), 90);
        assert_eq!(t1.phase_us(Phase::HedgeWait), 50);
        assert_eq!(t1.phase_us(Phase::BatchWait), 10);
        assert_eq!(t1.phase_us(Phase::Service), 30);
        assert_eq!(t1.wasted_us, 100);

        let t2 = &set.requests[2];
        assert_eq!(t2.outcome, Outcome::Shed);
        assert_eq!(t2.e2e_us(), 0);
    }

    #[test]
    fn queue_time_comes_from_the_previous_batch_end() {
        let rec = TimelineRecorder::new();
        // Request 0 occupies the device; request 1 arrives mid-batch and
        // must first queue behind it, then waits out the batch delay.
        rec.instant(0, names::ADMIT, fields! { "request" => 0u64, "replica" => 0usize });
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        context::emit_batch_join(&rec, 0, 0, 0, 0, 0, 1, FlushTrigger::Full);
        rec.clock().advance(20e-6);
        rec.instant(0, names::ADMIT, fields! { "request" => 1u64, "replica" => 0usize });
        rec.clock().advance(30e-6); // device busy until t=50µs
        rec.span_end(span, fields! { "replica" => 0usize });
        rec.instant(
            0,
            names::COMPLETE,
            fields! { "request" => 0u64, "replica" => 0usize, "latency_s" => 50e-6 },
        );
        rec.clock().advance(15e-6); // batcher holds 15µs more
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        context::emit_batch_join(&rec, 0, 1, 0, 1, 0, 1, FlushTrigger::Aged);
        rec.clock().advance(25e-6);
        rec.span_end(span, fields! { "replica" => 0usize });
        rec.instant(
            0,
            names::COMPLETE,
            fields! { "request" => 1u64, "replica" => 0usize, "latency_s" => 70e-6 },
        );

        let set = TraceSet::reconstruct(&rec.events());
        set.verify_conservation().unwrap();
        let t1 = &set.requests[1];
        assert_eq!(t1.e2e_us(), 70);
        assert_eq!(t1.phase_us(Phase::Queue), 30); // behind batch 0
        assert_eq!(t1.phase_us(Phase::BatchWait), 15); // batcher delay
        assert_eq!(t1.phase_us(Phase::Service), 25);
    }

    #[test]
    fn lost_requests_conserve_too() {
        let rec = TimelineRecorder::new();
        context::emit_dispatch(&rec, 0, SpanContext::new(3), 0, DispatchKind::Primary);
        rec.instant(0, names::ADMIT, fields! { "request" => 3u64, "replica" => 0usize });
        rec.clock().advance(42e-6);
        context::emit_lost(&rec, 0, SpanContext::new(3).retry());
        let set = TraceSet::reconstruct(&rec.events());
        assert_eq!(set.counts.lost, 1);
        set.verify_conservation().unwrap();
        let t = &set.requests[0];
        assert_eq!(t.outcome, Outcome::Lost);
        assert_eq!(t.e2e_us(), 42);
        assert_eq!(t.phase_us(Phase::RetryWait), 42);
    }
}
