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

use dl_obs::Event;

use crate::context::{DispatchKind, FlushTrigger, ServeEvent};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRef {
    /// Replica that formed the batch.
    pub replica: u32,
    /// Per-replica batch sequence number.
    pub seq: u64,
    /// Position inside the batch (0-based).
    pub pos: u32,
    /// Batch size.
    pub size: u32,
    /// Why the batch flushed.
    pub trigger: FlushTrigger,
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

/// The `join_free` index of a record that is not a batch join.
const NOT_A_JOIN: u32 = u32::MAX;

/// One lifecycle record tagged with its request, ready to be grouped.
struct Keyed {
    request: u64,
    ts: u64,
    /// For a batch join: when the joining replica's device last went
    /// idle, as of the join (0 before its first batch ended).
    free: u64,
    event: ServeEvent,
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
    /// Rebuilds every request's lifecycle from `events`: decodes each
    /// with [`ServeEvent::decode`] into the [`crate::Tracer`]'s compact
    /// `(ts_micros, event)` record form, then rebuilds from the records.
    ///
    /// Events must be in record order (as `TimelineRecorder::events`
    /// returns them); record order doubles as the chronological
    /// tie-breaker for equal timestamps, so the stream is never re-sorted
    /// by time.
    #[must_use]
    pub fn reconstruct(events: &[Event]) -> TraceSet {
        let records: Vec<(u64, ServeEvent)> = events
            .iter()
            .filter_map(|e| Some((e.ts_micros, ServeEvent::decode(e)?)))
            .collect();
        TraceSet::from_blocks(&[records])
    }

    /// Rebuilds every request's lifecycle from decoded `(ts_micros,
    /// event)` records in record order, stored as consecutive blocks,
    /// every block but the last holding the same number of records.
    ///
    /// One pass in record order tags each lifecycle record with its
    /// request and record index (and each batch join with the moment its
    /// replica's device last went idle); a stable radix sort of those
    /// compact keys by request lines every request's records up in record
    /// order, and one linear pass over the groups finishes each trace
    /// without allocating per request.
    pub(crate) fn from_blocks<B: AsRef<[(u64, ServeEvent)]>>(blocks: &[B]) -> TraceSet {
        let len: usize = blocks.iter().map(|b| b.as_ref().len()).sum();
        assert!(
            u32::try_from(len).is_ok(),
            "more trace records than a u32 index can address"
        );
        let per_block = blocks.first().map_or(1, |b| b.as_ref().len().max(1));
        let record = |i: u32| blocks[i as usize / per_block].as_ref()[i as usize % per_block];
        let records = blocks.iter().flat_map(AsRef::as_ref);
        // Latest `serve.batch` end edge per replica, maintained in record
        // order: when a request joins a batch, this is the moment its
        // replica's device last went idle — the queue/batch-wait split.
        let mut device_free: BTreeMap<u32, u64> = BTreeMap::new();
        // That moment for each batch join, in record order.
        let mut join_free: Vec<u64> = Vec::new();
        // (request, record index, `join_free` index) per lifecycle record,
        // pushed in record order.
        let mut order: Vec<(u64, u32, u32)> = Vec::with_capacity(len);
        for (i, &(ts, event)) in (0u32..).zip(records) {
            if let ServeEvent::BatchEnd { replica } = event {
                device_free.insert(replica, ts);
            }
            let Some(request) = event.request() else {
                continue;
            };
            let join = match event {
                ServeEvent::BatchJoin { replica, .. } => {
                    join_free.push(device_free.get(&replica).copied().unwrap_or(0));
                    (join_free.len() - 1) as u32
                }
                _ => NOT_A_JOIN,
            };
            order.push((request, i, join));
        }
        sort_by_request(&mut order);

        let keyed = |&(request, i, join): &(u64, u32, u32)| {
            let (ts, event) = record(i);
            Keyed {
                request,
                ts,
                free: join_free.get(join as usize).copied().unwrap_or(0),
                event,
            }
        };
        let mut counts = OutcomeCounts::default();
        let mut requests = Vec::with_capacity(order.len());
        requests.extend(
            order
                .chunk_by(|a, b| a.0 == b.0)
                .map(|group| finalize(group.iter().map(keyed), &mut counts)),
        );
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

/// Stable LSD radix sort of `keys` by request id, one byte per pass over
/// the bytes the largest id uses; a pass over a byte that every key
/// shares is skipped. The request generators mint dense ids `0..n`, so a
/// run takes two or three linear passes where a comparison sort of the
/// same keys measured about twice as slow.
fn sort_by_request(keys: &mut Vec<(u64, u32, u32)>) {
    let max = keys.iter().map(|k| k.0).max().unwrap_or(0);
    let mut out = Vec::new();
    for shift in (0..64).step_by(8).take_while(|&s| s == 0 || max >> s > 0) {
        let digit = |k: &(u64, u32, u32)| (k.0 >> shift) as usize & 0xff;
        let mut start = [0usize; 256];
        for k in keys.iter() {
            start[digit(k)] += 1;
        }
        if start.contains(&keys.len()) {
            continue;
        }
        let mut total = 0;
        for slot in &mut start {
            (*slot, total) = (total, total + *slot);
        }
        out.resize(keys.len(), (0, 0, 0));
        for k in keys.iter() {
            let slot = &mut start[digit(k)];
            out[*slot] = *k;
            *slot += 1;
        }
        std::mem::swap(keys, &mut out);
    }
}

/// Collapses one request's records (in record order) into its trace and
/// adds its outcomes to `counts`. Cut points are clamped into monotone
/// order before differencing, so the phase sum telescopes to
/// `end - start` exactly no matter what the stream held.
fn finalize(
    group: impl DoubleEndedIterator<Item = Keyed> + Clone,
    counts: &mut OutcomeCounts,
) -> RequestTrace {
    let first = group.clone().next().expect("groups are non-empty");
    let (id, start) = (first.request, first.ts);
    let mut last_ts = 0;
    let mut dispatches = 0u32;
    let mut hedged = false;
    let mut wasted_us = 0u64;
    // `fresh` dedup upstream guarantees at most one completion, but keep
    // the first defensively.
    let mut complete: Option<(u64, u32, f64)> = None;
    let (mut shed, mut lost, mut unavailable) = (None, None, None);
    for k in group.clone() {
        last_ts = last_ts.max(k.ts);
        match k.event {
            ServeEvent::Dispatch { kind, .. } => {
                dispatches += 1;
                hedged |= kind == DispatchKind::Hedge;
            }
            ServeEvent::Complete {
                replica, latency_s, ..
            } => {
                complete.get_or_insert((k.ts, replica, latency_s));
            }
            ServeEvent::Shed { .. } => {
                counts.shed += 1;
                shed = Some(k.ts);
            }
            ServeEvent::Lost { .. } => {
                counts.lost += 1;
                lost = Some(k.ts);
            }
            ServeEvent::Unavailable { .. } => {
                counts.unavailable += 1;
                unavailable = Some(k.ts);
            }
            ServeEvent::HedgeLoser { elapsed_s, .. } => {
                wasted_us += (elapsed_s.max(0.0) * 1e6).round() as u64;
            }
            _ => {}
        }
    }
    let mut phases = [0u64; PHASE_COUNT];

    if let Some((done, winner, latency)) = complete {
        counts.served += 1;
        // The winning copy's latest edges toward the serving replica at or
        // before completion.
        let winning = || group.clone().rev().filter(move |k| k.ts <= done);
        // Winning attempt: the last dispatch toward the serving replica.
        // No explicit dispatch edge means the instantaneous primary path.
        let (wd_raw, via) = winning()
            .find_map(|k| match k.event {
                ServeEvent::Dispatch { replica, kind, .. } if replica == winner => {
                    Some((k.ts, kind))
                }
                _ => None,
            })
            .unwrap_or((start, DispatchKind::Primary));
        let wd = wd_raw.clamp(start, done);
        let wa = winning()
            .find_map(|k| match k.event {
                ServeEvent::Admit { replica, .. } | ServeEvent::Downgrade { replica, .. }
                    if replica == winner =>
                {
                    Some(k.ts)
                }
                _ => None,
            })
            .unwrap_or(wd)
            .clamp(wd, done);
        let (wj_raw, free_raw, batch) = winning()
            .find_map(|k| match k.event {
                ServeEvent::BatchJoin {
                    replica,
                    seq,
                    pos,
                    size,
                    trigger,
                    ..
                } if replica == winner => Some((
                    k.ts,
                    k.free,
                    Some(BatchRef {
                        replica,
                        seq,
                        pos,
                        size,
                        trigger,
                    }),
                )),
                _ => None,
            })
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
        phases[Phase::Admit.index()] = (wa - wd)
            + if via == DispatchKind::Primary {
                wd - start
            } else {
                0
            };
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
            hedged,
            batch,
            wasted_us,
            reported_latency_s: latency,
        };
    }

    // Non-served terminals: attribute the whole interval to the edge that
    // ended it so the conservation sum still telescopes.
    let (outcome, end, slot) = if let Some(ts) = lost {
        (Outcome::Lost, ts, Phase::RetryWait)
    } else if let Some(ts) = shed {
        (Outcome::Shed, ts, Phase::Admit)
    } else if let Some(ts) = unavailable {
        (Outcome::Unavailable, ts, Phase::Admit)
    } else {
        // Defensive: a request with events but no terminal (should not
        // happen after drain) renders as lost at its last event.
        (Outcome::Lost, last_ts.max(start), Phase::RetryWait)
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
        hedged,
        batch: None,
        wasted_us,
        reported_latency_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::names;
    use dl_obs::{fields, Recorder, TimelineRecorder};

    /// `request` as the only member of batch `seq` on `replica`.
    fn join(request: u64, replica: u32, seq: u64, trigger: FlushTrigger) -> ServeEvent {
        ServeEvent::BatchJoin {
            request,
            replica,
            seq,
            pos: 0,
            size: 1,
            trigger,
        }
    }

    /// Hand-built stream: request 0 sails through (admit → join → done),
    /// request 1 is hedged after queueing and the hedge copy wins,
    /// request 2 is shed on arrival.
    fn synthetic_stream() -> Vec<Event> {
        let rec = TimelineRecorder::new();
        let r = |n: u64| n; // request ids
                            // t=0: both requests admitted on replica 0.
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => r(0), "replica" => 0usize },
        );
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => r(1), "replica" => 0usize },
        );
        // t=10µs: replica 0 flushes a batch holding only request 0.
        rec.clock().advance(10e-6);
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        rec.typed_instant(0, &join(0, 0, 0, FlushTrigger::Aged));
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
        rec.typed_instant(
            4,
            &ServeEvent::Dispatch {
                request: 1,
                replica: 1,
                attempt: 1,
                kind: DispatchKind::Hedge,
            },
        );
        rec.instant(
            4,
            names::ADMIT,
            fields! { "request" => r(1), "replica" => 1usize },
        );
        // t=60µs: replica 1 batches it immediately.
        rec.clock().advance(10e-6);
        let span = rec.span_start(4, names::BATCH_SPAN, fields! { "replica" => 1usize });
        rec.typed_instant(4, &join(1, 1, 0, FlushTrigger::Full));
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
        rec.typed_instant(
            0,
            &ServeEvent::HedgeLoser {
                request: 1,
                replica: 0,
                elapsed_s: 100e-6,
            },
        );
        // Request 2 arrives late and is shed instantly.
        rec.instant(
            0,
            names::SHED,
            fields! { "request" => r(2), "replica" => 0usize },
        );
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
        assert_eq!(t0.batch.unwrap().trigger, FlushTrigger::Aged);

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
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => 0u64, "replica" => 0usize },
        );
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        rec.typed_instant(0, &join(0, 0, 0, FlushTrigger::Full));
        rec.clock().advance(20e-6);
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => 1u64, "replica" => 0usize },
        );
        rec.clock().advance(30e-6); // device busy until t=50µs
        rec.span_end(span, fields! { "replica" => 0usize });
        rec.instant(
            0,
            names::COMPLETE,
            fields! { "request" => 0u64, "replica" => 0usize, "latency_s" => 50e-6 },
        );
        rec.clock().advance(15e-6); // batcher holds 15µs more
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => 0usize });
        rec.typed_instant(0, &join(1, 0, 1, FlushTrigger::Aged));
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
        rec.typed_instant(
            0,
            &ServeEvent::Dispatch {
                request: 3,
                replica: 0,
                attempt: 0,
                kind: DispatchKind::Primary,
            },
        );
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => 3u64, "replica" => 0usize },
        );
        rec.clock().advance(42e-6);
        rec.typed_instant(
            0,
            &ServeEvent::Lost {
                request: 3,
                attempt: 1,
            },
        );
        let set = TraceSet::reconstruct(&rec.events());
        assert_eq!(set.counts.lost, 1);
        set.verify_conservation().unwrap();
        let t = &set.requests[0];
        assert_eq!(t.outcome, Outcome::Lost);
        assert_eq!(t.e2e_us(), 42);
        assert_eq!(t.phase_us(Phase::RetryWait), 42);
    }

    #[test]
    fn radix_sort_orders_by_request_and_keeps_record_order() {
        // Ids spanning several bytes (with gaps and a byte every key
        // shares), each repeated, pushed in record order.
        let ids: [u64; 9] = [0x1_0000_0100, 7, 0x100, 7, 0xff, 0x1_0000_0100, 0x100, 0, 7];
        let mut keys: Vec<_> = (0u32..).zip(ids).map(|(i, id)| (id, i, 0)).collect();
        let mut want = keys.clone();
        want.sort_by_key(|k| k.0); // std's stable sort as the oracle
        sort_by_request(&mut keys);
        assert_eq!(keys, want);
        let mut empty = Vec::new();
        sort_by_request(&mut empty);
        assert!(empty.is_empty());
    }
}
