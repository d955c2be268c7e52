//! Request identity, span context, and the trace event schema the
//! serving stack emits through.
//!
//! `dl_serve` carries a [`SpanContext`] per request across dispatches and
//! calls the `emit_*` helpers at each causal edge — dispatch decisions,
//! batch membership, hedge dedup losses, terminal losses. Every helper is
//! gated on [`Recorder::enabled`], so the `NullRecorder` path does no
//! field construction and stays bit-identical. The instants land in the
//! ordinary event stream, where [`crate::TraceSet::reconstruct`] (or a
//! live [`crate::Tracer`] tap) rebuilds per-request waterfalls.
//!
//! [`ServeEvent::decode`] is the one reader of that schema: the tracer
//! and `dl_monitor::Monitor` both see serve events only through it.

use dl_obs::{fields, find_field, Event, EventKind, FieldValue, Recorder};

/// Stable identity of one serving request — the request generators mint
/// dense ids, and every structured sample carries it in a `"request"`
/// field, which is what lets the analysis side stitch a request's
/// lifecycle back together across replicas, retries, and hedges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Why a router dispatch happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DispatchKind {
    /// First routing of a fresh arrival.
    Primary,
    /// Re-route after crash loss (bounded by the retry policy).
    Retry,
    /// Hedged duplicate racing a straggling first copy.
    Hedge,
}

impl DispatchKind {
    /// Stable lowercase label carried in the `"kind"` field.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DispatchKind::Primary => "primary",
            DispatchKind::Retry => "retry",
            DispatchKind::Hedge => "hedge",
        }
    }

    /// Inverse of [`DispatchKind::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "primary" => Some(DispatchKind::Primary),
            "retry" => Some(DispatchKind::Retry),
            "hedge" => Some(DispatchKind::Hedge),
            _ => None,
        }
    }
}

/// The causal context one request carries through the serving stack: its
/// identity plus how many times it has been re-dispatched. The cluster
/// driver keeps one per in-flight request and stamps both onto every
/// dispatch edge it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The request this context belongs to.
    pub request: RequestId,
    /// Re-dispatch count (0 on the primary attempt).
    pub attempt: u32,
}

impl SpanContext {
    /// Context for a fresh arrival (attempt 0).
    #[must_use]
    pub fn new(request: u64) -> Self {
        SpanContext {
            request: RequestId(request),
            attempt: 0,
        }
    }

    /// The context after one more re-dispatch.
    #[must_use]
    pub fn retry(self) -> Self {
        SpanContext {
            request: self.request,
            attempt: self.attempt + 1,
        }
    }
}

/// What made a batch flush when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The queue reached `max_batch`.
    Full,
    /// The head request aged past `max_delay_s`.
    Aged,
    /// End-of-run drain (no future arrivals can top the batch up).
    Drain,
}

impl FlushTrigger {
    /// Stable lowercase label carried in the `"trigger"` field.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlushTrigger::Full => "full",
            FlushTrigger::Aged => "aged",
            FlushTrigger::Drain => "drain",
        }
    }

    /// Inverse of [`FlushTrigger::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(FlushTrigger::Full),
            "aged" => Some(FlushTrigger::Aged),
            "drain" => Some(FlushTrigger::Drain),
            _ => None,
        }
    }
}

/// Event names of the per-request trace schema. The serving engine emits
/// some of these directly (`serve.admit`, `serve.complete`, …); the
/// `emit_*` helpers below cover the causal edges added by the tracing
/// layer. Reconstruction taps exactly this set.
pub mod names {
    /// Router dispatch decision (`request`, `replica`, `attempt`, `kind`).
    pub const DISPATCH: &str = "serve.dispatch";
    /// Batch membership at flush (`request`, `replica`, `seq`, `pos`,
    /// `size`, `trigger`).
    pub const BATCH_JOIN: &str = "serve.batch_join";
    /// A completed copy discarded by hedge dedup (`request`, `replica`,
    /// `elapsed_s`).
    pub const HEDGE_LOSER: &str = "hedge.loser";
    /// Terminal crash loss after retries ran out (`request`, `attempt`).
    pub const LOST: &str = "serve.lost";
    /// Arrival that found no routable replica (`request`).
    pub const UNAVAILABLE: &str = "serve.unavailable";
    /// Admission accept (emitted by the engine).
    pub const ADMIT: &str = "serve.admit";
    /// Admission downgrade (emitted by the engine).
    pub const DOWNGRADE: &str = "serve.downgrade";
    /// Admission shed (emitted by the engine).
    pub const SHED: &str = "serve.shed";
    /// First-completion delivery (emitted by the engine).
    pub const COMPLETE: &str = "serve.complete";
    /// The per-batch device span (emitted by the engine; its end edges
    /// mark when a replica's device went idle).
    pub const BATCH_SPAN: &str = "serve.batch";
    /// Replica crash-stop (emitted by the cluster loop; `replica`).
    pub const CRASH: &str = "cluster.crash";
    /// Replica back in rotation after a crash (`replica`).
    pub const REJOIN: &str = "cluster.rejoin";
    /// The latency histogram whose buckets carry request-id exemplars.
    pub const LATENCY_HISTOGRAM: &str = "serve.latency_s";
}

/// One event of the serve schema, decoded from its fields.
///
/// Request-lifecycle variants need a `request` field; numeric fields
/// the stream omits read as 0 (optional ones as `None`), an unknown
/// dispatch `kind` reads as primary, and an unknown batch `trigger`
/// puts the event outside the schema. `serve.downgrade`'s variant names
/// are not decoded: no tap reads them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeEvent {
    /// `serve.dispatch`: a router decision.
    Dispatch {
        /// Request id.
        request: u64,
        /// Target replica.
        replica: u32,
        /// Re-dispatch count.
        attempt: u32,
        /// Primary / retry / hedge.
        kind: DispatchKind,
    },
    /// `serve.admit`: admission accepted the request as asked.
    Admit {
        /// Request id.
        request: u64,
        /// Admitting replica.
        replica: u32,
        /// The replica's queued + in-flight load after the admit.
        queue: Option<f64>,
    },
    /// `serve.downgrade`: admitted onto a cheaper variant.
    Downgrade {
        /// Request id.
        request: u64,
        /// Admitting replica.
        replica: u32,
        /// The replica's queued + in-flight load after the admit.
        queue: Option<f64>,
    },
    /// `serve.shed`: rejected by admission control.
    Shed {
        /// Request id.
        request: u64,
        /// Shedding replica.
        replica: u32,
    },
    /// `serve.batch_join`: batch membership at flush.
    BatchJoin {
        /// Request id.
        request: u64,
        /// Replica that formed the batch.
        replica: u32,
        /// Per-replica batch sequence number.
        seq: u64,
        /// Position inside the batch.
        pos: u32,
        /// Batch size.
        size: u32,
        /// Why the batch flushed.
        trigger: FlushTrigger,
    },
    /// `serve.complete`: first-completion delivery.
    Complete {
        /// Request id.
        request: u64,
        /// Serving replica.
        replica: u32,
        /// Simulated end-to-end latency in seconds.
        latency_s: f64,
        /// Dataset row served.
        sample: Option<u64>,
        /// Predicted class.
        pred: Option<u64>,
    },
    /// `hedge.loser`: a finished copy discarded by hedge dedup.
    HedgeLoser {
        /// Request id.
        request: u64,
        /// Replica that ran the losing copy.
        replica: u32,
        /// Seconds of wasted duplicate work.
        elapsed_s: f64,
    },
    /// `serve.lost`: terminal crash loss.
    Lost {
        /// Request id.
        request: u64,
        /// Attempts made.
        attempt: u32,
    },
    /// `serve.unavailable`: no routable replica at arrival.
    Unavailable {
        /// Request id.
        request: u64,
    },
    /// `cluster.crash`: a replica crash-stopped.
    Crash {
        /// The crashed replica.
        replica: u32,
    },
    /// `cluster.rejoin`: a crashed replica is back.
    Rejoin {
        /// The rejoining replica.
        replica: u32,
    },
    /// End edge of a `serve.batch` span: the replica's device went idle.
    BatchEnd {
        /// Replica whose batch ended (required).
        replica: u32,
    },
}

impl ServeEvent {
    /// Decodes `event`, or `None` when it is not part of the serve
    /// schema (another name, a counter, a `serve.batch` start edge, or a
    /// lifecycle instant without a `request`).
    #[must_use]
    pub fn decode(event: &Event) -> Option<ServeEvent> {
        let int = |v: Option<&FieldValue>| v.and_then(FieldValue::as_u64);
        let float = |v: Option<&FieldValue>| v.and_then(FieldValue::as_f64);
        fn text(v: Option<&FieldValue>) -> Option<&str> {
            v.and_then(FieldValue::as_str)
        }
        let id = |v: Option<&FieldValue>| int(v).unwrap_or(0) as u32;
        match event.kind {
            EventKind::SpanEnd if event.name == names::BATCH_SPAN => {
                let [_, replica] = values(event, ["batch", "replica"]);
                Some(ServeEvent::BatchEnd {
                    replica: int(replica)? as u32,
                })
            }
            // Arms in order of frequency in a served stream.
            EventKind::Instant => Some(match event.name {
                names::ADMIT => {
                    let [request, replica, queue] = values(event, ["request", "replica", "queue"]);
                    ServeEvent::Admit {
                        request: int(request)?,
                        replica: id(replica),
                        queue: float(queue),
                    }
                }
                names::COMPLETE => {
                    let [request, replica, latency_s, sample, pred] =
                        values(event, ["request", "replica", "latency_s", "sample", "pred"]);
                    ServeEvent::Complete {
                        request: int(request)?,
                        replica: id(replica),
                        latency_s: float(latency_s).unwrap_or(0.0),
                        sample: int(sample),
                        pred: int(pred),
                    }
                }
                names::BATCH_JOIN => {
                    let [request, replica, seq, pos, size, trigger] = values(
                        event,
                        ["request", "replica", "seq", "pos", "size", "trigger"],
                    );
                    ServeEvent::BatchJoin {
                        request: int(request)?,
                        replica: id(replica),
                        seq: int(seq).unwrap_or(0),
                        pos: id(pos),
                        size: id(size),
                        trigger: FlushTrigger::parse(text(trigger)?)?,
                    }
                }
                names::DISPATCH => {
                    let [request, replica, attempt, kind] =
                        values(event, ["request", "replica", "attempt", "kind"]);
                    ServeEvent::Dispatch {
                        request: int(request)?,
                        replica: id(replica),
                        attempt: id(attempt),
                        kind: text(kind)
                            .and_then(DispatchKind::parse)
                            .unwrap_or(DispatchKind::Primary),
                    }
                }
                names::DOWNGRADE => {
                    let [request, replica, queue] = values(event, ["request", "replica", "queue"]);
                    ServeEvent::Downgrade {
                        request: int(request)?,
                        replica: id(replica),
                        queue: float(queue),
                    }
                }
                names::SHED => {
                    let [request, replica] = values(event, ["request", "replica"]);
                    ServeEvent::Shed {
                        request: int(request)?,
                        replica: id(replica),
                    }
                }
                names::HEDGE_LOSER => {
                    let [request, replica, elapsed_s] =
                        values(event, ["request", "replica", "elapsed_s"]);
                    ServeEvent::HedgeLoser {
                        request: int(request)?,
                        replica: id(replica),
                        elapsed_s: float(elapsed_s).unwrap_or(0.0),
                    }
                }
                names::LOST => {
                    let [request, attempt] = values(event, ["request", "attempt"]);
                    ServeEvent::Lost {
                        request: int(request)?,
                        attempt: id(attempt),
                    }
                }
                names::UNAVAILABLE => {
                    let [request] = values(event, ["request"]);
                    ServeEvent::Unavailable {
                        request: int(request)?,
                    }
                }
                names::CRASH => ServeEvent::Crash {
                    replica: id(values(event, ["replica"])[0]),
                },
                names::REJOIN => ServeEvent::Rejoin {
                    replica: id(values(event, ["replica"])[0]),
                },
                _ => return None,
            }),
            _ => None,
        }
    }

    /// The request this event belongs to, for lifecycle events.
    #[must_use]
    pub fn request(&self) -> Option<u64> {
        match *self {
            ServeEvent::Dispatch { request, .. }
            | ServeEvent::Admit { request, .. }
            | ServeEvent::Downgrade { request, .. }
            | ServeEvent::Shed { request, .. }
            | ServeEvent::BatchJoin { request, .. }
            | ServeEvent::Complete { request, .. }
            | ServeEvent::HedgeLoser { request, .. }
            | ServeEvent::Lost { request, .. }
            | ServeEvent::Unavailable { request } => Some(request),
            ServeEvent::Crash { .. } | ServeEvent::Rejoin { .. } | ServeEvent::BatchEnd { .. } => {
                None
            }
        }
    }
}

/// The first value under each of `keys` in `event`'s fields. The
/// emitters write a schema event's keys first and in schema order, so
/// that layout is confirmed with one comparison per key and read by
/// position (the keys are distinct, so each position holds its key's
/// first occurrence); any other layout falls back to [`find_field`].
#[inline(always)]
fn values<'e, const N: usize>(event: &'e Event, keys: [&str; N]) -> [Option<&'e FieldValue>; N] {
    let fields = &event.fields;
    if fields.len() >= N && keys.iter().zip(fields).all(|(key, (k, _))| k == key) {
        std::array::from_fn(|i| Some(&fields[i].1))
    } else {
        keys.map(|key| find_field(fields, key))
    }
}

/// Emits a router dispatch edge for `ctx` toward `replica`.
pub fn emit_dispatch(
    rec: &dyn Recorder,
    track: u32,
    ctx: SpanContext,
    replica: usize,
    kind: DispatchKind,
) {
    if !rec.enabled() {
        return;
    }
    rec.instant(
        track,
        names::DISPATCH,
        fields! {
            "request" => ctx.request.0,
            "replica" => replica,
            "attempt" => ctx.attempt,
            "kind" => kind.label(),
        },
    );
}

/// Emits one request's batch membership at flush time: which batch
/// (`replica` + per-replica `seq`), where in it (`pos` of `size`), and
/// why it flushed now (`trigger`).
#[allow(clippy::too_many_arguments)]
pub fn emit_batch_join(
    rec: &dyn Recorder,
    track: u32,
    request: u64,
    replica: u32,
    seq: u64,
    pos: usize,
    size: usize,
    trigger: FlushTrigger,
) {
    if !rec.enabled() {
        return;
    }
    rec.instant(
        track,
        names::BATCH_JOIN,
        fields! {
            "request" => request,
            "replica" => replica,
            "seq" => seq,
            "pos" => pos,
            "size" => size,
            "trigger" => trigger.label(),
        },
    );
}

/// Emits the losing copy of a hedge race: it finished service but another
/// replica had already answered, so `elapsed_s` of work was wasted.
pub fn emit_hedge_loser(rec: &dyn Recorder, track: u32, request: u64, replica: u32, elapsed_s: f64) {
    if !rec.enabled() {
        return;
    }
    rec.instant(
        track,
        names::HEDGE_LOSER,
        fields! {
            "request" => request,
            "replica" => replica,
            "elapsed_s" => elapsed_s,
        },
    );
}

/// Emits a terminal crash loss for `ctx` (retries exhausted or nowhere to
/// re-route).
pub fn emit_lost(rec: &dyn Recorder, track: u32, ctx: SpanContext) {
    if !rec.enabled() {
        return;
    }
    rec.instant(
        track,
        names::LOST,
        fields! {
            "request" => ctx.request.0,
            "attempt" => ctx.attempt,
        },
    );
}

/// Emits an arrival that found no routable replica.
pub fn emit_unavailable(rec: &dyn Recorder, track: u32, request: u64) {
    if !rec.enabled() {
        return;
    }
    rec.instant(track, names::UNAVAILABLE, fields! { "request" => request });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::{NullRecorder, TimelineRecorder};

    #[test]
    fn labels_round_trip() {
        for kind in [DispatchKind::Primary, DispatchKind::Retry, DispatchKind::Hedge] {
            assert_eq!(DispatchKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(DispatchKind::parse("bogus"), None);
        for trigger in [FlushTrigger::Full, FlushTrigger::Aged, FlushTrigger::Drain] {
            assert_eq!(FlushTrigger::parse(trigger.label()), Some(trigger));
        }
        assert_eq!(FlushTrigger::parse("later"), None);
        assert_eq!(FlushTrigger::Full.label(), "full");
        assert_eq!(format!("{}", RequestId(7)), "req-7");
    }

    #[test]
    fn span_context_counts_attempts() {
        let ctx = SpanContext::new(42);
        assert_eq!(ctx.attempt, 0);
        assert_eq!(ctx.retry().retry().attempt, 2);
        assert_eq!(ctx.retry().request, RequestId(42));
    }

    #[test]
    fn emits_are_gated_on_enabled() {
        let null = NullRecorder::new();
        emit_dispatch(&null, 0, SpanContext::new(1), 2, DispatchKind::Hedge);
        emit_hedge_loser(&null, 0, 1, 2, 0.5);
        let rec = TimelineRecorder::new();
        emit_dispatch(&rec, 3, SpanContext::new(1).retry(), 2, DispatchKind::Retry);
        emit_batch_join(&rec, 3, 1, 1, 9, 2, 8, FlushTrigger::Aged);
        emit_lost(&rec, 3, SpanContext::new(1).retry());
        emit_unavailable(&rec, 0, 5);
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, names::DISPATCH);
        assert_eq!(events[1].name, names::BATCH_JOIN);
        assert_eq!(events[2].name, names::LOST);
        assert_eq!(events[3].name, names::UNAVAILABLE);
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "kind" && v.as_str() == Some("retry")));
    }

    /// Every event of `rec`'s timeline, decoded.
    fn decoded(rec: &TimelineRecorder) -> Vec<Option<ServeEvent>> {
        rec.events().iter().map(ServeEvent::decode).collect()
    }

    #[test]
    fn emit_helpers_decode_back_to_their_inputs() {
        let rec = TimelineRecorder::new();
        emit_dispatch(&rec, 1, SpanContext::new(7).retry(), 3, DispatchKind::Retry);
        emit_batch_join(&rec, 1, 7, 3, 12, 4, 9, FlushTrigger::Drain);
        emit_hedge_loser(&rec, 1, 7, 2, 2.5e-5);
        emit_lost(&rec, 0, SpanContext::new(8).retry().retry());
        emit_unavailable(&rec, 0, 9);
        assert_eq!(
            decoded(&rec),
            [
                Some(ServeEvent::Dispatch {
                    request: 7,
                    replica: 3,
                    attempt: 1,
                    kind: DispatchKind::Retry
                }),
                Some(ServeEvent::BatchJoin {
                    request: 7,
                    replica: 3,
                    seq: 12,
                    pos: 4,
                    size: 9,
                    trigger: FlushTrigger::Drain
                }),
                Some(ServeEvent::HedgeLoser {
                    request: 7,
                    replica: 2,
                    elapsed_s: 2.5e-5
                }),
                Some(ServeEvent::Lost {
                    request: 8,
                    attempt: 2
                }),
                Some(ServeEvent::Unavailable { request: 9 }),
            ]
        );
    }

    #[test]
    fn engine_lifecycle_events_decode_back_to_their_fields() {
        // The field sets `dl_serve`'s engine and cluster loop emit.
        let rec = TimelineRecorder::new();
        let replica = 2u32;
        rec.instant(
            0,
            names::ADMIT,
            fields! { "request" => 5u64, "replica" => replica, "queue" => 3usize },
        );
        rec.instant(
            0,
            names::DOWNGRADE,
            fields! {
                "request" => 6u64,
                "replica" => replica,
                "queue" => 4usize,
                "from" => "fp32-base",
                "to" => "int8",
            },
        );
        rec.instant(
            0,
            names::SHED,
            fields! { "request" => 7u64, "replica" => replica },
        );
        rec.instant(
            0,
            names::COMPLETE,
            fields! {
                "request" => 5u64,
                "replica" => replica,
                "latency_s" => 1.25e-5,
                "sample" => 11usize,
                "pred" => 3usize,
                "downgraded" => false,
            },
        );
        let span = rec.span_start(
            0,
            names::BATCH_SPAN,
            fields! { "variant" => "int8", "batch" => 2usize, "replica" => replica, "seq" => 0u64 },
        );
        rec.span_end(span, fields! { "batch" => 2usize, "replica" => replica });
        rec.instant(0, names::CRASH, fields! { "replica" => 1usize });
        rec.instant(0, names::REJOIN, fields! { "replica" => 1usize });
        assert_eq!(
            decoded(&rec),
            [
                Some(ServeEvent::Admit {
                    request: 5,
                    replica: 2,
                    queue: Some(3.0)
                }),
                Some(ServeEvent::Downgrade {
                    request: 6,
                    replica: 2,
                    queue: Some(4.0)
                }),
                Some(ServeEvent::Shed {
                    request: 7,
                    replica: 2
                }),
                Some(ServeEvent::Complete {
                    request: 5,
                    replica: 2,
                    latency_s: 1.25e-5,
                    sample: Some(11),
                    pred: Some(3)
                }),
                // A batch span's start edge is not part of the schema.
                None,
                Some(ServeEvent::BatchEnd { replica: 2 }),
                Some(ServeEvent::Crash { replica: 1 }),
                Some(ServeEvent::Rejoin { replica: 1 }),
            ]
        );
    }

    #[test]
    fn events_outside_the_schema_decode_to_none() {
        let rec = TimelineRecorder::new();
        // Other names, and schema names on the wrong event kind.
        rec.instant(0, "monitor.alert", fields! { "request" => 1u64 });
        rec.instant(0, "serve.admitted", fields! { "request" => 1u64 });
        rec.counter(0, names::COMPLETE, 1);
        let span = rec.span_start(0, names::ADMIT, fields! { "request" => 1u64 });
        rec.span_end(span, fields! { "request" => 1u64 });
        let span = rec.span_start(0, "epoch", fields! { "replica" => 0usize });
        rec.span_end(span, fields! { "replica" => 0usize });
        // Lifecycle instants without a request, a batch end without a
        // replica, and a batch join with an unknown trigger.
        for name in [
            names::ADMIT,
            names::COMPLETE,
            names::SHED,
            names::DISPATCH,
            names::LOST,
        ] {
            rec.instant(0, name, fields! { "replica" => 0usize });
        }
        rec.instant(0, names::COMPLETE, fields! { "request" => "5" });
        let span = rec.span_start(0, names::BATCH_SPAN, fields!());
        rec.span_end(span, fields! { "batch" => 1usize });
        rec.instant(
            0,
            names::BATCH_JOIN,
            fields! { "request" => 1u64, "trigger" => "later" },
        );
        rec.instant(0, names::BATCH_JOIN, fields! { "request" => 1u64 });
        let decoded = decoded(&rec);
        assert_eq!(decoded.len(), 17);
        assert!(decoded.iter().all(Option::is_none), "{decoded:?}");
    }
}
