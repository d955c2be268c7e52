//! The trace event schema the serving stack emits through.
//!
//! `dl_serve` emits each per-request lifecycle instant (admit, shed,
//! batch join, complete, dispatch, hedge loser, lost, unavailable) and
//! each replica crash and rejoin as a typed [`ServeEvent`] through
//! [`dl_obs::Recorder::typed_instant`]. The `NullRecorder` builds
//! nothing for them, so untraced runs stay bit-identical and
//! allocation-free; a recorder that keeps events stores
//! `instant(ev.name(), ev.fields())`; and the taps (`crate::Tracer`,
//! `dl_monitor::Monitor`) read the value itself through
//! [`ServeEvent::from_typed`], with no field list and no decode.
//! [`crate::TraceSet::reconstruct`] (or a live tap) rebuilds
//! per-request waterfalls from either form.
//!
//! One writer, one reader: `ServeEvent`'s [`TypedEvent::fields`] is the
//! only code that writes the field layout of a typed serve instant, and
//! [`ServeEvent::decode`] is the only code that reads it back. Two serve
//! events keep their field form, written by the engine and read by
//! `decode`: `serve.downgrade`, whose `from` and `to` variant names are
//! run-time strings a typed event does not carry, and the `serve.batch`
//! span, whose edges are not instants.

use std::any::Any;

use dl_obs::{fields, find_field, Event, EventKind, FieldValue, Fields, TypedEvent};

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

/// Event names of the per-request trace schema. Reconstruction taps
/// exactly this set.
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
    /// Admission accept (`request`, `replica`, `queue`).
    pub const ADMIT: &str = "serve.admit";
    /// Admission downgrade (`request`, `replica`, `queue`, `from`, `to`;
    /// field form only).
    pub const DOWNGRADE: &str = "serve.downgrade";
    /// Admission shed (`request`, `replica`).
    pub const SHED: &str = "serve.shed";
    /// First-completion delivery (`request`, `replica`, `latency_s`,
    /// `sample`, `pred`, `downgraded`).
    pub const COMPLETE: &str = "serve.complete";
    /// The per-batch device span (field form only; its end edges mark
    /// when a replica's device went idle).
    pub const BATCH_SPAN: &str = "serve.batch";
    /// Replica crash-stop (emitted by the cluster loop; `replica`).
    pub const CRASH: &str = "cluster.crash";
    /// Replica back in rotation after a crash (`replica`).
    pub const REJOIN: &str = "cluster.rejoin";
    /// The latency histogram whose buckets carry request-id exemplars.
    pub const LATENCY_HISTOGRAM: &str = "serve.latency_s";
}

/// One event of the serve schema: emitted as a [`TypedEvent`], or
/// decoded from its fields.
///
/// Request-lifecycle variants need a `request` field; numeric fields
/// the stream omits read as 0 (optional ones as `None`, a missing
/// `downgraded` as `false`), an unknown dispatch `kind` reads as
/// primary, and an unknown batch `trigger` puts the event outside the
/// schema. `serve.downgrade`'s variant names are not decoded: no tap
/// reads them.
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
        queue: Option<u64>,
    },
    /// `serve.downgrade`: admitted onto a cheaper variant.
    Downgrade {
        /// Request id.
        request: u64,
        /// Admitting replica.
        replica: u32,
        /// The replica's queued + in-flight load after the admit.
        queue: Option<u64>,
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
        /// Answered by a variant admission downgraded to.
        downgraded: bool,
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
                        queue: int(queue),
                    }
                }
                names::COMPLETE => {
                    let [request, replica, latency_s, sample, pred, downgraded] = values(
                        event,
                        [
                            "request",
                            "replica",
                            "latency_s",
                            "sample",
                            "pred",
                            "downgraded",
                        ],
                    );
                    ServeEvent::Complete {
                        request: int(request)?,
                        replica: id(replica),
                        latency_s: float(latency_s).unwrap_or(0.0),
                        sample: int(sample),
                        pred: int(pred),
                        downgraded: matches!(downgraded, Some(FieldValue::Bool(true))),
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
                        queue: int(queue),
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

    /// The serve event `ev` holds, for the taps' typed path: `None` when
    /// `ev` is another type, or a [`ServeEvent::BatchEnd`], which is a
    /// span edge and does not decode back from an instant. So a tap that
    /// reads typed events through this and field events through
    /// [`ServeEvent::decode`] sees `typed_instant(ev)` exactly as it
    /// would see `instant(ev.name(), ev.fields())`.
    #[must_use]
    #[inline]
    pub fn from_typed(ev: &dyn TypedEvent) -> Option<&ServeEvent> {
        let any: &dyn Any = ev;
        any.downcast_ref::<ServeEvent>()
            .filter(|e| !matches!(e, ServeEvent::BatchEnd { .. }))
    }
}

/// The one writer of the serve schema's instant layout, which
/// [`ServeEvent::decode`] reads back: each event's keys in the order
/// `decode` looks for them, integers as `U64`, labels borrowed, and an
/// absent optional value left out. `Downgrade` writes the keys it
/// decodes from, without the engine's `from` and `to` names, and
/// `BatchEnd` is named after its span and writes only its replica; the
/// engine emits both in field form.
impl TypedEvent for ServeEvent {
    fn name(&self) -> &'static str {
        match self {
            ServeEvent::Dispatch { .. } => names::DISPATCH,
            ServeEvent::Admit { .. } => names::ADMIT,
            ServeEvent::Downgrade { .. } => names::DOWNGRADE,
            ServeEvent::Shed { .. } => names::SHED,
            ServeEvent::BatchJoin { .. } => names::BATCH_JOIN,
            ServeEvent::Complete { .. } => names::COMPLETE,
            ServeEvent::HedgeLoser { .. } => names::HEDGE_LOSER,
            ServeEvent::Lost { .. } => names::LOST,
            ServeEvent::Unavailable { .. } => names::UNAVAILABLE,
            ServeEvent::Crash { .. } => names::CRASH,
            ServeEvent::Rejoin { .. } => names::REJOIN,
            ServeEvent::BatchEnd { .. } => names::BATCH_SPAN,
        }
    }

    fn fields(&self) -> Fields {
        match *self {
            ServeEvent::Dispatch {
                request,
                replica,
                attempt,
                kind,
            } => fields! {
                "request" => request,
                "replica" => replica,
                "attempt" => attempt,
                "kind" => kind.label(),
            },
            ServeEvent::Admit {
                request,
                replica,
                queue,
            }
            | ServeEvent::Downgrade {
                request,
                replica,
                queue,
            } => match queue {
                Some(queue) => fields! {
                    "request" => request,
                    "replica" => replica,
                    "queue" => queue,
                },
                None => fields! { "request" => request, "replica" => replica },
            },
            ServeEvent::Shed { request, replica } => {
                fields! { "request" => request, "replica" => replica }
            }
            ServeEvent::BatchJoin {
                request,
                replica,
                seq,
                pos,
                size,
                trigger,
            } => fields! {
                "request" => request,
                "replica" => replica,
                "seq" => seq,
                "pos" => pos,
                "size" => size,
                "trigger" => trigger.label(),
            },
            ServeEvent::Complete {
                request,
                replica,
                latency_s,
                sample,
                pred,
                downgraded,
            } => {
                let mut fields = Fields::with_capacity(6);
                fields.push(("request".into(), request.into()));
                fields.push(("replica".into(), replica.into()));
                fields.push(("latency_s".into(), latency_s.into()));
                if let Some(sample) = sample {
                    fields.push(("sample".into(), sample.into()));
                }
                if let Some(pred) = pred {
                    fields.push(("pred".into(), pred.into()));
                }
                fields.push(("downgraded".into(), downgraded.into()));
                fields
            }
            ServeEvent::HedgeLoser {
                request,
                replica,
                elapsed_s,
            } => fields! {
                "request" => request,
                "replica" => replica,
                "elapsed_s" => elapsed_s,
            },
            ServeEvent::Lost { request, attempt } => {
                fields! { "request" => request, "attempt" => attempt }
            }
            ServeEvent::Unavailable { request } => fields! { "request" => request },
            ServeEvent::Crash { replica }
            | ServeEvent::Rejoin { replica }
            | ServeEvent::BatchEnd { replica } => fields! { "replica" => replica },
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

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::{NullRecorder, Recorder, TimelineRecorder};

    #[test]
    fn labels_round_trip() {
        for kind in [
            DispatchKind::Primary,
            DispatchKind::Retry,
            DispatchKind::Hedge,
        ] {
            assert_eq!(DispatchKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(DispatchKind::parse("bogus"), None);
        for trigger in [FlushTrigger::Full, FlushTrigger::Aged, FlushTrigger::Drain] {
            assert_eq!(FlushTrigger::parse(trigger.label()), Some(trigger));
        }
        assert_eq!(FlushTrigger::parse("later"), None);
        assert_eq!(FlushTrigger::Full.label(), "full");
    }

    /// A typed event whose fields must never be built.
    struct Unbuilt;

    impl TypedEvent for Unbuilt {
        fn name(&self) -> &'static str {
            "unbuilt"
        }

        fn fields(&self) -> Fields {
            panic!("a disabled recorder built a typed event's fields")
        }
    }

    #[test]
    fn emits_are_gated_on_enabled() {
        let null = NullRecorder::new();
        null.typed_instant(0, &Unbuilt);
        null.typed_instant(0, &ServeEvent::Unavailable { request: 1 });
        let rec = TimelineRecorder::new();
        rec.typed_instant(
            3,
            &ServeEvent::Dispatch {
                request: 1,
                replica: 2,
                attempt: 1,
                kind: DispatchKind::Retry,
            },
        );
        rec.typed_instant(
            3,
            &ServeEvent::Lost {
                request: 1,
                attempt: 1,
            },
        );
        rec.typed_instant(0, &ServeEvent::Unavailable { request: 5 });
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, names::DISPATCH);
        assert_eq!(events[0].kind, EventKind::Instant);
        assert_eq!(events[0].track, 3);
        assert_eq!(events[1].name, names::LOST);
        assert_eq!(events[2].name, names::UNAVAILABLE);
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "kind" && v.as_str() == Some("retry")));
    }

    /// `ev` as a recorder that keeps events stores it.
    fn instant_of(ev: &ServeEvent) -> Event {
        let rec = TimelineRecorder::new();
        rec.typed_instant(0, ev);
        rec.events().pop().expect("one event")
    }

    /// Every event of `rec`'s timeline, decoded.
    fn decoded(rec: &TimelineRecorder) -> Vec<Option<ServeEvent>> {
        rec.events().iter().map(ServeEvent::decode).collect()
    }

    #[test]
    fn emit_helpers_decode_back_to_their_inputs() {
        // The events the cluster loop emits typed, on one timeline, come
        // back from it in order.
        let inputs = [
            ServeEvent::Dispatch {
                request: 7,
                replica: 3,
                attempt: 1,
                kind: DispatchKind::Retry,
            },
            ServeEvent::BatchJoin {
                request: 7,
                replica: 3,
                seq: 12,
                pos: 4,
                size: 9,
                trigger: FlushTrigger::Drain,
            },
            ServeEvent::HedgeLoser {
                request: 7,
                replica: 2,
                elapsed_s: 2.5e-5,
            },
            ServeEvent::Lost {
                request: 8,
                attempt: 2,
            },
            ServeEvent::Unavailable { request: 9 },
        ];
        let rec = TimelineRecorder::new();
        for (track, ev) in [1, 1, 1, 0, 0].into_iter().zip(&inputs) {
            rec.typed_instant(track, ev);
        }
        let expected: Vec<_> = inputs.into_iter().map(Some).collect();
        assert_eq!(decoded(&rec), expected);
    }

    #[test]
    fn engine_lifecycle_events_decode_back_to_their_fields() {
        // Each typed event next to the field set the engine and the
        // cluster loop wrote for it before events were typed: the one
        // writer must reproduce it key for key, value for value.
        let replica = 2u32;
        let worker = 1usize;
        let expected: Vec<(ServeEvent, Fields)> = vec![
            (
                ServeEvent::Admit {
                    request: 5,
                    replica,
                    queue: Some(3),
                },
                fields! { "request" => 5u64, "replica" => replica, "queue" => 3usize },
            ),
            (
                ServeEvent::Shed {
                    request: 7,
                    replica,
                },
                fields! { "request" => 7u64, "replica" => replica },
            ),
            (
                ServeEvent::BatchJoin {
                    request: 7,
                    replica,
                    seq: 12,
                    pos: 4,
                    size: 9,
                    trigger: FlushTrigger::Drain,
                },
                fields! {
                    "request" => 7u64,
                    "replica" => replica,
                    "seq" => 12u64,
                    "pos" => 4usize,
                    "size" => 9usize,
                    "trigger" => "drain",
                },
            ),
            (
                ServeEvent::Complete {
                    request: 5,
                    replica,
                    latency_s: 1.25e-5,
                    sample: Some(11),
                    pred: Some(3),
                    downgraded: true,
                },
                fields! {
                    "request" => 5u64,
                    "replica" => replica,
                    "latency_s" => 1.25e-5,
                    "sample" => 11usize,
                    "pred" => 3usize,
                    "downgraded" => true,
                },
            ),
            (
                ServeEvent::Complete {
                    request: 6,
                    replica,
                    latency_s: 0.5,
                    sample: Some(0),
                    pred: Some(0),
                    downgraded: false,
                },
                fields! {
                    "request" => 6u64,
                    "replica" => replica,
                    "latency_s" => 0.5,
                    "sample" => 0usize,
                    "pred" => 0usize,
                    "downgraded" => false,
                },
            ),
            (
                ServeEvent::Dispatch {
                    request: 7,
                    replica: 3,
                    attempt: 1,
                    kind: DispatchKind::Retry,
                },
                fields! {
                    "request" => 7u64,
                    "replica" => 3usize,
                    "attempt" => 1u32,
                    "kind" => "retry",
                },
            ),
            (
                ServeEvent::HedgeLoser {
                    request: 7,
                    replica,
                    elapsed_s: 2.5e-5,
                },
                fields! { "request" => 7u64, "replica" => replica, "elapsed_s" => 2.5e-5 },
            ),
            (
                ServeEvent::Lost {
                    request: 8,
                    attempt: 2,
                },
                fields! { "request" => 8u64, "attempt" => 2u32 },
            ),
            (
                ServeEvent::Unavailable { request: 9 },
                fields! { "request" => 9u64 },
            ),
            (
                ServeEvent::Crash { replica: 1 },
                fields! { "replica" => worker },
            ),
            (
                ServeEvent::Rejoin { replica: 1 },
                fields! { "replica" => worker },
            ),
        ];
        for (ev, fields) in &expected {
            assert_eq!(&ev.fields(), fields, "{ev:?}");
            let event = instant_of(ev);
            assert_eq!((event.name, &event.fields), (ev.name(), fields));
            assert_eq!(ServeEvent::decode(&event), Some(*ev));
            assert_eq!(ServeEvent::from_typed(ev), Some(ev));
        }

        // Every typed variant, absent optional values included, decodes
        // back from its instant to itself.
        let typed = [
            ServeEvent::Admit {
                request: 1,
                replica: 0,
                queue: None,
            },
            ServeEvent::Downgrade {
                request: 1,
                replica: 3,
                queue: Some(4),
            },
            ServeEvent::Downgrade {
                request: 1,
                replica: 3,
                queue: None,
            },
            ServeEvent::Complete {
                request: u64::MAX,
                replica: u32::MAX,
                latency_s: 0.0,
                sample: None,
                pred: None,
                downgraded: false,
            },
            ServeEvent::Complete {
                request: 2,
                replica: 1,
                latency_s: 3e-6,
                sample: None,
                pred: Some(0),
                downgraded: false,
            },
            ServeEvent::Dispatch {
                request: 0,
                replica: 0,
                attempt: 0,
                kind: DispatchKind::Primary,
            },
            ServeEvent::Dispatch {
                request: 3,
                replica: 1,
                attempt: 2,
                kind: DispatchKind::Hedge,
            },
            ServeEvent::BatchJoin {
                request: 4,
                replica: 0,
                seq: 0,
                pos: 0,
                size: 1,
                trigger: FlushTrigger::Full,
            },
            ServeEvent::BatchJoin {
                request: 4,
                replica: 0,
                seq: 1,
                pos: 0,
                size: 1,
                trigger: FlushTrigger::Aged,
            },
        ];
        for ev in expected.iter().map(|(ev, _)| ev).chain(&typed) {
            assert_eq!(ServeEvent::decode(&instant_of(ev)), Some(*ev), "{ev:?}");
        }
        // A batch end is a span edge: as an instant it is outside the
        // schema, so the taps' typed path refuses it too.
        let end = ServeEvent::BatchEnd { replica: 2 };
        assert_eq!(ServeEvent::decode(&instant_of(&end)), None);
        assert_eq!(ServeEvent::from_typed(&end), None);
        assert!(ServeEvent::from_typed(&Unbuilt).is_none());

        // The field-form events: the engine's downgrade carries the
        // variant names too, and the batch span's end edge decodes.
        let rec = TimelineRecorder::new();
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
        let span = rec.span_start(
            0,
            names::BATCH_SPAN,
            fields! { "variant" => "int8", "batch" => 2usize, "replica" => replica, "seq" => 0u64 },
        );
        rec.span_end(span, fields! { "batch" => 2usize, "replica" => replica });
        assert_eq!(
            decoded(&rec),
            [
                Some(ServeEvent::Downgrade {
                    request: 6,
                    replica: 2,
                    queue: Some(4)
                }),
                // A batch span's start edge is not part of the schema.
                None,
                Some(ServeEvent::BatchEnd { replica: 2 }),
            ]
        );

        // A served cluster under crashes, retries and hedging: every
        // typed lifecycle instant it recorded re-encodes to exactly the
        // fields it was recorded with.
        let mut seen = std::collections::BTreeMap::new();
        for (seed, events) in recorded_cluster_runs(24) {
            for event in events {
                let Some(ev) = ServeEvent::decode(&event) else {
                    continue;
                };
                if matches!(
                    ev,
                    ServeEvent::Downgrade { .. } | ServeEvent::BatchEnd { .. }
                ) {
                    continue;
                }
                assert_eq!(ev.name(), event.name);
                assert_eq!(ev.fields(), event.fields, "seed {seed}: {ev:?}");
                let kind = match ev {
                    ServeEvent::Dispatch { kind, .. } => kind.label(),
                    _ => "",
                };
                *seen.entry((event.name, kind)).or_insert(0usize) += 1;
            }
        }
        for name in [
            names::ADMIT,
            names::SHED,
            names::BATCH_JOIN,
            names::COMPLETE,
            names::HEDGE_LOSER,
            names::LOST,
            names::UNAVAILABLE,
            names::CRASH,
            names::REJOIN,
        ] {
            assert!(
                seen.contains_key(&(name, "")),
                "no {name} recorded: {seen:?}"
            );
        }
        for kind in ["primary", "retry", "hedge"] {
            assert!(
                seen.contains_key(&(names::DISPATCH, kind)),
                "no {kind} dispatch recorded: {seen:?}"
            );
        }
    }

    /// The timelines of `runs` seeded `dl_serve::serve_cluster` runs of
    /// a small family under crashes, stragglers, slow links, retries and
    /// hedging.
    fn recorded_cluster_runs(runs: u64) -> Vec<(u64, Vec<Event>)> {
        use dl_distributed::{FaultPlan, FaultProfile};
        use dl_serve::{
            build_family, open_loop, serve_cluster, AdmissionPolicy, BatchPolicy, ClusterConfig,
            DeviceModel, FamilyConfig, LoadConfig, RetryPolicy, RouterPolicy, ServeConfig,
        };
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let data = dl_data::blobs(120, 3, 8, 6.0, 0.6, 70);
        let eval = dl_data::blobs(60, 3, 8, 6.0, 0.6, 71);
        let family = build_family(
            &data,
            &eval,
            &FamilyConfig {
                teacher_dims: vec![8, 16, 3],
                student_hidden: vec![6],
                prune_sparsity: 0.7,
                morph_budget: 200,
                ensemble_members: 2,
                max_batch: 16,
                epochs: 4,
                seed: 77,
            },
        );
        let device = DeviceModel::nominal();
        let service_s = device.service_time(family.variants[0].cost_at(1));
        const STEPS: usize = 32;
        (0..runs)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let replicas = rng.gen_range(1..5usize);
                let load = open_loop(
                    &LoadConfig {
                        rate_rps: rng.gen_range(1.0..8.0) / service_s,
                        requests: rng.gen_range(20..80usize),
                        seed,
                    },
                    eval.x.dims()[0],
                );
                let horizon_s = load.last().expect("requests").arrival_s * 1.5;
                let profile = FaultProfile {
                    crash_mtbf: rng.gen_range(4.0..40.0),
                    repair_mttr: rng.gen_range(1.0..12.0),
                    degrade_mtbf: rng.gen_range(0.0..20.0),
                    degrade_duration: 3.0,
                    degrade_factor: 0.25,
                    straggler_mtbf: rng.gen_range(0.0..20.0),
                    straggler_duration: 4.0,
                    straggler_slowdown: 6.0,
                    ..FaultProfile::none(seed)
                };
                let retry = match seed % 3 {
                    0 => RetryPolicy::retries(rng.gen_range(0..3usize)),
                    1 => RetryPolicy::hedged(
                        rng.gen_range(0..3usize),
                        service_s * rng.gen_range(0.5..4.0),
                    ),
                    _ => RetryPolicy::none(),
                };
                let serve = ServeConfig {
                    batch: BatchPolicy::dynamic(16, 6e-6),
                    admission: AdmissionPolicy::SloAware {
                        p99_slo_s: service_s * rng.gen_range(2.0..20.0),
                        headroom: 0.7,
                        min_accuracy: 0.0,
                    },
                    primary: "fp32-base".into(),
                    device: device.clone(),
                };
                let cfg = ClusterConfig {
                    router: RouterPolicy::PowerOfTwoChoices { seed },
                    retry,
                    faults: FaultPlan::from_profile(&profile, replicas, STEPS),
                    seconds_per_step: horizon_s / STEPS as f64,
                    dispatch_s: if seed % 2 == 0 { service_s * 0.1 } else { 0.0 },
                    warmup_s: horizon_s / STEPS as f64,
                    warmup_factor: 2.0,
                    ..ClusterConfig::new(replicas, serve)
                };
                let rec = TimelineRecorder::new();
                let _ = serve_cluster(&family, &eval, &load, &cfg, &rec);
                (seed, rec.events())
            })
            .collect()
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
