//! The [`Tracer`] recorder tap: forwards every call to an inner recorder
//! unchanged while keeping a compact record of the per-request trace
//! events.
//!
//! Like `dl_monitor::Monitor`, the tap reports `enabled() == true` even
//! over a `NullRecorder`, so the serving stack emits its structured
//! samples, and keeps a record of each serve-schema event. A typed instant
//! ([`Recorder::typed_instant`]) is read as it is, through
//! [`ServeEvent::from_typed`], and the same reference goes on to the inner
//! recorder, so no field list is built or parsed here; an event in field
//! form is read with [`ServeEvent::decode`]. The inner recorder sees the
//! exact stream it would have seen untapped. Wrapping a
//! `TimelineRecorder` therefore leaves its timeline byte-identical, and
//! wrapping a `NullRecorder` adds tracing to an otherwise silent run.
//!
//! # Record layout
//!
//! A record keeps only what waterfall reconstruction reads, in 24 bytes:
//! the timestamp (`u64` µs), the request id (`u64`), the replica (`u32`)
//! and a one- or two-byte kind that carries a dispatch's
//! [`DispatchKind`] and a batch join's [`FlushTrigger`]. Admit and
//! downgrade share a kind, since reconstruction reads them alike. The
//! wider or rarer fields go in side tables, one entry per record that has
//! them, read back in record order: a batch join's sequence number,
//! position and size, and the seconds of a completion's latency or a
//! hedge loser's elapsed time. Nothing reconstruction never reads is
//! kept: not a completion's sample, prediction or downgrade flag, an
//! admit's queue, a dispatch's attempt, nor crash and rejoin records.
//! Every field is kept whole, so any `u64` request id and batch sequence
//! number, any `u32` replica and any `f64` (NaN, infinities and `-0.0`
//! included) reconstruct exactly as they would from the timeline.
//!
//! Reconstruction is bound by the bytes it moves, and writing records
//! is a large share of the tap's cost, so the layout is sized for both:
//! the 68,383 serve events of perfbench's serve-chaos replay keep
//! 2,040,112 bytes (29.8 per event) where whole `(ts, ServeEvent)` pairs
//! kept 64 bytes each, 4,376,512 in all.
//!
//! Records and side tables are kept in fixed-size blocks, not one growing
//! vector each. A long trace holds megabytes of records, and a vector
//! doubling into that range copies its buffer; whether the allocator
//! grows it in place or leaves the old copy behind as a resident hole
//! depends on everything allocated before, so peak memory would differ
//! from run to run. A block never moves once allocated. Its length is a
//! power of two, so a record index splits into block and slot with a
//! shift and a mask.

use std::sync::Mutex;

use dl_obs::{Event, Recorder, TypedEvent, VirtualClock};

use crate::context::{DispatchKind, FlushTrigger, ServeEvent};
use crate::waterfall::TraceSet;

/// Entries per storage block, as a power of two: 1024 records make tens
/// of KiB, small enough for the allocator to hand a freed block straight
/// to the next one.
const BLOCK_SHIFT: u32 = 10;
const BLOCK_LEN: usize = 1 << BLOCK_SHIFT;

/// What a [`Record`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `serve.dispatch`.
    Dispatch(DispatchKind),
    /// `serve.admit` or `serve.downgrade`.
    Admit,
    /// `serve.shed`.
    Shed,
    /// `serve.batch_join`; its [`JoinSlot`] is in the join table.
    Join(FlushTrigger),
    /// `serve.complete`; its latency is in the value table.
    Complete,
    /// `hedge.loser`; its elapsed time is in the value table.
    HedgeLoser,
    /// `serve.lost`.
    Lost,
    /// `serve.unavailable`.
    Unavailable,
    /// The end edge of a `serve.batch` span.
    BatchEnd,
}

/// One retained serve event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub(crate) ts: u64,
    /// The request (0 for a batch end).
    pub(crate) request: u64,
    /// The replica (0 for the kinds whose replica reconstruction does not
    /// read: shed, hedge loser, lost, unavailable).
    pub(crate) replica: u32,
    pub(crate) kind: Kind,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 24);

/// A batch join's fields that do not fit its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinSlot {
    pub(crate) seq: u64,
    pub(crate) pos: u32,
    pub(crate) size: u32,
}

/// An append-only sequence in fixed [`BLOCK_LEN`]-entry blocks; every
/// block but the last is full.
#[derive(Debug, PartialEq)]
pub(crate) struct Blocks<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            blocks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Blocks<T> {
    fn push(&mut self, value: T) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK_LEN => block.push(value),
            _ => {
                let mut block = Vec::with_capacity(BLOCK_LEN);
                block.push(value);
                self.blocks.push(block);
            }
        }
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The `i`-th entry, where it lies.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        &self.blocks[i >> BLOCK_SHIFT][i & (BLOCK_LEN - 1)]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flatten()
    }

    fn bytes(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }
}

/// The records of a stream of serve events and their side tables, in
/// record order: the form [`TraceSet`] reconstructs from.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Records {
    pub(crate) records: Blocks<Record>,
    /// One per [`Kind::Join`] record.
    pub(crate) joins: Blocks<JoinSlot>,
    /// One per [`Kind::Complete`] (its latency) or [`Kind::HedgeLoser`]
    /// (its elapsed time) record, in seconds.
    pub(crate) values: Blocks<f64>,
}

impl Records {
    /// Appends `event`, stamped `ts` µs, keeping what reconstruction
    /// reads; a crash or rejoin keeps nothing.
    pub(crate) fn push(&mut self, ts: u64, event: &ServeEvent) {
        let (request, replica, kind) = match *event {
            ServeEvent::Dispatch {
                request,
                replica,
                kind,
                ..
            } => (request, replica, Kind::Dispatch(kind)),
            ServeEvent::Admit {
                request, replica, ..
            }
            | ServeEvent::Downgrade {
                request, replica, ..
            } => (request, replica, Kind::Admit),
            ServeEvent::Shed { request, .. } => (request, 0, Kind::Shed),
            ServeEvent::BatchJoin {
                request,
                replica,
                seq,
                pos,
                size,
                trigger,
            } => {
                self.joins.push(JoinSlot { seq, pos, size });
                (request, replica, Kind::Join(trigger))
            }
            ServeEvent::Complete {
                request,
                replica,
                latency_s,
                ..
            } => {
                self.values.push(latency_s);
                (request, replica, Kind::Complete)
            }
            ServeEvent::HedgeLoser {
                request, elapsed_s, ..
            } => {
                self.values.push(elapsed_s);
                (request, 0, Kind::HedgeLoser)
            }
            ServeEvent::Lost { request, .. } => (request, 0, Kind::Lost),
            ServeEvent::Unavailable { request } => (request, 0, Kind::Unavailable),
            ServeEvent::BatchEnd { replica } => (0, replica, Kind::BatchEnd),
            ServeEvent::Crash { .. } | ServeEvent::Rejoin { .. } => return,
        };
        self.records.push(Record {
            ts,
            request,
            replica,
            kind,
        });
    }

    /// Bytes held by the records and their side tables.
    fn bytes(&self) -> usize {
        self.records.bytes() + self.joins.bytes() + self.values.bytes()
    }
}

/// A pure forwarding tap over any [`Recorder`] that retains the
/// request-lifecycle events needed to reconstruct waterfalls.
pub struct Tracer<'a> {
    inner: &'a dyn Recorder,
    records: Mutex<Records>,
}

impl<'a> Tracer<'a> {
    /// Wraps `inner`; pass the tracer wherever a `&dyn Recorder` goes.
    #[must_use]
    pub fn new(inner: &'a dyn Recorder) -> Self {
        Tracer {
            inner,
            records: Mutex::new(Records::default()),
        }
    }

    /// Bytes of trace state retained so far: the fixed-size records and
    /// their side tables.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.records.lock().expect("tracer records lock").bytes() as u64
    }

    /// Reconstructs per-request waterfalls from the retained records.
    #[must_use]
    pub fn traces(&self) -> TraceSet {
        TraceSet::from_records(&self.records.lock().expect("tracer records lock"))
    }

    /// Appends one record.
    fn keep(&self, ts_micros: u64, event: &ServeEvent) {
        let mut records = self.records.lock().expect("tracer records lock");
        records.push(ts_micros, event);
    }
}

impl Recorder for Tracer<'_> {
    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }

    // Always on: the engines must emit their structured samples even when
    // the inner recorder is a NullRecorder, or there is nothing to trace.
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        if let Some(decoded) = ServeEvent::decode(&event) {
            self.keep(event.ts_micros, &decoded);
        }
        self.inner.record(event);
    }

    fn typed_instant(&self, track: u32, ev: &dyn TypedEvent) {
        match ServeEvent::from_typed(ev) {
            Some(event) => {
                self.keep(self.clock().now_micros(), event);
                self.inner.typed_instant(track, ev);
            }
            None => self.instant(track, ev.name(), ev.fields()),
        }
    }

    fn add_counter(&self, name: &str, delta: u64) -> u64 {
        self.inner.add_counter(name, delta)
    }

    fn observe(&self, name: &str, value: f64) {
        self.inner.observe(name, value);
    }

    // Forwarded verbatim so exemplar slots match an untraced run
    // bit-for-bit.
    fn observe_exemplar(&self, name: &str, value: f64, exemplar: u64) {
        self.inner.observe_exemplar(name, value, exemplar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::{fields, NullRecorder, TimelineRecorder};

    #[test]
    fn tracer_forwards_the_full_stream_unchanged() {
        let plain = TimelineRecorder::new();
        let tapped = TimelineRecorder::new();
        let drive = |rec: &dyn Recorder| {
            let span = rec.span_start(3, "serve.batch", fields! { "variant" => "full" });
            rec.clock().advance(0.5);
            rec.instant(
                3,
                "serve.admit",
                fields! { "request" => 1u64, "replica" => 0usize },
            );
            rec.counter(0, "cluster.lost", 1);
            rec.observe("serve.latency_s", 0.25);
            rec.span_end(span, fields! { "batch" => 4usize, "replica" => 0usize });
            rec.instant(0, "unrelated", fields! {});
            // Typed: a schema instant, and a span edge that is not one.
            rec.typed_instant(
                3,
                &ServeEvent::Shed {
                    request: 2,
                    replica: 1,
                },
            );
            rec.typed_instant(0, &ServeEvent::BatchEnd { replica: 1 });
        };
        drive(&plain);
        let tracer = Tracer::new(&tapped);
        drive(&tracer);
        assert_eq!(plain.events(), tapped.events());
        // The tap retained only the serve schema subset, and of it only
        // what reconstruction reads: the shed keeps no replica.
        let records = tracer.records.lock().unwrap();
        let record = |request, replica, kind| Record {
            ts: 500_000,
            request,
            replica,
            kind,
        };
        assert_eq!(
            records.records.iter().copied().collect::<Vec<_>>(),
            [
                record(1, 0, Kind::Admit),
                record(0, 0, Kind::BatchEnd),
                record(2, 0, Kind::Shed),
            ]
        );
        assert_eq!((records.joins.len(), records.values.len()), (0, 0));
        drop(records);
        assert_eq!(tracer.retained_bytes(), 3 * 24);
        // Clocks advance in lockstep because there is only one clock.
        assert_eq!(plain.clock().now(), tapped.clock().now());
    }

    #[test]
    fn traces_across_record_blocks_match_the_timeline() {
        let timeline = TimelineRecorder::new();
        let tracer = Tracer::new(&timeline);
        // Every admit precedes every completion, so each request's two
        // records sit in different blocks, and the last block is partial.
        let requests = BLOCK_LEN + 7;
        for request in 0..requests as u64 {
            tracer.instant(
                0,
                "serve.admit",
                fields! { "request" => request, "replica" => 0usize },
            );
        }
        tracer.clock().advance(1e-6);
        for request in 0..requests as u64 {
            tracer.instant(
                0,
                "serve.complete",
                fields! { "request" => request, "replica" => 0usize },
            );
        }
        assert_eq!(tracer.records.lock().unwrap().records.blocks.len(), 3);
        let set = tracer.traces();
        assert_eq!(set, TraceSet::reconstruct(&timeline.events()));
        assert_eq!(set.requests.len(), requests);
        assert_eq!(set.counts.served, requests);
    }

    /// `a == b`, with each `reported_latency_s` compared by its bits so
    /// that NaN latencies compare too.
    fn assert_same(a: &TraceSet, b: &TraceSet) {
        let bits = |set: &TraceSet| -> Vec<u64> {
            set.requests
                .iter()
                .map(|t| t.reported_latency_s.to_bits())
                .collect()
        };
        assert_eq!(bits(a), bits(b));
        let zeroed = |set: &TraceSet| {
            let mut set = set.clone();
            for t in &mut set.requests {
                t.reported_latency_s = 0.0;
            }
            set
        };
        assert_eq!(zeroed(a), zeroed(b));
    }

    /// An instant in field form stamped `ts_micros`, whatever the clock.
    fn stamped(ts_micros: u64, name: &'static str, fields: dl_obs::Fields) -> Event {
        Event {
            ts_micros,
            kind: dl_obs::EventKind::Instant,
            name,
            track: 0,
            fields,
        }
    }

    #[test]
    fn edge_values_survive_the_records() {
        use crate::context::names;
        use crate::waterfall::Outcome;
        let timeline = TimelineRecorder::new();
        let tracer = Tracer::new(&timeline);
        let rec: &dyn Recorder = &tracer;
        let (huge, wide) = (u64::MAX, (1u64 << 40) + 3);
        let (far, mid) = (u32::MAX, 70_000u32);
        let typed = |ev: ServeEvent| rec.typed_instant(0, &ev);

        // Ids, seqs and replicas past 2^32 and 2^16; a NaN latency.
        typed(ServeEvent::Admit {
            request: huge,
            replica: far,
            queue: Some(u64::MAX),
        });
        let span = rec.span_start(0, names::BATCH_SPAN, fields! { "replica" => far });
        rec.clock().advance(5e-6);
        rec.span_end(span, fields! { "batch" => 1usize, "replica" => far });
        typed(ServeEvent::BatchJoin {
            request: huge,
            replica: far,
            seq: u64::MAX - 1,
            pos: u32::MAX,
            size: u32::MAX,
            trigger: FlushTrigger::Drain,
        });
        rec.clock().advance(5e-6);
        typed(ServeEvent::Complete {
            request: huge,
            replica: far,
            latency_s: f64::NAN,
            sample: None,
            pred: Some(3),
            downgraded: true,
        });
        // A hedged request: +inf latency, a NaN and an infinite loser.
        typed(ServeEvent::Dispatch {
            request: wide,
            replica: mid,
            attempt: u32::MAX,
            kind: DispatchKind::Hedge,
        });
        typed(ServeEvent::Admit {
            request: wide,
            replica: mid,
            queue: None,
        });
        rec.clock().advance(1e-6);
        typed(ServeEvent::BatchJoin {
            request: wide,
            replica: mid,
            seq: 1 << 33,
            pos: 0,
            size: 1,
            trigger: FlushTrigger::Full,
        });
        rec.clock().advance(1e-6);
        typed(ServeEvent::Complete {
            request: wide,
            replica: mid,
            latency_s: f64::INFINITY,
            sample: Some(1),
            pred: None,
            downgraded: false,
        });
        typed(ServeEvent::HedgeLoser {
            request: wide,
            replica: 0,
            elapsed_s: f64::NAN,
        });
        typed(ServeEvent::HedgeLoser {
            request: wide,
            replica: 1,
            elapsed_s: f64::INFINITY,
        });
        // Completed twice: -0.0 first, then -inf.
        for latency_s in [-0.0, f64::NEG_INFINITY] {
            typed(ServeEvent::Complete {
                request: 7,
                replica: 2,
                latency_s,
                sample: None,
                pred: None,
                downgraded: false,
            });
        }
        typed(ServeEvent::HedgeLoser {
            request: 7,
            replica: 1,
            elapsed_s: -0.0,
        });
        typed(ServeEvent::HedgeLoser {
            request: 7,
            replica: 1,
            elapsed_s: f64::NEG_INFINITY,
        });
        // Timestamps that go backwards: a completion stamped before its
        // admit, and a loss before the request's first event.
        rec.record(stamped(
            40,
            names::ADMIT,
            fields! { "request" => 9u64, "replica" => 2u64 },
        ));
        rec.record(stamped(
            25,
            names::COMPLETE,
            fields! { "request" => 9u64, "replica" => 2u64, "latency_s" => -1.0 },
        ));
        rec.record(stamped(
            30,
            names::DISPATCH,
            fields! { "request" => 11u64, "replica" => 1u64, "kind" => "retry" },
        ));
        rec.record(stamped(2, names::LOST, fields! { "request" => 11u64 }));
        // Crashes and rejoins are forwarded but not kept.
        typed(ServeEvent::Crash { replica: far });
        typed(ServeEvent::Rejoin { replica: far });

        let set = tracer.traces();
        assert_same(&set, &TraceSet::reconstruct(&timeline.events()));
        set.verify_conservation().unwrap();
        assert_eq!(set.requests.len(), 5);
        let by_id = |id: u64| set.requests.iter().find(|t| t.id == id).unwrap();
        let t = by_id(huge);
        assert!(t.reported_latency_s.is_nan());
        assert_eq!(
            t.batch,
            Some(crate::waterfall::BatchRef {
                replica: far,
                seq: u64::MAX - 1,
                pos: u32::MAX,
                size: u32::MAX,
                trigger: FlushTrigger::Drain,
            })
        );
        assert_eq!(t.phase_us(crate::Phase::Queue), 5);
        let t = by_id(wide);
        assert_eq!(t.reported_latency_s, f64::INFINITY);
        assert_eq!(t.wasted_us, u64::MAX, "NaN wastes 0, +inf saturates");
        assert_eq!(t.batch.unwrap().seq, 1 << 33);
        assert_eq!(
            t.outcome,
            Outcome::Served {
                replica: mid,
                via: DispatchKind::Hedge
            }
        );
        let t = by_id(7);
        assert_eq!(t.reported_latency_s.to_bits(), (-0.0f64).to_bits());
        assert_eq!(t.wasted_us, 0);
        let t = by_id(9);
        assert_eq!((t.start_us, t.end_us), (40, 40), "clamped to its start");
        let t = by_id(11);
        assert_eq!((t.outcome, t.e2e_us()), (Outcome::Lost, 0));
        assert_eq!(set.counts.served, 4);
        // Two joins' and nine values' side entries; no crash or rejoin.
        let records = tracer.records.lock().unwrap();
        assert_eq!(records.records.len(), 18);
        assert_eq!((records.joins.len(), records.values.len()), (2, 9));
        assert_eq!(records.bytes(), 18 * 24 + 2 * 16 + 9 * 8);
    }

    #[test]
    fn side_tables_cross_block_boundaries_in_record_order() {
        for n in [BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1] {
            let timeline = TimelineRecorder::new();
            let tracer = Tracer::new(&timeline);
            let requests = 0..n as u64;
            for request in requests.clone() {
                let queue = None;
                tracer.typed_instant(
                    0,
                    &ServeEvent::Admit {
                        request,
                        replica: 1,
                        queue,
                    },
                );
            }
            tracer.clock().advance(1e-6);
            for request in requests.clone() {
                tracer.typed_instant(
                    0,
                    &ServeEvent::BatchJoin {
                        request,
                        replica: 1,
                        seq: (1 << 32) + request,
                        pos: request as u32,
                        size: n as u32,
                        trigger: FlushTrigger::Full,
                    },
                );
            }
            tracer.clock().advance(1e-6);
            // Completions in reverse, so each side entry's record order
            // differs from its request order.
            for request in requests.clone().rev() {
                tracer.typed_instant(
                    0,
                    &ServeEvent::Complete {
                        request,
                        replica: 1,
                        latency_s: request as f64,
                        sample: None,
                        pred: None,
                        downgraded: false,
                    },
                );
            }
            {
                let records = tracer.records.lock().unwrap();
                assert_eq!(records.records.blocks.len(), (3 * n).div_ceil(BLOCK_LEN));
                assert_eq!(records.joins.blocks.len(), n.div_ceil(BLOCK_LEN));
                assert_eq!(records.values.blocks.len(), n.div_ceil(BLOCK_LEN));
            }
            let set = tracer.traces();
            assert_same(&set, &TraceSet::reconstruct(&timeline.events()));
            assert_eq!(set.requests.len(), n);
            for (t, request) in set.requests.iter().zip(requests) {
                let batch = t.batch.unwrap();
                assert_eq!(t.id, request);
                assert_eq!(
                    (batch.seq, batch.pos),
                    ((1 << 32) + request, request as u32)
                );
                assert_eq!(t.reported_latency_s, request as f64);
            }
        }
    }

    #[test]
    fn tracer_over_null_recorder_still_collects() {
        let null = NullRecorder::new();
        assert!(!null.enabled());
        let tracer = Tracer::new(&null);
        assert!(tracer.enabled());
        tracer.instant(0, "serve.complete", fields! { "request" => 9u64 });
        tracer.instant(0, "not.traced", fields! {});
        let set = tracer.traces();
        assert_eq!(set.requests.len(), 1);
        assert_eq!(set.requests[0].id, 9);
        assert_eq!(set.counts.served, 1);
    }
}
