//! The [`Tracer`] recorder tap: forwards every call to an inner recorder
//! unchanged while keeping a compact typed record of the per-request
//! trace events.
//!
//! Like `dl_monitor::Monitor`, the tap reports `enabled() == true` even
//! over a `NullRecorder`, so the serving stack emits its structured
//! samples; the tracer decodes the serve-schema subset with
//! [`ServeEvent::decode`] and keeps `(ts_micros, ServeEvent)` pairs, and
//! the inner recorder sees the exact stream it would have seen untapped.
//! Wrapping a `TimelineRecorder` therefore leaves its timeline
//! byte-identical, and wrapping a `NullRecorder` adds tracing to an
//! otherwise silent run.

use std::sync::Mutex;

use dl_obs::{Event, Recorder, VirtualClock};

use crate::context::ServeEvent;
use crate::waterfall::TraceSet;

/// A pure forwarding tap over any [`Recorder`] that retains the
/// request-lifecycle events needed to reconstruct waterfalls.
pub struct Tracer<'a> {
    inner: &'a dyn Recorder,
    records: Mutex<Vec<(u64, ServeEvent)>>,
}

impl<'a> Tracer<'a> {
    /// Wraps `inner`; pass the tracer wherever a `&dyn Recorder` goes.
    #[must_use]
    pub fn new(inner: &'a dyn Recorder) -> Self {
        Tracer {
            inner,
            records: Mutex::new(Vec::new()),
        }
    }

    /// Bytes of trace state retained so far: one fixed-size
    /// `(ts_micros, ServeEvent)` record per serve-schema event.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        let records = self.records.lock().expect("tracer records lock").len();
        (records * std::mem::size_of::<(u64, ServeEvent)>()) as u64
    }

    /// Reconstructs per-request waterfalls from the retained records.
    #[must_use]
    pub fn traces(&self) -> TraceSet {
        TraceSet::from_records(&self.records.lock().expect("tracer records lock"))
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
            self.records
                .lock()
                .expect("tracer records lock")
                .push((event.ts_micros, decoded));
        }
        self.inner.record(event);
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
            rec.instant(3, "serve.admit", fields! { "request" => 1u64, "replica" => 0usize });
            rec.counter(0, "cluster.lost", 1);
            rec.observe("serve.latency_s", 0.25);
            rec.span_end(span, fields! { "batch" => 4usize, "replica" => 0usize });
            rec.instant(0, "unrelated", fields! {});
        };
        drive(&plain);
        let tracer = Tracer::new(&tapped);
        drive(&tracer);
        assert_eq!(plain.events(), tapped.events());
        // The tap retained only the serve schema subset.
        assert_eq!(
            *tracer.records.lock().unwrap(),
            [
                (
                    500_000,
                    ServeEvent::Admit {
                        request: 1,
                        replica: 0,
                        queue: None
                    }
                ),
                (500_000, ServeEvent::BatchEnd { replica: 0 }),
            ]
        );
        // Clocks advance in lockstep because there is only one clock.
        assert_eq!(plain.clock().now(), tapped.clock().now());
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
