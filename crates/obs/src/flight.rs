//! The [`FlightRecorder`]: a bounded ring buffer keeping the most recent
//! events for post-mortem dumps.

use std::sync::Mutex;

use crate::clock::VirtualClock;
use crate::recorder::{Event, MetricsCore, Recorder};

/// Fixed-capacity event ring.
#[derive(Debug)]
struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest retained event when the ring is full.
    head: usize,
    /// Events overwritten since the start of recording.
    dropped: u64,
}

/// A [`Recorder`] that retains only the last `capacity` events.
///
/// When a long run crashes, the interesting events are the recent ones —
/// the crash, the rollback it forced, the retries before it. The flight
/// recorder bounds memory to `capacity` events no matter how long the run
/// is, while counters and histograms still aggregate over the whole run.
/// [`FlightRecorder::dump`] returns the retained window oldest-first.
#[derive(Debug)]
pub struct FlightRecorder {
    clock: VirtualClock,
    ring: Mutex<Ring>,
    capacity: usize,
    metrics: MetricsCore,
}

impl FlightRecorder {
    /// A flight recorder retaining the last `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs a positive capacity");
        FlightRecorder {
            clock: VirtualClock::new(),
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                head: 0,
                dropped: 0,
            }),
            capacity,
            metrics: MetricsCore::default(),
        }
    }

    /// The configured retention window, in events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten so far (0 until the ring first wraps).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("ring lock").dropped
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn dump(&self) -> Vec<Event> {
        let ring = self.ring.lock().expect("ring lock");
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// Snapshot of all counters (aggregated over the *whole* run, not
    /// just the retained window).
    #[must_use]
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.metrics.counters()
    }

    /// Snapshot of the named histogram, if observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<crate::recorder::Histogram> {
        self.metrics.histogram(name)
    }
}

impl Recorder for FlightRecorder {
    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn record(&self, event: Event) {
        let mut ring = self.ring.lock().expect("ring lock");
        if ring.buf.len() < self.capacity {
            ring.buf.push(event);
        } else {
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    fn add_counter(&self, name: &str, delta: u64) -> u64 {
        self.metrics.add_counter(name, delta)
    }

    fn observe(&self, name: &str, value: f64) {
        self.metrics.observe(name, value)
    }

    fn observe_exemplar(&self, name: &str, value: f64, exemplar: u64) {
        self.metrics.observe_exemplar(name, value, exemplar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;

    /// Distinct event names for the ring tests (names are `'static`).
    const E: [&str; 11] = [
        "e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
    ];

    fn names(events: &[Event]) -> Vec<&'static str> {
        events.iter().map(|e| e.name).collect()
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let rec = FlightRecorder::new(8);
        for name in &E[..5] {
            rec.instant(0, name, fields!());
        }
        assert_eq!(rec.dropped(), 0);
        assert_eq!(names(&rec.dump()), ["e0", "e1", "e2", "e3", "e4"]);
    }

    #[test]
    fn wraparound_keeps_the_most_recent_window() {
        let rec = FlightRecorder::new(4);
        for name in E {
            rec.clock().advance(1.0);
            rec.instant(0, name, fields!());
        }
        assert_eq!(rec.dropped(), 7);
        let dump = rec.dump();
        assert_eq!(names(&dump), ["e7", "e8", "e9", "e10"]);
        // timestamps still oldest-first after the wrap
        assert!(dump.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
    }

    #[test]
    fn exact_capacity_boundary_does_not_drop() {
        let rec = FlightRecorder::new(3);
        for name in &E[..3] {
            rec.instant(0, name, fields!());
        }
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.dump().len(), 3);
        rec.instant(0, "e3", fields!());
        assert_eq!(rec.dropped(), 1);
        assert_eq!(names(&rec.dump()), ["e1", "e2", "e3"]);
    }

    #[test]
    fn counters_survive_the_wrap() {
        let rec = FlightRecorder::new(2);
        for _ in 0..10 {
            rec.counter(0, "samples", 16);
        }
        assert_eq!(rec.counters()["samples"], 160);
        assert_eq!(rec.dump().len(), 2, "only the last two samples retained");
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        FlightRecorder::new(0);
    }

    #[test]
    fn capacity_one_keeps_exactly_the_latest_event() {
        // Degenerate ring: every record after the first overwrites the
        // single slot, head must keep cycling through index 0 without
        // going out of bounds, and the dump is always that one event.
        let rec = FlightRecorder::new(1);
        assert!(rec.dump().is_empty(), "empty before any event");
        for (i, name) in (1u64..).zip(&E[..5]) {
            rec.clock().advance(1.0);
            rec.instant(0, name, fields!());
            let dump = rec.dump();
            assert_eq!(names(&dump), [*name]);
            assert_eq!(dump[0].ts_micros, i * 1_000_000);
        }
        assert_eq!(rec.dropped(), 4);
        assert_eq!(rec.capacity(), 1);
    }
}
