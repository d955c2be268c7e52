//! The [`Recorder`] trait, its event model, and the two full recorders:
//! the unbounded [`TimelineRecorder`] and the no-op [`NullRecorder`].

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::clock::VirtualClock;
use crate::field::{Fields, ToFields};

/// What an [`Event`] marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Opening edge of a span (Chrome `ph: "B"`).
    SpanStart,
    /// Closing edge of a span (Chrome `ph: "E"`).
    SpanEnd,
    /// A point-in-time annotation (Chrome `ph: "i"`), e.g. a fault
    /// injection.
    Instant,
    /// A counter sample (Chrome `ph: "C"`): the counter's running total
    /// at this timestamp.
    Counter,
}

impl EventKind {
    /// Stable lowercase label used by the JSON-lines exporter and as the
    /// Chrome `cat` field.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
}

/// One timestamped, structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual-clock timestamp in microseconds.
    pub ts_micros: u64,
    /// Span edge / instant / counter sample.
    pub kind: EventKind,
    /// Event name (the span or counter name). Names are fixed by the
    /// emitting code, so recording one never allocates.
    pub name: &'static str,
    /// Timeline lane, rendered as the Chrome `tid`. Drivers use one track
    /// per simulated worker (track 0 for driver-level events).
    pub track: u32,
    /// Typed key-value annotations.
    pub fields: Fields,
}

/// Handle returned by [`Recorder::span_start`] and consumed by
/// [`Recorder::span_end`], pinning the end event to the same name and
/// track as the start.
#[derive(Debug)]
#[must_use = "an unclosed span never gets its end edge; pass this to span_end"]
pub struct SpanId {
    name: &'static str,
    track: u32,
}

/// A point event held as a typed value rather than as [`Fields`].
///
/// [`Recorder::typed_instant`] takes one. A recorder that keeps events
/// asks it for its [`name`](TypedEvent::name) and
/// [`fields`](TypedEvent::fields); a tap that understands the concrete
/// type downcasts it (`TypedEvent: Any`) and reads the value directly,
/// so neither builds nor parses a field list. `fields` must write the
/// layout the type's own decoder reads back, so that both routes see the
/// same event.
pub trait TypedEvent: Any {
    /// The event name the instant carries.
    fn name(&self) -> &'static str;

    /// The instant's fields, as a recorder that keeps them stores them.
    fn fields(&self) -> Fields;
}

/// A span-style structured event recorder over a [`VirtualClock`].
///
/// Implementations must be cheap to call and must never consult the wall
/// clock: every timestamp comes from [`Recorder::clock`], which the
/// instrumented driver advances in lockstep with its simulated-time
/// accounting. All methods take `&self` so one recorder can be threaded
/// through nested drivers (interior mutability is the implementation's
/// concern; a `Mutex` is fine at this event volume).
///
/// Point events reach a recorder in one of two forms. [`Recorder::instant`]
/// carries a name and a built [`Fields`] list. [`Recorder::typed_instant`]
/// carries a [`TypedEvent`] and builds that list only when the recorder is
/// [enabled](Recorder::enabled) and does not override it: the default is
/// exactly `instant(track, ev.name(), ev.fields())`, so a recorder that
/// keeps events stores the same event either way, and a [`NullRecorder`]
/// builds nothing. Taps that read typed events override it to skip the
/// field list and forward the same reference inward.
pub trait Recorder: Send + Sync {
    /// The clock this recorder timestamps events against.
    fn clock(&self) -> &VirtualClock;

    /// True when this recorder actually retains or aggregates anything.
    ///
    /// Instrumented drivers use this to skip *collection* work whose only
    /// consumer is the recorder (e.g. opening a tensor cost-accounting
    /// scope): [`NullRecorder`] returns `false`, so untraced runs pay
    /// nothing and stay bit-identical.
    fn enabled(&self) -> bool {
        true
    }

    /// Appends one event to the timeline.
    fn record(&self, event: Event);

    /// Adds `delta` to the named monotonic counter and returns the new
    /// total (0 for recorders that do not aggregate).
    fn add_counter(&self, name: &str, delta: u64) -> u64;

    /// Records `value` into the named log-scale histogram.
    fn observe(&self, name: &str, value: f64);

    /// Records `value` into the named histogram and offers `exemplar`
    /// (a request/sample id) for the bucket it lands in. Buckets keep the
    /// *first* exemplar offered (see [`Histogram::observe_exemplar`]), so
    /// a fat tail bucket points at a concrete trace to pull up. The
    /// default implementation drops the exemplar and just observes;
    /// aggregating recorders override it.
    fn observe_exemplar(&self, name: &str, value: f64, exemplar: u64) {
        let _ = exemplar;
        self.observe(name, value);
    }

    /// Opens a span named `name` on `track` at the current virtual time.
    fn span_start(&self, track: u32, name: &'static str, fields: Fields) -> SpanId {
        self.record(Event {
            ts_micros: self.clock().now_micros(),
            kind: EventKind::SpanStart,
            name,
            track,
            fields,
        });
        SpanId { name, track }
    }

    /// Closes `span` at the current virtual time, attaching `fields` to
    /// the end edge (the natural place for measured outcomes).
    fn span_end(&self, span: SpanId, fields: Fields) {
        self.record(Event {
            ts_micros: self.clock().now_micros(),
            kind: EventKind::SpanEnd,
            name: span.name,
            track: span.track,
            fields,
        });
    }

    /// Marks a point event (fault injections, rollbacks, rejoins).
    fn instant(&self, track: u32, name: &'static str, fields: Fields) {
        self.record(Event {
            ts_micros: self.clock().now_micros(),
            kind: EventKind::Instant,
            name,
            track,
            fields,
        });
    }

    /// Marks a point event given as a typed value. The default records
    /// `instant(track, ev.name(), ev.fields())` when the recorder is
    /// enabled and does nothing otherwise.
    fn typed_instant(&self, track: u32, ev: &dyn TypedEvent) {
        if self.enabled() {
            self.instant(track, ev.name(), ev.fields());
        }
    }

    /// Bumps the named counter by `delta` and drops a counter sample on
    /// the timeline so viewers can plot its trajectory.
    fn counter(&self, track: u32, name: &'static str, delta: u64) {
        let total = self.add_counter(name, delta);
        self.record(Event {
            ts_micros: self.clock().now_micros(),
            kind: EventKind::Counter,
            name,
            track,
            fields: crate::fields! { "value" => total },
        });
    }
}

/// Number of log-scale histogram buckets (base-2, covering `2^-30` up to
/// `2^33`, i.e. sub-nanosecond seconds up to billions of samples).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent of the lower bound of bucket 1 (`2^HISTOGRAM_MIN_EXP`).
pub const HISTOGRAM_MIN_EXP: i32 = -30;

/// A fixed-bucket log-scale histogram.
///
/// Bucket 0 collects zero, negative, and non-finite values; bucket `i`
/// (for `i >= 1`) collects values in
/// `[2^(MIN_EXP + i - 1), 2^(MIN_EXP + i))`, with the top bucket also
/// absorbing overflow. Fixed bucket edges keep merged and re-run
/// histograms directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Per-bucket exemplar slots: the id (request id, sample index…) of
    /// the *first* observation that landed in each bucket, when the
    /// observer offered one via [`Histogram::observe_exemplar`]. Links an
    /// anonymous tail bucket back to a concrete trace.
    pub exemplars: [Option<u64>; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            exemplars: [None; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// The bucket index `value` falls into. The binary exponent
    /// `floor(log2(value))` is read from the IEEE exponent field, which is
    /// exact for every normal value (a libm `log2` can round a value a
    /// few ulps below `2^k` up to `k`); a subnormal reads `-1023`, far
    /// below bucket 1, so it lands in bucket 0 as its true exponent would.
    #[must_use]
    fn bucket_index(value: f64) -> usize {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        (exp - HISTOGRAM_MIN_EXP + 1).clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Records one observation and offers `exemplar` for its bucket.
    ///
    /// Slots follow a deterministic keep-first rule: the first exemplar
    /// offered to a bucket sticks for the lifetime of the histogram (one
    /// "roll" of the window for rolling consumers); later observations
    /// never evict it. Replays of the same observation stream therefore
    /// reproduce the same exemplars bit-for-bit.
    pub fn observe_exemplar(&mut self, value: f64, exemplar: u64) {
        let bucket = Self::bucket_index(value);
        if self.exemplars[bucket].is_none() {
            self.exemplars[bucket] = Some(exemplar);
        }
        self.observe(value);
    }

    /// The exemplar id held by `bucket`, if any observation offered one.
    #[must_use]
    pub fn exemplar(&self, bucket: usize) -> Option<u64> {
        self.exemplars.get(bucket).copied().flatten()
    }

    /// Mean of the observed values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile observation
    /// (`q` in `[0, 1]`), a conservative log-scale estimate.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                if i == 0 {
                    return 0.0;
                }
                return f64::powi(2.0, HISTOGRAM_MIN_EXP + i as i32);
            }
        }
        self.max
    }

    /// Index of the bucket containing the `q`-quantile observation, or
    /// `None` when the histogram is empty. Pair with
    /// [`Histogram::exemplar`] to pull a concrete trace out of the tail:
    /// `h.quantile_bucket(0.99).and_then(|b| h.exemplar(b))`.
    #[must_use]
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        let mut last_nonempty = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 {
                last_nonempty = i;
            }
            if seen > rank {
                return Some(i);
            }
        }
        Some(last_nonempty)
    }

    /// Median (upper bucket edge).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (upper bucket edge).
    #[must_use]
    fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (upper bucket edge).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (upper bucket edge) — the deep-tail gate the
    /// serving SLO controller reads. Not part of [`ToFields`] so the
    /// committed baseline record schema stays unchanged.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Folds `other` into `self`, as if every observation recorded into
    /// `other` had been recorded here instead.
    ///
    /// Because the bucket edges are fixed (never rescaled to the data),
    /// merging is exact on buckets, counts, min and max — commutative
    /// *and* associative bit-for-bit, so sharded histograms (per-replica,
    /// per-window) combine into the same quantile estimates regardless of
    /// merge order. Only `sum` is subject to f64 rounding: commutative
    /// exactly (a+b == b+a), associative only approximately. Exemplar
    /// slots keep-first across the merge too — `self`'s exemplar wins
    /// when both sides hold one — so merging shards in time order
    /// preserves the keep-first law of the combined stream (and makes
    /// exemplars the one field where merge order matters).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        for (e, &o) in self.exemplars.iter_mut().zip(&other.exemplars) {
            *e = e.or(o);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Summary view of a histogram: count, sum, min/max/mean, and the
/// `p50/p90/p99` percentile estimates — what reports and the profiler
/// attach to events instead of 64 raw buckets.
impl ToFields for Histogram {
    fn to_fields(&self) -> Fields {
        let (min, max) = if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        crate::fields! {
            "count" => self.count,
            "sum" => self.sum,
            "min" => min,
            "max" => max,
            "mean" => self.mean(),
            "p50" => self.p50(),
            "p90" => self.p90(),
            "p99" => self.p99(),
        }
    }
}

/// Shared counter/histogram aggregation used by the concrete recorders.
#[derive(Debug, Default)]
pub(crate) struct MetricsCore {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsCore {
    pub(crate) fn add_counter(&self, name: &str, delta: u64) -> u64 {
        let mut counters = self.counters.lock().expect("counter lock");
        let slot = counters.entry(name.to_string()).or_insert(0);
        *slot += delta;
        *slot
    }

    pub(crate) fn observe(&self, name: &str, value: f64) {
        let mut hists = self.histograms.lock().expect("histogram lock");
        hists.entry(name.to_string()).or_default().observe(value);
    }

    pub(crate) fn observe_exemplar(&self, name: &str, value: f64, exemplar: u64) {
        let mut hists = self.histograms.lock().expect("histogram lock");
        hists
            .entry(name.to_string())
            .or_default()
            .observe_exemplar(value, exemplar);
    }

    pub(crate) fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.lock().expect("counter lock").clone()
    }

    pub(crate) fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms
            .lock()
            .expect("histogram lock")
            .get(name)
            .cloned()
    }
}

/// A recorder that aggregates nothing and keeps no events — the zero-cost
/// default wired into every instrumented driver. Its clock still runs, so
/// code can advance time unconditionally.
#[derive(Debug, Default)]
pub struct NullRecorder {
    clock: VirtualClock,
}

impl NullRecorder {
    /// A fresh null recorder at time zero.
    pub fn new() -> Self {
        NullRecorder::default()
    }
}

impl Recorder for NullRecorder {
    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}

    fn add_counter(&self, _name: &str, _delta: u64) -> u64 {
        0
    }

    fn observe(&self, _name: &str, _value: f64) {}

    // Skip building Event values the base methods would discard.
    fn span_start(&self, track: u32, name: &'static str, _fields: Fields) -> SpanId {
        SpanId { name, track }
    }

    fn span_end(&self, _span: SpanId, _fields: Fields) {}

    fn instant(&self, _track: u32, _name: &'static str, _fields: Fields) {}

    fn counter(&self, _track: u32, _name: &'static str, _delta: u64) {}
}

/// A recorder that keeps the complete event timeline in memory, plus
/// counter and histogram aggregates — the source for the exporters.
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    clock: VirtualClock,
    events: Mutex<Vec<Event>>,
    metrics: MetricsCore,
}

impl TimelineRecorder {
    /// An empty timeline at time zero.
    pub fn new() -> Self {
        TimelineRecorder::default()
    }

    /// A copy of every recorded event, in record order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("event lock").clone()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("event lock").len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.metrics.counters()
    }

    /// Snapshot of the named histogram, if observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.metrics.histogram(name)
    }
}

impl Recorder for TimelineRecorder {
    fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn record(&self, event: Event) {
        self.events.lock().expect("event lock").push(event);
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

    #[test]
    fn timeline_records_span_edges_in_order() {
        let rec = TimelineRecorder::new();
        let span = rec.span_start(0, "epoch", fields! { "epoch" => 0usize });
        rec.clock().advance(2.0);
        rec.instant(1, "crash", fields! { "worker" => 1u32 });
        rec.clock().advance(1.0);
        rec.span_end(span, fields! { "loss" => 0.25 });
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].ts_micros, 0);
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[1].ts_micros, 2_000_000);
        assert_eq!(events[2].kind, EventKind::SpanEnd);
        assert_eq!(events[2].name, "epoch");
        assert_eq!(events[2].ts_micros, 3_000_000);
    }

    #[test]
    fn counters_accumulate_and_sample() {
        let rec = TimelineRecorder::new();
        rec.counter(0, "samples", 64);
        rec.counter(0, "samples", 64);
        assert_eq!(rec.counters()["samples"], 128);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].fields[0].1, crate::FieldValue::U64(128));
    }

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        let top = HISTOGRAM_BUCKETS as i32 - 1;
        let bucket_of_exp = |e: i32| (e - HISTOGRAM_MIN_EXP + 1).clamp(0, top) as usize;
        // Every edge across the range and past both ends: 2^k opens its
        // bucket and the largest value below it closes the one before.
        for k in HISTOGRAM_MIN_EXP - 3..=HISTOGRAM_MIN_EXP + top + 3 {
            let edge = 2f64.powi(k);
            assert_eq!(Histogram::bucket_index(edge), bucket_of_exp(k), "2^{k}");
            let below = edge.next_down();
            assert_eq!(
                Histogram::bucket_index(below),
                bucket_of_exp(k - 1),
                "2^{k} - 1 ulp"
            );
            assert_eq!(Histogram::bucket_index(edge.next_up()), bucket_of_exp(k));
        }
        assert_eq!(Histogram::bucket_index(f64::MIN_POSITIVE), 0);
        assert_eq!(Histogram::bucket_index(f64::MAX), HISTOGRAM_BUCKETS - 1);
        // Subnormals, zeros, negatives, infinities and NaN go to bucket 0.
        for v in [
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE.next_down(),
            0.0,
            -0.0,
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert_eq!(Histogram::bucket_index(v), 0, "{v:e}");
        }
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        // 1.0 = 2^0 -> exponent 0 -> bucket 0 - (-30) + 1 = 31
        assert_eq!(Histogram::bucket_index(1.0), 31);
        assert_eq!(Histogram::bucket_index(2.0), 32);
        assert_eq!(Histogram::bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::default();
        for v in [0.5, 1.0, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert!((h.mean() - 1.875).abs() < 1e-12);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 4.0);
        assert!(h.quantile(0.0) <= h.quantile(1.0));
    }

    #[test]
    fn out_of_order_span_closes_keep_timestamps_monotonic() {
        // Spans closed LIFO-violating order (outer before inner, or
        // interleaved across tracks) must still produce a monotone
        // timeline: every timestamp comes from the shared VirtualClock,
        // which never runs backwards even when a driver calls `set` with
        // a stale local accumulator between the closes.
        let rec = TimelineRecorder::new();
        let outer = rec.span_start(0, "outer", fields!());
        rec.clock().advance(1.0);
        let inner = rec.span_start(1, "inner", fields!());
        rec.clock().advance(1.0);
        rec.span_end(outer, fields!()); // closes before inner: not LIFO
        rec.clock().set(0.5); // stale absolute time: must not rewind
        rec.span_end(inner, fields!());
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert!(
            events.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros),
            "timeline went backwards: {:?}",
            events.iter().map(|e| e.ts_micros).collect::<Vec<_>>()
        );
        // End edges keep the identity of the span they close, not the
        // most recently opened one.
        assert_eq!(events[2].name, "outer");
        assert_eq!(events[2].track, 0);
        assert_eq!(events[3].name, "inner");
        assert_eq!(events[3].track, 1);
        assert_eq!(events[3].ts_micros, 2_000_000);
    }

    #[test]
    fn histogram_percentile_summary_exports_through_to_fields() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(f64::from(i));
        }
        // Log-scale buckets give upper-edge estimates: each percentile is
        // an upper bound within one power of two of the true value.
        for (q, truth) in [(0.50, 50.0), (0.90, 90.0), (0.99, 99.0)] {
            let est = h.quantile(q);
            assert!(
                est >= truth && est <= truth * 2.0,
                "q{q}: estimate {est} not in [{truth}, {}]",
                truth * 2.0
            );
        }
        let fields = h.to_fields();
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_f64())
                .unwrap_or_else(|| panic!("missing field {key}"))
        };
        assert_eq!(get("count"), 100.0);
        assert_eq!(get("min"), 1.0);
        assert_eq!(get("max"), 100.0);
        assert!(get("p50") <= get("p90") && get("p90") <= get("p99"));
        assert_eq!(get("p50"), h.p50());
        assert_eq!(get("p99"), h.p99());
    }

    #[test]
    fn tail_percentiles_under_heavy_skew() {
        // 10_000 observations, ~1ms fast path with a 0.5% tail at ~4s:
        // the body percentiles must stay in the fast band while p999
        // lands in the tail band. This is exactly the shape the serving
        // SLO gate reads (a mostly-fast service with rare stalls).
        let mut h = Histogram::default();
        for i in 0..10_000u32 {
            if i % 200 == 199 {
                h.observe(4.0); // rare stall
            } else {
                h.observe(1e-3); // fast path
            }
        }
        assert_eq!(h.count, 10_000);
        // Upper-edge estimates: within one power of two of the truth.
        assert!(h.p50() >= 1e-3 && h.p50() <= 2e-3, "p50 = {}", h.p50());
        assert!(h.p99() >= 1e-3 && h.p99() <= 2e-3, "p99 = {}", h.p99());
        assert!(h.p999() >= 4.0 && h.p999() <= 8.0, "p999 = {}", h.p999());
        assert!(h.p99() < h.p999(), "tail must separate from the body");
        assert_eq!(h.max, 4.0);
    }

    #[test]
    fn p999_distinguishes_tails_p99_cannot_see() {
        // Two latency profiles identical through p99 — only the deep
        // tail differs. p999 must separate them; p99 must not.
        let mut bounded = Histogram::default();
        let mut stalls = Histogram::default();
        for i in 0..100_000u32 {
            bounded.observe(2e-3);
            if i % 500 == 499 {
                stalls.observe(16.0); // 0.2% deep stalls
            } else {
                stalls.observe(2e-3);
            }
        }
        assert_eq!(bounded.p99(), stalls.p99(), "p99 blind to a 0.2% tail");
        assert!(stalls.p999() >= 16.0, "p999 = {}", stalls.p999());
        assert!(bounded.p999() <= 4e-3, "p999 = {}", bounded.p999());
        // Monotone through the tail: quantile is non-decreasing in q.
        for qs in [[0.5, 0.9], [0.9, 0.99], [0.99, 0.999], [0.999, 1.0]] {
            assert!(stalls.quantile(qs[0]) <= stalls.quantile(qs[1]));
        }
    }

    #[test]
    fn empty_histogram_summary_is_all_zeros() {
        let h = Histogram::default();
        for (k, v) in h.to_fields() {
            assert_eq!(v.as_f64(), Some(0.0), "field {k} should be 0 when empty");
        }
    }

    /// Deterministic pseudo-random value stream for the merge-law tests
    /// (xorshift over a seed; spans ~12 orders of magnitude plus the
    /// degenerate bucket-0 values).
    fn value_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match i % 7 {
                    0 => 0.0,
                    1 => -((s % 100) as f64),
                    _ => (s % 1_000_000) as f64 * 1e-9 * f64::powi(10.0, (s % 12) as i32 - 6),
                }
            })
            .collect()
    }

    fn hist_of(values: &[f64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.observe(v);
        }
        h
    }

    /// Exact equality on everything but `sum` (f64 addition is not
    /// associative, so `sum` only merges approximately).
    fn assert_merge_equal(a: &Histogram, b: &Histogram, ctx: &str) {
        assert_eq!(a.buckets, b.buckets, "{ctx}: buckets");
        assert_eq!(a.count, b.count, "{ctx}: count");
        assert_eq!(a.min.to_bits(), b.min.to_bits(), "{ctx}: min");
        assert_eq!(a.max.to_bits(), b.max.to_bits(), "{ctx}: max");
        let scale = a.sum.abs().max(1.0);
        assert!(
            (a.sum - b.sum).abs() <= 1e-9 * scale,
            "{ctx}: sum {} vs {}",
            a.sum,
            b.sum
        );
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                a.quantile(q).to_bits(),
                b.quantile(q).to_bits(),
                "{ctx}: quantile({q})"
            );
        }
    }

    #[test]
    fn merge_equals_observing_everything_in_one_histogram() {
        // The merge law: merge(hist(A), hist(B)) == hist(A ++ B), exactly,
        // for buckets/count/min/max and therefore every quantile.
        for seed in [3u64, 17, 4242] {
            let a = value_stream(seed, 97);
            let b = value_stream(seed.wrapping_mul(31), 61);
            let mut merged = hist_of(&a);
            merged.merge(&hist_of(&b));
            let mut combined: Vec<f64> = a.clone();
            combined.extend(&b);
            assert_merge_equal(&merged, &hist_of(&combined), "merge law");
        }
    }

    #[test]
    fn merge_is_commutative() {
        for seed in [7u64, 99, 1234] {
            let a = hist_of(&value_stream(seed, 80));
            let b = hist_of(&value_stream(seed + 1, 120));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab.buckets, ba.buckets);
            assert_eq!(ab.count, ba.count);
            // f64 addition is exactly commutative, so sum matches to the bit.
            assert_eq!(ab.sum.to_bits(), ba.sum.to_bits(), "a+b == b+a exactly");
            assert_eq!(ab.min.to_bits(), ba.min.to_bits());
            assert_eq!(ab.max.to_bits(), ba.max.to_bits());
        }
    }

    #[test]
    fn merge_is_associative() {
        for seed in [11u64, 210, 90_001] {
            let a = hist_of(&value_stream(seed, 50));
            let b = hist_of(&value_stream(seed + 2, 70));
            let c = hist_of(&value_stream(seed + 4, 30));
            let mut ab_c = a.clone();
            ab_c.merge(&b);
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_merge_equal(&ab_c, &a_bc, "associativity");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = hist_of(&value_stream(5, 40));
        let mut merged = h.clone();
        merged.merge(&Histogram::default());
        assert_eq!(merged, h, "right identity");
        let mut from_empty = Histogram::default();
        from_empty.merge(&h);
        assert_eq!(from_empty, h, "left identity");
        let mut both = Histogram::default();
        both.merge(&Histogram::default());
        assert_eq!(both.count, 0);
        assert_eq!(both.to_fields(), Histogram::default().to_fields());
    }

    #[test]
    fn exemplars_keep_first_per_bucket_deterministically() {
        let mut h = Histogram::default();
        h.observe(1.5); // no exemplar offered: slot stays empty
        assert_eq!(h.exemplar(Histogram::bucket_index(1.5)), None);
        h.observe_exemplar(1.5, 7);
        h.observe_exemplar(1.9, 8); // same bucket: first offer sticks
        h.observe_exemplar(64.0, 42);
        assert_eq!(h.exemplar(Histogram::bucket_index(1.5)), Some(7));
        assert_eq!(h.exemplar(Histogram::bucket_index(64.0)), Some(42));
        assert_eq!(h.count, 4);
        // Replaying the same stream reproduces the same slots.
        let mut replay = Histogram::default();
        replay.observe(1.5);
        replay.observe_exemplar(1.5, 7);
        replay.observe_exemplar(1.9, 8);
        replay.observe_exemplar(64.0, 42);
        assert_eq!(h, replay);
    }

    #[test]
    fn exemplar_merge_preserves_keep_first_of_the_combined_stream() {
        // Property: splitting a stream at any point and merging the two
        // halves in time order yields exactly the exemplars of observing
        // the whole stream into one histogram.
        let ids: Vec<u64> = (0..200).collect();
        let values = value_stream(77, 200);
        let mut whole = Histogram::default();
        for (&v, &id) in values.iter().zip(&ids) {
            whole.observe_exemplar(v, id);
        }
        for split in [0usize, 1, 50, 199, 200] {
            let mut early = Histogram::default();
            let mut late = Histogram::default();
            for (i, (&v, &id)) in values.iter().zip(&ids).enumerate() {
                if i < split {
                    early.observe_exemplar(v, id);
                } else {
                    late.observe_exemplar(v, id);
                }
            }
            early.merge(&late);
            assert_eq!(early.exemplars, whole.exemplars, "split at {split}");
            assert_eq!(early.buckets, whole.buckets, "split at {split}");
        }
    }

    #[test]
    fn quantile_bucket_links_tail_to_exemplar() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_bucket(0.99), None, "empty has no bucket");
        for i in 0..1000u64 {
            if i == 500 {
                h.observe_exemplar(8.0, 99_999); // lone deep-tail stall
            } else {
                h.observe_exemplar(1e-3, i);
            }
        }
        let body = h.quantile_bucket(0.50).expect("non-empty");
        assert_eq!(body, Histogram::bucket_index(1e-3));
        assert_eq!(h.exemplar(body), Some(0), "first fast request sticks");
        let tail = h.quantile_bucket(1.0).expect("non-empty");
        assert_eq!(tail, Histogram::bucket_index(8.0));
        assert_eq!(h.exemplar(tail), Some(99_999), "tail names the stall");
    }

    #[test]
    fn exemplars_do_not_change_the_exported_summary_schema() {
        // Byte-stability property: an exemplar-carrying histogram exports
        // the same summary fields (and the same JSON bytes) as the same
        // observations without exemplars — exemplars ride alongside, they
        // never perturb the committed baseline schema.
        let values = value_stream(13, 150);
        let mut plain = Histogram::default();
        let mut tagged = Histogram::default();
        for (i, &v) in values.iter().enumerate() {
            plain.observe(v);
            tagged.observe_exemplar(v, i as u64);
        }
        assert_eq!(plain.to_fields(), tagged.to_fields());
        assert_eq!(
            crate::export::fields_to_json(&plain.to_fields()),
            crate::export::fields_to_json(&tagged.to_fields()),
        );
    }

    #[test]
    fn recorder_observe_exemplar_aggregates_and_defaults_degrade() {
        let rec = TimelineRecorder::new();
        rec.observe_exemplar("lat", 2.0, 17);
        rec.observe_exemplar("lat", 2.5, 18);
        let h = rec.histogram("lat").expect("observed");
        assert_eq!(h.count, 2);
        assert_eq!(h.exemplar(Histogram::bucket_index(2.0)), Some(17));
        // Flight recorder aggregates too; null recorder stays silent.
        let flight = crate::FlightRecorder::new(4);
        flight.observe_exemplar("lat", 2.0, 3);
        assert_eq!(flight.histogram("lat").expect("observed").count, 1);
        NullRecorder::new().observe_exemplar("lat", 2.0, 3);
    }

    #[test]
    fn null_recorder_reports_disabled_others_enabled() {
        assert!(!NullRecorder::new().enabled());
        assert!(TimelineRecorder::new().enabled());
        assert!(crate::FlightRecorder::new(4).enabled());
    }

    #[test]
    fn null_recorder_discards_everything_but_keeps_time() {
        let rec = NullRecorder::new();
        let span = rec.span_start(0, "x", fields! { "a" => 1u64 });
        rec.clock().advance(1.0);
        rec.span_end(span, fields!());
        rec.counter(0, "c", 10);
        assert_eq!(rec.add_counter("c", 5), 0);
        assert_eq!(rec.clock().now_micros(), 1_000_000);
    }

    #[test]
    fn recorder_is_object_safe_and_sharable() {
        let rec: std::sync::Arc<dyn Recorder> = std::sync::Arc::new(TimelineRecorder::new());
        let span = rec.span_start(0, "s", fields!());
        rec.span_end(span, fields!());
    }
}
