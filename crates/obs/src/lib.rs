//! # dl-obs
//!
//! The workspace's observability layer: structured tracing, metrics, and
//! a flight recorder, shared by training (`dl-nn`), the distributed
//! simulator (`dl-distributed`), and the experiment harness (`dl-bench`).
//!
//! The tutorial's thesis is that deep learning must be treated as a data
//! system — and data systems are *instrumented*: the tradeoff space
//! (accuracy / time / memory / energy) can only be navigated once every
//! phase of a run is measured uniformly. This crate supplies that uniform
//! layer:
//!
//! * [`Recorder`] — span-style structured events ([`Recorder::span_start`]
//!   / [`Recorder::span_end`] / [`Recorder::instant`]) carrying typed
//!   key-value [`Fields`], plus monotonic counters and log-scale
//!   [`Histogram`]s. A hot emitter can pass a [`TypedEvent`] to
//!   [`Recorder::typed_instant`] instead: a recorder that keeps events
//!   stores it as `instant(ev.name(), ev.fields())`, a tap that knows
//!   the type downcasts it and reads it without a field list, and the
//!   [`NullRecorder`] builds nothing.
//! * [`VirtualClock`] — deterministic simulated time. Instrumented code
//!   mirrors its simulated-seconds accounting into the clock; **no wall
//!   clock is ever read**, so a seeded run exports a byte-identical trace
//!   every time.
//! * [`TimelineRecorder`] — the full in-memory timeline, and
//!   [`FlightRecorder`] — a bounded ring that keeps only the last N
//!   events for post-mortem dumps of long runs.
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and JSON-lines, written through any
//!   `std::io::Write` sink so tests capture in-memory.
//! * [`ToFields`] — the single serialization path for the workspace's
//!   report structs (the distributed and serving reports), shared
//!   between event annotations and the bench harness's JSON records.
//!
//! The crate is dependency-free and `unsafe`-free, so any workspace crate
//! can emit events without dependency cycles.
//!
//! ```
//! use dl_obs::{fields, Recorder, TimelineRecorder, export};
//!
//! let rec = TimelineRecorder::new();
//! let span = rec.span_start(0, "epoch", fields! { "epoch" => 0usize });
//! rec.clock().advance(0.125); // simulated seconds, not wall time
//! rec.counter(0, "train.samples", 512);
//! rec.span_end(span, fields! { "loss" => 0.71 });
//! let trace = export::chrome_trace_to_string(&rec.events());
//! assert!(trace.contains("\"name\":\"epoch\""));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod field;
pub mod flight;
pub mod recorder;

pub use clock::VirtualClock;
pub use export::{Flow, FlowPhase};
pub use field::{find_field, FieldValue, Fields, ToFields};
pub use flight::FlightRecorder;
pub use recorder::{
    Event, EventKind, Histogram, NullRecorder, Recorder, SpanId, TimelineRecorder, TypedEvent,
};
