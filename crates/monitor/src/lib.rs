//! # dl-monitor
//!
//! Online monitoring for the serving tier: the paper's Part-3
//! responsibility agenda demands that a deployed system *knows* when it
//! is degrading, not merely that it can be profiled after the fact. This
//! crate closes that loop with four pieces, all deterministic on
//! `dl_obs::VirtualClock` and dependency-free beyond `dl-obs`:
//!
//! * **Streaming aggregation primitives** ([`sketch`], [`window`]) —
//!   sliding windows of `dl_obs::Histogram`s on its fixed log-bucket
//!   grid (so window merges obey an exact merge law), sliding
//!   time-window counters/rates with a
//!   documented empty-window convention, and EWMA gauges.
//! * **The monitor pipeline** ([`Monitor`]) — a [`dl_obs::Recorder`]
//!   *tap*: it forwards every event unchanged to an inner recorder while
//!   folding the serving stream (`serve.admit` / `serve.complete` /
//!   `serve.shed` / `cluster.crash` / ...) into per-replica and
//!   fleet-level live series: p50/p99/p999 latency, shed/loss/downgrade
//!   rates, queue depth, and a replica health score.
//! * **An SLO rules engine** ([`slo`]) — declarative [`SloRule`]s
//!   (latency-quantile targets, fast/slow-window error-budget burn
//!   rates, health floors) evaluated on every window roll, emitting
//!   typed [`Alert`] instants into the trace and the final
//!   [`MonitorReport`].
//! * **Drift detection** ([`drift`]) — a [`ReferenceProfile`] captured
//!   from training data, compared against sliding windows of served
//!   inputs (PSI) and predicted-class distributions (KL divergence).
//!
//! Because the monitor only *reads* the event stream, attaching it never
//! changes what the instrumented driver does: a fault-free serving run
//! with a monitor tapping a `TimelineRecorder` produces a bit-identical
//! report, latency histogram, and timeline (alert instants only appear
//! when an alert actually fires), and the `NullRecorder` fast path is
//! untouched.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod monitor;
pub mod sketch;
pub mod slo;
pub mod window;

pub use drift::{psi, DriftConfig, DriftDetector, DriftStatus, ReferenceProfile};
pub use monitor::{Monitor, MonitorConfig, MonitorReport, SeriesSummary};
pub use sketch::WindowedSketch;
pub use slo::{Alert, AlertKind, SloRule};
pub use window::{Ewma, RateWindow, WindowCounter};
