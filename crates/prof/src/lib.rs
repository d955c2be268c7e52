//! # dl-prof
//!
//! The profiling and analysis layer on top of `dl-obs`: where PR 2's
//! observability stack records *events*, this crate quantifies *costs* and
//! guards them against regression. Three pillars:
//!
//! * [`cost`] — deterministic cost accounting: drive a network layer by
//!   layer under `dl-tensor`'s [`acct`](dl_tensor::acct) scopes and report
//!   the FLOPs and bytes its kernels *actually executed*, per layer and
//!   per phase, next to the static model from `dl-nn::cost`. Untraced
//!   paths never open a scope, so they stay bit-identical.
//! * [`analyze`](mod@analyze) — trace analysis: consume a `TimelineRecorder` event
//!   stream and decompose wall time into compute / sync / checkpoint /
//!   recovery / replay, extract the critical path through distributed
//!   sync rounds, and attribute lost time to the workers whose crashes
//!   caused it.
//! * [`baseline`] — perf-regression baselines: snapshot an experiment's
//!   numeric record set to `BENCH_<ID>.json`, diff later runs against it
//!   under tolerance bands, and report drifts for CI to gate on.
//!
//! Everything here is deterministic: costs come from instruction-exact
//! kernel accounting, times from the simulated `VirtualClock`, and the
//! baseline files are byte-stable JSON — so a regression signal is a real
//! change in the code, never noise.

#![warn(missing_docs)]

pub mod analyze;
pub mod baseline;
pub mod cost;

pub use analyze::{analyze, runs, SpanStat, TraceProfile, WorkerLostTime};
pub use baseline::{Baseline, Drift, Tolerance};
pub use cost::{LayerProfile, NetworkProfile};
