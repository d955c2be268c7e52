//! # dl-prof
//!
//! The profiling and analysis layer on top of `dl-obs`: where the
//! observability stack records *events*, this crate quantifies *costs*.
//! Two pillars:
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
//!
//! Everything here is deterministic: costs come from instruction-exact
//! kernel accounting and times from the simulated `VirtualClock`, so the
//! experiments that report them pin them byte for byte in their
//! `BENCH_<ID>.json` baselines (written and checked by dl-bench's `exp`).

#![warn(missing_docs)]

pub mod analyze;
pub mod cost;

pub use analyze::{analyze, runs, SpanStat, TraceProfile, WorkerLostTime};
pub use cost::{LayerProfile, NetworkProfile};
