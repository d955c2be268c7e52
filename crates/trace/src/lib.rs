//! dl-trace: per-request causal tracing and tail-latency attribution
//! over the `dl-obs` event stream.
//!
//! The serving stack already narrates itself through [`dl_obs::Recorder`]
//! — admissions, batches, completions, crashes. This crate closes the
//! loop from that narration back to *individual requests*:
//!
//! 1. **Schema** ([`context`]): [`ServeEvent`], the typed schema of
//!    every per-request edge — admission, batch membership, completion,
//!    dispatch decisions (primary / retry / hedge), hedge dedup losses,
//!    terminal losses — plus replica crashes and rejoins. The engine emits these as typed
//!    values through `Recorder::typed_instant`; [`ServeEvent`]'s
//!    `fields()` is the one writer of their field layout and
//!    [`ServeEvent::decode`] the one reader, shared with
//!    `dl_monitor::Monitor`.
//! 2. **Collection** ([`tracer`]): [`Tracer`], a pure forwarding tap in
//!    the style of `dl_monitor::Monitor` — the inner recorder sees the
//!    exact untapped stream (byte-identical timelines), while the tap
//!    keeps a compact `(ts, ServeEvent)` record of the per-request subset,
//!    taken from typed events without a decode.
//! 3. **Reconstruction** ([`waterfall`]): [`TraceSet::reconstruct`]
//!    rebuilds each request's lifecycle into typed phases whose integer
//!    microsecond durations telescope *exactly* to the end-to-end
//!    latency, cross-checked against the engine report's own
//!    served/shed/lost/unavailable accounting.
//! 4. **Attribution** ([`attribution`]): p50/p99 decomposition by phase
//!    and by replica, top-k slowest waterfalls, a byte-stable JSON
//!    export, and Chrome flow arrows for router→replica handoffs and
//!    hedge races.
//!
//! Everything runs on the deterministic virtual clock; a traced run is
//! bit-identical to an untraced one because tracing only ever *observes*
//! the recorder stream, never the simulation state.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attribution;
pub mod context;
pub mod tracer;
pub mod waterfall;

pub use attribution::{
    by_replica, flows, phase_breakdown, render_requests, requests_json, tail_mean_phase_us,
    PhaseBreakdown, ReplicaBreakdown,
};
pub use context::{DispatchKind, FlushTrigger, ServeEvent};
pub use tracer::Tracer;
pub use waterfall::{BatchRef, Outcome, OutcomeCounts, Phase, RequestTrace, TraceSet, PHASE_COUNT};
