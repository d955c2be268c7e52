//! `dl-serve` — SLO-aware inference serving over the dl-sys stack.
//!
//! The ROADMAP's north star serves "heavy traffic from millions of users,
//! as fast as the hardware allows"; every crate so far lives on the
//! training side of that sentence. This crate is the inference side:
//!
//! 1. **Variant registry** ([`build_family`]): one trained dl-nn teacher
//!    is materialized into the tutorial's whole Part-1 menu — int8
//!    quantized, magnitude-pruned, distilled, MorphNet-resized and
//!    snapshot-ensembled — each measured for accuracy and for its
//!    eval-mode forward cost at every batch size.
//! 2. **Dynamic batcher** ([`BatchPolicy`]): per-variant queues flushed
//!    by max-batch / max-delay, executing the *batched* dl-nn forward so
//!    the speedup is a measured kernel-level property (weights read once
//!    per batch), not scheduler bookkeeping.
//! 3. **Admission controller** ([`AdmissionPolicy`]): predicts queue
//!    delay from the measured cost tables and downgrades to a cheaper
//!    variant — or sheds — when the prediction would bust the p99 SLO.
//! 4. **Engine** ([`serve`]): a deterministic event-driven simulation on
//!    `dl_obs::VirtualClock`, emitting spans / instants / counters / a
//!    latency histogram through any `Recorder`, bit-identical under
//!    `NullRecorder`.
//!
//! 5. **Cluster tier** ([`serve_cluster`]): N replica engines behind a
//!    deterministic router ([`RouterPolicy`]: round-robin, least-loaded,
//!    power-of-two-choices) on one shared clock, chaos-tested through
//!    `dl_distributed::FaultPlan` — replica crashes with bounded
//!    [`RetryPolicy`] re-routing and hedged duplicates, MTTR rejoins with
//!    cold-queue warmup, degraded links inflating dispatch latency,
//!    per-replica stragglers — plus a reactive autoscaler
//!    ([`AutoscaleConfig`]) sizing the fleet from the observed arrival rate and the family's measured
//!    cost tables.
//! 6. **Persistence & multi-model tier** ([`save_family`] /
//!    [`serve_fleet`]): whole variant families
//!    round-trip bit-identically through `dl-store` artifacts (int8
//!    codes stored packed, never dequantized), a memory-budgeted weight
//!    store per replica hosts many families with LRU or
//!    `dl_memsched`-priced cost-aware eviction ([`EvictionPolicy`]), and [`serve_fleet`]
//!    serves model-tagged traffic with residency-aware routing and
//!    cold-start-aware admission.
//!
//! Items 4–6 are one event loop, not three: it steps replicas × families
//! of replica engines in one written priority order
//! (completion → membership → activation → delivery → hedge → arrival →
//! autoscale → flush, where each replica's flush serves its resident,
//! ready families first and then faults back in families evicted from
//! under their own queue). [`serve`] runs it with one replica, one family
//! and no faults; [`serve_cluster`] with one family served in place plus
//! faults, retries, hedging, dispatch delay and the autoscaler;
//! [`serve_fleet`] with a per-replica weight store. A fault-free
//! one-replica cluster or a preloaded one-family fleet *is* single-node
//! serving — the same loop.
//!
//! The cost-model-driven variant choice follows SystemML's optimizer
//! philosophy (pick the execution plan by a cost model, here measured
//! rather than estimated); the deploy-stage focus follows *Engineering
//! Reliable Deep Learning Systems*.

mod admission;
mod autoscale;
mod batcher;
mod cluster;
mod device;
mod engine;
mod event_loop;
mod fleet;
mod load;
mod persist;
mod report;
mod router;
mod store;
mod variant;

pub use admission::{AdmissionPolicy, PriceTable};
pub use autoscale::{replica_capacity_rps, AutoscaleConfig};
pub use batcher::BatchPolicy;
pub use cluster::{
    serve_cluster, ClusterConfig, ClusterReport, ReplicaReport, RetryPolicy, ScaleEvent,
};
pub use device::DeviceModel;
pub use engine::{serve, ServeConfig};
pub use fleet::{serve_fleet, FleetConfig, FleetReport, ModelRequest};
pub use load::{bursty, open_loop, BurstConfig, LoadConfig, Request};
pub use persist::{load_family, save_family};
pub use report::{percentile, ServeReport, VariantServeStats};
pub use router::RouterPolicy;
pub use store::EvictionPolicy;
pub use variant::{build_family, FamilyConfig, Variant, VariantModel, VariantRegistry};
