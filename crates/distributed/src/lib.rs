//! # dl-distributed
//!
//! Distributed deep learning on a **simulated cluster** (the substitution
//! for the GPU clusters the tutorial's Part 1 assumes — see `DESIGN.md`).
//! The simulator models devices with compute rates and links with bandwidth
//! and latency; training code runs real networks on real data shards, while
//! time and bytes are charged against the cost model. That keeps both sides
//! of every claim measurable: statistical efficiency (real accuracy) and
//! hardware efficiency (simulated seconds and bytes).
//!
//! * [`sim`] — the cluster cost model.
//! * [`datapar`] — synchronous data-parallel SGD and **Local SGD**
//!   (§2.1: relaxing the freshness constraint to cut communication), plus
//!   the round-robin shards and per-worker sampling streams every training
//!   driver here draws minibatches from.
//! * [`gradcomp`] — **gradient compression**: top-k sparsification and
//!   low-bit quantization with error feedback.
//! * [`priority`] — **priority-based parameter propagation**: overlapping
//!   communication with compute, scheduling first-needed-first.
//! * [`flexflow`] — **optimize-then-parallelize**: an MCMC search over
//!   layer-to-device placements driven by the simulator (§2.2).
//! * [`morph`] — **MorphNet-style** iterative width optimization under a
//!   resource budget (§2.2).
//! * [`fault`] — deterministic, seeded **fault injection**: crash/rejoin,
//!   link degradation and straggler schedules from MTBF/MTTR profiles.
//! * [`checkpoint`] — checkpoint/restore of training state with a
//!   simulated storage cost model.
//! * [`resilient`] — **elastic Local SGD**: crash detection, group
//!   re-formation, checkpoint rollback, allreduce retry with backoff. Its
//!   loop is the crate's only Local SGD loop; [`local_sgd`] runs it with
//!   an empty [`FaultPlan`].

#![warn(missing_docs)]

pub mod checkpoint;
pub mod datapar;
pub mod fault;
pub mod flexflow;
pub mod gradcomp;
pub mod morph;
pub mod priority;
pub mod resilient;
pub mod sim;

pub use checkpoint::{Checkpoint, CheckpointStore, StorageProfile};
pub use datapar::{local_sgd, local_sgd_traced, LocalSgdConfig, LocalSgdReport};
pub use fault::{FaultEvent, FaultPlan, FaultProfile, FaultTable};
pub use flexflow::{
    data_parallel_cost, optimize_placement, Placement, PlacementSearchConfig, StrategyCost,
};
pub use gradcomp::{compressed_sgd, compressed_sgd_opts, GradCompressionReport, GradCompressor};
pub use morph::{morph_resize, uniform_baseline, MorphConfig, MorphReport};
pub use priority::{schedule_backward_comm, CommSchedule, LayerComm, SchedulePolicy};
pub use resilient::{
    resilient_local_sgd, resilient_local_sgd_traced, BackoffPolicy, ResilienceReport,
    ResilientConfig,
};
pub use sim::{Cluster, Device, Link};
