//! # dl-green
//!
//! Environmental impact of deep learning (tutorial §4.3): energy and
//! carbon accounting in the style of the Machine Learning Emissions
//! Calculator and the Green Algorithms project, plus a carbon-aware job
//! scheduler.
//!
//! * [`energy`] — hardware profiles (TDP, sustained FLOP/s, achievable
//!   utilization) turn FLOP counts from `dl-nn`'s cost model into
//!   kilowatt-hours; datacenter PUE multiplies in overhead.
//! * [`carbon`] — regional grid carbon intensities convert energy into
//!   gCO2e, with the calculator-style per-run report.
//! * [`scheduler`] — a carbon-aware scheduler that places training jobs
//!   across regions and hours to minimize emissions under deadline
//!   constraints, against a naive first-fit baseline.
//!
//! The published constants encoded here (TDPs, PUEs, regional
//! intensities) are documented inline; everything else is arithmetic over
//! the workspace's deterministic FLOP counts.

#![warn(missing_docs)]

pub mod carbon;
pub mod energy;
pub mod scheduler;

pub use carbon::{CarbonReport, Region};
pub use energy::{EnergyReport, HardwareProfile};
pub use scheduler::{schedule_jobs, Job, ScheduleOutcome, SchedulePolicy};
