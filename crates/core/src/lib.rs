//! # dl-core
//!
//! The tutorial's organizing contribution, made executable: a **framework
//! that classifies deep-learning techniques by how they trade off the core
//! metrics** — accuracy, training time, inference time, and memory (plus
//! energy, Part 3's addition).
//!
//! The experiment harness (`dl-bench`) measures every technique in the
//! workspace and registers it here; the navigator then answers the
//! questions the tutorial poses: *which techniques are Pareto-optimal?*
//! and *given my resource constraints, what should I use?*
//!
//! * [`Metrics`] — one measured point in the 5-metric space.
//! * [`Technique`] — a named, categorized measurement.
//! * [`Registry`] — the collection, with JSON persistence so experiment
//!   runs can be accumulated across binaries.
//! * [`TradeoffNavigator`] — Pareto-frontier extraction and
//!   constraint-based recommendation.

#![warn(missing_docs)]

pub mod navigator;
pub mod registry;

pub use navigator::{Constraint, TradeoffNavigator};
pub use registry::{Category, Metrics, Registry, RegistryError, Technique};
