//! # dl-nn
//!
//! A from-scratch neural network framework with the *systems instrumentation*
//! the tutorial's Part 1 calls for. The tutorial frames a deep network as a
//! query-processing pipeline: every layer has **logic and weights**, training
//! tunes the weights, and deployment streams data items through the fixed
//! pipeline. This crate makes that framing literal:
//!
//! * [`layers`] — the pipeline operators ([`Dense`], [`Conv2d`],
//!   [`MaxPool2d`], activations, [`Dropout`], [`BatchNorm1d`]), each with an
//!   explicit `forward`/`backward` pair and cached intermediates, and a
//!   read-only `eval` that caches nothing (the inference path),
//! * [`Network`] — an ordered pipeline of layers with parameter surgery
//!   hooks (used by `dl-compress`) and cost accounting (`dl-store` saves
//!   and loads it),
//! * [`loss`] — softmax cross-entropy and mean-squared-error objectives,
//! * [`optim`] — SGD / momentum / Adam plus learning-rate schedules
//!   (including the cyclic cosine schedule Snapshot Ensembles rely on),
//! * [`train`] — a batching training loop that records, per epoch, the
//!   quality metrics (loss, accuracy) *and* the resource metrics (FLOPs,
//!   parameter bytes, peak activation bytes) the tutorial's tradeoff
//!   framework classifies techniques by,
//! * [`metrics`] — accuracy, confusion matrices, per-group summaries.
//!
//! Everything is seeded and deterministic; no wall-clock time enters any
//! algorithm.

#![warn(missing_docs)]

pub mod cost;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optim;
pub mod train;

pub use cost::{CostProfile, LayerCost};
pub use layers::{BatchNorm1d, Conv2d, Dense, Dropout, Layer, MaxPool2d};
pub use loss::Loss;
pub use network::Network;
pub use optim::{LrSchedule, Optimizer};
pub use train::{Dataset, EpochRecord, TrainConfig, Trainer};
