//! # dl-data
//!
//! Synthetic datasets and workload generators for every experiment in the
//! workspace. Real benchmark corpora (MNIST, ImageNet, Census) are not
//! available offline, so each generator here is the closest laptop-scale
//! equivalent that exercises the same code paths (see the substitution
//! table in `DESIGN.md`):
//!
//! * [`clusters`] — Gaussian blobs in arbitrary dimension;
//!   the workhorse for classification, ensembles and t-SNE experiments.
//! * [`digits`] — procedural 12x12 "digit" glyph images with stroke jitter;
//!   a stand-in for MNIST that convolutional layers, quantization and
//!   pruning sweeps run on.
//! * [`census`] — a census-income-like tabular generator with a **ground
//!   truth bias knob**: the correlation between a protected attribute and
//!   the label is a controlled input, which real datasets can never give
//!   you. Feeds the fairness experiments (E15/E16).
//! * [`keys`] — integer key distributions (uniform / lognormal / zipf /
//!   clustered) and range-query workloads for the learned-index and
//!   Bloom-filter experiments (E11/E12).
//! * [`tabular`] — correlated multi-attribute numeric tables plus conjunctive
//!   range predicates with exact ground-truth selectivities (E13).
//! * [`canopy`] — a Data-Canopy-style cache of basic aggregates that makes
//!   repeated exploratory statistics (means, variances, correlations over
//!   arbitrary ranges) reuse work instead of re-scanning (§3, data
//!   exploration).

#![warn(missing_docs)]

pub mod canopy;
pub mod census;
pub mod clusters;
pub mod digits;
pub mod keys;
pub mod tabular;

pub use canopy::{CanopyStats, DataCanopy};
pub use census::{CensusConfig, CensusData};
pub use clusters::{blobs, high_dim_clusters};
pub use digits::{digits_dataset, DIGIT_CLASSES, DIGIT_SIDE};
pub use keys::{KeyDistribution, RangeWorkload};
pub use tabular::{CorrelatedTable, RangePredicate};
