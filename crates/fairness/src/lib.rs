//! # dl-fairness
//!
//! Responsible deep learning, dimension one: **fairness** (tutorial §4.1).
//!
//! The tutorial frames unfairness as entering at two levels — the data
//! (biased labels and proxies) and the algorithm (what the model amplifies)
//! — and surveys interventions at both. This crate implements the
//! measurement side and one intervention per level:
//!
//! * [`metrics`] — group fairness metrics over binary classifiers:
//!   demographic parity, disparate impact, equal opportunity and equalized
//!   odds.
//! * [`mitigate`] — interventions:
//!   * **reweighing** (pre-processing): weight training samples so group
//!     and label become statistically independent,
//!   * **adversarial debiasing** (in-processing): an adversary tries to
//!     recover the protected attribute from the predictor's outputs; the
//!     predictor is penalized for leaking it,
//!   * **threshold adjustment** (post-processing): per-group decision
//!     thresholds chosen to equalize positive rates.
//!
//! The ground-truth bias knob lives in `dl-data::census`, so experiments
//! can sweep actual injected bias against what these metrics recover.

#![warn(missing_docs)]

pub mod metrics;
pub mod mitigate;

pub use metrics::{FairnessReport, GroupConfusion};
pub use mitigate::{
    adversarial_debias, threshold_adjust, threshold_equal_opportunity, train_reweighed,
    AdversarialConfig, MitigationResult,
};
