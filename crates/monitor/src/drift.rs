//! Input and prediction drift detection against a training-time
//! reference profile.
//!
//! The deployment-responsibility loop: a model is trained on one
//! distribution, then serves another. The monitor captures a
//! [`ReferenceProfile`] from the *training* data (a scalar feature
//! projection binned into fixed equal-width bins plus two outlier bins)
//! and, per roll window, compares the served distribution against it
//! with **PSI** (population stability index — symmetric, the industry
//! screening statistic) and **KL divergence** (observed from expected).
//! Predicted-class distributions get the same treatment on categorical
//! bins. Both statistics are smoothed with a small epsilon so
//! freshly-empty bins cannot produce infinities; an under-filled window
//! (fewer than `min_samples` observations) abstains rather than alert,
//! so sparse traffic cannot fire false drift alerts.

use std::collections::VecDeque;

/// Smoothing floor applied to every bin probability before the log
/// ratios (keeps PSI/KL finite when a bin is empty on one side).
const DRIFT_EPS: f64 = 1e-6;

/// Population stability index between an expected (reference) and an
/// observed distribution over the same bins.
///
/// `sum_i (o_i - e_i) * ln(o_i / e_i)` with probabilities floored at
/// `DRIFT_EPS` (1e-6). Conventional reading: `< 0.1` stable, `0.1..0.25`
/// moderate shift, `> 0.25` major shift.
///
/// # Panics
/// Panics when the distributions have different lengths.
#[must_use]
pub fn psi(expected: &[f64], observed: &[f64]) -> f64 {
    assert_eq!(expected.len(), observed.len(), "bin grids must match");
    expected
        .iter()
        .zip(observed)
        .map(|(&e, &o)| {
            let e = e.max(DRIFT_EPS);
            let o = o.max(DRIFT_EPS);
            (o - e) * (o / e).ln()
        })
        .sum()
}

/// KL divergence `D(observed || expected)` in nats, with probabilities
/// floored at `DRIFT_EPS` (1e-6).
///
/// # Panics
/// Panics when the distributions have different lengths.
#[must_use]
pub fn kl_divergence(observed: &[f64], expected: &[f64]) -> f64 {
    assert_eq!(expected.len(), observed.len(), "bin grids must match");
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            let e = e.max(DRIFT_EPS);
            let o = o.max(DRIFT_EPS);
            o * (o / e).ln()
        })
        .sum()
}

/// A binned reference distribution captured from training data: `bins`
/// equal-width interior bins between the training min/max, plus an
/// underflow and an overflow bin (so serving-time values outside the
/// training range are *visible* as drift, not clamped away).
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct ReferenceProfile {
    lo: f64,
    width: f64,
    bins: usize,
    probs: Vec<f64>,
}

impl ReferenceProfile {
    /// Builds the profile from raw training-time values.
    ///
    /// # Panics
    /// Panics on empty input, zero bins, or non-finite values.
    pub fn from_values(values: &[f64], bins: usize) -> Self {
        assert!(!values.is_empty(), "reference profile needs data");
        assert!(bins > 0, "need at least one interior bin");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            assert!(v.is_finite(), "reference values must be finite");
            lo = lo.min(v);
            hi = hi.max(v);
        }
        // Degenerate all-equal data still gets a positive-width grid.
        let width = if hi > lo { (hi - lo) / bins as f64 } else { 1.0 };
        let mut counts = vec![0u64; bins + 2];
        let mut profile = ReferenceProfile {
            lo,
            width,
            bins,
            probs: Vec::new(),
        };
        for &v in values {
            counts[profile.bin_of(v)] += 1;
        }
        let n = values.len() as f64;
        profile.probs = counts.iter().map(|&c| c as f64 / n).collect();
        profile
    }

    /// The bin index for `v`: `0` underflow, `1..=bins` interior,
    /// `bins + 1` overflow (non-finite values land in overflow).
    #[must_use]
    fn bin_of(&self, v: f64) -> usize {
        if !v.is_finite() || v >= self.lo + self.width * self.bins as f64 {
            return self.bins + 1;
        }
        if v < self.lo {
            return 0;
        }
        1 + ((v - self.lo) / self.width) as usize
    }

    /// Number of bins including the two outlier bins.
    #[must_use]
    fn n_bins(&self) -> usize {
        self.bins + 2
    }

    /// The reference probability per bin (sums to 1).
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

/// Drift-detection configuration.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct DriftConfig {
    /// Reference over the scalar input-feature projection; `None`
    /// disables input drift.
    pub input_ref: Option<ReferenceProfile>,
    /// Reference predicted-class distribution (length = class count);
    /// `None` disables prediction drift.
    pub pred_ref: Option<Vec<f64>>,
    /// Sliding window length, in closed monitor roll windows.
    pub windows: usize,
    /// Minimum observations in the sliding window before the detector
    /// renders a verdict (abstains below — no sparse false alerts).
    pub min_samples: u64,
    /// PSI above this fires an input-drift alert.
    pub psi_threshold: f64,
    /// KL (nats) above this fires a prediction-drift alert.
    pub kl_threshold: f64,
}

impl DriftConfig {
    /// Validates the knobs.
    ///
    /// # Panics
    /// Panics on zero windows, a non-normalized prediction reference, or
    /// non-positive thresholds.
    pub fn validate(&self) {
        assert!(self.windows > 0, "need at least one window");
        assert!(self.psi_threshold > 0.0, "PSI threshold must be positive");
        assert!(self.kl_threshold > 0.0, "KL threshold must be positive");
        if let Some(p) = &self.pred_ref {
            assert!(!p.is_empty(), "prediction reference needs classes");
            let sum: f64 = p.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "prediction reference must sum to 1, got {sum}"
            );
        }
    }
}

/// The detector's verdict after a window roll.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct DriftStatus {
    /// PSI of the input sliding window vs the reference (`None` while
    /// abstaining: input drift disabled or window under-filled).
    pub input_psi: Option<f64>,
    /// KL of the predicted-class sliding window vs the reference.
    pub pred_kl: Option<f64>,
}

/// Sliding-window drift detector on the monitor's roll grid.
#[derive(Debug, Clone)]
#[must_use]
pub struct DriftDetector {
    cfg: DriftConfig,
    input_windows: VecDeque<Vec<u64>>,
    input_current: Vec<u64>,
    pred_windows: VecDeque<Vec<u64>>,
    pred_current: Vec<u64>,
}

impl DriftDetector {
    /// A fresh detector.
    ///
    /// # Panics
    /// Panics when `cfg` fails validation.
    pub fn new(cfg: DriftConfig) -> Self {
        cfg.validate();
        let input_bins = cfg.input_ref.as_ref().map_or(0, ReferenceProfile::n_bins);
        let pred_bins = cfg.pred_ref.as_ref().map_or(0, Vec::len);
        DriftDetector {
            cfg,
            input_windows: VecDeque::new(),
            input_current: vec![0; input_bins],
            pred_windows: VecDeque::new(),
            pred_current: vec![0; pred_bins],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.cfg
    }

    /// Folds one served input-feature value into the open window.
    pub fn observe_input(&mut self, v: f64) {
        if let Some(r) = &self.cfg.input_ref {
            self.input_current[r.bin_of(v)] += 1;
        }
    }

    /// Folds one predicted class into the open window (out-of-range
    /// classes clamp to the last bin, which reads as drift).
    pub fn observe_pred(&mut self, class: usize) {
        if !self.pred_current.is_empty() {
            let i = class.min(self.pred_current.len() - 1);
            self.pred_current[i] += 1;
        }
    }

    /// Closes the open window and returns the sliding-window verdict.
    pub fn roll(&mut self) -> DriftStatus {
        let windows = self.cfg.windows;
        let input_psi = self.cfg.input_ref.as_ref().and_then(|r| {
            roll_ring(&mut self.input_windows, &mut self.input_current, windows);
            distribution(&self.input_windows, r.n_bins(), self.cfg.min_samples)
                .map(|obs| psi(r.probs(), &obs))
        });
        let pred_kl = self.cfg.pred_ref.clone().and_then(|p| {
            roll_ring(&mut self.pred_windows, &mut self.pred_current, windows);
            distribution(&self.pred_windows, p.len(), self.cfg.min_samples)
                .map(|obs| kl_divergence(&obs, &p))
        });
        DriftStatus { input_psi, pred_kl }
    }
}

fn roll_ring(ring: &mut VecDeque<Vec<u64>>, current: &mut Vec<u64>, depth: usize) {
    let bins = current.len();
    ring.push_back(std::mem::replace(current, vec![0; bins]));
    if ring.len() > depth {
        ring.pop_front();
    }
}

/// Normalized distribution over the ring's summed counts; `None` below
/// the sample floor.
fn distribution(ring: &VecDeque<Vec<u64>>, bins: usize, min_samples: u64) -> Option<Vec<f64>> {
    let mut counts = vec![0u64; bins];
    for w in ring {
        for (c, &v) in counts.iter_mut().zip(w) {
            *c += v;
        }
    }
    let total: u64 = counts.iter().sum();
    if total < min_samples.max(1) {
        return None;
    }
    Some(counts.iter().map(|&c| c as f64 / total as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_values() -> Vec<f64> {
        // Training feature ~ ramp over [0, 1).
        (0..500).map(|i| i as f64 / 500.0).collect()
    }

    #[test]
    fn psi_and_kl_are_zero_on_identical_distributions() {
        let p = vec![0.25, 0.25, 0.25, 0.25];
        assert!(psi(&p, &p).abs() < 1e-12);
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn psi_grows_with_shift_magnitude() {
        let r = ReferenceProfile::from_values(&ref_values(), 10);
        let observe = |shift: f64| {
            let mut counts = vec![0u64; r.n_bins()];
            for i in 0..500 {
                counts[r.bin_of(i as f64 / 500.0 + shift)] += 1;
            }
            let total: f64 = counts.iter().sum::<u64>() as f64;
            let obs: Vec<f64> = counts.iter().map(|&c| c as f64 / total).collect();
            psi(r.probs(), &obs)
        };
        let p0 = observe(0.0);
        let p_small = observe(0.2);
        let p_big = observe(0.8);
        assert!(p0 < 0.01, "no shift is stable: {p0}");
        assert!(p_small > p0, "small shift must register");
        assert!(p_big > p_small, "PSI must grow with magnitude");
        assert!(p_big.is_finite(), "epsilon smoothing keeps PSI finite");
    }

    #[test]
    fn outlier_bins_catch_out_of_range_serving_values() {
        let r = ReferenceProfile::from_values(&ref_values(), 8);
        assert_eq!(r.bin_of(-5.0), 0, "underflow bin");
        assert_eq!(r.bin_of(99.0), r.n_bins() - 1, "overflow bin");
        assert_eq!(r.bin_of(f64::NAN), r.n_bins() - 1, "non-finite to overflow");
        let mid = r.bin_of(0.5);
        assert!((1..=8).contains(&mid));
    }

    #[test]
    fn degenerate_constant_reference_still_bins() {
        let r = ReferenceProfile::from_values(&[3.0; 50], 4);
        let b = r.bin_of(3.0);
        assert!((1..=4).contains(&b), "constant data lands in an interior bin");
        assert!((r.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detector_abstains_until_the_sample_floor_then_verdicts() {
        let cfg = DriftConfig {
            input_ref: Some(ReferenceProfile::from_values(&ref_values(), 10)),
            pred_ref: Some(vec![0.5, 0.5]),
            windows: 4,
            min_samples: 20,
            psi_threshold: 0.25,
            kl_threshold: 0.5,
        };
        let mut d = DriftDetector::new(cfg);
        for i in 0..5 {
            d.observe_input(i as f64 / 10.0);
            d.observe_pred(i % 2);
        }
        let s = d.roll();
        assert_eq!(s.input_psi, None, "5 < 20 samples: abstain");
        assert_eq!(s.pred_kl, None);
        for i in 0..40 {
            d.observe_input((i % 10) as f64 / 10.0);
            d.observe_pred(i % 2);
        }
        let s = d.roll();
        let psi_v = s.input_psi.expect("sample floor met");
        let kl_v = s.pred_kl.expect("sample floor met");
        assert!(psi_v < 0.25, "in-distribution traffic is stable: {psi_v}");
        assert!(kl_v < 0.05, "balanced classes match the reference: {kl_v}");
    }

    #[test]
    fn detector_flags_a_shifted_window_and_collapsed_predictions() {
        let cfg = DriftConfig {
            input_ref: Some(ReferenceProfile::from_values(&ref_values(), 10)),
            pred_ref: Some(vec![0.5, 0.5]),
            windows: 2,
            min_samples: 10,
            psi_threshold: 0.25,
            kl_threshold: 0.3,
        };
        let mut d = DriftDetector::new(cfg);
        // Everything out of range, every prediction class 0.
        for _ in 0..50 {
            d.observe_input(7.0);
            d.observe_pred(0);
        }
        let s = d.roll();
        assert!(s.input_psi.expect("enough samples") > 0.25, "must flag shift");
        assert!(s.pred_kl.expect("enough samples") > 0.3, "must flag collapse");
        // Sliding window: two clean windows later the verdict clears.
        for _ in 0..2 {
            for i in 0..50 {
                d.observe_input((i % 10) as f64 / 10.0 + 0.05);
                d.observe_pred(i % 2);
            }
        }
        let _mid = d.roll();
        let s = d.roll();
        assert!(
            s.input_psi.expect("enough samples") < 0.25,
            "shifted window slid out"
        );
    }
}
