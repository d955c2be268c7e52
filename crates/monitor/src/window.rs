//! Sliding time-window counters/rates and EWMA gauges.
//!
//! Two windowing disciplines coexist in the monitor:
//!
//! * [`RateWindow`] holds raw event timestamps and answers "what is the
//!   rate over the trailing `window_s` seconds as of *any* time `t`" —
//!   the shape the serving autoscaler needs (its evaluation grid is not
//!   the monitor's roll grid). dl-serve's autoscaler consumes this
//!   same primitive.
//! * [`WindowCounter`] counts events on the monitor's fixed roll grid:
//!   the pipeline closes one window per `window_s` and queries sums over
//!   the last *k* closed windows (the fast/slow burn-rate pairs).
//!
//! **Empty-window convention**: a window containing no events has rate
//! exactly `0.0` — never `NaN` — mirroring the empty-slice convention of
//! `dl_serve::percentile`. Rates are always `count / window_s`
//! with the configured window length as denominator, *not* the observed
//! span, so a half-filled window reads as a genuinely lower rate.

use std::collections::VecDeque;

/// A sliding window over raw event timestamps, answering windowed counts
/// and rates at arbitrary query times.
///
/// Timestamps must be pushed in non-decreasing order (simulated time
/// never runs backwards). The window is closed at its trailing edge: an
/// event at exactly `now - window_s` still counts, matching the eviction
/// rule the serving autoscaler has always used (`front < now - window`
/// evicts), so refactoring the autoscaler onto this type is
/// bit-identical.
#[derive(Debug, Clone)]
#[must_use]
pub struct RateWindow {
    window_s: f64,
    times: VecDeque<f64>,
}

impl RateWindow {
    /// A fresh window of `window_s` seconds.
    ///
    /// # Panics
    /// Panics unless `window_s` is positive and finite.
    pub fn new(window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "window must be positive, got {window_s}"
        );
        RateWindow {
            window_s,
            times: VecDeque::new(),
        }
    }

    /// The configured window length.
    #[must_use]
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Records one event at `t_s` (non-decreasing).
    pub fn push(&mut self, t_s: f64) {
        self.times.push_back(t_s);
    }

    /// Drops events older than the window trailing `now_s` (strictly
    /// before `now_s - window_s`; the boundary timestamp survives).
    pub fn evict(&mut self, now_s: f64) {
        while self
            .times
            .front()
            .is_some_and(|&t| t < now_s - self.window_s)
        {
            self.times.pop_front();
        }
    }

    /// Events inside the window trailing `now_s`.
    #[must_use]
    fn count_at(&mut self, now_s: f64) -> usize {
        self.evict(now_s);
        self.times.len()
    }

    /// Windowed rate at `now_s`: `count / window_s`. An empty window is
    /// exactly `0.0` (the documented convention), never `NaN`.
    #[must_use]
    pub fn rate_at(&mut self, now_s: f64) -> f64 {
        self.count_at(now_s) as f64 / self.window_s
    }
}

/// An exponentially-weighted moving average gauge.
///
/// The first observation primes the gauge to its value (no bias toward
/// zero); afterwards `value <- alpha * v + (1 - alpha) * value`. An
/// unprimed gauge reads `0.0` — the same empty convention as
/// [`RateWindow::rate_at`].
#[derive(Debug, Clone)]
#[must_use]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A gauge with smoothing factor `alpha`.
    ///
    /// # Panics
    /// Panics unless `alpha` lies in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must lie in (0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Folds one observation in.
    pub fn observe(&mut self, v: f64) {
        self.value = Some(match self.value {
            None => v,
            Some(old) => self.alpha * v + (1.0 - self.alpha) * old,
        });
    }

    /// Hard-sets the gauge (crash resets a replica's health to 0).
    pub fn set(&mut self, v: f64) {
        self.value = Some(v);
    }

    /// Current smoothed value; `0.0` while unprimed.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// True once at least one observation arrived.
    #[must_use]
    pub fn is_primed(&self) -> bool {
        self.value.is_some()
    }
}

/// A counter on the monitor's roll grid: events accumulate into the
/// current window; [`WindowCounter::roll`] closes it into a bounded ring
/// of per-window counts.
#[derive(Debug, Clone)]
#[must_use]
pub struct WindowCounter {
    depth: usize,
    closed: VecDeque<u64>,
    current: u64,
    total: u64,
}

impl WindowCounter {
    /// A counter retaining the last `depth` closed windows.
    ///
    /// # Panics
    /// Panics when `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "need at least one window of history");
        WindowCounter {
            depth,
            closed: VecDeque::new(),
            current: 0,
            total: 0,
        }
    }

    /// Adds `n` events to the current (open) window.
    pub fn add(&mut self, n: u64) {
        self.current += n;
        self.total += n;
    }

    /// Closes the current window into the ring and opens a fresh one.
    pub fn roll(&mut self) {
        self.closed.push_back(self.current);
        if self.closed.len() > self.depth {
            self.closed.pop_front();
        }
        self.current = 0;
    }

    /// Count in the open window.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.current
    }

    /// All-time total, open window included.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of closed windows retained (saturates at the depth).
    #[must_use]
    pub fn closed_windows(&self) -> usize {
        self.closed.len()
    }

    /// Sum over the most recent `k` closed windows (fewer when fewer
    /// exist). `k = 0` is `0`.
    #[must_use]
    pub fn over_last(&self, k: usize) -> u64 {
        self.closed.iter().rev().take(k).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rate_window_is_exactly_zero() {
        let mut w = RateWindow::new(2.0);
        assert_eq!(w.rate_at(0.0), 0.0, "never NaN");
        assert_eq!(w.rate_at(1e9), 0.0);
        assert_eq!(w.count_at(5.0), 0);
        // Fill, then query far past the window: empty again, still 0.0.
        for i in 0..10 {
            w.push(i as f64 * 0.1);
        }
        assert_eq!(w.count_at(1.0), 10);
        assert_eq!(w.rate_at(1.0), 5.0);
        assert_eq!(w.rate_at(100.0), 0.0, "fully evicted window reads 0");
    }

    #[test]
    fn rate_window_keeps_boundary_timestamp() {
        // The autoscaler's historical eviction rule: `t < now - window`
        // evicts, so `t == now - window` stays. The refactor onto
        // RateWindow must preserve this bit-for-bit.
        let mut w = RateWindow::new(2.0);
        w.push(0.0);
        w.push(1.0);
        assert_eq!(w.count_at(2.0), 2, "t=0 is exactly now-window: kept");
        assert_eq!(w.count_at(2.5), 1, "t=0 now strictly older: evicted");
    }

    #[test]
    fn ewma_primes_on_first_observation_and_smooths_after() {
        let mut g = Ewma::new(0.5);
        assert!(!g.is_primed());
        assert_eq!(g.value(), 0.0, "unprimed reads the empty convention");
        g.observe(8.0);
        assert_eq!(g.value(), 8.0, "first observation primes, no zero bias");
        g.observe(0.0);
        assert_eq!(g.value(), 4.0);
        g.set(0.0);
        assert_eq!(g.value(), 0.0, "hard reset");
        g.observe(1.0);
        assert_eq!(g.value(), 0.5);
    }

    #[test]
    fn window_counter_rolls_and_sums_trailing_windows() {
        let mut c = WindowCounter::new(3);
        for win in 0..5u64 {
            c.add(win + 1); // windows count 1,2,3,4,5
            c.roll();
        }
        assert_eq!(c.closed_windows(), 3, "ring bounded at depth");
        assert_eq!(c.over_last(1), 5);
        assert_eq!(c.over_last(2), 9);
        assert_eq!(c.over_last(3), 12);
        assert_eq!(c.over_last(10), 12, "asking past history saturates");
        assert_eq!(c.total(), 15, "all-time total survives eviction");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_non_positive_window() {
        let _ = RateWindow::new(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must lie in (0, 1]")]
    fn rejects_bad_alpha() {
        let _ = Ewma::new(1.5);
    }
}
