//! Reactive autoscaling from observed arrival rate and measured cost.
//!
//! The autoscaler closes the loop the ROADMAP's serving tier left open:
//! replica count is not a config constant but a control variable. Every
//! `eval_period_s` it estimates the offered rate from a sliding window of
//! arrivals and sizes the fleet so each replica runs at `target_util` of
//! its *measured* capacity — the same [`DeviceModel`] + [`Variant`] cost
//! tables the batcher and admission controller already trust, so all
//! three tiers price work identically. Scale-ups pay a provisioning
//! delay before the new replica takes traffic (plus the cluster's
//! cold-start warmup once it does); scale-downs drain gracefully.

use dl_monitor::RateWindow;

use crate::device::DeviceModel;
use crate::variant::Variant;

/// Autoscaler knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Seconds between desired-size evaluations.
    pub eval_period_s: f64,
    /// Sliding window the arrival rate is estimated over.
    pub window_s: f64,
    /// Fraction of measured per-replica capacity each replica should run
    /// at (the provisioning headroom; < 1 absorbs bursts).
    pub target_util: f64,
    /// Fleet floor.
    pub min_replicas: usize,
    /// Fleet ceiling.
    pub max_replicas: usize,
    /// Seconds between a scale-up decision and the new replica taking
    /// traffic.
    pub provision_delay_s: f64,
}

impl AutoscaleConfig {
    /// Validates the knobs.
    ///
    /// # Panics
    /// Panics on a non-positive period/window/utilization or an empty
    /// replica range.
    #[must_use]
    pub fn new(
        eval_period_s: f64,
        window_s: f64,
        target_util: f64,
        min_replicas: usize,
        max_replicas: usize,
        provision_delay_s: f64,
    ) -> Self {
        assert!(eval_period_s > 0.0, "eval period must be positive");
        assert!(window_s > 0.0, "window must be positive");
        assert!(
            target_util > 0.0 && target_util <= 1.0,
            "target utilization must lie in (0, 1]"
        );
        assert!(
            min_replicas >= 1 && min_replicas <= max_replicas,
            "need 1 <= min <= max replicas"
        );
        assert!(
            provision_delay_s >= 0.0,
            "provision delay cannot be negative"
        );
        AutoscaleConfig {
            eval_period_s,
            window_s,
            target_util,
            min_replicas,
            max_replicas,
            provision_delay_s,
        }
    }
}

/// Measured steady-state request capacity of one replica serving
/// `variant` full batches on `device` — the denominator of the
/// autoscaler's sizing rule.
#[must_use]
pub fn replica_capacity_rps(device: &DeviceModel, variant: &Variant) -> f64 {
    let b = variant.max_batch();
    b as f64 / device.service_time(variant.cost_at(b))
}

/// The reactive controller: a sliding arrival window plus the next
/// evaluation deadline.
///
/// The arrival window is `dl_monitor`'s [`RateWindow`] — the same
/// primitive the monitor tier aggregates with, so the autoscaler and the
/// monitor price "offered rate" identically (same boundary-timestamp
/// eviction, same empty-window = 0.0 convention).
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    arrivals: RateWindow,
    next_eval_s: f64,
}

impl Autoscaler {
    /// A controller that first evaluates one period after time zero.
    #[must_use]
    pub fn new(cfg: AutoscaleConfig) -> Self {
        let next_eval_s = cfg.eval_period_s;
        let arrivals = RateWindow::new(cfg.window_s);
        Autoscaler {
            cfg,
            arrivals,
            next_eval_s,
        }
    }

    /// The configured knobs.
    #[must_use]
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// When the next evaluation is due.
    #[must_use]
    pub fn next_eval_s(&self) -> f64 {
        self.next_eval_s
    }

    /// Records one arrival (arrival times are non-decreasing).
    pub fn observe_arrival(&mut self, t_s: f64) {
        self.arrivals.push(t_s);
    }

    /// Runs one evaluation at `now_s`: estimates the windowed arrival
    /// rate and returns the desired replica count for a fleet of
    /// replicas with `capacity_rps` measured capacity each. Advances the
    /// evaluation deadline past `now_s`. An empty window reads exactly
    /// 0.0 rps (the empty-window convention), scaling to the floor.
    pub fn evaluate(&mut self, now_s: f64, capacity_rps: f64) -> usize {
        while self.next_eval_s <= now_s {
            self.next_eval_s += self.cfg.eval_period_s;
        }
        let rate_rps = self.arrivals.rate_at(now_s);
        let per_replica = self.cfg.target_util * capacity_rps;
        let desired = if per_replica > 0.0 {
            (rate_rps / per_replica).ceil() as usize
        } else {
            self.cfg.max_replicas
        };
        desired.clamp(self.cfg.min_replicas, self.cfg.max_replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig::new(1.0, 2.0, 0.5, 1, 8, 0.5)
    }

    #[test]
    fn sizes_fleet_from_windowed_rate() {
        let mut a = Autoscaler::new(cfg());
        // 100 arrivals over the last 2s window -> 50 rps; at 0.5 util of
        // a 20 rps replica (10 rps effective) that needs 5 replicas.
        for i in 0..100 {
            a.observe_arrival(i as f64 * 0.02);
        }
        assert_eq!(a.evaluate(2.0, 20.0), 5);
    }

    #[test]
    fn clamps_to_fleet_bounds_and_forgets_old_arrivals() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.evaluate(1.0, 20.0), 1, "idle fleet floors at min");
        for i in 0..10_000 {
            a.observe_arrival(1.0 + i as f64 * 1e-4);
        }
        assert_eq!(a.evaluate(2.0, 20.0), 8, "storm ceilings at max");
        // 10 seconds later the window is empty again.
        assert_eq!(a.evaluate(12.0, 20.0), 1);
    }

    #[test]
    fn empty_window_reads_exactly_zero_and_boundary_arrival_counts() {
        let mut a = Autoscaler::new(cfg());
        // Empty window: rate is exactly 0.0 (the documented convention,
        // never NaN), so sizing floors at min_replicas.
        assert_eq!(a.evaluate(1.0, 20.0), 1);
        // 60 arrivals at t=0 sit exactly on the window boundary at
        // now=2.0: RateWindow keeps them (30 rps -> 3 replicas at 10 rps
        // effective), and strictly past the boundary they are gone —
        // the private-deque eviction rule, preserved bit-for-bit.
        for _ in 0..60 {
            a.observe_arrival(0.0);
        }
        assert_eq!(a.evaluate(2.0, 20.0), 3, "boundary timestamp counts");
        assert_eq!(a.evaluate(2.5, 20.0), 1, "then evicts to empty -> 0.0");
    }

    #[test]
    fn eval_deadline_advances_past_now() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.next_eval_s(), 1.0);
        let _ = a.evaluate(1.0, 20.0);
        assert_eq!(a.next_eval_s(), 2.0);
        let _ = a.evaluate(5.5, 20.0);
        assert_eq!(a.next_eval_s(), 6.0);
    }

    #[test]
    #[should_panic(expected = "target utilization")]
    fn rejects_zero_utilization() {
        let _ = AutoscaleConfig::new(1.0, 1.0, 0.0, 1, 2, 0.0);
    }
}
