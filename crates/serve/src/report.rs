//! What one serving run measured.

use dl_obs::{fields, Fields, ToFields};

/// Per-variant traffic accounting.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct VariantServeStats {
    /// Variant name.
    pub name: String,
    /// Requests answered by this variant.
    pub served: usize,
    /// Batches flushed for this variant.
    pub batches: usize,
    /// Requests answered correctly (against the dataset labels).
    pub correct: usize,
}

impl ToFields for VariantServeStats {
    fn to_fields(&self) -> Fields {
        fields! {
            "variant" => self.name.clone(),
            "served" => self.served,
            "batches" => self.batches,
            "correct" => self.correct,
        }
    }
}

/// The measured outcome of one serving run: the throughput / tail-latency
/// / accuracy triple E25 sweeps, plus the controller's interventions.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct ServeReport {
    /// Requests offered by the load generator.
    pub offered: usize,
    /// Requests answered.
    pub served: usize,
    /// Requests rejected by admission control. Under hedging this counts
    /// shed *copies*: a hedge twin shed while its sibling answers is
    /// counted here and in `served`, so the two can sum past `offered`.
    pub shed: usize,
    /// Requests answered by a cheaper variant than requested.
    pub downgraded: usize,
    /// Simulated seconds from first arrival to last completion.
    pub sim_seconds: f64,
    /// Served requests per simulated second.
    pub throughput_rps: f64,
    /// Accuracy over the answered requests.
    pub accuracy: f64,
    /// Exact median response latency, seconds.
    pub p50_s: f64,
    /// Exact 99th-percentile response latency, seconds.
    pub p99_s: f64,
    /// Worst response latency, seconds.
    pub max_s: f64,
    /// Mean response latency, seconds.
    pub mean_s: f64,
    /// Mean flushed batch size.
    pub mean_batch: f64,
    /// Per-variant traffic breakdown, registry order.
    pub per_variant: Vec<VariantServeStats>,
}

impl ToFields for ServeReport {
    fn to_fields(&self) -> Fields {
        fields! {
            "offered" => self.offered,
            "served" => self.served,
            "shed" => self.shed,
            "downgraded" => self.downgraded,
            "sim_seconds" => self.sim_seconds,
            "throughput_rps" => self.throughput_rps,
            "accuracy" => self.accuracy,
            "p50_s" => self.p50_s,
            "p99_s" => self.p99_s,
            "max_s" => self.max_s,
            "mean_s" => self.mean_s,
            "mean_batch" => self.mean_batch,
        }
    }
}

/// Exact nearest-rank percentile of unsorted latencies.
///
/// An empty slice returns `0.0` by convention — a report with no
/// completions has no tail, and 0 keeps downstream metric tables finite
/// instead of poisoning them with NaN. `q` is clamped to `[0, 1]`.
#[must_use]
pub fn percentile(latencies: &[f64], q: f64) -> f64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, q)
}

/// [`percentile`] of values already sorted by `f64::total_cmp`, without
/// copying them.
pub(crate) fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // order-independent
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.99), 99.0);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: documented 0.0 convention, at every quantile.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[], q), 0.0);
        }
        // Single element: every quantile is that element.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.25], q), 7.25);
        }
        // q = 1.0 is the maximum, q out of range clamps.
        let v = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&v, 1.0), 3.0);
        assert_eq!(percentile(&v, 2.0), 3.0);
        assert_eq!(percentile(&v, -1.0), 1.0);
    }
}
