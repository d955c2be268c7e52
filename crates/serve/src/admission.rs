//! SLO-aware admission control: shed or downgrade before the queue busts
//! the tail.
//!
//! An open-loop overload cannot be absorbed by waiting — the queue (and
//! therefore p99) grows without bound. The only bounded-latency responses
//! are to *downgrade* (answer from a cheaper variant, spending accuracy
//! instead of time) or to *shed* (reject outright). The controller
//! predicts the completion delay a request would see from the measured
//! cost tables and refuses work whose prediction would bust the SLO.

use crate::batcher::BatchPolicy;
use crate::device::DeviceModel;
use crate::variant::VariantRegistry;

/// Admission policy for the serving engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Enqueue everything (the policy that melts past the knee).
    AcceptAll,
    /// Keep predicted completion delay inside the SLO.
    SloAware {
        /// The p99 latency objective, simulated seconds.
        p99_slo_s: f64,
        /// Fraction of the SLO the *prediction* may use (< 1 leaves slack
        /// for cross-queue interleaving the estimate cannot see).
        headroom: f64,
        /// Accuracy floor a downgrade target must meet.
        min_accuracy: f64,
    },
}

/// What the controller decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an unexamined decision silently drops the shed/downgrade outcome"]
pub enum Decision {
    /// Enqueue on the requested variant.
    Accept(usize),
    /// Enqueue on a cheaper variant than requested.
    Downgrade {
        /// The variant the request asked for.
        from: usize,
        /// The cheaper variant that will answer it.
        to: usize,
    },
    /// Reject: no variant can answer inside the SLO.
    Shed,
}

/// What the controller knows of one family for a whole run: each
/// variant's measured service seconds per batch size, its accuracy, the
/// variants in descending accuracy order, and the flush policy's bounds.
/// Built once per engine, so an arrival's prediction is table lookups.
#[derive(Debug, Clone)]
pub struct PriceTable {
    /// Batch sizes the table covers: `max_batch`, or the longest cost
    /// table when that is shorter (`cost_at` clamps to it).
    width: usize,
    /// `service_s[v * width + b - 1]` is
    /// `device.service_time(variants[v].cost_at(b))`.
    service_s: Vec<f64>,
    accuracy: Vec<f64>,
    /// Variant indices sorted stably by descending accuracy.
    by_accuracy: Vec<usize>,
    max_batch: usize,
    max_delay_s: f64,
}

impl PriceTable {
    /// Prices `registry`'s variants on `device` under `batch`.
    #[must_use]
    pub fn new(registry: &VariantRegistry, device: &DeviceModel, batch: &BatchPolicy) -> Self {
        let variants = &registry.variants;
        let longest = variants.iter().map(|v| v.max_batch()).max().unwrap_or(1);
        let width = batch.max_batch.min(longest).max(1);
        let service_s = variants
            .iter()
            .flat_map(|v| (1..=width).map(|b| device.service_time(v.cost_at(b))))
            .collect();
        let accuracy: Vec<f64> = variants.iter().map(|v| v.accuracy).collect();
        let mut by_accuracy: Vec<usize> = (0..variants.len()).collect();
        by_accuracy.sort_by(|&a, &b| accuracy[b].total_cmp(&accuracy[a]));
        PriceTable {
            width,
            service_s,
            accuracy,
            by_accuracy,
            max_batch: batch.max_batch,
            max_delay_s: batch.max_delay_s,
        }
    }

    /// Seconds one batch of `b` requests of variant `v` runs.
    fn batch_s(&self, v: usize, b: usize) -> f64 {
        self.service_s[v * self.width + b.min(self.width) - 1]
    }

    /// Seconds to drain `len` queued requests of variant `v`, flushed in
    /// `max_batch`-sized chunks, summed chunk by chunk in queue order.
    fn drain_time_s(&self, v: usize, len: usize) -> f64 {
        let (chunks, rest) = (len / self.max_batch, len % self.max_batch);
        let mut total = 0.0;
        for _ in 0..chunks {
            total += self.batch_s(v, self.max_batch);
        }
        if rest > 0 {
            total += self.batch_s(v, rest);
        }
        total
    }
}

/// Everything the controller can see at one arrival instant.
#[derive(Debug)]
pub struct AdmissionContext<'a> {
    /// The served family's prices on this device and flush policy.
    pub prices: &'a PriceTable,
    /// Current queue length per variant.
    pub queue_lens: &'a [usize],
    /// Seconds of already-committed work: remaining in-flight batch time.
    pub busy_remaining_s: f64,
    /// Seconds before the requested family's weights are usable on this
    /// replica: zero when resident (warm), the modeled artifact load time
    /// when the weight store must fault it in (cold). Added to every
    /// variant's predicted delay, so a cold model can push an arrival
    /// over the SLO budget that a warm one would have met.
    pub residency_delay_s: f64,
}

impl AdmissionContext<'_> {
    /// Predicted completion delay for a request joining variant `v` now:
    /// any weight-store load the request must wait for, committed
    /// in-flight work, every queue drained ahead of it (the server is
    /// shared), the flush-delay wait, and its own batch.
    #[must_use]
    fn predicted_delay_s(&self, v: usize) -> f64 {
        let prices = self.prices;
        let queued: f64 = (0..self.queue_lens.len())
            .map(|u| prices.drain_time_s(u, self.queue_lens[u] + usize::from(u == v)))
            .sum();
        self.residency_delay_s + self.busy_remaining_s + queued + prices.max_delay_s
    }
}

/// Decides what to do with one arrival bound for variant `target`.
///
/// Under [`AdmissionPolicy::SloAware`], candidates are considered in
/// descending accuracy order among variants meeting the accuracy floor
/// (registry order among ties), and the first whose predicted delay fits
/// inside `headroom * p99_slo_s` wins; nothing fits → shed. The requested
/// variant is tried first, whatever its accuracy.
pub fn admit(policy: &AdmissionPolicy, ctx: &AdmissionContext<'_>, target: usize) -> Decision {
    match *policy {
        AdmissionPolicy::AcceptAll => Decision::Accept(target),
        AdmissionPolicy::SloAware {
            p99_slo_s,
            headroom,
            min_accuracy,
        } => {
            let budget = headroom * p99_slo_s;
            if ctx.predicted_delay_s(target) <= budget {
                return Decision::Accept(target);
            }
            let prices = ctx.prices;
            prices
                .by_accuracy
                .iter()
                .copied()
                .filter(|&v| v != target && prices.accuracy[v] >= min_accuracy)
                .find(|&v| ctx.predicted_delay_s(v) <= budget)
                .map_or(Decision::Shed, |to| Decision::Downgrade {
                    from: target,
                    to,
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::{build_family, FamilyConfig};

    fn small_registry() -> VariantRegistry {
        let data = dl_data::blobs(100, 3, 8, 6.0, 0.5, 60);
        let eval = dl_data::blobs(50, 3, 8, 6.0, 0.5, 61);
        build_family(
            &data,
            &eval,
            &FamilyConfig {
                teacher_dims: vec![8, 16, 3],
                student_hidden: vec![4],
                prune_sparsity: 0.6,
                morph_budget: 100,
                ensemble_members: 2,
                max_batch: 4,
                epochs: 6,
                seed: 9,
            },
        )
    }

    /// The pre-table prediction: each chunk priced through the device
    /// model as it is summed.
    fn direct_drain_time_s(
        reg: &VariantRegistry,
        device: &DeviceModel,
        batch: &BatchPolicy,
        v: usize,
        len: usize,
    ) -> f64 {
        let mut rest = len;
        let mut total = 0.0;
        while rest > 0 {
            let b = rest.min(batch.max_batch);
            total += device.service_time(reg.variants[v].cost_at(b));
            rest -= b;
        }
        total
    }

    #[test]
    fn priced_drain_times_equal_the_device_model_bit_for_bit() {
        let reg = small_registry();
        let device = DeviceModel::nominal();
        // Narrower, equal to and wider than the family's cost tables.
        for max_batch in [1, 3, reg.variants[0].max_batch(), 64] {
            let batch = BatchPolicy::dynamic(max_batch, 1e-6);
            let prices = PriceTable::new(&reg, &device, &batch);
            for v in 0..reg.variants.len() {
                for len in 0..3 * max_batch + 2 {
                    assert_eq!(
                        prices.drain_time_s(v, len).to_bits(),
                        direct_drain_time_s(&reg, &device, &batch, v, len).to_bits(),
                        "max_batch {max_batch}, variant {v}, {len} queued"
                    );
                }
            }
        }
    }

    #[test]
    fn accept_all_never_sheds() {
        let reg = small_registry();
        let ctx = AdmissionContext {
            prices: &PriceTable::new(
                &reg,
                &DeviceModel::nominal(),
                &BatchPolicy::dynamic(4, 1e-6),
            ),
            queue_lens: &[10_000, 0, 0, 0, 0, 0],
            busy_remaining_s: 1.0,
            residency_delay_s: 0.0,
        };
        assert_eq!(
            admit(&AdmissionPolicy::AcceptAll, &ctx, 0),
            Decision::Accept(0)
        );
    }

    #[test]
    fn empty_system_accepts_and_overload_sheds() {
        let reg = small_registry();
        let device = DeviceModel::nominal();
        let batch = BatchPolicy::dynamic(4, 1e-6);
        let policy = AdmissionPolicy::SloAware {
            p99_slo_s: 1e-3,
            headroom: 0.8,
            min_accuracy: 0.0,
        };
        let empty = [0usize; 6];
        let ctx = AdmissionContext {
            prices: &PriceTable::new(&reg, &device, &batch),
            queue_lens: &empty,
            busy_remaining_s: 0.0,
            residency_delay_s: 0.0,
        };
        assert_eq!(admit(&policy, &ctx, 0), Decision::Accept(0));
        // A second of committed work busts any millisecond SLO for every
        // variant: the only bounded answer is to shed.
        let drowned = AdmissionContext {
            busy_remaining_s: 1.0,
            ..ctx
        };
        assert_eq!(admit(&policy, &drowned, 0), Decision::Shed);
    }

    #[test]
    fn pressure_band_downgrades_to_a_fitting_variant() {
        let reg = small_registry();
        // Launch-free, bandwidth-starved device: chunk cost is dominated
        // by real weight traffic, so cheaper variants have genuinely
        // smaller marginal cost than the fp32 target.
        let device = DeviceModel {
            flops_per_sec: 1e12,
            bytes_per_sec: 1e6,
            launch_overhead_s: 0.0,
        };
        let batch = BatchPolicy::dynamic(4, 1e-6);
        let target = 0;
        // Backlog at a chunk boundary: one more fp32 request opens a whole
        // new fp32 chunk, while a cheap variant's first chunk costs less.
        let mut lens = [0usize; 6];
        lens[target] = 8;
        let ctx = AdmissionContext {
            prices: &PriceTable::new(&reg, &device, &batch),
            queue_lens: &lens,
            busy_remaining_s: 0.0,
            residency_delay_s: 0.0,
        };
        let p_target = ctx.predicted_delay_s(target);
        let p_best_other = (1..reg.variants.len())
            .map(|v| ctx.predicted_delay_s(v))
            .fold(f64::INFINITY, f64::min);
        assert!(
            p_best_other < p_target,
            "some variant must be marginally cheaper: {p_best_other} vs {p_target}"
        );
        // A budget between the two predictions forces exactly the
        // downgrade band: target busts, a cheaper variant fits.
        let headroom = 0.9;
        let policy = AdmissionPolicy::SloAware {
            p99_slo_s: (p_best_other + p_target) / 2.0 / headroom,
            headroom,
            min_accuracy: 0.0,
        };
        match admit(&policy, &ctx, target) {
            Decision::Downgrade { from, to } => {
                assert_eq!(from, target);
                assert_ne!(to, target);
            }
            other => panic!("expected downgrade, got {other:?}"),
        }
    }

    #[test]
    fn cold_residency_delay_can_flip_an_accept_into_a_shed() {
        let reg = small_registry();
        let device = DeviceModel::nominal();
        let batch = BatchPolicy::dynamic(4, 1e-6);
        let empty = [0usize; 6];
        let warm = AdmissionContext {
            prices: &PriceTable::new(&reg, &device, &batch),
            queue_lens: &empty,
            busy_remaining_s: 0.0,
            residency_delay_s: 0.0,
        };
        let policy = AdmissionPolicy::SloAware {
            p99_slo_s: 1e-3,
            headroom: 0.8,
            min_accuracy: 0.0,
        };
        assert_eq!(admit(&policy, &warm, 0), Decision::Accept(0));
        // The same empty system, but the family's weights are cold and
        // the modeled load alone outruns the SLO. The delay applies to
        // every variant in the family, so there is nothing to downgrade
        // into: the only bounded answer is to shed.
        let cold = AdmissionContext {
            residency_delay_s: 0.01,
            ..warm
        };
        assert!(cold.predicted_delay_s(0) >= warm.predicted_delay_s(0) + 0.01);
        assert_eq!(admit(&policy, &cold, 0), Decision::Shed);
    }
}
