//! Converts measured kernel costs into simulated service time.
//!
//! The serving engine times batches with the same additive roofline the
//! trainer uses for simulated epochs: compute at a nominal FLOP rate,
//! memory traffic at a nominal bandwidth, plus a fixed per-launch
//! overhead. Because the [`dl_tensor::acct::OpCost`] fed in is *measured*
//! from the actual batched kernels (weights read once per batch, not once
//! per request), dynamic batching shows up here as a genuine reduction in
//! per-request time, not as scheduler bookkeeping.

use dl_obs::{fields, Fields, ToFields};
use dl_tensor::acct::OpCost;

/// A simulated inference device: the knobs that decide where the
/// batching win comes from.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Peak floating-point throughput, FLOPs per second.
    pub flops_per_sec: f64,
    /// Memory bandwidth, bytes per second (reads and writes combined).
    pub bytes_per_sec: f64,
    /// Fixed overhead per batch launch, seconds (queue handoff, kernel
    /// launch, response fan-out) — the part batch=1 serving pays per
    /// request and batching amortizes.
    pub launch_overhead_s: f64,
}

impl DeviceModel {
    /// The nominal serving accelerator: the trainer's 10 TFLOP/s device
    /// with memory bandwidth low enough that toy-MLP inference is
    /// bandwidth-bound — exactly the regime where re-reading weights for
    /// every single-row forward is the dominant cost.
    #[must_use]
    pub fn nominal() -> Self {
        DeviceModel {
            flops_per_sec: 10e12,
            bytes_per_sec: 8e9,
            launch_overhead_s: 1e-6,
        }
    }

    /// Simulated seconds to execute one batch with the given measured
    /// cost: launch overhead + compute time + memory-traffic time.
    #[must_use]
    pub fn service_time(&self, cost: &OpCost) -> f64 {
        let compute = cost.flops as f64 / self.flops_per_sec;
        let traffic = (cost.bytes_read + cost.bytes_written) as f64 / self.bytes_per_sec;
        self.launch_overhead_s + compute + traffic
    }

    /// How many `dl_tensor::par` worker threads to fan a batch of this
    /// cost across, at most `max_threads` (the serving host's configured
    /// pool size). Each extra thread is modeled as paying one more launch
    /// overhead, so fanning out is only worth it while every thread's
    /// slice of the serial time covers at least
    /// `MIN_WORK_PER_THREAD_LAUNCHES` (4) launches — small
    /// batches (the batch=1 admission path, tiny distilled variants)
    /// stay single-threaded instead of drowning in coordination.
    ///
    /// Deterministic: depends only on the measured cost and this model,
    /// never on wall-clock behavior, so serving runs stay reproducible.
    #[must_use]
    pub fn threads_for(&self, cost: &OpCost, max_threads: usize) -> usize {
        if max_threads <= 1 || self.launch_overhead_s <= 0.0 {
            return max_threads.max(1);
        }
        let serial = self.service_time(cost) - self.launch_overhead_s;
        let per_thread_floor = Self::MIN_WORK_PER_THREAD_LAUNCHES * self.launch_overhead_s;
        let fit = (serial / per_thread_floor) as usize;
        fit.clamp(1, max_threads)
    }
}

impl DeviceModel {
    /// A thread must take on at least this many launch-overheads' worth
    /// of serial work before [`DeviceModel::threads_for`] adds it.
    const MIN_WORK_PER_THREAD_LAUNCHES: f64 = 4.0;
}

impl ToFields for DeviceModel {
    fn to_fields(&self) -> Fields {
        fields! {
            "flops_per_sec" => self.flops_per_sec,
            "bytes_per_sec" => self.bytes_per_sec,
            "launch_overhead_s" => self.launch_overhead_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_additive_roofline() {
        let d = DeviceModel {
            flops_per_sec: 1e9,
            bytes_per_sec: 1e6,
            launch_overhead_s: 1e-3,
        };
        let c = OpCost {
            flops: 2_000_000,
            bytes_read: 1500,
            bytes_written: 500,
        };
        // 1ms launch + 2ms compute + 2ms traffic
        assert!((d.service_time(&c) - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_batch_still_pays_launch_overhead() {
        let d = DeviceModel::nominal();
        assert_eq!(d.service_time(&OpCost::default()), d.launch_overhead_s);
    }

    #[test]
    fn thread_heuristic_keeps_small_batches_sequential() {
        let d = DeviceModel::nominal();
        // A batch=1 toy-MLP forward: a few thousand FLOPs, serial time
        // far below one launch overhead -> never fan out.
        let tiny = OpCost {
            flops: 4_000,
            bytes_read: 8_000,
            bytes_written: 200,
        };
        assert_eq!(d.threads_for(&tiny, 8), 1);
        // A batch whose serial time dwarfs the launch overhead uses the
        // whole pool.
        let big = OpCost {
            flops: 2_000_000_000,
            bytes_read: 400_000_000,
            bytes_written: 4_000_000,
        };
        assert_eq!(d.threads_for(&big, 8), 8);
        // In between, the count scales with serial work: 12us of serial
        // work over a 1us launch overhead and a 4-launch floor -> 3.
        let mid = OpCost {
            flops: 120_000_000, // 12us at 10 TFLOP/s
            bytes_read: 0,
            bytes_written: 0,
        };
        assert_eq!(d.threads_for(&mid, 8), 3);
        // max_threads caps everything.
        assert_eq!(d.threads_for(&big, 1), 1);
    }
}
