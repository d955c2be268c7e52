//! vDNN-style offloading of intermediate results to host memory (§2.3).
//!
//! Instead of recomputing, activations can be written out to (slower) host
//! memory after the forward pass and read back during backward. Device
//! memory shrinks by the offloaded bytes; training time grows by whatever
//! part of the transfer cannot hide behind compute.

use dl_nn::CostProfile;

/// An offloading decision and its simulated consequences.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a plan is pure data; dropping it discards the decision"]
pub struct OffloadPlan {
    /// Fraction of activation bytes offloaded, in `[0, 1]`.
    pub fraction: f64,
    /// Device activation memory after offloading (bytes).
    pub device_bytes: u64,
    /// Host memory consumed (bytes).
    pub host_bytes: u64,
    /// Extra seconds per training step after overlapping with compute.
    pub extra_seconds_per_step: f64,
    /// Seconds per step without offloading (compute only).
    pub base_seconds_per_step: f64,
}

impl OffloadPlan {
    /// Relative slowdown: `(base + extra) / base`.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        (self.base_seconds_per_step + self.extra_seconds_per_step) / self.base_seconds_per_step
    }
}

/// Plans offloading `fraction` of activations for a model with `profile`,
/// on a device sustaining `flops_per_sec`, over a host link of
/// `host_bandwidth` bytes/s.
///
/// Transfers happen twice per step (write after forward, read before
/// backward) and overlap with compute: only the excess over the compute
/// time appears as slowdown.
///
/// # Panics
/// Panics unless `0 <= fraction <= 1` and rates are positive.
pub fn offload_plan(
    profile: &CostProfile,
    fraction: f64,
    flops_per_sec: f64,
    host_bandwidth: f64,
) -> OffloadPlan {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "offload fraction must lie in [0,1], got {fraction}"
    );
    assert!(
        flops_per_sec > 0.0 && host_bandwidth > 0.0,
        "rates must be positive"
    );
    let act_bytes = profile.activation_bytes();
    let offloaded = (act_bytes as f64 * fraction) as u64;
    let compute_seconds = profile.train_step_flops() as f64 / flops_per_sec;
    let transfer_seconds = 2.0 * offloaded as f64 / host_bandwidth;
    let extra = (transfer_seconds - compute_seconds).max(0.0);
    OffloadPlan {
        fraction,
        device_bytes: act_bytes - offloaded,
        host_bytes: offloaded,
        extra_seconds_per_step: extra,
        base_seconds_per_step: compute_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CostProfile {
        CostProfile {
            forward_flops: 1_000_000_000,
            backward_flops: 2_000_000_000,
            params: 1_000_000,
            activation_elems: 25_000_000, // 100 MB
        }
    }

    #[test]
    fn zero_fraction_is_free() {
        let p = offload_plan(&profile(), 0.0, 1e12, 10e9);
        assert_eq!(p.extra_seconds_per_step, 0.0);
        assert_eq!(p.host_bytes, 0);
        assert_eq!(p.device_bytes, 100_000_000);
        assert_eq!(p.slowdown(), 1.0);
    }

    #[test]
    fn full_offload_empties_device() {
        let p = offload_plan(&profile(), 1.0, 1e12, 10e9);
        assert_eq!(p.device_bytes, 0);
        assert_eq!(p.host_bytes, 100_000_000);
    }

    #[test]
    fn transfers_hide_behind_compute_until_they_dont() {
        // compute: 3 GFLOP at 1 TFLOP/s = 3 ms
        // full offload: 200 MB over 100 GB/s = 2 ms -> fully hidden
        let fast_link = offload_plan(&profile(), 1.0, 1e12, 100e9);
        assert_eq!(fast_link.extra_seconds_per_step, 0.0);
        // over 10 GB/s: 20 ms transfer - 3 ms compute = 17 ms visible
        let slow_link = offload_plan(&profile(), 1.0, 1e12, 10e9);
        assert!((slow_link.extra_seconds_per_step - 0.017).abs() < 1e-6);
        assert!(slow_link.slowdown() > 5.0);
    }

    #[test]
    fn more_offload_more_slowdown_on_slow_links() {
        let p25 = offload_plan(&profile(), 0.25, 1e12, 5e9);
        let p75 = offload_plan(&profile(), 0.75, 1e12, 5e9);
        assert!(p75.extra_seconds_per_step > p25.extra_seconds_per_step);
        assert!(p75.device_bytes < p25.device_bytes);
    }

    #[test]
    #[should_panic(expected = "fraction must lie")]
    fn rejects_out_of_range_fraction() {
        let _ = offload_plan(&profile(), 1.5, 1e12, 10e9);
    }
}
