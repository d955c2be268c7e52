//! The simulated cluster: devices, links, and time/byte accounting.
//!
//! All quantities are deterministic functions of the declared hardware
//! profile — no wall clock is ever read. Simulated time is `f64` seconds.

/// A compute device (an abstract accelerator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Sustained compute rate in FLOP/s.
    pub flops_per_sec: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

impl Device {
    /// A mid-range accelerator profile (10 TFLOP/s, 16 GB) used as the
    /// default in experiments.
    pub fn accelerator() -> Self {
        Device {
            flops_per_sec: 10e12,
            memory_bytes: 16 * (1 << 30),
        }
    }

    /// A slower edge-class device (500 GFLOP/s, 4 GB).
    pub fn edge() -> Self {
        Device {
            flops_per_sec: 0.5e12,
            memory_bytes: 4 * (1 << 30),
        }
    }

    /// Seconds to execute `flops` of work.
    pub fn compute_time(&self, flops: u64) -> f64 {
        flops as f64 / self.flops_per_sec
    }
}

/// A bidirectional network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Bandwidth in bytes/s.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

impl Link {
    /// Datacenter-class interconnect (25 GB/s, 5 µs).
    pub fn nvlink() -> Self {
        Link {
            bandwidth: 25e9,
            latency: 5e-6,
        }
    }

    /// Commodity Ethernet (1.25 GB/s, 100 µs).
    pub fn ethernet() -> Self {
        Link {
            bandwidth: 1.25e9,
            latency: 100e-6,
        }
    }

    /// Seconds to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// A homogeneous-link cluster of (possibly heterogeneous) devices.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Devices, indexed by worker id.
    pub devices: Vec<Device>,
    /// The interconnect between any pair of distinct devices.
    pub link: Link,
}

impl Cluster {
    /// `n` identical devices joined by `link`.
    pub fn homogeneous(n: usize, device: Device, link: Link) -> Self {
        assert!(n > 0, "a cluster needs at least one device");
        Cluster {
            devices: vec![device; n],
            link,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the cluster is empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Simulated time for a synchronous all-reduce of `bytes` per worker
    /// using the standard ring algorithm: `2 (n-1)/n * bytes` traverses the
    /// slowest link, plus `2(n-1)` latency hops.
    pub fn allreduce_time(&self, bytes: u64) -> f64 {
        let n = self.len() as f64;
        if self.len() == 1 {
            return 0.0;
        }
        let volume = 2.0 * (n - 1.0) / n * bytes as f64;
        volume / self.link.bandwidth + 2.0 * (n - 1.0) * self.link.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn compute_time_scales_linearly() {
        let d = Device::accelerator();
        assert!((d.compute_time(10_000_000_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(d.compute_time(0), 0.0);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let l = Link::ethernet();
        assert!(l.transfer_time(0) == l.latency);
        let t = l.transfer_time(1_250_000_000);
        assert!((t - (1.0 + l.latency)).abs() < 1e-9);
    }

    #[test]
    fn nvlink_faster_than_ethernet() {
        let bytes = 100_000_000;
        assert!(Link::nvlink().transfer_time(bytes) < Link::ethernet().transfer_time(bytes));
    }

    #[test]
    fn allreduce_single_worker_is_free() {
        let c = Cluster::homogeneous(1, Device::accelerator(), Link::ethernet());
        assert_eq!(c.allreduce_time(1_000_000), 0.0);
    }

    #[test]
    fn allreduce_grows_with_bytes_and_saturates_with_workers() {
        let c2 = Cluster::homogeneous(2, Device::accelerator(), Link::ethernet());
        let c8 = Cluster::homogeneous(8, Device::accelerator(), Link::ethernet());
        assert!(c2.allreduce_time(2_000_000) > c2.allreduce_time(1_000_000));
        // ring all-reduce volume factor 2(n-1)/n approaches 2: going 2 -> 8
        // workers less than doubles the bandwidth term
        let v2 = c2.allreduce_time(100_000_000);
        let v8 = c8.allreduce_time(100_000_000);
        assert!(v8 < v2 * 2.0);
        assert!(v8 > v2);
    }

    /// All-reduce time is monotone in bytes and never negative.
    #[test]
    fn sim_cost_monotonicity() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..16);
            let bytes = rng.gen_range(0u64..1_000_000_000);
            let extra = rng.gen_range(1u64..1_000_000_000);
            let c = Cluster::homogeneous(n, Device::accelerator(), Link::ethernet());
            let t1 = c.allreduce_time(bytes);
            let t2 = c.allreduce_time(bytes + extra);
            assert!(t1 >= 0.0, "case {case}");
            assert!(t2 >= t1, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        Cluster::homogeneous(0, Device::accelerator(), Link::ethernet());
    }
}
