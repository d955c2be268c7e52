//! Hardware energy model: FLOPs -> kWh.

/// An accelerator/CPU power profile.
///
/// `sustained_flops` is the realistic training throughput (not the
/// marketing peak); `utilization` scales TDP to the average draw during
/// training. Both follow the assumptions of the public ML-emissions
/// calculators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareProfile {
    /// Human-readable name.
    pub name: &'static str,
    /// Thermal design power in watts.
    pub tdp_watts: f64,
    /// Sustained training throughput in FLOP/s.
    pub sustained_flops: f64,
    /// Average fraction of TDP drawn during training.
    pub utilization: f64,
}

impl HardwareProfile {
    /// A V100-class datacenter GPU (300 W TDP, ~14 TFLOP/s sustained).
    pub fn datacenter_gpu() -> Self {
        HardwareProfile {
            name: "datacenter-gpu",
            tdp_watts: 300.0,
            sustained_flops: 14e12,
            utilization: 0.85,
        }
    }

    /// A desktop GPU (180 W, ~7 TFLOP/s).
    fn desktop_gpu() -> Self {
        HardwareProfile {
            name: "desktop-gpu",
            tdp_watts: 180.0,
            sustained_flops: 7e12,
            utilization: 0.8,
        }
    }

    /// A laptop CPU (45 W, ~200 GFLOP/s).
    pub fn laptop_cpu() -> Self {
        HardwareProfile {
            name: "laptop-cpu",
            tdp_watts: 45.0,
            sustained_flops: 0.2e12,
            utilization: 0.7,
        }
    }

    /// A projected photonic accelerator (§4.3 points at photonics and
    /// quantum hardware as FLOPs/W escape hatches): published prototypes
    /// target ~100x the FLOPs/W of electronic accelerators. Speculative,
    /// flagged by name.
    fn photonic_projection() -> Self {
        HardwareProfile {
            name: "photonic-projection",
            tdp_watts: 50.0,
            sustained_flops: 200e12,
            utilization: 0.8,
        }
    }

    /// All built-in profiles, for sweeps.
    pub fn all() -> [HardwareProfile; 4] {
        [
            HardwareProfile::datacenter_gpu(),
            HardwareProfile::desktop_gpu(),
            HardwareProfile::laptop_cpu(),
            HardwareProfile::photonic_projection(),
        ]
    }

    /// Seconds to execute `flops` of work.
    fn runtime_seconds(&self, flops: u64) -> f64 {
        flops as f64 / self.sustained_flops
    }
}

/// Energy accounting for one workload on one hardware profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total FLOPs executed.
    pub flops: u64,
    /// Runtime in seconds.
    pub seconds: f64,
    /// Device energy in kWh (before datacenter overhead).
    pub device_kwh: f64,
    /// Total energy in kWh including PUE overhead.
    pub total_kwh: f64,
    /// The PUE used.
    pub pue: f64,
}

/// Computes the energy of running `flops` on `hw` in a facility with the
/// given power usage effectiveness (PUE; 1.0 = no overhead, typical cloud
/// ~1.1, average datacenter ~1.6).
///
/// # Panics
/// Panics when `pue < 1.0`.
pub fn energy_for(hw: &HardwareProfile, flops: u64, pue: f64) -> EnergyReport {
    assert!(pue >= 1.0, "PUE cannot be below 1.0, got {pue}");
    let seconds = hw.runtime_seconds(flops);
    let watts = hw.tdp_watts * hw.utilization;
    let device_kwh = watts * seconds / 3.6e6;
    EnergyReport {
        flops,
        seconds,
        device_kwh,
        total_kwh: device_kwh * pue,
        pue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_scales_with_flops() {
        let hw = HardwareProfile::datacenter_gpu();
        assert!((hw.runtime_seconds(14_000_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_matches_hand_calculation() {
        let hw = HardwareProfile::datacenter_gpu();
        // 1 hour of work: 14e12 * 3600 FLOPs
        let flops = (14e12 * 3600.0) as u64;
        let r = energy_for(&hw, flops, 1.0);
        assert!((r.seconds - 3600.0).abs() < 1.0);
        // 300 W * 0.85 for 1 h = 0.255 kWh
        assert!((r.device_kwh - 0.255).abs() < 1e-3, "kwh {}", r.device_kwh);
    }

    #[test]
    fn pue_multiplies_total() {
        let hw = HardwareProfile::desktop_gpu();
        let r = energy_for(&hw, 1_000_000_000_000, 1.6);
        assert!((r.total_kwh - r.device_kwh * 1.6).abs() < 1e-12);
    }

    #[test]
    fn photonic_projection_dominates_on_efficiency() {
        let photonic = HardwareProfile::photonic_projection();
        // same job: vastly less energy
        let flops = 10u64.pow(18);
        let gpu = energy_for(&HardwareProfile::datacenter_gpu(), flops, 1.2);
        let pho = energy_for(&photonic, flops, 1.2);
        assert!(pho.total_kwh < gpu.total_kwh / 20.0);
    }

    #[test]
    #[should_panic(expected = "PUE cannot be below")]
    fn rejects_sub_one_pue() {
        energy_for(&HardwareProfile::laptop_cpu(), 1, 0.9);
    }

    #[test]
    fn zero_flops_zero_energy() {
        let r = energy_for(&HardwareProfile::laptop_cpu(), 0, 1.2);
        assert_eq!(r.device_kwh, 0.0);
        assert_eq!(r.seconds, 0.0);
    }
}
