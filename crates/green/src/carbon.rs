//! Carbon accounting: kWh -> gCO2e, per region.

use crate::energy::EnergyReport;

/// A grid region with its average carbon intensity.
///
/// Intensities (gCO2e per kWh) follow the public figures the ML-emissions
/// calculators ship: hydro-heavy grids near 30, EU average near 300,
/// coal-heavy grids above 700.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Hydro/nuclear-dominated grid (~30 gCO2e/kWh).
    HydroNorth,
    /// Wind+gas mix (~200 gCO2e/kWh).
    WindCoast,
    /// Average mixed grid (~450 gCO2e/kWh).
    MixedAverage,
    /// Coal-dominated grid (~750 gCO2e/kWh).
    CoalBelt,
}

impl Region {
    /// All regions, for sweeps.
    pub fn all() -> [Region; 4] {
        [
            Region::HydroNorth,
            Region::WindCoast,
            Region::MixedAverage,
            Region::CoalBelt,
        ]
    }

    /// Average carbon intensity in gCO2e/kWh.
    pub fn intensity(&self) -> f64 {
        match self {
            Region::HydroNorth => 30.0,
            Region::WindCoast => 200.0,
            Region::MixedAverage => 450.0,
            Region::CoalBelt => 750.0,
        }
    }

    /// Hourly intensity profile: a sinusoidal diurnal cycle around the
    /// average (solar/wind availability), used by the carbon-aware
    /// scheduler. `hour` is 0-23.
    pub fn intensity_at(&self, hour: usize) -> f64 {
        let base = self.intensity();
        // grids with more renewables swing harder across the day
        let swing = match self {
            Region::HydroNorth => 0.05,
            Region::WindCoast => 0.4,
            Region::MixedAverage => 0.25,
            Region::CoalBelt => 0.1,
        };
        let phase = (hour % 24) as f64 / 24.0 * std::f64::consts::TAU;
        base * (1.0 + swing * phase.sin())
    }

    /// Region name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Region::HydroNorth => "hydro-north",
            Region::WindCoast => "wind-coast",
            Region::MixedAverage => "mixed-average",
            Region::CoalBelt => "coal-belt",
        }
    }
}

/// A per-run carbon report in the style of the ML emissions calculator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonReport {
    /// Energy consumed (kWh, including PUE).
    pub kwh: f64,
    /// Region used.
    pub region: Region,
    /// Emissions in grams of CO2-equivalent.
    pub grams_co2e: f64,
}

impl CarbonReport {
    /// Emissions of an energy report executed in `region`.
    pub fn from_energy(energy: &EnergyReport, region: Region) -> Self {
        CarbonReport {
            kwh: energy.total_kwh,
            region,
            grams_co2e: energy.total_kwh * region.intensity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::{energy_for, HardwareProfile};

    #[test]
    fn emissions_proportional_to_intensity() {
        let e = energy_for(
            &HardwareProfile::datacenter_gpu(),
            1_000_000_000_000_000,
            1.1,
        );
        let hydro = CarbonReport::from_energy(&e, Region::HydroNorth);
        let coal = CarbonReport::from_energy(&e, Region::CoalBelt);
        assert!((coal.grams_co2e / hydro.grams_co2e - 25.0).abs() < 0.1);
    }

    #[test]
    fn diurnal_profile_averages_to_base() {
        for region in Region::all() {
            let mean: f64 = (0..24).map(|h| region.intensity_at(h)).sum::<f64>() / 24.0;
            assert!(
                (mean - region.intensity()).abs() < region.intensity() * 0.02,
                "{}: mean {mean}",
                region.name()
            );
        }
    }

    #[test]
    fn wind_region_swings_more_than_hydro() {
        let swing = |r: Region| {
            let vals: Vec<f64> = (0..24).map(|h| r.intensity_at(h)).collect();
            let max = vals.iter().copied().fold(f64::MIN, f64::max);
            let min = vals.iter().copied().fold(f64::MAX, f64::min);
            (max - min) / r.intensity()
        };
        assert!(swing(Region::WindCoast) > swing(Region::HydroNorth) * 3.0);
    }
}
