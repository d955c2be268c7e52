//! E20 — carbon footprint: model size, hardware, region, scheduling (§4.3).
//!
//! Claim: emissions scale with model size and differ by an order of
//! magnitude across hardware efficiency and grid region; carbon-aware
//! scheduling recovers most of the regional gap for deferrable jobs.

use crate::table::{col, fixed, flops, text, Column, ExperimentResult};
use dl_green::{
    energy::energy_for, schedule_jobs, CarbonReport, HardwareProfile, Job, Region, SchedulePolicy,
};
use dl_obs::fields;
use dl_tensor::init;

const FOOTPRINT: &[Column] = &[
    col("model", "model", text),
    col("train flops", "flops", flops),
    col("hardware", "hardware", text),
    col("region", "region", text),
    col("kWh", "kwh", fixed::<4>),
    col("gCO2e", "grams", fixed::<1>),
];

const SCHEDULER: &[Column] = &[
    col("naive@mixed gCO2e", "scheduler_naive_grams", fixed::<0>),
    col("carbon-aware gCO2e", "scheduler_aware_grams", fixed::<0>),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let mut records = Vec::new();
    // model-size sweep: small/medium/large MLPs trained for 200 epochs
    // over a 2M-sample corpus (cost-model math; FLOPs come from dl-nn)
    let sizes = [
        ("small", vec![144usize, 64, 10]),
        ("medium", vec![144, 512, 256, 10]),
        ("large", vec![144, 2048, 2048, 1024, 10]),
    ];
    let mut co2_by_size = Vec::new();
    for (name, dims) in &sizes {
        let net = dl_nn::Network::mlp(dims, &mut init::rng(160));
        let step = net.cost_profile(64).train_step_flops();
        let steps = 200u64 * 2_000_000 / 64;
        let total_flops = step * steps;
        for hw in [
            HardwareProfile::datacenter_gpu(),
            HardwareProfile::laptop_cpu(),
        ] {
            for region in [Region::HydroNorth, Region::CoalBelt] {
                let energy = energy_for(&hw, total_flops, 1.4);
                let carbon = CarbonReport::from_energy(&energy, region);
                records.push(fields! {
                    "model" => *name, "flops" => total_flops, "hardware" => hw.name,
                    "region" => region.name(), "kwh" => carbon.kwh,
                    "grams" => carbon.grams_co2e,
                });
                if hw.name == "datacenter-gpu" && region == Region::CoalBelt {
                    co2_by_size.push(carbon.grams_co2e);
                }
            }
        }
    }
    // scheduling coda
    let jobs: Vec<Job> = co2_by_size
        .iter()
        .map(|_| Job {
            kwh: 10.0,
            hours: 4,
            deadline: 36,
        })
        .collect();
    let naive = schedule_jobs(
        &jobs,
        SchedulePolicy::NaiveImmediate {
            home: Region::MixedAverage,
        },
    );
    let aware = schedule_jobs(&jobs, SchedulePolicy::CarbonAware);
    records.push(fields! {
        "scheduler_naive_grams" => naive.total_grams,
        "scheduler_aware_grams" => aware.total_grams,
    });
    let grows = co2_by_size.windows(2).all(|w| w[1] > w[0] * 2.0);
    let region_gap = Region::CoalBelt.intensity() / Region::HydroNorth.intensity();
    let sched_saves = aware.total_grams < naive.total_grams * 0.2;
    ExperimentResult {
        id: "e20".into(),
        title: "carbon footprint: size x hardware x region, plus scheduling".into(),
        tables: vec![FOOTPRINT, SCHEDULER],
        verdict: if grows && sched_saves {
            format!(
                "matches the claim: emissions grow superlinearly with model size, span a \
                 {region_gap:.3}x regional gap, and carbon-aware scheduling recovers most of it"
            )
        } else {
            format!("PARTIAL: grows={grows} sched_saves={sched_saves}")
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e20_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [12, 1]);
    }
}
