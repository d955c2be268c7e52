//! Planning a training campaign under memory, time and carbon budgets.
//!
//! The systems-planning story across §2.2, §2.3 and §4.3: given a model
//! and a 4-device cluster, (1) find a parallelization strategy with the
//! placement optimizer, (2) fit training in device memory with an optimal
//! rematerialization schedule, and (3) place the resulting jobs on the
//! grid with the carbon-aware scheduler.
//!
//! ```text
//! cargo run --release -p dl-bench --example green_training
//! ```

use dl_distributed::{
    data_parallel_cost, optimize_placement, Cluster, Device, Link, Placement, PlacementSearchConfig,
};
use dl_green::{
    energy::energy_for, schedule_jobs, CarbonReport, HardwareProfile, Job, Region, SchedulePolicy,
};
use dl_memsched::{optimal_schedule, sqrt_schedule, store_all};
use dl_tensor::init;

fn main() {
    // the model to train: a deep, wide MLP at batch 256
    let net = dl_nn::Network::mlp(
        &[1024, 2048, 2048, 2048, 1024, 1024, 512, 512, 256, 10],
        &mut init::rng(0),
    );
    let costs = net.layer_costs(256);
    let profile = net.cost_profile(256);
    println!(
        "model: {} params, {:.1} GFLOP per training step, {:.1} MiB activations",
        profile.params,
        profile.train_step_flops() as f64 / 1e9,
        profile.activation_bytes() as f64 / (1 << 20) as f64
    );

    // 1) parallelization: search vs defaults
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::nvlink());
    let single = Placement::single_device(costs.len()).simulate(&cluster, &costs);
    let dp = data_parallel_cost(&cluster, &costs);
    let (placement, searched, evals) =
        optimize_placement(&cluster, &costs, &PlacementSearchConfig::default());
    println!("\nparallelization (step seconds):");
    println!("  single device : {:.6}", single.step_seconds);
    println!("  data parallel : {:.6}", dp.step_seconds);
    println!(
        "  searched      : {:.6} ({} simulator evals, assignment {:?})",
        searched.step_seconds, evals, placement.assignment
    );

    // 2) memory: at the sqrt(n) schedule's footprint, how much recompute
    // does the optimal schedule actually need?
    let base = store_all(&costs);
    let sq = sqrt_schedule(&costs);
    let budget = sq.peak_bytes;
    println!(
        "\nrematerialization under a {} MiB budget:",
        budget / (1 << 20)
    );
    println!(
        "  store-all : {} MiB, no recompute",
        base.peak_bytes / (1 << 20)
    );
    println!(
        "  sqrt(n)   : {} MiB, {:.2} GFLOP recompute/step",
        sq.peak_bytes / (1 << 20),
        sq.recompute_flops as f64 / 1e9
    );
    match optimal_schedule(&costs, budget) {
        Some(opt) => println!(
            "  optimal   : {} MiB, {:.2} GFLOP recompute/step ({} checkpoints)",
            opt.peak_bytes / (1 << 20),
            opt.recompute_flops as f64 / 1e9,
            opt.checkpoints.len()
        ),
        None => println!("  optimal   : budget infeasible"),
    }

    // 3) carbon: a realistic campaign — 200 epochs over a 100k-sample
    // corpus (the tutorial's point: designers train numerous times)
    let steps = 200 * 100_000u64;
    let total_flops = profile.train_step_flops() * steps;
    let hw = HardwareProfile::datacenter_gpu();
    let energy = energy_for(&hw, total_flops, 1.4);
    println!(
        "\ntraining campaign: {:.1} hours, {:.1} kWh",
        energy.seconds / 3600.0,
        energy.total_kwh
    );
    for region in Region::all() {
        let c = CarbonReport::from_energy(&energy, region);
        println!(
            "  if run in {:<14}: {:>8.0} gCO2e",
            region.name(),
            c.grams_co2e
        );
    }
    let job = Job {
        kwh: energy.total_kwh,
        hours: (energy.seconds / 3600.0).ceil() as usize,
        deadline: 48,
    };
    let naive = schedule_jobs(
        &[job],
        SchedulePolicy::NaiveImmediate {
            home: Region::MixedAverage,
        },
    );
    let aware = schedule_jobs(&[job], SchedulePolicy::CarbonAware);
    let p = &aware.placements[0];
    println!(
        "scheduler: naive {:.0} gCO2e -> carbon-aware {:.0} gCO2e ({} at hour {})",
        naive.total_grams,
        aware.total_grams,
        p.region.name(),
        p.start_hour
    );
}
