//! Integration across the distributed/memory/green crates: one model's
//! cost profile drives the cluster simulator, the rematerialization DP and
//! the carbon calculator, and the numbers must stay mutually consistent.

use dl_distributed::{
    data_parallel_cost, local_sgd, optimize_placement, resilient_local_sgd, Cluster, Device,
    FaultPlan, FaultProfile, GradCompressor, Link, LocalSgdConfig, Placement,
    PlacementSearchConfig, ResilientConfig, StorageProfile,
};
use dl_green::{energy::energy_for, CarbonReport, HardwareProfile, Region};
use dl_memsched::{optimal_schedule, sqrt_schedule, store_all};
use dl_tensor::init;

fn model() -> dl_nn::Network {
    dl_nn::Network::mlp(&[64, 256, 256, 128, 64, 8], &mut init::rng(0))
}

#[test]
fn one_cost_profile_drives_every_simulator() {
    let net = model();
    let costs = net.layer_costs(64);
    let profile = net.cost_profile(64);
    // consistency: layer costs sum to the profile
    let sum_fwd: u64 = costs.iter().map(|c| c.forward_flops).sum();
    assert_eq!(sum_fwd, profile.forward_flops);

    // placement search must never return something worse than round-robin
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::nvlink());
    let rr = Placement::round_robin(costs.len(), 4).simulate(&cluster, &costs);
    let (_, best, _) = optimize_placement(&cluster, &costs, &PlacementSearchConfig::default());
    assert!(best.step_seconds <= rr.step_seconds + 1e-12);

    // rematerialization: optimal at sqrt's budget must not recompute more
    let sq = sqrt_schedule(&costs);
    let opt = optimal_schedule(&costs, sq.peak_bytes).expect("sqrt budget is feasible");
    assert!(opt.recompute_flops <= sq.recompute_flops);
    assert!(opt.peak_bytes <= sq.peak_bytes);
    assert!(store_all(&costs).peak_bytes >= sq.peak_bytes);

    // energy: a training campaign priced from the same FLOPs
    let flops = profile.train_step_flops() * 10_000;
    let energy = energy_for(&HardwareProfile::datacenter_gpu(), flops, 1.4);
    assert!(energy.total_kwh > 0.0);
    let hydro = CarbonReport::from_energy(&energy, Region::HydroNorth);
    let coal = CarbonReport::from_energy(&energy, Region::CoalBelt);
    assert!(coal.grams_co2e > hydro.grams_co2e * 10.0);
}

#[test]
fn local_sgd_and_compression_compose() {
    // data-parallel training under BOTH relaxed sync and compressed
    // gradients still learns the task
    let data = dl_data::blobs(200, 2, 4, 6.0, 0.4, 1);
    let eval = dl_data::blobs(80, 2, 4, 6.0, 0.4, 2);
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
    let (_, local) = local_sgd(
        &cluster,
        &data,
        &eval,
        &[4, 16, 2],
        &LocalSgdConfig {
            sync_period: 8,
            steps: 120,
            ..LocalSgdConfig::default()
        },
    );
    assert!(local.accuracy > 0.85, "local sgd acc {}", local.accuracy);
    let (_, compressed) = dl_distributed::compressed_sgd(
        &cluster,
        &data,
        &eval,
        &[4, 16, 2],
        &GradCompressor::TopK { frac: 0.05 },
        150,
        16,
        0.05,
        3,
    );
    assert!(
        compressed.accuracy > 0.85,
        "compressed acc {}",
        compressed.accuracy
    );
    assert!(compressed.ratio() > 5.0);
}

#[test]
fn elastic_training_survives_generated_faults_and_still_learns() {
    // end to end: an MTBF/MTTR profile generates a crash/repair schedule,
    // the elastic driver checkpoints to simulated blob storage, rolls
    // back through the crashes, and the surviving model still learns —
    // all of it deterministic across reruns.
    let data = dl_data::blobs(200, 2, 4, 6.0, 0.4, 30);
    let eval = dl_data::blobs(80, 2, 4, 6.0, 0.4, 31);
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
    let config = ResilientConfig {
        base: LocalSgdConfig {
            sync_period: 4,
            steps: 120,
            ..LocalSgdConfig::default()
        },
        checkpoint_interval: 16,
        storage: StorageProfile::blob_store(),
        ..ResilientConfig::default()
    };
    // pin worker 0 (drop its crash/rejoin events) so the run can always
    // make progress no matter how the schedule overlaps; scan seeds
    // deterministically until one schedules a crash on an unpinned worker
    let plan = (5u64..25)
        .map(|seed| {
            let generated =
                FaultPlan::from_profile(&FaultProfile::crashes(seed, 60.0, 20.0), 4, 120);
            FaultPlan::new(
                generated
                    .events()
                    .iter()
                    .filter(|e| {
                        !matches!(
                            e,
                            dl_distributed::FaultEvent::WorkerCrash { worker: 0, .. }
                                | dl_distributed::FaultEvent::WorkerRejoin { worker: 0, .. }
                        )
                    })
                    .copied()
                    .collect(),
            )
        })
        .find(|p| !p.is_empty())
        .expect("some seed in the scan must schedule a crash on workers 1..4");
    let (net_a, rep_a) = resilient_local_sgd(&cluster, &data, &eval, &[4, 16, 2], &config, &plan);
    let (net_b, rep_b) = resilient_local_sgd(&cluster, &data, &eval, &[4, 16, 2], &config, &plan);
    assert_eq!(rep_a, rep_b, "faulted runs must be deterministic");
    assert_eq!(net_a.flat_params(), net_b.flat_params());
    assert!(rep_a.crashes >= 1);
    assert!(rep_a.recovery_seconds > 0.0);
    assert!(rep_a.useful_samples <= rep_a.total_samples);
    assert!(
        rep_a.accuracy > 0.8,
        "elastic run should still learn: {}",
        rep_a.accuracy
    );

    // and with no faults, resilience adds no statistical cost: the model
    // is bit-identical to the plain Local SGD trajectory
    let mut clean_cfg = config.clone();
    clean_cfg.checkpoint_interval = 0;
    let (clean_net, _) = resilient_local_sgd(
        &cluster,
        &data,
        &eval,
        &[4, 16, 2],
        &clean_cfg,
        &FaultPlan::none(),
    );
    let (plain_net, _) = local_sgd(&cluster, &data, &eval, &[4, 16, 2], &clean_cfg.base);
    assert_eq!(clean_net.flat_params(), plain_net.flat_params());
}

#[test]
fn data_parallel_pricing_consistent_with_cluster_model() {
    let net = model();
    let costs = net.layer_costs(64);
    let grad_bytes: u64 = costs.iter().map(|c| c.params * 4).sum();
    let cluster = Cluster::homogeneous(8, Device::accelerator(), Link::ethernet());
    let dp = data_parallel_cost(&cluster, &costs);
    // the all-reduce term alone must lower-bound the step cost
    assert!(dp.step_seconds >= cluster.allreduce_time(grad_bytes));
    assert_eq!(dp.transfer_bytes, grad_bytes);
}
