//! One module per experiment in `DESIGN.md`'s index.

pub mod a01_error_feedback;
pub mod a02_rmi_leaves;
pub mod a03_p3_slices;
pub mod a04_snapshot_cycles;
pub mod e01_quantization;
pub mod e02_pruning;
pub mod e03_distillation;
pub mod e04_ensembles;
pub mod e05_local_sgd;
pub mod e06_gradient_compression;
pub mod e07_placement_search;
pub mod e08_morphnet;
pub mod e09_rematerialization;
pub mod e10_offloading;
pub mod e11_learned_index;
pub mod e12_learned_bloom;
pub mod e13_selectivity;
pub mod e14_knob_tuning;
pub mod e15_bias_measurement;
pub mod e16_bias_mitigation;
pub mod e17_tsne;
pub mod e18_lime;
pub mod e19_mistique;
pub mod e20_carbon;
pub mod e21_tradeoff_navigator;
pub mod e22_fault_tolerance;
pub mod e23_observability;
pub mod e24_profiling;
pub mod e25_serving;
pub mod e26_parallel;
pub mod e27_cluster;
pub mod e28_monitoring;
pub mod e29_request_tracing;
pub mod e30_weight_store;
pub mod e31_kernels;

use std::time::Instant;

use dl_distributed::{FaultEvent, FaultPlan, FaultProfile};
use dl_nn::{Dataset, Network, Optimizer, TrainConfig, Trainer};
use dl_serve::{
    build_family, open_loop, AdmissionPolicy, BatchPolicy, ClusterConfig, DeviceModel,
    FamilyConfig, LoadConfig, Request, RetryPolicy, ServeConfig, VariantRegistry,
};
use dl_tensor::{init, Tensor};

/// The shared digit-classification setup several Part-1 experiments use:
/// a train/test split of the procedural digits and a trained base model.
pub(crate) fn digits_setup(
    n: usize,
    hidden: &[usize],
    epochs: usize,
    seed: u64,
) -> (Dataset, Dataset, Network, Trainer) {
    let all = dl_data::digits_dataset(n, 0.08, seed);
    let (train, test) = all.split(0.3, seed.wrapping_add(1));
    let mut dims = vec![dl_data::DIGIT_SIDE * dl_data::DIGIT_SIDE];
    dims.extend_from_slice(hidden);
    dims.push(dl_data::DIGIT_CLASSES);
    let mut rng = init::rng(seed.wrapping_add(2));
    let mut net = Network::mlp(&dims, &mut rng);
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs,
            batch_size: 32,
            seed: seed.wrapping_add(3),
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut net, &train);
    (train, test, net, trainer)
}

/// Deterministic, RNG-free matrix fill shared by the kernel experiments:
/// ~25% exact zeros (exercising the kernels' sparse skip and nnz
/// accounting) and values in [-1, 1].
pub(crate) fn filled(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            if (i + salt).is_multiple_of(4) {
                0.0
            } else {
                let h = (i.wrapping_mul(2_654_435_761).wrapping_add(salt * 97)) % 1000;
                h as f32 / 499.5 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(data, [rows, cols]).expect("length matches by construction")
}

/// Minimum wall-clock microseconds over three runs of `f`.
pub(crate) fn best_us(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// An open-loop arrival schedule: `requests` arrivals at `rate_rps`,
/// sampling rows `0..rows`.
pub(crate) fn load(rate_rps: f64, requests: usize, seed: u64, rows: usize) -> Vec<Request> {
    let cfg = LoadConfig {
        rate_rps,
        requests,
        seed,
    };
    open_loop(&cfg, rows)
}

/// The six-variant 16-64-64-5 family E25 and E31 serve, and the eval set
/// it was measured on.
pub(crate) fn serving_family() -> (VariantRegistry, Dataset) {
    let data = dl_data::blobs(400, 5, 16, 2.4, 1.1, 90);
    let eval = dl_data::blobs(200, 5, 16, 2.4, 1.1, 91);
    let cfg = FamilyConfig {
        teacher_dims: vec![16, 64, 64, 5],
        student_hidden: vec![16],
        prune_sparsity: 0.8,
        morph_budget: 1200,
        ensemble_members: 3,
        max_batch: 32,
        epochs: 24,
        seed: 92,
    };
    (build_family(&data, &eval, &cfg), eval)
}

/// The 8-24-3 family the cluster experiments (E27–E29) serve: its
/// training data (seed `seed`), its eval set (`seed + 1`) and the family
/// (`seed + 2`).
pub(crate) fn cluster_family(seed: u64) -> (Dataset, Dataset, VariantRegistry) {
    let data = dl_data::blobs(160, 3, 8, 6.0, 0.5, seed);
    let eval = dl_data::blobs(96, 3, 8, 6.0, 0.5, seed + 1);
    let cfg = FamilyConfig {
        teacher_dims: vec![8, 24, 3],
        student_hidden: vec![6],
        prune_sparsity: 0.7,
        morph_budget: 150,
        ensemble_members: 2,
        max_batch: 16,
        epochs: 9,
        seed: seed + 2,
    };
    let family = build_family(&data, &eval, &cfg);
    (data, eval, family)
}

/// The cluster experiments' per-replica engine: batches of up to 16
/// within 5 µs on the nominal device, targeting `fp32-base`.
pub(crate) fn cluster_engine(admission: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        batch: BatchPolicy::dynamic(16, 5e-6),
        admission,
        primary: "fp32-base".into(),
        device: DeviceModel::nominal(),
    }
}

/// The p99 objective the SLO-aware cluster cells are governed against.
pub(crate) const CLUSTER_SLO_S: f64 = 2e-5;

/// SLO-aware admission against [`CLUSTER_SLO_S`] with 30% headroom.
pub(crate) fn cluster_slo() -> AdmissionPolicy {
    AdmissionPolicy::SloAware {
        p99_slo_s: CLUSTER_SLO_S,
        headroom: 0.7,
        min_accuracy: 0.0,
    }
}

/// Fault-plan step grid every chaos scenario is laid out on.
const STEPS: usize = 64;

/// One of E27's chaos scenarios, which E29 traces: the arrivals, and
/// the cluster its cells run (they vary only its policy knobs).
pub(crate) struct Scenario {
    pub(crate) requests: Vec<Request>,
    pub(crate) cluster: ClusterConfig,
}

impl Scenario {
    /// Lays the fault-plan steps over the first three quarters of the
    /// arrival span and sets up the cluster with `faults` on that grid.
    fn new(requests: Vec<Request>, faults: FaultPlan, cluster: ClusterConfig) -> Self {
        let span = requests.last().expect("non-empty").arrival_s;
        let cluster = ClusterConfig {
            faults,
            seconds_per_step: span / (STEPS as f64 * 0.75),
            ..cluster
        };
        Scenario { requests, cluster }
    }

    /// A cold-queue warmup window of one fault step at twice the service
    /// time.
    fn with_warmup(mut self) -> Self {
        self.cluster.warmup_s = self.cluster.seconds_per_step;
        self.cluster.warmup_factor = 2.0;
        self
    }
}

/// The crash storm on `replicas` replicas: 1,200 arrivals at 1.5x one
/// replica's full-batch capacity `cap_rps`, a seeded crash profile over
/// every replica, two retries per lost request and SLO-aware admission.
pub(crate) fn crash_storm(cap_rps: f64, rows: usize, replicas: usize) -> Scenario {
    let faults = FaultPlan::from_profile(&FaultProfile::crashes(7, 20.0, 6.0), replicas, STEPS);
    let cluster = ClusterConfig {
        retry: RetryPolicy::retries(2),
        ..ClusterConfig::new(replicas, cluster_engine(cluster_slo()))
    };
    Scenario::new(load(1.5 * cap_rps, 1200, 101, rows), faults, cluster).with_warmup()
}

/// The degraded replica: 900 arrivals at 1.8x capacity on 3 replicas,
/// with 1 µs dispatch; replica 0 straggles at 4x all run and a link
/// degradation quadruples dispatch latency over the second quarter.
pub(crate) fn degraded_replica(cap_rps: f64, rows: usize) -> Scenario {
    let faults = FaultPlan::new(vec![
        FaultEvent::Straggler {
            worker: 0,
            slowdown: 4.0,
            from_step: 0,
            to_step: STEPS,
        },
        FaultEvent::LinkDegrade {
            factor: 0.25,
            from_step: STEPS / 4,
            to_step: STEPS / 2,
        },
    ]);
    let cluster = ClusterConfig {
        dispatch_s: 1e-6,
        ..ClusterConfig::new(3, cluster_engine(AdmissionPolicy::AcceptAll))
    };
    Scenario::new(load(1.8 * cap_rps, 900, 102, rows), faults, cluster)
}

/// The straggler tail: 900 arrivals at 1.5x capacity on 3 replicas
/// under seeded crashes plus an 8x straggler on replica 1. Also returns
/// its hedged retry policy, whose hedge fires after ~2 full-batch
/// service times: long enough that healthy replicas never trigger it,
/// short enough to escape the straggler.
pub(crate) fn straggler_tail(cap_rps: f64, rows: usize) -> (Scenario, RetryPolicy) {
    let crashes = FaultPlan::from_profile(&FaultProfile::crashes(11, 24.0, 6.0), 3, STEPS);
    let mut events = crashes.events().to_vec();
    events.push(FaultEvent::Straggler {
        worker: 1,
        slowdown: 8.0,
        from_step: 0,
        to_step: STEPS,
    });
    let cluster = ClusterConfig::new(3, cluster_engine(AdmissionPolicy::AcceptAll));
    let requests = load(1.5 * cap_rps, 900, 103, rows);
    let tail = Scenario::new(requests, FaultPlan::new(events), cluster).with_warmup();
    (tail, RetryPolicy::hedged(2, 2.0 * 16.0 / cap_rps))
}
