//! Synchronous data-parallel SGD and Local SGD.
//!
//! Local SGD (§2.1) relaxes the constraint that every worker holds fresh
//! parameters: workers train independently for `sync_period` steps, then
//! average. Communication drops by the sync period; accuracy degrades
//! gracefully. `sync_period == 1` recovers fully-synchronous data-parallel
//! training (each worker still takes its own local step before averaging,
//! the standard local-update formulation).
//!
//! [`local_sgd`] is the fault-free case of the one Local SGD loop in
//! [`crate::resilient`]: it runs that loop with an empty [`FaultPlan`] and
//! no checkpoints, so both drivers share every RNG draw and every
//! arithmetic step. The module also holds the round-robin shards and
//! seeded per-worker sampling streams that loop and
//! [`crate::gradcomp::compressed_sgd`] draw their minibatches from.

use crate::fault::FaultPlan;
use crate::resilient::{self, ResilientConfig};
use crate::sim::Cluster;
use dl_nn::{loss::one_hot, Dataset, Loss, Network};
use dl_obs::{fields, NullRecorder, Recorder, ToFields};
use dl_tensor::init;
use rand::rngs::StdRng;
use rand::Rng;

/// Local SGD configuration.
#[derive(Debug, Clone)]
pub struct LocalSgdConfig {
    /// Steps between parameter averaging (1 = synchronous).
    pub sync_period: usize,
    /// Total optimizer steps per worker.
    pub steps: usize,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Learning rate (plain SGD keeps workers' trajectories comparable).
    pub lr: f32,
    /// Shuffle/shard seed.
    pub seed: u64,
}

impl Default for LocalSgdConfig {
    fn default() -> Self {
        LocalSgdConfig {
            sync_period: 1,
            steps: 200,
            batch_size: 16,
            lr: 0.05,
            seed: 0,
        }
    }
}

/// Outcome of a Local SGD run.
#[must_use = "the report carries the accuracy/bytes/time measurements this run exists to produce"]
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSgdReport {
    /// Sync period used.
    pub sync_period: usize,
    /// Final accuracy of the averaged model on the evaluation set.
    pub accuracy: f64,
    /// Total bytes communicated (all workers, all syncs).
    pub bytes_communicated: u64,
    /// Simulated wall-clock seconds (compute + communication).
    pub simulated_seconds: f64,
    /// Number of averaging rounds that occurred.
    pub sync_rounds: usize,
}

impl ToFields for LocalSgdReport {
    fn to_fields(&self) -> dl_obs::Fields {
        fields! {
            "sync_period" => self.sync_period,
            "accuracy" => self.accuracy,
            "bytes_communicated" => self.bytes_communicated,
            "simulated_seconds" => self.simulated_seconds,
            "sync_rounds" => self.sync_rounds,
        }
    }
}

/// Runs Local SGD with one worker per cluster device.
///
/// Data is sharded round-robin across workers; every worker runs real
/// forward/backward passes, and parameters are averaged every
/// `sync_period` steps. Returns the averaged model and the report.
///
/// # Panics
/// Panics when `sync_period == 0` or the dataset is smaller than the
/// worker count.
pub fn local_sgd(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    config: &LocalSgdConfig,
) -> (Network, LocalSgdReport) {
    local_sgd_traced(cluster, data, eval, dims, config, &NullRecorder::new())
}

/// [`local_sgd`] with tracing: the run, each averaging round, and the
/// communicated bytes are emitted onto `rec`, with the recorder's
/// [`dl_obs::VirtualClock`] mirroring the report's simulated seconds.
/// Inside the `local_sgd` run span the events are exactly those of a
/// fault-free [`crate::resilient::resilient_local_sgd_traced`] run.
///
/// The recorder only *observes* — it never participates in an RNG draw or
/// an arithmetic operation — so the trajectory is bit-identical to the
/// untraced run.
///
/// # Panics
/// As [`local_sgd`].
pub fn local_sgd_traced(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    config: &LocalSgdConfig,
    rec: &dyn Recorder,
) -> (Network, LocalSgdReport) {
    let run_span = rec.span_start(
        0,
        "local_sgd",
        fields! {
            "workers" => cluster.len(),
            "sync_period" => config.sync_period,
            "steps" => config.steps,
        },
    );
    let fault_free = ResilientConfig {
        base: config.clone(),
        checkpoint_interval: 0,
        ..ResilientConfig::default()
    };
    let (model, run) = resilient::train(
        cluster,
        data,
        eval,
        dims,
        &fault_free,
        &FaultPlan::none(),
        rec,
    );
    let report = LocalSgdReport {
        sync_period: run.sync_period,
        accuracy: run.accuracy,
        bytes_communicated: run.bytes_communicated,
        simulated_seconds: run.simulated_seconds,
        sync_rounds: run.sync_rounds,
    };
    rec.span_end(run_span, report.to_fields());
    (model, report)
}

/// A dataset split round-robin into one shard per worker, each sampled by
/// its own seeded stream (`seed + w + 1`; `seed` itself initialises the
/// model).
pub(crate) struct Shards<'a> {
    data: &'a Dataset,
    seed: u64,
    rows: Vec<Vec<usize>>,
    rngs: Vec<StdRng>,
}

impl<'a> Shards<'a> {
    /// # Panics
    /// Panics when `data` has fewer rows than there are workers.
    pub(crate) fn new(data: &'a Dataset, workers: usize, seed: u64) -> Self {
        assert!(
            data.len() >= workers,
            "dataset of {} rows cannot shard across {workers} workers",
            data.len()
        );
        Shards {
            data,
            seed,
            rows: (0..workers)
                .map(|w| (w..data.len()).step_by(workers).collect())
                .collect(),
            rngs: (0..workers).map(|w| stream(seed, w)).collect(),
        }
    }

    /// Rewinds worker `w`'s stream to its state after `draws` samples.
    pub(crate) fn replay(&mut self, w: usize, draws: u64) {
        let mut rng = stream(self.seed, w);
        for _ in 0..draws {
            let _: usize = rng.gen_range(0..self.rows[w].len());
        }
        self.rngs[w] = rng;
    }

    /// Draws worker `w`'s next `batch_size` rows (with replacement) from
    /// its shard and backpropagates their softmax cross-entropy through
    /// `net`, leaving the gradients in `net`.
    pub(crate) fn backprop(&mut self, w: usize, net: &mut Network, batch_size: usize) {
        let (shard, rng) = (&self.rows[w], &mut self.rngs[w]);
        let idx: Vec<usize> = (0..batch_size)
            .map(|_| shard[rng.gen_range(0..shard.len())])
            .collect();
        let xb = self.data.x.select_rows(&idx);
        let labels: Vec<usize> = idx.iter().map(|&i| self.data.y[i]).collect();
        let targets = one_hot(&labels, self.data.classes);
        let logits = net.forward(&xb, true);
        let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
        net.backward(&grad);
    }
}

fn stream(seed: u64, worker: usize) -> StdRng {
    init::rng(seed.wrapping_add(worker as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Device, Link};
    use dl_data::blobs;

    fn cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, Device::accelerator(), Link::ethernet())
    }

    #[test]
    fn sync_training_learns() {
        let data = blobs(200, 2, 4, 6.0, 0.4, 0);
        let eval = blobs(80, 2, 4, 6.0, 0.4, 1);
        let (_, report) = local_sgd(
            &cluster(4),
            &data,
            &eval,
            &[4, 16, 2],
            &LocalSgdConfig {
                steps: 150,
                ..LocalSgdConfig::default()
            },
        );
        assert!(report.accuracy > 0.9, "accuracy {}", report.accuracy);
        assert_eq!(report.sync_rounds, 150);
    }

    #[test]
    fn longer_period_cuts_communication() {
        let data = blobs(200, 2, 4, 6.0, 0.4, 2);
        let eval = blobs(80, 2, 4, 6.0, 0.4, 3);
        let run = |period| {
            local_sgd(
                &cluster(4),
                &data,
                &eval,
                &[4, 16, 2],
                &LocalSgdConfig {
                    sync_period: period,
                    steps: 120,
                    ..LocalSgdConfig::default()
                },
            )
            .1
        };
        let sync = run(1);
        let local8 = run(8);
        assert!(local8.bytes_communicated * 7 < sync.bytes_communicated);
        assert!(local8.simulated_seconds < sync.simulated_seconds);
        // accuracy should remain in the ballpark (tutorial's claim)
        assert!(local8.accuracy > sync.accuracy - 0.15);
    }

    #[test]
    fn single_worker_never_communicates() {
        let data = blobs(100, 2, 3, 6.0, 0.4, 4);
        let (_, report) = local_sgd(
            &cluster(1),
            &data,
            &data,
            &[3, 8, 2],
            &LocalSgdConfig {
                steps: 50,
                ..LocalSgdConfig::default()
            },
        );
        // bytes counted only across links; with one worker the all-reduce
        // is free but the bookkeeping still counts local "rounds"
        assert_eq!(report.sync_rounds, 50);
        assert!(report.simulated_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "sync_period must be positive")]
    fn zero_period_rejected() {
        let data = blobs(50, 2, 3, 6.0, 0.4, 5);
        let _ = local_sgd(
            &cluster(2),
            &data,
            &data,
            &[3, 4, 2],
            &LocalSgdConfig {
                sync_period: 0,
                ..LocalSgdConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "cannot shard")]
    fn dataset_smaller_than_worker_count_rejected() {
        let data = blobs(3, 2, 3, 6.0, 0.4, 6);
        let _ = local_sgd(
            &cluster(4),
            &data,
            &data,
            &[3, 4, 2],
            &LocalSgdConfig::default(),
        );
    }

    #[test]
    fn same_seed_and_config_reproduce_identical_reports() {
        let data = blobs(120, 2, 4, 6.0, 0.4, 14);
        let eval = blobs(60, 2, 4, 6.0, 0.4, 15);
        let cfg = LocalSgdConfig {
            sync_period: 4,
            steps: 60,
            seed: 77,
            ..LocalSgdConfig::default()
        };
        let (m1, r1) = local_sgd(&cluster(4), &data, &eval, &[4, 16, 2], &cfg);
        let (m2, r2) = local_sgd(&cluster(4), &data, &eval, &[4, 16, 2], &cfg);
        assert_eq!(r1, r2, "reports must be bit-identical across reruns");
        assert_eq!(m1.flat_params(), m2.flat_params());
    }
}
