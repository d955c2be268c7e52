//! Elastic, checkpointed Local SGD under injected faults.
//!
//! This module holds the crate's one Local SGD training loop.
//! [`resilient_local_sgd`] runs it as a TorchElastic-style recovery loop
//! driven by a [`FaultPlan`]:
//!
//! * **Crash detection** — a crashed worker is noticed after a simulated
//!   `detection_timeout`, the survivors re-form the averaging group with a
//!   small control all-reduce, restore the latest [`Checkpoint`], and
//!   resume from its step with the new (smaller) membership. Work since
//!   the checkpoint is lost and re-executed — the "replay" half of the
//!   checkpoint-interval tradeoff.
//! * **Elastic membership** — a rejoining worker re-enters at a step
//!   boundary: if the latest checkpoint is fresh enough
//!   (`max_rejoin_staleness`) it restores from storage, otherwise it
//!   bootstraps parameters directly from a live peer over the cluster
//!   link. Either way the group grows back without a global restart.
//! * **Allreduce retry** — while the plan degrades the link below
//!   `BackoffPolicy::fail_threshold`, averaging rounds fail and retry
//!   with exponentially growing backoff (all in simulated time).
//!
//! With an empty plan and `checkpoint_interval: 0` the loop is plain
//! fault-free Local SGD; [`crate::datapar::local_sgd`] runs it that way.
//! Stragglers and link degradation change only the simulated clock, never
//! the parameters (a healthy worker's compute time is multiplied by a
//! slowdown of exactly `1.0`, which is bit-exact).

use crate::checkpoint::{Checkpoint, CheckpointStore, StorageProfile};
use crate::datapar::{LocalSgdConfig, Shards};
use crate::fault::{FaultEvent, FaultPlan};
use crate::sim::Cluster;
use dl_nn::{Dataset, Network, Optimizer};
use dl_obs::{fields, NullRecorder, Recorder, ToFields};
use dl_tensor::init;

/// Exponential-backoff policy for failed allreduce rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Simulated seconds waited after the first failed attempt; doubles
    /// per retry.
    pub initial: f64,
    /// Maximum retries before the round proceeds degraded.
    pub max_retries: usize,
    /// An attempt fails while the effective link factor (plan factor
    /// doubled per backoff round, modeling congestion draining) is at or
    /// below this threshold. Must be `< 1` or healthy links would retry.
    pub fail_threshold: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: 1e-3,
            max_retries: 6,
            fail_threshold: 0.25,
        }
    }
}

/// Configuration for [`resilient_local_sgd`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    /// The underlying Local SGD configuration (seed, steps, sync period…).
    pub base: LocalSgdConfig,
    /// Steps between checkpoints (taken at sync boundaries, so the stored
    /// parameters are the synchronized model). `0` keeps only the free
    /// initial checkpoint — crashes roll all the way back to step 0.
    pub checkpoint_interval: usize,
    /// Storage target the checkpoints are written to.
    pub storage: StorageProfile,
    /// Simulated seconds for the survivors to notice a crash.
    pub detection_timeout: f64,
    /// Retry policy for degraded allreduce rounds.
    pub backoff: BackoffPolicy,
    /// Maximum steps of staleness a rejoiner may absorb from the latest
    /// checkpoint; beyond it, parameters are fetched from a live peer.
    pub max_rejoin_staleness: usize,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            base: LocalSgdConfig::default(),
            checkpoint_interval: 16,
            storage: StorageProfile::local_ssd(),
            detection_timeout: 5e-3,
            backoff: BackoffPolicy::default(),
            max_rejoin_staleness: 64,
        }
    }
}

/// Outcome of a resilient Local SGD run.
#[must_use = "the report carries the goodput and recovery accounting this run exists to measure"]
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Sync period used.
    pub sync_period: usize,
    /// Checkpoint interval used (0 = initial checkpoint only).
    pub checkpoint_interval: usize,
    /// Final accuracy of the surviving averaged model.
    pub accuracy: f64,
    /// Total simulated seconds, including detection, recovery, retries
    /// and checkpoint writes.
    pub simulated_seconds: f64,
    /// Gradient + bootstrap bytes moved across the cluster.
    pub bytes_communicated: u64,
    /// Averaging rounds completed.
    pub sync_rounds: usize,
    /// Samples trained across all workers, including work later lost.
    pub total_samples: u64,
    /// Samples whose effect survived into the final model.
    pub useful_samples: u64,
    /// Samples lost to rollbacks (`total - useful`).
    pub lost_samples: u64,
    /// Useful samples per simulated second — the headline metric.
    pub goodput: f64,
    /// Crash events experienced.
    pub crashes: usize,
    /// Rejoin events experienced.
    pub rejoins: usize,
    /// Rollbacks to a checkpoint (one per detected crash).
    pub rollbacks: usize,
    /// Failed allreduce attempts that were retried.
    pub allreduce_retries: usize,
    /// Simulated seconds spent detecting, regrouping, restoring and
    /// backing off.
    pub recovery_seconds: f64,
    /// Simulated seconds spent writing checkpoints.
    pub checkpoint_seconds: f64,
    /// Checkpoints written (excluding the free initial one).
    pub checkpoints_written: usize,
    /// Bytes written to checkpoint storage.
    pub checkpoint_bytes: u64,
    /// Workers alive at the end of the run.
    pub final_workers: usize,
}

impl ToFields for ResilienceReport {
    fn to_fields(&self) -> dl_obs::Fields {
        fields! {
            "sync_period" => self.sync_period,
            "checkpoint_interval" => self.checkpoint_interval,
            "accuracy" => self.accuracy,
            "simulated_seconds" => self.simulated_seconds,
            "bytes_communicated" => self.bytes_communicated,
            "sync_rounds" => self.sync_rounds,
            "total_samples" => self.total_samples,
            "useful_samples" => self.useful_samples,
            "lost_samples" => self.lost_samples,
            "goodput" => self.goodput,
            "crashes" => self.crashes,
            "rejoins" => self.rejoins,
            "rollbacks" => self.rollbacks,
            "allreduce_retries" => self.allreduce_retries,
            "recovery_seconds" => self.recovery_seconds,
            "checkpoint_seconds" => self.checkpoint_seconds,
            "checkpoints_written" => self.checkpoints_written,
            "checkpoint_bytes" => self.checkpoint_bytes,
            "final_workers" => self.final_workers,
        }
    }
}

/// Runs elastic Local SGD under the given fault plan.
///
/// See the module docs for the recovery semantics. Returns the final
/// surviving model and the report. A plan that kills every worker stops
/// the run early and returns the last checkpoint, with
/// `final_workers == 0`.
///
/// # Panics
/// Panics on `sync_period == 0`, a dataset smaller than the worker
/// count, or a plan referencing an unknown worker.
pub fn resilient_local_sgd(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    config: &ResilientConfig,
    plan: &FaultPlan,
) -> (Network, ResilienceReport) {
    resilient_local_sgd_traced(
        cluster,
        data,
        eval,
        dims,
        config,
        plan,
        &NullRecorder::new(),
    )
}

/// [`resilient_local_sgd`] with tracing: the run and every averaging
/// round and checkpoint write become spans on `rec`; crashes, rollbacks,
/// rejoins, allreduce retries and fault episodes become instants. Track 0
/// is the coordinator timeline and track `w + 1` is worker `w`, so a
/// Chrome trace shows each worker's faults on its own row.
///
/// The recorder only *observes* the run (its [`dl_obs::VirtualClock`]
/// mirrors the driver's simulated-seconds accumulator); no RNG draw or
/// arithmetic operation depends on it, so the trajectory stays
/// bit-identical to the untraced run.
///
/// # Panics
/// As [`resilient_local_sgd`].
#[allow(clippy::too_many_arguments)]
pub fn resilient_local_sgd_traced(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    config: &ResilientConfig,
    plan: &FaultPlan,
    rec: &dyn Recorder,
) -> (Network, ResilienceReport) {
    let run_span = rec.span_start(
        0,
        "resilient_local_sgd",
        fields! {
            "workers" => cluster.len(),
            "sync_period" => config.base.sync_period,
            "steps" => config.base.steps,
            "checkpoint_interval" => config.checkpoint_interval,
        },
    );
    let (model, report) = train(cluster, data, eval, dims, config, plan, rec);
    rec.span_end(run_span, report.to_fields());
    (model, report)
}

/// The Local SGD loop behind [`resilient_local_sgd_traced`] and
/// [`crate::datapar::local_sgd_traced`]. It emits every event of the run
/// except the run span, which each caller opens and closes itself.
pub(crate) fn train(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    config: &ResilientConfig,
    plan: &FaultPlan,
    rec: &dyn Recorder,
) -> (Network, ResilienceReport) {
    let base = &config.base;
    assert!(base.sync_period > 0, "sync_period must be positive");
    let workers = cluster.len();
    let mut shards = Shards::new(data, workers, base.seed);
    for e in plan.events() {
        if let FaultEvent::WorkerCrash { worker, .. }
        | FaultEvent::WorkerRejoin { worker, .. }
        | FaultEvent::Straggler { worker, .. } = *e
        {
            assert!(worker < workers, "fault plan names an unknown worker");
        }
    }

    // Identical initialization on every worker (standard practice).
    let mut seed_rng = init::rng(base.seed);
    let reference = Network::mlp(dims, &mut seed_rng);
    let mut nets: Vec<Network> = (0..workers).map(|_| reference.clone()).collect();
    let mut opts: Vec<Optimizer> = (0..workers).map(|_| Optimizer::sgd(base.lr)).collect();
    let step_flops = reference.cost_profile(base.batch_size).train_step_flops();
    let grad_bytes = (reference.param_count() * 4) as u64;

    let mut alive = vec![true; workers];
    let mut cursors = vec![0u64; workers];
    let mut store = CheckpointStore::new(config.storage);
    store.seed_initial(Checkpoint {
        step: 0,
        params: reference.flat_params(),
        optimizer: Optimizer::sgd(base.lr),
        cursors: cursors.clone(),
    });
    let mut last_ckpt_step = 0usize;
    let mut samples_since_ckpt = 0u64;

    // Membership events (crash, rejoin) fire exactly once, and fault
    // *episodes* (degradation, straggling) get an annotating instant when
    // they first take effect. Both indices only advance, so a rollback
    // (which rewinds `step`) cannot re-trigger a crash or re-announce an
    // episode.
    let (membership, episodes): (Vec<FaultEvent>, Vec<FaultEvent>) =
        plan.events().iter().partition(|e| e.is_membership());
    let (mut next_event, mut next_episode) = (0usize, 0usize);

    let mut bytes = 0u64;
    let mut seconds = 0.0f64;
    let mut rounds = 0usize;
    let mut total_samples = 0u64;
    let mut lost_samples = 0u64;
    let mut crashes = 0usize;
    let mut rejoins = 0usize;
    let mut rollbacks = 0usize;
    let mut retries = 0usize;
    let mut recovery_seconds = 0.0f64;
    let mut aborted = false;

    let regroup_bytes = 64u64; // membership-agreement control message

    // Simulated-time origin on the shared clock (several runs may trace
    // onto one recorder back to back).
    let t0 = rec.clock().now();

    let mut step = 0usize;
    'training: while step < base.steps {
        while next_episode < episodes.len() && episodes[next_episode].at_step() <= step {
            match episodes[next_episode] {
                FaultEvent::LinkDegrade {
                    factor,
                    from_step,
                    to_step,
                } => rec.instant(
                    0,
                    "link_degrade",
                    fields! { "factor" => factor, "from_step" => from_step, "to_step" => to_step },
                ),
                FaultEvent::Straggler {
                    worker,
                    slowdown,
                    from_step,
                    to_step,
                } => rec.instant(
                    worker as u32 + 1,
                    "straggler",
                    fields! {
                        "worker" => worker,
                        "slowdown" => slowdown,
                        "from_step" => from_step,
                        "to_step" => to_step,
                    },
                ),
                _ => {}
            }
            next_episode += 1;
        }
        // Fire due membership events, one at a time (a crash rewinds
        // `step`, so remaining same-step events re-fire checks later).
        while next_event < membership.len() && membership[next_event].at_step() <= step {
            let event = membership[next_event];
            next_event += 1;
            match event {
                FaultEvent::WorkerCrash { worker, .. } if alive[worker] => {
                    alive[worker] = false;
                    crashes += 1;
                    let factor = plan.link_factor_at(step);
                    // detect, re-form the group, restore, roll back
                    let regroup = cluster.allreduce_time(regroup_bytes) / factor;
                    let detect = config.detection_timeout + regroup;
                    seconds += detect;
                    recovery_seconds += detect;
                    rec.clock().set(t0 + seconds);
                    rec.instant(
                        worker as u32 + 1,
                        "crash",
                        fields! { "worker" => worker, "step" => step },
                    );
                    if alive.iter().any(|&a| a) {
                        let read = store.charge_read();
                        seconds += read;
                        recovery_seconds += read;
                        // Every worker rewinds its cursor; the live ones
                        // also restore their model, optimizer and stream (a
                        // dead worker's stream is replayed when it rejoins).
                        let ckpt = store.latest().expect("store is seeded");
                        cursors.copy_from_slice(&ckpt.cursors);
                        for w in (0..workers).filter(|&w| alive[w]) {
                            ckpt.restore_into(&mut nets[w]);
                            opts[w] = ckpt.optimizer.clone();
                            shards.replay(w, cursors[w]);
                        }
                        lost_samples += samples_since_ckpt;
                        rec.clock().set(t0 + seconds);
                        rec.instant(
                            0,
                            "rollback",
                            fields! {
                                "from_step" => step,
                                "to_step" => ckpt.step,
                                "lost_samples" => samples_since_ckpt,
                            },
                        );
                        samples_since_ckpt = 0;
                        rollbacks += 1;
                        step = ckpt.step;
                        continue 'training;
                    }
                    // Everyone is gone: salvage the last checkpoint below.
                    rec.instant(0, "abort", fields! { "step" => step });
                    aborted = true;
                    break 'training;
                }
                FaultEvent::WorkerRejoin { worker, .. } if !alive[worker] => {
                    let factor = plan.link_factor_at(step);
                    let regroup = cluster.allreduce_time(regroup_bytes) / factor;
                    seconds += regroup;
                    recovery_seconds += regroup;
                    let ckpt_step = store.latest().expect("store is seeded").step;
                    let from_checkpoint = step - ckpt_step <= config.max_rejoin_staleness;
                    if from_checkpoint {
                        // fresh enough: restore from storage
                        let read = store.charge_read();
                        seconds += read;
                        recovery_seconds += read;
                        let ckpt = store.latest().expect("store is seeded");
                        ckpt.restore_into(&mut nets[worker]);
                        opts[worker] = ckpt.optimizer.clone();
                        cursors[worker] = ckpt.cursors[worker];
                    } else {
                        // too stale: pull live parameters from a peer
                        let peer = (0..workers)
                            .find(|&w| alive[w])
                            .expect("a rejoin implies a live peer or a prior abort");
                        let fetch = cluster.link.transfer_time(grad_bytes) / factor;
                        seconds += fetch;
                        recovery_seconds += fetch;
                        bytes += grad_bytes;
                        let params = nets[peer].flat_params();
                        nets[worker].set_flat_params(&params);
                        opts[worker] = Optimizer::sgd(base.lr);
                    }
                    shards.replay(worker, cursors[worker]);
                    alive[worker] = true;
                    rejoins += 1;
                    rec.clock().set(t0 + seconds);
                    rec.instant(
                        worker as u32 + 1,
                        "rejoin",
                        fields! {
                            "worker" => worker,
                            "step" => step,
                            "source" => if from_checkpoint { "checkpoint" } else { "peer" },
                        },
                    );
                }
                _ => {} // crash of a dead worker / rejoin of a live one: no-op
            }
        }

        let living: Vec<usize> = (0..workers).filter(|&w| alive[w]).collect();
        for &w in &living {
            shards.backprop(w, &mut nets[w], base.batch_size);
            let mut pg = nets[w].params_and_grads();
            opts[w].step(&mut pg, 1.0);
            cursors[w] += base.batch_size as u64;
        }
        let drawn = (base.batch_size * living.len()) as u64;
        total_samples += drawn;
        samples_since_ckpt += drawn;

        // Workers run in parallel: the slowest living one dominates,
        // stragglers included.
        seconds += living
            .iter()
            .map(|&w| cluster.devices[w].compute_time(step_flops) * plan.slowdown_at(step, w))
            .fold(0.0, f64::max);
        rec.clock().set(t0 + seconds);

        if (step + 1).is_multiple_of(base.sync_period) {
            let round_span = rec.span_start(
                0,
                "sync_round",
                fields! { "round" => rounds, "step" => step, "workers" => living.len() },
            );
            average_surviving(&mut nets, &alive);
            let factor = plan.link_factor_at(step);
            let base_t = cluster.allreduce_time(grad_bytes);
            // A degraded round fails until exponential backoff has widened
            // the retry window enough (deterministic congestion model).
            let mut attempt = 0i32;
            while (attempt as usize) < config.backoff.max_retries
                && factor * f64::powi(2.0, attempt) <= config.backoff.fail_threshold
            {
                let wasted = base_t / factor + config.backoff.initial * f64::powi(2.0, attempt);
                seconds += wasted;
                recovery_seconds += wasted;
                retries += 1;
                rec.clock().set(t0 + seconds);
                rec.instant(
                    0,
                    "allreduce_retry",
                    fields! { "attempt" => attempt as u32, "wasted_seconds" => wasted },
                );
                attempt += 1;
            }
            let effective = (factor * f64::powi(2.0, attempt)).min(1.0);
            seconds += base_t / effective;
            bytes += grad_bytes * living.len() as u64;
            rounds += 1;
            rec.clock().set(t0 + seconds);
            rec.counter(0, "bytes_communicated", grad_bytes * living.len() as u64);
            rec.span_end(
                round_span,
                fields! { "bytes" => grad_bytes * living.len() as u64 },
            );

            if config.checkpoint_interval > 0
                && (step + 1) - last_ckpt_step >= config.checkpoint_interval
            {
                let ckpt_span =
                    rec.span_start(0, "checkpoint_write", fields! { "step" => step + 1 });
                let bytes_before = store.bytes_written;
                let lead = living[0];
                let write = store.save(Checkpoint {
                    step: step + 1,
                    params: nets[lead].flat_params(),
                    optimizer: opts[lead].clone(),
                    cursors: cursors.clone(),
                });
                seconds += write;
                last_ckpt_step = step + 1;
                samples_since_ckpt = 0;
                rec.clock().set(t0 + seconds);
                rec.span_end(
                    ckpt_span,
                    fields! { "bytes" => store.bytes_written - bytes_before },
                );
            }
        }
        step += 1;
    }

    let (mut model, final_workers) = if aborted {
        lost_samples += samples_since_ckpt;
        let ckpt = store.latest().expect("store is seeded");
        let mut net = reference;
        ckpt.restore_into(&mut net);
        (net, 0)
    } else {
        average_surviving(&mut nets, &alive);
        let survivor = (0..workers)
            .find(|&w| alive[w])
            .expect("non-aborted run has a survivor");
        (
            nets.swap_remove(survivor),
            alive.iter().filter(|&&a| a).count(),
        )
    };
    model.clear_caches();
    let accuracy = dl_nn::metrics::accuracy(&model.predict(&eval.x), &eval.y);

    let useful_samples = total_samples - lost_samples;
    let goodput = if seconds > 0.0 {
        useful_samples as f64 / seconds
    } else {
        0.0
    };
    let report = ResilienceReport {
        sync_period: base.sync_period,
        checkpoint_interval: config.checkpoint_interval,
        accuracy,
        simulated_seconds: seconds,
        bytes_communicated: bytes,
        sync_rounds: rounds,
        total_samples,
        useful_samples,
        lost_samples,
        goodput,
        crashes,
        rejoins,
        rollbacks,
        allreduce_retries: retries,
        recovery_seconds,
        checkpoint_seconds: store.write_seconds,
        checkpoints_written: store.writes,
        checkpoint_bytes: store.bytes_written,
        final_workers,
    };
    rec.clock().set(t0 + seconds);
    (model, report)
}

/// Replaces every live worker's parameters with their elementwise mean.
fn average_surviving(nets: &mut [Network], alive: &[bool]) {
    let living: Vec<usize> = (0..nets.len()).filter(|&w| alive[w]).collect();
    if living.len() <= 1 {
        return;
    }
    let mut mean = nets[living[0]].flat_params();
    for &w in living.iter().skip(1) {
        for (m, v) in mean.iter_mut().zip(nets[w].flat_params()) {
            *m += v;
        }
    }
    let n = living.len() as f32;
    for m in &mut mean {
        *m /= n;
    }
    for &w in &living {
        nets[w].set_flat_params(&mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapar::local_sgd;
    use crate::fault::FaultProfile;
    use crate::sim::{Device, Link};
    use dl_data::blobs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, Device::accelerator(), Link::ethernet())
    }

    fn small_config(steps: usize, sync_period: usize, interval: usize) -> ResilientConfig {
        ResilientConfig {
            base: LocalSgdConfig {
                sync_period,
                steps,
                batch_size: 8,
                lr: 0.05,
                seed: 0,
            },
            checkpoint_interval: interval,
            ..ResilientConfig::default()
        }
    }

    #[test]
    fn zero_fault_run_is_bit_identical_to_local_sgd() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 0);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 1);
        let dims = [6, 16, 3];
        // interval 0: only the free initial checkpoint, so even the
        // simulated clock matches the fault-free driver exactly.
        let config = small_config(40, 4, 0);
        let plan = FaultPlan::from_profile(&FaultProfile::none(5), 4, 40);
        assert!(plan.is_empty());
        let (plain_net, plain) = local_sgd(&cluster(4), &data, &eval, &dims, &config.base);
        let (res_net, report) =
            resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        assert_eq!(plain_net.flat_params(), res_net.flat_params());
        assert_eq!(report.accuracy, plain.accuracy);
        assert_eq!(report.bytes_communicated, plain.bytes_communicated);
        assert_eq!(report.sync_rounds, plain.sync_rounds);
        assert_eq!(report.simulated_seconds, plain.simulated_seconds);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.lost_samples, 0);
        assert_eq!(report.useful_samples, report.total_samples);
        assert_eq!(report.final_workers, 4);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 2);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 3);
        let dims = [6, 16, 3];
        let config = small_config(48, 4, 8);
        let plan = FaultPlan::from_profile(&FaultProfile::crashes(21, 20.0, 10.0), 4, 48);
        let run = || resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        let (net_a, rep_a) = run();
        let (net_b, rep_b) = run();
        assert_eq!(net_a.flat_params(), net_b.flat_params());
        assert_eq!(rep_a, rep_b);
    }

    #[test]
    fn crash_triggers_rollback_and_costs_time() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 4);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 5);
        let dims = [6, 16, 3];
        let config = small_config(40, 4, 8);
        let clean = FaultPlan::none();
        let faulty = FaultPlan::new(vec![FaultEvent::WorkerCrash {
            worker: 2,
            at_step: 21,
        }]);
        let (_, base) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &clean);
        let (_, hit) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &faulty);
        assert_eq!(hit.crashes, 1);
        assert_eq!(hit.rollbacks, 1);
        assert_eq!(hit.final_workers, 3);
        // rolled back from step 21 to the step-16 checkpoint
        assert!(hit.lost_samples > 0, "work since the checkpoint is lost");
        assert!(hit.recovery_seconds > 0.0);
        assert!(hit.simulated_seconds > base.simulated_seconds);
        assert!(hit.goodput < base.goodput);
        // survivors keep learning
        assert!(hit.accuracy > 0.6, "accuracy {}", hit.accuracy);
    }

    #[test]
    fn rejoin_restores_membership() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 6);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 7);
        let dims = [6, 16, 3];
        let config = small_config(48, 4, 8);
        let plan = FaultPlan::new(vec![
            FaultEvent::WorkerCrash {
                worker: 1,
                at_step: 10,
            },
            FaultEvent::WorkerRejoin {
                worker: 1,
                at_step: 26,
            },
        ]);
        let (_, report) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.rejoins, 1);
        assert_eq!(report.final_workers, 4);
    }

    #[test]
    fn stale_rejoin_bootstraps_from_peer() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 6);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 7);
        let dims = [6, 16, 3];
        let mut config = small_config(48, 4, 8);
        config.max_rejoin_staleness = 0; // every rejoin is "too stale"
        let plan = FaultPlan::new(vec![
            FaultEvent::WorkerCrash {
                worker: 1,
                at_step: 10,
            },
            FaultEvent::WorkerRejoin {
                worker: 1,
                at_step: 27, // not a checkpoint step, so staleness > 0
            },
        ]);
        let clean_bytes = {
            let (_, r) = resilient_local_sgd(
                &cluster(4),
                &data,
                &eval,
                &dims,
                &config,
                &FaultPlan::none(),
            );
            r.bytes_communicated
        };
        let (_, report) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        assert_eq!(report.rejoins, 1);
        // the peer bootstrap moved one model's worth of extra bytes,
        // though the crash also removed the dead worker's sync traffic
        assert!(report.bytes_communicated != clean_bytes);
        assert_eq!(report.final_workers, 4);
    }

    #[test]
    fn link_degradation_forces_retries() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 8);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 9);
        let dims = [6, 16, 3];
        let config = small_config(24, 4, 0);
        let plan = FaultPlan::new(vec![FaultEvent::LinkDegrade {
            factor: 0.05,
            from_step: 4,
            to_step: 12,
        }]);
        let (_, clean) = resilient_local_sgd(
            &cluster(4),
            &data,
            &eval,
            &dims,
            &config,
            &FaultPlan::none(),
        );
        let (_, degraded) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        assert!(degraded.allreduce_retries > 0);
        assert!(degraded.simulated_seconds > clean.simulated_seconds);
        assert_eq!(degraded.crashes, 0);
    }

    #[test]
    fn straggler_slows_the_clock_not_the_model() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 8);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 9);
        let dims = [6, 16, 3];
        let config = small_config(24, 4, 0);
        let plan = FaultPlan::new(vec![FaultEvent::Straggler {
            worker: 3,
            slowdown: 10.0,
            from_step: 0,
            to_step: 24,
        }]);
        let (clean_net, clean) = resilient_local_sgd(
            &cluster(4),
            &data,
            &eval,
            &dims,
            &config,
            &FaultPlan::none(),
        );
        let (slow_net, slow) =
            resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        // a straggler changes time, not the parameter trajectory
        assert_eq!(clean_net.flat_params(), slow_net.flat_params());
        assert!(slow.simulated_seconds > clean.simulated_seconds);
        assert!(slow.goodput < clean.goodput);
    }

    #[test]
    fn all_workers_dead_salvages_checkpoint() {
        let data = blobs(120, 3, 6, 6.0, 0.5, 10);
        let eval = blobs(60, 3, 6, 6.0, 0.5, 11);
        let dims = [6, 16, 3];
        let config = small_config(40, 4, 8);
        let plan = FaultPlan::new(
            (0..4)
                .map(|w| FaultEvent::WorkerCrash {
                    worker: w,
                    at_step: 20,
                })
                .collect(),
        );
        let (_, report) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
        assert_eq!(report.final_workers, 0);
        assert!(report.sync_rounds < 10, "run must have stopped early");
        assert!(report.accuracy > 0.0);
    }

    #[test]
    fn average_surviving_is_the_elementwise_mean_of_the_living() {
        let mut r = init::rng(0);
        let nets: Vec<Network> = (0..3).map(|_| Network::mlp(&[2, 3, 2], &mut r)).collect();
        let dead = nets[1].flat_params();
        let expected: Vec<f32> = nets[0]
            .flat_params()
            .iter()
            .zip(nets[2].flat_params())
            .map(|(&x, y)| (x + y) / 2.0)
            .collect();
        let mut nets = nets;
        average_surviving(&mut nets, &[true, false, true]);
        assert_eq!(nets[0].flat_params(), expected);
        assert_eq!(nets[2].flat_params(), expected);
        assert_eq!(nets[1].flat_params(), dead, "a dead worker is left alone");
    }

    #[test]
    #[should_panic(expected = "unknown worker")]
    fn plan_naming_an_unknown_worker_is_rejected() {
        let data = blobs(40, 3, 6, 6.0, 0.5, 8);
        let plan = FaultPlan::new(vec![FaultEvent::WorkerCrash {
            worker: 9,
            at_step: 5,
        }]);
        let config = small_config(8, 2, 0);
        let _ = resilient_local_sgd(&cluster(2), &data, &data, &[6, 4, 3], &config, &plan);
    }

    /// A random small run: 1-4 workers, a few rows per worker, 4-24 steps.
    fn random_run(rng: &mut StdRng) -> (Cluster, Dataset, ResilientConfig) {
        let workers = rng.gen_range(1usize..5);
        let rows = rng.gen_range(workers..workers * 6 + 1);
        let data = blobs(rows, 2, 4, 6.0, 0.5, rng.gen_range(0u64..1000));
        let config = ResilientConfig {
            base: LocalSgdConfig {
                sync_period: rng.gen_range(1usize..5),
                steps: rng.gen_range(4usize..25),
                batch_size: rng.gen_range(1usize..6),
                lr: 0.05,
                seed: rng.gen_range(0u64..1000),
            },
            checkpoint_interval: rng.gen_range(0usize..9),
            ..ResilientConfig::default()
        };
        (cluster(workers), data, config)
    }

    /// A random episode `[from, to)` inside `0..steps + 4`.
    fn random_episode(rng: &mut StdRng, steps: usize) -> (usize, usize) {
        let from = rng.gen_range(0..steps + 4);
        (from, rng.gen_range(from + 1..steps + 5))
    }

    /// Property: stragglers and link degradation cost time, never
    /// parameters. The final model is bit-identical to the empty-plan run
    /// and the clock never runs faster.
    #[test]
    fn slowdowns_change_the_clock_never_the_parameters() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let (cluster, data, config) = random_run(&mut rng);
            let steps = config.base.steps;
            let events = (0..rng.gen_range(1usize..5))
                .map(|_| {
                    let (from_step, to_step) = random_episode(&mut rng, steps);
                    if rng.gen_range(0..2) == 0 {
                        FaultEvent::Straggler {
                            worker: rng.gen_range(0..cluster.len()),
                            slowdown: rng.gen_range(1.0..10.0),
                            from_step,
                            to_step,
                        }
                    } else {
                        FaultEvent::LinkDegrade {
                            factor: rng.gen_range(0.01..1.0),
                            from_step,
                            to_step,
                        }
                    }
                })
                .collect();
            let run = |plan: &FaultPlan| {
                resilient_local_sgd(&cluster, &data, &data, &[4, 6, 2], &config, plan)
            };
            let (clean_net, clean) = run(&FaultPlan::none());
            let (slow_net, slow) = run(&FaultPlan::new(events));
            assert_eq!(
                clean_net.flat_params(),
                slow_net.flat_params(),
                "case {case}"
            );
            assert!(
                slow.simulated_seconds >= clean.simulated_seconds,
                "case {case}"
            );
            assert_eq!(slow.sync_rounds, clean.sync_rounds, "case {case}");
            assert_eq!(
                slow.bytes_communicated, clean.bytes_communicated,
                "case {case}"
            );
        }
    }

    /// Property: under random crash/rejoin plans (including ones that kill
    /// every worker) the sample accounting balances and a rerun reproduces
    /// the report exactly.
    #[test]
    fn random_crash_plans_conserve_samples_and_rerun_identically() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(1000 + case);
            let (cluster, data, config) = random_run(&mut rng);
            let steps = config.base.steps;
            let events = (0..rng.gen_range(1usize..6))
                .map(|_| {
                    let worker = rng.gen_range(0..cluster.len());
                    let at_step = rng.gen_range(0..steps);
                    if rng.gen_range(0..3) == 0 {
                        FaultEvent::WorkerRejoin { worker, at_step }
                    } else {
                        FaultEvent::WorkerCrash { worker, at_step }
                    }
                })
                .collect();
            let plan = FaultPlan::new(events);
            let run = || resilient_local_sgd(&cluster, &data, &data, &[4, 6, 2], &config, &plan);
            let (net_a, a) = run();
            let (net_b, b) = run();
            assert_eq!(
                a.useful_samples + a.lost_samples,
                a.total_samples,
                "case {case}"
            );
            assert!(a.crashes <= plan.crash_count(), "case {case}");
            assert!(a.final_workers <= cluster.len(), "case {case}");
            assert_eq!(a, b, "case {case}");
            assert_eq!(net_a.flat_params(), net_b.flat_params(), "case {case}");
        }
    }

    /// Goodput must not increase as crashes are added. Checked on nested
    /// plans: each prefix of a crash schedule is a strictly less faulty
    /// run of the same trajectory.
    fn check_goodput_monotone(crash_steps: Vec<usize>) {
        let data = blobs(96, 3, 6, 6.0, 0.5, 12);
        let eval = blobs(48, 3, 6, 6.0, 0.5, 13);
        let dims = [6, 16, 3];
        let config = small_config(48, 4, 8);
        let mut steps = crash_steps;
        steps.sort_unstable();
        let mut last = f64::INFINITY;
        for k in 0..=steps.len() {
            // worker 0 never crashes, so the run always completes
            let events = steps[..k]
                .iter()
                .enumerate()
                .map(|(i, &s)| FaultEvent::WorkerCrash {
                    worker: 1 + (i % 3),
                    at_step: s,
                })
                .collect();
            let plan = FaultPlan::new(events);
            let (_, report) = resilient_local_sgd(&cluster(4), &data, &eval, &dims, &config, &plan);
            assert!(
                report.goodput <= last + 1e-9,
                "goodput rose from {last} to {} at {k} crashes",
                report.goodput
            );
            last = report.goodput;
        }
    }

    /// Deterministic spot-checks of the monotonicity contract; the
    /// property test below randomizes the schedule.
    #[test]
    fn goodput_non_increasing_fixed_schedules() {
        check_goodput_monotone(vec![3, 19, 40]);
        check_goodput_monotone(vec![10, 11, 12]);
    }

    /// Property: goodput is monotonically non-increasing in the number
    /// of crashes (acceptance criterion for the fault framework).
    #[test]
    fn goodput_non_increasing_in_crash_rate() {
        for case in 0..8 {
            let mut rng = StdRng::seed_from_u64(case);
            let a = rng.gen_range(1usize..16);
            let b = rng.gen_range(16usize..32);
            let c = rng.gen_range(32usize..46);
            check_goodput_monotone(vec![a, b, c]);
        }
    }
}
