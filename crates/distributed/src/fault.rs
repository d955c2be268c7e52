//! Deterministic fault injection for the simulated cluster.
//!
//! Part 1 of the tutorial (§2.1) treats distributed training as a
//! consistency/robustness tradeoff, but every driver in this crate used to
//! assume a perfect cluster. This module supplies the missing failure
//! model: a [`FaultPlan`] schedules crashes, rejoins, link degradation and
//! straggler episodes in simulated *step* time. Plans are either written
//! explicitly or generated from an MTBF/MTTR-style [`FaultProfile`] with
//! the workspace's seeded RNG, so every run — faulty or not — is exactly
//! reproducible.
//!
//! Inter-arrival times are sampled by inverse transform from the same
//! uniform stream regardless of the configured rates, so two profiles that
//! differ only in a rate produce *coupled* schedules (the same underlying
//! draws, scaled). That keeps sweeps over failure rates smooth and makes
//! monotonicity properties testable.

use dl_tensor::init;
use rand::rngs::StdRng;
use rand::Rng;

/// One scheduled fault, in simulated step time.
///
/// Crash/rejoin are point events; degradation and straggling are episodes
/// active on steps in `from_step..to_step` (half-open).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Worker `worker` crash-stops at the start of step `at_step`.
    WorkerCrash {
        /// Worker id (index into the cluster's device list).
        worker: usize,
        /// Step at whose start the worker disappears.
        at_step: usize,
    },
    /// Worker `worker` comes back at the start of step `at_step`.
    WorkerRejoin {
        /// Worker id.
        worker: usize,
        /// Step at whose start the worker is available again.
        at_step: usize,
    },
    /// Every link's effective throughput is multiplied by `factor`
    /// (in `(0, 1]`) while `from_step <= step < to_step`.
    LinkDegrade {
        /// Throughput multiplier in `(0, 1]` (1 = healthy).
        factor: f64,
        /// First affected step.
        from_step: usize,
        /// First unaffected step.
        to_step: usize,
    },
    /// Worker `worker` computes `slowdown`x slower while
    /// `from_step <= step < to_step`.
    Straggler {
        /// Worker id.
        worker: usize,
        /// Compute-time multiplier, `>= 1`.
        slowdown: f64,
        /// First affected step.
        from_step: usize,
        /// First unaffected step.
        to_step: usize,
    },
}

impl FaultEvent {
    /// The step at which the event first takes effect.
    pub fn at_step(&self) -> usize {
        match *self {
            FaultEvent::WorkerCrash { at_step, .. } | FaultEvent::WorkerRejoin { at_step, .. } => {
                at_step
            }
            FaultEvent::LinkDegrade { from_step, .. } | FaultEvent::Straggler { from_step, .. } => {
                from_step
            }
        }
    }

    /// True for the membership (crash/rejoin) point events.
    pub fn is_membership(&self) -> bool {
        matches!(
            self,
            FaultEvent::WorkerCrash { .. } | FaultEvent::WorkerRejoin { .. }
        )
    }
}

/// A complete, validated fault schedule, ordered by effect step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit events, sorted (stably) by effect step.
    ///
    /// # Panics
    /// Panics on an invalid event: a degrade factor outside `(0, 1]`, a
    /// straggler slowdown below 1, or an empty episode (`from >= to`).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            match *e {
                FaultEvent::LinkDegrade {
                    factor,
                    from_step,
                    to_step,
                } => {
                    assert!(
                        factor > 0.0 && factor <= 1.0,
                        "degrade factor must lie in (0,1], got {factor}"
                    );
                    assert!(from_step < to_step, "degrade episode must be non-empty");
                }
                FaultEvent::Straggler {
                    slowdown,
                    from_step,
                    to_step,
                    ..
                } => {
                    assert!(
                        slowdown >= 1.0,
                        "straggler slowdown must be >= 1, got {slowdown}"
                    );
                    assert!(from_step < to_step, "straggler episode must be non-empty");
                }
                FaultEvent::WorkerCrash { .. } | FaultEvent::WorkerRejoin { .. } => {}
            }
        }
        events.sort_by_key(FaultEvent::at_step);
        FaultPlan { events }
    }

    /// All events, ordered by effect step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled (the fault-free plan).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled crash events.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::WorkerCrash { .. }))
            .count()
    }

    /// Effective link-throughput multiplier at `step`: the product of all
    /// active degrade factors, floored at `1e-6` (1.0 when healthy).
    pub fn link_factor_at(&self, step: usize) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultEvent::LinkDegrade {
                factor: f,
                from_step,
                to_step,
            } = *e
            {
                if from_step <= step && step < to_step {
                    factor *= f;
                }
            }
        }
        factor.max(1e-6)
    }

    /// Compute-time multiplier for `worker` at `step`: the product of all
    /// active straggler slowdowns (1.0 when healthy).
    pub fn slowdown_at(&self, step: usize, worker: usize) -> f64 {
        let mut slowdown = 1.0;
        for e in &self.events {
            if let FaultEvent::Straggler {
                worker: w,
                slowdown: s,
                from_step,
                to_step,
            } = *e
            {
                if w == worker && from_step <= step && step < to_step {
                    slowdown *= s;
                }
            }
        }
        slowdown
    }

    /// Generates a plan for `workers` workers over `horizon` steps from an
    /// MTBF/MTTR-style profile. Fully determined by `profile.seed`; an
    /// all-zero profile yields the empty plan.
    pub fn from_profile(profile: &FaultProfile, workers: usize, horizon: usize) -> Self {
        let mut events = Vec::new();
        // Crash/repair cycles, one independent stream per worker.
        if profile.crash_mtbf > 0.0 {
            for w in 0..workers {
                let mut rng = stream_rng(profile.seed, 1, w as u64);
                let mut t = 0.0f64;
                loop {
                    t += exponential(profile.crash_mtbf, &mut rng);
                    let at_step = t.ceil() as usize;
                    if at_step >= horizon {
                        break;
                    }
                    events.push(FaultEvent::WorkerCrash { worker: w, at_step });
                    if profile.repair_mttr <= 0.0 {
                        break; // no repair process: the worker stays down
                    }
                    t += exponential(profile.repair_mttr, &mut rng).max(1.0);
                    let rejoin = t.ceil() as usize;
                    if rejoin >= horizon {
                        break;
                    }
                    events.push(FaultEvent::WorkerRejoin {
                        worker: w,
                        at_step: rejoin,
                    });
                }
            }
        }
        // Link-degradation episodes, one global stream.
        if profile.degrade_mtbf > 0.0 {
            let mut rng = stream_rng(profile.seed, 2, 0);
            let mut t = 0.0f64;
            loop {
                t += exponential(profile.degrade_mtbf, &mut rng);
                let from_step = t.ceil() as usize;
                if from_step >= horizon {
                    break;
                }
                let duration = exponential(profile.degrade_duration.max(1.0), &mut rng)
                    .ceil()
                    .max(1.0);
                let to_step = (from_step + duration as usize).min(horizon);
                events.push(FaultEvent::LinkDegrade {
                    factor: profile.degrade_factor,
                    from_step,
                    to_step,
                });
                t += duration;
            }
        }
        // Straggler episodes, one stream per worker.
        if profile.straggler_mtbf > 0.0 {
            for w in 0..workers {
                let mut rng = stream_rng(profile.seed, 3, w as u64);
                let mut t = 0.0f64;
                loop {
                    t += exponential(profile.straggler_mtbf, &mut rng);
                    let from_step = t.ceil() as usize;
                    if from_step >= horizon {
                        break;
                    }
                    let duration = exponential(profile.straggler_duration.max(1.0), &mut rng)
                        .ceil()
                        .max(1.0);
                    let to_step = (from_step + duration as usize).min(horizon);
                    events.push(FaultEvent::Straggler {
                        worker: w,
                        slowdown: profile.straggler_slowdown,
                        from_step,
                        to_step,
                    });
                    t += duration;
                }
            }
        }
        FaultPlan::new(events)
    }
}

/// MTBF/MTTR-style fault rates, all in simulated *steps*. A rate of zero
/// disables that fault class; [`FaultProfile::none`] disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed for the fault schedule (independent of the training seed).
    pub seed: u64,
    /// Mean steps between crashes per worker (0 = never crash).
    pub crash_mtbf: f64,
    /// Mean steps until a crashed worker rejoins (0 = never repair).
    pub repair_mttr: f64,
    /// Mean steps between link-degradation episodes (0 = never degrade).
    pub degrade_mtbf: f64,
    /// Mean steps a degradation episode lasts.
    pub degrade_duration: f64,
    /// Link-throughput multiplier during an episode, in `(0, 1]`.
    pub degrade_factor: f64,
    /// Mean steps between straggler episodes per worker (0 = never).
    pub straggler_mtbf: f64,
    /// Mean steps a straggler episode lasts.
    pub straggler_duration: f64,
    /// Compute-time multiplier while straggling, `>= 1`.
    pub straggler_slowdown: f64,
}

impl FaultProfile {
    /// The fault-free profile (must reproduce today's perfect-cluster
    /// trajectories bit for bit).
    pub fn none(seed: u64) -> Self {
        FaultProfile {
            seed,
            crash_mtbf: 0.0,
            repair_mttr: 0.0,
            degrade_mtbf: 0.0,
            degrade_duration: 0.0,
            degrade_factor: 1.0,
            straggler_mtbf: 0.0,
            straggler_duration: 0.0,
            straggler_slowdown: 1.0,
        }
    }

    /// A crash/repair-only profile.
    pub fn crashes(seed: u64, mtbf: f64, mttr: f64) -> Self {
        FaultProfile {
            crash_mtbf: mtbf,
            repair_mttr: mttr,
            ..FaultProfile::none(seed)
        }
    }
}

/// Exponential inter-arrival time via inverse transform. The uniform draw
/// is independent of `mean`, so schedules generated from the same seed at
/// different rates are scaled versions of the same arrival process.
fn exponential(mean: f64, rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen::<f64>();
    -mean * (1.0 - u).ln()
}

/// Independent deterministic RNG stream per fault class (`tag`) and worker.
fn stream_rng(seed: u64, tag: u64, idx: u64) -> StdRng {
    init::rng(
        seed ^ 0x9E37_79B9_7F4A_7C15u64
            .wrapping_mul(tag)
            .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_yields_empty_plan() {
        let plan = FaultPlan::from_profile(&FaultProfile::none(7), 8, 1000);
        assert!(plan.is_empty());
        assert_eq!(plan.crash_count(), 0);
        assert_eq!(plan.link_factor_at(5), 1.0);
        assert_eq!(plan.slowdown_at(5, 0), 1.0);
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let profile = FaultProfile {
            degrade_mtbf: 80.0,
            degrade_duration: 10.0,
            degrade_factor: 0.2,
            straggler_mtbf: 60.0,
            straggler_duration: 8.0,
            straggler_slowdown: 4.0,
            ..FaultProfile::crashes(42, 50.0, 20.0)
        };
        let a = FaultPlan::from_profile(&profile, 4, 500);
        let b = FaultPlan::from_profile(&profile, 4, 500);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rates this high must schedule something");
        let other = FaultPlan::from_profile(
            &FaultProfile {
                seed: 43,
                ..profile
            },
            4,
            500,
        );
        assert_ne!(a, other, "different seeds should differ");
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let profile = FaultProfile::crashes(3, 30.0, 10.0);
        let plan = FaultPlan::from_profile(&profile, 4, 200);
        let steps: Vec<usize> = plan.events().iter().map(FaultEvent::at_step).collect();
        assert!(
            steps.windows(2).all(|w| w[0] <= w[1]),
            "events must be sorted"
        );
        assert!(steps.iter().all(|&s| s < 200));
        assert!(plan.crash_count() >= 1);
    }

    #[test]
    fn higher_crash_rate_schedules_no_fewer_crashes() {
        // Coupled sampling: halving MTBF scales the same arrival process.
        for seed in 0..10 {
            let slow = FaultPlan::from_profile(&FaultProfile::crashes(seed, 120.0, 0.0), 4, 256);
            let fast = FaultPlan::from_profile(&FaultProfile::crashes(seed, 60.0, 0.0), 4, 256);
            assert!(
                fast.crash_count() >= slow.crash_count(),
                "seed {seed}: {} < {}",
                fast.crash_count(),
                slow.crash_count()
            );
        }
    }

    #[test]
    fn rejoin_always_follows_its_crash() {
        let plan = FaultPlan::from_profile(&FaultProfile::crashes(11, 40.0, 15.0), 3, 400);
        for w in 0..3 {
            let mut down = false;
            let mut last = 0;
            for e in plan.events() {
                match *e {
                    FaultEvent::WorkerCrash { worker, at_step } if worker == w => {
                        assert!(!down, "worker {w} crashed while already down");
                        assert!(at_step >= last);
                        down = true;
                        last = at_step;
                    }
                    FaultEvent::WorkerRejoin { worker, at_step } if worker == w => {
                        assert!(down, "worker {w} rejoined while up");
                        assert!(at_step > last, "rejoin must strictly follow the crash");
                        down = false;
                        last = at_step;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn degrade_and_straggler_windows_compose() {
        let plan = FaultPlan::new(vec![
            FaultEvent::LinkDegrade {
                factor: 0.5,
                from_step: 10,
                to_step: 20,
            },
            FaultEvent::LinkDegrade {
                factor: 0.5,
                from_step: 15,
                to_step: 25,
            },
            FaultEvent::Straggler {
                worker: 1,
                slowdown: 3.0,
                from_step: 5,
                to_step: 8,
            },
        ]);
        assert_eq!(plan.link_factor_at(9), 1.0);
        assert_eq!(plan.link_factor_at(10), 0.5);
        assert_eq!(plan.link_factor_at(17), 0.25, "overlap multiplies");
        assert_eq!(plan.link_factor_at(24), 0.5);
        assert_eq!(plan.link_factor_at(25), 1.0, "to_step is exclusive");
        assert_eq!(plan.slowdown_at(6, 1), 3.0);
        assert_eq!(plan.slowdown_at(6, 0), 1.0, "stragglers are per-worker");
        assert_eq!(plan.slowdown_at(8, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn invalid_degrade_factor_rejected() {
        FaultPlan::new(vec![FaultEvent::LinkDegrade {
            factor: 0.0,
            from_step: 0,
            to_step: 5,
        }]);
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn invalid_slowdown_rejected() {
        FaultPlan::new(vec![FaultEvent::Straggler {
            worker: 0,
            slowdown: 0.5,
            from_step: 0,
            to_step: 5,
        }]);
    }

    #[test]
    fn window_boundaries_are_half_open_for_both_window_kinds() {
        // `from..to` — the first affected step is exactly `from`, the
        // first unaffected step is exactly `to`.
        let plan = FaultPlan::new(vec![
            FaultEvent::Straggler {
                worker: 2,
                slowdown: 5.0,
                from_step: 10,
                to_step: 20,
            },
            FaultEvent::LinkDegrade {
                factor: 0.5,
                from_step: 10,
                to_step: 20,
            },
        ]);
        assert_eq!(plan.slowdown_at(9, 2), 1.0, "step before the window");
        assert_eq!(plan.slowdown_at(10, 2), 5.0, "from_step is inclusive");
        assert_eq!(plan.slowdown_at(19, 2), 5.0, "last covered step");
        assert_eq!(plan.slowdown_at(20, 2), 1.0, "to_step is exclusive");
        assert_eq!(plan.link_factor_at(9), 1.0);
        assert_eq!(plan.link_factor_at(10), 0.5, "from_step is inclusive");
        assert_eq!(plan.link_factor_at(19), 0.5);
        assert_eq!(plan.link_factor_at(20), 1.0, "to_step is exclusive");
    }

    #[test]
    fn overlapping_straggler_windows_multiply_per_worker() {
        let plan = FaultPlan::new(vec![
            FaultEvent::Straggler {
                worker: 0,
                slowdown: 2.0,
                from_step: 0,
                to_step: 10,
            },
            FaultEvent::Straggler {
                worker: 0,
                slowdown: 3.0,
                from_step: 5,
                to_step: 15,
            },
            FaultEvent::Straggler {
                worker: 1,
                slowdown: 7.0,
                from_step: 5,
                to_step: 15,
            },
        ]);
        assert_eq!(plan.slowdown_at(4, 0), 2.0);
        assert_eq!(plan.slowdown_at(5, 0), 6.0, "overlap multiplies");
        assert_eq!(plan.slowdown_at(9, 0), 6.0);
        assert_eq!(plan.slowdown_at(10, 0), 3.0, "first window expired");
        assert_eq!(plan.slowdown_at(5, 1), 7.0, "other workers unaffected");
        assert_eq!(plan.slowdown_at(5, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "degrade episode must be non-empty")]
    fn zero_length_degrade_window_rejected() {
        FaultPlan::new(vec![FaultEvent::LinkDegrade {
            factor: 0.5,
            from_step: 7,
            to_step: 7,
        }]);
    }

    #[test]
    #[should_panic(expected = "straggler episode must be non-empty")]
    fn zero_length_straggler_window_rejected() {
        FaultPlan::new(vec![FaultEvent::Straggler {
            worker: 0,
            slowdown: 2.0,
            from_step: 7,
            to_step: 7,
        }]);
    }
}
