//! Reinforcement-learning knob tuning over a simulated database (E14).
//!
//! The tutorial's Part 2 covers deep-RL systems (QTune, CDBTune) that tune
//! knobs like memory allocation and data layout toward higher throughput.
//! This module reproduces the loop at laptop scale: a deterministic
//! database cost model with three interacting knobs, an agent that can
//! only *observe throughput* (no access to the model's internals), and a
//! tabular Q-learning tuner compared against random and grid search under
//! the same evaluation budget.

use dl_tensor::init;
use rand::rngs::StdRng;
use rand::Rng;

/// A knob configuration: discrete levels for three knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnobConfig {
    /// Buffer-pool size level (0..levels).
    pub buffer_pool: usize,
    /// Page size level.
    pub page_size: usize,
    /// Compaction aggressiveness level.
    pub compaction: usize,
}

/// A deterministic simulated database whose throughput responds to knobs
/// with interactions (the page-size sweet spot depends on the workload's
/// scan fraction; compaction helps writes but steals buffer hits).
#[derive(Debug, Clone)]
pub struct DbSimulator {
    /// Number of discrete levels per knob.
    pub levels: usize,
    /// Fraction of the workload that is range scans, in `[0,1]`.
    pub scan_fraction: f64,
    /// Fraction of the workload that is writes, in `[0,1]`.
    pub write_fraction: f64,
}

impl DbSimulator {
    /// A simulator with `levels` settings per knob and workload mix.
    ///
    /// # Panics
    /// Panics when `levels < 2` or fractions leave `[0,1]`.
    pub fn new(levels: usize, scan_fraction: f64, write_fraction: f64) -> Self {
        assert!(levels >= 2, "need at least two levels per knob");
        assert!((0.0..=1.0).contains(&scan_fraction) && (0.0..=1.0).contains(&write_fraction));
        DbSimulator {
            levels,
            scan_fraction,
            write_fraction,
        }
    }

    /// Simulated throughput (ops/s) at a configuration. Deterministic.
    ///
    /// # Panics
    /// Panics when a knob exceeds `levels`.
    pub fn throughput(&self, config: &KnobConfig) -> f64 {
        assert!(
            config.buffer_pool < self.levels
                && config.page_size < self.levels
                && config.compaction < self.levels,
            "knob level out of range"
        );
        let norm = |v: usize| v as f64 / (self.levels - 1) as f64;
        let bp = norm(config.buffer_pool);
        let ps = norm(config.page_size);
        let comp = norm(config.compaction);
        // buffer pool: diminishing returns, slightly eroded by compaction
        let hit_rate = 1.0 - (-3.0 * bp).exp();
        let cache_term = 0.4 + 0.6 * hit_rate * (1.0 - 0.2 * comp);
        // page size: scans want big pages, point reads want small ones
        let scan_match = 1.0 - (ps - self.scan_fraction).powi(2);
        // compaction: writes benefit, reads pay a background cost
        let write_term =
            1.0 + self.write_fraction * (0.8 * comp) - (1.0 - self.write_fraction) * 0.3 * comp;
        10_000.0 * cache_term * scan_match * write_term
    }

    /// The best configuration by exhaustive search (ground truth for
    /// evaluating tuners; a real system could never afford this).
    pub fn optimum(&self) -> (KnobConfig, f64) {
        let mut best = (
            KnobConfig {
                buffer_pool: 0,
                page_size: 0,
                compaction: 0,
            },
            f64::NEG_INFINITY,
        );
        for b in 0..self.levels {
            for p in 0..self.levels {
                for c in 0..self.levels {
                    let k = KnobConfig {
                        buffer_pool: b,
                        page_size: p,
                        compaction: c,
                    };
                    let t = self.throughput(&k);
                    if t > best.1 {
                        best = (k, t);
                    }
                }
            }
        }
        best
    }
}

/// Tabular Q-learning over the knob lattice. State = current config,
/// actions = move one knob one level up or down (6 actions).
#[derive(Debug)]
pub struct QLearningTuner {
    q: std::collections::HashMap<(KnobConfig, usize), f64>,
    levels: usize,
    /// Learning rate.
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Exploration rate.
    pub epsilon: f64,
}

const ACTIONS: usize = 6;

impl QLearningTuner {
    /// A fresh tuner for a `levels`-per-knob lattice.
    pub fn new(levels: usize) -> Self {
        QLearningTuner {
            q: std::collections::HashMap::new(),
            levels,
            alpha: 0.3,
            gamma: 0.9,
            epsilon: 0.2,
        }
    }

    fn apply(&self, config: &KnobConfig, action: usize) -> KnobConfig {
        let mut c = *config;
        let (knob, dir) = (action / 2, action % 2);
        let field = match knob {
            0 => &mut c.buffer_pool,
            1 => &mut c.page_size,
            _ => &mut c.compaction,
        };
        if dir == 0 {
            *field = (*field + 1).min(self.levels - 1);
        } else {
            *field = field.saturating_sub(1);
        }
        c
    }

    /// Runs `episodes` tuning episodes of `steps` each; every simulator
    /// evaluation counts against the budget. Returns the best
    /// configuration found and the number of evaluations used.
    pub fn tune(
        &mut self,
        db: &DbSimulator,
        episodes: usize,
        steps: usize,
        rng: &mut StdRng,
    ) -> (KnobConfig, f64, usize) {
        let mut best = (
            KnobConfig {
                buffer_pool: 0,
                page_size: 0,
                compaction: 0,
            },
            f64::NEG_INFINITY,
        );
        let mut evals = 0usize;
        for _ in 0..episodes {
            let mut state = KnobConfig {
                buffer_pool: rng.gen_range(0..self.levels),
                page_size: rng.gen_range(0..self.levels),
                compaction: rng.gen_range(0..self.levels),
            };
            let mut current = db.throughput(&state);
            evals += 1;
            if current > best.1 {
                best = (state, current);
            }
            for _ in 0..steps {
                let action = if rng.gen::<f64>() < self.epsilon {
                    rng.gen_range(0..ACTIONS)
                } else {
                    (0..ACTIONS)
                        .max_by(|&a, &b| {
                            let qa = self.q.get(&(state, a)).copied().unwrap_or(0.0);
                            let qb = self.q.get(&(state, b)).copied().unwrap_or(0.0);
                            qa.total_cmp(&qb)
                        })
                        .expect("six actions")
                };
                let next = self.apply(&state, action);
                let throughput = db.throughput(&next);
                evals += 1;
                // reward: relative improvement (QTune-style delta reward)
                let reward = (throughput - current) / 10_000.0;
                let max_next = (0..ACTIONS)
                    .map(|a| self.q.get(&(next, a)).copied().unwrap_or(0.0))
                    .fold(f64::NEG_INFINITY, f64::max);
                let entry = self.q.entry((state, action)).or_insert(0.0);
                *entry += self.alpha * (reward + self.gamma * max_next - *entry);
                state = next;
                current = throughput;
                if throughput > best.1 {
                    best = (state, throughput);
                }
            }
        }
        (best.0, best.1, evals)
    }
}

/// Random-search baseline under the same evaluation budget.
pub fn random_search(db: &DbSimulator, budget: usize, rng: &mut StdRng) -> (KnobConfig, f64) {
    let mut best = (
        KnobConfig {
            buffer_pool: 0,
            page_size: 0,
            compaction: 0,
        },
        f64::NEG_INFINITY,
    );
    for _ in 0..budget {
        let k = KnobConfig {
            buffer_pool: rng.gen_range(0..db.levels),
            page_size: rng.gen_range(0..db.levels),
            compaction: rng.gen_range(0..db.levels),
        };
        let t = db.throughput(&k);
        if t > best.1 {
            best = (k, t);
        }
    }
    best
}

/// Coarse grid-search baseline: evaluates an evenly-spaced sub-lattice
/// that fits the budget.
pub fn grid_search(db: &DbSimulator, budget: usize) -> (KnobConfig, f64, usize) {
    let per_axis = ((budget as f64).cbrt().floor() as usize).clamp(1, db.levels);
    let pick = |i: usize| i * (db.levels - 1) / per_axis.max(1).saturating_sub(1).max(1);
    let mut best = (
        KnobConfig {
            buffer_pool: 0,
            page_size: 0,
            compaction: 0,
        },
        f64::NEG_INFINITY,
    );
    let mut evals = 0;
    for b in 0..per_axis {
        for p in 0..per_axis {
            for c in 0..per_axis {
                let k = KnobConfig {
                    buffer_pool: pick(b).min(db.levels - 1),
                    page_size: pick(p).min(db.levels - 1),
                    compaction: pick(c).min(db.levels - 1),
                };
                let t = db.throughput(&k);
                evals += 1;
                if t > best.1 {
                    best = (k, t);
                }
            }
        }
    }
    (best.0, best.1, evals)
}

/// Seeded RNG re-export for tuner experiments.
pub fn tuner_rng(seed: u64) -> StdRng {
    init::rng(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> DbSimulator {
        DbSimulator::new(8, 0.7, 0.2)
    }

    #[test]
    fn throughput_deterministic_and_positive() {
        let d = db();
        let k = KnobConfig {
            buffer_pool: 3,
            page_size: 5,
            compaction: 1,
        };
        assert_eq!(d.throughput(&k), d.throughput(&k));
        assert!(d.throughput(&k) > 0.0);
    }

    #[test]
    fn buffer_pool_has_diminishing_returns() {
        let d = db();
        let t = |b| {
            d.throughput(&KnobConfig {
                buffer_pool: b,
                page_size: 5,
                compaction: 0,
            })
        };
        let g1 = t(2) - t(0);
        let g2 = t(7) - t(5);
        assert!(g1 > g2, "early gains {g1} should exceed late gains {g2}");
    }

    #[test]
    fn page_size_sweet_spot_follows_workload() {
        let scan_heavy = DbSimulator::new(8, 0.9, 0.1);
        let point_heavy = DbSimulator::new(8, 0.1, 0.1);
        let best_ps = |d: &DbSimulator| d.optimum().0.page_size;
        assert!(best_ps(&scan_heavy) > best_ps(&point_heavy));
    }

    #[test]
    fn qlearning_finds_near_optimal_config() {
        let d = db();
        let (_, opt) = d.optimum();
        let mut tuner = QLearningTuner::new(8);
        let mut rng = tuner_rng(0);
        let (_, found, evals) = tuner.tune(&d, 30, 25, &mut rng);
        assert!(
            found > opt * 0.95,
            "q-learning found {found} vs optimum {opt}"
        );
        assert!(evals <= 30 * 26);
    }

    #[test]
    fn qlearning_beats_random_at_same_budget() {
        // average over seeds to keep the comparison fair
        let d = db();
        let mut q_total = 0.0;
        let mut r_total = 0.0;
        for seed in 0..5 {
            let mut tuner = QLearningTuner::new(8);
            let mut rng = tuner_rng(seed);
            let (_, q_best, evals) = tuner.tune(&d, 20, 20, &mut rng);
            let mut rng = tuner_rng(seed + 100);
            let (_, r_best) = random_search(&d, evals, &mut rng);
            q_total += q_best;
            r_total += r_best;
        }
        // random over a smooth 8^3 lattice is strong; RL should at least
        // match it while *also* learning a transferable policy
        assert!(
            q_total >= r_total * 0.98,
            "q-learning {q_total} should be competitive with random {r_total}"
        );
    }

    #[test]
    fn grid_search_respects_budget() {
        let d = db();
        let (_, best, evals) = grid_search(&d, 27);
        assert!(evals <= 27);
        assert!(best > 0.0);
    }

    #[test]
    #[should_panic(expected = "knob level out of range")]
    fn rejects_out_of_range_knob() {
        db().throughput(&KnobConfig {
            buffer_pool: 99,
            page_size: 0,
            compaction: 0,
        });
    }
}
