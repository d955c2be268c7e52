//! Pareto-frontier extraction and constraint-based recommendation.

use crate::registry::{Registry, Technique};

/// Indices (into `techniques`) of the Pareto-optimal points: those not
/// dominated by any other (accuracy maximized, all resources minimized).
fn pareto_frontier(techniques: &[Technique]) -> Vec<usize> {
    (0..techniques.len())
        .filter(|&i| {
            !techniques
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.metrics.dominates(&techniques[i].metrics))
        })
        .collect()
}

/// A resource ceiling for recommendation queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Maximum training FLOPs.
    MaxTrainFlops(u64),
    /// Maximum inference FLOPs per input.
    MaxInferenceFlops(u64),
    /// Maximum model memory in bytes.
    MaxMemoryBytes(u64),
    /// Maximum training energy in kWh.
    MaxEnergyKwh(f64),
    /// Minimum acceptable accuracy.
    MinAccuracy(f64),
}

impl Constraint {
    /// Does the technique satisfy this constraint?
    fn satisfied_by(&self, t: &Technique) -> bool {
        match *self {
            Constraint::MaxTrainFlops(v) => t.metrics.train_flops <= v,
            Constraint::MaxInferenceFlops(v) => t.metrics.inference_flops <= v,
            Constraint::MaxMemoryBytes(v) => t.metrics.memory_bytes <= v,
            Constraint::MaxEnergyKwh(v) => t.metrics.energy_kwh <= v,
            Constraint::MinAccuracy(v) => t.metrics.accuracy >= v,
        }
    }
}

/// Answers "what should I use?" questions over a registry.
#[derive(Debug)]
pub struct TradeoffNavigator<'a> {
    registry: &'a Registry,
}

impl<'a> TradeoffNavigator<'a> {
    /// A navigator over `registry`.
    pub fn new(registry: &'a Registry) -> Self {
        TradeoffNavigator { registry }
    }

    /// The Pareto-optimal techniques.
    pub fn frontier(&self) -> Vec<&Technique> {
        let ts = self.registry.techniques();
        pareto_frontier(ts).into_iter().map(|i| &ts[i]).collect()
    }

    /// The highest-accuracy technique meeting every constraint, or `None`
    /// when the constraints are unsatisfiable.
    pub fn recommend(&self, constraints: &[Constraint]) -> Option<&Technique> {
        self.registry
            .techniques()
            .iter()
            .filter(|t| constraints.iter().all(|c| c.satisfied_by(t)))
            .max_by(|a, b| a.metrics.accuracy.total_cmp(&b.metrics.accuracy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Category, Metrics, Registry, Technique};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tech(name: &str, acc: f64, mem: u64, inf: u64) -> Technique {
        Technique {
            name: name.into(),
            category: Category::Compression,
            metrics: Metrics {
                accuracy: acc,
                train_flops: 1000,
                inference_flops: inf,
                memory_bytes: mem,
                energy_kwh: 0.0,
            },
            baseline: None,
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::new();
        // classic tradeoff curve + one dominated point
        r.add(tech("fp32", 0.95, 1000, 100)).unwrap();
        r.add(tech("int8", 0.94, 250, 60)).unwrap();
        r.add(tech("int4", 0.90, 125, 40)).unwrap();
        r.add(tech("binary", 0.70, 32, 10)).unwrap();
        r.add(tech("bad", 0.60, 500, 90)).unwrap(); // dominated by int8
        r
    }

    #[test]
    fn frontier_excludes_dominated_points() {
        let r = registry();
        let nav = TradeoffNavigator::new(&r);
        let names: Vec<&str> = nav.frontier().iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"fp32"));
        assert!(names.contains(&"int8"));
        assert!(names.contains(&"int4"));
        assert!(names.contains(&"binary"));
        assert!(!names.contains(&"bad"));
    }

    #[test]
    fn frontier_of_empty_is_empty() {
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        let ts = vec![tech("only", 0.5, 10, 10)];
        assert_eq!(pareto_frontier(&ts), vec![0]);
    }

    #[test]
    fn recommend_respects_memory_budget() {
        let r = registry();
        let nav = TradeoffNavigator::new(&r);
        let pick = nav
            .recommend(&[Constraint::MaxMemoryBytes(200)])
            .expect("satisfiable");
        assert_eq!(pick.name, "int4");
    }

    #[test]
    fn recommend_unconstrained_takes_best_accuracy() {
        let r = registry();
        let nav = TradeoffNavigator::new(&r);
        assert_eq!(nav.recommend(&[]).unwrap().name, "fp32");
    }

    #[test]
    fn recommend_none_when_unsatisfiable() {
        let r = registry();
        let nav = TradeoffNavigator::new(&r);
        assert!(nav
            .recommend(&[Constraint::MaxMemoryBytes(1), Constraint::MinAccuracy(0.99)])
            .is_none());
    }

    #[test]
    fn combined_constraints_intersect() {
        let r = registry();
        let nav = TradeoffNavigator::new(&r);
        let pick = nav
            .recommend(&[
                Constraint::MaxMemoryBytes(300),
                Constraint::MaxInferenceFlops(50),
            ])
            .expect("satisfiable");
        assert_eq!(pick.name, "int4");
    }

    /// Frontier invariants on random technique sets: every excluded
    /// point is dominated by a frontier point, and no frontier point
    /// dominates another frontier point.
    #[test]
    fn frontier_invariants() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..30);
            let ts: Vec<Technique> = (0..len)
                .map(|i| Technique {
                    name: format!("t{i}"),
                    category: Category::Compression,
                    metrics: Metrics {
                        accuracy: f64::from(rng.gen_range(0u32..100)) / 100.0,
                        train_flops: rng.gen_range(0..1000),
                        inference_flops: rng.gen_range(0..1000),
                        memory_bytes: rng.gen_range(0..1000),
                        energy_kwh: 0.0,
                    },
                    baseline: None,
                })
                .collect();
            let frontier = pareto_frontier(&ts);
            assert!(!frontier.is_empty());
            for i in 0..ts.len() {
                if frontier.contains(&i) {
                    // no frontier point dominates another
                    for &j in &frontier {
                        assert!(
                            !ts[j].metrics.dominates(&ts[i].metrics),
                            "case {case}: frontier point {j} dominates frontier point {i}"
                        );
                    }
                } else {
                    // every excluded point is dominated by someone
                    assert!(
                        ts.iter().any(|o| o.metrics.dominates(&ts[i].metrics)),
                        "case {case}: excluded point {i} is not dominated"
                    );
                }
            }
        }
    }

    /// The recommender never violates its constraints.
    #[test]
    fn recommendation_respects_constraints() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..20);
            let mut r = Registry::new();
            for i in 0..len {
                r.add(Technique {
                    name: format!("t{i}"),
                    category: Category::Compression,
                    metrics: Metrics {
                        accuracy: f64::from(rng.gen_range(0u32..100)) / 100.0,
                        train_flops: 0,
                        inference_flops: 0,
                        memory_bytes: rng.gen_range(0..1000),
                        energy_kwh: 0.0,
                    },
                    baseline: None,
                })
                .expect("unique names");
            }
            let budget = rng.gen_range(0..1000);
            let nav = TradeoffNavigator::new(&r);
            if let Some(pick) = nav.recommend(&[Constraint::MaxMemoryBytes(budget)]) {
                assert!(pick.metrics.memory_bytes <= budget, "case {case}");
                // nothing satisfying the constraint beats it on accuracy
                for t in r.techniques() {
                    if t.metrics.memory_bytes <= budget {
                        assert!(t.metrics.accuracy <= pick.metrics.accuracy, "case {case}");
                    }
                }
            } else {
                assert!(
                    r.techniques()
                        .iter()
                        .all(|t| t.metrics.memory_bytes > budget),
                    "case {case}"
                );
            }
        }
    }
}
