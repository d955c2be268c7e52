//! DeepBase-lite: declarative hypothesis queries over activations.
//!
//! DeepBase (Sellam et al., SIGMOD 2019) lets an analyst state hypotheses
//! about what network units encode ("unit u activates for inputs with
//! property P") and scores them en masse. This module provides that
//! interface over activation matrices: a query names a per-sample property
//! (here: class labels or any boolean mask) and gets back every unit
//! ranked by how strongly it tracks the property.

use dl_tensor::Tensor;

/// A hypothesis query over a `[samples, units]` activation matrix.
#[derive(Debug, Clone)]
pub enum ActivationQuery {
    /// Which units correlate (Pearson) with membership in `class`?
    CorrelatesWithClass {
        /// The class whose indicator is correlated against.
        class: usize,
    },
    /// Which units are "selective": mean activation on `class` at least
    /// `margin` above their mean on other classes?
    SelectiveFor {
        /// Target class.
        class: usize,
        /// Required mean-activation margin.
        margin: f32,
    },
    /// Which units are dead (activation below `eps` on every sample)?
    Dead {
        /// Absolute activation threshold.
        eps: f32,
    },
}

/// One scored unit in a query result.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitScore {
    /// Unit (column) index.
    pub unit: usize,
    /// Query-specific score (correlation, margin, or max |activation|).
    pub score: f64,
}

/// The result of running a query: matching units, best first.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Scored units satisfying the query, sorted by descending score
    /// (for [`ActivationQuery::Dead`], ascending max activation).
    pub units: Vec<UnitScore>,
}

impl ActivationQuery {
    /// Runs the query against activations `[samples, units]` and
    /// per-sample labels.
    ///
    /// # Panics
    /// Panics when label count mismatches the activation rows.
    pub fn run(&self, acts: &Tensor, labels: &[usize]) -> QueryResult {
        let (n, units) = (acts.dims()[0], acts.dims()[1]);
        assert_eq!(n, labels.len(), "labels must align with activations");
        match self {
            ActivationQuery::CorrelatesWithClass { class } => {
                let indicator: Vec<f64> = labels
                    .iter()
                    .map(|&l| if l == *class { 1.0 } else { 0.0 })
                    .collect();
                let mean_y = indicator.iter().sum::<f64>() / n as f64;
                let var_y: f64 = indicator.iter().map(|y| (y - mean_y).powi(2)).sum();
                let mut scored: Vec<UnitScore> = (0..units)
                    .map(|u| {
                        let vals: Vec<f64> = (0..n).map(|i| f64::from(acts.get(&[i, u]))).collect();
                        let mean_x = vals.iter().sum::<f64>() / n as f64;
                        let var_x: f64 = vals.iter().map(|x| (x - mean_x).powi(2)).sum();
                        let cov: f64 = vals
                            .iter()
                            .zip(&indicator)
                            .map(|(x, y)| (x - mean_x) * (y - mean_y))
                            .sum();
                        let denom = (var_x * var_y).sqrt();
                        let corr = if denom > 1e-12 { cov / denom } else { 0.0 };
                        UnitScore {
                            unit: u,
                            score: corr,
                        }
                    })
                    .collect();
                scored.sort_by(|a, b| b.score.abs().total_cmp(&a.score.abs()));
                QueryResult { units: scored }
            }
            ActivationQuery::SelectiveFor { class, margin } => {
                let mut scored = Vec::new();
                for u in 0..units {
                    let (mut in_sum, mut in_n, mut out_sum, mut out_n) = (0.0f64, 0, 0.0f64, 0);
                    for (i, label) in labels.iter().enumerate().take(n) {
                        let v = f64::from(acts.get(&[i, u]));
                        if label == class {
                            in_sum += v;
                            in_n += 1;
                        } else {
                            out_sum += v;
                            out_n += 1;
                        }
                    }
                    if in_n == 0 || out_n == 0 {
                        continue;
                    }
                    let gap = in_sum / in_n as f64 - out_sum / out_n as f64;
                    if gap >= f64::from(*margin) {
                        scored.push(UnitScore {
                            unit: u,
                            score: gap,
                        });
                    }
                }
                scored.sort_by(|a, b| b.score.total_cmp(&a.score));
                QueryResult { units: scored }
            }
            ActivationQuery::Dead { eps } => {
                let mut scored = Vec::new();
                for u in 0..units {
                    let max_abs = (0..n)
                        .map(|i| acts.get(&[i, u]).abs())
                        .fold(0.0f32, f32::max);
                    if max_abs < *eps {
                        scored.push(UnitScore {
                            unit: u,
                            score: f64::from(max_abs),
                        });
                    }
                }
                scored.sort_by(|a, b| a.score.total_cmp(&b.score));
                QueryResult { units: scored }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 samples, 3 units: unit 0 fires exactly on class 1, unit 1 is
    /// dead, unit 2 is noise.
    fn fixture() -> (Tensor, Vec<usize>) {
        let acts = Tensor::from_vec(
            vec![
                0.0, 0.0, 0.3, //
                1.0, 0.0, 0.1, //
                0.0, 0.0, 0.9, //
                1.0, 0.0, 0.2,
            ],
            [4, 3],
        )
        .unwrap();
        (acts, vec![0, 1, 0, 1])
    }

    #[test]
    fn correlation_ranks_the_tracking_unit_first() {
        let (acts, labels) = fixture();
        let r = ActivationQuery::CorrelatesWithClass { class: 1 }.run(&acts, &labels);
        assert_eq!(r.units[0].unit, 0);
        assert!((r.units[0].score - 1.0).abs() < 1e-9);
        // dead unit has zero correlation
        let dead = r.units.iter().find(|u| u.unit == 1).unwrap();
        assert_eq!(dead.score, 0.0);
    }

    #[test]
    fn selective_query_finds_class_units() {
        let (acts, labels) = fixture();
        let r = ActivationQuery::SelectiveFor {
            class: 1,
            margin: 0.5,
        }
        .run(&acts, &labels);
        assert_eq!(r.units.len(), 1);
        assert_eq!(r.units[0].unit, 0);
        assert!((r.units[0].score - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dead_query_finds_silent_units() {
        let (acts, labels) = fixture();
        let r = ActivationQuery::Dead { eps: 1e-3 }.run(&acts, &labels);
        assert_eq!(r.units.len(), 1);
        assert_eq!(r.units[0].unit, 1);
    }

    #[test]
    fn selective_margin_filters() {
        let (acts, labels) = fixture();
        let r = ActivationQuery::SelectiveFor {
            class: 1,
            margin: 1.5,
        }
        .run(&acts, &labels);
        assert!(r.units.is_empty());
    }

    #[test]
    #[should_panic(expected = "labels must align")]
    fn mismatched_labels_rejected() {
        let (acts, _) = fixture();
        ActivationQuery::Dead { eps: 0.1 }.run(&acts, &[0, 1]);
    }

    #[test]
    fn works_on_real_network_activations() {
        use dl_data::blobs;
        use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
        use dl_tensor::init::rng;
        let data = blobs(150, 2, 4, 6.0, 0.4, 0);
        let mut r = rng(1);
        let mut net = Network::mlp(&[4, 16, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 25,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        // hidden activations after the ReLU (trace index 2)
        let trace = net.forward_trace(&data.x, false);
        let hidden = &trace[2];
        let r1 = ActivationQuery::CorrelatesWithClass { class: 1 }.run(hidden, &data.y);
        // a trained net must have at least one strongly class-tracking unit
        assert!(
            r1.units[0].score.abs() > 0.5,
            "best correlation {}",
            r1.units[0].score
        );
    }
}
