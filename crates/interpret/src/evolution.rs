//! DeepVis-lite: how unit behaviour evolves across training.
//!
//! §4.2 cites DeepVis as "a system to visualize activations in deep neural
//! networks *as they train*". Combined with the Mistique-lite store (which
//! holds activations per training snapshot), this module provides the
//! analysis layer: per-unit trajectories of class selectivity across
//! snapshots, the onset epoch at which a unit specializes, and a census of
//! dead units over time.

use crate::query::ActivationQuery;
use crate::store::{IntermediateKey, IntermediateStore};

/// One unit's metric across training snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitTrajectory {
    /// Unit (column) index.
    pub unit: usize,
    /// Metric value per queried snapshot, in snapshot order.
    pub values: Vec<f64>,
}

impl UnitTrajectory {
    /// First snapshot index where `|value|` reaches `threshold`
    /// (the unit's "specialization onset"), or `None` if it never does.
    pub fn onset(&self, threshold: f64) -> Option<usize> {
        self.values.iter().position(|v| v.abs() >= threshold)
    }

    /// Final metric value (the trained behaviour).
    pub fn last(&self) -> f64 {
        self.values.last().copied().unwrap_or(0.0)
    }
}

/// Correlation-with-class trajectories for every unit of `layer`, across
/// the given `snapshots`, read from the store.
///
/// # Panics
/// Panics when a requested snapshot is missing from the store or labels
/// mismatch the stored row count.
pub fn class_correlation_evolution(
    store: &IntermediateStore,
    layer: u32,
    snapshots: &[u32],
    labels: &[usize],
    class: usize,
) -> Vec<UnitTrajectory> {
    assert!(!snapshots.is_empty(), "need at least one snapshot");
    let mut per_unit: Vec<Vec<f64>> = Vec::new();
    for &snap in snapshots {
        let (acts, _) = store
            .get(IntermediateKey {
                snapshot: snap,
                layer,
            })
            .unwrap_or_else(|| panic!("snapshot {snap} layer {layer} not in store"));
        let result = ActivationQuery::CorrelatesWithClass { class }.run(&acts, labels);
        // results come back sorted by |score|; index them by unit
        let units = acts.dims()[1];
        let mut by_unit = vec![0.0f64; units];
        for u in &result.units {
            by_unit[u.unit] = u.score;
        }
        if per_unit.is_empty() {
            per_unit = vec![Vec::with_capacity(snapshots.len()); units];
        }
        assert_eq!(per_unit.len(), units, "unit count changed across snapshots");
        for (u, &score) in by_unit.iter().enumerate() {
            per_unit[u].push(score);
        }
    }
    per_unit
        .into_iter()
        .enumerate()
        .map(|(unit, values)| UnitTrajectory { unit, values })
        .collect()
}

/// Number of dead units (max |activation| below `eps`) at each snapshot.
pub fn dead_unit_census(
    store: &IntermediateStore,
    layer: u32,
    snapshots: &[u32],
    eps: f32,
) -> Vec<(u32, usize)> {
    snapshots
        .iter()
        .map(|&snap| {
            let (acts, _) = store
                .get(IntermediateKey {
                    snapshot: snap,
                    layer,
                })
                .unwrap_or_else(|| panic!("snapshot {snap} layer {layer} not in store"));
            let dead = ActivationQuery::Dead { eps }
                .run(&acts, &vec![0; acts.dims()[0]])
                .units
                .len();
            (snap, dead)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_nn::{Network, Optimizer, TrainConfig, Trainer};
    use dl_tensor::init;

    /// Training epochs between stored snapshots. Seven epochs in all
    /// stop mid-descent (loss 0.07), while Adam's first steps still
    /// reshuffle the hidden units: the mean selectivity of this run dips
    /// from 0.567 to 0.514 at epoch 5 and passes its initial value only
    /// at epoch 10. Seven snapshots of four epochs end at loss 0.01.
    const EPOCHS_PER_SNAPSHOT: usize = 4;

    /// Trains a model to convergence, storing hidden activations every
    /// [`EPOCHS_PER_SNAPSHOT`] epochs, and returns the store plus labels.
    fn stored_run() -> (IntermediateStore, Vec<usize>, Vec<u32>) {
        let data = dl_data::blobs(120, 2, 4, 2.0, 1.2, 0);
        let mut net = Network::mlp(&[4, 12, 2], &mut init::rng(1));
        let mut store = IntermediateStore::new();
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: EPOCHS_PER_SNAPSHOT,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        let snapshots: Vec<u32> = (0..8).collect();
        // snapshot 0 = untrained
        for &snap in &snapshots {
            if snap > 0 {
                trainer.fit(&mut net, &data);
            }
            let trace = net.forward_trace(&data.x, false);
            store.put(
                IntermediateKey {
                    snapshot: snap,
                    layer: 2,
                },
                &trace[2],
            );
        }
        let final_loss = trainer.history.last().expect("trained").train_loss;
        assert!(
            final_loss < 0.05,
            "the run ends untrained: loss {final_loss}"
        );
        (store, data.y, snapshots)
    }

    #[test]
    fn selectivity_grows_during_training() {
        let (store, labels, snapshots) = stored_run();
        let trajectories = class_correlation_evolution(&store, 2, &snapshots, &labels, 1);
        assert_eq!(trajectories.len(), 12);
        // mean selectivity across units grows from init to trained
        let mean_at = |i: usize| {
            trajectories.iter().map(|t| t.values[i].abs()).sum::<f64>() / trajectories.len() as f64
        };
        let first = mean_at(0);
        let last = mean_at(snapshots.len() - 1);
        assert!(
            last > first,
            "mean selectivity should grow: {first} -> {last}"
        );
        let best = trajectories
            .iter()
            .map(|t| t.last().abs())
            .fold(0.0, f64::max);
        assert!(best > 0.5, "best trained unit only reaches {best}");
    }

    #[test]
    fn onset_detects_when_units_specialize() {
        let (store, labels, snapshots) = stored_run();
        let trajectories = class_correlation_evolution(&store, 2, &snapshots, &labels, 1);
        let best = trajectories
            .iter()
            .max_by(|a, b| a.last().abs().total_cmp(&b.last().abs()))
            .expect("non-empty");
        let onset = best.onset(0.5).expect("a selective unit has an onset");
        assert!(onset < snapshots.len());
        // an impossible threshold has no onset
        assert_eq!(best.onset(2.0), None);
    }

    #[test]
    fn dead_census_counts_match_query() {
        let (store, _, snapshots) = stored_run();
        let census = dead_unit_census(&store, 2, &snapshots, 1e-6);
        assert_eq!(census.len(), snapshots.len());
        // counts are within the layer width
        assert!(census.iter().all(|&(_, n)| n <= 12));
    }

    #[test]
    #[should_panic(expected = "not in store")]
    fn missing_snapshot_panics() {
        let (store, labels, _) = stored_run();
        class_correlation_evolution(&store, 2, &[99], &labels, 1);
    }
}
