//! Snapshot Ensembles: train once, get M members for free.
//!
//! One network is trained under a cyclic cosine learning-rate schedule.
//! Each time the rate anneals to (near) zero the model has settled into a
//! local minimum; a snapshot is saved and the restart kicks the model out
//! toward a different minimum. The ensemble of snapshots costs one training
//! run but retains much of the diversity benefit of independent training.

use crate::{Ensemble, EnsembleReport};
use dl_nn::{Dataset, LrSchedule, Network, Optimizer, TrainConfig, Trainer};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Trains a snapshot ensemble of `members` snapshots, each after a cosine
/// cycle of `cycle_len` epochs (total training: `members * cycle_len`
/// epochs of a single network).
///
/// # Panics
/// Panics when `members == 0` or `cycle_len == 0`.
pub fn snapshot(
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    members: usize,
    cycle_len: usize,
    seed: u64,
    rng: &mut StdRng,
) -> (Ensemble, EnsembleReport) {
    assert!(members > 0 && cycle_len > 0, "members and cycle_len must be positive");
    let mut net = Network::mlp(dims, rng);
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: members * cycle_len,
            schedule: LrSchedule::CyclicCosine { cycle_len },
            seed,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    let snapshots: Rc<RefCell<Vec<Network>>> = Rc::new(RefCell::new(Vec::with_capacity(members)));
    let sink = snapshots.clone();
    trainer.on_epoch(move |net, record| {
        if record.cycle_end {
            let mut copy = net.clone();
            copy.clear_caches(); // snapshots store weights, not activations
            sink.borrow_mut().push(copy);
        }
    });
    trainer.fit(&mut net, data);
    let flops = trainer.flops;
    drop(trainer); // releases the hook's clone of `snapshots`
    let members_vec = Rc::try_unwrap(snapshots)
        .expect("trainer dropped its hook reference")
        .into_inner();
    let ensemble = Ensemble::new(members_vec);
    let report = EnsembleReport {
        strategy: "snapshot",
        accuracy: ensemble.accuracy(eval),
        train_flops: flops,
        params: ensemble.total_params(),
        inference_flops: ensemble.inference_flops(),
    };
    (ensemble, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independent;
    use dl_data::blobs;
    use dl_tensor::init::rng;

    #[test]
    fn snapshot_produces_requested_members() {
        let data = blobs(100, 2, 3, 6.0, 0.4, 0);
        let mut r = rng(1);
        let (ens, report) = snapshot(&data, &data, &[3, 8, 2], 4, 8, 0, &mut r);
        assert_eq!(ens.len(), 4);
        assert_eq!(report.strategy, "snapshot");
        assert!(report.accuracy > 0.8, "accuracy {}", report.accuracy);
    }

    #[test]
    fn snapshots_differ_from_each_other() {
        let data = blobs(100, 2, 3, 6.0, 0.4, 2);
        let mut r = rng(3);
        let (ens, _) = snapshot(&data, &data, &[3, 8, 2], 3, 4, 1, &mut r);
        let p0 = ens.members[0].flat_params();
        let p1 = ens.members[1].flat_params();
        let p2 = ens.members[2].flat_params();
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
    }

    #[test]
    fn snapshot_trains_cheaper_than_independent_at_same_members() {
        let data = blobs(120, 3, 4, 6.0, 0.4, 4);
        let mut r = rng(5);
        let members = 4;
        let cycle_len = 5;
        let (_, snap) = snapshot(&data, &data, &[4, 16, 3], members, cycle_len, 2, &mut r);
        let (_, indep) = independent(
            &data,
            &data,
            &[4, 16, 3],
            members,
            &dl_nn::TrainConfig {
                epochs: members * cycle_len, // same per-member budget as the single run
                ..dl_nn::TrainConfig::default()
            },
            &mut r,
        );
        // snapshot trains ONE network for members*cycle_len epochs;
        // independent trains M networks that long each -> ~M x the FLOPs
        assert!(
            indep.train_flops >= snap.train_flops * (members as u64 - 1),
            "independent {} vs snapshot {}",
            indep.train_flops,
            snap.train_flops
        );
        // accuracy should be in the same ballpark (tutorial: "lower but close")
        assert!(snap.accuracy > indep.accuracy - 0.15);
    }
}
