//! Fast Geometric Ensembles (Garipov et al.).
//!
//! Where Snapshot Ensembles restart a cosine schedule from scratch, FGE
//! first trains to a good region (warmup), then runs *short triangular*
//! learning-rate cycles around it, collecting a model at every cycle
//! minimum. The collected models sit in one connected low-loss region, so
//! short cycles suffice — FGE reaches ensemble quality even faster than
//! snapshot restarts.

use crate::{Ensemble, EnsembleReport};
use dl_nn::{Dataset, LrSchedule, Network, Optimizer, TrainConfig, Trainer};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

/// FGE configuration.
#[derive(Debug, Clone)]
pub struct FgeConfig {
    /// Warmup epochs at the base rate before cycling starts.
    pub warmup_epochs: usize,
    /// Members to collect (one per triangular cycle).
    pub members: usize,
    /// Epochs per triangular cycle (short, typically 2-4).
    pub cycle_len: usize,
    /// Low-rate multiplier at each cycle minimum.
    pub floor: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for FgeConfig {
    fn default() -> Self {
        FgeConfig {
            warmup_epochs: 10,
            members: 4,
            cycle_len: 4,
            floor: 0.1,
            seed: 0,
        }
    }
}

/// Trains an FGE ensemble: warmup, then `members` short triangular cycles
/// collecting a model at each minimum.
///
/// # Panics
/// Panics when `members == 0` or `cycle_len < 2`.
pub fn fge(
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    config: &FgeConfig,
    rng: &mut StdRng,
) -> (Ensemble, EnsembleReport) {
    assert!(config.members > 0, "FGE needs at least one member");
    assert!(config.cycle_len >= 2, "triangular cycles need length >= 2");
    let mut net = Network::mlp(dims, rng);
    // warmup at constant rate
    let mut warmup = Trainer::new(
        TrainConfig {
            epochs: config.warmup_epochs,
            seed: config.seed,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    warmup.fit(&mut net, data);
    let mut flops = warmup.flops;
    // cycling phase: plain SGD responds predictably to the LR triangle
    let mut cycler = Trainer::new(
        TrainConfig {
            epochs: config.members * config.cycle_len,
            schedule: LrSchedule::CyclicTriangular {
                cycle_len: config.cycle_len,
                floor: config.floor,
            },
            seed: config.seed.wrapping_add(1),
            ..TrainConfig::default()
        },
        Optimizer::sgd(0.05),
    );
    let collected: Rc<RefCell<Vec<Network>>> =
        Rc::new(RefCell::new(Vec::with_capacity(config.members)));
    let sink = collected.clone();
    let wanted = config.members;
    cycler.on_epoch(move |net, record| {
        if record.cycle_end && sink.borrow().len() < wanted {
            let mut copy = net.clone();
            copy.clear_caches();
            sink.borrow_mut().push(copy);
        }
    });
    cycler.fit(&mut net, data);
    flops += cycler.flops;
    drop(cycler);
    let members = Rc::try_unwrap(collected)
        .expect("trainer dropped its hook")
        .into_inner();
    let ensemble = Ensemble::new(members);
    let report = EnsembleReport {
        strategy: "fge",
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
    fn fge_collects_requested_members() {
        let data = blobs(120, 2, 4, 6.0, 0.4, 0);
        let mut r = rng(1);
        let (ens, report) = fge(&data, &data, &[4, 16, 2], &FgeConfig::default(), &mut r);
        assert_eq!(ens.len(), 4);
        assert_eq!(report.strategy, "fge");
        assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
    }

    #[test]
    fn fge_members_differ() {
        let data = blobs(100, 2, 4, 6.0, 0.4, 2);
        let mut r = rng(3);
        let (ens, _) = fge(
            &data,
            &data,
            &[4, 12, 2],
            &FgeConfig {
                members: 3,
                ..FgeConfig::default()
            },
            &mut r,
        );
        assert_ne!(ens.members[0].flat_params(), ens.members[1].flat_params());
        assert_ne!(ens.members[1].flat_params(), ens.members[2].flat_params());
    }

    #[test]
    fn fge_cheaper_than_independent_at_same_members() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 4);
        let mut r = rng(5);
        let cfg = FgeConfig {
            warmup_epochs: 10,
            members: 4,
            cycle_len: 3,
            ..FgeConfig::default()
        };
        let (_, f) = fge(&data, &data, &[4, 16, 3], &cfg, &mut r);
        let (_, i) = independent(
            &data,
            &data,
            &[4, 16, 3],
            4,
            &TrainConfig {
                epochs: 22, // what the single FGE run spends in total
                ..TrainConfig::default()
            },
            &mut r,
        );
        assert!(
            f.train_flops * 3 < i.train_flops,
            "fge {} vs independent {}",
            f.train_flops,
            i.train_flops
        );
        assert!(f.accuracy > i.accuracy - 0.1);
    }

    #[test]
    #[should_panic(expected = "length >= 2")]
    fn fge_rejects_degenerate_cycles() {
        let data = blobs(20, 2, 2, 6.0, 0.4, 6);
        fge(
            &data,
            &data,
            &[2, 4, 2],
            &FgeConfig {
                cycle_len: 1,
                ..FgeConfig::default()
            },
            &mut rng(7),
        );
    }
}
