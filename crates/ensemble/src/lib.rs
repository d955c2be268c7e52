//! # dl-ensemble
//!
//! Fast deep-ensemble training (tutorial §2.1). Four strategies spanning the
//! accuracy / training-time / memory / inference-time tradeoff:
//!
//! * [`independent`] — the gold-standard baseline: every member trained
//!   from scratch. Best accuracy, cost scales linearly with members.
//! * [`snapshot`](mod@snapshot) — Snapshot Ensembles: one training run with a cyclic
//!   cosine schedule; a copy of the model is saved at the end of every
//!   annealing cycle. M members for the training cost of one.
//! * [`fge`](mod@fge) — Fast Geometric Ensembles: warm up once, then collect
//!   models at the minima of short triangular learning-rate cycles.
//! * [`treenet`](mod@treenet) — TreeNets: members share a trunk of early layers and
//!   branch into per-member heads; the trunk is trained once and evaluated
//!   once at inference, cutting memory *and* inference time.
//! * [`mothernet`](mod@mothernet) — MotherNets: train a small "mother" network capturing
//!   the shared structure, hatch every (possibly wider) member from her
//!   weights, then briefly fine-tune each member.
//!
//! All strategies return an [`Ensemble`] plus an [`EnsembleReport`] with the
//! resource metrics the tutorial's tradeoff framework compares.

#![warn(missing_docs)]

pub mod fge;
pub mod mothernet;
pub mod snapshot;
pub mod treenet;

pub use fge::{fge, FgeConfig};
pub use mothernet::{mothernet, MotherNetConfig};
pub use snapshot::snapshot;
pub use treenet::{treenet, TreeNet, TreeNetConfig};

use dl_nn::{Dataset, Network, Optimizer, TrainConfig, Trainer};
use dl_tensor::Tensor;
use rand::rngs::StdRng;

/// A bag of trained member networks combined by probability averaging.
#[derive(Debug, Clone)]
pub struct Ensemble {
    /// Trained members.
    pub members: Vec<Network>,
}

impl Ensemble {
    /// Builds an ensemble from trained members.
    ///
    /// # Panics
    /// Panics when `members` is empty.
    pub fn new(members: Vec<Network>) -> Self {
        assert!(!members.is_empty(), "an ensemble needs at least one member");
        Ensemble { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (cannot happen post-`new`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Mean of member softmax probabilities.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        let mut acc: Option<Tensor> = None;
        for m in &self.members {
            let p = m.predict_proba(x);
            acc = Some(match acc {
                None => p,
                Some(a) => &a + &p,
            });
        }
        let total = acc.expect("non-empty ensemble");
        &total * (1.0 / self.members.len() as f32)
    }

    /// Class predictions by averaged probability.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }

    /// Ensemble accuracy on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        dl_nn::metrics::accuracy(&self.predict(&data.x), &data.y)
    }

    /// Total parameters across members (the tutorial's memory metric).
    pub fn total_params(&self) -> usize {
        self.members.iter().map(Network::param_count).sum()
    }

    /// Total forward FLOPs for one input across all members (the
    /// inference-time metric).
    pub fn inference_flops(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.cost_profile(1).forward_flops)
            .sum()
    }
}

/// Resource accounting for one ensemble-training strategy.
#[derive(Debug, Clone)]
pub struct EnsembleReport {
    /// Strategy name.
    pub strategy: &'static str,
    /// Ensemble accuracy on the evaluation data.
    pub accuracy: f64,
    /// Total training FLOPs spent.
    pub train_flops: u64,
    /// Total parameters held at inference.
    pub params: usize,
    /// Forward FLOPs per input at inference.
    pub inference_flops: u64,
}

/// Trains `members` networks of architecture `dims` independently — the
/// baseline every fast method is compared against.
pub fn independent(
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    members: usize,
    config: &TrainConfig,
    rng: &mut StdRng,
) -> (Ensemble, EnsembleReport) {
    assert!(members > 0, "need at least one member");
    let mut nets = Vec::with_capacity(members);
    let mut flops = 0;
    for m in 0..members {
        let mut net = Network::mlp(dims, rng);
        let mut trainer = Trainer::new(
            TrainConfig {
                seed: config.seed.wrapping_add(m as u64),
                ..config.clone()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, data);
        flops += trainer.flops;
        nets.push(net);
    }
    let ensemble = Ensemble::new(nets);
    let report = EnsembleReport {
        strategy: "independent",
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
    use dl_data::blobs;
    use dl_nn::loss::softmax;
    use dl_tensor::init::rng;

    #[test]
    fn ensemble_probability_averaging() {
        let mut r = rng(0);
        let a = Network::mlp(&[2, 4, 2], &mut r);
        let b = Network::mlp(&[2, 4, 2], &mut r);
        let ens = Ensemble::new(vec![a.clone(), b.clone()]);
        let x = dl_tensor::init::uniform([3, 2], -1.0, 1.0, &mut r);
        let p = ens.predict_proba(&x);
        let pa = softmax(&a.clone().forward(&x, false));
        let pb = softmax(&b.clone().forward(&x, false));
        let expected = &(&pa + &pb) * 0.5;
        assert!(p.approx_eq(&expected, 1e-6));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_rejected() {
        Ensemble::new(vec![]);
    }

    #[test]
    fn independent_ensemble_beats_chance_and_accounts_resources() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 1);
        let eval = blobs(60, 3, 4, 6.0, 0.4, 2);
        let mut r = rng(3);
        let (ens, report) = independent(
            &data,
            &eval,
            &[4, 16, 3],
            3,
            &TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            &mut r,
        );
        assert_eq!(ens.len(), 3);
        assert!(report.accuracy > 0.8, "accuracy {}", report.accuracy);
        assert_eq!(report.params, ens.total_params());
        // three members -> triple the single-net params
        let single = Network::mlp(&[4, 16, 3], &mut r).param_count();
        assert_eq!(report.params, single * 3);
        assert!(report.train_flops > 0);
        assert_eq!(report.inference_flops, ens.inference_flops());
    }

    #[test]
    fn ensemble_is_at_least_as_good_as_worst_member() {
        let data = blobs(150, 2, 3, 6.0, 0.5, 4);
        let mut r = rng(5);
        let (ens, _) = independent(
            &data,
            &data,
            &[3, 8, 2],
            3,
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
            &mut r,
        );
        let worst = ens
            .members
            .iter()
            .map(|m| Trainer::evaluate(m, &data))
            .fold(f64::INFINITY, f64::min);
        let ens_acc = ens.accuracy(&data);
        assert!(
            ens_acc >= worst - 0.05,
            "ensemble {ens_acc} much worse than worst member {worst}"
        );
    }
}
