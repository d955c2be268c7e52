//! MotherNets: rapid ensemble training through a shared "mother" core.
//!
//! MotherNets (Wasay et al., MLSys 2020 — co-authored by this tutorial's
//! authors) trains the *structural intersection* of a heterogeneous ensemble
//! once, then **hatches** every member by embedding the mother's weights
//! into the member's (wider) architecture and briefly fine-tuning. The
//! expensive shared function is learned once; members only pay for their
//! diversity.
//!
//! This implementation supports MLP ensembles of equal depth and
//! heterogeneous widths; the mother is the per-layer minimum width.

use crate::{Ensemble, EnsembleReport};
use dl_nn::{Dense, Layer, Network, Optimizer, TrainConfig, Trainer};
use dl_nn::Dataset;
use dl_tensor::init;
use rand::rngs::StdRng;

/// MotherNets configuration.
#[derive(Debug, Clone)]
pub struct MotherNetConfig {
    /// Hidden-layer widths of each member (input/output widths are taken
    /// from the data). All members must have the same depth.
    pub member_hidden: Vec<Vec<usize>>,
    /// Epochs of mother training.
    pub mother_epochs: usize,
    /// Epochs of per-member fine-tuning after hatching.
    pub finetune_epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
    /// Standard deviation of the noise used to break symmetry when a
    /// hatched member is wider than the mother.
    pub hatch_noise: f32,
}

impl Default for MotherNetConfig {
    fn default() -> Self {
        MotherNetConfig {
            member_hidden: vec![vec![16], vec![24], vec![32]],
            mother_epochs: 20,
            finetune_epochs: 5,
            batch_size: 32,
            seed: 0,
            hatch_noise: 0.01,
        }
    }
}

/// Embeds the weights of `mother` into a fresh network of layout `dims`
/// (same depth, each width >= the mother's), adding `noise`-scaled random
/// values to the new rows/columns so hatched neurons break symmetry.
///
/// # Panics
/// Panics when depths differ or any member width is below the mother's.
pub fn hatch(mother: &Network, dims: &[usize], noise: f32, rng: &mut StdRng) -> Network {
    let mother_dense: Vec<&Dense> = mother
        .layers()
        .iter()
        .filter_map(|l| match l {
            Layer::Dense(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(
        mother_dense.len(),
        dims.len() - 1,
        "member depth must match mother depth"
    );
    let mut member = Network::mlp(dims, rng);
    let mut dense_idx = 0;
    for layer in member.layers_mut() {
        let Layer::Dense(d) = layer else { continue };
        let m = mother_dense[dense_idx];
        assert!(
            d.fan_in() >= m.fan_in() && d.fan_out() >= m.fan_out(),
            "member layer {dense_idx} ({}x{}) narrower than mother ({}x{})",
            d.fan_in(),
            d.fan_out(),
            m.fan_in(),
            m.fan_out()
        );
        // fresh noise everywhere, mother weights stamped into the top-left
        let mut w = init::normal([d.fan_in(), d.fan_out()], 0.0, noise, rng);
        for i in 0..m.fan_in() {
            for j in 0..m.fan_out() {
                w.set(&[i, j], m.weight.get(&[i, j]));
            }
        }
        let mut b = init::normal([d.fan_out()], 0.0, noise, rng);
        for j in 0..m.fan_out() {
            b.data_mut()[j] = m.bias.data()[j];
        }
        *d = Dense::from_parts(w, b);
        dense_idx += 1;
    }
    member
}

/// Trains a MotherNets ensemble: mother once, hatch + fine-tune per member.
pub fn mothernet(
    data: &Dataset,
    eval: &Dataset,
    config: &MotherNetConfig,
    rng: &mut StdRng,
) -> (Ensemble, EnsembleReport) {
    assert!(!config.member_hidden.is_empty(), "need at least one member");
    let depth = config.member_hidden[0].len();
    assert!(
        config.member_hidden.iter().all(|h| h.len() == depth),
        "all members must share depth for hatching"
    );
    let input = data.x.dims()[1];
    let classes = data.classes;
    // mother = per-layer minimum width
    let mother_hidden: Vec<usize> = (0..depth)
        .map(|l| {
            config
                .member_hidden
                .iter()
                .map(|h| h[l])
                .min()
                .expect("non-empty members")
        })
        .collect();
    let mut mother_dims = vec![input];
    mother_dims.extend(&mother_hidden);
    mother_dims.push(classes);
    let mut mother = Network::mlp(&mother_dims, rng);
    let mut trainer = Trainer::new(
        TrainConfig {
            epochs: config.mother_epochs,
            batch_size: config.batch_size,
            seed: config.seed,
            ..TrainConfig::default()
        },
        Optimizer::adam(0.01),
    );
    trainer.fit(&mut mother, data);
    let mut flops = trainer.flops;
    // hatch and fine-tune each member
    let mut members = Vec::with_capacity(config.member_hidden.len());
    for (i, hidden) in config.member_hidden.iter().enumerate() {
        let mut dims = vec![input];
        dims.extend(hidden);
        dims.push(classes);
        let mut member = hatch(&mother, &dims, config.hatch_noise, rng);
        let mut ft = Trainer::new(
            TrainConfig {
                epochs: config.finetune_epochs,
                batch_size: config.batch_size,
                seed: config.seed.wrapping_add(1 + i as u64),
                ..TrainConfig::default()
            },
            Optimizer::adam(0.005),
        );
        ft.fit(&mut member, data);
        flops += ft.flops;
        members.push(member);
    }
    let ensemble = Ensemble::new(members);
    let report = EnsembleReport {
        strategy: "mothernet",
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
    fn hatch_preserves_mother_function_at_zero_noise() {
        // with noise 0 and equal dims, the hatched member IS the mother
        let mut r = rng(0);
        let data = blobs(60, 2, 3, 6.0, 0.4, 0);
        let mut mother = Network::mlp(&[3, 8, 2], &mut r);
        let mut t = Trainer::new(
            TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        t.fit(&mut mother, &data);
        let mut hatched = hatch(&mother, &[3, 8, 2], 0.0, &mut r);
        let a = mother.forward(&data.x, false);
        let b = hatched.forward(&data.x, false);
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn hatch_wider_member_keeps_mother_block() {
        let mut r = rng(1);
        let mother = Network::mlp(&[3, 4, 2], &mut r);
        let member = hatch(&mother, &[3, 10, 2], 0.01, &mut r);
        let (Layer::Dense(md), Layer::Dense(hd)) = (&mother.layers()[0], &member.layers()[0])
        else {
            panic!("expected dense layers");
        };
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(md.weight.get(&[i, j]), hd.weight.get(&[i, j]));
            }
        }
        assert_eq!(hd.fan_out(), 10);
    }

    #[test]
    #[should_panic(expected = "narrower than mother")]
    fn hatch_rejects_narrower_member() {
        let mut r = rng(2);
        let mother = Network::mlp(&[3, 8, 2], &mut r);
        hatch(&mother, &[3, 4, 2], 0.0, &mut r);
    }

    #[test]
    fn mothernet_trains_heterogeneous_ensemble() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 3);
        let mut r = rng(4);
        let cfg = MotherNetConfig {
            member_hidden: vec![vec![12], vec![16], vec![24]],
            mother_epochs: 15,
            finetune_epochs: 5,
            ..MotherNetConfig::default()
        };
        let (ens, report) = mothernet(&data, &data, &cfg, &mut r);
        assert_eq!(ens.len(), 3);
        assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
        // members have their own widths
        let p: Vec<usize> = ens.members.iter().map(Network::param_count).collect();
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn mothernet_cheaper_than_independent_same_accuracy_ballpark() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 5);
        let mut r = rng(6);
        let cfg = MotherNetConfig {
            member_hidden: vec![vec![16], vec![16], vec![16]],
            mother_epochs: 15,
            finetune_epochs: 3,
            ..MotherNetConfig::default()
        };
        let (_, mn) = mothernet(&data, &data, &cfg, &mut r);
        let (_, indep) = independent(
            &data,
            &data,
            &[4, 16, 3],
            3,
            &TrainConfig {
                epochs: 18, // same budget a member would need from scratch
                ..TrainConfig::default()
            },
            &mut r,
        );
        assert!(
            mn.train_flops < indep.train_flops,
            "mothernet {} vs independent {}",
            mn.train_flops,
            indep.train_flops
        );
        assert!(mn.accuracy > indep.accuracy - 0.1);
    }
}
