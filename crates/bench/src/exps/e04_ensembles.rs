//! E4 — fast ensemble training strategies (§2.1).
//!
//! Claim: snapshot / TreeNets / MotherNets approach independent-training
//! accuracy at a fraction of the training FLOPs; TreeNets and MotherNets
//! also cut memory and inference cost.

use crate::table::{col, fixed, flops, text, Column, ExperimentResult};
use dl_ensemble::{independent, mothernet, snapshot, treenet, MotherNetConfig, TreeNetConfig};
use dl_nn::TrainConfig;
use dl_obs::fields;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("strategy", "strategy", text),
    col("accuracy", "accuracy", fixed::<3>),
    col("train flops", "train_flops", flops),
    col("params", "params", text),
    col("inference flops", "inference_flops", flops),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let all = dl_data::digits_dataset(700, 0.08, 4);
    let (train, test) = all.split(0.3, 5);
    let members = 3;
    let epochs = 18;
    let mut records = Vec::new();
    let mut push = |r: &dl_ensemble::EnsembleReport| {
        records.push(fields! {
            "strategy" => r.strategy, "accuracy" => r.accuracy,
            "train_flops" => r.train_flops, "params" => r.params,
            "inference_flops" => r.inference_flops,
        });
    };
    let (_, indep) = independent(
        &train,
        &test,
        &[144, 32, 10],
        members,
        &TrainConfig {
            epochs,
            ..TrainConfig::default()
        },
        &mut init::rng(10),
    );
    push(&indep);
    // Snapshot's deal: ONE training run's budget (epochs total), split into
    // member cycles — vs. independent training which pays that budget per
    // member.
    let cycle_len = epochs / members;
    let (_, snap) = snapshot(
        &train,
        &test,
        &[144, 32, 10],
        members,
        cycle_len,
        11,
        &mut init::rng(11),
    );
    push(&snap);
    let (_, tree) = treenet(
        &train,
        &test,
        &TreeNetConfig {
            trunk_dims: vec![144, 32],
            branch_dims: vec![32, 16, 10],
            members,
            epochs,
            batch_size: 32,
            seed: 12,
        },
        &mut init::rng(12),
    );
    push(&tree);
    let (_, mother) = mothernet(
        &train,
        &test,
        &MotherNetConfig {
            member_hidden: vec![vec![24], vec![32], vec![40]],
            mother_epochs: epochs,
            finetune_epochs: 4,
            batch_size: 32,
            seed: 13,
            hatch_noise: 0.01,
        },
        &mut init::rng(13),
    );
    push(&mother);
    let cheap_enough =
        snap.train_flops * 2 < indep.train_flops && mother.train_flops < indep.train_flops;
    let close_enough =
        snap.accuracy > indep.accuracy - 0.1 && mother.accuracy > indep.accuracy - 0.1;
    let sharing_saves = tree.params < indep.params && tree.inference_flops < indep.inference_flops;
    ExperimentResult {
        id: "e4".into(),
        title: "ensemble training: independent vs snapshot vs treenet vs mothernet".into(),
        tables: vec![COLUMNS],
        verdict: if cheap_enough && close_enough && sharing_saves {
            "matches the claim: fast strategies near baseline accuracy at a fraction of \
             the FLOPs; treenet also cuts params and inference"
                .into()
        } else {
            format!("PARTIAL: cheap={cheap_enough} close={close_enough} sharing={sharing_saves}")
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e4_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [4]);
    }
}
