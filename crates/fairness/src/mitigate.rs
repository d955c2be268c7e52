//! Bias mitigation at the three intervention points the tutorial surveys:
//! before training (reweighing), during training (adversarial debiasing),
//! and after training (threshold adjustment).

use crate::metrics::FairnessReport;
use dl_nn::{
    loss::{one_hot, Loss},
    Dataset, Network, Optimizer,
};
use dl_tensor::{init, Tensor};

/// A mitigation outcome: the debiased predictions plus before/after
/// fairness reports.
#[derive(Debug, Clone)]
pub struct MitigationResult {
    /// Debiased predictions on the evaluation data.
    pub predictions: Vec<usize>,
    /// Fairness report of the debiased predictions.
    pub report: FairnessReport,
}

// ----------------------------------------------------------------------
// Pre-processing: reweighing
// ----------------------------------------------------------------------

/// Kamiran-Calders reweighing: weight each `(group, label)` cell by
/// `P(group) * P(label) / P(group, label)`, which makes group and label
/// statistically independent in the weighted distribution.
///
/// Returns one weight per sample (mean ~1).
///
/// # Panics
/// Panics on length mismatch or empty input.
fn reweigh(labels: &[usize], groups: &[usize]) -> Vec<f64> {
    assert_eq!(labels.len(), groups.len(), "length mismatch");
    assert!(!labels.is_empty(), "cannot reweigh an empty dataset");
    let n = labels.len() as f64;
    let mut group_count = [0usize; 2];
    let mut label_count = [0usize; 2];
    let mut joint = [[0usize; 2]; 2];
    for (&l, &g) in labels.iter().zip(groups) {
        assert!(l <= 1 && g <= 1, "binary values required");
        group_count[g] += 1;
        label_count[l] += 1;
        joint[g][l] += 1;
    }
    labels
        .iter()
        .zip(groups)
        .map(|(&l, &g)| {
            let p_g = group_count[g] as f64 / n;
            let p_l = label_count[l] as f64 / n;
            let p_gl = (joint[g][l] as f64 / n).max(1e-12);
            p_g * p_l / p_gl
        })
        .collect()
}

/// Trains a classifier on reweighed data (weights realized by weighted
/// batch sampling) and evaluates its fairness.
pub fn train_reweighed(
    data: &Dataset,
    groups: &[usize],
    epochs: usize,
    seed: u64,
) -> MitigationResult {
    let weights = reweigh(&data.y, groups);
    let mut rng = init::rng(seed);
    let mut net = Network::mlp(&[data.x.dims()[1], 16, 2], &mut rng);
    let mut opt = Optimizer::adam(0.01);
    let batch = 32;
    let steps_per_epoch = data.len().div_ceil(batch);
    for _ in 0..epochs {
        for _ in 0..steps_per_epoch {
            let idx: Vec<usize> = (0..batch)
                .map(|_| init::weighted_choice(&weights, &mut rng))
                .collect();
            let xb = data.x.select_rows(&idx);
            let labels: Vec<usize> = idx.iter().map(|&i| data.y[i]).collect();
            let targets = one_hot(&labels, 2);
            net.zero_grads();
            let logits = net.forward(&xb, true);
            let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
            net.backward(&grad);
            let mut pg = net.params_and_grads();
            opt.step(&mut pg, 1.0);
        }
    }
    net.clear_caches();
    let predictions = net.predict(&data.x);
    let report = FairnessReport::new(&predictions, &data.y, groups);
    MitigationResult {
        predictions,
        report,
    }
}

// ----------------------------------------------------------------------
// In-processing: adversarial debiasing
// ----------------------------------------------------------------------

/// Adversarial debiasing configuration.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Strength of the adversarial penalty (0 = plain training).
    pub lambda: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        AdversarialConfig {
            lambda: 1.0,
            epochs: 20,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// Adversarial debiasing (Elazar-Goldberg style): a predictor learns the
/// task while an adversary tries to recover the protected group from the
/// predictor's logits. The predictor receives the *negated* adversary
/// gradient (gradient reversal), so it is pushed toward representations
/// that do not leak the group.
pub fn adversarial_debias(
    data: &Dataset,
    groups: &[usize],
    config: &AdversarialConfig,
) -> MitigationResult {
    assert_eq!(data.len(), groups.len(), "length mismatch");
    let mut rng = init::rng(config.seed);
    let mut predictor = Network::mlp(&[data.x.dims()[1], 16, 2], &mut rng);
    let mut adversary = Network::mlp(&[2, 8, 2], &mut rng);
    let mut p_opt = Optimizer::adam(0.01);
    let mut a_opt = Optimizer::adam(0.01);
    let mut shuffle = init::rng(config.seed.wrapping_add(1));
    for _ in 0..config.epochs {
        let order = init::permutation(data.len(), &mut shuffle);
        for chunk in order.chunks(config.batch_size) {
            let xb = data.x.select_rows(chunk);
            let labels: Vec<usize> = chunk.iter().map(|&i| data.y[i]).collect();
            let grp: Vec<usize> = chunk.iter().map(|&i| groups[i]).collect();
            let y_targets = one_hot(&labels, 2);
            let g_targets = one_hot(&grp, 2);
            // 1) adversary step: predict group from predictor logits
            let logits = predictor.forward(&xb, true);
            adversary.zero_grads();
            let g_logits = adversary.forward(&logits, true);
            let (_, g_grad) = Loss::SoftmaxCrossEntropy.evaluate(&g_logits, &g_targets);
            let grad_into_logits = adversary.backward(&g_grad);
            let mut pg = adversary.params_and_grads();
            a_opt.step(&mut pg, 1.0);
            // 2) predictor step: task gradient minus adversary leak gradient
            predictor.zero_grads();
            let logits = predictor.forward(&xb, true);
            let (_, task_grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &y_targets);
            // gradient reversal: subtract lambda * d(adv loss)/d(logits)
            let combined = &task_grad - &(&grad_into_logits * config.lambda);
            predictor.backward(&combined);
            let mut pg = predictor.params_and_grads();
            p_opt.step(&mut pg, 1.0);
        }
    }
    predictor.clear_caches();
    let predictions = predictor.predict(&data.x);
    let report = FairnessReport::new(&predictions, &data.y, groups);
    MitigationResult {
        predictions,
        report,
    }
}

// ----------------------------------------------------------------------
// Post-processing: threshold adjustment
// ----------------------------------------------------------------------

/// Chooses per-group decision thresholds over positive-class scores so the
/// two groups' positive rates match (demographic parity) as closely as
/// possible, then returns the adjusted predictions.
///
/// # Panics
/// Panics on length mismatch.
pub fn threshold_adjust(
    scores: &Tensor,
    labels: &[usize],
    groups: &[usize],
) -> MitigationResult {
    assert_eq!(scores.dims()[0], labels.len(), "length mismatch");
    assert_eq!(labels.len(), groups.len(), "length mismatch");
    let pos_scores: Vec<f32> = (0..labels.len()).map(|i| scores.get(&[i, 1])).collect();
    // overall positive rate at threshold 0.5 is the target
    let target_rate =
        pos_scores.iter().filter(|&&s| s >= 0.5).count() as f64 / labels.len() as f64;
    // per group, pick the threshold whose positive rate is closest to the target
    let mut thresholds = [0.5f32; 2];
    for (g, threshold) in thresholds.iter_mut().enumerate() {
        let mut group_scores: Vec<f32> = pos_scores
            .iter()
            .zip(groups)
            .filter(|(_, &gg)| gg == g)
            .map(|(&s, _)| s)
            .collect();
        if group_scores.is_empty() {
            continue;
        }
        group_scores.sort_by(f32::total_cmp);
        // threshold at the (1 - target_rate) quantile of this group's scores
        let idx = ((group_scores.len() as f64) * (1.0 - target_rate))
            .floor()
            .clamp(0.0, group_scores.len() as f64 - 1.0) as usize;
        *threshold = group_scores[idx];
    }
    let predictions: Vec<usize> = pos_scores
        .iter()
        .zip(groups)
        .map(|(&s, &g)| usize::from(s >= thresholds[g]))
        .collect();
    let report = FairnessReport::new(&predictions, labels, groups);
    MitigationResult {
        predictions,
        report,
    }
}

/// Per-group thresholds chosen to equalize **true-positive rates** (equal
/// opportunity) instead of raw positive rates: for each group, the
/// threshold is the score quantile among *actual positives* that admits
/// the target TPR.
///
/// # Panics
/// Panics on length mismatch or when a group has no positive samples.
pub fn threshold_equal_opportunity(
    scores: &Tensor,
    labels: &[usize],
    groups: &[usize],
    target_tpr: f64,
) -> MitigationResult {
    assert_eq!(scores.dims()[0], labels.len(), "length mismatch");
    assert_eq!(labels.len(), groups.len(), "length mismatch");
    assert!((0.0..=1.0).contains(&target_tpr), "TPR must lie in [0,1]");
    let pos_scores: Vec<f32> = (0..labels.len()).map(|i| scores.get(&[i, 1])).collect();
    let mut thresholds = [0.5f32; 2];
    for (g, threshold) in thresholds.iter_mut().enumerate() {
        let mut positives: Vec<f32> = pos_scores
            .iter()
            .zip(labels.iter().zip(groups))
            .filter(|(_, (&l, &gg))| l == 1 && gg == g)
            .map(|(&s, _)| s)
            .collect();
        assert!(
            !positives.is_empty(),
            "group {g} has no positive samples to calibrate on"
        );
        positives.sort_by(f32::total_cmp);
        // admit the top target_tpr fraction of true positives
        let idx = ((positives.len() as f64) * (1.0 - target_tpr))
            .floor()
            .clamp(0.0, positives.len() as f64 - 1.0) as usize;
        *threshold = positives[idx];
    }
    let predictions: Vec<usize> = pos_scores
        .iter()
        .zip(groups)
        .map(|(&s, &g)| usize::from(s >= thresholds[g]))
        .collect();
    let report = FairnessReport::new(&predictions, labels, groups);
    MitigationResult {
        predictions,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_data::{CensusConfig, CensusData};
    use dl_nn::{Optimizer, TrainConfig, Trainer};
    use dl_tensor::init::rng;

    fn biased_census(seed: u64) -> CensusData {
        CensusData::generate(CensusConfig {
            n: 2000,
            bias: 0.6,
            seed,
            ..CensusConfig::default()
        })
    }

    fn baseline(census: &CensusData, seed: u64) -> (Network, FairnessReport) {
        let data = census.to_dataset();
        let mut r = rng(seed);
        let mut net = Network::mlp(&[6, 16, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        trainer.fit(&mut net, &data);
        let preds = net.predict(&data.x);
        let report = FairnessReport::new(&preds, &census.labels, &census.groups);
        (net, report)
    }

    #[test]
    fn reweigh_weights_balance_cells() {
        let labels = [1, 1, 1, 0, 1, 0, 0, 0];
        let groups = [0, 0, 0, 0, 1, 1, 1, 1];
        let w = reweigh(&labels, &groups);
        // group 0 positives are over-represented -> weight < 1
        assert!(w[0] < 1.0);
        // group 1 positives are under-represented -> weight > 1
        assert!(w[4] > 1.0);
        // weighted joint distribution becomes independent:
        // sum of weights in cell (g,l) == n * P(g) * P(l)
        let cell_sum: f64 = w
            .iter()
            .zip(labels.iter().zip(&groups))
            .filter(|(_, (&l, &g))| l == 1 && g == 1)
            .map(|(&wi, _)| wi)
            .sum();
        assert!((cell_sum - 8.0 * 0.5 * 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn reweigh_rejects_empty() {
        reweigh(&[], &[]);
    }

    #[test]
    fn reweighing_reduces_parity_gap() {
        let census = biased_census(0);
        let (_, base) = baseline(&census, 1);
        let result = train_reweighed(&census.to_dataset(), &census.groups, 15, 2);
        assert!(
            result.report.demographic_parity_diff() < base.demographic_parity_diff(),
            "reweighing gap {} should beat baseline {}",
            result.report.demographic_parity_diff(),
            base.demographic_parity_diff()
        );
        assert!(result.report.accuracy() > 0.6, "accuracy collapsed");
    }

    #[test]
    fn adversarial_reduces_parity_gap() {
        let census = biased_census(3);
        let (_, base) = baseline(&census, 4);
        let result = adversarial_debias(
            &census.to_dataset(),
            &census.groups,
            &AdversarialConfig {
                lambda: 2.0,
                epochs: 20,
                ..AdversarialConfig::default()
            },
        );
        assert!(
            result.report.demographic_parity_diff() < base.demographic_parity_diff(),
            "adversarial gap {} should beat baseline {}",
            result.report.demographic_parity_diff(),
            base.demographic_parity_diff()
        );
        assert!(result.report.accuracy() > 0.6);
    }

    #[test]
    fn zero_lambda_adversarial_matches_plain_training() {
        let census = biased_census(5);
        let result = adversarial_debias(
            &census.to_dataset(),
            &census.groups,
            &AdversarialConfig {
                lambda: 0.0,
                epochs: 10,
                ..AdversarialConfig::default()
            },
        );
        // with no penalty the bias stays visible
        assert!(result.report.demographic_parity_diff() > 0.1);
    }

    #[test]
    fn threshold_adjust_closes_parity_almost_exactly() {
        let census = biased_census(6);
        let (net, base) = baseline(&census, 7);
        let scores = net.predict_proba(&census.features);
        let result = threshold_adjust(&scores, &census.labels, &census.groups);
        assert!(
            result.report.demographic_parity_diff().abs() < 0.05,
            "post-hoc gap {} should be near zero (baseline {})",
            result.report.demographic_parity_diff(),
            base.demographic_parity_diff()
        );
    }

    #[test]
    fn equal_opportunity_thresholds_close_the_tpr_gap() {
        let census = biased_census(10);
        let (net, base) = baseline(&census, 11);
        let scores = net.predict_proba(&census.features);
        let result =
            threshold_equal_opportunity(&scores, &census.labels, &census.groups, 0.85);
        let gap = result.report.equal_opportunity_diff().abs();
        assert!(
            gap < base.equal_opportunity_diff().abs(),
            "EO thresholds should shrink the TPR gap: {gap} vs baseline {}",
            base.equal_opportunity_diff()
        );
        assert!(gap < 0.08, "residual TPR gap {gap}");
        // both groups sit near the target TPR
        assert!((result.report.group0.tpr() - 0.85).abs() < 0.06);
        assert!((result.report.group1.tpr() - 0.85).abs() < 0.06);
    }

    #[test]
    #[should_panic(expected = "TPR must lie")]
    fn equal_opportunity_rejects_bad_target() {
        let census = biased_census(12);
        let (net, _) = baseline(&census, 13);
        let scores = net.predict_proba(&census.features);
        threshold_equal_opportunity(&scores, &census.labels, &census.groups, 1.5);
    }

    #[test]
    fn threshold_adjust_trades_some_accuracy() {
        let census = biased_census(8);
        let (net, base) = baseline(&census, 9);
        let scores = net.predict_proba(&census.features);
        let result = threshold_adjust(&scores, &census.labels, &census.groups);
        // parity is enforced against biased labels, so accuracy can dip,
        // but must not collapse
        assert!(result.report.accuracy() > base.accuracy() - 0.15);
    }
}
