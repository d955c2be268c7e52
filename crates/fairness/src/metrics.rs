//! Group fairness metrics for binary classifiers.
//!
//! All metrics compare exactly two groups (0 = reference/majority,
//! 1 = protected/minority), matching the census generator in `dl-data`.

/// Per-group confusion counts for a binary task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupConfusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl GroupConfusion {
    /// Samples in the group.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Predicted-positive rate: `(TP + FP) / total`.
    fn positive_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.tp + self.fp) as f64 / t as f64
        }
    }

    /// True-positive rate (recall): `TP / (TP + FN)`.
    pub(crate) fn tpr(&self) -> f64 {
        let p = self.tp + self.fn_;
        if p == 0 {
            0.0
        } else {
            self.tp as f64 / p as f64
        }
    }

    /// False-positive rate: `FP / (FP + TN)`.
    pub fn fpr(&self) -> f64 {
        let n = self.fp + self.tn;
        if n == 0 {
            0.0
        } else {
            self.fp as f64 / n as f64
        }
    }

    /// Precision: `TP / (TP + FP)`; 0 when nothing predicted positive.
    pub fn precision(&self) -> f64 {
        let p = self.tp + self.fp;
        if p == 0 {
            0.0
        } else {
            self.tp as f64 / p as f64
        }
    }

    /// Folds another slice's counts in. Confusion counts are integers,
    /// so windowed/streaming aggregation is *exact*: merging per-window
    /// confusions equals the full-batch confusion, and therefore every
    /// derived rate and gap is bit-identical too.
    pub fn merge(&mut self, other: &GroupConfusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Accuracy within the group.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / t as f64
        }
    }
}

/// A full two-group fairness report.
#[derive(Debug, Clone, Default)]
pub struct FairnessReport {
    /// Confusion for group 0 (reference).
    pub group0: GroupConfusion,
    /// Confusion for group 1 (protected).
    pub group1: GroupConfusion,
}

impl FairnessReport {
    /// Builds the report from parallel predictions, labels and groups
    /// (all values binary).
    ///
    /// # Panics
    /// Panics on length mismatch or non-binary values.
    pub fn new(predictions: &[usize], labels: &[usize], groups: &[usize]) -> Self {
        assert_eq!(predictions.len(), labels.len(), "length mismatch");
        assert_eq!(predictions.len(), groups.len(), "length mismatch");
        let mut g = [GroupConfusion::default(); 2];
        for ((&p, &l), &grp) in predictions.iter().zip(labels).zip(groups) {
            assert!(p <= 1 && l <= 1 && grp <= 1, "binary values required");
            let c = &mut g[grp];
            match (p, l) {
                (1, 1) => c.tp += 1,
                (1, 0) => c.fp += 1,
                (0, 0) => c.tn += 1,
                (0, 1) => c.fn_ += 1,
                _ => unreachable!(),
            }
        }
        FairnessReport {
            group0: g[0],
            group1: g[1],
        }
    }

    /// Folds another window's report in (see [`GroupConfusion::merge`]):
    /// the streaming path for fairness-over-served-traffic, where slices
    /// arrive per monitor window and the fold must equal the full batch.
    pub fn merge(&mut self, other: &FairnessReport) {
        self.group0.merge(&other.group0);
        self.group1.merge(&other.group1);
    }

    /// Demographic-parity difference:
    /// `P(pred=1 | group=0) - P(pred=1 | group=1)`. Zero is parity;
    /// positive values favor group 0.
    pub fn demographic_parity_diff(&self) -> f64 {
        self.group0.positive_rate() - self.group1.positive_rate()
    }

    /// Disparate-impact ratio:
    /// `P(pred=1 | group=1) / P(pred=1 | group=0)`. The 80% rule flags
    /// values below 0.8. Returns infinity when group 0 never receives a
    /// positive prediction but group 1 does.
    pub fn disparate_impact(&self) -> f64 {
        let p0 = self.group0.positive_rate();
        let p1 = self.group1.positive_rate();
        if p0 == 0.0 {
            if p1 == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            p1 / p0
        }
    }

    /// Equal-opportunity difference: TPR(group 0) - TPR(group 1).
    pub fn equal_opportunity_diff(&self) -> f64 {
        self.group0.tpr() - self.group1.tpr()
    }

    /// Equalized-odds distance: the larger of the absolute TPR and FPR
    /// gaps (0 = equalized odds holds).
    pub fn equalized_odds_gap(&self) -> f64 {
        let tpr_gap = (self.group0.tpr() - self.group1.tpr()).abs();
        let fpr_gap = (self.group0.fpr() - self.group1.fpr()).abs();
        tpr_gap.max(fpr_gap)
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct = self.group0.tp + self.group0.tn + self.group1.tp + self.group1.tn;
        let total = self.group0.total() + self.group1.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Perfectly fair predictions: identical behaviour per group.
    fn fair_case() -> FairnessReport {
        // group 0: 2 TP, 1 FP, 2 TN, 1 FN; group 1 mirrors it
        let preds = [1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0];
        let labels = [1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1];
        let groups = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        FairnessReport::new(&preds, &labels, &groups)
    }

    #[test]
    fn fair_predictions_score_zero_gaps() {
        let r = fair_case();
        assert_eq!(r.demographic_parity_diff(), 0.0);
        assert_eq!(r.disparate_impact(), 1.0);
        assert_eq!(r.equal_opportunity_diff(), 0.0);
        assert_eq!(r.equalized_odds_gap(), 0.0);
    }

    #[test]
    fn confusion_counts() {
        let r = fair_case();
        assert_eq!(r.group0.tp, 2);
        assert_eq!(r.group0.fp, 1);
        assert_eq!(r.group0.tn, 2);
        assert_eq!(r.group0.fn_, 1);
        assert_eq!(r.group0.total(), 6);
    }

    #[test]
    fn biased_predictions_show_positive_gaps() {
        // group 0 always predicted positive, group 1 never
        let preds = [1, 1, 1, 0, 0, 0];
        let labels = [1, 0, 1, 1, 0, 1];
        let groups = [0, 0, 0, 1, 1, 1];
        let r = FairnessReport::new(&preds, &labels, &groups);
        assert_eq!(r.demographic_parity_diff(), 1.0);
        assert_eq!(r.disparate_impact(), 0.0);
        assert_eq!(r.equal_opportunity_diff(), 1.0);
        assert_eq!(r.equalized_odds_gap(), 1.0);
    }

    #[test]
    fn rates_handle_empty_denominators() {
        let c = GroupConfusion::default();
        assert_eq!(c.positive_rate(), 0.0);
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn disparate_impact_edge_cases() {
        // neither group predicted positive: ratio defined as 1 (parity)
        let r = FairnessReport::new(&[0, 0], &[0, 1], &[0, 1]);
        assert_eq!(r.disparate_impact(), 1.0);
        // only group 1 positive: infinite ratio
        let r = FairnessReport::new(&[0, 1], &[0, 1], &[0, 1]);
        assert!(r.disparate_impact().is_infinite());
    }

    #[test]
    fn accuracy_pools_groups() {
        let r = fair_case();
        assert!((r.accuracy() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "binary values required")]
    fn rejects_nonbinary() {
        FairnessReport::new(&[2], &[0], &[0]);
    }

    /// All rates stay in [0,1] and all gaps in [-1,1] for arbitrary
    /// binary prediction/label/group triples.
    #[test]
    fn metric_bounds() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..200);
            let rows: Vec<[usize; 3]> = (0..n)
                .map(|_| {
                    [
                        rng.gen_range(0..2),
                        rng.gen_range(0..2),
                        rng.gen_range(0..2),
                    ]
                })
                .collect();
            let preds: Vec<usize> = rows.iter().map(|r| r[0]).collect();
            let labels: Vec<usize> = rows.iter().map(|r| r[1]).collect();
            let groups: Vec<usize> = rows.iter().map(|r| r[2]).collect();
            let r = FairnessReport::new(&preds, &labels, &groups);
            for c in [r.group0, r.group1] {
                for rate in [
                    c.positive_rate(),
                    c.tpr(),
                    c.fpr(),
                    c.precision(),
                    c.accuracy(),
                ] {
                    assert!((0.0..=1.0).contains(&rate), "case {case}: rate {rate}");
                }
            }
            assert!(r.demographic_parity_diff().abs() <= 1.0, "case {case}");
            assert!(r.equal_opportunity_diff().abs() <= 1.0, "case {case}");
            assert!((0.0..=1.0).contains(&r.equalized_odds_gap()), "case {case}");
            assert!((0.0..=1.0).contains(&r.accuracy()), "case {case}");
            assert!(r.disparate_impact() >= 0.0, "case {case}");
        }
    }

    /// Swapping the two groups negates the signed gaps and preserves
    /// the absolute ones.
    #[test]
    fn group_swap_symmetry() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..150);
            let rows: Vec<[usize; 3]> = (0..n)
                .map(|_| {
                    [
                        rng.gen_range(0..2),
                        rng.gen_range(0..2),
                        rng.gen_range(0..2),
                    ]
                })
                .collect();
            let preds: Vec<usize> = rows.iter().map(|r| r[0]).collect();
            let labels: Vec<usize> = rows.iter().map(|r| r[1]).collect();
            let groups: Vec<usize> = rows.iter().map(|r| r[2]).collect();
            let swapped: Vec<usize> = groups.iter().map(|&g| 1 - g).collect();
            let a = FairnessReport::new(&preds, &labels, &groups);
            let b = FairnessReport::new(&preds, &labels, &swapped);
            assert!(
                (a.demographic_parity_diff() + b.demographic_parity_diff()).abs() < 1e-12,
                "case {case}"
            );
            assert!(
                (a.equalized_odds_gap() - b.equalized_odds_gap()).abs() < 1e-12,
                "case {case}"
            );
            assert!((a.accuracy() - b.accuracy()).abs() < 1e-12, "case {case}");
        }
    }

    #[test]
    fn windowed_streaming_merge_equals_full_batch_on_census() {
        use dl_data::{CensusConfig, CensusData};
        let census = CensusData::generate(CensusConfig {
            n: 1997, // deliberately not a multiple of any window below
            bias: 0.5,
            seed: 3,
            ..CensusConfig::default()
        });
        // Deterministic synthetic decisions (a cheap hash of the row
        // index): the equality below is structural, so any binary
        // prediction stream exercises it.
        let preds: Vec<usize> = (0..census.labels.len())
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) & 1)
            .collect();
        let full = FairnessReport::new(&preds, &census.labels, &census.groups);
        for window in [64usize, 250, 1024] {
            let mut folded = FairnessReport::default();
            for ((p, l), g) in preds
                .chunks(window)
                .zip(census.labels.chunks(window))
                .zip(census.groups.chunks(window))
            {
                folded.merge(&FairnessReport::new(p, l, g));
            }
            assert_eq!(folded.group0, full.group0, "window {window}");
            assert_eq!(folded.group1, full.group1, "window {window}");
            // Integer counts -> every derived metric is bit-identical.
            for (a, b) in [
                (
                    folded.demographic_parity_diff(),
                    full.demographic_parity_diff(),
                ),
                (folded.equalized_odds_gap(), full.equalized_odds_gap()),
                (
                    folded.equal_opportunity_diff(),
                    full.equal_opportunity_diff(),
                ),
                (folded.disparate_impact(), full.disparate_impact()),
                (folded.accuracy(), full.accuracy()),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "window {window}");
            }
        }
    }

    #[test]
    fn trained_model_on_biased_census_shows_gap() {
        use dl_data::{CensusConfig, CensusData};
        use dl_nn::{Optimizer, TrainConfig, Trainer};
        use dl_tensor::init::rng;
        let census = CensusData::generate(CensusConfig {
            n: 2000,
            bias: 0.6,
            seed: 0,
            ..CensusConfig::default()
        });
        let data = census.to_dataset();
        let mut r = rng(1);
        let mut net = dl_nn::Network::mlp(&[6, 16, 2], &mut r);
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
        // the model learns the injected bias (partly via the proxy column)
        assert!(
            report.demographic_parity_diff() > 0.15,
            "expected a substantial parity gap, got {}",
            report.demographic_parity_diff()
        );
    }
}
