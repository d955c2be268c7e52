//! Multi-attribute selectivity estimation (E13).
//!
//! Three estimators for conjunctive range predicates over a numeric table:
//!
//! * [`HistogramEstimator`] — per-column equi-width histograms combined
//!   under the attribute-value-independence assumption: the classic
//!   optimizer approach, and the one correlated data breaks.
//! * [`SamplingEstimator`] — evaluate the predicate on a uniform sample.
//! * [`NeuralEstimator`] — a small MLP trained on (predicate → observed
//!   selectivity) examples, the tutorial's learned-component approach.
//!
//! All three are scored with **q-error**, the standard metric:
//! `max(est, truth) / min(est, truth)` with both floored at one row.

use dl_data::{CorrelatedTable, RangePredicate};
use dl_nn::{Loss, Network, Optimizer};
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// q-error of an estimate against the truth, with both sides floored to
/// one row out of `rows` so zero-cardinality predicates stay finite.
pub fn q_error(estimate: f64, truth: f64, rows: usize) -> f64 {
    let floor = 1.0 / rows.max(1) as f64;
    let e = estimate.max(floor);
    let t = truth.max(floor);
    (e / t).max(t / e)
}

/// Per-column equi-width histograms + independence assumption.
#[derive(Debug, Clone)]
pub struct HistogramEstimator {
    /// `hist[col][bucket]` = fraction of rows in that bucket.
    hists: Vec<Vec<f64>>,
    mins: Vec<f32>,
    maxs: Vec<f32>,
    buckets: usize,
}

impl HistogramEstimator {
    /// Builds `buckets`-bucket histograms for every column.
    ///
    /// # Panics
    /// Panics when `buckets == 0`.
    pub fn build(table: &CorrelatedTable, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let cols = table.cols();
        let rows = table.rows();
        let mut mins = vec![f32::INFINITY; cols];
        let mut maxs = vec![f32::NEG_INFINITY; cols];
        for r in 0..rows {
            for (c, &v) in table.row(r).iter().enumerate() {
                mins[c] = mins[c].min(v);
                maxs[c] = maxs[c].max(v);
            }
        }
        let mut hists = vec![vec![0.0f64; buckets]; cols];
        for r in 0..rows {
            for (c, &v) in table.row(r).iter().enumerate() {
                let span = (maxs[c] - mins[c]).max(1e-12);
                let b = (((v - mins[c]) / span) * buckets as f32) as usize;
                hists[c][b.min(buckets - 1)] += 1.0;
            }
        }
        for h in &mut hists {
            for b in h.iter_mut() {
                *b /= rows as f64;
            }
        }
        HistogramEstimator {
            hists,
            mins,
            maxs,
            buckets,
        }
    }

    /// Selectivity of one column's clause `lo <= v < hi` from its
    /// histogram with linear interpolation inside partial buckets.
    fn column_selectivity(&self, col: usize, lo: f32, hi: f32) -> f64 {
        let min = self.mins[col];
        let max = self.maxs[col];
        let span = (max - min).max(1e-12);
        let to_pos =
            |v: f32| (((v - min) / span) * self.buckets as f32).clamp(0.0, self.buckets as f32);
        let (plo, phi) = (to_pos(lo), to_pos(hi));
        let mut total = 0.0;
        for b in 0..self.buckets {
            let b0 = b as f32;
            let b1 = b0 + 1.0;
            let overlap = (phi.min(b1) - plo.max(b0)).max(0.0);
            total += self.hists[col][b] * f64::from(overlap);
        }
        total
    }

    /// Estimated selectivity of a conjunctive predicate under
    /// independence: the product of per-column selectivities.
    pub fn estimate(&self, predicate: &RangePredicate) -> f64 {
        predicate
            .clauses
            .iter()
            .map(|&(c, lo, hi)| self.column_selectivity(c, lo, hi))
            .product()
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.hists.iter().map(|h| h.len() * 8).sum::<usize>() + self.mins.len() * 8
    }
}

/// Uniform-sample estimator: keep `sample_size` random rows, answer by
/// scanning them.
#[derive(Debug, Clone)]
pub struct SamplingEstimator {
    sample: Vec<Vec<f32>>,
}

impl SamplingEstimator {
    /// Draws the sample.
    ///
    /// # Panics
    /// Panics when `sample_size == 0`.
    pub fn build(table: &CorrelatedTable, sample_size: usize, rng: &mut StdRng) -> Self {
        assert!(sample_size > 0, "sample must be non-empty");
        let n = sample_size.min(table.rows());
        let idx = init::sample_indices(table.rows(), n, rng);
        SamplingEstimator {
            sample: idx.into_iter().map(|r| table.row(r).to_vec()).collect(),
        }
    }

    /// Estimated selectivity: matching fraction of the sample.
    pub fn estimate(&self, predicate: &RangePredicate) -> f64 {
        let matching = self
            .sample
            .iter()
            .filter(|row| predicate.matches(row))
            .count();
        matching as f64 / self.sample.len() as f64
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.sample.len() * self.sample.first().map_or(0, Vec::len) * 4
    }
}

/// A neural selectivity estimator: featurize the predicate as
/// `(lo, hi)` per column (full range when unconstrained) and regress
/// `log(selectivity)` with an MLP.
#[derive(Debug, Clone)]
pub struct NeuralEstimator {
    model: Network,
    cols: usize,
}

impl NeuralEstimator {
    /// Trains on `train_queries` random predicates (with true
    /// selectivities measured on the table — the query-driven setting).
    pub fn train(
        table: &CorrelatedTable,
        train_queries: usize,
        max_dims: usize,
        seed: u64,
    ) -> Self {
        let cols = table.cols();
        let mut rng = init::rng(seed);
        let mut xs = Vec::with_capacity(train_queries * cols * 2);
        let mut ys = Vec::with_capacity(train_queries);
        for _ in 0..train_queries {
            let dims = rng.gen_range(1..=max_dims.min(cols));
            let p = RangePredicate::sample(cols, dims, &mut rng);
            xs.extend(Self::featurize(&p, cols));
            let sel = table.true_selectivity(&p);
            ys.push((sel.max(1.0 / table.rows() as f64)).ln() as f32);
        }
        let x = Tensor::from_vec(xs, [train_queries, cols * 2]).expect("feature width");
        let y = Tensor::from_vec(ys, [train_queries, 1]).expect("target width");
        let mut model = Network::mlp(&[cols * 2, 64, 32, 1], &mut rng);
        let mut opt = Optimizer::adam(0.005);
        for _ in 0..400 {
            let pred = model.forward(&x, true);
            let (_, grad) = Loss::MeanSquaredError.evaluate(&pred, &y);
            model.backward(&grad);
            let mut pg = model.params_and_grads();
            opt.step(&mut pg, 1.0);
        }
        model.clear_caches();
        NeuralEstimator { model, cols }
    }

    /// Predicate features: `(lo/100, hi/100)` per column, `(0, 1)` for
    /// unconstrained columns.
    fn featurize(p: &RangePredicate, cols: usize) -> Vec<f32> {
        let mut f = Vec::with_capacity(cols * 2);
        for c in 0..cols {
            match p.clauses.iter().find(|&&(cc, _, _)| cc == c) {
                Some(&(_, lo, hi)) => {
                    f.push(lo / 100.0);
                    f.push(hi / 100.0);
                }
                None => {
                    f.push(0.0);
                    f.push(1.0);
                }
            }
        }
        f
    }

    /// Estimated selectivity.
    pub fn estimate(&mut self, predicate: &RangePredicate) -> f64 {
        let x = Tensor::from_vec(Self::featurize(predicate, self.cols), [1, self.cols * 2])
            .expect("feature width");
        let log_sel = f64::from(self.model.forward(&x, false).item());
        log_sel.exp().clamp(0.0, 1.0)
    }

    /// Memory footprint in bytes (model parameters).
    pub fn size_bytes(&self) -> usize {
        self.model.param_count() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(corr: f32, seed: u64) -> CorrelatedTable {
        CorrelatedTable::generate(4000, 4, corr, seed)
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(0.5, 0.5, 100), 1.0);
        assert_eq!(q_error(0.5, 0.25, 100), 2.0);
        assert_eq!(q_error(0.25, 0.5, 100), 2.0);
        // floored: zero truth doesn't explode
        assert!(q_error(0.5, 0.0, 100).is_finite());
    }

    #[test]
    fn histogram_single_column_accurate() {
        let t = table(0.0, 0);
        let h = HistogramEstimator::build(&t, 32);
        let p = RangePredicate::new(vec![(0, 20.0, 60.0)]);
        let est = h.estimate(&p);
        let truth = t.true_selectivity(&p);
        assert!(
            q_error(est, truth, t.rows()) < 1.3,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn histogram_breaks_on_correlation() {
        let independent = table(0.0, 1);
        let correlated = table(0.95, 1);
        let p = RangePredicate::new(vec![(0, 0.0, 30.0), (1, 0.0, 30.0)]);
        let qi = q_error(
            HistogramEstimator::build(&independent, 32).estimate(&p),
            independent.true_selectivity(&p),
            independent.rows(),
        );
        let qc = q_error(
            HistogramEstimator::build(&correlated, 32).estimate(&p),
            correlated.true_selectivity(&p),
            correlated.rows(),
        );
        assert!(qc > qi * 1.5, "independence should break: {qi} vs {qc}");
    }

    #[test]
    fn sampling_tracks_truth_within_noise() {
        let t = table(0.8, 2);
        let mut rng = init::rng(3);
        let s = SamplingEstimator::build(&t, 500, &mut rng);
        let p = RangePredicate::new(vec![(0, 10.0, 70.0), (2, 20.0, 80.0)]);
        let q = q_error(s.estimate(&p), t.true_selectivity(&p), t.rows());
        assert!(q < 1.5, "sampling q-error {q}");
    }

    #[test]
    fn neural_beats_histogram_on_correlated_multidim() {
        let t = table(0.9, 4);
        let h = HistogramEstimator::build(&t, 32);
        let mut n = NeuralEstimator::train(&t, 600, 3, 5);
        let mut rng = init::rng(6);
        let mut hq = Vec::new();
        let mut nq = Vec::new();
        for _ in 0..60 {
            let p = RangePredicate::sample(4, 3, &mut rng);
            let truth = t.true_selectivity(&p);
            hq.push(q_error(h.estimate(&p), truth, t.rows()));
            nq.push(q_error(n.estimate(&p), truth, t.rows()));
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let hm = med(&mut hq);
        let nm = med(&mut nq);
        assert!(
            nm < hm,
            "neural median q-error {nm} should beat histogram {hm} on correlated data"
        );
    }

    #[test]
    fn estimators_report_sizes() {
        let t = table(0.5, 7);
        let h = HistogramEstimator::build(&t, 16);
        assert_eq!(h.size_bytes(), 4 * 16 * 8 + 4 * 8);
        let mut rng = init::rng(8);
        let s = SamplingEstimator::build(&t, 100, &mut rng);
        assert_eq!(s.size_bytes(), 100 * 4 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_zero_buckets() {
        HistogramEstimator::build(&table(0.0, 9), 0);
    }
}
