//! Correlated multi-attribute tables with exactly-known selectivities.
//!
//! Neural selectivity estimators (E13) win precisely where classic
//! single-column histograms break: correlated attributes. This generator
//! builds tables whose columns share a latent factor (so attribute-value
//! independence fails badly) and can compute the *exact* selectivity of any
//! conjunctive range predicate by brute force — the ground truth against
//! which estimator q-errors are measured.

use dl_tensor::init;
use rand::rngs::StdRng;
use rand::Rng;

/// A numeric table whose columns are correlated through a latent factor.
#[derive(Debug, Clone)]
pub struct CorrelatedTable {
    /// Row-major values, `rows x cols`.
    data: Vec<f32>,
    rows: usize,
    cols: usize,
    /// Correlation strength in `[0, 1]` used at generation.
    pub correlation: f32,
}

impl CorrelatedTable {
    /// Generates a `rows x cols` table. Each column is
    /// `correlation * latent + (1 - correlation) * independent_noise`,
    /// scaled to roughly `[0, 100]`.
    ///
    /// # Panics
    /// Panics when `rows == 0` or `cols == 0`, or correlation is outside
    /// `[0, 1]`.
    pub fn generate(rows: usize, cols: usize, correlation: f32, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "table must be non-empty");
        assert!(
            (0.0..=1.0).contains(&correlation),
            "correlation must lie in [0,1], got {correlation}"
        );
        let mut rng = init::rng(seed);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let latent: f32 = rng.gen_range(0.0..100.0);
            for _ in 0..cols {
                let independent: f32 = rng.gen_range(0.0..100.0);
                data.push(correlation * latent + (1.0 - correlation) * independent);
            }
        }
        CorrelatedTable {
            data,
            rows,
            cols,
            correlation,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row * self.cols + col]
    }

    /// One full row as a slice.
    pub fn row(&self, row: usize) -> &[f32] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Exact selectivity of a conjunctive range predicate, by full scan.
    pub fn true_selectivity(&self, predicate: &RangePredicate) -> f64 {
        let matching = (0..self.rows)
            .filter(|&r| predicate.matches(self.row(r)))
            .count();
        matching as f64 / self.rows as f64
    }
}

/// A conjunction of per-column range constraints `lo <= v < hi`.
/// Columns absent from the predicate are unconstrained.
#[derive(Debug, Clone, PartialEq)]
pub struct RangePredicate {
    /// `(column, lo, hi)` triples, all of which must hold.
    pub clauses: Vec<(usize, f32, f32)>,
}

impl RangePredicate {
    /// A predicate from clause triples.
    pub fn new(clauses: Vec<(usize, f32, f32)>) -> Self {
        RangePredicate { clauses }
    }

    /// True when the row satisfies every clause.
    pub fn matches(&self, row: &[f32]) -> bool {
        self.clauses
            .iter()
            .all(|&(c, lo, hi)| row[c] >= lo && row[c] < hi)
    }

    /// Samples a random predicate constraining `dims` distinct columns of a
    /// `cols`-wide table. Ranges are centered uniformly with width drawn
    /// from 10-60 units so selectivities span several orders of magnitude.
    ///
    /// # Panics
    /// Panics when `dims > cols`.
    pub fn sample(cols: usize, dims: usize, rng: &mut StdRng) -> Self {
        let chosen = init::sample_indices(cols, dims, rng);
        let clauses = chosen
            .into_iter()
            .map(|c| {
                let width = rng.gen_range(10.0f32..60.0);
                let lo = rng.gen_range(0.0f32..(100.0 - width));
                (c, lo, lo + width)
            })
            .collect();
        RangePredicate { clauses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape() {
        let t = CorrelatedTable::generate(100, 4, 0.5, 0);
        assert_eq!(t.rows(), 100);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.row(3).len(), 4);
    }

    #[test]
    fn values_in_expected_range() {
        let t = CorrelatedTable::generate(1000, 3, 0.7, 1);
        for r in 0..1000 {
            for c in 0..3 {
                let v = t.get(r, c);
                assert!((0.0..=100.0).contains(&v), "value {v} out of range");
            }
        }
    }

    #[test]
    fn correlation_knob_works() {
        // empirical column correlation grows with the knob
        let corr_of = |strength: f32| {
            let t = CorrelatedTable::generate(5000, 2, strength, 2);
            let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for r in 0..t.rows() {
                let x = f64::from(t.get(r, 0));
                let y = f64::from(t.get(r, 1));
                sx += x;
                sy += y;
                sxx += x * x;
                syy += y * y;
                sxy += x * y;
            }
            let n = t.rows() as f64;
            (n * sxy - sx * sy) / ((n * sxx - sx * sx).sqrt() * (n * syy - sy * sy).sqrt())
        };
        assert!(corr_of(0.0).abs() < 0.05);
        assert!(corr_of(0.9) > 0.8);
        assert!(corr_of(0.5) > corr_of(0.2));
    }

    #[test]
    fn predicate_matching() {
        let p = RangePredicate::new(vec![(0, 10.0, 20.0), (1, 0.0, 50.0)]);
        assert!(p.matches(&[15.0, 25.0]));
        assert!(!p.matches(&[25.0, 25.0]));
        assert!(!p.matches(&[15.0, 75.0]));
        assert!(!p.matches(&[20.0, 25.0])); // hi is exclusive
        assert!(p.matches(&[10.0, 0.0])); // lo is inclusive
    }

    #[test]
    fn true_selectivity_matches_manual_count() {
        let t = CorrelatedTable::generate(200, 2, 0.0, 3);
        let p = RangePredicate::new(vec![(0, 0.0, 50.0)]);
        let expected = (0..200).filter(|&r| t.get(r, 0) < 50.0).count();
        assert!((t.true_selectivity(&p) - expected as f64 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn independence_estimate_fails_under_correlation() {
        // with strong correlation, the conjunction of two aligned ranges is
        // far more selective than independence predicts... or far less.
        let t = CorrelatedTable::generate(20_000, 2, 0.95, 4);
        let p = RangePredicate::new(vec![(0, 0.0, 30.0), (1, 0.0, 30.0)]);
        let truth = t.true_selectivity(&p);
        // Attribute-value independence with uniform columns predicts
        // 0.3 × 0.3 for the two clauses.
        let indep = 0.3 * 0.3;
        // correlated columns: both small together much more often
        assert!(
            truth > indep * 2.0,
            "expected correlation to break independence: truth {truth}, indep {indep}"
        );
    }

    #[test]
    fn sampled_predicates_are_valid() {
        let mut rng = init::rng(5);
        for _ in 0..50 {
            let p = RangePredicate::sample(6, 3, &mut rng);
            assert_eq!(p.clauses.len(), 3);
            let mut cols: Vec<usize> = p.clauses.iter().map(|c| c.0).collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), 3, "duplicate columns in predicate");
            assert!(p.clauses.iter().all(|&(_, lo, hi)| lo < hi));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CorrelatedTable::generate(50, 3, 0.5, 9);
        let b = CorrelatedTable::generate(50, 3, 0.5, 9);
        assert_eq!(a.data, b.data);
    }
}
