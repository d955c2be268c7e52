//! Quality metrics: accuracy and confusion matrices.

/// Fraction of predictions equal to the labels.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "accuracy requires equal-length predictions and labels"
    );
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / predictions.len() as f64
}

/// A `classes x classes` confusion matrix; `matrix[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Builds the matrix from parallel prediction/label slices.
    ///
    /// # Panics
    /// Panics on length mismatch or any index `>= classes`.
    pub fn new(predictions: &[usize], labels: &[usize], classes: usize) -> Self {
        assert_eq!(predictions.len(), labels.len());
        let mut counts = vec![vec![0usize; classes]; classes];
        for (&p, &l) in predictions.iter().zip(labels) {
            assert!(p < classes && l < classes, "class index out of range");
            counts[l][p] += 1;
        }
        ConfusionMatrix { counts }
    }

    /// Count of samples with true class `actual` predicted as `predicted`.
    pub fn count(&self, actual: usize, predicted: usize) -> usize {
        self.counts[actual][predicted]
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.counts.len()
    }

    /// Precision of class `c`: TP / (TP + FP). `None` when never predicted.
    pub fn precision(&self, c: usize) -> Option<f64> {
        let predicted: usize = self.counts.iter().map(|row| row[c]).sum();
        if predicted == 0 {
            None
        } else {
            Some(self.counts[c][c] as f64 / predicted as f64)
        }
    }

    /// Overall accuracy (trace / total).
    pub fn accuracy(&self) -> f64 {
        let total: usize = self.counts.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = (0..self.classes()).map(|i| self.counts[i][i]).sum();
        diag as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn accuracy_length_mismatch() {
        accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn confusion_matrix_counts() {
        let m = ConfusionMatrix::new(&[0, 1, 1, 0], &[0, 1, 0, 1], 2);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(1, 1), 1);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.accuracy(), 0.5);
    }

    #[test]
    fn precision_per_class() {
        // predictions: class 0 predicted 3 times (2 right), class 1 once (right)
        let m = ConfusionMatrix::new(&[0, 0, 0, 1], &[0, 0, 1, 1], 2);
        assert_eq!(m.precision(0), Some(2.0 / 3.0));
        assert_eq!(m.precision(1), Some(1.0));
    }

    #[test]
    fn precision_none_when_never_predicted() {
        let m = ConfusionMatrix::new(&[0, 0], &[0, 1], 3);
        assert_eq!(m.precision(2), None);
    }
}
