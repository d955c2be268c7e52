//! Quality metrics: classification accuracy.

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
}
