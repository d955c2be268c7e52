//! Training objectives: softmax cross-entropy and mean squared error.

use dl_tensor::Tensor;

/// A differentiable objective over batched predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Softmax over logits followed by cross-entropy against integer class
    /// labels. The fused form keeps the backward pass numerically stable
    /// (`softmax - onehot`).
    SoftmaxCrossEntropy,
    /// Mean squared error against dense targets (used for regression and
    /// for distillation against teacher probabilities).
    MeanSquaredError,
}

impl Loss {
    /// Loss value and gradient with respect to the predictions.
    ///
    /// * For [`Loss::SoftmaxCrossEntropy`], `predictions` are raw logits
    ///   `[batch, classes]` and `targets` is a one-hot (or soft-label)
    ///   matrix of the same shape.
    /// * For [`Loss::MeanSquaredError`], both are arbitrary same-shaped
    ///   tensors.
    ///
    /// The returned gradient is already averaged over the batch.
    ///
    /// # Panics
    /// Panics when shapes disagree.
    pub fn evaluate(&self, predictions: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        assert_eq!(
            predictions.shape(),
            targets.shape(),
            "loss requires matching shapes: {} vs {}",
            predictions.shape(),
            targets.shape()
        );
        match self {
            Loss::SoftmaxCrossEntropy => {
                let probs = softmax(predictions);
                let batch = predictions.dims()[0] as f32;
                // CE = -sum(t * log p) / batch, guard log(0)
                let loss = -probs
                    .zip(
                        targets,
                        |p, t| if t > 0.0 { t * p.max(1e-12).ln() } else { 0.0 },
                    )
                    .sum()
                    / batch;
                let mut grad = &probs - targets;
                grad.map_inplace(|g| g / batch);
                (loss, grad)
            }
            Loss::MeanSquaredError => {
                let diff = predictions - targets;
                let n = predictions.len() as f32;
                let loss = diff.sum_squares() / n;
                let mut grad = diff;
                grad.map_inplace(|d| 2.0 * d / n);
                (loss, grad)
            }
        }
    }
}

/// Row-wise softmax of a `[batch, classes]` logits matrix, computed with the
/// max-subtraction trick for numerical stability.
///
/// # Panics
/// Panics on non-matrix input.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.rank(), 2, "softmax expects [batch, classes]");
    let (rows, cols) = (logits.dims()[0], logits.dims()[1]);
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let row = &logits.data()[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        // The row's exponentials go straight into the output, which is
        // then normalised in place.
        let start = out.len();
        out.extend(row.iter().map(|&v| (v - max).exp()));
        let exps = &mut out[start..];
        let total: f32 = exps.iter().sum();
        for e in exps {
            *e /= total;
        }
    }
    Tensor::from_vec(out, [rows, cols]).expect("length matches by construction")
}

/// One-hot encodes integer labels into a `[labels.len(), classes]` matrix.
///
/// # Panics
/// Panics when any label is out of range.
pub fn one_hot(labels: &[usize], classes: usize) -> Tensor {
    let mut data = vec![0.0f32; labels.len() * classes];
    for (i, &l) in labels.iter().enumerate() {
        assert!(l < classes, "label {l} out of range for {classes} classes");
        data[i * classes + l] = 1.0;
    }
    Tensor::from_vec(data, [labels.len(), classes]).expect("length matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]).unwrap();
        let p = softmax(&x);
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| p.get(&[r, c])).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], [1, 2]).unwrap();
        let p = softmax(&x);
        assert!(p.data().iter().all(|v| v.is_finite()));
        let y = Tensor::from_vec(vec![0.0, 1.0], [1, 2]).unwrap();
        assert!(p.approx_eq(&softmax(&y), 1e-6));
    }

    #[test]
    fn one_hot_encodes() {
        let t = one_hot(&[2, 0], 3);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_bad_label() {
        one_hot(&[3], 3);
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_vec(vec![20.0, -20.0], [1, 2]).unwrap();
        let targets = one_hot(&[0], 2);
        let (loss, _) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
        assert!(loss < 1e-5, "loss was {loss}");
    }

    #[test]
    fn cross_entropy_uniform_prediction_is_log_classes() {
        let logits = Tensor::zeros([1, 4]);
        let targets = one_hot(&[1], 4);
        let (loss, _) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5], [1, 3]).unwrap();
        let targets = one_hot(&[1], 3);
        let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
        let probs = softmax(&logits);
        let expected = &probs - &targets;
        assert!(grad.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let logits = Tensor::from_vec(vec![0.3, -0.6, 1.2, 0.1, 0.5, -0.2], [2, 3]).unwrap();
        let targets = one_hot(&[2, 0], 3);
        let (_, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &targets);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = Loss::SoftmaxCrossEntropy.evaluate(&lp, &targets);
            let (fm, _) = Loss::SoftmaxCrossEntropy.evaluate(&lm, &targets);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-3,
                "grad mismatch at {i}: numeric {numeric} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn mse_value_and_gradient() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], [1, 2]).unwrap();
        let target = Tensor::from_vec(vec![0.0, 0.0], [1, 2]).unwrap();
        let (loss, grad) = Loss::MeanSquaredError.evaluate(&pred, &target);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert_eq!(grad.data(), &[1.0, 2.0]); // 2 * diff / n
    }

    #[test]
    fn mse_zero_at_match() {
        let pred = Tensor::from_vec(vec![3.0, -1.0], [2, 1]).unwrap();
        let (loss, grad) = Loss::MeanSquaredError.evaluate(&pred, &pred.clone());
        assert_eq!(loss, 0.0);
        assert_eq!(grad.sum(), 0.0);
    }

    #[test]
    fn soft_labels_supported() {
        // distillation-style soft targets still give finite loss/grad
        let logits = Tensor::from_vec(vec![0.5, -0.5], [1, 2]).unwrap();
        let soft = Tensor::from_vec(vec![0.7, 0.3], [1, 2]).unwrap();
        let (loss, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, &soft);
        assert!(loss.is_finite() && loss > 0.0);
        assert!((grad.sum()).abs() < 1e-6); // softmax grad rows sum to zero
    }
}
