//! Softmax + cross-entropy, fused for a numerically stable gradient.

use apa_gemm::Mat;

/// Row-wise softmax (stable: shifts by the row max).
pub fn softmax_rows(logits: &Mat<f32>) -> Mat<f32> {
    let mut out = Mat::zeros(0, 0);
    softmax_rows_into(logits, &mut out);
    out
}

/// [`softmax_rows`] into a reused buffer (resized in place; every element
/// is written).
fn softmax_rows_into(logits: &Mat<f32>, out: &mut Mat<f32>) {
    let (r, c) = (logits.rows(), logits.cols());
    out.resize(r, c);
    for i in 0..r {
        let row = &logits.as_slice()[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        let orow = &mut out.as_mut_slice()[i * c..(i + 1) * c];
        for (o, &v) in orow.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for o in orow {
            *o *= inv;
        }
    }
}

/// Mean cross-entropy of softmax(logits) against integer labels, plus the
/// gradient w.r.t. the logits: `(softmax − onehot) / batch`.
pub fn softmax_cross_entropy(logits: &Mat<f32>, labels: &[u8]) -> (f32, Mat<f32>) {
    let mut grad = Mat::zeros(0, 0);
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad);
    (loss, grad)
}

/// [`softmax_cross_entropy`] with the gradient written into a reused
/// buffer — the training step's loss pass.
pub(crate) fn softmax_cross_entropy_into(
    logits: &Mat<f32>,
    labels: &[u8],
    probs: &mut Mat<f32>,
) -> f32 {
    let batch = logits.rows();
    assert_eq!(batch, labels.len(), "label count mismatch");
    let classes = logits.cols();
    softmax_rows_into(logits, probs);
    let mut loss = 0.0f64;
    let inv_batch = 1.0 / batch as f32;
    for (i, &label) in labels.iter().enumerate() {
        let l = label as usize;
        assert!(l < classes, "label {l} out of range (classes = {classes})");
        let p = probs.at(i, l).max(1e-12);
        loss -= (p as f64).ln();
        let row = &mut probs.as_mut_slice()[i * classes..(i + 1) * classes];
        row[l] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_batch;
        }
    }
    (loss / batch as f64) as f32
}

/// Classification accuracy of logits (argmax) against labels.
pub fn accuracy(logits: &Mat<f32>, labels: &[u8]) -> f64 {
    let mut correct = 0usize;
    let c = logits.cols();
    for (i, &label) in labels.iter().enumerate() {
        let row = &logits.as_slice()[i * c..(i + 1) * c];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap();
        if pred == label as usize {
            correct += 1;
        }
    }
    correct as f64 / labels.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.5 - 2.0);
        let p = softmax_rows(&logits);
        for i in 0..3 {
            let s: f32 = (0..4).map(|j| p.at(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-5);
            for j in 0..4 {
                assert!(p.at(i, j) > 0.0);
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Mat::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Mat::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        let (pa, pb) = (softmax_rows(&a), softmax_rows(&b));
        for j in 0..3 {
            assert!((pa.at(0, j) - pb.at(0, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Mat::from_vec(2, 3, vec![10.0, -5.0, -5.0, -5.0, 10.0, -5.0]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let logits = Mat::from_fn(2, 5, |i, j| ((i + j * 2) % 3) as f32);
        let (_, grad) = softmax_cross_entropy(&logits, &[1, 4]);
        for i in 0..2 {
            let s: f32 = (0..5).map(|j| grad.at(i, j)).sum();
            assert!(s.abs() < 1e-6);
        }
        // True-class entries are negative, others positive.
        assert!(grad.at(0, 1) < 0.0);
        assert!(grad.at(0, 0) > 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut logits = Mat::from_vec(1, 3, vec![0.3, -0.2, 0.1]);
        let labels = [2u8];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for j in 0..3 {
            let orig = logits.at(0, j);
            logits.set(0, j, orig + eps);
            let (lp, _) = softmax_cross_entropy(&logits, &labels);
            logits.set(0, j, orig - eps);
            let (lm, _) = softmax_cross_entropy(&logits, &labels);
            logits.set(0, j, orig);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad.at(0, j) - numeric).abs() < 1e-3,
                "grad[{j}]: {} vs {numeric}",
                grad.at(0, j)
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Mat::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-9);
    }
}
