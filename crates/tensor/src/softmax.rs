//! Numerically stable activations: row-wise softmax (optionally with an
//! additive mask, as the KVEC attention requires), log-softmax, and pointwise
//! nonlinearities.

use crate::Tensor;

/// Numerically stable softmax of one row, in place. Rows whose every entry
/// is `-inf` (fully masked) become all-zero rather than NaN.
fn softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        for v in row.iter_mut() {
            *v = 0.0;
        }
        return;
    }
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

impl Tensor {
    /// Row-wise numerically stable softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax.
    ///
    /// Rows whose every entry is `-inf` (fully masked) become all-zero rather
    /// than NaN; KVEC guarantees the diagonal of its mask is 0 so this only
    /// matters for defensive robustness.
    pub fn softmax_rows_inplace(&mut self) {
        let cols = self.cols();
        if cols == 0 {
            return;
        }
        for row in self.data_mut().chunks_mut(cols) {
            softmax_row(row);
        }
    }

    /// Row-wise softmax of `self + mask` where `mask` entries are `0` or
    /// `-inf` (the paper's dynamic mask matrix `M`). Panics on shape
    /// mismatch.
    pub fn masked_softmax_rows(&self, mask: &Tensor) -> Tensor {
        assert_eq!(self.shape(), mask.shape(), "masked_softmax shape mismatch");
        let mut out = self.add(mask);
        out.softmax_rows_inplace();
        out
    }

    /// Row-wise numerically stable log-softmax.
    pub fn log_softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
            for v in row.iter_mut() {
                *v -= log_sum;
            }
        }
        out
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid_scalar)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }
}

/// Numerically stable scalar sigmoid.
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]).unwrap();
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logits get larger mass.
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        let shifted = t.add_scalar(100.0);
        assert!(t.softmax_rows().allclose(&shifted.softmax_rows(), 1e-6));
    }

    #[test]
    fn softmax_handles_large_values() {
        let t = Tensor::row_vector(&[1000.0, 1000.0]);
        let s = t.softmax_rows();
        assert!(s.allclose(&Tensor::row_vector(&[0.5, 0.5]), 1e-6));
    }

    #[test]
    fn fully_masked_row_is_zero() {
        let logits = Tensor::row_vector(&[1.0, 2.0]);
        let mask = Tensor::row_vector(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        let s = logits.masked_softmax_rows(&mask);
        assert_eq!(s.data(), &[0.0, 0.0]);
    }

    #[test]
    fn masked_softmax_zeroes_masked_entries() {
        let logits = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        let mask = Tensor::row_vector(&[0.0, f32::NEG_INFINITY, 0.0]);
        let s = logits.masked_softmax_rows(&mask);
        assert_eq!(s[(0, 1)], 0.0);
        assert!((s.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::row_vector(&[0.5, -1.0, 2.0]);
        let ls = t.log_softmax_rows();
        let s = t.softmax_rows().map(f32::ln);
        assert!(ls.allclose(&s, 1e-5));
    }

    #[test]
    fn pointwise_activations() {
        let t = Tensor::row_vector(&[-1.0, 0.0, 1.0]);
        let s = t.sigmoid();
        assert!((s[(0, 1)] - 0.5).abs() < 1e-6);
        assert!(s[(0, 0)] < 0.5 && s[(0, 2)] > 0.5);
        assert_eq!(t.relu().data(), &[0.0, 0.0, 1.0]);
        assert!((t.tanh()[(0, 2)] - 1.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_extremes_are_finite() {
        assert!((sigmoid_scalar(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid_scalar(-100.0).abs() < 1e-6);
        assert!(sigmoid_scalar(-1e30).is_finite());
        assert!(sigmoid_scalar(1e30).is_finite());
    }
}
