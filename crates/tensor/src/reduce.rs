//! Reductions and argmax helpers.

use crate::{Axis, Tensor};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Axis-wise sum.
    ///
    /// `Axis::Rows` collapses the rows, producing a `1 x cols` row vector of
    /// column sums. `Axis::Cols` collapses the columns, producing a
    /// `rows x 1` column vector of row sums.
    pub fn sum_axis(&self, axis: Axis) -> Tensor {
        match axis {
            Axis::Rows => {
                let mut out = Tensor::zeros(1, self.cols());
                for r in 0..self.rows() {
                    let src = self.row(r);
                    for (o, &v) in out.data_mut().iter_mut().zip(src) {
                        *o += v;
                    }
                }
                out
            }
            Axis::Cols => {
                let mut out = Tensor::zeros(self.rows(), 1);
                for r in 0..self.rows() {
                    out.data_mut()[r] = self.row(r).iter().sum();
                }
                out
            }
        }
    }

    /// Largest element; `NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element; `INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element of row `r` (first one on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Frobenius norm (square root of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn totals() {
        let t = t23();
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(Tensor::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn axis_sums() {
        let t = t23();
        assert_eq!(t.sum_axis(Axis::Rows).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_axis(Axis::Cols).data(), &[6.0, 15.0]);
    }

    #[test]
    fn extrema_and_argmax() {
        let t = Tensor::from_rows(&[vec![3.0, 1.0, 3.0], vec![-1.0, -5.0, 0.0]]).unwrap();
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -5.0);
        assert_eq!(t.argmax_row(0), 0, "first index wins ties");
        assert_eq!(t.argmax_row(1), 2);
    }

    #[test]
    fn norm_and_clamp() {
        let t = Tensor::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
