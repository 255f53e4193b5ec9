//! Elementwise arithmetic, broadcasting, transposition, concatenation and
//! slicing.

use crate::{Tensor, TensorError, TensorResult};

impl Tensor {
    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> TensorResult<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }

    /// Elementwise sum. Errors on shape mismatch.
    pub fn try_add(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.check_same_shape(other, "add")?;
        let mut out = self.clone();
        out.add_assign(other);
        Ok(out)
    }

    /// Elementwise sum; panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.try_add(other).expect("tensor add")
    }

    /// In-place elementwise sum; panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// Elementwise difference. Errors on shape mismatch.
    pub fn try_sub(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.check_same_shape(other, "sub")?;
        let mut out = self.clone();
        for (a, b) in out.data_mut().iter_mut().zip(other.data()) {
            *a -= b;
        }
        Ok(out)
    }

    /// Elementwise difference; panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.try_sub(other).expect("tensor sub")
    }

    /// Elementwise (Hadamard) product. Errors on shape mismatch.
    pub fn try_hadamard(&self, other: &Tensor) -> TensorResult<Tensor> {
        self.check_same_shape(other, "hadamard")?;
        let mut out = self.clone();
        for (a, b) in out.data_mut().iter_mut().zip(other.data()) {
            *a *= b;
        }
        Ok(out)
    }

    /// Elementwise (Hadamard) product; panics on shape mismatch.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.try_hadamard(other).expect("tensor hadamard")
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// In-place scalar multiplication.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data_mut() {
            *a *= s;
        }
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        for a in out.data_mut() {
            *a += s;
        }
        out
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        for a in out.data_mut() {
            *a = f(*a);
        }
        out
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    pub fn try_add_row_broadcast(&self, row: &Tensor) -> TensorResult<Tensor> {
        if row.rows() != 1 || row.cols() != self.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows() {
            let dst = out.row_mut(r);
            for (a, b) in dst.iter_mut().zip(row.data()) {
                *a += b;
            }
        }
        Ok(out)
    }

    /// Adds a row vector to every row; panics on shape mismatch.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        self.try_add_row_broadcast(row).expect("add_row_broadcast")
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Tensor {
        let (r, c) = self.shape();
        let mut out = Tensor::zeros(c, r);
        for i in 0..r {
            let src = self.row(i);
            for (j, &v) in src.iter().enumerate() {
                out.data_mut()[j * r + i] = v;
            }
        }
        out
    }

    /// Vertically stacks tensors that share a column count.
    pub fn concat_rows(parts: &[&Tensor]) -> TensorResult<Tensor> {
        let cols = parts.first().map_or(0, |t| t.cols());
        let mut rows = 0;
        for p in parts {
            if p.cols() != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            rows += p.rows();
        }
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Horizontally stacks tensors that share a row count.
    pub fn concat_cols(parts: &[&Tensor]) -> TensorResult<Tensor> {
        let rows = parts.first().map_or(0, |t| t.rows());
        let mut cols = 0;
        for p in parts {
            if p.rows() != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: (rows, cols),
                    rhs: p.shape(),
                });
            }
            cols += p.cols();
        }
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Copies rows `start..end` into a new tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> TensorResult<Tensor> {
        if start > end || end > self.rows() {
            return Err(TensorError::OutOfBounds {
                op: "slice_rows",
                index: end,
                bound: self.rows() + 1,
            });
        }
        let cols = self.cols();
        Tensor::from_vec(
            end - start,
            cols,
            self.data()[start * cols..end * cols].to_vec(),
        )
    }

    /// Copies columns `start..end` into a new tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> TensorResult<Tensor> {
        if start > end || end > self.cols() {
            return Err(TensorError::OutOfBounds {
                op: "slice_cols",
                index: end,
                bound: self.cols() + 1,
            });
        }
        let mut data = Vec::with_capacity(self.rows() * (end - start));
        for r in 0..self.rows() {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Tensor::from_vec(self.rows(), end - start, data)
    }

    /// Gathers the given rows (with repetition allowed) into a new tensor.
    pub fn take_rows(&self, indices: &[usize]) -> TensorResult<Tensor> {
        let mut data = Vec::with_capacity(indices.len() * self.cols());
        for &i in indices {
            if i >= self.rows() {
                return Err(TensorError::OutOfBounds {
                    op: "take_rows",
                    index: i,
                    bound: self.rows(),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(indices.len(), self.cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t22() -> Tensor {
        Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn add_sub_hadamard() {
        let a = t22();
        let b = Tensor::full(2, 2, 2.0);
        assert_eq!(a.add(&b).data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.hadamard(&b).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert!(a.try_add(&Tensor::zeros(1, 2)).is_err());
    }

    #[test]
    fn scalar_ops() {
        let a = t22();
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn row_broadcast() {
        let a = t22();
        let bias = Tensor::row_vector(&[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&bias).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert!(a
            .try_add_row_broadcast(&Tensor::row_vector(&[1.0]))
            .is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn concat_rows_and_cols() {
        let a = t22();
        let b = Tensor::ones(1, 2);
        let v = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[1.0, 1.0]);

        let c = Tensor::ones(2, 1);
        let h = Tensor::concat_cols(&[&a, &c]).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 1.0]);

        assert!(Tensor::concat_rows(&[&a, &c]).is_err());
        assert!(Tensor::concat_cols(&[&a, &b]).is_err());
    }

    #[test]
    fn slicing() {
        let a = Tensor::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        assert_eq!(a.slice_rows(1, 3).unwrap().row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(a.slice_cols(1, 2).unwrap().data(), &[2.0, 5.0, 8.0]);
        assert!(a.slice_rows(2, 4).is_err());
        assert!(a.slice_cols(3, 2).is_err());
    }

    #[test]
    fn take_rows_gathers() {
        let a = t22();
        let g = a.take_rows(&[1, 1, 0]).unwrap();
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[1.0, 2.0]);
        assert!(a.take_rows(&[2]).is_err());
    }
}
