//! Ergonomic, `Copy` handles to tape nodes with method-call op builders.

use crate::graph::{Graph, Op, VarId};
use kvec_tensor::Tensor;

/// A handle to a node in a [`Graph`].
///
/// `Var` is `Copy`, so expressions read like plain math:
/// `let y = x.matmul(w).add_row_broadcast(b).relu();`
#[derive(Clone, Copy)]
pub struct Var<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) id: VarId,
}

impl<'g> Var<'g> {
    /// The arena id of this node.
    pub fn id(&self) -> VarId {
        self.id
    }

    /// Clones this node's value.
    pub fn value(&self) -> Tensor {
        self.graph.value(*self)
    }

    /// The `(rows, cols)` shape of this node's value.
    pub fn shape(&self) -> (usize, usize) {
        self.graph.with_value(*self, Tensor::shape)
    }

    fn same_graph(&self, other: Var<'g>) {
        assert!(
            std::ptr::eq(self.graph, other.graph),
            "vars belong to different graphs"
        );
    }

    fn unary(&self, value: Tensor, op: Op) -> Var<'g> {
        let id = self.graph.push(value, op);
        Var {
            graph: self.graph,
            id,
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self
            .graph
            .with_value(*self, |a| other.graph.with_value(other, |b| a.add(b)));
        self.unary(v, Op::Add(self.id.0, other.id.0))
    }

    /// Elementwise difference.
    pub fn sub(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self
            .graph
            .with_value(*self, |a| other.graph.with_value(other, |b| a.sub(b)));
        self.unary(v, Op::Sub(self.id.0, other.id.0))
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self
            .graph
            .with_value(*self, |a| other.graph.with_value(other, |b| a.hadamard(b)));
        self.unary(v, Op::Hadamard(self.id.0, other.id.0))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| a.scale(-1.0));
        self.unary(v, Op::Neg(self.id.0))
    }

    /// Multiplication by a scalar constant.
    pub fn scale(&self, c: f32) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| a.scale(c));
        self.unary(v, Op::Scale(self.id.0, c))
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&self, c: f32) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| a.add_scalar(c));
        self.unary(v, Op::AddScalarC(self.id.0))
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self
            .graph
            .with_value(*self, |a| other.graph.with_value(other, |b| a.matmul(b)));
        self.unary(v, Op::MatMul(self.id.0, other.id.0))
    }

    /// Matrix product with the transpose of `other`: `self (m x k) *
    /// other (n x k)^T`, without a transpose node in either direction.
    pub fn matmul_nt(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self.graph.with_value(*self, |a| {
            other
                .graph
                .with_value(other, |b| a.matmul_nt(b).expect("matmul_nt"))
        });
        self.unary(v, Op::MatMulNt(self.id.0, other.id.0))
    }

    /// Matrix transpose.
    pub fn t(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, Tensor::transpose);
        self.unary(v, Op::Transpose(self.id.0))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, Tensor::sigmoid);
        self.unary(v, Op::Sigmoid(self.id.0))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, Tensor::tanh);
        self.unary(v, Op::Tanh(self.id.0))
    }

    /// Elementwise ReLU.
    pub fn relu(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, Tensor::relu);
        self.unary(v, Op::Relu(self.id.0))
    }

    /// Elementwise numerically stable softplus `ln(1 + e^x)`.
    ///
    /// `(-z).softplus().neg()` is `log sigmoid(z)`, the stable form of the
    /// halting-policy log-probabilities.
    pub fn softplus(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| {
            a.map(|x| {
                if x > 20.0 {
                    // softplus(x) ~= x for large x; avoids exp overflow.
                    x
                } else {
                    (1.0 + x.exp()).ln()
                }
            })
        });
        self.unary(v, Op::Softplus(self.id.0))
    }

    /// Elementwise natural logarithm. The caller must keep inputs positive.
    pub fn ln(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| a.map(f32::ln));
        self.unary(v, Op::Ln(self.id.0))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| a.map(|x| x * x));
        self.unary(v, Op::Square(self.id.0))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, Tensor::softmax_rows);
        self.unary(v, Op::SoftmaxRows(self.id.0))
    }

    /// Row-wise softmax of `self + mask`, where `mask` is a constant tensor
    /// of `0` / `-inf` entries (the KVEC dynamic mask). The mask is not
    /// differentiated through.
    pub fn masked_softmax_rows(&self, mask: &Tensor) -> Var<'g> {
        let v = self
            .graph
            .with_value(*self, |a| a.masked_softmax_rows(mask));
        self.unary(v, Op::SoftmaxRows(self.id.0))
    }

    /// Row-wise log-softmax.
    pub fn log_softmax_rows(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, Tensor::log_softmax_rows);
        self.unary(v, Op::LogSoftmaxRows(self.id.0))
    }

    /// Gathers rows by constant indices (embedding lookup). Gradient
    /// scatter-adds back into the gathered rows.
    pub fn gather_rows(&self, indices: &[usize]) -> Var<'g> {
        let v = self
            .graph
            .with_value(*self, |a| a.take_rows(indices).expect("gather_rows"));
        self.unary(v, Op::GatherRows(self.id.0, indices.to_vec()))
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self.graph.with_value(*self, |a| {
            other.graph.with_value(other, |b| {
                Tensor::concat_cols(&[a, b]).expect("concat_cols")
            })
        });
        self.unary(v, Op::ConcatCols(self.id.0, other.id.0))
    }

    /// Vertical concatenation of `self` on top of `other`.
    pub fn concat_rows(&self, other: Var<'g>) -> Var<'g> {
        self.same_graph(other);
        let v = self.graph.with_value(*self, |a| {
            other.graph.with_value(other, |b| {
                Tensor::concat_rows(&[a, b]).expect("concat_rows")
            })
        });
        self.unary(v, Op::ConcatRows(self.id.0, other.id.0))
    }

    /// Copies rows `start..end` into a new node.
    pub fn slice_rows(&self, start: usize, end: usize) -> Var<'g> {
        let v = self
            .graph
            .with_value(*self, |a| a.slice_rows(start, end).expect("slice_rows"));
        self.unary(v, Op::SliceRows(self.id.0, start, end))
    }

    /// Selects a single row as a `1 x cols` node.
    pub fn row(&self, r: usize) -> Var<'g> {
        self.slice_rows(r, r + 1)
    }

    /// Copies columns `start..end` into a new node (head splitting in
    /// multi-head attention).
    pub fn slice_cols(&self, start: usize, end: usize) -> Var<'g> {
        let v = self
            .graph
            .with_value(*self, |a| a.slice_cols(start, end).expect("slice_cols"));
        self.unary(v, Op::SliceCols(self.id.0, start, end))
    }

    /// Multiplies every row of `self` elementwise by a broadcast `1 x n`
    /// scale row (the layer-norm gain).
    pub fn mul_row_broadcast(&self, scale: Var<'g>) -> Var<'g> {
        self.same_graph(scale);
        let v = self.graph.with_value(*self, |a| {
            scale.graph.with_value(scale, |s| {
                assert_eq!(s.rows(), 1, "scale must be a row vector");
                assert_eq!(s.cols(), a.cols(), "scale width mismatch");
                let mut out = a.clone();
                for r in 0..out.rows() {
                    for (v, k) in out.row_mut(r).iter_mut().zip(s.data()) {
                        *v *= k;
                    }
                }
                out
            })
        });
        self.unary(v, Op::MulRowBroadcast(self.id.0, scale.id.0))
    }

    /// Row-wise standardization `(x - mean) / sqrt(var + eps)` — the
    /// parameter-free core of layer normalization.
    pub fn layer_norm_rows(&self, eps: f32) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| {
            let n = a.cols() as f32;
            let mut out = a.clone();
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let mu = row.iter().sum::<f32>() / n;
                let var = row.iter().map(|v| (v - mu).powi(2)).sum::<f32>() / n;
                let inv = 1.0 / (var + eps).sqrt();
                for v in row.iter_mut() {
                    *v = (*v - mu) * inv;
                }
            }
            out
        });
        self.unary(v, Op::LayerNormRows(self.id.0, eps))
    }

    /// Adds a broadcast `1 x n` bias row to every row of `self`.
    pub fn add_row_broadcast(&self, bias: Var<'g>) -> Var<'g> {
        self.same_graph(bias);
        let v = self.graph.with_value(*self, |a| {
            bias.graph.with_value(bias, |b| a.add_row_broadcast(b))
        });
        self.unary(v, Op::AddRowBroadcast(self.id.0, bias.id.0))
    }

    /// Sum of every element, as a `1 x 1` node.
    pub fn sum_all(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| Tensor::scalar(a.sum()));
        self.unary(v, Op::SumAll(self.id.0))
    }

    /// Mean of every element, as a `1 x 1` node.
    pub fn mean_all(&self) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| Tensor::scalar(a.mean()));
        self.unary(v, Op::MeanAll(self.id.0))
    }

    /// Elementwise product with a constant tensor (e.g. an inverted dropout
    /// mask). The constant is not differentiated through.
    pub fn mul_const(&self, k: &Tensor) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| a.hadamard(k));
        self.unary(v, Op::MulConst(self.id.0, k.clone()))
    }

    /// Extracts element `(r, c)` as a `1 x 1` node.
    pub fn pick(&self, r: usize, c: usize) -> Var<'g> {
        let v = self.graph.with_value(*self, |a| Tensor::scalar(a[(r, c)]));
        self.unary(v, Op::Pick(self.id.0, r, c))
    }

    /// Cuts the gradient flow: returns a fresh leaf holding a copy of this
    /// node's value. Used to feed the representation into the value baseline
    /// without letting the baseline regression update the representation.
    pub fn detach(&self) -> Var<'g> {
        self.graph.leaf(self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn expression_chain_values() {
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, -2.0]));
        let y = x.relu().scale(3.0).sum_all();
        assert_eq!(y.value().item(), 3.0);
    }

    #[test]
    fn sub_neg_and_scalars() {
        let g = Graph::new();
        let a = g.leaf(Tensor::scalar(5.0));
        let b = g.leaf(Tensor::scalar(2.0));
        assert_eq!(a.sub(b).value().item(), 3.0);
        assert_eq!(a.neg().value().item(), -5.0);
        assert_eq!(a.add_scalar(1.5).value().item(), 6.5);
    }

    #[test]
    fn masked_softmax_matches_tensor_op() {
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0, 3.0]));
        let mask = Tensor::row_vector(&[0.0, f32::NEG_INFINITY, 0.0]);
        let s = x.masked_softmax_rows(&mask);
        assert_eq!(s.value()[(0, 1)], 0.0);
        assert!((s.value().sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let g = Graph::new();
        let a = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let b = g.leaf(Tensor::row_vector(&[3.0]));
        let cat = a.concat_cols(b);
        assert_eq!(cat.value().data(), &[1.0, 2.0, 3.0]);

        let m = g.leaf(Tensor::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap());
        assert_eq!(m.row(1).value().data(), &[2.0]);
        assert_eq!(m.slice_rows(1, 3).value().data(), &[2.0, 3.0]);
    }

    #[test]
    fn detach_blocks_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        let d = x.detach();
        let y = d.square().sum_all();
        g.backward(y);
        assert!(g.grad(x).is_none(), "gradient must not reach x via detach");
        assert_eq!(g.grad(d).unwrap().item(), 4.0);
    }

    #[test]
    fn pick_extracts_and_routes_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap());
        let p = x.pick(1, 0);
        assert_eq!(p.value().item(), 3.0);
        g.backward(p);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "different graphs")]
    fn cross_graph_ops_panic() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let a = g1.leaf(Tensor::scalar(1.0));
        let b = g2.leaf(Tensor::scalar(1.0));
        let _ = a.add(b);
    }

    #[test]
    fn softplus_is_stable_and_correct() {
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[-30.0, 0.0, 30.0]));
        let y = x.softplus().value();
        assert!(y[(0, 0)] >= 0.0 && y[(0, 0)] < 1e-9);
        assert!((y[(0, 1)] - 2.0f32.ln()).abs() < 1e-6);
        assert!((y[(0, 2)] - 30.0).abs() < 1e-4);
    }
}
