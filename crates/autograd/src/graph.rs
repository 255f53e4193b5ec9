//! The autodiff tape: node arena, op enum, forward construction and the
//! reverse sweep.
//!
//! The sweep walks the arena once, last node first, and costs what its
//! products cost — it neither clones nor materializes:
//!
//! - a node's op and value are borrowed in place while its rule writes the
//!   parents (the arena is split at the node; parents always sit below it);
//! - the node's gradient is *consumed*: elementwise rules rewrite that
//!   buffer and hand it on to the parent, and an interior node keeps no
//!   gradient once it is propagated — only leaves do (see [`Graph::grad`]);
//! - a rule that reaches part of its parent (`slice_rows`/`slice_cols`/
//!   `gather_rows`/`pick`) adds just those elements into the parent's
//!   accumulator, which is allocated zeroed the first time anything
//!   touches it; a one-row `matmul` gradient adds its outer product into
//!   the weight's accumulator row by row;
//! - one sweep per tape, enforced: the rules accumulate, so a second sweep
//!   would double-count.

use crate::Var;
use kvec_tensor::{simd, Axis, Tensor};
use std::cell::{Cell, RefCell};

/// Identifier of a node inside a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// The differentiable operations the tape understands.
///
/// Each variant stores the arena indices of its parents plus whatever
/// constant data the backward rule needs. Constants (masks, dropout
/// patterns, gather indices) are *not* differentiated through.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input or parameter; gradient accumulates here and the sweep stops.
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    Neg(usize),
    Scale(usize, f32),
    AddScalarC(usize),
    MatMul(usize, usize),
    /// `A * B^T` for `A (m x k)`, `B (n x k)`: attention scores without a
    /// transpose node.
    MatMulNt(usize, usize),
    Transpose(usize),
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    /// `ln(1 + e^x)`, used for numerically stable `log sigmoid` terms in the
    /// halting-policy losses.
    Softplus(usize),
    Ln(usize),
    Square(usize),
    /// Row-wise softmax (the additive mask, if any, was applied during
    /// forward construction and is constant).
    SoftmaxRows(usize),
    LogSoftmaxRows(usize),
    /// Gather rows of the parent by constant indices (embedding lookup).
    GatherRows(usize, Vec<usize>),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    SliceRows(usize, usize, usize),
    SliceCols(usize, usize, usize),
    /// Matrix plus a broadcast `1 x n` bias row.
    AddRowBroadcast(usize, usize),
    /// Matrix times a broadcast `1 x n` scale row (layer-norm gain).
    MulRowBroadcast(usize, usize),
    /// Row-wise standardization `(x - mean) / sqrt(var + eps)`.
    LayerNormRows(usize, f32),
    SumAll(usize),
    MeanAll(usize),
    /// Elementwise product with a constant tensor (dropout masks and
    /// stop-gradient style reweighting).
    MulConst(usize, Tensor),
    /// Extract a single element as a `1 x 1` tensor.
    Pick(usize, usize, usize),
}

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
}

/// A reverse-mode autodiff tape.
///
/// Interior mutability lets [`Var`] handles (which are `Copy` and borrow the
/// graph immutably) build the tape with ordinary method-call syntax.
pub struct Graph {
    pub(crate) nodes: RefCell<Vec<Node>>,
    /// Set by the reverse sweep, which may run only once per tape.
    swept: Cell<bool>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::with_capacity(256)),
            swept: Cell::new(false),
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&self, value: Tensor, op: Op) -> VarId {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            op,
        });
        VarId(nodes.len() - 1)
    }

    /// Records a leaf (input or parameter) and returns its handle.
    pub fn leaf(&self, value: Tensor) -> Var<'_> {
        let id = self.push(value, Op::Leaf);
        Var { graph: self, id }
    }

    /// Returns the handle for an existing node id.
    pub fn var(&self, id: VarId) -> Var<'_> {
        assert!(id.0 < self.len(), "VarId {} out of range", id.0);
        Var { graph: self, id }
    }

    /// Clones the value of a node.
    pub fn value(&self, v: Var<'_>) -> Tensor {
        self.nodes.borrow()[v.id.0].value.clone()
    }

    /// Applies `f` to the value of a node without cloning.
    pub fn with_value<R>(&self, v: Var<'_>, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.id.0].value)
    }

    /// Clones the accumulated gradient of a leaf, if the reverse sweep
    /// reached it. Interior nodes answer `None` after the sweep as before
    /// it: their gradients are consumed as they are propagated.
    pub fn grad(&self, v: Var<'_>) -> Option<Tensor> {
        self.nodes.borrow()[v.id.0].grad.clone()
    }

    /// Runs the reverse sweep from a scalar (`1 x 1`) output, seeding its
    /// gradient with 1.
    ///
    /// The sweep runs at most once per tape (a second call panics): backward
    /// rules accumulate into the gradients the first sweep left, so a second
    /// one would double-count them. Build a combined loss node instead when
    /// several objectives share the tape.
    pub fn backward(&self, output: Var<'_>) {
        let shape = self.with_value(output, Tensor::shape);
        assert_eq!(
            shape,
            (1, 1),
            "backward() requires a scalar output, got {shape:?}"
        );
        self.backward_with(output, Tensor::scalar(1.0));
    }

    /// Runs the reverse sweep seeding the output gradient with `seed`.
    /// Like [`Graph::backward`], at most once per tape.
    pub fn backward_with(&self, output: Var<'_>, seed: Tensor) {
        assert!(
            !self.swept.replace(true),
            "the reverse sweep runs at most once per tape: a second backward() would \
             double-count into the gradients of the first"
        );
        let mut nodes = self.nodes.borrow_mut();
        assert_eq!(
            nodes[output.id.0].value.shape(),
            seed.shape(),
            "backward seed shape mismatch"
        );
        nodes[output.id.0].grad = Some(seed);
        for i in (0..=output.id.0).rev() {
            // A rule reads this node and writes only its parents, which all
            // sit below `i` on the tape: split the arena there so the node
            // is borrowed, not cloned, while its parents are mutable.
            let (parents, rest) = nodes.split_at_mut(i);
            let node = &mut rest[0];
            if matches!(node.op, Op::Leaf) {
                continue; // the gradient stays here for `Graph::grad`
            }
            // Nothing reads an interior gradient once it is propagated:
            // release it now, so its buffer is recycled within the sweep.
            if let Some(grad) = node.grad.take() {
                Self::propagate(parents, &node.op, &node.value, grad);
            }
        }
    }

    /// Adds an owned contribution to `parent`'s gradient (moved in on first
    /// touch).
    fn accum(nodes: &mut [Node], parent: usize, contrib: Tensor) {
        match &mut nodes[parent].grad {
            Some(g) => g.add_assign(&contrib),
            slot => *slot = Some(contrib),
        }
    }

    /// Adds a borrowed contribution to `parent`'s gradient, cloning it only
    /// on first touch.
    fn accum_ref(nodes: &mut [Node], parent: usize, contrib: &Tensor) {
        match &mut nodes[parent].grad {
            Some(g) => g.add_assign(contrib),
            slot => *slot = Some(contrib.clone()),
        }
    }

    /// Hands `scatter` the gradient accumulator of `parent` — allocated
    /// zeroed on first touch — and read access to every node, so a rule
    /// that reaches only part of its parent adds just those elements.
    fn accum_into(nodes: &mut [Node], parent: usize, scatter: impl FnOnce(&mut Tensor, &[Node])) {
        let mut acc = nodes[parent].grad.take().unwrap_or_else(|| {
            let (rows, cols) = nodes[parent].value.shape();
            Tensor::zeros(rows, cols)
        });
        scatter(&mut acc, nodes);
        nodes[parent].grad = Some(acc);
    }

    /// Applies one node's backward rule, accumulating into its parents. The
    /// node's gradient is consumed: elementwise rules rewrite it in place
    /// and hand the same buffer on to the parent.
    fn propagate(nodes: &mut [Node], op: &Op, value: &Tensor, mut grad: Tensor) {
        match op {
            Op::Leaf => unreachable!("the sweep skips leaves"),
            Op::Add(a, b) => {
                Self::accum_ref(nodes, *a, &grad);
                Self::accum(nodes, *b, grad);
            }
            Op::Sub(a, b) => {
                Self::accum_ref(nodes, *a, &grad);
                grad.scale_assign(-1.0);
                Self::accum(nodes, *b, grad);
            }
            Op::Hadamard(a, b) => {
                let gb = grad.hadamard(&nodes[*a].value);
                let ga = zip_with(grad, &nodes[*b].value, |g, v| g * v);
                Self::accum(nodes, *a, ga);
                Self::accum(nodes, *b, gb);
            }
            Op::Neg(a) => {
                grad.scale_assign(-1.0);
                Self::accum(nodes, *a, grad);
            }
            Op::Scale(a, c) => {
                grad.scale_assign(*c);
                Self::accum(nodes, *a, grad);
            }
            Op::AddScalarC(a) => Self::accum(nodes, *a, grad),
            Op::MatMul(a, b) => {
                // y = A B  =>  dA = g B^T, dB = A^T g
                let ga = grad.matmul_nt(&nodes[*b].value).expect("matmul bwd a");
                Self::accum(nodes, *a, ga);
                if grad.rows() == 1 {
                    // A^T g is the outer product of two rows: add it to dB
                    // row by row instead of materializing it.
                    let path = simd::active_path();
                    Self::accum_into(nodes, *b, |gb, nodes| {
                        for (p, &a_p) in nodes[*a].value.data().iter().enumerate() {
                            simd::axpy_on(path, gb.row_mut(p), a_p, grad.data());
                        }
                    });
                } else {
                    let gb = nodes[*a].value.matmul_tn(&grad).expect("matmul bwd b");
                    Self::accum(nodes, *b, gb);
                }
            }
            Op::MatMulNt(a, b) => {
                // y = A B^T  =>  dA = g B, dB = g^T A
                let ga = grad.matmul(&nodes[*b].value);
                let gb = grad.matmul_tn(&nodes[*a].value).expect("matmul_nt bwd b");
                Self::accum(nodes, *a, ga);
                Self::accum(nodes, *b, gb);
            }
            Op::Transpose(a) => Self::accum(nodes, *a, grad.transpose()),
            Op::Sigmoid(a) => {
                // y' = y (1 - y)
                let g = zip_with(grad, value, |g, y| g * y * (1.0 - y));
                Self::accum(nodes, *a, g);
            }
            Op::Tanh(a) => {
                let g = zip_with(grad, value, |g, y| g * (1.0 - y * y));
                Self::accum(nodes, *a, g);
            }
            Op::Relu(a) => {
                let g = zip_with(grad, value, |g, y| if y > 0.0 { g } else { 0.0 });
                Self::accum(nodes, *a, g);
            }
            Op::Softplus(a) => {
                // d/dx ln(1+e^x) = sigmoid(x); recover sigmoid from the
                // output: sigma = 1 - e^{-y}.
                let g = zip_with(grad, value, |g, y| g * (1.0 - (-y).exp()));
                Self::accum(nodes, *a, g);
            }
            Op::Ln(a) => {
                let g = zip_with(grad, &nodes[*a].value, |g, x| g / x);
                Self::accum(nodes, *a, g);
            }
            Op::Square(a) => {
                let g = zip_with(grad, &nodes[*a].value, |g, x| 2.0 * g * x);
                Self::accum(nodes, *a, g);
            }
            Op::SoftmaxRows(a) => {
                // dx_i = y_i * (g_i - sum_j g_j y_j), row-wise.
                let mut out = zip_with(grad, value, |g, y| g * y);
                let row_dot = out.sum_axis(Axis::Cols); // rows x 1
                for r in 0..out.rows() {
                    let d = row_dot.data()[r];
                    for (o, y) in out.row_mut(r).iter_mut().zip(value.row(r)) {
                        // o currently holds g*y; subtract y*d.
                        *o -= y * d;
                    }
                }
                Self::accum(nodes, *a, out);
            }
            Op::LogSoftmaxRows(a) => {
                // dx = g - softmax(x) * rowsum(g); softmax = exp(output).
                let row_sum = grad.sum_axis(Axis::Cols);
                for r in 0..grad.rows() {
                    let s = row_sum.data()[r];
                    for (o, y) in grad.row_mut(r).iter_mut().zip(value.row(r)) {
                        *o -= y.exp() * s;
                    }
                }
                Self::accum(nodes, *a, grad);
            }
            Op::GatherRows(a, indices) => Self::accum_into(nodes, *a, |ga, _| {
                for (out_row, &src_row) in indices.iter().enumerate() {
                    add_to(ga.row_mut(src_row), grad.row(out_row));
                }
            }),
            Op::ConcatCols(a, b) => {
                let ca = nodes[*a].value.cols();
                let ga = grad.slice_cols(0, ca).expect("concat_cols bwd a");
                let gb = grad.slice_cols(ca, grad.cols()).expect("concat_cols bwd b");
                Self::accum(nodes, *a, ga);
                Self::accum(nodes, *b, gb);
            }
            Op::ConcatRows(a, b) => {
                let ra = nodes[*a].value.rows();
                let ga = grad.slice_rows(0, ra).expect("concat_rows bwd a");
                let gb = grad.slice_rows(ra, grad.rows()).expect("concat_rows bwd b");
                Self::accum(nodes, *a, ga);
                Self::accum(nodes, *b, gb);
            }
            Op::SliceRows(a, start, _end) => Self::accum_into(nodes, *a, |ga, _| {
                for r in 0..grad.rows() {
                    add_to(ga.row_mut(start + r), grad.row(r));
                }
            }),
            Op::SliceCols(a, start, end) => Self::accum_into(nodes, *a, |ga, _| {
                for r in 0..grad.rows() {
                    add_to(&mut ga.row_mut(r)[*start..*end], grad.row(r));
                }
            }),
            Op::AddRowBroadcast(a, bias) => {
                Self::accum(nodes, *bias, grad.sum_axis(Axis::Rows));
                Self::accum(nodes, *a, grad);
            }
            Op::MulRowBroadcast(a, scale) => {
                // y = a (.) tile(s): da = g (.) tile(s), ds = sum_rows(g (.) a)
                let gs = grad.hadamard(&nodes[*a].value).sum_axis(Axis::Rows);
                for r in 0..grad.rows() {
                    for (v, s) in grad.row_mut(r).iter_mut().zip(nodes[*scale].value.data()) {
                        *v *= s;
                    }
                }
                Self::accum(nodes, *a, grad);
                Self::accum(nodes, *scale, gs);
            }
            Op::LayerNormRows(a, eps) => {
                // Per row: xhat = (x - mu) / sigma, y == xhat (stored).
                // dx = (g - mean(g) - xhat * mean(g (.) xhat)) / sigma
                let x = &nodes[*a].value;
                let n = x.cols() as f32;
                for r in 0..x.rows() {
                    let row = x.row(r);
                    let mu = row.iter().sum::<f32>() / n;
                    let var = row.iter().map(|v| (v - mu).powi(2)).sum::<f32>() / n;
                    let sigma = (var + eps).sqrt();
                    let g_row = grad.row_mut(r);
                    let y_row = value.row(r);
                    let g_mean = g_row.iter().sum::<f32>() / n;
                    let gy_mean = g_row.iter().zip(y_row).map(|(g, y)| g * y).sum::<f32>() / n;
                    for (g, y) in g_row.iter_mut().zip(y_row) {
                        *g = (*g - g_mean - y * gy_mean) / sigma;
                    }
                }
                Self::accum(nodes, *a, grad);
            }
            Op::SumAll(a) => {
                let (r, c) = nodes[*a].value.shape();
                Self::accum(nodes, *a, Tensor::full(r, c, grad.item()));
            }
            Op::MeanAll(a) => {
                let (r, c) = nodes[*a].value.shape();
                let n = (r * c) as f32;
                Self::accum(nodes, *a, Tensor::full(r, c, grad.item() / n));
            }
            Op::MulConst(a, k) => {
                let g = zip_with(grad, k, |g, k| g * k);
                Self::accum(nodes, *a, g);
            }
            Op::Pick(a, r, c) => Self::accum_into(nodes, *a, |ga, _| ga[(*r, *c)] += grad.item()),
        }
    }
}

/// The owned gradient rewritten in place: `g[i] = f(g[i], other[i])`.
fn zip_with(mut grad: Tensor, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(grad.shape(), other.shape(), "backward rule shape mismatch");
    for (g, &o) in grad.data_mut().iter_mut().zip(other.data()) {
        *g = f(*g, o);
    }
    grad
}

/// `dst += src`, elementwise over two equal-length rows.
fn add_to(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        assert_eq!(g.value(x).data(), &[1.0, 2.0]);
        assert!(g.grad(x).is_none());
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn backward_requires_scalar() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(2, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.backward(x)));
        assert!(result.is_err());
    }

    #[test]
    fn add_backward_accumulates_to_both_parents() {
        let g = Graph::new();
        let a = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let b = g.leaf(Tensor::row_vector(&[3.0, 4.0]));
        let y = a.add(b).sum_all();
        g.backward(y);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 1.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // y = sum(x + x) => dy/dx = 2 everywhere.
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, -1.0]));
        let y = x.add(x).sum_all();
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn matmul_backward_shapes() {
        let g = Graph::new();
        let a = g.leaf(Tensor::ones(2, 3));
        let b = g.leaf(Tensor::ones(3, 4));
        let y = a.matmul(b).sum_all();
        g.backward(y);
        assert_eq!(g.grad(a).unwrap().shape(), (2, 3));
        assert_eq!(g.grad(b).unwrap().shape(), (3, 4));
        // d/dA sum(AB) = row sums of B^T = 4 everywhere (B is ones 3x4).
        assert!(g.grad(a).unwrap().allclose(&Tensor::full(2, 3, 4.0), 1e-6));
        assert!(g.grad(b).unwrap().allclose(&Tensor::full(3, 4, 2.0), 1e-6));
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let g = Graph::new();
        let table = g.leaf(Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap());
        let picked = table.gather_rows(&[0, 0, 1]);
        let y = picked.sum_all();
        g.backward(y);
        // Row 0 was gathered twice.
        assert_eq!(g.grad(table).unwrap().data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at most once per tape")]
    fn a_second_sweep_on_the_same_tape_panics() {
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let y = x.square().sum_all();
        g.backward(y);
        g.backward(y);
    }

    #[test]
    fn the_sweep_keeps_leaf_gradients_and_releases_interior_ones() {
        let g = Graph::new();
        let x = g.leaf(Tensor::row_vector(&[1.0, -2.0]));
        let mid = x.scale(3.0);
        let y = mid.square().sum_all();
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().data(), &[18.0, -36.0]);
        assert!(g.grad(mid).is_none(), "interior gradient kept");
        assert!(g.grad(y).is_none(), "output gradient kept");
        // Values are untouched by the sweep.
        assert_eq!(g.value(mid).data(), &[3.0, -6.0]);
    }

    #[test]
    fn custom_seed_scales_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(3.0));
        let y = x.scale(2.0);
        g.backward_with(y, Tensor::scalar(5.0));
        assert_eq!(g.grad(x).unwrap().item(), 10.0);
    }
}
