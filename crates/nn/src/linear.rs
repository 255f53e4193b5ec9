//! Affine layers and the two-layer feed-forward block used inside the KVRL
//! attention stack.

use crate::{ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_tensor::{matmul_into, matmul_packed_into, KvecRng, Panels, Tensor};

/// A dense affine layer `y = x W + b`.
///
/// `x` is `batch x in_dim`; the weight is stored `in_dim x out_dim` so the
/// forward pass is a plain matmul over contiguous rows.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a Xavier-initialized affine layer with bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut KvecRng,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            Tensor::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Self {
            w,
            b: Some(b),
            in_dim,
            out_dim,
        }
    }

    /// Creates a bias-free projection (the paper's `W_q/W_k/W_v` are pure
    /// linear maps).
    pub fn new_no_bias(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut KvecRng,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            Tensor::xavier_uniform(in_dim, out_dim, rng),
        );
        Self {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to a `batch x in_dim` input.
    pub fn forward<'s>(&self, sess: &'s Session, store: &ParamStore, x: Var<'s>) -> Var<'s> {
        debug_assert_eq!(x.shape().1, self.in_dim, "Linear input width mismatch");
        let w = sess.param(store, self.w);
        let y = x.matmul(w);
        match self.b {
            Some(b) => y.add_row_broadcast(sess.param(store, b)),
            None => y,
        }
    }

    /// Tape-free application for inference paths: `y = x W + b` on plain
    /// tensors — [`Self::apply_into`] into a fresh `rows x out_dim` tensor.
    pub fn apply(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.in_dim, "Linear input width mismatch");
        let mut y = Tensor::zeros(x.rows(), self.out_dim);
        self.apply_into(store, x.data(), y.data_mut());
        y
    }

    /// `out = x W + b` for row-major `x` (`rows x in_dim`) into a caller
    /// slice (`rows x out_dim`), with [`Tensor::matmul`]'s dispatch and bits
    /// and then the bias added to each row: the same values the taped
    /// [`Self::forward`] computes, without an allocation.
    pub fn apply_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        self.apply_with(store, None, x, out);
    }

    /// The weight packed once ([`Panels::nn`]) for many products while
    /// `store` is unchanged.
    pub fn panels(&self, store: &ParamStore) -> Panels {
        Panels::nn(store.value(self.w))
    }

    /// [`Self::apply_into`], on the weight's [`Self::panels`] when given:
    /// the same bits, without packing the weight again.
    pub(crate) fn apply_with(
        &self,
        store: &ParamStore,
        panels: Option<&Panels>,
        x: &[f32],
        out: &mut [f32],
    ) {
        let w = store.value(self.w);
        match panels {
            Some(panels) => matmul_packed_into(x, w, panels, out),
            None => matmul_into(x, w, out),
        }
        if let Some(b) = self.b {
            let bias = store.value(b).data();
            for row in out.chunks_exact_mut(self.out_dim) {
                for (o, &v) in row.iter_mut().zip(bias) {
                    *o += v;
                }
            }
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Parameter ids of this layer (weight first).
    pub fn param_ids(&self) -> Vec<ParamId> {
        match self.b {
            Some(b) => vec![self.w, b],
            None => vec![self.w],
        }
    }
}

/// The position-wise feed-forward network of an attention block:
/// `FFN(x) = ReLU(x W1 + b1) W2 + b2` (paper Section IV-B).
#[derive(Debug, Clone)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
}

impl FeedForward {
    /// Creates the block with hidden width `d_ff`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        d_ff: usize,
        rng: &mut KvecRng,
    ) -> Self {
        Self {
            lin1: Linear::new(store, &format!("{name}.lin1"), d_model, d_ff, rng),
            lin2: Linear::new(store, &format!("{name}.lin2"), d_ff, d_model, rng),
        }
    }

    /// Applies the block row-wise to a `T x d_model` input.
    pub fn forward<'s>(&self, sess: &'s Session, store: &ParamStore, x: Var<'s>) -> Var<'s> {
        let h = self.lin1.forward(sess, store, x).relu();
        self.lin2.forward(sess, store, h)
    }

    /// Tape-free application for inference paths: `out = ReLU(x W1 + b1)
    /// W2 + b2` for row-major `x` into caller slices. `hidden` (`rows x
    /// d_ff`) receives the activations, `out` (`rows x d_model`) the
    /// result — [`Self::forward`]'s values without an allocation. With
    /// `panels` ([`Self::panels`]) the weights are not packed again.
    pub fn apply_into(
        &self,
        store: &ParamStore,
        panels: Option<&[Panels; 2]>,
        x: &[f32],
        hidden: &mut [f32],
        out: &mut [f32],
    ) {
        self.lin1
            .apply_with(store, panels.map(|p| &p[0]), x, hidden);
        for h in hidden.iter_mut() {
            *h = h.max(0.0);
        }
        self.lin2
            .apply_with(store, panels.map(|p| &p[1]), hidden, out);
    }

    /// Both weights packed once, for [`Self::apply_into`].
    pub fn panels(&self, store: &ParamStore) -> [Panels; 2] {
        [self.lin1.panels(store), self.lin2.panels(store)]
    }

    /// Hidden width `d_ff`.
    pub fn hidden_dim(&self) -> usize {
        self.lin1.out_dim
    }

    /// Parameter ids of both affine layers.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.lin1.param_ids();
        ids.extend(self.lin2.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        assert_eq!(lin.param_ids().len(), 2);

        let sess = Session::new();
        let x = sess.input(Tensor::ones(4, 3));
        let y = lin.forward(&sess, &store, x);
        assert_eq!(y.shape(), (4, 2));
    }

    #[test]
    fn linear_computes_affine_map() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(2);
        let lin = Linear::new(&mut store, "l", 2, 1, &mut rng);
        // Overwrite with known weights.
        *store.value_mut(lin.param_ids()[0]) = Tensor::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        *store.value_mut(lin.param_ids()[1]) = Tensor::row_vector(&[0.5]);

        let sess = Session::new();
        let x = sess.input(Tensor::row_vector(&[3.0, 4.0]));
        let y = lin.forward(&sess, &store, x);
        assert!((y.value().item() - 11.5).abs() < 1e-6);
    }

    #[test]
    fn no_bias_variant_has_single_param() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let lin = Linear::new_no_bias(&mut store, "p", 4, 4, &mut rng);
        assert_eq!(lin.param_ids().len(), 1);
    }

    #[test]
    fn linear_gradients_flow_to_params() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let lin = Linear::new(&mut store, "l", 2, 2, &mut rng);
        let sess = Session::new();
        let x = sess.input(Tensor::row_vector(&[1.0, -1.0]));
        let loss = lin.forward(&sess, &store, x).square().sum_all();
        sess.backward(loss);
        sess.accumulate_grads(&mut store);
        let gw = store.grad(lin.param_ids()[0]);
        assert!(gw.frobenius_norm() > 0.0);
    }

    #[test]
    fn feed_forward_round_trip_and_nonlinearity() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(5);
        let ffn = FeedForward::new(&mut store, "ffn", 4, 8, &mut rng);
        assert_eq!(ffn.param_ids().len(), 4);

        let sess = Session::new();
        let x = sess.input(Tensor::ones(3, 4));
        let y = ffn.forward(&sess, &store, x);
        assert_eq!(y.shape(), (3, 4));
        // Equal input rows produce equal output rows (position-wise map).
        let v = y.value();
        assert_eq!(v.row(0), v.row(1));
        assert_eq!(v.row(1), v.row(2));
    }
}
