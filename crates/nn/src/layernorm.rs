//! Layer normalization.

use crate::{ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_tensor::Tensor;

/// Row-wise layer normalization with learnable gain and bias:
/// `y = gamma (.) (x - mean) / sqrt(var + eps) + beta`.
///
/// The paper's formulas omit normalization; the `KvecConfig`
/// `use_layer_norm` switch makes it available as the standard stabilizer
/// for deeper attention stacks (6 blocks on the traffic datasets).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer with unit gain and zero bias.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        Self {
            gamma: store.add(format!("{name}.gamma"), Tensor::ones(1, dim)),
            beta: store.add(format!("{name}.beta"), Tensor::zeros(1, dim)),
            dim,
            eps: 1e-5,
        }
    }

    /// Applies the layer row-wise to a `T x dim` input.
    pub fn forward<'s>(&self, sess: &'s Session, store: &ParamStore, x: Var<'s>) -> Var<'s> {
        debug_assert_eq!(x.shape().1, self.dim, "LayerNorm width mismatch");
        x.layer_norm_rows(self.eps)
            .mul_row_broadcast(sess.param(store, self.gamma))
            .add_row_broadcast(sess.param(store, self.beta))
    }

    /// Tape-free application for inference paths: [`Self::apply_in_place`]
    /// on a copy.
    pub fn apply(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.dim, "LayerNorm width mismatch");
        let mut out = x.clone();
        self.apply_in_place(store, out.data_mut());
        out
    }

    /// Normalizes each `dim`-wide row of row-major `x` in place.
    pub fn apply_in_place(&self, store: &ParamStore, x: &mut [f32]) {
        let gamma = store.value(self.gamma);
        let beta = store.value(self.beta);
        let n = self.dim as f32;
        for row in x.chunks_exact_mut(self.dim) {
            let mu = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|v| (v - mu).powi(2)).sum::<f32>() / n;
            let inv = 1.0 / (var + self.eps).sqrt();
            for ((v, g), b) in row.iter_mut().zip(gamma.data()).zip(beta.data()) {
                *v = (*v - mu) * inv * g + b;
            }
        }
    }

    /// Normalized width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Parameter ids (gain, bias).
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.gamma, self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_tensor::KvecRng;

    #[test]
    fn fresh_layer_standardizes_rows() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let sess = Session::new();
        let x = sess.input(Tensor::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]).unwrap());
        let y = ln.forward(&sess, &store, x).value();
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row(0).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn tape_and_tensor_paths_agree() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 5);
        // Non-trivial gain/bias.
        let ids = ln.param_ids();
        *store.value_mut(ids[0]) = Tensor::row_vector(&[1.0, 2.0, 0.5, -1.0, 3.0]);
        *store.value_mut(ids[1]) = Tensor::row_vector(&[0.1, -0.2, 0.0, 1.0, -1.0]);

        let mut rng = KvecRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(3, 5, -2.0, 2.0, &mut rng);
        let sess = Session::new();
        let xv = sess.input(x.clone());
        let tape = ln.forward(&sess, &store, xv).value();
        let tensor = ln.apply(&store, &x);
        assert!(tape.allclose(&tensor, 1e-5));
    }

    #[test]
    fn gradients_reach_gain_and_bias() {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 3);
        let sess = Session::new();
        let mut rng = KvecRng::seed_from_u64(2);
        let x = sess.input(Tensor::rand_uniform(2, 3, -1.0, 1.0, &mut rng));
        sess.backward(ln.forward(&sess, &store, x).square().sum_all());
        sess.accumulate_grads(&mut store);
        for id in ln.param_ids() {
            assert!(store.grad(id).frobenius_norm() > 0.0, "{}", store.name(id));
        }
    }

    #[test]
    fn scale_invariance_of_the_normalization() {
        // LayerNorm(c * x) == LayerNorm(x) for c > 0 (up to eps effects).
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut rng = KvecRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(2, 4, -1.0, 1.0, &mut rng);
        let a = ln.apply(&store, &x);
        let b = ln.apply(&store, &x.scale(10.0));
        assert!(a.allclose(&b, 1e-3));
    }
}
