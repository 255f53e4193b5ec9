//! The classification network (paper Section IV-D): one fully-connected
//! layer followed by softmax over the `C` classes.

use kvec_autograd::Var;
use kvec_nn::{Linear, ParamId, ParamStore, Session};
use kvec_tensor::{KvecRng, Tensor};

/// Linear-softmax classifier over sequence representations.
#[derive(Clone)]
pub struct Classifier {
    head: Linear,
}

impl Classifier {
    /// Creates the classifier over `d_model`-wide states, its head's
    /// parameters named `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        num_classes: usize,
        rng: &mut KvecRng,
    ) -> Self {
        Self {
            head: Linear::new(store, name, d_model, num_classes, rng),
        }
    }

    /// Class logits of a representation (`1 x d -> 1 x C`); softmax is
    /// folded into the loss / prediction.
    pub fn logits<'s>(&self, sess: &'s Session, store: &ParamStore, s: Var<'s>) -> Var<'s> {
        self.head.forward(sess, store, s)
    }

    /// Tape-free prediction: `(argmax class, class probabilities)`.
    pub fn predict(&self, store: &ParamStore, s: &Tensor) -> (usize, Tensor) {
        let logits = self.head.apply(store, s);
        let probs = logits.softmax_rows();
        (probs.argmax_row(0), probs)
    }

    /// Parameter ids of the head.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.head.param_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 16;

    fn make() -> (Classifier, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let clf = Classifier::new(&mut store, "classifier", D, 3, &mut rng);
        (clf, store)
    }

    #[test]
    fn logits_shape() {
        let (clf, store) = make();
        let sess = Session::new();
        let s = sess.input(Tensor::ones(1, D));
        assert_eq!(clf.logits(&sess, &store, s).shape(), (1, 3));
    }

    #[test]
    fn predict_probabilities_sum_to_one() {
        let (clf, store) = make();
        let mut rng = KvecRng::seed_from_u64(2);
        let s = Tensor::rand_uniform(1, D, -1.0, 1.0, &mut rng);
        let (pred, probs) = clf.predict(&store, &s);
        assert!(pred < 3);
        assert!((probs.sum() - 1.0).abs() < 1e-5);
        assert_eq!(probs.argmax_row(0), pred);
    }

    /// The taped logits' softmax is `predict`'s probabilities, bit for
    /// bit: training and evaluation classify the same state alike.
    #[test]
    fn tape_and_tensor_paths_agree() {
        let (clf, store) = make();
        let mut rng = KvecRng::seed_from_u64(3);
        let s = Tensor::rand_uniform(1, D, -1.0, 1.0, &mut rng);
        let sess = Session::new();
        let sv = sess.input(s.clone());
        let tape_probs = clf.logits(&sess, &store, sv).value().softmax_rows();
        let (pred, probs) = clf.predict(&store, &s);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tape_probs), bits(&probs));
        assert_eq!(tape_probs.argmax_row(0), pred);
    }
}
