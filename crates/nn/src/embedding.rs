//! Lookup-table embeddings.

use crate::{ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_tensor::{KvecRng, Tensor};

/// A `vocab x dim` embedding table with gather-based lookup.
///
/// KVEC uses four of these per model: value-field embeddings, hashed
/// membership embeddings, relative-position embeddings and arrival-time
/// embeddings (paper Section IV-B, "Input Embedding"). Out-of-range ids are
/// the caller's responsibility — the KVEC embedding module clips or hashes
/// before lookup.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates a normally-initialized table (`std = 0.02`, the usual
    /// transformer embedding init).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut KvecRng,
    ) -> Self {
        let table = store.add(
            format!("{name}.table"),
            Tensor::rand_normal(vocab, dim, 0.0, 0.02, rng),
        );
        Self { table, vocab, dim }
    }

    /// Looks up a batch of ids, returning an `ids.len() x dim` matrix.
    /// Panics if any id is out of range.
    pub fn forward<'s>(&self, sess: &'s Session, store: &ParamStore, ids: &[usize]) -> Var<'s> {
        for &id in ids {
            assert!(
                id < self.vocab,
                "embedding id {id} out of range (vocab {})",
                self.vocab
            );
        }
        sess.param(store, self.table).gather_rows(ids)
    }

    /// Tape-free lookup for inference paths.
    pub fn lookup(&self, store: &ParamStore, ids: &[usize]) -> Tensor {
        store
            .value(self.table)
            .take_rows(ids)
            .expect("embedding lookup")
    }

    /// The embedding row of one id, borrowed from the table: what
    /// [`Self::lookup`] copies out for that id. Panics on an
    /// out-of-range id.
    pub fn row<'a>(&self, store: &'a ParamStore, id: usize) -> &'a [f32] {
        store.value(self.table).row(id)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The table's parameter id.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.table]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_shapes_and_values() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let emb = Embedding::new(&mut store, "e", 5, 3, &mut rng);
        let sess = Session::new();
        let out = emb.forward(&sess, &store, &[0, 4, 0]);
        assert_eq!(out.shape(), (3, 3));
        let v = out.value();
        assert_eq!(v.row(0), v.row(2), "same id gives same vector");
        assert_ne!(v.row(0), v.row(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(2);
        let emb = Embedding::new(&mut store, "e", 2, 2, &mut rng);
        let sess = Session::new();
        let _ = emb.forward(&sess, &store, &[2]);
    }

    #[test]
    fn repeated_lookup_accumulates_gradient() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let emb = Embedding::new(&mut store, "e", 3, 2, &mut rng);
        let sess = Session::new();
        let out = emb.forward(&sess, &store, &[1, 1]);
        let loss = out.sum_all();
        sess.backward(loss);
        sess.accumulate_grads(&mut store);
        let g = store.grad(emb.param_ids()[0]);
        assert_eq!(g.row(0), &[0.0, 0.0]);
        assert_eq!(g.row(1), &[2.0, 2.0], "row 1 gathered twice");
        assert_eq!(g.row(2), &[0.0, 0.0]);
    }
}
