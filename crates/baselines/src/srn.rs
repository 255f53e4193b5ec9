//! SRN: the per-sequence transformer representation network used by the
//! SRN-* baselines — the paper's ablation of KVEC's cross-sequence
//! correlations ("learn a representation for each key-value sequence
//! independently").

use crate::BaselineConfig;
use kvec_autograd::Var;
use kvec_nn::{causal_mask, AttentionBlock, Embedding, ParamId, ParamStore, Session, Visible};
use kvec_tensor::{KvecRng, Tensor};

/// Per-sequence transformer encoder: value embeddings + positional
/// embeddings through causal self-attention restricted to the sequence
/// itself.
pub struct SrnEncoder {
    field_tables: Vec<Embedding>,
    positions: Embedding,
    blocks: Vec<AttentionBlock>,
    max_rel_pos: usize,
}

impl SrnEncoder {
    /// Creates the encoder.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cfg: &BaselineConfig,
        rng: &mut KvecRng,
    ) -> Self {
        let field_tables = cfg
            .field_cardinalities
            .iter()
            .enumerate()
            .map(|(f, &card)| {
                Embedding::new(store, &format!("{name}.field{f}"), card, cfg.d_model, rng)
            })
            .collect();
        let positions = Embedding::new(
            store,
            &format!("{name}.pos"),
            cfg.max_rel_pos,
            cfg.d_model,
            rng,
        );
        let blocks = (0..cfg.n_blocks)
            .map(|b| {
                AttentionBlock::new(
                    store,
                    &format!("{name}.block{b}"),
                    cfg.d_model,
                    cfg.d_ff,
                    cfg.dropout,
                    true,
                    rng,
                )
            })
            .collect();
        Self {
            field_tables,
            positions,
            blocks,
            max_rel_pos: cfg.max_rel_pos,
        }
    }

    /// Encodes one independent sequence, returning the refined embeddings
    /// (`len x d`). Row `i` only depends on items `0..=i` (causal), so it
    /// is the sequence representation after observing `i + 1` items.
    pub fn encode<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        values: &[Vec<u32>],
        mut rng: Option<&mut KvecRng>,
    ) -> Var<'s> {
        assert!(!values.is_empty(), "cannot encode an empty sequence");
        let mut e: Option<Var<'s>> = None;
        for (f, table) in self.field_tables.iter().enumerate() {
            let ids: Vec<usize> = values.iter().map(|v| v[f] as usize).collect();
            let emb = table.forward(sess, store, &ids);
            e = Some(match e {
                Some(acc) => acc.add(emb),
                None => emb,
            });
        }
        let pos_ids: Vec<usize> = (0..values.len())
            .map(|i| i.min(self.max_rel_pos - 1))
            .collect();
        let mut e = e
            .expect("at least one field")
            .add(self.positions.forward(sess, store, &pos_ids));

        let mask = causal_mask(values.len());
        for block in &self.blocks {
            e = block.forward(sess, store, e, Visible::Mask(&mask), rng.as_deref_mut());
        }
        e
    }

    /// [`Self::encode`] without dropout, as a plain tensor — used at
    /// evaluation time.
    pub fn encode_tensor(&self, store: &ParamStore, values: &[Vec<u32>]) -> Tensor {
        let sess = Session::new();
        self.encode(&sess, store, values, None).value()
    }

    /// All trainable parameter ids.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids: Vec<ParamId> = self
            .field_tables
            .iter()
            .flat_map(Embedding::param_ids)
            .collect();
        ids.extend(self.positions.param_ids());
        for b in &self.blocks {
            ids.extend(b.param_ids());
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_data::ValueSchema;

    fn cfg() -> BaselineConfig {
        let schema = ValueSchema::new(vec!["a".into(), "b".into()], vec![2, 4], 0);
        BaselineConfig::tiny(&schema, 2)
    }

    fn values(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| vec![(i % 2) as u32, (i % 4) as u32])
            .collect()
    }

    #[test]
    fn encode_shape() {
        let c = cfg();
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let enc = SrnEncoder::new(&mut store, "srn", &c, &mut rng);
        let sess = Session::new();
        let e = enc.encode(&sess, &store, &values(5), None);
        assert_eq!(e.shape(), (5, c.d_model));
    }

    #[test]
    fn causal_prefix_consistency() {
        // Row i of the full encoding equals the last row of the prefix
        // encoding of length i+1.
        let c = cfg();
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(2);
        let enc = SrnEncoder::new(&mut store, "srn", &c, &mut rng);
        let vals = values(6);
        let sess = Session::new();
        let full = enc.encode(&sess, &store, &vals, None).value();
        for i in 0..6 {
            let prefix = enc.encode_tensor(&store, &vals[..=i]).row_tensor(i);
            assert!(
                prefix.allclose(&full.row_tensor(i), 1e-4),
                "prefix {i} diverges"
            );
        }
    }

    #[test]
    fn gradients_reach_encoder_params() {
        let c = cfg();
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let enc = SrnEncoder::new(&mut store, "srn", &c, &mut rng);
        let sess = Session::new();
        let e = enc.encode(&sess, &store, &values(4), None);
        sess.backward(e.square().sum_all());
        sess.accumulate_grads(&mut store);
        let with_grad = enc
            .param_ids()
            .iter()
            .filter(|&&id| store.grad(id).frobenius_norm() > 0.0)
            .count();
        assert!(with_grad > enc.param_ids().len() / 2);
    }
}
