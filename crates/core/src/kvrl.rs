//! KVRL: the key-value sequence representation learning module
//! (paper Section IV-B) — input embedding, masked attention stack and the
//! gated fusion cell.

use crate::embedding::{InputEmbedding, ItemIndices};
use crate::mask::MaskBuilder;
use crate::KvecConfig;
use kvec_autograd::Var;
use kvec_data::TangledSequence;
use kvec_nn::{
    AttentionBlock, BlockPanels, LayerNorm, LstmCell, ParamId, ParamStore, Session, Visible,
};
use kvec_tensor::{KvecRng, Tensor, VisibleLists};
use std::rc::Rc;

/// What the tape-free batch forward ([`KvrlEncoder::encode_rows`]) gives
/// for one stream: the refined item embeddings, every row's visible list
/// in CSR form, and one attention weight per CSR entry.
#[derive(Debug)]
pub struct EncodedRows {
    /// Refined item embeddings `E`, one row per encoded item (`T x d` once
    /// the whole stream is encoded). Row `g` has the bits
    /// `StreamingEngine::feed` computes for item `g` on the default
    /// engine.
    pub e: Tensor,
    /// Every row's visible positions, ascending within a row and ending
    /// at the row itself.
    pub lists: VisibleLists,
    /// The attention weight of each CSR entry, averaged over heads and
    /// blocks.
    pub weights: Vec<f32>,
}

impl EncodedRows {
    /// Row `g`'s visible positions and their attention weights.
    pub fn row(&self, g: usize) -> (&[usize], &[f32]) {
        (self.lists.row(g), &self.weights[self.lists.span(g)])
    }
}

/// What the tape-free inference forward keeps from one stream to the
/// next ([`KvrlEncoder::workspace`]): every block's weights packed once,
/// the mask builder, the encoded rows with their CSR, one K/V pair per
/// block and one wave's scratch. Each buffer grows to the most rows a
/// stream encoded and is reused by the next stream, which starts from a
/// reset builder and empty buffers ([`Self::begin`]). The panels are
/// packed from the store the workspace borrows, so they cannot go stale
/// while it lives.
pub struct EncodeWorkspace<'a> {
    encoder: &'a KvrlEncoder,
    store: &'a ParamStore,
    cfg: &'a KvecConfig,
    panels: Vec<BlockPanels>,
    masks: MaskBuilder,
    rows: EncodedRows,
    /// One K/V pair per block, a row per encoded item: later rows attend
    /// to earlier ones.
    kv: Vec<[Tensor; 2]>,
    /// One wave's queries, attended rows and weight sink; the row bodies'
    /// scratch.
    q: Vec<f32>,
    attended: Vec<f32>,
    sink: Vec<f32>,
    logits: Vec<f32>,
    scratch: Vec<f32>,
}

impl<'a> EncodeWorkspace<'a> {
    /// A [`PrefixEncoder`] over `tangled` with no row encoded yet, on this
    /// workspace's panels and buffers.
    pub fn begin(mut self, tangled: &'a TangledSequence) -> PrefixEncoder<'a> {
        self.masks.reset();
        self.rows.e.resize_rows(0);
        self.rows.lists.clear();
        self.rows.weights.clear();
        for kv in &mut self.kv {
            kv.iter_mut().for_each(|t| t.resize_rows(0));
        }
        PrefixEncoder { ws: self, tangled }
    }
}

/// The tape-free inference forward over one stream, resumable: each
/// [`Self::advance`] encodes the next rows block-major with the row bodies
/// `StreamingEngine::feed` runs. The mask is causal, so a row's visible
/// list reaches only rows already encoded, and a GEMM row has the GEMV's
/// bits: every row of `e` equals the default engine's, bit for bit,
/// however the stream is cut. Nothing is `T x T`.
pub struct PrefixEncoder<'a> {
    ws: EncodeWorkspace<'a>,
    tangled: &'a TangledSequence,
}

impl<'a> PrefixEncoder<'a> {
    /// How many rows are encoded: the rows `0..encoded()` of [`Self::rows`].
    pub fn encoded(&self) -> usize {
        self.ws.rows.lists.len()
    }

    /// The rows encoded so far.
    pub fn rows(&self) -> &EncodedRows {
        &self.ws.rows
    }

    /// The workspace back, for the next stream.
    pub fn into_workspace(self) -> EncodeWorkspace<'a> {
        self.ws
    }

    /// Encodes rows `encoded()..end` (`end` clamped to the stream): the
    /// mask writes their visible lists into the CSR; per block, the K, V and
    /// Q projections run over them as one GEMM each on the packed weights,
    /// each row attends over its list with the weight sink on, and the rows
    /// are finished at once.
    pub fn advance(&mut self, end: usize) {
        let (start, ws) = (self.encoded(), &mut self.ws);
        let (store, cfg, d) = (ws.store, ws.cfg, ws.cfg.d_model);
        let end = end.clamp(start, self.tangled.len());
        let (input, rows) = (&ws.encoder.input, &mut ws.rows);
        let (mut idx, first) = (ItemIndices::default(), rows.lists.nnz());
        rows.e.resize_rows(end);
        let e = &mut rows.e;
        ws.masks.push_rows(
            &self.tangled.items[start..end],
            cfg.session_field,
            &mut rows.lists,
            |g, item, pos_in_key| {
                input.indices_for_item_into(item.key, &item.value, pos_in_key, g, &mut idx);
                input.lookup_one_into(store, &idx, e.row_mut(g));
            },
        );

        rows.weights.resize(rows.lists.nnz(), 0.0);
        ws.sink.resize(rows.lists.nnz() - first, 0.0);
        ws.q.resize((end - start) * d, 0.0);
        ws.attended.resize((end - start) * d, 0.0);
        let x = &mut rows.e.data_mut()[start * d..end * d];
        let layers = ws.encoder.blocks.iter().zip(&ws.panels).zip(&mut ws.kv);
        for (l, ((block, panels), [k, v])) in layers.enumerate() {
            k.resize_rows(end);
            v.resize_rows(end);
            let (k_new, v_new) = (
                &mut k.data_mut()[start * d..],
                &mut v.data_mut()[start * d..],
            );
            block.project_packed_into(store, panels, x, [k_new, v_new, &mut ws.q]);
            for g in start..end {
                let span = rows.lists.span(g);
                block.attend_row_into(
                    &ws.q[(g - start) * d..][..d],
                    (k, v),
                    rows.lists.row(g),
                    0,
                    &mut ws.logits,
                    &mut ws.attended[(g - start) * d..][..d],
                    Some(&mut ws.sink[span.start - first..span.end - first]),
                );
            }
            for (w, &s) in rows.weights[first..].iter_mut().zip(&ws.sink) {
                *w += s;
            }
            block.finish_rows_packed_into(store, panels, &ws.attended, x, &mut ws.scratch);
            if let Some(norms) = &ws.encoder.norms {
                norms[l].apply_in_place(store, x);
            }
        }
        let inv = 1.0 / ws.encoder.blocks.len() as f32;
        rows.weights[first..].iter_mut().for_each(|w| *w *= inv);
    }
}

/// The KVRL encoder: `E_0 -> attention blocks -> E`.
#[derive(Clone)]
pub struct KvrlEncoder {
    /// The four-component input embedding.
    pub input: InputEmbedding,
    blocks: Vec<AttentionBlock>,
    norms: Option<Vec<LayerNorm>>,
    /// The LSTM-style fusion cell producing `s_k^(t)` from item embeddings.
    pub fusion: LstmCell,
}

impl KvrlEncoder {
    /// Creates the encoder from a config.
    pub fn new(store: &mut ParamStore, cfg: &KvecConfig, rng: &mut KvecRng) -> Self {
        let input = InputEmbedding::new(store, cfg, rng);
        let blocks = (0..cfg.n_blocks)
            .map(|b| {
                AttentionBlock::with_heads(
                    store,
                    &format!("kvrl.block{b}"),
                    cfg.d_model,
                    cfg.d_ff,
                    cfg.dropout,
                    cfg.use_residual,
                    cfg.n_heads,
                    rng,
                )
            })
            .collect();
        let norms = cfg.use_layer_norm.then(|| {
            (0..cfg.n_blocks)
                .map(|b| LayerNorm::new(store, &format!("kvrl.norm{b}"), cfg.d_model))
                .collect()
        });
        let fusion = LstmCell::new(store, "kvrl.fusion", cfg.d_model, cfg.fusion_hidden, rng);
        Self {
            input,
            blocks,
            norms,
            fusion,
        }
    }

    /// Runs the embedding + attention stack over a whole tangled prefix,
    /// producing the refined item embedding matrix `E` (`T x d`), where row
    /// `g` attends over `lists.row(g)` (see [`crate::mask::visible_lists`]).
    /// This is the taped training forward; inference runs
    /// [`Self::prefix_encoder`]. Nothing on the tape is `T x T`, and with
    /// dropout off every row has the bits the inference forward gives it.
    ///
    /// `rng = Some(..)` enables dropout (training).
    pub fn encode<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        items: &[ItemIndices],
        lists: &Rc<VisibleLists>,
        mut rng: Option<&mut KvecRng>,
    ) -> Var<'s> {
        let mut e = self.input.forward(sess, store, items);
        for (l, block) in self.blocks.iter().enumerate() {
            let next = block.forward(sess, store, e, Visible::Lists(lists), rng.as_deref_mut());
            e = match &self.norms {
                Some(norms) => norms[l].forward(sess, store, next),
                None => next,
            };
        }
        e
    }

    /// The tape-free inference forward over a whole stream:
    /// [`Self::prefix_encoder`] advanced to the end.
    pub fn encode_rows(
        &self,
        store: &ParamStore,
        cfg: &KvecConfig,
        tangled: &TangledSequence,
    ) -> EncodedRows {
        let mut prefix = self.prefix_encoder(store, cfg, tangled);
        prefix.advance(tangled.len());
        prefix.ws.rows
    }

    /// A [`PrefixEncoder`] over `tangled` with no row encoded yet, on a
    /// fresh [`Self::workspace`].
    pub fn prefix_encoder<'a>(
        &'a self,
        store: &'a ParamStore,
        cfg: &'a KvecConfig,
        tangled: &'a TangledSequence,
    ) -> PrefixEncoder<'a> {
        self.workspace(store, cfg).begin(tangled)
    }

    /// An [`EncodeWorkspace`] for many streams: the blocks' weights in
    /// `store` packed once, and empty buffers.
    pub fn workspace<'a>(
        &'a self,
        store: &'a ParamStore,
        cfg: &'a KvecConfig,
    ) -> EncodeWorkspace<'a> {
        let empty = || Tensor::zeros(0, cfg.d_model);
        EncodeWorkspace {
            encoder: self,
            store,
            cfg,
            panels: self.blocks.iter().map(|b| b.panels(store)).collect(),
            masks: MaskBuilder::streaming(cfg.use_key_correlation, cfg.use_value_correlation),
            rows: EncodedRows {
                e: empty(),
                lists: VisibleLists::new(),
                weights: Vec::new(),
            },
            kv: self.blocks.iter().map(|_| [empty(), empty()]).collect(),
            q: Vec::new(),
            attended: Vec::new(),
            sink: Vec::new(),
            logits: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The per-block layer norms, when `use_layer_norm` is enabled.
    pub fn norms(&self) -> Option<&[LayerNorm]> {
        self.norms.as_deref()
    }

    /// The attention blocks (used by the streaming engine's incremental
    /// path).
    pub fn blocks(&self) -> &[AttentionBlock] {
        &self.blocks
    }

    /// All trainable parameter ids of the encoder (embeddings, blocks,
    /// fusion).
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.input.param_ids();
        for b in &self.blocks {
            ids.extend(b.param_ids());
        }
        if let Some(norms) = &self.norms {
            for n in norms {
                ids.extend(n.param_ids());
            }
        }
        ids.extend(self.fusion.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::visible_lists;
    use kvec_data::{Item, Key, TangledSequence, ValueSchema};

    fn schema() -> ValueSchema {
        ValueSchema::new(vec!["dir".into(), "size".into()], vec![2, 4], 0)
    }

    fn sample() -> TangledSequence {
        let items = vec![
            Item::new(Key(1), vec![0, 1], 0),
            Item::new(Key(2), vec![0, 2], 1),
            Item::new(Key(1), vec![1, 3], 2),
            Item::new(Key(2), vec![1, 0], 3),
        ];
        TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)])
    }

    #[test]
    fn encode_shapes_and_traces() {
        let cfg = KvecConfig::tiny(&schema(), 2);
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let enc = KvrlEncoder::new(&mut store, &cfg, &mut rng);
        let t = sample();
        let lists = Rc::new(visible_lists(&t, 0, true, true));
        let sess = Session::new();
        let idx = enc.input.indices_for(&t);
        let e = enc.encode(&sess, &store, &idx, &lists, None);
        assert_eq!(e.shape(), (4, cfg.d_model));

        // The batch inference forward: the training forward's lists, one
        // weight per entry, each row's weights a distribution, and the
        // taped rows reproduced bit for bit.
        let rows = enc.encode_rows(&store, &cfg, &t);
        assert_eq!(rows.e.shape(), (4, cfg.d_model));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows.e), bits(&e.value()), "taped rows differ");
        assert_eq!(rows.lists, *lists);
        assert_eq!(rows.weights.len(), rows.lists.nnz());
        for g in 0..4 {
            let (visible, weights) = rows.row(g);
            assert_eq!(visible, lists.row(g), "row {g}");
            let sum: f32 = weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {g} sums to {sum}");
        }
    }

    #[test]
    fn masked_items_do_not_influence_each_other() {
        // With both correlations off, every item only sees itself; two
        // items with identical indices must get identical encodings even
        // at different stream positions (time embeddings off too).
        let mut cfg = KvecConfig::tiny(&schema(), 2);
        cfg.use_key_correlation = false;
        cfg.use_value_correlation = false;
        cfg.use_time_embeddings = false;
        cfg.use_membership_embedding = false;
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(2);
        let enc = KvrlEncoder::new(&mut store, &cfg, &mut rng);

        let items = vec![
            Item::new(Key(1), vec![0, 1], 0),
            Item::new(Key(2), vec![0, 1], 1),
        ];
        let t = TangledSequence::new(items, vec![(Key(1), 0), (Key(2), 1)]);
        let lists = Rc::new(visible_lists(&t, 0, false, false));
        let sess = Session::new();
        let idx = enc.input.indices_for(&t);
        let e = enc.encode(&sess, &store, &idx, &lists, None);
        let v = e.value();
        assert_eq!(v.row(0), v.row(1));
    }

    #[test]
    fn gradients_flow_through_whole_encoder() {
        let cfg = KvecConfig::tiny(&schema(), 2);
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let enc = KvrlEncoder::new(&mut store, &cfg, &mut rng);
        let t = sample();
        let lists = Rc::new(visible_lists(&t, 0, true, true));
        let sess = Session::new();
        let idx = enc.input.indices_for(&t);
        let e = enc.encode(&sess, &store, &idx, &lists, None);

        // Fuse key 1's two items and backprop through fusion + encoder.
        let mut state = enc.fusion.zero_state(&sess);
        for &g in &[0usize, 2] {
            state = enc.fusion.step(&sess, &store, e.row(g), state);
        }
        sess.backward(state.h.square().sum_all());
        sess.accumulate_grads(&mut store);
        // Embedding tables of used codes and all block params get grads.
        let grads_present = enc
            .param_ids()
            .iter()
            .filter(|&&id| store.grad(id).frobenius_norm() > 0.0)
            .count();
        assert!(
            grads_present > enc.param_ids().len() / 2,
            "only {grads_present} of {} params got gradients",
            enc.param_ids().len()
        );
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let mut cfg = KvecConfig::tiny(&schema(), 2);
        cfg.dropout = 0.5;
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let enc = KvrlEncoder::new(&mut store, &cfg, &mut rng);
        let t = sample();
        let lists = Rc::new(visible_lists(&t, 0, true, true));
        let idx = enc.input.indices_for(&t);

        let eval = |_unused: ()| {
            let sess = Session::new();
            let e = enc.encode(&sess, &store, &idx, &lists, None);
            e.value()
        };
        assert!(eval(()).allclose(&eval(()), 1e-6), "eval is deterministic");

        let sess = Session::new();
        let mut drng = KvecRng::seed_from_u64(5);
        let e_train = enc.encode(&sess, &store, &idx, &lists, Some(&mut drng));
        assert!(!e_train.value().allclose(&eval(()), 1e-6));
    }
}
