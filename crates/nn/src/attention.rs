//! The correlation-masked self-attention block of KVRL.
//!
//! Paper Section IV-B: queries/keys/values are linear projections of the
//! dynamic embedding matrix, each item attends over the items the dynamic
//! mask `M` leaves visible to it, and a two-layer ReLU feed-forward network
//! follows. KVEC's mask is given as each row's visible list
//! ([`Visible::Lists`]); the same block under a dense causal mask
//! ([`Visible::Mask`]) doubles as the per-sequence transformer encoder of
//! the SRN baselines.
//!
//! The projections and the FFN lower to the register-tiled kernels in
//! `kvec_tensor`. Every attended row over a visible list — streaming
//! ([`AttentionBlock::attend_row_into`]), block-major inference and the
//! training tape — runs one body, [`kvec_tensor::attend_head_row`], which
//! writes into caller buffers, exponentiates its logits with one
//! vectorised `simd::exp_on` and computes attention weights for analysis
//! only when the caller passes a sink.

use crate::{Dropout, FeedForward, Linear, ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_obs::LazyCounter;
use kvec_tensor::{attend_head_row, simd, HeadKv, KvecRng, Panels, Tensor, VisibleLists};
use std::rc::Rc;

// Phase timers for the training-path forward pass. The autograd session is
// eager (every `Var` op computes its value immediately), so wall-clock
// boundaries between these statements are true phase boundaries.
static ATTN_FWD_CALLS: LazyCounter = LazyCounter::new("attn.forward.calls");
static ATTN_PROJECT_NS: LazyCounter = LazyCounter::new("attn.project.ns");
static ATTN_SCORES_NS: LazyCounter = LazyCounter::new("attn.scores.ns");
static ATTN_OUTPUT_NS: LazyCounter = LazyCounter::new("attn.output.ns");
static ATTN_FFN_NS: LazyCounter = LazyCounter::new("attn.ffn.ns");
// Streaming-inference hot path.
static ATTN_ROW_CALLS: LazyCounter = LazyCounter::new("attn.attend_row.calls");
static ATTN_ROW_NS: LazyCounter = LazyCounter::new("attn.attend_row.ns");

/// What each row of [`AttentionBlock::forward`]'s input may attend to.
#[derive(Clone, Copy)]
pub enum Visible<'a> {
    /// A `T x T` additive mask of `0` (visible) and `-inf`: dense scores,
    /// a masked softmax and a dense weighted sum. The SRN baselines' short
    /// causal sequences, where half of `T²` is visible, run this.
    Mask(&'a Tensor),
    /// Each row's visible list: logits, softmax and weighted sum over the
    /// list alone ([`Var::sparse_attention`]). KVEC's correlation mask,
    /// where a row sees a few percent of `T`, runs this.
    Lists(&'a Rc<VisibleLists>),
}

/// An [`AttentionBlock`]'s weights packed once ([`AttentionBlock::panels`]):
/// `W_q`, `W_k`, `W_v`, `W_o` when present, and the FFN's `W1` and `W2`.
pub struct BlockPanels {
    q: Panels,
    k: Panels,
    v: Panels,
    o: Option<Panels>,
    ffn: [Panels; 2],
}

/// One attention block: masked single-head self-attention followed by a
/// position-wise feed-forward network, with optional residual connections
/// and dropout.
///
/// The paper's formulas have no residual path; with the 6-block stack it
/// uses, plain composition is hard to optimize, so residuals are on by
/// default and can be disabled (`use_residual = false`) to match the
/// formulas exactly.
#[derive(Debug, Clone)]
pub struct AttentionBlock {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    /// Output projection, present for multi-head blocks.
    wo: Option<Linear>,
    ffn: FeedForward,
    dropout: Dropout,
    d_model: usize,
    n_heads: usize,
    use_residual: bool,
}

impl AttentionBlock {
    /// Creates a single-head block with model width `d_model` and FFN
    /// width `d_ff` — the paper's exact formulation.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        d_ff: usize,
        dropout_p: f32,
        use_residual: bool,
        rng: &mut KvecRng,
    ) -> Self {
        Self::with_heads(store, name, d_model, d_ff, dropout_p, use_residual, 1, rng)
    }

    /// Creates a block with `n_heads` attention heads (`d_model` must be
    /// divisible by `n_heads`). Multi-head blocks add the standard output
    /// projection `W_o`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_heads(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        d_ff: usize,
        dropout_p: f32,
        use_residual: bool,
        n_heads: usize,
        rng: &mut KvecRng,
    ) -> Self {
        assert!(n_heads >= 1, "need at least one head");
        assert_eq!(d_model % n_heads, 0, "d_model must divide by n_heads");
        let wo = (n_heads > 1)
            .then(|| Linear::new_no_bias(store, &format!("{name}.wo"), d_model, d_model, rng));
        Self {
            wq: Linear::new_no_bias(store, &format!("{name}.wq"), d_model, d_model, rng),
            wk: Linear::new_no_bias(store, &format!("{name}.wk"), d_model, d_model, rng),
            wv: Linear::new_no_bias(store, &format!("{name}.wv"), d_model, d_model, rng),
            wo,
            ffn: FeedForward::new(store, &format!("{name}.ffn"), d_model, d_ff, rng),
            dropout: Dropout::new(dropout_p),
            d_model,
            n_heads,
            use_residual,
        }
    }

    /// Applies the block to a `T x d_model` input whose rows see what
    /// `visible` says, returning the transformed embeddings. This is the
    /// training forward; inference runs the row bodies
    /// ([`Self::attend_row_into`], [`Self::finish_row_into`]). Over
    /// [`Visible::Lists`] each attended row has the bits
    /// [`Self::attend_row_into`] gives it.
    ///
    /// `rng = Some(..)` enables dropout (training); `None` is evaluation.
    pub fn forward<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        x: Var<'s>,
        visible: Visible<'_>,
        rng: Option<&mut KvecRng>,
    ) -> Var<'s> {
        let (t, d) = x.shape();
        assert_eq!(d, self.d_model, "attention input width mismatch");
        if let Visible::Mask(mask) = visible {
            assert_eq!(mask.shape(), (t, t), "mask shape mismatch");
        }

        ATTN_FWD_CALLS.add(1);
        let t0 = kvec_obs::timer();
        let q = self.wq.forward(sess, store, x);
        let k = self.wk.forward(sess, store, x);
        let v = self.wv.forward(sess, store, x);
        ATTN_PROJECT_NS.add_elapsed_ns(t0);

        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outs = Vec::with_capacity(self.n_heads);
        let t0 = kvec_obs::timer();
        for h in 0..self.n_heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let (qh, kh, vh) = if self.n_heads == 1 {
                (q, k, v)
            } else {
                (
                    q.slice_cols(lo, hi),
                    k.slice_cols(lo, hi),
                    v.slice_cols(lo, hi),
                )
            };
            head_outs.push(match visible {
                Visible::Mask(mask) => qh
                    .matmul_nt(kh)
                    .scale(scale)
                    .masked_softmax_rows(mask)
                    .matmul(vh),
                Visible::Lists(lists) => qh.sparse_attention(kh, vh, lists, scale),
            });
        }
        ATTN_SCORES_NS.add_elapsed_ns(t0);
        let t0 = kvec_obs::timer();
        let mut attended = head_outs[0];
        for head in &head_outs[1..] {
            attended = attended.concat_cols(*head);
        }
        if let Some(wo) = &self.wo {
            attended = wo.forward(sess, store, attended);
        }
        ATTN_OUTPUT_NS.add_elapsed_ns(t0);

        let t0 = kvec_obs::timer();
        let mut out = attended;
        if self.use_residual {
            out = out.add(x);
        }
        let ffn_out = self.ffn.forward(sess, store, out);
        let ffn_out = self.dropout.forward(sess, ffn_out, rng);
        let out = if self.use_residual {
            ffn_out.add(out)
        } else {
            ffn_out
        };
        ATTN_FFN_NS.add_elapsed_ns(t0);
        out
    }

    /// Tape-free query projection (inference).
    pub fn project_q(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        self.wq.apply(store, x)
    }

    /// Tape-free key projection (inference).
    pub fn project_k(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        self.wk.apply(store, x)
    }

    /// Tape-free value projection (inference).
    pub fn project_v(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        self.wv.apply(store, x)
    }

    /// [`Self::project_q`] of row-major `x` into a caller slice, with its
    /// bits.
    pub fn project_q_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        self.wq.apply_into(store, x, out);
    }

    /// [`Self::project_k`] of row-major `x` into a caller slice, with its
    /// bits.
    pub fn project_k_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        self.wk.apply_into(store, x, out);
    }

    /// [`Self::project_v`] of row-major `x` into a caller slice, with its
    /// bits.
    pub fn project_v_into(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        self.wv.apply_into(store, x, out);
    }

    /// Tape-free attention of one query row over a visible subset of
    /// cached keys/values (the streaming-inference hot path).
    ///
    /// `visible` must list the attended row indices **including** the query
    /// row itself. Returns the attended output (`1 x d`) and the attention
    /// weight per visible index.
    pub fn attend_row(
        &self,
        q_row: &Tensor,
        keys: &Tensor,
        values: &Tensor,
        visible: &[usize],
    ) -> (Tensor, Vec<(usize, f32)>) {
        self.attend_row_window(q_row, keys, values, visible, 0)
    }

    /// [`Self::attend_row`] over a *windowed* K/V cache: the caches hold
    /// only rows from global position `base` onward (older rows were
    /// evicted as dead), so visible index `j` lives at physical row
    /// `j - base`. The arithmetic is untouched — the dots and
    /// accumulations read the same bytes the unwindowed cache would hold,
    /// so outputs are bit-identical to `attend_row` with `base = 0` on
    /// the full cache. Returned weight indices stay global. An allocating
    /// wrapper over [`Self::attend_row_into`], with its bits.
    pub fn attend_row_window(
        &self,
        q_row: &Tensor,
        keys: &Tensor,
        values: &Tensor,
        visible: &[usize],
        base: usize,
    ) -> (Tensor, Vec<(usize, f32)>) {
        let mut out = Tensor::zeros(1, self.d_model);
        let mut weights = vec![0.0f32; visible.len()];
        self.attend_row_into(
            q_row.data(),
            (keys, values),
            visible,
            base,
            &mut Vec::new(),
            out.data_mut(),
            Some(&mut weights),
        );
        (out, visible.iter().copied().zip(weights).collect())
    }

    /// The body of [`Self::attend_row_window`] on caller buffers: writes the
    /// attended row of query `q` over the windowed `(keys, values)` caches
    /// into `out` (`d_model` wide, overwritten), one [`attend_head_row`] per
    /// head — the row body the training tape's edge-list attention runs
    /// too. `logits` is that body's scratch. The head-mean weight per
    /// visible index is written to `weights` only when a sink is passed —
    /// `out` has the same bits either way.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_row_into(
        &self,
        q: &[f32],
        (keys, values): (&Tensor, &Tensor),
        visible: &[usize],
        base: usize,
        logits: &mut Vec<f32>,
        out: &mut [f32],
        mut weights: Option<&mut [f32]>,
    ) {
        assert!(
            !visible.is_empty(),
            "attend_row needs a non-empty visible set"
        );
        assert!(
            visible[0] >= base,
            "visible position {} already evicted (cache base {base})",
            visible[0]
        );
        assert!(
            q.len() == self.d_model && out.len() == self.d_model,
            "attend_row width mismatch"
        );
        ATTN_ROW_CALLS.add(1);
        let t0 = kvec_obs::timer();
        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        if let Some(w) = weights.as_deref_mut() {
            w.fill(0.0);
        }
        // The path is resolved once per call, not per visible index.
        let path = simd::active_path();
        for h in 0..self.n_heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let kv = HeadKv {
                keys: &keys.data()[lo..],
                values: &values.data()[lo..],
                stride: self.d_model,
                base,
            };
            attend_head_row(
                path,
                &q[lo..hi],
                kv,
                visible,
                scale,
                logits,
                &mut out[lo..hi],
                weights.as_deref_mut().map(|w| (w, self.n_heads as f32)),
            );
        }
        ATTN_ROW_NS.add_elapsed_ns(t0);
    }

    /// Tape-free completion of one row after [`Self::attend_row`]: applies
    /// the residual connections and the feed-forward network exactly as the
    /// training-path [`Self::forward`] does (dropout is identity at
    /// inference). An allocating wrapper over [`Self::finish_row_into`],
    /// with its bits.
    pub fn finish_row(&self, store: &ParamStore, attended: &Tensor, x_row: &Tensor) -> Tensor {
        let mut out = x_row.clone();
        self.finish_row_into(store, attended.data(), out.data_mut(), &mut Vec::new());
        out
    }

    /// The body of [`Self::finish_row`] in place, over `n` rows at once:
    /// `x` (row-major, `n x d_model`) holds the block's input rows and is
    /// overwritten with their outputs, `attended` holds their attended
    /// rows. Every step is row-wise and a GEMM row has the GEMV's bits, so
    /// each output row has the bits a one-row call gives. `scratch` holds
    /// the residual sums and the FFN hidden rows; it is grown on first use
    /// and carries nothing between calls.
    pub fn finish_row_into(
        &self,
        store: &ParamStore,
        attended: &[f32],
        x: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        self.finish_rows(store, None, attended, x, scratch);
    }

    /// The block's weights packed once, for [`Self::project_packed_into`]
    /// and [`Self::finish_rows_packed_into`] while `store` is unchanged.
    pub fn panels(&self, store: &ParamStore) -> BlockPanels {
        BlockPanels {
            q: self.wq.panels(store),
            k: self.wk.panels(store),
            v: self.wv.panels(store),
            o: self.wo.as_ref().map(|wo| wo.panels(store)),
            ffn: self.ffn.panels(store),
        }
    }

    /// [`Self::project_k_into`], [`Self::project_v_into`] and
    /// [`Self::project_q_into`] of the rows `x` on `panels`, with their
    /// bits.
    pub fn project_packed_into(
        &self,
        store: &ParamStore,
        panels: &BlockPanels,
        x: &[f32],
        [k, v, q]: [&mut [f32]; 3],
    ) {
        self.wk.apply_with(store, Some(&panels.k), x, k);
        self.wv.apply_with(store, Some(&panels.v), x, v);
        self.wq.apply_with(store, Some(&panels.q), x, q);
    }

    /// [`Self::finish_row_into`] on `panels`, with its bits.
    pub fn finish_rows_packed_into(
        &self,
        store: &ParamStore,
        panels: &BlockPanels,
        attended: &[f32],
        x: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        self.finish_rows(store, Some(panels), attended, x, scratch);
    }

    fn finish_rows(
        &self,
        store: &ParamStore,
        panels: Option<&BlockPanels>,
        attended: &[f32],
        x: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let d = self.d_model;
        assert!(
            attended.len() == x.len() && x.len().is_multiple_of(d),
            "finish_row width mismatch"
        );
        let n = x.len() / d;
        scratch.resize(n * (d + self.ffn.hidden_dim()), 0.0);
        let (mid, hidden) = scratch.split_at_mut(n * d);
        match &self.wo {
            Some(wo) => wo.apply_with(store, panels.and_then(|p| p.o.as_ref()), attended, mid),
            None => mid.copy_from_slice(attended),
        }
        if self.use_residual {
            for (m, &xi) in mid.iter_mut().zip(x.iter()) {
                *m += xi;
            }
        }
        self.ffn
            .apply_into(store, panels.map(|p| &p.ffn), mid, hidden, x);
        if self.use_residual {
            for (o, &m) in x.iter_mut().zip(mid.iter()) {
                *o += m;
            }
        }
    }

    /// Model width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// All parameter ids of the block.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.wq.param_ids();
        ids.extend(self.wk.param_ids());
        ids.extend(self.wv.param_ids());
        if let Some(wo) = &self.wo {
            ids.extend(wo.param_ids());
        }
        ids.extend(self.ffn.param_ids());
        ids
    }

    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }
}

/// Builds the standard causal mask (`j <= i` visible) used by the SRN
/// baselines, where every earlier item of the same sequence is visible.
pub fn causal_mask(t: usize) -> Tensor {
    let mut m = Tensor::zeros(t, t);
    for i in 0..t {
        for j in (i + 1)..t {
            m[(i, j)] = f32::NEG_INFINITY;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(store: &mut ParamStore, residual: bool) -> AttentionBlock {
        let mut rng = KvecRng::seed_from_u64(7);
        AttentionBlock::new(store, "blk", 4, 8, 0.0, residual, &mut rng)
    }

    /// The sink weights of row `t` attending causally over rows `0..=t`
    /// of `x`.
    fn causal_row_weights(
        blk: &AttentionBlock,
        store: &ParamStore,
        x: &Tensor,
        t: usize,
    ) -> Vec<f32> {
        let keys = blk.project_k(store, x);
        let values = blk.project_v(store, x);
        let q = blk.project_q(store, &x.row_tensor(t));
        let visible: Vec<usize> = (0..=t).collect();
        let mut out = vec![0.0; blk.d_model()];
        let mut weights = vec![f32::NAN; visible.len()];
        blk.attend_row_into(
            q.data(),
            (&keys, &values),
            &visible,
            0,
            &mut Vec::new(),
            &mut out,
            Some(&mut weights),
        );
        weights
    }

    #[test]
    fn output_shape_and_row_stochastic_weights() {
        let mut store = ParamStore::new();
        let blk = block(&mut store, true);
        let sess = Session::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let x = Tensor::rand_uniform(5, 4, -1.0, 1.0, &mut rng);
        let y = blk.forward(
            &sess,
            &store,
            sess.input(x.clone()),
            Visible::Mask(&causal_mask(5)),
            None,
        );
        assert_eq!(y.shape(), (5, 4));
        for r in 0..5 {
            let weights = causal_row_weights(&blk, &store, &x, r);
            assert_eq!(weights.len(), r + 1);
            let s: f32 = weights.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn causality_respected() {
        // With a causal mask, output row 0 must not change when later
        // inputs change.
        let mut store = ParamStore::new();
        let blk = block(&mut store, true);
        let mut rng = KvecRng::seed_from_u64(2);
        let base = Tensor::rand_uniform(4, 4, -1.0, 1.0, &mut rng);

        let sess1 = Session::new();
        let x1 = sess1.input(base.clone());
        let y1 = blk.forward(&sess1, &store, x1, Visible::Mask(&causal_mask(4)), None);
        let first1 = y1.value().row(0).to_vec();

        let mut changed = base.clone();
        changed.row_mut(3).iter_mut().for_each(|v| *v += 5.0);
        let sess2 = Session::new();
        let x2 = sess2.input(changed);
        let y2 = blk.forward(&sess2, &store, x2, Visible::Mask(&causal_mask(4)), None);
        let first2 = y2.value().row(0).to_vec();
        assert_eq!(first1, first2);
    }

    #[test]
    fn mask_blocks_attention_edges() {
        // Row 2 may only see itself, so its output must not move when the
        // rows it cannot see change.
        let mut store = ParamStore::new();
        let blk = block(&mut store, false);
        let mut rng = KvecRng::seed_from_u64(3);
        let base = Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng);
        let mut mask = causal_mask(3);
        mask[(2, 0)] = f32::NEG_INFINITY;
        mask[(2, 1)] = f32::NEG_INFINITY;
        let out = |x: Tensor| {
            let sess = Session::new();
            blk.forward(&sess, &store, sess.input(x), Visible::Mask(&mask), None)
                .value()
        };
        let mut changed = base.clone();
        for r in 0..2 {
            changed
                .row_mut(r)
                .iter_mut()
                .for_each(|v| *v = -3.0 * *v + 1.0);
        }
        let (before, after) = (out(base), out(changed));
        assert_eq!(before.row(2), after.row(2), "a masked input moved row 2");
        // The rows that see the changed inputs do move.
        assert_ne!(before.row(1), after.row(1));
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut store = ParamStore::new();
        let blk = block(&mut store, true);
        let sess = Session::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let x = sess.input(Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let y = blk.forward(&sess, &store, x, Visible::Mask(&causal_mask(3)), None);
        sess.backward(y.square().sum_all());
        sess.accumulate_grads(&mut store);
        for id in blk.param_ids() {
            assert!(
                store.grad(id).frobenius_norm() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }

    #[test]
    fn incremental_row_path_matches_batch_forward() {
        let mut store = ParamStore::new();
        let blk = block(&mut store, true);
        let mut rng = KvecRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(6, 4, -1.0, 1.0, &mut rng);

        // Batch (training) path under a causal mask.
        let sess = Session::new();
        let xv = sess.input(x.clone());
        let batch_out = blk
            .forward(&sess, &store, xv, Visible::Mask(&causal_mask(6)), None)
            .value();

        // Incremental (inference) path.
        let keys = blk.project_k(&store, &x);
        let values = blk.project_v(&store, &x);
        let queries = blk.project_q(&store, &x);
        let scale = 1.0 / (blk.d_model() as f32).sqrt();
        for t in 0..6 {
            let q = blk.project_q(&store, &x.row_tensor(t));
            let visible: Vec<usize> = (0..=t).collect();
            let (attended, weights) = blk.attend_row(&q, &keys, &values, &visible);
            let row_out = blk.finish_row(&store, &attended, &x.row_tensor(t));
            assert!(
                row_out.allclose(&batch_out.row_tensor(t), 1e-4),
                "row {t} diverges"
            );
            // The sink holds the masked softmax of the batch score row.
            let scores: Vec<f32> = visible
                .iter()
                .map(|&j| {
                    let dot: f32 = queries
                        .row(t)
                        .iter()
                        .zip(keys.row(j))
                        .map(|(a, b)| a * b)
                        .sum();
                    dot * scale
                })
                .collect();
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let total: f32 = scores.iter().map(|s| (s - max).exp()).sum();
            for ((j, w), s) in weights.into_iter().zip(&scores) {
                let want = (s - max).exp() / total;
                assert!((w - want).abs() < 1e-5, "weight ({t},{j})");
            }
        }
    }

    #[test]
    fn list_forward_rows_have_the_row_bodies_bits() {
        // The taped forward over visible lists runs the streaming row
        // body: every output row equals `attend_row` + `finish_row` on the
        // same list, bit for bit, with one head or two.
        for heads in [1usize, 2] {
            let mut store = ParamStore::new();
            let mut rng = KvecRng::seed_from_u64(44);
            let blk =
                AttentionBlock::with_heads(&mut store, "l", 8, 16, 0.0, true, heads, &mut rng);
            let x = Tensor::rand_uniform(7, 8, -1.0, 1.0, &mut rng);
            let rows: Vec<Vec<usize>> = vec![
                vec![0],
                vec![1],
                vec![0, 2],
                vec![1, 2, 3],
                vec![4],
                vec![0, 3, 5],
                vec![0, 1, 2, 3, 4, 5, 6],
            ];
            let lists = Rc::new(VisibleLists::from_rows(&rows));
            let sess = Session::new();
            let taped = blk
                .forward(
                    &sess,
                    &store,
                    sess.input(x.clone()),
                    Visible::Lists(&lists),
                    None,
                )
                .value();
            let keys = blk.project_k(&store, &x);
            let values = blk.project_v(&store, &x);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (t, visible) in rows.iter().enumerate() {
                let q = blk.project_q(&store, &x.row_tensor(t));
                let (attended, _) = blk.attend_row(&q, &keys, &values, visible);
                let row = blk.finish_row(&store, &attended, &x.row_tensor(t));
                assert_eq!(
                    bits(row.data()),
                    bits(taped.row(t)),
                    "{heads} heads, row {t}"
                );
            }
        }
    }

    #[test]
    fn windowed_attend_row_is_bit_identical_to_full_cache() {
        // Evicting a dead cache prefix must not perturb a single bit of
        // the attended output: the windowed call reads the same row bytes
        // at shifted physical indices.
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(41);
        let blk = AttentionBlock::with_heads(&mut store, "w", 8, 16, 0.0, true, 2, &mut rng);
        let x = Tensor::rand_uniform(10, 8, -1.0, 1.0, &mut rng);
        let keys = blk.project_k(&store, &x);
        let values = blk.project_v(&store, &x);
        let q = blk.project_q(&store, &x.row_tensor(9));
        // Query row 9 sees a sparse window that excludes old rows 0..4.
        let visible = vec![4usize, 6, 7, 9];
        let (full_out, full_w) = blk.attend_row(&q, &keys, &values, &visible);

        for base in [1usize, 3, 4] {
            let mut wkeys = keys.clone();
            let mut wvalues = values.clone();
            wkeys.drop_front_rows(base);
            wvalues.drop_front_rows(base);
            let (out, w) = blk.attend_row_window(&q, &wkeys, &wvalues, &visible, base);
            assert_eq!(out.data(), full_out.data(), "base {base}: output differs");
            assert_eq!(w, full_w, "base {base}: weights differ");
        }
    }

    #[test]
    fn weight_sink_changes_nothing_but_the_sink() {
        // The weights are a by-product for analysis: asking for them must
        // not move a bit of the attended row, and they stay row-stochastic.
        for heads in [1usize, 2] {
            let mut store = ParamStore::new();
            let mut rng = KvecRng::seed_from_u64(43);
            let blk =
                AttentionBlock::with_heads(&mut store, "s", 8, 16, 0.0, true, heads, &mut rng);
            let x = Tensor::rand_uniform(12, 8, -1.0, 1.0, &mut rng);
            let keys = blk.project_k(&store, &x);
            let values = blk.project_v(&store, &x);
            let q = blk.project_q(&store, &x.row_tensor(11));
            let visible = [2usize, 3, 5, 8, 9, 11];
            let mut logits = Vec::new();
            let mut bare = vec![f32::NAN; 8];
            blk.attend_row_into(
                q.data(),
                (&keys, &values),
                &visible,
                0,
                &mut logits,
                &mut bare,
                None,
            );
            let mut sunk = vec![f32::NAN; 8];
            let mut weights = vec![f32::NAN; visible.len()];
            blk.attend_row_into(
                q.data(),
                (&keys, &values),
                &visible,
                0,
                &mut logits,
                &mut sunk,
                Some(&mut weights),
            );
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&bare), bits(&sunk), "{heads} heads");
            let (wrapped, pairs) = blk.attend_row_window(&q, &keys, &values, &visible, 0);
            assert_eq!(bits(wrapped.data()), bits(&bare), "{heads} heads: wrapper");
            assert!(weights.iter().all(|&w| w > 0.0), "{weights:?}");
            let sum: f32 = weights.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-5,
                "{heads} heads: weights sum to {sum}"
            );
            let indices: Vec<usize> = pairs.iter().map(|&(j, _)| j).collect();
            assert_eq!(indices, visible);
            let wrapped_weights: Vec<f32> = pairs.iter().map(|&(_, w)| w).collect();
            assert_eq!(bits(&wrapped_weights), bits(&weights));
        }
    }

    #[test]
    #[should_panic(expected = "already evicted")]
    fn windowed_attend_row_rejects_evicted_positions() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(42);
        let blk = AttentionBlock::new(&mut store, "w", 4, 8, 0.0, true, &mut rng);
        let x = Tensor::rand_uniform(4, 4, -1.0, 1.0, &mut rng);
        let keys = blk.project_k(&store, &x);
        let values = blk.project_v(&store, &x);
        let q = blk.project_q(&store, &x.row_tensor(3));
        let _ = blk.attend_row_window(&q, &keys, &values, &[1, 3], 2);
    }

    #[test]
    fn multi_head_shapes_and_gradients() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(21);
        let blk = AttentionBlock::with_heads(&mut store, "mh", 8, 16, 0.0, true, 4, &mut rng);
        assert_eq!(blk.n_heads(), 4);

        let sess = Session::new();
        let x = Tensor::rand_uniform(5, 8, -1.0, 1.0, &mut rng);
        let y = blk.forward(
            &sess,
            &store,
            sess.input(x.clone()),
            Visible::Mask(&causal_mask(5)),
            None,
        );
        assert_eq!(y.shape(), (5, 8));
        // Mean head weights remain row-stochastic.
        for r in 0..5 {
            let s: f32 = causal_row_weights(&blk, &store, &x, r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
        sess.backward(y.square().sum_all());
        sess.accumulate_grads(&mut store);
        for id in blk.param_ids() {
            assert!(
                store.grad(id).frobenius_norm() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }

    #[test]
    fn multi_head_incremental_matches_batch() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(22);
        let blk = AttentionBlock::with_heads(&mut store, "mh", 8, 16, 0.0, true, 2, &mut rng);
        let x = Tensor::rand_uniform(6, 8, -1.0, 1.0, &mut rng);

        let sess = Session::new();
        let xv = sess.input(x.clone());
        let batch_out = blk
            .forward(&sess, &store, xv, Visible::Mask(&causal_mask(6)), None)
            .value();

        let keys = blk.project_k(&store, &x);
        let values = blk.project_v(&store, &x);
        for t in 0..6 {
            let q = blk.project_q(&store, &x.row_tensor(t));
            let visible: Vec<usize> = (0..=t).collect();
            let (attended, _) = blk.attend_row(&q, &keys, &values, &visible);
            let row_out = blk.finish_row(&store, &attended, &x.row_tensor(t));
            assert!(
                row_out.allclose(&batch_out.row_tensor(t), 1e-4),
                "row {t} diverges (multi-head)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "divide by n_heads")]
    fn indivisible_heads_rejected() {
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(23);
        let _ = AttentionBlock::with_heads(&mut store, "bad", 6, 8, 0.0, true, 4, &mut rng);
    }

    #[test]
    fn causal_mask_structure() {
        let m = causal_mask(3);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 1)], f32::NEG_INFINITY);
        assert_eq!(m[(2, 1)], 0.0);
    }
}
