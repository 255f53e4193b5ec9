//! The correlation-masked self-attention block of KVRL.
//!
//! Paper Section IV-B: queries/keys/values are linear projections of the
//! dynamic embedding matrix, attention logits receive the additive dynamic
//! mask `M` (0 for visible pairs, `-inf` otherwise), and a two-layer ReLU
//! feed-forward network follows. The same block with an all-visible causal
//! mask doubles as the per-sequence transformer encoder of the SRN
//! baselines.
//!
//! All heavy linear algebra here — the Q/K/V/O projections, the per-head
//! `Q Kᵀ` score products, the masked row softmax and the `attn · V`
//! contraction — lowers to the register-tiled kernels in `kvec_tensor`.

use crate::{Dropout, FeedForward, Linear, ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_obs::LazyCounter;
use kvec_tensor::{simd, KvecRng, Tensor};

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

/// The attention probabilities of one block application, kept for the
/// paper's Fig. 10 analysis (internal vs. external attention mass).
#[derive(Debug, Clone)]
pub struct AttentionTrace {
    /// Row-stochastic `T x T` attention weights (post-mask softmax).
    pub weights: Tensor,
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

    /// Applies the block to a `T x d_model` input under the additive mask
    /// `mask` (`T x T` of `0`/`-inf`). Returns the transformed embeddings
    /// and the attention weights for analysis.
    ///
    /// `rng = Some(..)` enables dropout (training); `None` is evaluation.
    pub fn forward<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        x: Var<'s>,
        mask: &Tensor,
        rng: Option<&mut KvecRng>,
    ) -> (Var<'s>, AttentionTrace) {
        let (t, d) = x.shape();
        assert_eq!(d, self.d_model, "attention input width mismatch");
        assert_eq!(mask.shape(), (t, t), "mask shape mismatch");

        ATTN_FWD_CALLS.add(1);
        let t0 = kvec_obs::timer();
        let q = self.wq.forward(sess, store, x);
        let k = self.wk.forward(sess, store, x);
        let v = self.wv.forward(sess, store, x);
        ATTN_PROJECT_NS.add_elapsed_ns(t0);

        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outs = Vec::with_capacity(self.n_heads);
        let mut mean_weights: Option<Tensor> = None;
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
            let scores = qh.matmul_nt(kh).scale(scale);
            let attn = scores.masked_softmax_rows(mask);
            match &mut mean_weights {
                Some(acc) => acc.add_assign(&attn.value()),
                slot => *slot = Some(attn.value()),
            }
            head_outs.push(attn.matmul(vh));
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
        let mut weights = mean_weights.expect("at least one head");
        weights.scale_assign(1.0 / self.n_heads as f32);
        let trace = AttentionTrace { weights };

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
        (out, trace)
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
    /// the full cache. Returned weight indices stay global.
    pub fn attend_row_window(
        &self,
        q_row: &Tensor,
        keys: &Tensor,
        values: &Tensor,
        visible: &[usize],
        base: usize,
    ) -> (Tensor, Vec<(usize, f32)>) {
        assert!(
            !visible.is_empty(),
            "attend_row needs a non-empty visible set"
        );
        assert!(
            visible[0] >= base,
            "visible position {} already evicted (cache base {base})",
            visible[0]
        );
        ATTN_ROW_CALLS.add(1);
        let t0 = kvec_obs::timer();
        let dh = self.d_model / self.n_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q = q_row.data();
        let mut out = Tensor::zeros(1, self.d_model);
        let mut mean_weights = vec![0.0f32; visible.len()];
        // Head-dim dots and weighted accumulation go through the SIMD
        // backend; the path is resolved once per call, not per visible
        // index (the scalar arm reproduces the historical loops bitwise).
        let path = simd::active_path();
        for h in 0..self.n_heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let mut logits: Vec<f32> = visible
                .iter()
                .map(|&j| simd::dot_on(path, &q[lo..hi], &keys.row(j - base)[lo..hi]) * scale)
                .collect();
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for l in &mut logits {
                *l = (*l - max).exp();
                sum += *l;
            }
            let inv = 1.0 / sum;
            for ((&j, w), mw) in visible.iter().zip(&logits).zip(&mut mean_weights) {
                let w = w * inv;
                *mw += w / self.n_heads as f32;
                simd::axpy_on(
                    path,
                    &mut out.data_mut()[lo..hi],
                    w,
                    &values.row(j - base)[lo..hi],
                );
            }
        }
        let weights = visible.iter().copied().zip(mean_weights).collect();
        ATTN_ROW_NS.add_elapsed_ns(t0);
        (out, weights)
    }

    /// Tape-free completion of one row after [`Self::attend_row`]: applies
    /// the residual connections and the feed-forward network exactly as the
    /// training-path [`Self::forward`] does (dropout is identity at
    /// inference).
    pub fn finish_row(&self, store: &ParamStore, attended: &Tensor, x_row: &Tensor) -> Tensor {
        let projected = match &self.wo {
            Some(wo) => wo.apply(store, attended),
            None => attended.clone(),
        };
        let mid = if self.use_residual {
            projected.add(x_row)
        } else {
            projected
        };
        let ffn_out = self.ffn.apply(store, &mid);
        if self.use_residual {
            ffn_out.add(&mid)
        } else {
            ffn_out
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

    #[test]
    fn output_shape_and_row_stochastic_weights() {
        let mut store = ParamStore::new();
        let blk = block(&mut store, true);
        let sess = Session::new();
        let mut rng = KvecRng::seed_from_u64(1);
        let x = sess.input(Tensor::rand_uniform(5, 4, -1.0, 1.0, &mut rng));
        let (y, trace) = blk.forward(&sess, &store, x, &causal_mask(5), None);
        assert_eq!(y.shape(), (5, 4));
        assert_eq!(trace.weights.shape(), (5, 5));
        for r in 0..5 {
            let s: f32 = trace.weights.row(r).iter().sum();
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
        let (y1, _) = blk.forward(&sess1, &store, x1, &causal_mask(4), None);
        let first1 = y1.value().row(0).to_vec();

        let mut changed = base.clone();
        changed.row_mut(3).iter_mut().for_each(|v| *v += 5.0);
        let sess2 = Session::new();
        let x2 = sess2.input(changed);
        let (y2, _) = blk.forward(&sess2, &store, x2, &causal_mask(4), None);
        let first2 = y2.value().row(0).to_vec();
        assert_eq!(first1, first2);
    }

    #[test]
    fn mask_blocks_attention_edges() {
        let mut store = ParamStore::new();
        let blk = block(&mut store, false);
        let sess = Session::new();
        let mut rng = KvecRng::seed_from_u64(3);
        let x = sess.input(Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        // Row 2 may only see itself.
        let mut mask = causal_mask(3);
        mask[(2, 0)] = f32::NEG_INFINITY;
        mask[(2, 1)] = f32::NEG_INFINITY;
        let (_, trace) = blk.forward(&sess, &store, x, &mask, None);
        assert_eq!(trace.weights[(2, 0)], 0.0);
        assert_eq!(trace.weights[(2, 1)], 0.0);
        assert!((trace.weights[(2, 2)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut store = ParamStore::new();
        let blk = block(&mut store, true);
        let sess = Session::new();
        let mut rng = KvecRng::seed_from_u64(4);
        let x = sess.input(Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let (y, _) = blk.forward(&sess, &store, x, &causal_mask(3), None);
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
        let (batch_out, batch_trace) = blk.forward(&sess, &store, xv, &causal_mask(6), None);
        let batch_out = batch_out.value();

        // Incremental (inference) path.
        let keys = blk.project_k(&store, &x);
        let values = blk.project_v(&store, &x);
        for t in 0..6 {
            let q = blk.project_q(&store, &x.row_tensor(t));
            let visible: Vec<usize> = (0..=t).collect();
            let (attended, weights) = blk.attend_row(&q, &keys, &values, &visible);
            let row_out = blk.finish_row(&store, &attended, &x.row_tensor(t));
            assert!(
                row_out.allclose(&batch_out.row_tensor(t), 1e-4),
                "row {t} diverges"
            );
            for (j, w) in weights {
                assert!(
                    (w - batch_trace.weights[(t, j)]).abs() < 1e-5,
                    "weight ({t},{j})"
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
        let x = sess.input(Tensor::rand_uniform(5, 8, -1.0, 1.0, &mut rng));
        let (y, trace) = blk.forward(&sess, &store, x, &causal_mask(5), None);
        assert_eq!(y.shape(), (5, 8));
        // Mean head weights remain row-stochastic.
        for r in 0..5 {
            let s: f32 = trace.weights.row(r).iter().sum();
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
        let (batch_out, _) = blk.forward(&sess, &store, xv, &causal_mask(6), None);
        let batch_out = batch_out.value();

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
