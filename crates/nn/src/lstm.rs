//! LSTM-style gated cell.
//!
//! This single cell implements both
//! - the paper's **embedding fusion** operation (Section IV-B, "Embedding
//!   Fusion"): `s_k^(t) = Fusion(s_k^(t-1), E_e^(t))` with forget/input/
//!   output gates over the concatenation `[s_{t-1}; x_t]`, and
//! - the recurrent feature extractor of the **EARLIEST** baseline.

use crate::{Linear, ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_tensor::{KvecRng, Tensor};

/// The `(hidden, cell)` pair carried between steps: one row per sequence
/// stepped together (a single row everywhere but batched training).
#[derive(Clone, Copy)]
pub struct LstmState<'s> {
    /// Hidden state `s` (`B x hidden`) — the sequence representation.
    pub h: Var<'s>,
    /// Cell memory `C` (`B x hidden`).
    pub c: Var<'s>,
}

/// A gated recurrent cell with forget/input/output gates.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wf: Linear,
    wi: Linear,
    wo: Linear,
    wc: Linear,
    input_dim: usize,
    hidden: usize,
}

impl LstmCell {
    /// Creates a cell taking `input_dim`-wide inputs and carrying a
    /// `hidden`-wide state.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden: usize,
        rng: &mut KvecRng,
    ) -> Self {
        let cat = input_dim + hidden;
        Self {
            wf: Linear::new(store, &format!("{name}.wf"), cat, hidden, rng),
            wi: Linear::new(store, &format!("{name}.wi"), cat, hidden, rng),
            wo: Linear::new(store, &format!("{name}.wo"), cat, hidden, rng),
            wc: Linear::new(store, &format!("{name}.wc"), cat, hidden, rng),
            input_dim,
            hidden,
        }
    }

    /// The all-zero initial state.
    pub fn zero_state<'s>(&self, sess: &'s Session) -> LstmState<'s> {
        LstmState {
            h: sess.input(Tensor::zeros(1, self.hidden)),
            c: sess.input(Tensor::zeros(1, self.hidden)),
        }
    }

    /// One gated update:
    ///
    /// ```text
    /// f = sigmoid(Wf [h; x] + bf)       (forget gate)
    /// i = sigmoid(Wi [h; x] + bi)       (input gate)
    /// o = sigmoid(Wo [h; x] + bo)       (output gate)
    /// C' = f (.) C + i (.) tanh(Wc [h; x] + bc)
    /// h' = o (.) tanh(C')
    /// ```
    ///
    /// `x` is `B x input_dim` against a `B`-row state: every op above is
    /// row-wise, so `B` independent sequences advance in one call and row
    /// `b` of the result has the bits a single-row call on row `b` gives.
    pub fn step<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        x: Var<'s>,
        state: LstmState<'s>,
    ) -> LstmState<'s> {
        let rows = state.h.shape().0;
        assert_eq!(x.shape(), (rows, self.input_dim), "lstm input shape");
        let cat = state.h.concat_cols(x);
        let f = self.wf.forward(sess, store, cat).sigmoid();
        let i = self.wi.forward(sess, store, cat).sigmoid();
        let o = self.wo.forward(sess, store, cat).sigmoid();
        let candidate = self.wc.forward(sess, store, cat).tanh();
        let c = f.hadamard(state.c).add(i.hadamard(candidate));
        let h = o.hadamard(c.tanh());
        LstmState { h, c }
    }

    /// Tape-free step for inference paths; returns the new `(h, c)`.
    pub fn step_tensors(
        &self,
        store: &ParamStore,
        x: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Tensor, Tensor) {
        let cat = Tensor::concat_cols(&[h, x]).expect("lstm concat");
        let f = self.wf.apply(store, &cat).sigmoid();
        let i = self.wi.apply(store, &cat).sigmoid();
        let o = self.wo.apply(store, &cat).sigmoid();
        let candidate = self.wc.apply(store, &cat).tanh();
        let c_new = f.hadamard(c).add(&i.hadamard(&candidate));
        let h_new = o.hadamard(&c_new.tanh());
        (h_new, c_new)
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// All parameter ids of the four gates.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.wf.param_ids();
        ids.extend(self.wi.param_ids());
        ids.extend(self.wo.param_ids());
        ids.extend(self.wc.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(store: &mut ParamStore) -> LstmCell {
        let mut rng = KvecRng::seed_from_u64(11);
        LstmCell::new(store, "cell", 3, 4, &mut rng)
    }

    #[test]
    fn state_shapes_are_stable_across_steps() {
        let mut store = ParamStore::new();
        let cell = cell(&mut store);
        let sess = Session::new();
        let mut state = cell.zero_state(&sess);
        for step in 0..5 {
            let x = sess.input(Tensor::full(1, 3, step as f32));
            state = cell.step(&sess, &store, x, state);
            assert_eq!(state.h.shape(), (1, 4));
            assert_eq!(state.c.shape(), (1, 4));
        }
    }

    #[test]
    fn hidden_state_is_bounded_by_tanh() {
        let mut store = ParamStore::new();
        let cell = cell(&mut store);
        let sess = Session::new();
        let mut state = cell.zero_state(&sess);
        for _ in 0..20 {
            let x = sess.input(Tensor::full(1, 3, 100.0));
            state = cell.step(&sess, &store, x, state);
        }
        let h = state.h.value();
        assert!(h.max() <= 1.0 && h.min() >= -1.0);
        assert!(!h.has_non_finite());
    }

    #[test]
    fn different_inputs_yield_different_states() {
        let mut store = ParamStore::new();
        let cell = cell(&mut store);
        let sess = Session::new();
        let s0 = cell.zero_state(&sess);
        let a = cell.step(&sess, &store, sess.input(Tensor::full(1, 3, 1.0)), s0);
        let s0b = cell.zero_state(&sess);
        let b = cell.step(&sess, &store, sess.input(Tensor::full(1, 3, -1.0)), s0b);
        assert!(!a.h.value().allclose(&b.h.value(), 1e-6));
    }

    #[test]
    fn bptt_reaches_parameters_through_time() {
        let mut store = ParamStore::new();
        let cell = cell(&mut store);
        let sess = Session::new();
        let mut state = cell.zero_state(&sess);
        for _ in 0..3 {
            let x = sess.input(Tensor::full(1, 3, 0.5));
            state = cell.step(&sess, &store, x, state);
        }
        sess.backward(state.h.square().sum_all());
        sess.accumulate_grads(&mut store);
        for id in cell.param_ids() {
            assert!(
                store.grad(id).frobenius_norm() > 0.0,
                "no grad for {}",
                store.name(id)
            );
        }
    }

    /// Sum of `h (.) w` as a scalar node: hands `h` exactly `w` upstream.
    fn weighted<'s>(h: Var<'s>, w: &Tensor) -> Var<'s> {
        h.mul_const(w).sum_all()
    }

    #[test]
    fn batched_steps_over_ragged_lengths_equal_per_key_steps() {
        // Four sequences, longest first, stepped (a) one key at a time and
        // (b) all together, dropping finished keys off the end of the
        // batch — the way the trainer fuses a scenario's keys.
        let lens = [5usize, 3, 3, 1];
        // Wide enough that the gate products cross both tiers' vector
        // widths and leave a scalar tail.
        let (input_dim, hidden) = (12, 40);
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(12);
        let cell = LstmCell::new(&mut store, "cell", input_dim, hidden, &mut rng);
        let xs: Vec<Tensor> = lens
            .iter()
            .map(|&len| Tensor::rand_uniform(len, input_dim, -1.0, 1.0, &mut rng))
            .collect();
        let ws: Vec<Tensor> = lens
            .iter()
            .map(|&len| Tensor::rand_uniform(len, hidden, -1.0, 1.0, &mut rng))
            .collect();

        let mut per_key_store = store.clone();
        let sess = Session::new();
        let mut per_key_h = Vec::new();
        let mut loss = sess.scalar(0.0);
        for (x, w) in xs.iter().zip(&ws) {
            let mut state = cell.zero_state(&sess);
            let mut hs = Vec::new();
            for t in 0..x.rows() {
                state = cell.step(&sess, &per_key_store, sess.input(x.row_tensor(t)), state);
                loss = loss.add(weighted(state.h, &w.row_tensor(t)));
                hs.push(state.h.value());
            }
            per_key_h.push(hs);
        }
        sess.backward(loss);
        sess.accumulate_grads(&mut per_key_store);

        let sess = Session::new();
        let zeros = || sess.input(Tensor::zeros(lens.len(), hidden));
        let mut state = LstmState {
            h: zeros(),
            c: zeros(),
        };
        let mut loss = sess.scalar(0.0);
        for t in 0..lens[0] {
            let active = lens.iter().filter(|&&len| len > t).count();
            if active < state.h.shape().0 {
                state = LstmState {
                    h: state.h.slice_rows(0, active),
                    c: state.c.slice_rows(0, active),
                };
            }
            let rows = |ts: &[Tensor]| {
                let rows: Vec<Tensor> = ts[..active].iter().map(|x| x.row_tensor(t)).collect();
                Tensor::concat_rows(&rows.iter().collect::<Vec<_>>()).unwrap()
            };
            state = cell.step(&sess, &store, sess.input(rows(&xs)), state);
            loss = loss.add(weighted(state.h, &rows(&ws)));
            let h = state.h.value();
            for (k, per_key) in per_key_h.iter().enumerate().take(active) {
                let (got, want) = (h.row(k), per_key[t].data());
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "key {k} step {t}");
            }
        }
        sess.backward(loss);
        sess.accumulate_grads(&mut store);

        for id in cell.param_ids() {
            let (got, want) = (store.grad(id), per_key_store.grad(id));
            let scale = want.frobenius_norm().max(1e-6);
            let diff = got.sub(want).frobenius_norm();
            assert!(
                diff <= 1e-5 * scale,
                "{}: batched gradient off by {diff} (norm {scale})",
                store.name(id)
            );
        }
    }

    #[test]
    fn batched_step_gradient_matches_finite_differences() {
        let mut store = ParamStore::new();
        let cell = cell(&mut store);
        let mut rng = KvecRng::seed_from_u64(13);
        let x = Tensor::rand_uniform(3, 3, -1.0, 1.0, &mut rng);
        let h0 = Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng);
        let c0 = Tensor::rand_uniform(3, 4, -1.0, 1.0, &mut rng);
        // Two steps, so the gradient also flows through the carried state.
        let loss_and_grad = |x: &Tensor| {
            let sess = Session::new();
            let xv = sess.input(x.clone());
            let state = LstmState {
                h: sess.input(h0.clone()),
                c: sess.input(c0.clone()),
            };
            let state = cell.step(&sess, &store, xv, state);
            let state = cell.step(&sess, &store, xv.scale(0.5), state);
            let loss = state.h.square().sum_all().add(state.c.sum_all());
            let value = loss.value().item();
            sess.backward(loss);
            (value, sess.graph().grad(xv).expect("x reached"))
        };
        let (_, analytic) = loss_and_grad(&x);
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x.clone();
            minus.data_mut()[i] -= eps;
            let numeric = (loss_and_grad(&plus).0 - loss_and_grad(&minus).0) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= 1e-2 * a.abs().max(numeric.abs()).max(1.0),
                "element {i}: analytic {a}, numeric {numeric}"
            );
        }
    }
}
