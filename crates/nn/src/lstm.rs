//! LSTM-style gated cell.
//!
//! This single cell implements both
//! - the paper's **embedding fusion** operation (Section IV-B, "Embedding
//!   Fusion"): `s_k^(t) = Fusion(s_k^(t-1), E_e^(t))` with forget/input/
//!   output gates over the concatenation `[s_{t-1}; x_t]`, and
//! - the recurrent feature extractor of the **EARLIEST** baseline.
//!
//! KVEC's training fuses every key of a scenario through
//! [`LstmCell::step_keys`], one tape op whose forward runs one
//! [`LstmGates::round`] per step on gate weights packed once per tape;
//! batch evaluation runs the same rounds on [`LstmCell::packed_gates`].
//! Only EARLIEST's training still steps through the taped
//! [`LstmCell::step`]. The streaming engine runs [`LstmCell::step_into`],
//! which advances a state row in place on caller buffers — four gate
//! GEMVs into one `4H` strip, then [`lstm_cell_rows`]: one vectorised
//! sigmoid over `3H`, one tanh over `H` — and allocates nothing.

use crate::{Linear, ParamId, ParamStore, Session};
use kvec_autograd::Var;
use kvec_tensor::{lstm_cell_rows, simd, KvecRng, LstmGates, Tensor};

/// The `(hidden, cell)` pair carried between steps: one row per sequence
/// stepped together.
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

    /// Tape-free step for inference paths; returns the new `(h, c)`. An
    /// allocating wrapper over [`Self::step_into`], with its bits.
    pub fn step_tensors(
        &self,
        store: &ParamStore,
        x: &Tensor,
        h: &Tensor,
        c: &Tensor,
    ) -> (Tensor, Tensor) {
        let (mut h, mut c) = (h.clone(), c.clone());
        self.step_into(store, x.data(), h.data_mut(), c.data_mut(), &mut Vec::new());
        (h, c)
    }

    /// Tape-free step of one state row, in place: [`Self::step`]'s update
    /// of `h` and `c` (each `hidden` wide) by input `x`, with the same
    /// expressions and bits. `scratch` holds `[h; x]`, the four gate
    /// pre-activations `[f | i | o | g]` and `tanh(C')`; it is grown on
    /// first use and carries nothing between calls, so one buffer serves
    /// every key.
    pub fn step_into(
        &self,
        store: &ParamStore,
        x: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let hd = self.hidden;
        assert_eq!(x.len(), self.input_dim, "lstm input shape");
        assert!(h.len() == hd && c.len() == hd, "lstm state shape");
        let cat_len = hd + self.input_dim;
        scratch.resize(cat_len + 5 * hd, 0.0);
        let (cat, rest) = scratch.split_at_mut(cat_len);
        let (gates, tanh_c) = rest.split_at_mut(4 * hd);
        cat[..hd].copy_from_slice(h);
        cat[hd..].copy_from_slice(x);
        for (lin, out) in self.gates().into_iter().zip(gates.chunks_exact_mut(hd)) {
            lin.apply_into(store, cat, out);
        }
        lstm_cell_rows(simd::active_path(), hd, gates, c, tanh_c, h);
    }

    /// [`Self::step`] for many sequences at once, as one tape op
    /// ([`Var::lstm_keys`]) with this cell's gates: step `i` feeds rows
    /// `steps[i]` of `x` to the first `steps[i].len()` sequences, ordered
    /// by decreasing length. Returns every step's hidden states stacked in
    /// step order, with the bits of stepping [`Self::step`] batch by batch.
    pub fn step_keys<'s>(
        &self,
        sess: &'s Session,
        store: &ParamStore,
        x: Var<'s>,
        steps: &[Vec<usize>],
    ) -> Var<'s> {
        let bind = |lin: &Linear| match lin.param_ids()[..] {
            [w, b] => (sess.param(store, w), sess.param(store, b)),
            _ => unreachable!("gates carry a bias"),
        };
        x.lstm_keys(self.gates().map(bind), steps)
    }

    /// The four gates packed once for many [`LstmGates::round`]s while
    /// `store` is unchanged: the rounds batch evaluation steps its keys
    /// through, with [`Self::step_into`]'s bits row for row.
    pub fn packed_gates(&self, store: &ParamStore) -> LstmGates {
        let [w, b] = [0, 1].map(|i| self.gates().map(|lin| store.value(lin.param_ids()[i])));
        LstmGates::new(w, b)
    }

    fn gates(&self) -> [&Linear; 4] {
        [&self.wf, &self.wi, &self.wo, &self.wc]
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
        self.gates()
            .iter()
            .flat_map(|lin| lin.param_ids())
            .collect()
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

    #[test]
    fn step_into_matches_step_tensors_and_the_taped_step_bitwise() {
        // Widths that leave vector tails on both SIMD tiers; several steps,
        // so the in-place state feeds back into the gates.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for hidden in [16usize, 40, 64] {
            let input_dim = 24;
            let mut store = ParamStore::new();
            let mut rng = KvecRng::seed_from_u64(hidden as u64);
            let cell = LstmCell::new(&mut store, "cell", input_dim, hidden, &mut rng);
            let xs = Tensor::rand_uniform(6, input_dim, -2.0, 2.0, &mut rng);
            let (mut h, mut c) = (vec![0.0f32; hidden], vec![0.0f32; hidden]);
            let (mut th, mut tc) = (Tensor::zeros(1, hidden), Tensor::zeros(1, hidden));
            let sess = Session::new();
            let mut taped = cell.zero_state(&sess);
            let mut scratch = Vec::new();
            for t in 0..xs.rows() {
                let x = xs.row_tensor(t);
                cell.step_into(&store, x.data(), &mut h, &mut c, &mut scratch);
                (th, tc) = cell.step_tensors(&store, &x, &th, &tc);
                taped = cell.step(&sess, &store, sess.input(x), taped);
                assert_eq!(bits(&h), bits(th.data()), "h, H = {hidden}, step {t}");
                assert_eq!(bits(&c), bits(tc.data()), "c, H = {hidden}, step {t}");
                assert_eq!(bits(&h), bits(taped.h.value().data()), "taped h {hidden}");
                assert_eq!(bits(&c), bits(taped.c.value().data()), "taped c {hidden}");
            }
        }
    }

    #[test]
    fn gate_rounds_over_many_rows_equal_one_row_steps_bitwise() {
        // Batch evaluation's lockstep fusion: `n` state rows gathered into
        // one round on gates packed once, against `step_into` row by row,
        // on every kernel path. Row counts leave tails of the 4-row tile.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (input_dim, hidden) = (24, 40);
        let mut store = ParamStore::new();
        let mut rng = KvecRng::seed_from_u64(14);
        let cell = LstmCell::new(&mut store, "cell", input_dim, hidden, &mut rng);
        let mut modes = vec![simd::SimdMode::Scalar];
        modes.extend(simd::avx2_supported().then_some(simd::SimdMode::Avx2));
        modes.extend(simd::avx512_supported().then_some(simd::SimdMode::Avx512));
        for mode in modes {
            for n in [1usize, 2, 5, 8] {
                let x = Tensor::rand_uniform(n, input_dim, -2.0, 2.0, &mut rng);
                let h0 = Tensor::rand_uniform(n, hidden, -1.0, 1.0, &mut rng);
                let c0 = Tensor::rand_uniform(n, hidden, -1.0, 1.0, &mut rng);
                simd::with_simd(mode, || {
                    let gates = cell.packed_gates(&store);
                    let cat = Tensor::concat_cols(&[&h0, &x]).unwrap();
                    let (mut c, mut h) = (c0.clone(), Tensor::zeros(n, hidden));
                    let (mut z, mut tanh_c) = (vec![0.0; n * 4 * hidden], vec![0.0; n * hidden]);
                    let path = simd::active_path();
                    gates.round(
                        path,
                        cat.data(),
                        &mut z,
                        c.data_mut(),
                        &mut tanh_c,
                        h.data_mut(),
                    );
                    for r in 0..n {
                        let (mut hr, mut cr) = (h0.row(r).to_vec(), c0.row(r).to_vec());
                        cell.step_into(&store, x.row(r), &mut hr, &mut cr, &mut Vec::new());
                        assert_eq!(bits(h.row(r)), bits(&hr), "{mode:?} h, {n} rows, row {r}");
                        assert_eq!(bits(c.row(r)), bits(&cr), "{mode:?} c, {n} rows, row {r}");
                    }
                });
            }
        }
    }

    /// Sum of `h (.) w` as a scalar node: hands `h` exactly `w` upstream.
    fn weighted<'s>(h: Var<'s>, w: &Tensor) -> Var<'s> {
        h.mul_const(w).sum_all()
    }

    #[test]
    fn batched_steps_over_ragged_lengths_equal_per_key_steps() {
        // Four sequences, longest first, stepped (a) one key at a time, (b)
        // all together through the taped step, dropping finished keys off
        // the end of the batch, and (c) as one `step_keys` op, the way the
        // trainer fuses a scenario's keys. The last two steps have one
        // active key.
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
        // Key 1's state after its second item is read twice, as the
        // trainer reads a key's halting and sampled positions.
        let w_extra = Tensor::rand_uniform(1, hidden, -1.0, 1.0, &mut rng);

        let mut per_key_store = store.clone();
        let sess = Session::new();
        let mut per_key_h = Vec::new();
        let mut loss = sess.scalar(0.0);
        for (k, (x, w)) in xs.iter().zip(&ws).enumerate() {
            let mut state = cell.zero_state(&sess);
            let mut hs = Vec::new();
            for t in 0..x.rows() {
                state = cell.step(&sess, &per_key_store, sess.input(x.row_tensor(t)), state);
                loss = loss.add(weighted(state.h, &w.row_tensor(t)));
                if (k, t) == (1, 1) {
                    loss = loss.add(weighted(state.h, &w_extra));
                }
                hs.push(state.h.value());
            }
            per_key_h.push(hs);
        }
        sess.backward(loss);
        sess.accumulate_grads(&mut per_key_store);

        // (b) and (c) read one input stacked step-major: step `t` feeds
        // rows `steps[t]`, one per key still active, and row 5 is key 1's
        // second item.
        let mut rows = 0..;
        let steps: Vec<Vec<usize>> = (0..lens[0])
            .map(|t| {
                let active = lens.iter().filter(|&&len| len > t).count();
                rows.by_ref().take(active).collect()
            })
            .collect();
        let stack = |ts: &[Tensor]| {
            let rows: Vec<Tensor> = (0..lens[0])
                .flat_map(|t| {
                    ts.iter()
                        .filter(move |x| x.rows() > t)
                        .map(move |x| x.row_tensor(t))
                })
                .collect();
            Tensor::concat_rows(&rows.iter().collect::<Vec<_>>()).unwrap()
        };
        let (x, w) = (stack(&xs), stack(&ws));
        // The stacked states, `x`'s gradient and the parameter gradients.
        let batched = |fused: bool| {
            let mut store = store.clone();
            let sess = Session::new();
            let xv = sess.input(x.clone());
            let h = if fused {
                cell.step_keys(&sess, &store, xv, &steps)
            } else {
                let zeros = || sess.input(Tensor::zeros(lens.len(), hidden));
                let mut state = LstmState {
                    h: zeros(),
                    c: zeros(),
                };
                let mut hs = Vec::new();
                for items in &steps {
                    if items.len() < state.h.shape().0 {
                        state = LstmState {
                            h: state.h.slice_rows(0, items.len()),
                            c: state.c.slice_rows(0, items.len()),
                        };
                    }
                    state = cell.step(&sess, &store, xv.gather_rows(items), state);
                    hs.push(state.h);
                }
                hs.into_iter().reduce(|a, b| a.concat_rows(b)).unwrap()
            };
            sess.backward(weighted(h, &w).add(weighted(h.row(5), &w_extra)));
            sess.accumulate_grads(&mut store);
            let mut out = vec![h.value(), sess.graph().grad(xv).expect("x reached")];
            out.extend(cell.param_ids().iter().map(|&id| store.grad(id).clone()));
            out
        };

        let taped = batched(false);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (t, items) in steps.iter().enumerate() {
            for (k, &row) in items.iter().enumerate() {
                let (got, want) = (taped[0].row(row), per_key_h[k][t].data());
                assert_eq!(bits(got), bits(want), "key {k} step {t}");
            }
        }
        for (got, id) in taped[2..].iter().zip(cell.param_ids()) {
            let want = per_key_store.grad(id);
            let scale = want.frobenius_norm().max(1e-6);
            let diff = got.sub(want).frobenius_norm();
            assert!(
                diff <= 1e-5 * scale,
                "{}: batched gradient off by {diff} (norm {scale})",
                store.name(id)
            );
        }

        // The op has the taped steps' bits, forward and backward, on
        // every kernel path.
        let mut modes = vec![simd::SimdMode::Scalar];
        modes.extend(simd::avx2_supported().then_some(simd::SimdMode::Avx2));
        modes.extend(simd::avx512_supported().then_some(simd::SimdMode::Avx512));
        for mode in modes {
            let (op, taped) = simd::with_simd(mode, || (batched(true), batched(false)));
            for (n, (a, b)) in op.iter().zip(&taped).enumerate() {
                assert_eq!(bits(a.data()), bits(b.data()), "{mode:?}: output {n}");
            }
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
