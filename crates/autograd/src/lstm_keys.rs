//! The key-batched LSTM recurrence as one tape op ([`Var::lstm_keys`]):
//! the forward runs one [`LstmGates::round`] per step on gate weights
//! packed once per tape — the round batch evaluation runs too — and the
//! backward replays the generic
//! tape's rules for the same expressions, in its order, so the op has the
//! bits of stepping a taped cell.

use crate::graph::{add_to, Graph, Node, Op};
use crate::Var;
use kvec_tensor::{matmul_packed_into, matmul_tn_into, simd, Axis, LstmGates, Panels, Tensor};

/// One step of [`Var::lstm_keys`]: what its backward reads.
#[derive(Debug, Clone)]
pub(crate) struct LstmStep {
    /// Rows of the input fed to this step's state rows.
    items: Vec<usize>,
    /// `[h; x]`, `B x (H + D)`.
    cat: Tensor,
    /// Gate activations `[f | i | o | g]`, `B x 4H`.
    gates: Tensor,
    /// The new cell state `C'`, `B x H`.
    c: Tensor,
    /// `tanh(C')`, `B x H`.
    tanh_c: Tensor,
}

impl<'g> Var<'g> {
    /// The LSTM cell stepped over many sequences at once, as one tape
    /// node. `self` holds the inputs (`N x D`); `weights` are the `(W, b)`
    /// pairs of the forget, input, output and candidate gates, `W` being
    /// `(H + D) x H` over `[h; x]` and `b` being `1 x H`. Step `i` feeds
    /// rows `steps[i]` of `self` to `B_i = steps[i].len()` state rows; the
    /// batch never grows, and row `r` of step `i` continues row `r` of step
    /// `i - 1` (sequences ordered by decreasing length). Both states start
    /// at zero. The result stacks every step's `B_i x H` hidden states in
    /// step order.
    ///
    /// Row for row this is the taped expression of `kvec_nn`'s
    /// `LstmCell::step`, with the same bits forward and backward.
    pub fn lstm_keys(&self, weights: [(Var<'g>, Var<'g>); 4], steps: &[Vec<usize>]) -> Var<'g> {
        let nodes = self.graph.nodes.borrow();
        let e = &nodes[self.id.0].value;
        let value = |v: Var<'g>| {
            self.same_graph(v);
            &nodes[v.id.0].value
        };
        let gates_w = LstmGates::new(
            weights.map(|(w, _)| value(w)),
            weights.map(|(_, b)| value(b)),
        );
        let (k, hd) = (gates_w.width(), gates_w.hidden());
        assert!(k == hd + e.cols(), "lstm_keys gate shape");
        let path = simd::active_path();
        let mut out = Tensor::zeros(steps.iter().map(Vec::len).sum(), hd);
        let mut tape: Vec<LstmStep> = Vec::with_capacity(steps.len());
        let (mut row0, mut prev_row0) = (0, 0);
        for items in steps {
            let rows = items.len();
            let (mut cat, mut c) = (Tensor::zeros(rows, k), Tensor::zeros(rows, hd));
            if let Some(prev) = tape.last() {
                assert!(rows <= prev.items.len(), "lstm_keys batch grew");
                c.data_mut().copy_from_slice(&prev.c.data()[..rows * hd]);
            }
            for (r, &item) in items.iter().enumerate() {
                if !tape.is_empty() {
                    cat.row_mut(r)[..hd].copy_from_slice(out.row(prev_row0 + r));
                }
                cat.row_mut(r)[hd..].copy_from_slice(e.row(item));
            }
            let (mut gates, mut tanh_c) = (Tensor::zeros(rows, 4 * hd), Tensor::zeros(rows, hd));
            gates_w.round(
                path,
                cat.data(),
                gates.data_mut(),
                c.data_mut(),
                tanh_c.data_mut(),
                &mut out.data_mut()[row0 * hd..(row0 + rows) * hd],
            );
            let items = items.clone();
            tape.push(LstmStep {
                items,
                cat,
                gates,
                c,
                tanh_c,
            });
            (prev_row0, row0) = (row0, row0 + rows);
        }
        drop(nodes);
        let weights = weights.map(|(w, b)| (w.id.0, b.id.0));
        self.unary(
            out,
            Op::LstmKeys {
                e: self.id.0,
                weights,
                tape,
            },
        )
    }
}

/// The backward of [`Var::lstm_keys`] for the stacked hidden-state
/// gradient `grad`: the recurrence in reverse, last step first, with the
/// generic tape's rules for the taped cell's nodes, so every gradient sums
/// the same terms in the same order and has the same bits. Per step:
///
/// - the elementwise chain from `h'` and `C'` back to the gate
///   pre-activations `dG = [df | di | do | dg]`;
/// - per gate in sweep order (c, o, i, f): its bias row sum, and `dG *
///   W^T` summed into `d[h; x]`;
/// - `[h; x]^T * dG` added into `dW` (the outer product, row by row, for a
///   one-row step): one product for all four gates, whose output elements
///   are each gate's own chains;
/// - `dh` added into the previous step's rows of `grad`, `dx` into the
///   input's rows.
pub(crate) fn lstm_keys_backward(
    nodes: &mut [Node],
    e: usize,
    weights: &[(usize, usize); 4],
    tape: &[LstmStep],
    mut grad: Tensor,
) {
    let path = simd::active_path();
    let (hd, k) = (grad.cols(), nodes[weights[0].0].value.rows());
    let panels = weights.map(|(w, _)| Panels::nt(&nodes[w].value));
    // [dWf | dWi | dWo | dWc], continuing whatever the weights already hold.
    let zero_w = Tensor::zeros(k, hd);
    let held = weights.map(|(w, _)| nodes[w].grad.as_ref().unwrap_or(&zero_w));
    let mut dw = Tensor::concat_cols(&held).expect("gate gradients");
    let zeros = vec![0.0; hd];
    let (mut dq, mut part, mut dcat, mut dw_step) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut row0 = grad.rows();
    let mut dc_next: Option<Tensor> = None;
    for (i, step) in tape.iter().enumerate().rev() {
        let rows = step.items.len();
        row0 -= rows;
        let prev = i.checked_sub(1).map(|p| &tape[p]);
        let (mut dg, mut dc_in) = (Tensor::zeros(rows, 4 * hd), Tensor::zeros(rows, hd));
        for r in 0..rows {
            let gates = step.gates.row(r);
            let (f, rest) = gates.split_at(hd);
            let (ig, rest) = rest.split_at(hd);
            let (o, g) = rest.split_at(hd);
            let (dh, tanh_c) = (grad.row(row0 + r), step.tanh_c.row(r));
            let c_in = prev.map_or(&zeros[..], |prev| prev.c.row(r));
            // dC' = dC'(next step) + dh (.) o (.) (1 - tanh(C')^2), built
            // in the row that ends as dC = dC' (.) f.
            let dcp = dc_in.row_mut(r);
            for (((x, &dh), &o), &tc) in dcp.iter_mut().zip(dh).zip(o).zip(tanh_c) {
                *x = dh * o * (1.0 - tc * tc);
            }
            if let Some(dc) = dc_next.as_ref().filter(|dc| r < dc.rows()) {
                add_to(dcp, dc.row(r));
            }
            let (df, rest) = dg.row_mut(r).split_at_mut(hd);
            let (di, rest) = rest.split_at_mut(hd);
            let (d_o, d_g) = rest.split_at_mut(hd);
            for (((x, &dcp), &c), &f) in df.iter_mut().zip(&*dcp).zip(c_in).zip(f) {
                *x = dcp * c * f * (1.0 - f);
            }
            for (((x, &dcp), &g), &i) in di.iter_mut().zip(&*dcp).zip(g).zip(ig) {
                *x = dcp * g * i * (1.0 - i);
            }
            for (((x, &dh), &tc), &o) in d_o.iter_mut().zip(dh).zip(tanh_c).zip(o) {
                *x = dh * tc * o * (1.0 - o);
            }
            for (((x, &dcp), &i), &g) in d_g.iter_mut().zip(&*dcp).zip(ig).zip(g) {
                *x = dcp * i * (1.0 - g * g);
            }
            for (x, &f) in dcp.iter_mut().zip(f) {
                *x *= f;
            }
        }
        let bias = dg.sum_axis(Axis::Rows);
        for q in [3, 2, 1, 0] {
            let (w, b) = weights[q];
            Graph::accum(
                nodes,
                b,
                Tensor::row_vector(&bias.data()[q * hd..(q + 1) * hd]),
            );
            dq.clear();
            for r in 0..rows {
                dq.extend_from_slice(&dg.row(r)[q * hd..(q + 1) * hd]);
            }
            let out = if q == 3 { &mut dcat } else { &mut part };
            out.resize(rows * k, 0.0);
            matmul_packed_into(&dq, &nodes[w].value, &panels[q], out);
            if q != 3 {
                add_to(&mut dcat, &part);
            }
        }
        if rows == 1 {
            for (p, &a_p) in step.cat.data().iter().enumerate() {
                simd::axpy_on(path, dw.row_mut(p), a_p, dg.data());
            }
        } else {
            dw_step.resize(dw.data().len(), 0.0);
            matmul_tn_into(step.cat.data(), &dg, &mut dw_step);
            add_to(dw.data_mut(), &dw_step);
        }
        let dcat_rows = dcat.chunks_exact(k);
        if let Some(prev) = prev {
            let prev_row0 = row0 - prev.items.len();
            for (r, d) in dcat_rows.clone().enumerate() {
                add_to(grad.row_mut(prev_row0 + r), &d[..hd]);
            }
        }
        Graph::accum_into(nodes, e, |ge, _| {
            for (&item, d) in step.items.iter().zip(dcat_rows) {
                add_to(ge.row_mut(item), &d[hd..]);
            }
        });
        dc_next = Some(dc_in);
    }
    for (q, &(w, _)) in weights.iter().enumerate() {
        nodes[w].grad = Some(dw.slice_cols(q * hd, (q + 1) * hd).expect("gate block"));
    }
}
