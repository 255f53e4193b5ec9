//! The LSTM cell's body, shared by the tape-free step, the key-batched
//! training op and batch evaluation's lockstep fusion, so all of them have
//! the same bits by construction: the elementwise update
//! ([`lstm_cell_rows`]) and one round over many state rows on gates packed
//! once ([`LstmGates::round`]).

use crate::simd::{self, KernelPath};
use crate::{matmul_packed_into, Panels, Tensor};

/// Advances `c.len() / hidden` state rows through the cell's gates, given
/// their pre-activations. Per row, `gates` holds `[f | i | o | g]` (each
/// `hidden` wide) and is left holding `sigmoid` of the first three and
/// `tanh` of `g`; `c` holds `C` and is left holding `C' = f (.) C + i (.)
/// g`; `tanh_c` receives `tanh(C')` and `h` receives `o (.) tanh(C')`.
pub fn lstm_cell_rows(
    path: KernelPath,
    hidden: usize,
    gates: &mut [f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    assert!(
        gates.len() == 4 * c.len() && tanh_c.len() == c.len() && h.len() == c.len(),
        "lstm cell row shapes"
    );
    let rows = gates
        .chunks_exact_mut(4 * hidden)
        .zip(c.chunks_exact_mut(hidden))
        .zip(tanh_c.chunks_exact_mut(hidden))
        .zip(h.chunks_exact_mut(hidden));
    for (((gates, c), tanh_c), h) in rows {
        let (sig, g) = gates.split_at_mut(3 * hidden);
        simd::sigmoid_on(path, sig);
        simd::tanh_on(path, g);
        let (f, rest) = sig.split_at(hidden);
        let (i, o) = rest.split_at(hidden);
        for ((((cj, tj), &fj), &ij), &gj) in c
            .iter_mut()
            .zip(tanh_c.iter_mut())
            .zip(f)
            .zip(i)
            .zip(g.iter())
        {
            *cj = fj * *cj + ij * gj;
            *tj = *cj;
        }
        simd::tanh_on(path, tanh_c);
        for ((hj, &oj), &tj) in h.iter_mut().zip(o).zip(tanh_c.iter()) {
            *hj = oj * tj;
        }
    }
}

/// An LSTM cell's four gates side by side for many rounds: `[Wf | Wi | Wo
/// | Wc]` (`(H + D) x 4H`, over `[h; x]`) packed once ([`Panels::nn`]),
/// and `[bf | bi | bo | bc]`. Every output element of the one product is
/// the same ascending-`k` chain a per-gate product gives it, and a GEMM row
/// has the GEMV's bits, so a round over `B` rows has, row for row, the bits
/// of stepping each row alone through its four gates.
pub struct LstmGates {
    w: Tensor,
    b: Vec<f32>,
    panels: Panels,
}

impl LstmGates {
    /// Packs the gates from their `(H + D) x H` weights and `1 x H`
    /// biases, in the order forget, input, output, candidate.
    pub fn new(w: [&Tensor; 4], b: [&Tensor; 4]) -> Self {
        let w = Tensor::concat_cols(&w).expect("gate weights");
        let b = Tensor::concat_cols(&b).expect("gate biases").into_vec();
        assert!(
            w.cols() == b.len() && w.cols().is_multiple_of(4) && w.rows() >= w.cols() / 4,
            "lstm gate shape"
        );
        let panels = Panels::nn(&w);
        Self { w, b, panels }
    }

    /// Hidden width `H`.
    pub fn hidden(&self) -> usize {
        self.b.len() / 4
    }

    /// Width of a `[h; x]` row, `H + D`.
    pub fn width(&self) -> usize {
        self.w.rows()
    }

    /// One round of the cell over `B = c.len() / H` state rows: `cat`
    /// holds their gathered `[h; x]` rows (`B x (H + D)`); one product on
    /// the packed gates writes the pre-activations into `gates` (`B x
    /// 4H`), the biases are added, and [`lstm_cell_rows`] advances `c` and
    /// writes `tanh_c` and the new hidden rows `h`.
    pub fn round(
        &self,
        path: KernelPath,
        cat: &[f32],
        gates: &mut [f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        matmul_packed_into(cat, &self.w, &self.panels, gates);
        for row in gates.chunks_exact_mut(self.b.len()) {
            for (g, &b) in row.iter_mut().zip(&self.b) {
                *g += b;
            }
        }
        lstm_cell_rows(path, self.hidden(), gates, c, tanh_c, h);
    }
}
