//! The LSTM cell's elementwise body, shared by the tape-free step and the
//! key-batched training op, so both have the same bits by construction.

use crate::simd::{self, KernelPath};

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
