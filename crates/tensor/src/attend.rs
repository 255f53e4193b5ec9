//! The attention row body, written once: the streaming engine, the
//! block-major inference encoder and the training tape's edge-list
//! attention all run [`attend_head_row`], so a row has the same bits on
//! every path that computes it.
//!
//! A row attends over a *visible list* — the ascending positions it may
//! see — rather than a `T x T` mask. [`VisibleLists`] holds every row's
//! list of a stream in CSR form.

use crate::simd::{self, KernelPath};

/// Every row's visible list in CSR form: row `i` sees
/// `positions[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibleLists {
    offsets: Vec<usize>,
    positions: Vec<usize>,
}

impl Default for VisibleLists {
    fn default() -> Self {
        Self::new()
    }
}

impl VisibleLists {
    /// No row yet.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            positions: Vec::new(),
        }
    }

    /// Builds the CSR from one list per row.
    pub fn from_rows<R: AsRef<[usize]>>(rows: &[R]) -> Self {
        let mut lists = Self::new();
        for row in rows {
            lists.push_row_with(|out| out.extend_from_slice(row.as_ref()));
        }
        lists
    }

    /// Appends the next row: `fill` appends its positions to the shared
    /// position buffer, whose earlier entries it must leave alone.
    pub fn push_row_with<R>(&mut self, fill: impl FnOnce(&mut Vec<usize>) -> R) -> R {
        let out = fill(&mut self.positions);
        self.offsets.push(self.positions.len());
        out
    }

    /// Removes every row, keeping both buffers' allocations.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.positions.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no row is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries over all rows.
    pub fn nnz(&self) -> usize {
        self.positions.len()
    }

    /// The entry range of row `i` (indices into a per-entry buffer).
    pub fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Row `i`'s visible positions.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.positions[self.span(i)]
    }
}

/// One head's key and value rows in row-major storage: position `j` is
/// the `q.len()` floats at `(j - base) * stride` of `keys` and `values`.
/// `stride` is the full row width and the slices start at the head's first
/// column; `base` is the first position a windowed cache still holds.
#[derive(Debug, Clone, Copy)]
pub struct HeadKv<'a> {
    /// Key rows, from the head's first column on.
    pub keys: &'a [f32],
    /// Value rows, from the head's first column on.
    pub values: &'a [f32],
    /// Floats between consecutive rows.
    pub stride: usize,
    /// The position stored at physical row 0.
    pub base: usize,
}

impl HeadKv<'_> {
    fn row(data: &[f32], at: usize, width: usize) -> &[f32] {
        &data[at..at + width]
    }
}

/// Attends one query row of one head over its visible list and writes the
/// attended row into `out` (`q.len()` wide, overwritten).
///
/// The scaled logits `dot_on(q, k_j) · scale` go into `logits` (grown as
/// needed, carries nothing between calls); the max is subtracted and one
/// [`simd::exp_on`] exponentiates them; their sum is taken in list order,
/// as the batch softmax sums its row; each value row is then added into
/// `out` once by `axpy_on`, weighted by `e_j · (1 / Σ)`. With a sink
/// `(weights, share)`, `e_j · (1 / Σ) / share` is added to `weights[j]`
/// for each entry — `out` has the same bits either way, and `logits`
/// keeps the `e_j` afterwards.
#[allow(clippy::too_many_arguments)]
pub fn attend_head_row(
    path: KernelPath,
    q: &[f32],
    kv: HeadKv<'_>,
    visible: &[usize],
    scale: f32,
    logits: &mut Vec<f32>,
    out: &mut [f32],
    weights: Option<(&mut [f32], f32)>,
) {
    let width = q.len();
    assert_eq!(out.len(), width, "attended row width mismatch");
    let at = |j: usize| (j - kv.base) * kv.stride;
    logits.clear();
    logits.extend(
        visible
            .iter()
            .map(|&j| simd::dot_on(path, q, HeadKv::row(kv.keys, at(j), width)) * scale),
    );
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for l in logits.iter_mut() {
        *l -= max;
    }
    simd::exp_on(path, logits);
    let inv = 1.0 / logits.iter().sum::<f32>();
    out.fill(0.0);
    for (&j, &e) in visible.iter().zip(logits.iter()) {
        simd::axpy_on(path, out, e * inv, HeadKv::row(kv.values, at(j), width));
    }
    if let Some((w, share)) = weights {
        assert_eq!(w.len(), visible.len(), "weight sink length");
        for (mw, &e) in w.iter_mut().zip(logits.iter()) {
            *mw += e * inv / share;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_rows_round_trip() {
        let lists = VisibleLists::from_rows(&[vec![0], vec![0, 1], vec![2]]);
        assert_eq!(lists.len(), 3);
        assert_eq!(lists.nnz(), 4);
        assert_eq!(lists.row(1), &[0, 1]);
        assert_eq!(lists.span(2), 3..4);
        assert!(VisibleLists::new().is_empty());
    }

    #[test]
    fn a_head_row_is_the_softmax_weighted_sum_of_its_visible_values() {
        // Two heads of width 2 interleaved in rows of width 4; head 1 of
        // row 2 attends over positions 0 and 2 of a cache whose base is 0.
        let keys = [1.0, 0.0, 0.5, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 1.0, -1.0, 0.5];
        let values = [
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
        ];
        let q = [0.3, -0.2];
        let kv = HeadKv {
            keys: &keys[2..],
            values: &values[2..],
            stride: 4,
            base: 0,
        };
        let (mut logits, mut out, mut w) = (Vec::new(), [f32::NAN; 2], [0.0; 2]);
        let path = simd::active_path();
        attend_head_row(
            path,
            &q,
            kv,
            &[0, 2],
            0.5,
            &mut logits,
            &mut out,
            Some((&mut w, 1.0)),
        );
        let z: [f32; 2] = [(0.3 * 0.5 - 0.2) * 0.5, (-0.3 - 0.2 * 0.5) * 0.5];
        let e = [(z[0] - z[0]).exp(), (z[1] - z[0]).exp()];
        let p = [e[0] / (e[0] + e[1]), e[1] / (e[0] + e[1])];
        for (got, want) in w.iter().zip(p) {
            assert!((got - want).abs() < 1e-6, "{w:?} vs {p:?}");
        }
        let want = [p[0] * 3.0 + p[1] * 11.0, p[0] * 4.0 + p[1] * 12.0];
        for (got, want) in out.iter().zip(want) {
            assert!((got - want).abs() < 1e-5, "{out:?}");
        }
        // A windowed cache that dropped position 0 reads the same bytes.
        let mut shifted = [f32::NAN; 2];
        let windowed = HeadKv {
            keys: &keys[6..],
            values: &values[6..],
            base: 1,
            ..kv
        };
        attend_head_row(
            path,
            &q,
            windowed,
            &[2],
            0.5,
            &mut logits,
            &mut shifted,
            None,
        );
        let mut alone = [f32::NAN; 2];
        attend_head_row(path, &q, kv, &[2], 0.5, &mut logits, &mut alone, None);
        assert_eq!(shifted, alone);
    }
}
