//! Matrix multiplication kernels: register-tiled, run on the calling thread.
//!
//! The `nn` and `tn` layouts share one kernel ([`scalar_block`] reads `a`
//! through a `(row, step)` stride pair, as the SIMD micro-kernels do): the
//! output is computed in [`MR`]`x`[`NR`] register tiles. The tile's
//! `MR * NR` accumulators stay in vector registers across the entire
//! inner-dimension loop, so the inner loop touches memory only to stream
//! one `NR`-wide slice of `b` and `MR` scalars of `a` per step — the output
//! is written exactly once, after the loop. That removes the per-step
//! output load/store traffic that bounds the naive `i-k-j` kernel. On the
//! scalar path the `nt` layout is dot-product shaped instead ([`nt_block`]:
//! [`MR`] independent dot chains run concurrently to hide FP add latency).
//!
//! Per output element the accumulation order is ascending over the inner
//! dimension — exactly the order of [`Tensor::matmul_reference`] — so the
//! scalar path is bit-identical to that oracle.
//!
//! All three layouts additionally dispatch to the SIMD kernels in
//! [`crate::simd`] — AVX-512 where the host has it, AVX2+FMA otherwise
//! (`KVEC_SIMD` overrides): the path is resolved once per product and the
//! right operand packed once (`nt` transposes it while packing, so all
//! three layouts run the one packed kernel and `matmul_nt` is bitwise
//! `matmul` of the explicit transpose). A single-row left operand skips
//! packing: `nn`/`tn` take the GEMV kernel, `nt` one [`simd::dot_on`] per
//! output.

use crate::{simd, Tensor, TensorError, TensorResult};
use kvec_obs::{LazyCounter, LazyHistogram};

/// Per-kernel instrumentation: cumulative wall time, call count, and FLOP
/// count (2·m·k·n multiply-adds per product). All three are lazy handles,
/// so with observability disabled each kernel call pays one relaxed atomic
/// load (inside [`kvec_obs::timer`]) and nothing else.
struct KernelObs {
    ns: LazyCounter,
    calls: LazyCounter,
    flops: LazyCounter,
}

impl KernelObs {
    const fn new(ns: &'static str, calls: &'static str, flops: &'static str) -> KernelObs {
        KernelObs {
            ns: LazyCounter::new(ns),
            calls: LazyCounter::new(calls),
            flops: LazyCounter::new(flops),
        }
    }

    #[inline]
    fn record(&self, started: Option<std::time::Instant>, m: usize, k: usize, n: usize) {
        if let Some(t0) = started {
            let ns = t0.elapsed().as_nanos() as u64;
            self.ns.add(ns);
            self.calls.add(1);
            self.flops.add(2 * (m * k * n) as u64);
            MATMUL_NS_HIST.record(ns as f64);
        }
    }
}

static NN_OBS: KernelObs = KernelObs::new(
    "kernel.matmul_nn.ns",
    "kernel.matmul_nn.calls",
    "kernel.matmul_nn.flops",
);
static TN_OBS: KernelObs = KernelObs::new(
    "kernel.matmul_tn.ns",
    "kernel.matmul_tn.calls",
    "kernel.matmul_tn.flops",
);
static NT_OBS: KernelObs = KernelObs::new(
    "kernel.matmul_nt.ns",
    "kernel.matmul_nt.calls",
    "kernel.matmul_nt.flops",
);
/// Per-call latency distribution across all three layouts.
static MATMUL_NS_HIST: LazyHistogram = LazyHistogram::new("kernel.matmul.ns");

/// Rows per register tile.
const MR: usize = 4;

/// Columns per register tile: `MR * NR = 64` accumulators span eight AVX2
/// (or four AVX-512) registers — enough independent chains to hide FP
/// latency — while leaving room for the streamed `b` slice and the
/// broadcast `a` scalars. The build targets baseline x86-64 (portable
/// binaries; AVX2 arrives via [`crate::simd`]'s runtime dispatch), so on
/// SSE2 the tile spills a little but still beats the naive kernel ~1.4x.
const NR: usize = 16;

/// Fixed-width view of `s[at..at + NR]`; the array type lets the compiler
/// keep the slice in registers and drop per-lane bounds checks.
#[inline(always)]
fn tile(s: &[f32], at: usize) -> &[f32; NR] {
    s[at..at + NR].try_into().expect("tile bounds")
}

/// `out[i0..i0+rows] = A[i0..i0+rows] * b` for row-major `b (k x n)`, where
/// `A`'s element `(i, p)` lives at `a[i * a_rs + p * a_ps]`: the stride pair
/// `(k, 1)` reads a row-major `m x k` operand (`nn`), `(1, m)` the transpose
/// of a row-major `k x m` one (`tn`) — the same pair the SIMD micro-kernels
/// take, so both layouts share one tile on every path. `out` is the zeroed
/// row block starting at absolute row `i0`. Inlined into both callers, which
/// each pass one stride as the constant 1, so the compiler folds the unit
/// stride into a copy per layout (out of line: 3-5% slower at 256^3).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat kernel signature
fn scalar_block(
    a: &[f32],
    a_rs: usize,
    a_ps: usize,
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    rows: usize,
    out: &mut [f32],
) {
    let mut i = 0;
    while i + MR <= rows {
        let a_base = (i0 + i) * a_rs;
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for p in 0..k {
                let bv = tile(b, p * n + j);
                for (r, row_acc) in acc.iter_mut().enumerate() {
                    let av = a[a_base + r * a_rs + p * a_ps];
                    for (c, &bj) in row_acc.iter_mut().zip(bv) {
                        *c += av * bj;
                    }
                }
            }
            for (r, row_acc) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(row_acc);
            }
            j += NR;
        }
        // Column tail: one column, MR independent accumulators.
        while j < n {
            let mut acc = [0.0f32; MR];
            for p in 0..k {
                let bv = b[p * n + j];
                for (r, c) in acc.iter_mut().enumerate() {
                    *c += a[a_base + r * a_rs + p * a_ps] * bv;
                }
            }
            for (r, &c) in acc.iter().enumerate() {
                out[(i + r) * n + j] = c;
            }
            j += 1;
        }
        i += MR;
    }
    // Row tail: single-row register tiles, same ascending-p order.
    while i < rows {
        let a_base = (i0 + i) * a_rs;
        let o_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [0.0f32; NR];
            for p in 0..k {
                let av = a[a_base + p * a_ps];
                for (c, &bj) in acc.iter_mut().zip(tile(b, p * n + j)) {
                    *c += av * bj;
                }
            }
            o_row[j..j + NR].copy_from_slice(&acc);
            j += NR;
        }
        while j < n {
            let mut c = 0.0f32;
            for p in 0..k {
                c += a[a_base + p * a_ps] * b[p * n + j];
            }
            o_row[j] = c;
            j += 1;
        }
        i += 1;
    }
}

/// `out[i0..i0+rows] = a[i0..i0+rows] * b^T` for `a (m x k)`, `b (n x k)`:
/// every output element is a dot product of two contiguous rows. Four
/// output columns are accumulated per pass so four independent dot chains
/// hide the FP add latency; each chain still sums in ascending order.
fn nt_block(a: &[f32], b: &[f32], k: usize, n: usize, i0: usize, rows: usize, out: &mut [f32]) {
    for i in 0..rows {
        let a_row = &a[(i0 + i) * k..(i0 + i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + MR <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut c0, mut c1, mut c2, mut c3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (((&av, &v0), (&v1, &v2)), &v3) in
                a_row.iter().zip(b0).zip(b1.iter().zip(b2)).zip(b3)
            {
                c0 += av * v0;
                c1 += av * v1;
                c2 += av * v2;
                c3 += av * v3;
            }
            o_row[j] = c0;
            o_row[j + 1] = c1;
            o_row[j + 2] = c2;
            o_row[j + 3] = c3;
            j += MR;
        }
        while j < n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            o_row[j] = acc;
            j += 1;
        }
    }
}

/// The shared body of [`Tensor::try_matmul`], [`Tensor::matmul_tn`],
/// [`matmul_into`] and [`matmul_packed_into`]: `out = A (m x k) * b (k x
/// n)` with `A` read through the stride pair of [`scalar_block`]. Resolves
/// the kernel path once and packs `b` once where the path calls for it,
/// unless `packed` already holds its panels. Every element of `out` is
/// overwritten.
#[inline(always)]
fn strided_matmul(
    a: &[f32],
    (a_rs, a_ps): (usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    (obs, packed): (&KernelObs, Option<&simd::PackedB>),
    out: &mut [f32],
) {
    let t0 = kvec_obs::timer();
    match simd::active_path() {
        simd::KernelPath::Scalar => scalar_block(a, a_rs, a_ps, b, k, n, 0, m, out),
        _ if k == 0 => out.fill(0.0),
        path if m == 1 => {
            // Row-vector GEMV fast path: `b` is read once, packing would
            // double the traffic. A `k x 1` `tn` operand is the same
            // contiguous buffer as a `1 x k` row vector.
            simd::gemv_nn(path, a, b, k, n, out);
        }
        path => {
            let fresh;
            let packed = match packed {
                Some(packed) => packed,
                None => {
                    fresh = simd::pack_b(path, b, k, n);
                    &fresh
                }
            };
            simd::gemm_packed(path, a, (a_rs, a_ps), packed, 0, m, out);
        }
    }
    obs.record(t0, m, k, n);
}

/// The shared body of [`Tensor::matmul_nt`] and [`matmul_packed_into`]:
/// `out = a (m x k) * b (n x k)^T`, with `b`'s transposed panels taken from
/// `packed` when given.
fn nt_matmul(
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    packed: Option<&simd::PackedB>,
    out: &mut [f32],
) {
    let t0 = kvec_obs::timer();
    match simd::active_path() {
        simd::KernelPath::Scalar => nt_block(a, b, k, n, 0, m, out),
        path if m == 1 => {
            // One output per row of `b`: both operands are already
            // contiguous along `k`, so packing would only add traffic.
            for (o, b_row) in out.iter_mut().zip(b.chunks_exact(k.max(1))) {
                *o = simd::dot_on(path, a, b_row);
            }
        }
        path => {
            let fresh;
            let packed = match packed {
                Some(packed) => packed,
                None => {
                    fresh = simd::pack_bt(path, b, k, n);
                    &fresh
                }
            };
            simd::gemm_packed(path, a, (k, 1), packed, 0, m, out);
        }
    }
    NT_OBS.record(t0, m, k, n);
}

/// A right operand packed once for the kernel path active when it was
/// built, for many products against it ([`matmul_packed_into`]): the
/// panels of `b` for `a * b` ([`Panels::nn`]) or of `b^T` for `a * b^T`
/// ([`Panels::nt`]). The scalar path packs nothing.
pub struct Panels {
    packed: Option<simd::PackedB>,
    nt: bool,
    shape: (usize, usize),
}

impl Panels {
    /// Panels of `b (k x n)`, the right operand of `a * b`.
    pub fn nn(b: &Tensor) -> Panels {
        let (k, n) = b.shape();
        Self::pack(b, false, |path| simd::pack_b(path, b.data(), k, n))
    }

    /// Panels of `b (n x k)` transposed, the right operand of `a * b^T`.
    pub fn nt(b: &Tensor) -> Panels {
        let (n, k) = b.shape();
        Self::pack(b, true, |path| simd::pack_bt(path, b.data(), k, n))
    }

    fn pack(b: &Tensor, nt: bool, pack: impl FnOnce(simd::KernelPath) -> simd::PackedB) -> Self {
        let path = simd::active_path();
        let packed = (path != simd::KernelPath::Scalar).then(|| pack(path));
        Panels {
            packed,
            nt,
            shape: b.shape(),
        }
    }
}

/// `out = a * b`, or `a * b^T` for [`Panels::nt`], for a row-major `a` with
/// as many columns as the product's inner dimension and `panels` packed
/// from `b`: the dispatch, bits and `kernel.matmul_nn`/`kernel.matmul_nt`
/// counters of [`matmul_into`] and [`Tensor::matmul_nt`], without packing
/// `b` again. A one-row `a` still takes the GEMV (`nn`) or the dots (`nt`)
/// on `b` itself. Panics on a shape mismatch.
pub fn matmul_packed_into(a: &[f32], b: &Tensor, panels: &Panels, out: &mut [f32]) {
    assert_eq!(
        b.shape(),
        panels.shape,
        "panels packed from another operand"
    );
    let (k, n) = if panels.nt {
        (b.cols(), b.rows())
    } else {
        b.shape()
    };
    let m = a.len().checked_div(k).unwrap_or(out.len() / n.max(1));
    assert!(
        a.len() == m * k && out.len() == m * n,
        "matmul_packed_into: {} x {k}*{k} x {n} into {}",
        a.len(),
        out.len()
    );
    let packed = panels.packed.as_ref();
    if panels.nt {
        nt_matmul(a, b.data(), (m, k, n), packed, out);
    } else {
        strided_matmul(a, (k, 1), b.data(), (m, k, n), (&NN_OBS, packed), out);
    }
}

/// `out (m x n) = a (m x k) * b (k x n)` for a row-major slice `a` with `m
/// = a.len() / k`, written into a caller slice: [`Tensor::matmul`]'s
/// dispatch and bits without the output allocation (a one-row `a` takes
/// the GEMV, as `matmul` does). Panics on a length mismatch.
pub fn matmul_into(a: &[f32], b: &Tensor, out: &mut [f32]) {
    let (k, n) = b.shape();
    let m = a.len().checked_div(k).unwrap_or(out.len() / n.max(1));
    assert!(
        a.len() == m * k && out.len() == m * n,
        "matmul_into: {} x {k}*{k} x {n} into {}",
        a.len(),
        out.len()
    );
    strided_matmul(a, (k, 1), b.data(), (m, k, n), (&NN_OBS, None), out);
}

/// `out (m x n) = a^T * b` for a row-major slice `a` (`k x m`, with `k =
/// b.rows()`), written into a caller slice: [`Tensor::matmul_tn`]'s
/// dispatch, bits and `kernel.matmul_tn` counters without the output
/// allocation.
pub fn matmul_tn_into(a: &[f32], b: &Tensor, out: &mut [f32]) {
    let (k, n) = b.shape();
    let m = a.len().checked_div(k).unwrap_or(out.len() / n.max(1));
    assert!(
        a.len() == k * m && out.len() == m * n,
        "matmul_tn_into: ({k} x {m})^T*{k} x {n} into {}",
        out.len()
    );
    strided_matmul(a, (1, m), b.data(), (m, k, n), (&TN_OBS, None), out);
}

impl Tensor {
    /// `self (m x k) * other (k x n) -> (m x n)`. Errors on inner-dimension
    /// mismatch.
    pub fn try_matmul(&self, other: &Tensor) -> TensorResult<Tensor> {
        if self.cols() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k) = self.shape();
        let (a, b, n) = (self.data(), other.data(), other.cols());
        let mut out = Tensor::zeros(m, n);
        strided_matmul(a, (k, 1), b, (m, k, n), (&NN_OBS, None), out.data_mut());
        Ok(out)
    }

    /// `self * other`; panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.try_matmul(other).expect("matmul")
    }

    /// `self (k x m)^T * other (k x n) -> (m x n)` without materializing the
    /// transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> TensorResult<Tensor> {
        if self.rows() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Tensor::zeros(self.cols(), other.cols());
        matmul_tn_into(self.data(), other, out.data_mut());
        Ok(out)
    }

    /// `self (m x k) * other (n x k)^T -> (m x n)` without materializing the
    /// transpose. On the SIMD paths `other` is transposed while it is
    /// packed, so for `m > 1` the result is bitwise
    /// `self.matmul(&other.transpose())`; for `m == 1` each output is one
    /// [`simd::dot_on`] over two contiguous rows.
    pub fn matmul_nt(&self, other: &Tensor) -> TensorResult<Tensor> {
        if self.cols() != other.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = other.rows();
        let mut out = Tensor::zeros(m, n);
        nt_matmul(self.data(), other.data(), (m, k, n), None, out.data_mut());
        Ok(out)
    }

    /// The naive scalar `i-k-j` kernel, kept verbatim as the oracle for
    /// property tests. Not used on any hot path.
    pub fn matmul_reference(&self, other: &Tensor) -> TensorResult<Tensor> {
        if self.cols() != other.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let m = self.rows();
        let n = other.cols();
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(p);
                let o_row = &mut out.data_mut()[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Dot product of two vectors (any shapes with equal element counts).
    pub fn dot(&self, other: &Tensor) -> TensorResult<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvecRng;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn matmul_tn_agrees_with_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 1.0]]).unwrap();
        let got = a.matmul_tn(&a).unwrap(); // a^T a : 3x3
        let want = a.transpose().matmul(&a);
        assert!(got.allclose(&want, 1e-6));
        assert!(a.matmul_tn(&Tensor::zeros(3, 1)).is_err());
    }

    #[test]
    fn matmul_nt_agrees_with_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 1.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![2.0, 1.0, -1.0]]).unwrap();
        let got = a.matmul_nt(&b).unwrap(); // a b^T : 2x1
        let want = a.matmul(&b.transpose());
        assert!(got.allclose(&want, 1e-6));
        assert!(a.matmul_nt(&Tensor::zeros(1, 2)).is_err());
    }

    #[test]
    fn dot_product() {
        let a = Tensor::row_vector(&[1.0, 2.0, 3.0]);
        let b = Tensor::col_vector(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros(1, 2)).is_err());
    }

    #[test]
    fn blocked_kernels_match_reference_bitwise() {
        // The scalar kernels reproduce the reference accumulation order
        // exactly, so this is a bit-identity check — pinned to the scalar
        // path (the AVX2 path uses FMA and is compared by ULP in the
        // property suites instead).
        let mut rng = KvecRng::seed_from_u64(42);
        crate::simd::with_simd(crate::simd::SimdMode::Scalar, || {
            for &(m, k, n) in &[
                (1usize, 1usize, 1usize),
                (3, 5, 7),
                (4, 4, 4),
                (13, 9, 21),
                (70, 33, 66),
            ] {
                let a = Tensor::rand_uniform(m, k, -2.0, 2.0, &mut rng);
                let b = Tensor::rand_uniform(k, n, -2.0, 2.0, &mut rng);
                let want = a.matmul_reference(&b).unwrap();
                assert_eq!(a.matmul(&b).data(), want.data(), "nn {m}x{k}x{n}");

                let at = a.transpose();
                assert_eq!(
                    at.matmul_tn(&b).unwrap().data(),
                    want.data(),
                    "tn {m}x{k}x{n}"
                );

                let bt = b.transpose();
                let nt = a.matmul_nt(&bt).unwrap();
                assert!(nt.allclose(&want, 1e-5), "nt {m}x{k}x{n}");
            }
        });
    }

    /// The SIMD modes this host can actually run (scalar always).
    fn runnable_modes() -> Vec<crate::simd::SimdMode> {
        let mut modes = vec![crate::simd::SimdMode::Scalar];
        if crate::simd::avx2_supported() {
            modes.push(crate::simd::SimdMode::Avx2);
        }
        if crate::simd::avx512_supported() {
            modes.push(crate::simd::SimdMode::Avx512);
        }
        modes
    }

    #[test]
    fn simd_kernels_agree_with_reference() {
        // Coarse allclose sanity check on every supported SIMD tier
        // (skips quietly on hosts with none); the tight ULP contract
        // lives in the property suites.
        let mut rng = KvecRng::seed_from_u64(43);
        for mode in runnable_modes() {
            if mode == crate::simd::SimdMode::Scalar {
                continue;
            }
            crate::simd::with_simd(mode, || {
                for &(m, k, n) in &[(1usize, 48usize, 33usize), (5, 7, 3), (70, 33, 66)] {
                    let a = Tensor::rand_uniform(m, k, -2.0, 2.0, &mut rng);
                    let b = Tensor::rand_uniform(k, n, -2.0, 2.0, &mut rng);
                    let want = a.matmul_reference(&b).unwrap();
                    assert!(
                        a.matmul(&b).allclose(&want, 1e-4),
                        "nn {m}x{k}x{n} {mode:?}"
                    );
                    let at = a.transpose();
                    assert!(
                        at.matmul_tn(&b).unwrap().allclose(&want, 1e-4),
                        "tn {m}x{k}x{n} {mode:?}"
                    );
                    let bt = b.transpose();
                    assert!(
                        a.matmul_nt(&bt).unwrap().allclose(&want, 1e-4),
                        "nt {m}x{k}x{n} {mode:?}"
                    );
                }
            });
        }
    }
}
