//! Property-based tests of the tensor kernels (ported from proptest to the
//! in-tree `kvec-check` harness).

use kvec_check::{check, check_n, ulp_distance, Gen};
use kvec_tensor::{simd, Axis, KvecRng, SimdMode, Tensor};

fn gen_tensor(g: &mut Gen, max_dim: usize) -> Tensor {
    let r = g.usize_in(1, max_dim + 1);
    let c = g.usize_in(1, max_dim + 1);
    Tensor::from_vec(r, c, g.vec_f32(r * c, -10.0, 10.0)).unwrap()
}

fn gen_pair_same_shape(g: &mut Gen, max_dim: usize) -> (Tensor, Tensor) {
    let r = g.usize_in(1, max_dim + 1);
    let c = g.usize_in(1, max_dim + 1);
    (
        Tensor::from_vec(r, c, g.vec_f32(r * c, -10.0, 10.0)).unwrap(),
        Tensor::from_vec(r, c, g.vec_f32(r * c, -10.0, 10.0)).unwrap(),
    )
}

#[test]
fn add_commutes() {
    check("add_commutes", |g| {
        let (a, b) = gen_pair_same_shape(g, 8);
        assert!(a.add(&b).allclose(&b.add(&a), 1e-5));
    });
}

#[test]
fn sub_then_add_round_trips() {
    check("sub_then_add_round_trips", |g| {
        let (a, b) = gen_pair_same_shape(g, 8);
        assert!(a.sub(&b).add(&b).allclose(&a, 1e-4));
    });
}

#[test]
fn hadamard_with_ones_is_identity() {
    check("hadamard_with_ones_is_identity", |g| {
        let a = gen_tensor(g, 8);
        let ones = Tensor::ones(a.rows(), a.cols());
        assert!(a.hadamard(&ones).allclose(&a, 0.0));
    });
}

#[test]
fn transpose_is_an_involution() {
    check("transpose_is_an_involution", |g| {
        let a = gen_tensor(g, 8);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn matmul_identity_left_and_right() {
    check("matmul_identity_left_and_right", |g| {
        let a = gen_tensor(g, 6);
        assert!(Tensor::eye(a.rows()).matmul(&a).allclose(&a, 1e-5));
        assert!(a.matmul(&Tensor::eye(a.cols())).allclose(&a, 1e-5));
    });
}

#[test]
fn matmul_transposed_variants_agree() {
    check("matmul_transposed_variants_agree", |g| {
        let a = gen_tensor(g, 6);
        let n = g.usize_in(1, 6);
        // tn: a^T b with b sharing a's row count.
        let b = Tensor::from_vec(
            a.rows(),
            n,
            (0..a.rows() * n).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let tn = a.matmul_tn(&b).unwrap();
        assert!(tn.allclose(&a.transpose().matmul(&b), 1e-4));

        // nt: a c^T with c sharing a's column count.
        let c = Tensor::from_vec(
            n,
            a.cols(),
            (0..n * a.cols()).map(|i| (i as f32 * 0.53).cos()).collect(),
        )
        .unwrap();
        let nt = a.matmul_nt(&c).unwrap();
        assert!(nt.allclose(&a.matmul(&c.transpose()), 1e-4));
    });
}

#[test]
fn softmax_rows_are_distributions() {
    check("softmax_rows_are_distributions", |g| {
        let a = gen_tensor(g, 8);
        let s = a.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    });
}

#[test]
fn softmax_preserves_argmax() {
    check("softmax_preserves_argmax", |g| {
        let a = gen_tensor(g, 8);
        let s = a.softmax_rows();
        for r in 0..a.rows() {
            assert_eq!(a.argmax_row(r), s.argmax_row(r));
        }
    });
}

#[test]
fn log_softmax_exp_matches_softmax() {
    check("log_softmax_exp_matches_softmax", |g| {
        let a = gen_tensor(g, 6);
        let ls = a.log_softmax_rows().map(f32::exp);
        assert!(ls.allclose(&a.softmax_rows(), 1e-4));
    });
}

#[test]
fn axis_sums_total_matches_full_sum() {
    check("axis_sums_total_matches_full_sum", |g| {
        let a = gen_tensor(g, 8);
        let total = a.sum();
        let tol = 1e-3 + total.abs() * 1e-5;
        assert!((a.sum_axis(Axis::Rows).sum() - total).abs() < tol);
        assert!((a.sum_axis(Axis::Cols).sum() - total).abs() < tol);
    });
}

#[test]
fn concat_then_slice_round_trips() {
    check("concat_then_slice_round_trips", |g| {
        let (a, b) = gen_pair_same_shape(g, 6);
        let cat = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(cat.slice_rows(0, a.rows()).unwrap(), a);
        assert_eq!(cat.slice_rows(a.rows(), cat.rows()).unwrap(), b);
        let cat = Tensor::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(cat.slice_cols(0, a.cols()).unwrap(), a);
        assert_eq!(cat.slice_cols(a.cols(), cat.cols()).unwrap(), b);
    });
}

#[test]
fn push_row_equals_concat() {
    check("push_row_equals_concat", |g| {
        let a = gen_tensor(g, 6);
        let mut grown = Tensor::zeros(0, 0);
        for r in 0..a.rows() {
            grown.push_row(a.row(r));
        }
        assert_eq!(grown, a);
    });
}

#[test]
fn frobenius_norm_is_scale_homogeneous() {
    check("frobenius_norm_is_scale_homogeneous", |g| {
        let a = gen_tensor(g, 6);
        let s = g.f32_in(-4.0, 4.0);
        let lhs = a.scale(s).frobenius_norm();
        let rhs = s.abs() * a.frobenius_norm();
        assert!((lhs - rhs).abs() < 1e-2 + rhs * 1e-4);
    });
}

#[test]
fn json_round_trip_preserves_tensor() {
    check("json_round_trip_preserves_tensor", |g| {
        let a = gen_tensor(g, 8);
        let text = kvec_json::encode(&a);
        let back: Tensor = kvec_json::decode(&text).unwrap();
        assert_eq!(back, a);
    });
}

// Larger-shape properties of the register-tiled kernels. Shapes go
// up to 512x512 outputs, so the operands are filled from a seeded KvecRng
// and the case count is kept small. Pinned to the scalar path: these are
// bit-identity assertions against the reference accumulation order, which
// the SIMD paths legitimately break (FMA); see the ULP suites below for
// the cross-path contract.
#[test]
fn large_kernels_match_reference() {
    check_n("large_kernels_match_reference", 8, |g| {
        let m = g.usize_in(1, 513);
        let k = g.usize_in(1, 65);
        let n = g.usize_in(1, 513);
        let mut rng = KvecRng::seed_from_u64(g.u64());
        let a = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(k, n, -1.0, 1.0, &mut rng);
        let reference = a.matmul_reference(&b).unwrap();

        simd::with_simd(SimdMode::Scalar, || {
            // nn/tn are bit-identical to the reference (same per-element
            // accumulation order); nt reorders its dot sums.
            assert_eq!(a.matmul(&b).data(), reference.data());

            let at = a.transpose();
            assert_eq!(at.matmul_tn(&b).unwrap().data(), reference.data());

            let bt = b.transpose();
            assert!(a.matmul_nt(&bt).unwrap().allclose(&reference, 1e-5));
        });
    });
}

/// Asserts every element of `got` is within `max_ulp` of `want`, OR within
/// a rigorous absolute bound for chains that cancel: the worst-case
/// rounding gap between a k-long FMA chain and a k-long mul-then-add chain
/// is at most `~2k * eps * sum_p |a_ip * b_pj|`, which `abs_bound` carries
/// per element (computed as `|a| *_reference |b|`). Most elements pass the
/// tight ULP leg; the absolute leg only matters near cancellation, where
/// ULP distance is meaningless but the absolute error is still provably
/// tiny.
fn assert_ulp_close(
    got: &Tensor,
    want: &Tensor,
    abs_bound: &Tensor,
    k: usize,
    mode: &str,
    label: &str,
) {
    const MAX_ULP: u64 = 16;
    assert_eq!(got.shape(), want.shape(), "{mode}/{label}: shape");
    let abs_tol = 2.0 * k as f32 * f32::EPSILON;
    for (i, ((&g, &w), &bnd)) in got
        .data()
        .iter()
        .zip(want.data())
        .zip(abs_bound.data())
        .enumerate()
    {
        let ulp = ulp_distance(g, w);
        if ulp <= MAX_ULP || (g - w).abs() <= abs_tol * bnd {
            continue;
        }
        panic!("{mode}/{label}: element {i}: {g} vs {w} is {ulp} ULP apart (abs bound {bnd})");
    }
}

/// Every SIMD mode runnable on this host (never includes scalar).
fn simd_modes() -> Vec<SimdMode> {
    let mut modes = Vec::new();
    if simd::avx2_supported() {
        modes.push(SimdMode::Avx2);
    }
    if simd::avx512_supported() {
        modes.push(SimdMode::Avx512);
    }
    modes
}

/// Scalar plus every SIMD mode runnable on this host.
fn all_modes() -> Vec<SimdMode> {
    let mut modes = vec![SimdMode::Scalar];
    modes.extend(simd_modes());
    modes
}

// The cross-path contract: every SIMD tier (AVX2+FMA and, where the host
// has it, AVX-512) agrees with the scalar reference to tight ULP
// tolerance on every layout, across random shapes with ragged tails
// (dimensions straddling the 8/16/32-lane widths). Skips quietly on
// hosts without SIMD support — the CI scalar leg still runs the suite
// body to exercise the guard.
#[test]
fn simd_kernels_match_reference_within_ulp() {
    let modes = simd_modes();
    if modes.is_empty() {
        return;
    }
    check_n("simd_kernels_match_reference_within_ulp", 12, |g| {
        // Dimension draws deliberately cross the 8/16/32-lane boundaries.
        let m = g.usize_in(1, 70);
        let k = g.usize_in(1, 130);
        let n = g.usize_in(1, 161);
        let mut rng = KvecRng::seed_from_u64(g.u64());
        let a = Tensor::rand_uniform(m, k, -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(k, n, -1.0, 1.0, &mut rng);
        let reference = a.matmul_reference(&b).unwrap();
        let abs_bound = a.map(f32::abs).matmul_reference(&b.map(f32::abs)).unwrap();

        for &mode in &modes {
            simd::with_simd(mode, || {
                let nn = a.matmul(&b);
                assert_ulp_close(&nn, &reference, &abs_bound, k, mode.name(), "nn");

                let at = a.transpose();
                let tn = at.matmul_tn(&b).unwrap();
                assert_ulp_close(&tn, &reference, &abs_bound, k, mode.name(), "tn");

                let bt = b.transpose();
                let nt = a.matmul_nt(&bt).unwrap();
                assert_ulp_close(&nt, &reference, &abs_bound, k, mode.name(), "nt");
            });
        }
    });
}

// Edge cases both paths must handle identically: empty outputs, zero inner
// dimension, single rows/columns.
#[test]
fn kernel_edge_shapes_on_both_paths() {
    for mode in all_modes() {
        simd::with_simd(mode, || {
            // m == 0: empty output, no kernel invocation.
            let a = Tensor::zeros(0, 5);
            let b = Tensor::zeros(5, 7);
            assert_eq!(a.matmul(&b).shape(), (0, 7));

            // k == 0: the empty sum — all zeros by convention.
            let a = Tensor::from_vec(4, 0, vec![]).unwrap();
            let b = Tensor::from_vec(0, 3, vec![]).unwrap();
            let out = a.matmul(&b);
            assert_eq!(out.shape(), (4, 3));
            assert!(out.data().iter().all(|&v| v == 0.0), "{mode:?}");

            // n == 0: zero-width output.
            let a = Tensor::ones(3, 4);
            let b = Tensor::zeros(4, 0);
            assert_eq!(a.matmul(&b).shape(), (3, 0));

            // 1x1x1 and single-row GEMV shapes (ragged n).
            let a = Tensor::scalar(3.0);
            let b = Tensor::scalar(-2.0);
            assert_eq!(a.matmul(&b).item(), -6.0);
            let mut rng = KvecRng::seed_from_u64(11);
            let a = Tensor::rand_uniform(1, 24, -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(24, 19, -1.0, 1.0, &mut rng);
            let want = a.matmul_reference(&b).unwrap();
            assert!(a.matmul(&b).allclose(&want, 1e-5), "{mode:?} gemv");
        });
    }
}

// Within-path determinism: the same inputs through the same kernel path
// produce the same output bits, run to run (cross-path bits legitimately
// differ; see the ULP suite).
#[test]
fn same_input_twice_is_bitwise_identical_per_path() {
    let mut rng = KvecRng::seed_from_u64(77);
    let a = Tensor::rand_uniform(37, 41, -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(41, 29, -1.0, 1.0, &mut rng);
    for mode in all_modes() {
        simd::with_simd(mode, || {
            let first = a.matmul(&b);
            let second = a.matmul(&b);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&first), bits(&second), "{mode:?} nn rerun");

            let at = a.transpose();
            assert_eq!(
                bits(&at.matmul_tn(&b).unwrap()),
                bits(&at.matmul_tn(&b).unwrap()),
                "{mode:?} tn rerun"
            );
            let bt = b.transpose();
            assert_eq!(
                bits(&a.matmul_nt(&bt).unwrap()),
                bits(&a.matmul_nt(&bt).unwrap()),
                "{mode:?} nt rerun"
            );
        });
    }
}
