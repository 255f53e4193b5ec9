//! Bit-level pins for the SIMD kernels in `kvec_tensor::simd`.
//!
//! The module's determinism contract is "each `nn`/`tn`/`nt`/`gemv`/`axpy`
//! output element is one ascending-`k` FMA chain at any lane width", so
//! those kernels must agree *bitwise* across the 256-bit and 512-bit
//! tiers, between the GEMV fast path and the packed GEMM, and between
//! `matmul_nt` and `matmul` of the explicit transpose. The one reduction
//! kernel, `dot_on` (which also serves `matmul_nt` with a single-row left
//! operand), sums lanes in a path-specific order instead; its bits are
//! pinned per path by a golden hash. The transcendentals (`exp_on`,
//! `sigmoid_on`, `tanh_on`) are pinned the same ways: bitwise across the
//! SIMD tiers, ≤ 2 ULP of f64 on every path, their special inputs, and one
//! golden hash per path.

use kvec_check::ulp_distance;
use kvec_tensor::{matmul_packed_into, simd, KernelPath, KvecRng, Panels, SimdMode, Tensor};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn rand(rows: usize, cols: usize, rng: &mut KvecRng) -> Tensor {
    Tensor::rand_uniform(rows, cols, -1.0, 1.0, rng)
}

/// The SIMD tiers this host can run, as (request, resolved path) pairs.
fn simd_tiers() -> Vec<(SimdMode, KernelPath)> {
    let mut tiers = Vec::new();
    if simd::avx2_supported() {
        tiers.push((SimdMode::Avx2, KernelPath::Avx2));
    }
    if simd::avx512_supported() {
        tiers.push((SimdMode::Avx512, KernelPath::Avx512));
    }
    tiers
}

const RAGGED_SHAPES: [(usize, usize, usize); 6] = [
    (5, 17, 33),
    (37, 300, 70),
    (4, 256, 32),
    (9, 64, 64),
    (1, 64, 19),
    (1, 300, 70),
];

#[test]
fn avx2_and_avx512_tiers_are_bitwise_equal() {
    if !(simd::avx2_supported() && simd::avx512_supported()) {
        return; // needs both tiers on one host
    }
    let mut rng = KvecRng::seed_from_u64(2024);
    for (m, k, n) in RAGGED_SHAPES {
        let a = rand(m, k, &mut rng);
        let b = rand(k, n, &mut rng);
        let at = a.transpose();
        let on = |mode| {
            simd::with_simd(mode, || {
                let nn = bits(a.matmul(&b).data());
                let tn = bits(at.matmul_tn(&b).unwrap().data());
                (nn, tn)
            })
        };
        let (nn256, tn256) = on(SimdMode::Avx2);
        let (nn512, tn512) = on(SimdMode::Avx512);
        assert_eq!(nn256, nn512, "nn {m}x{k}x{n}");
        assert_eq!(tn256, tn512, "tn {m}x{k}x{n}");
        assert_eq!(nn256, tn256, "nn vs tn {m}x{k}x{n}");
    }
    for len in 0..=70 {
        let x = rand(1, len, &mut rng);
        let y = rand(1, len, &mut rng);
        let run = |path| {
            let mut acc = y.data().to_vec();
            simd::axpy_on(path, &mut acc, 0.37, x.data());
            bits(&acc)
        };
        assert_eq!(run(KernelPath::Avx2), run(KernelPath::Avx512), "axpy {len}");
    }
}

#[test]
fn gemv_fast_path_equals_packed_gemm_row_bitwise() {
    // Every column width 1..=140 walks the whole 4W -> 2W -> W -> scalar
    // ladder of both tiers (4W = 64 columns on AVX-512, 32 on AVX2); the
    // inner dimensions cross the KC = 256 cache block.
    let mut rng = KvecRng::seed_from_u64(19);
    for (mode, _) in simd_tiers() {
        simd::with_simd(mode, || {
            for k in [1usize, 17, 256, 300, 513] {
                for n in 1..=140 {
                    let a = rand(5, k, &mut rng);
                    let b = rand(k, n, &mut rng);
                    let full = a.matmul(&b);
                    let full_tn = a.transpose().matmul_tn(&b).unwrap();
                    assert_eq!(
                        bits(full.data()),
                        bits(full_tn.data()),
                        "{mode:?} tn {k}x{n}"
                    );
                    for i in 0..5 {
                        let want = bits(full.row(i));
                        let row = a.row_tensor(i);
                        assert_eq!(
                            bits(row.matmul(&b).data()),
                            want,
                            "{mode:?} nn {k}x{n} row {i}"
                        );
                        let col = row.transpose();
                        assert_eq!(
                            bits(col.matmul_tn(&b).unwrap().data()),
                            want,
                            "{mode:?} tn {k}x{n} row {i}"
                        );
                    }
                }
            }
        });
    }
}

#[test]
fn dot_and_axpy_match_f64_reference_at_every_length() {
    let mut rng = KvecRng::seed_from_u64(70);
    let mut paths = vec![KernelPath::Scalar];
    paths.extend(simd_tiers().into_iter().map(|(_, path)| path));
    for len in 0..=70 {
        let a = rand(1, len, &mut rng);
        let b = rand(1, len, &mut rng);
        let (a, b) = (a.data(), b.data());
        let products = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64);
        let want: f64 = products.clone().sum();
        let magnitude: f64 = products.map(f64::abs).sum();
        // Any summation order of `len` products errs by at most
        // ~len * eps * sum |a_i b_i|.
        let tol = (len + 1) as f64 * f32::EPSILON as f64 * magnitude;
        for &path in &paths {
            let got = simd::dot_on(path, a, b) as f64;
            assert!(
                (got - want).abs() <= tol,
                "{path:?} dot {len}: {got} vs {want}"
            );

            let mut y = b.to_vec();
            simd::axpy_on(path, &mut y, -0.61, a);
            for (p, &got) in y.iter().enumerate() {
                let want = (-0.61f32 as f64 * a[p] as f64 + b[p] as f64) as f32;
                // One rounding (FMA) or two (scalar mul, add).
                assert!(
                    ulp_distance(got, want) <= 2 || (got - want).abs() <= f32::EPSILON,
                    "{path:?} axpy {len}[{p}]: {got} vs {want}"
                );
            }
        }
    }
}

fn fnv1a(hash: &mut u64, values: &[f32]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash = (*hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `matmul_nt` packs its right operand transposed and runs the packed
/// kernel, so for `m > 1` it is `matmul` of the explicit transpose bit for
/// bit; with one left row each output is one `dot_on` over two contiguous
/// rows (no packing), pinned to that instead.
#[test]
fn matmul_nt_equals_matmul_of_the_transpose_bitwise() {
    let mut rng = KvecRng::seed_from_u64(15);
    let small_m = [1usize, 2, 5].map(|m| (m, 64, 19));
    for (mode, path) in simd_tiers() {
        simd::with_simd(mode, || {
            for (m, k, n) in RAGGED_SHAPES.into_iter().chain(small_m) {
                let a = rand(m, k, &mut rng);
                let b = rand(n, k, &mut rng);
                let got = a.matmul_nt(&b).unwrap();
                let want = if m == 1 {
                    let dots = (0..n).map(|j| simd::dot_on(path, a.data(), b.row(j)));
                    Tensor::row_vector(&dots.collect::<Vec<_>>())
                } else {
                    a.matmul(&b.transpose())
                };
                assert_eq!(bits(got.data()), bits(want.data()), "{mode:?} {m}x{k}x{n}");
            }
        });
    }
}

/// Panels packed once serve every left operand with the bits of the
/// unpacked product: `matmul` for `nn` panels, `matmul_nt` for `nt`
/// panels, on every tier, for inner dimensions on both sides of the
/// `KC = 256` cache block.
#[test]
fn panels_packed_once_give_every_left_operand_the_products_bits() {
    let mut rng = KvecRng::seed_from_u64(47);
    let mut modes = vec![SimdMode::Scalar];
    modes.extend(simd_tiers().into_iter().map(|(mode, _)| mode));
    for mode in modes {
        simd::with_simd(mode, || {
            for k in [7usize, 64, 255, 256, 257, 300] {
                let n = 37;
                let (b, bt) = (rand(k, n, &mut rng), rand(n, k, &mut rng));
                let (nn, nt) = (Panels::nn(&b), Panels::nt(&bt));
                for m in [1usize, 2, 5, 8] {
                    let a = rand(m, k, &mut rng);
                    let mut out = vec![0.0; m * n];
                    matmul_packed_into(a.data(), &b, &nn, &mut out);
                    assert_eq!(bits(&out), bits(a.matmul(&b).data()), "{mode:?} nn {m}x{k}");
                    matmul_packed_into(a.data(), &bt, &nt, &mut out);
                    let want = a.matmul_nt(&bt).unwrap();
                    assert_eq!(bits(&out), bits(want.data()), "{mode:?} nt {m}x{k}");
                }
            }
        });
    }
}

/// `dot_on` reduces lanes in an order specific to each path (`hsum` of 8
/// vs 16 lanes), so its bits are pinned per path. The constants were
/// captured from the two-tier implementation that preceded the shared
/// kernel bodies; a changed hash means a reordered reduction, which breaks
/// crash-replay exactness for recorded runs.
#[test]
fn reduction_kernels_keep_their_golden_bits_per_path() {
    for (tier, golden) in [
        ((SimdMode::Avx2, KernelPath::Avx2), 0x57e0_729b_ab27_c720u64),
        (
            (SimdMode::Avx512, KernelPath::Avx512),
            0xab9d_8622_fbef_0a6a,
        ),
    ] {
        if !simd_tiers().contains(&tier) {
            continue; // this host cannot run the tier
        }
        let (_, path) = tier;
        let mut rng = KvecRng::seed_from_u64(1513);
        // The constants were captured after these draws (operands of a
        // `matmul_nt` hash retired with its lane-reducing kernel).
        for (m, k, n) in RAGGED_SHAPES {
            rand(m, k, &mut rng);
            rand(n, k, &mut rng);
        }
        let mut dot_hash = FNV_OFFSET;
        for len in (0..=70).chain([101, 256, 300]) {
            let a = rand(1, len, &mut rng);
            let b = rand(1, len, &mut rng);
            fnv1a(&mut dot_hash, &[simd::dot_on(path, a.data(), b.data())]);
        }
        assert_eq!(dot_hash, golden, "{path:?}: dot_on = {dot_hash:#018x}");
    }
}

type Transcendental = fn(KernelPath, &mut [f32]);

/// One in-place transcendental kernel, its f64 reference, and the input
/// range its ≤ 2 ULP contract covers (`exp` flushes results below the
/// smallest normal to zero and overflows a hair before `f32::MAX`; both
/// edges are pinned separately).
struct Case {
    name: &'static str,
    kernel: Transcendental,
    reference: fn(f64) -> f64,
    range: (f32, f32),
}

const TRANSCENDENTALS: [Case; 3] = [
    Case {
        name: "exp",
        kernel: simd::exp_on,
        reference: f64::exp,
        range: (-87.33, 88.71),
    },
    Case {
        name: "sigmoid",
        kernel: simd::sigmoid_on,
        reference: |x| 1.0 / (1.0 + (-x).exp()),
        range: (-88.0, 88.0),
    },
    Case {
        name: "tanh",
        kernel: simd::tanh_on,
        reference: f64::tanh,
        range: (-20.0, 20.0),
    },
];

fn all_paths() -> Vec<KernelPath> {
    let mut paths = vec![KernelPath::Scalar];
    paths.extend(simd_tiers().into_iter().map(|(_, path)| path));
    paths
}

fn applied(f: Transcendental, path: KernelPath, xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    f(path, &mut out);
    out
}

/// `n + 1` evenly spaced points over `[lo, hi]`, plus a dense stretch
/// around zero where `tanh` switches between its two formulas.
fn sweep(lo: f32, hi: f32, n: usize) -> Vec<f32> {
    let span = (hi - lo) as f64;
    let even = (0..=n).map(|i| (lo as f64 + span * i as f64 / n as f64) as f32);
    let near_zero = (0..=n / 4).map(|i| -1.0 + 2.0 * i as f32 / (n / 4) as f32);
    even.chain(near_zero)
        .filter(|x| (lo..=hi).contains(x))
        .collect()
}

/// Lanes never interact in the element bodies, so the 256-bit and 512-bit
/// tiers agree bit for bit — at every vector tail length and across the
/// whole range.
#[test]
fn transcendental_tiers_are_bitwise_equal() {
    if !(simd::avx2_supported() && simd::avx512_supported()) {
        return; // needs both tiers on one host
    }
    let mut rng = KvecRng::seed_from_u64(88);
    for Case { name, kernel, .. } in TRANSCENDENTALS {
        let on = |path, xs: &[f32]| bits(&applied(kernel, path, xs));
        for len in 0..=70 {
            let xs = Tensor::rand_uniform(1, len, -30.0, 30.0, &mut rng);
            assert_eq!(
                on(KernelPath::Avx2, xs.data()),
                on(KernelPath::Avx512, xs.data()),
                "{name} len {len}"
            );
        }
        let dense = sweep(-100.0, 100.0, 60_000);
        assert_eq!(
            on(KernelPath::Avx2, &dense),
            on(KernelPath::Avx512, &dense),
            "{name} dense sweep"
        );
    }
}

#[test]
fn transcendentals_within_two_ulp_of_f64_on_every_path() {
    for path in all_paths() {
        for Case {
            name,
            kernel,
            reference,
            range: (lo, hi),
        } in TRANSCENDENTALS
        {
            let xs = sweep(lo, hi, 40_000);
            for (&x, &got) in xs.iter().zip(&applied(kernel, path, &xs)) {
                let want = reference(x as f64) as f32;
                assert!(
                    ulp_distance(got, want) <= 2,
                    "{path:?} {name}({x}) = {got}, want {want}"
                );
            }
        }
    }
}

#[test]
fn transcendental_special_inputs_on_every_path() {
    let denormal = f32::from_bits(0x0000_0400);
    for path in all_paths() {
        let one = |f: Transcendental, x: f32| applied(f, path, &[x])[0];
        let exp = |x| one(simd::exp_on, x);
        let sigmoid = |x| one(simd::sigmoid_on, x);
        let tanh = |x| one(simd::tanh_on, x);

        // The masked softmax relies on exp(-inf) being exactly +0.0.
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0, "{path:?}");
        assert_eq!(exp(f32::INFINITY), f32::INFINITY, "{path:?}");
        assert!(exp(f32::NAN).is_nan(), "{path:?}");
        assert_eq!(exp(0.0), 1.0, "{path:?}");
        assert_eq!(exp(-0.0), 1.0, "{path:?}");
        assert_eq!(exp(denormal), 1.0, "{path:?}");
        assert_eq!(exp(-denormal), 1.0, "{path:?}");
        // The select edges: flush to +0.0 below -87.34, +inf above 88.72,
        // and exact scalings right inside them.
        assert_eq!(exp(-87.35).to_bits(), 0, "{path:?}");
        assert_eq!(exp(-1e30).to_bits(), 0, "{path:?}");
        assert_eq!(exp(88.73), f32::INFINITY, "{path:?}");
        assert_eq!(exp(1e30), f32::INFINITY, "{path:?}");
        let at = |x: f32| (exp(x), (x as f64).exp() as f32);
        let (low, want) = at(-87.339);
        assert!(low > 0.0 && low < f32::MIN_POSITIVE, "{path:?}: {low}");
        assert!(ulp_distance(low, want) <= 2, "{path:?}: {low} vs {want}");
        let (high, want) = at(88.72);
        assert!(high.is_finite(), "{path:?}");
        assert!(ulp_distance(high, want) <= 2, "{path:?}: {high} vs {want}");

        assert_eq!(sigmoid(0.0), 0.5, "{path:?}");
        assert_eq!(sigmoid(f32::INFINITY), 1.0, "{path:?}");
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0, "{path:?}");
        assert_eq!(sigmoid(-1e30).to_bits(), 0, "{path:?}");
        assert_eq!(sigmoid(1e30), 1.0, "{path:?}");
        assert!(sigmoid(f32::NAN).is_nan(), "{path:?}");
        assert_eq!(sigmoid(denormal), 0.5, "{path:?}");

        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits(), "{path:?}");
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits(), "{path:?}");
        assert_eq!(tanh(f32::INFINITY), 1.0, "{path:?}");
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0, "{path:?}");
        assert_eq!(tanh(100.0), 1.0, "{path:?}");
        assert!(tanh(f32::NAN).is_nan(), "{path:?}");
        assert_eq!(tanh(denormal), denormal, "{path:?}");
        assert_eq!(tanh(-denormal), -denormal, "{path:?}");
    }
}

/// The element bodies are deterministic per path; pin their bits so a
/// changed constant or reordered expression shows up as a changed hash
/// (trained trajectories and replayed decisions move with it). The two
/// SIMD tiers share one hash; the scalar tier rounds its multiply-adds
/// twice and has its own.
#[test]
fn transcendentals_keep_their_golden_bits_per_path() {
    let xs = sweep(-90.0, 90.0, 20_000);
    for path in all_paths() {
        let golden = match path {
            KernelPath::Scalar => 0x27a1_4166_1d4e_e051u64,
            KernelPath::Avx2 | KernelPath::Avx512 => 0xd64b_2ed5_a61a_c5e8,
        };
        let mut hash = FNV_OFFSET;
        for case in TRANSCENDENTALS {
            fnv1a(&mut hash, &applied(case.kernel, path, &xs));
        }
        assert_eq!(hash, golden, "{path:?}: transcendentals = {hash:#018x}");
    }
}
