//! Explicit-SIMD compute backend: AVX2+FMA and AVX-512 micro-kernels
//! behind runtime feature dispatch.
//!
//! The scalar register-tiled kernels in [`crate::matmul`] rely on the
//! autovectorizer, which cannot use FMA (Rust never contracts `a * b + c`)
//! and targets baseline x86-64 unless the build opts in per host. This
//! module provides hand-written SIMD kernels selected *at runtime* — a
//! 512-bit tier for AVX-512F hosts and a 256-bit AVX2+FMA tier — so one
//! portable binary runs the fastest path the CPU supports and falls back
//! to the scalar kernels everywhere else.
//!
//! # Dispatch
//!
//! The requested mode resolves as: scoped [`with_simd`] override →
//! [`set_simd_mode`] → the `KVEC_SIMD` env var (`auto`, `avx512`, `avx2`,
//! `scalar`) → `auto`.
//! The mode is a *request*; [`active_path`] maps it to the [`KernelPath`]
//! actually run, degrading down the ladder `avx512` → `avx2` → `scalar`
//! as hardware support runs out — forcing a tier the host lacks never
//! faults, it falls to the best supported path below it. The first
//! resolution with observability enabled emits one `tensor.simd` info
//! event recording the path and the detected features, so traces always
//! show which kernel produced a run.
//!
//! # Kernel structure
//!
//! Every kernel body is written **once**, over a lane-width parameter, and
//! instantiated for the 256-bit and the 512-bit tier (`mod x86`); the safe
//! wrappers reach a [`KernelPath`]'s instantiation through one helper.
//!
//! - **Packed GEMM** ([`pack_b`] + `gemm_packed`): `b` is repacked once
//!   per product into panel-width-wide ([`NR`] lanes on AVX2, [`NR512`] on
//!   AVX-512), zero-padded column panels so the micro-kernel streams it
//!   with unit stride, then the [`MR`]-row FMA micro-kernel runs under
//!   MC/KC cache blocking (`jp` panels outermost within a block so one
//!   `KC`-deep panel slab stays in L1 across the row tiles). The kernel
//!   reads `a` through a `(row, step)` stride pair — `(k, 1)` for `nn`,
//!   `(1, m)` for `tn` — the same pair the scalar tile in
//!   [`crate::matmul`] takes, so the two layouts share one body on every
//!   path. The `nt` layout shares it too: `pack_bt` reads its `n x k`
//!   right operand transposed while packing and the `nn` kernel does the
//!   rest.
//! - **GEMV fast path** ([`gemv_nn`]): the `1 x k` times `k x n` case that
//!   dominates `StreamingEngine::feed` and the per-row inference path
//!   skips packing entirely — `b` is read exactly once, so repacking would
//!   double the memory traffic. Columns go down one ladder on both tiers:
//!   `2W`-wide groups, one `W`-wide group, then scalar-FMA columns.
//! - **Dot/axpy helpers** ([`dot_on`], [`axpy_on`]): head-dimension sized
//!   primitives for `attend_row`, taking a pre-resolved path so hot loops
//!   pay for dispatch once per call, not once per visible index. `dot_on`
//!   is also `matmul_nt` with a one-row left operand (both rows are
//!   contiguous; packing would only add traffic), `axpy_on` the autodiff
//!   sweep's row-wise outer-product accumulation.
//!
//! # Determinism contract
//!
//! Every kernel path is individually deterministic: the same input bits on
//! the same path produce the same output bits (`nn`/`tn`/`nt`/`gemv`
//! accumulate each output element in one ascending-`k` FMA chain, and
//! storing/reloading the f32 accumulator between KC chunks is
//! value-preserving). Vector lanes never interact in
//! those kernels or in `axpy`, so the chain — and every output bit — is the
//! same at any lane width: the two SIMD tiers agree bitwise there (pinned
//! by `tests/kernel_bits.rs`), as do the GEMV fast path and the packed
//! GEMM, and `matmul_nt` and `matmul` of the explicit transpose. `dot`
//! alone deals products into `W` lane chains and sums the lanes in a fixed
//! order, so it — and with it `matmul_nt` of a single row — is
//! deterministic per tier only. SIMD versus scalar legitimately differs:
//! FMA rounds once per multiply-add where the scalar kernel rounds twice,
//! so that agreement is a tight-ULP property (see
//! `kvec_check::ulp_distance`), not bit equality.
//!
//! `unsafe` is confined to this module's intrinsics layer; every public
//! entry point is a safe wrapper that asserts the shape contracts the raw
//! kernels rely on.

use kvec_json::Json;
use kvec_obs::{self as obs, Level};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Rows per register tile (matches the scalar kernel's tile).
pub const MR: usize = 4;

/// Columns per register tile and per packed panel on the AVX2 path: two
/// 8-lane AVX2 vectors, so the 4x16 micro-kernel holds 8 accumulator
/// registers plus the streamed `b` pair and one broadcast.
pub const NR: usize = 16;

/// Panel width on the AVX-512 path: two 16-lane ZMM vectors per row, so
/// the 4x32 micro-kernel keeps the same 8 independent accumulator chains
/// (enough to hide FMA latency on two ports) at twice the lane width.
pub const NR512: usize = 32;

/// Inner-dimension cache block: one `KC x NR` packed slab is 16 KiB —
/// half of a typical 32 KiB L1d, leaving room for the `a` rows.
const KC: usize = 256;

/// Row cache block: an `MC x KC` sweep of `a` touches 128 KiB, well
/// inside L2.
const MC: usize = 128;

/// The *requested* SIMD mode (what the user asked for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the fastest supported tier (AVX-512, then AVX2+FMA, then
    /// scalar). The default.
    Auto,
    /// Prefer the AVX-512 kernels; falls down the ladder (AVX2, then
    /// scalar — visible in the `tensor.simd` event) when unsupported.
    Avx512,
    /// Prefer the AVX2 kernels; still falls back to scalar (with the
    /// fallback visible in the `tensor.simd` event) when unsupported.
    Avx2,
    /// Force the portable scalar kernels.
    Scalar,
}

/// The kernel implementation actually dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable register-tiled scalar kernels.
    Scalar,
    /// AVX2+FMA micro-kernels with packed panels.
    Avx2,
    /// AVX-512 micro-kernels (32-lane panels, ZMM accumulators).
    Avx512,
}

impl SimdMode {
    /// Parses a `KVEC_SIMD` value (case-insensitive). `None` on anything
    /// but `auto`/`avx512`/`avx2`/`scalar`.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SimdMode::Auto),
            "avx512" => Some(SimdMode::Avx512),
            "avx2" => Some(SimdMode::Avx2),
            "scalar" => Some(SimdMode::Scalar),
            _ => None,
        }
    }

    /// Stable name, used in the `tensor.simd` event and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Avx512 => "avx512",
            SimdMode::Avx2 => "avx2",
            SimdMode::Scalar => "scalar",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            SimdMode::Auto => 1,
            SimdMode::Avx2 => 2,
            SimdMode::Scalar => 3,
            SimdMode::Avx512 => 4,
        }
    }

    fn from_u8(v: u8) -> Option<SimdMode> {
        match v {
            1 => Some(SimdMode::Auto),
            2 => Some(SimdMode::Avx2),
            3 => Some(SimdMode::Scalar),
            4 => Some(SimdMode::Avx512),
            _ => None,
        }
    }
}

impl KernelPath {
    /// Stable name, used in the `tensor.simd` event and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Avx2 => "avx2",
            KernelPath::Avx512 => "avx512",
        }
    }
}

/// Process-wide requested mode; 0 means "not initialized yet".
static GLOBAL_MODE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Scoped override installed by [`with_simd`]; 0 means "none".
    static OVERRIDE: Cell<u8> = const { Cell::new(0) };
}

fn init_from_env() -> SimdMode {
    std::env::var("KVEC_SIMD")
        .ok()
        .and_then(|v| SimdMode::parse(&v))
        .unwrap_or(SimdMode::Auto)
}

/// The requested SIMD mode, resolved as: scoped [`with_simd`] override,
/// else [`set_simd_mode`] value, else `KVEC_SIMD`, else [`SimdMode::Auto`].
pub fn simd_mode() -> SimdMode {
    if let Some(scoped) = SimdMode::from_u8(OVERRIDE.with(Cell::get)) {
        return scoped;
    }
    if let Some(global) = SimdMode::from_u8(GLOBAL_MODE.load(Ordering::Relaxed)) {
        return global;
    }
    let mode = init_from_env();
    // A racing initialization stores the same value; last write wins.
    GLOBAL_MODE.store(mode.to_u8(), Ordering::Relaxed);
    mode
}

/// Sets the process-wide requested mode. Overrides `KVEC_SIMD`.
pub fn set_simd_mode(mode: SimdMode) {
    GLOBAL_MODE.store(mode.to_u8(), Ordering::Relaxed);
}

/// Runs `f` with the *calling thread's* requested mode forced to `mode`,
/// restoring the previous override afterwards (also on panic).
pub fn with_simd<R>(mode: SimdMode, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(mode.to_u8())));
    f()
}

/// CPU features relevant to kernel selection, as detected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer/float SIMD.
    pub avx2: bool,
    /// Fused multiply-add.
    pub fma: bool,
    /// 512-bit SIMD foundation (targeted by the [`KernelPath::Avx512`]
    /// kernels).
    pub avx512f: bool,
}

/// Detects the host's SIMD features (all-false off x86-64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
            avx512f: std::arch::is_x86_feature_detected!("avx512f"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            avx2: false,
            fma: false,
            avx512f: false,
        }
    }
}

/// Whether the AVX2 kernel path can run on this host (AVX2 *and* FMA).
pub fn avx2_supported() -> bool {
    static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        let f = cpu_features();
        f.avx2 && f.fma
    })
}

/// Whether the AVX-512 kernel path can run on this host. Requires AVX2+FMA
/// as well: the 512-bit kernels use 256-bit ops for tails and reductions.
pub fn avx512_supported() -> bool {
    static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        let f = cpu_features();
        f.avx512f && f.avx2 && f.fma
    })
}

/// Maps a requested mode onto the path that will actually run. Pure, so
/// the fallback contract is testable without hardware: a forced tier the
/// host lacks degrades down the ladder (`Avx512` → `Avx2` → `Scalar`)
/// instead of faulting.
pub fn resolve(mode: SimdMode, avx2_available: bool, avx512_available: bool) -> KernelPath {
    match mode {
        SimdMode::Scalar => KernelPath::Scalar,
        SimdMode::Auto | SimdMode::Avx512 if avx512_available => KernelPath::Avx512,
        SimdMode::Auto | SimdMode::Avx512 | SimdMode::Avx2 => {
            if avx2_available {
                KernelPath::Avx2
            } else {
                KernelPath::Scalar
            }
        }
    }
}

/// The kernel path the next dispatch will take, resolving the current
/// mode against the detected CPU. The first call with observability
/// enabled records the selection as a `tensor.simd` info event.
pub fn active_path() -> KernelPath {
    let mode = simd_mode();
    let path = resolve(mode, avx2_supported(), avx512_supported());
    announce(mode, path);
    path
}

static ANNOUNCED: AtomicBool = AtomicBool::new(false);

fn announce(mode: SimdMode, path: KernelPath) {
    if !obs::event_enabled(Level::Info) || ANNOUNCED.swap(true, Ordering::Relaxed) {
        return;
    }
    let f = cpu_features();
    obs::event(
        Level::Info,
        "tensor.simd",
        &[
            ("mode", Json::Str(mode.name().into())),
            ("path", Json::Str(path.name().into())),
            ("avx2", Json::Bool(f.avx2)),
            ("fma", Json::Bool(f.fma)),
            ("avx512f", Json::Bool(f.avx512f)),
        ],
    );
}

/// `b (k x n)` repacked into `nr`-wide ([`NR`] or [`NR512`] lanes,
/// matching the consuming path), zero-padded column panels: element
/// `(p, jp * nr + c)` lives at `data[jp * k * nr + p * nr + c]`.
/// Panel-major then `p`-major, so a micro-kernel streams one panel with
/// unit stride for any `KC` sub-range of the inner dimension.
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
    nr: usize,
}

impl PackedB {
    /// Output width this packing was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inner dimension this packing was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Panel lane width this packing was built for.
    pub fn nr(&self) -> usize {
        self.nr
    }
}

/// The panel width of a SIMD path's packed GEMM kernels. Panics on
/// [`KernelPath::Scalar`], which never packs.
fn panel_width(path: KernelPath) -> usize {
    match path {
        KernelPath::Avx2 => NR,
        KernelPath::Avx512 => NR512,
        KernelPath::Scalar => unreachable!("scalar path never packs"),
    }
}

/// Packs a `k x n` operand for `path`'s GEMM kernels; `fill(j0, width,
/// panel)` writes columns `j0..j0 + width` of it into one zeroed panel
/// (`k` rows of the path's panel width). Portable safe code: packing is
/// plain copies, only the consuming micro-kernels are feature-gated.
fn pack_panels(
    path: KernelPath,
    k: usize,
    n: usize,
    fill: impl Fn(usize, usize, &mut [f32]),
) -> PackedB {
    let nr = panel_width(path);
    let mut data = vec![0.0f32; n.div_ceil(nr) * k * nr];
    if k > 0 {
        for (jp, panel) in data.chunks_exact_mut(k * nr).enumerate() {
            fill(jp * nr, nr.min(n - jp * nr), panel);
        }
    }
    PackedB { data, k, n, nr }
}

/// Packs `b` (row-major `k x n`) for `path`'s GEMM kernels.
pub fn pack_b(path: KernelPath, b: &[f32], k: usize, n: usize) -> PackedB {
    assert_eq!(b.len(), k * n, "pack_b shape mismatch");
    let nr = panel_width(path);
    pack_panels(path, k, n, |j0, width, panel| {
        for (dst, src) in panel.chunks_exact_mut(nr).zip(b.chunks_exact(n)) {
            dst[..width].copy_from_slice(&src[j0..j0 + width]);
        }
    })
}

/// Packs the transpose of `bt` (row-major `n x k`): the `nt` layout reads
/// its right operand transposed *while packing*, then runs the same packed
/// kernel as `nn`/`tn`. Each row of `bt` is read once, contiguously, and
/// becomes one panel column — four rows at a time, so a panel row takes
/// one 16-byte store per step instead of four scalar ones (small-`m`
/// products are pack-bound: 2x on `8x64 * (128x64)^T`).
pub(crate) fn pack_bt(path: KernelPath, bt: &[f32], k: usize, n: usize) -> PackedB {
    assert_eq!(bt.len(), n * k, "pack_bt shape mismatch");
    let nr = panel_width(path);
    pack_panels(path, k, n, |j0, width, panel| {
        let mut c = 0;
        while c + 4 <= width {
            let (r0, rest) = bt[(j0 + c) * k..(j0 + c + 4) * k].split_at(k);
            let (r1, rest) = rest.split_at(k);
            let (r2, r3) = rest.split_at(k);
            let quads = r0.iter().zip(r1).zip(r2).zip(r3);
            for (dst, (((&v0, &v1), &v2), &v3)) in panel.chunks_exact_mut(nr).zip(quads) {
                dst[c..c + 4].copy_from_slice(&[v0, v1, v2, v3]);
            }
            c += 4;
        }
        let tail = bt[(j0 + c) * k..(j0 + width) * k].chunks_exact(k);
        for (c, row) in (c..).zip(tail) {
            for (dst, &v) in panel.chunks_exact_mut(nr).zip(row) {
                dst[c] = v;
            }
        }
    })
}

/// Asserts that `path` is a SIMD path the host can actually run — the
/// dispatcher guarantees it, the wrappers re-check before any `unsafe`.
fn assert_path_supported(path: KernelPath) {
    let ok = match path {
        KernelPath::Avx2 => avx2_supported(),
        KernelPath::Avx512 => avx512_supported(),
        KernelPath::Scalar => false, // scalar never reaches the SIMD wrappers
    };
    assert!(ok, "{} kernel dispatched on unsupported host", path.name());
}

/// The one place safe code enters the intrinsics layer: calls `kernel` in
/// `path`'s instantiation of the [`x86`] kernels. Debug builds re-check
/// host support here, so every test run covers every entry point —
/// including [`dot_on`]/[`axpy_on`], which run once per visible index and
/// pay for no check in release builds.
macro_rules! on_tier {
    ($path:expr, $kernel:ident($($arg:expr),*)) => {{
        if cfg!(debug_assertions) {
            assert_path_supported($path);
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the calling wrapper asserted `$kernel`'s shape contract.
        // `$path` comes from `resolve`, which yields a SIMD path only when
        // the host has its features; the wrappers off the per-index hot
        // path re-assert that in release builds too.
        unsafe {
            match $path {
                KernelPath::Avx2 => x86::avx2::$kernel($($arg),*),
                KernelPath::Avx512 => x86::avx512::$kernel($($arg),*),
                KernelPath::Scalar => unreachable!("scalar path has no SIMD kernel"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("SIMD path resolved on non-x86_64")
    }};
}

/// `out[0..rows] (rows x n) = A[i0..i0+rows] * b` on a SIMD path, with
/// `b` pre-packed for the same path and `A`'s element `(i, p)` at
/// `a[i * a_rs + p * a_ps]`: `(a_rs, a_ps) = (k, 1)` reads a row-major
/// `m x k` operand (`nn`), `(1, m)` reads the transpose of a row-major
/// `k x m` one (`tn`). `out` is the zeroed row block starting at absolute
/// row `i0`.
pub(crate) fn gemm_packed(
    path: KernelPath,
    a: &[f32],
    (a_rs, a_ps): (usize, usize),
    packed: &PackedB,
    i0: usize,
    rows: usize,
    out: &mut [f32],
) {
    assert_path_supported(path);
    assert_eq!(packed.nr, panel_width(path), "packed for a different path");
    assert_eq!(out.len(), rows * packed.n, "out block shape mismatch");
    // The last element the kernels read: row `i0 + rows - 1`, step `k - 1`.
    assert!(
        rows == 0 || packed.k == 0 || (i0 + rows - 1) * a_rs + (packed.k - 1) * a_ps < a.len(),
        "a too short for row block"
    );
    on_tier!(path, gemm_packed(a, a_rs, a_ps, i0, packed, rows, out))
}

/// Row-vector times matrix: `out (1 x n) = a (1 x k) * b (k x n)` on a
/// SIMD path, without packing (`b` is read exactly once, so repacking
/// would double the traffic). Also serves `matmul_tn` with `m == 1`,
/// where the `k x 1` operand is the same contiguous buffer.
pub fn gemv_nn(path: KernelPath, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    assert_path_supported(path);
    assert!(a.len() >= k, "a too short");
    assert_eq!(b.len(), k * n, "b shape mismatch");
    assert_eq!(out.len(), n, "out shape mismatch");
    on_tier!(path, gemv_nn(a, b, k, n, out))
}

/// Dot product of two equal-length slices on a pre-resolved path. The
/// scalar arm reproduces the historical ascending `mul`-then-`add` order
/// bit for bit; the SIMD arms use FMA lanes with a fixed reduction order
/// (deterministic, but rounded differently).
#[inline]
pub fn dot_on(path: KernelPath, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    if path == KernelPath::Scalar {
        return a.iter().zip(b).map(|(x, y)| x * y).sum();
    }
    on_tier!(path, dot(a, b))
}

/// `y += alpha * x` on a pre-resolved path; same determinism contract as
/// [`dot_on`].
#[inline]
pub fn axpy_on(path: KernelPath, y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    if path == KernelPath::Scalar {
        for (o, &v) in y.iter_mut().zip(x) {
            *o += alpha * v;
        }
        return;
    }
    on_tier!(path, axpy(y, alpha, x))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsics layer: every kernel is written once, in
    //! `simd_tier!`, over a lane-width parameter — the panel width `NR =
    //! 2W`, the lane reduction, the tier's six intrinsics and its feature
    //! string — and instantiated as [`avx2`] (`W = 8`) and [`avx512`]
    //! (`W = 16`). Each instantiated kernel is a plain `#[target_feature]`
    //! function calling its tier's intrinsics directly, so they inline
    //! exactly as in hand-written code. Everything here is `unsafe fn`;
    //! the safe wrappers in the parent module assert the shape contracts
    //! and feature support before calling in through `on_tier!`.

    use super::{PackedB, KC, MC, MR};
    use core::arch::x86_64::*;

    /// Sums the 8 lanes of `v` in a fixed order (128-bit halves, then
    /// pairwise) — deterministic for a given input.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
        _mm_cvtss_f32(s)
    }

    /// Sums the 16 lanes of `v` in a fixed order (256-bit halves, then
    /// [`hsum8`]) — deterministic for a given input.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn hsum16(v: __m512) -> f32 {
        let lo = _mm512_castps512_ps256(v);
        // _mm512_extractf32x8_ps needs AVX512DQ; route through the f64
        // view, which AVX512F provides.
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
        hsum8(_mm256_add_ps(lo, hi))
    }

    /// Instantiates the kernel set as `mod $tier` for one vector width:
    /// `$nr` is the packed panel width (two vectors), `$hsum` the lane
    /// reduction, and the bracketed list names the tier's zero, broadcast,
    /// unaligned load/store, fused multiply-add and add intrinsics.
    macro_rules! simd_tier {
        (
            $tier:ident, $feat:literal, $nr:ident, $hsum:ident,
            [$setzero:ident, $set1:ident, $loadu:ident, $storeu:ident, $fmadd:ident, $add:ident]
        ) => {
            pub mod $tier {
                use super::$hsum as hsum;
                use super::{PackedB, KC, MC, MR};
                use crate::simd::$nr as NR;
                use core::arch::x86_64::{
                    $add as add, $fmadd as fmadd, $loadu as loadu, $set1 as set1,
                    $setzero as setzero, $storeu as storeu,
                };

                /// Lanes per vector; a register tile row is two vectors.
                const W: usize = NR / 2;

                /// The `MR x NR` FMA micro-kernel: `out_tile (+)= a_tile *
                /// panel` over a `kc`-long stretch of the inner dimension,
                /// with `2 * MR = 8` independent accumulator chains (enough
                /// to hide FMA latency on two ports).
                ///
                /// `a` element `(r, p)` lives at `a_off + r * a_rs + p *
                /// a_ps` (relative to the start of this `kc` stretch) — the
                /// stride pair covers the `nn` (`a_rs = k, a_ps = 1`) and
                /// `tn` (`a_rs = 1, a_ps = m`) layouts with one kernel.
                /// Accumulation per output element is one ascending-`p` FMA
                /// chain; `accumulate` loads the prior chunk's partial
                /// sums, which is value-preserving because the
                /// accumulators are f32 in both places.
                ///
                /// # Safety
                /// Caller ensures the tier's features, that all `a` indices
                /// up to `a_off + 3 * a_rs + (kc - 1) * a_ps` are in
                /// bounds, `panel` has `kc * NR` readable floats, and `out`
                /// spans 4 rows of stride `n` with `width <= NR` writable
                /// columns each.
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = $feat)]
                unsafe fn kernel_4(
                    a: *const f32,
                    a_off: usize,
                    a_rs: usize,
                    a_ps: usize,
                    mut panel: *const f32,
                    kc: usize,
                    out: *mut f32,
                    n: usize,
                    width: usize,
                    accumulate: bool,
                ) {
                    let mut acc = [[setzero(); 2]; MR];
                    // Ragged panels go through a full-width spill row so
                    // loads and stores never touch columns past `width`.
                    let mut spill = [[0.0f32; NR]; MR];
                    if accumulate {
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            if width == NR {
                                acc_r[0] = loadu(out.add(r * n));
                                acc_r[1] = loadu(out.add(r * n + W));
                            } else {
                                core::ptr::copy_nonoverlapping(
                                    out.add(r * n),
                                    spill[r].as_mut_ptr(),
                                    width,
                                );
                                acc_r[0] = loadu(spill[r].as_ptr());
                                acc_r[1] = loadu(spill[r].as_ptr().add(W));
                            }
                        }
                    }
                    let mut ap = [
                        a.add(a_off),
                        a.add(a_off + a_rs),
                        a.add(a_off + 2 * a_rs),
                        a.add(a_off + 3 * a_rs),
                    ];
                    for _ in 0..kc {
                        let b0 = loadu(panel);
                        let b1 = loadu(panel.add(W));
                        panel = panel.add(NR);
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let av = set1(*ap[r]);
                            ap[r] = ap[r].add(a_ps);
                            acc_r[0] = fmadd(av, b0, acc_r[0]);
                            acc_r[1] = fmadd(av, b1, acc_r[1]);
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        if width == NR {
                            storeu(out.add(r * n), acc_r[0]);
                            storeu(out.add(r * n + W), acc_r[1]);
                        } else {
                            storeu(spill[r].as_mut_ptr(), acc_r[0]);
                            storeu(spill[r].as_mut_ptr().add(W), acc_r[1]);
                            core::ptr::copy_nonoverlapping(
                                spill[r].as_ptr(),
                                out.add(r * n),
                                width,
                            );
                        }
                    }
                }

                /// Single-row variant of [`kernel_4`] for the row tail.
                ///
                /// # Safety
                /// As [`kernel_4`], for one row.
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = $feat)]
                unsafe fn kernel_1(
                    a: *const f32,
                    a_off: usize,
                    a_ps: usize,
                    mut panel: *const f32,
                    kc: usize,
                    out: *mut f32,
                    width: usize,
                    accumulate: bool,
                ) {
                    let mut acc0 = setzero();
                    let mut acc1 = setzero();
                    let mut spill = [0.0f32; NR];
                    if accumulate {
                        if width == NR {
                            acc0 = loadu(out);
                            acc1 = loadu(out.add(W));
                        } else {
                            core::ptr::copy_nonoverlapping(out, spill.as_mut_ptr(), width);
                            acc0 = loadu(spill.as_ptr());
                            acc1 = loadu(spill.as_ptr().add(W));
                        }
                    }
                    let mut ap = a.add(a_off);
                    for _ in 0..kc {
                        let av = set1(*ap);
                        ap = ap.add(a_ps);
                        acc0 = fmadd(av, loadu(panel), acc0);
                        acc1 = fmadd(av, loadu(panel.add(W)), acc1);
                        panel = panel.add(NR);
                    }
                    if width == NR {
                        storeu(out, acc0);
                        storeu(out.add(W), acc1);
                    } else {
                        storeu(spill.as_mut_ptr(), acc0);
                        storeu(spill.as_mut_ptr().add(W), acc1);
                        core::ptr::copy_nonoverlapping(spill.as_ptr(), out, width);
                    }
                }

                /// Cache-blocked packed GEMM over one output row block
                /// (`rows x n` at absolute row `row0`). Loop nest: `pc` (KC
                /// chunks) → `ic` (MC row blocks) → `jp` (panels) → `i`
                /// (MR tiles), so one `kc x NR` panel slab stays
                /// L1-resident across the row tiles it feeds.
                ///
                /// # Safety
                /// Caller ensures the tier's features and the shape
                /// contracts asserted by [`crate::simd::gemm_packed`], with
                /// `packed` built at this tier's panel width.
                #[target_feature(enable = $feat)]
                pub unsafe fn gemm_packed(
                    a: &[f32],
                    a_rs: usize,
                    a_ps: usize,
                    row0: usize,
                    packed: &PackedB,
                    rows: usize,
                    out: &mut [f32],
                ) {
                    let (k, n) = (packed.k, packed.n);
                    if rows == 0 || n == 0 || k == 0 {
                        return; // out is pre-zeroed by the caller
                    }
                    let panels = n.div_ceil(NR);
                    let a_ptr = a.as_ptr();
                    let out_ptr = out.as_mut_ptr();
                    let mut pc = 0;
                    while pc < k {
                        let kc = KC.min(k - pc);
                        let accumulate = pc > 0;
                        let mut ic = 0;
                        while ic < rows {
                            let mc = MC.min(rows - ic);
                            for jp in 0..panels {
                                let width = NR.min(n - jp * NR);
                                let panel = packed.data.as_ptr().add(jp * k * NR + pc * NR);
                                let mut i = ic;
                                while i + MR <= ic + mc {
                                    let a_off = (row0 + i) * a_rs + pc * a_ps;
                                    kernel_4(
                                        a_ptr,
                                        a_off,
                                        a_rs,
                                        a_ps,
                                        panel,
                                        kc,
                                        out_ptr.add(i * n + jp * NR),
                                        n,
                                        width,
                                        accumulate,
                                    );
                                    i += MR;
                                }
                                while i < ic + mc {
                                    let a_off = (row0 + i) * a_rs + pc * a_ps;
                                    kernel_1(
                                        a_ptr,
                                        a_off,
                                        a_ps,
                                        panel,
                                        kc,
                                        out_ptr.add(i * n + jp * NR),
                                        width,
                                        accumulate,
                                    );
                                    i += 1;
                                }
                            }
                            ic += mc;
                        }
                        pc += kc;
                    }
                }

                /// Unpacked row-vector GEMV over the column ladder `2W → W
                /// → scalar FMA`: per output column one ascending-`p` FMA
                /// chain on every rung — the same rounding sequence as the
                /// packed kernels, so the `m == 1` fast path is
                /// bit-identical to the general path.
                ///
                /// # Safety
                /// Caller ensures the tier's features and the shapes
                /// asserted by [`crate::simd::gemv_nn`].
                #[target_feature(enable = $feat)]
                pub unsafe fn gemv_nn(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
                    let ap = a.as_ptr();
                    let bp = b.as_ptr();
                    let op = out.as_mut_ptr();
                    let mut j = 0;
                    while j + NR <= n {
                        let mut acc0 = setzero();
                        let mut acc1 = setzero();
                        for p in 0..k {
                            let av = set1(*ap.add(p));
                            let row = bp.add(p * n + j);
                            acc0 = fmadd(av, loadu(row), acc0);
                            acc1 = fmadd(av, loadu(row.add(W)), acc1);
                        }
                        storeu(op.add(j), acc0);
                        storeu(op.add(j + W), acc1);
                        j += NR;
                    }
                    if j + W <= n {
                        let mut acc = setzero();
                        for p in 0..k {
                            acc = fmadd(set1(*ap.add(p)), loadu(bp.add(p * n + j)), acc);
                        }
                        storeu(op.add(j), acc);
                        j += W;
                    }
                    // Fewer than `W` columns left. Scalar FMA keeps their
                    // rounding identical to the vector lanes' chains; four
                    // columns at a time so their latency-bound chains overlap.
                    while j + MR <= n {
                        let mut c = [0.0f32; MR];
                        for p in 0..k {
                            let av = *ap.add(p);
                            let row = bp.add(p * n + j);
                            for (i, ci) in c.iter_mut().enumerate() {
                                *ci = av.mul_add(*row.add(i), *ci);
                            }
                        }
                        core::ptr::copy_nonoverlapping(c.as_ptr(), op.add(j), MR);
                        j += MR;
                    }
                    while j < n {
                        let mut c = 0.0f32;
                        for p in 0..k {
                            c = (*ap.add(p)).mul_add(*bp.add(p * n + j), c);
                        }
                        *op.add(j) = c;
                        j += 1;
                    }
                }

                /// Equal-length dot product: two interleaved `W`-lane
                /// chains, fixed reduction order, scalar-FMA tail.
                ///
                /// # Safety
                /// Caller ensures the tier's features and `a.len() ==
                /// b.len()`.
                #[target_feature(enable = $feat)]
                pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
                    let len = a.len();
                    let ap = a.as_ptr();
                    let bp = b.as_ptr();
                    let mut acc0 = setzero();
                    let mut acc1 = setzero();
                    let mut p = 0;
                    while p + NR <= len {
                        acc0 = fmadd(loadu(ap.add(p)), loadu(bp.add(p)), acc0);
                        acc1 = fmadd(loadu(ap.add(p + W)), loadu(bp.add(p + W)), acc1);
                        p += NR;
                    }
                    if p + W <= len {
                        acc0 = fmadd(loadu(ap.add(p)), loadu(bp.add(p)), acc0);
                        p += W;
                    }
                    let mut s = hsum(add(acc0, acc1));
                    while p < len {
                        s = (*ap.add(p)).mul_add(*bp.add(p), s);
                        p += 1;
                    }
                    s
                }

                /// `y += alpha * x` with `W`-lane FMA and a scalar-FMA
                /// tail: one FMA per element at any width.
                ///
                /// # Safety
                /// Caller ensures the tier's features and `y.len() ==
                /// x.len()`.
                #[target_feature(enable = $feat)]
                pub unsafe fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
                    let len = y.len();
                    let yp = y.as_mut_ptr();
                    let xp = x.as_ptr();
                    let av = set1(alpha);
                    let mut p = 0;
                    while p + W <= len {
                        storeu(yp.add(p), fmadd(av, loadu(xp.add(p)), loadu(yp.add(p))));
                        p += W;
                    }
                    while p < len {
                        *yp.add(p) = alpha.mul_add(*xp.add(p), *yp.add(p));
                        p += 1;
                    }
                }
            }
        };
    }

    simd_tier!(
        avx2,
        "avx2,fma",
        NR,
        hsum8,
        [
            _mm256_setzero_ps,
            _mm256_set1_ps,
            _mm256_loadu_ps,
            _mm256_storeu_ps,
            _mm256_fmadd_ps,
            _mm256_add_ps
        ]
    );

    // The 512-bit tier also enables avx2+fma: `hsum16` finishes in 256-bit
    // ops, and `avx512_supported` requires all three features.
    simd_tier!(
        avx512,
        "avx512f,avx2,fma",
        NR512,
        hsum16,
        [
            _mm512_setzero_ps,
            _mm512_set1_ps,
            _mm512_loadu_ps,
            _mm512_storeu_ps,
            _mm512_fmadd_ps,
            _mm512_add_ps
        ]
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_accepts_the_documented_values() {
        assert_eq!(SimdMode::parse("auto"), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse(" AVX2 "), Some(SimdMode::Avx2));
        assert_eq!(SimdMode::parse("avx512"), Some(SimdMode::Avx512));
        assert_eq!(SimdMode::parse("Scalar"), Some(SimdMode::Scalar));
        assert_eq!(SimdMode::parse("sse"), None);
        assert_eq!(SimdMode::parse(""), None);
    }

    #[test]
    fn resolve_falls_back_cleanly_without_hardware_support() {
        use KernelPath as P;
        use SimdMode as M;
        // Forcing a tier the host lacks must degrade down the ladder
        // (avx512 -> avx2 -> scalar), never fault.
        assert_eq!(resolve(M::Avx512, false, false), P::Scalar);
        assert_eq!(resolve(M::Avx2, false, false), P::Scalar);
        assert_eq!(resolve(M::Auto, false, false), P::Scalar);
        assert_eq!(resolve(M::Scalar, false, false), P::Scalar);
        // AVX2-only host: avx512 requests fall to the avx2 path.
        assert_eq!(resolve(M::Avx512, true, false), P::Avx2);
        assert_eq!(resolve(M::Avx2, true, false), P::Avx2);
        assert_eq!(resolve(M::Auto, true, false), P::Avx2);
        assert_eq!(resolve(M::Scalar, true, false), P::Scalar);
        // Full AVX-512 host: auto takes the widest tier, explicit
        // requests are honored.
        assert_eq!(resolve(M::Avx512, true, true), P::Avx512);
        assert_eq!(resolve(M::Auto, true, true), P::Avx512);
        assert_eq!(resolve(M::Avx2, true, true), P::Avx2);
        assert_eq!(resolve(M::Scalar, true, true), P::Scalar);
    }

    #[test]
    fn with_simd_overrides_and_restores() {
        let outer = simd_mode();
        let inner = with_simd(SimdMode::Scalar, simd_mode);
        assert_eq!(inner, SimdMode::Scalar);
        assert_eq!(simd_mode(), outer);
        with_simd(SimdMode::Avx2, || {
            assert_eq!(simd_mode(), SimdMode::Avx2);
            with_simd(SimdMode::Scalar, || {
                assert_eq!(simd_mode(), SimdMode::Scalar)
            });
            assert_eq!(simd_mode(), SimdMode::Avx2);
        });
    }

    #[test]
    fn forcing_simd_modes_never_faults_end_to_end() {
        // On a supporting host these run the SIMD kernels; elsewhere they
        // must silently take the best supported path. Either way: no
        // fault, and the resolved path is consistent with the hardware.
        for mode in [SimdMode::Avx2, SimdMode::Avx512] {
            let path = with_simd(mode, active_path);
            assert_eq!(path, resolve(mode, avx2_supported(), avx512_supported()));
            let out = with_simd(mode, || {
                let a = crate::Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
                let b = crate::Tensor::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
                a.matmul(&b)
            });
            assert_eq!(out.data(), &[19.0, 22.0, 43.0, 50.0], "{mode:?}");
        }
    }

    #[test]
    fn pack_b_layout_and_zero_padding() {
        // 3 x 5: one AVX2 panel, 11 lanes of padding.
        let b: Vec<f32> = (0..15).map(|v| v as f32).collect();
        let packed = pack_b(KernelPath::Avx2, &b, 3, 5);
        assert_eq!(packed.k(), 3);
        assert_eq!(packed.n(), 5);
        assert_eq!(packed.nr(), NR);
        assert_eq!(packed.data.len(), 3 * NR); // one panel (5 <= NR)
        for p in 0..3 {
            for c in 0..5 {
                assert_eq!(packed.data[p * NR + c], b[p * 5 + c], "({p},{c})");
            }
            for c in 5..NR {
                assert_eq!(packed.data[p * NR + c], 0.0, "padding ({p},{c})");
            }
        }
        // A width crossing one panel boundary.
        let b: Vec<f32> = (0..2 * 18).map(|v| v as f32).collect();
        let packed = pack_b(KernelPath::Avx2, &b, 2, 18);
        assert_eq!(packed.data.len(), 2 * 2 * NR);
        assert_eq!(packed.data[NR], b[18]); // panel 0, p = 1, lane 0
        assert_eq!(packed.data[2 * NR], b[16]); // panel 1, p = 0, lane 0
        assert_eq!(packed.data[2 * NR + 2], 0.0); // panel 1 padding
                                                  // The same width packs into a single wider panel for AVX-512.
        let packed = pack_b(KernelPath::Avx512, &b, 2, 18);
        assert_eq!(packed.nr(), NR512);
        assert_eq!(packed.data.len(), 2 * NR512);
        assert_eq!(packed.data[NR512], b[18]); // p = 1, lane 0
        assert_eq!(packed.data[18], 0.0); // lane padding
    }

    #[test]
    fn pack_bt_equals_pack_b_of_the_transpose() {
        // Widths that fill panels, end in a four-row block and leave a
        // one-to-three-row tail, on both panel widths.
        for path in [KernelPath::Avx2, KernelPath::Avx512] {
            for (k, n) in [(1usize, 1usize), (5, 3), (7, 16), (3, 18), (9, 39), (4, 70)] {
                let bt: Vec<f32> = (0..n * k).map(|v| v as f32).collect();
                let mut b = vec![0.0f32; k * n];
                for j in 0..n {
                    for p in 0..k {
                        b[p * n + j] = bt[j * k + p];
                    }
                }
                let got = pack_bt(path, &bt, k, n);
                assert_eq!(got.data, pack_b(path, &b, k, n).data, "{path:?} {k}x{n}");
            }
        }
    }

    #[test]
    fn dot_and_axpy_scalar_path_match_plain_loops() {
        let a: Vec<f32> = (0..37).map(|v| (v as f32 * 0.3).sin()).collect();
        let b: Vec<f32> = (0..37).map(|v| (v as f32 * 0.7).cos()).collect();
        let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot_on(KernelPath::Scalar, &a, &b), want);
        let mut y = vec![1.0f32; 37];
        axpy_on(KernelPath::Scalar, &mut y, 0.5, &a);
        for (o, &v) in y.iter().zip(&a) {
            assert_eq!(*o, 1.0 + 0.5 * v);
        }
        for path in supported_simd_paths() {
            let got = dot_on(path, &a, &b);
            assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "{path:?}: {got} vs {want}"
            );
            let mut y2 = vec![1.0f32; 37];
            axpy_on(path, &mut y2, 0.5, &a);
            for (got, want) in y2.iter().zip(&y) {
                assert!((got - want).abs() <= 1e-6, "{path:?}: {got} vs {want}");
            }
        }
    }

    fn supported_simd_paths() -> Vec<KernelPath> {
        let mut paths = Vec::new();
        if avx2_supported() {
            paths.push(KernelPath::Avx2);
        }
        if avx512_supported() {
            paths.push(KernelPath::Avx512);
        }
        paths
    }

    #[test]
    fn same_input_twice_is_bitwise_identical_per_path() {
        let a: Vec<f32> = (0..101).map(|v| (v as f32 * 0.13).sin()).collect();
        let b: Vec<f32> = (0..101).map(|v| (v as f32 * 0.29).cos()).collect();
        assert_eq!(
            dot_on(KernelPath::Scalar, &a, &b).to_bits(),
            dot_on(KernelPath::Scalar, &a, &b).to_bits()
        );
        for path in supported_simd_paths() {
            assert_eq!(
                dot_on(path, &a, &b).to_bits(),
                dot_on(path, &a, &b).to_bits(),
                "{path:?}"
            );
        }
    }
}
