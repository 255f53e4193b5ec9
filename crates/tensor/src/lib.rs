//! # kvec-tensor
//!
//! Dense, row-major, 2-D `f32` tensor kernels used by the KVEC reproduction.
//!
//! Everything the KVEC paper computes is a matrix or a vector: item embedding
//! matrices are `T x d`, attention logits are `T x T`, gate activations are
//! `1 x d`. Restricting the kernel surface to two dimensions keeps every
//! operation simple enough to be exhaustively tested (including by property
//! tests) while still covering the entire model.
//!
//! Conventions:
//! - storage is row-major and always contiguous;
//! - a *row vector* is a `1 x n` tensor, a *column vector* is `n x 1`;
//! - binary operations have a checked `try_*` form returning
//!   [`TensorError`] and a panicking convenience form used internally where a
//!   shape mismatch is a programming error;
//! - every kernel runs on the calling thread;
//! - the matmul family dispatches to AVX-512 / AVX2+FMA
//!   kernels via [`simd`] (`KVEC_SIMD`) when the host supports them; each
//!   kernel path is individually deterministic, and the paths agree to
//!   tight ULP tolerance (FMA legitimately rounds differently).

mod error;
mod init;
mod matmul;
mod ops;
mod reduce;
mod rng;
pub mod simd;
mod softmax;
mod tensor;

pub use error::{TensorError, TensorResult};
pub use rng::KvecRng;
pub use simd::{set_simd_mode, simd_mode, with_simd, KernelPath, SimdMode};
pub use softmax::sigmoid_scalar;
pub use tensor::Tensor;

/// No-op: every kernel runs on the calling thread. Exists only because
/// `src/bin/kvbench/main.rs` (frozen outside benchmark PRs) still calls it;
/// it leaves with ROADMAP item 3(f).
#[doc(hidden)]
pub fn set_num_threads(_n: usize) {}

/// Axis selector for axis-wise reductions on a 2-D tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Reduce over rows: the result has one entry per column (a `1 x cols`
    /// row vector).
    Rows,
    /// Reduce over columns: the result has one entry per row (a `rows x 1`
    /// column vector).
    Cols,
}
