//! # kvec-nn
//!
//! Neural-network building blocks on top of [`kvec_autograd`]:
//!
//! - a [`ParamStore`] owning every trainable tensor plus its accumulated
//!   gradient;
//! - a [`Session`] that binds parameters into a per-step autodiff tape and
//!   harvests gradients after the reverse sweep;
//! - layers ([`Linear`], [`Embedding`], [`FeedForward`], [`AttentionBlock`],
//!   [`LstmCell`], [`Dropout`]) — exactly the blocks the KVEC paper's model
//!   and its baselines are assembled from;
//! - the paper's optimizer, [`Adam`], over parameter groups so different
//!   sub-networks can train at different learning rates (the paper trains
//!   the value baseline with its own rate, Algorithm 1 line 19);
//! - loss helpers (softmax cross-entropy, MSE);
//! - a crash-safe [`checkpoint`] container (versioned header, embedded
//!   checksum, atomic write) that the `kvec` trainer builds its resumable
//!   checkpoints on.

mod attention;
pub mod checkpoint;
mod dropout;
mod embedding;
mod layernorm;
mod linear;
pub mod loss;
mod lstm;
mod optim;
mod param;
mod session;

pub use attention::{causal_mask, AttentionBlock, BlockPanels, Visible};
pub use checkpoint::CheckpointError;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use layernorm::LayerNorm;
pub use linear::{FeedForward, Linear};
pub use lstm::{LstmCell, LstmState};
pub use optim::{clip_global_norm, Adam, AdamState};
pub use param::{ParamId, ParamStore};
pub use session::Session;
