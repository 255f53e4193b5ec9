//! # kvec-baselines
//!
//! The four early-classification baselines the KVEC paper compares against
//! (Section V-A2). All of them model each key-value sequence
//! **independently** — no cross-sequence (value) correlation — which is
//! exactly the contrast the paper's experiments probe:
//!
//! - [`Earliest`] — the state-of-the-art time-series early classifier
//!   (Hartvigsen et al., SIGKDD 2019): an LSTM feature extractor plus a
//!   REINFORCE halting policy; earliness knob `lambda`.
//! - [`SrnEarliest`] — EARLIEST with the LSTM replaced by a per-sequence
//!   transformer encoder (the strongest baseline in the paper).
//! - [`SrnFixed`] — the transformer encoder with the simplest halting
//!   policy: stop after a fixed number of items `tau`.
//! - [`SrnConfidence`] — halt once the classifier's confidence clears a
//!   threshold `mu`.
//!
//! All baselines share the [`EarlyClassifier`] trait so the experiment
//! harness can sweep their earliness knobs uniformly, and they report
//! through the same [`kvec::eval::EvalReport`] as KVEC. Each untangles
//! the scenarios into independent sequences ([`sequences_of`]) and trains
//! and decides them one at a time through the same two drivers.
//!
//! The two RL baselines have no halting code of their own: they build
//! KVEC's [`kvec::ectl::Ectl`] and [`kvec::classifier::Classifier`] over
//! their per-step states and train them with the same REINFORCE episode
//! as KVEC's trainer ([`kvec::ectl::Ectl::sample_halt`],
//! [`kvec::ectl::Ectl::add_halt_losses`]), so a change to the halting rule
//! reaches all three methods at once.

mod config;
mod earliest;
mod rl;
mod seq;
mod srn;
mod srn_confidence;
mod srn_earliest;
mod srn_fixed;

pub use config::BaselineConfig;
pub use earliest::Earliest;
pub use seq::{sequences_of, SeqSample};
pub use srn::SrnEncoder;
pub use srn_confidence::SrnConfidence;
pub use srn_earliest::SrnEarliest;
pub use srn_fixed::SrnFixed;

use kvec::eval::EvalReport;
use kvec_data::TangledSequence;
use kvec_tensor::KvecRng;

/// Uniform interface over every early-classification method, used by the
/// figure-regeneration harness to sweep earliness knobs.
pub trait EarlyClassifier {
    /// Method name as printed in reports.
    fn name(&self) -> &'static str;

    /// Trains one pass over the scenarios; returns the mean training loss.
    fn train_epoch(&mut self, scenarios: &[TangledSequence], rng: &mut KvecRng) -> f32;

    /// Evaluates on scenarios, producing the standard report.
    fn evaluate(&self, scenarios: &[TangledSequence]) -> EvalReport;
}
