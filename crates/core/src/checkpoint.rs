//! Trainer checkpoint payload: the JSON state inside the crash-safe
//! container (`kvec_nn::checkpoint`).
//!
//! A checkpoint captures **everything** the training trajectory depends
//! on — parameter values, both Adam optimizers' moments and step counts,
//! the epoch/step counters (warmup gating reads `epochs_done`), the
//! divergence watchdog's consecutive-bad count, and the full
//! [`KvecRng`](kvec_tensor::KvecRng) state — so that
//! `Trainer::resume` continues bit-identically to a run that was never
//! interrupted (see `tests/fault_tolerance.rs` for the enforced contract).
//!
//! The watchdog's in-memory rollback snapshot is deliberately *not*
//! serialized: a resumed trainer takes a fresh one from the restored
//! state before its first update.
//!
//! Payloads written before the watchdog lost its spike detector also
//! carry `good_steps` and `grad_norm_ema`; [`decode_state`] ignores
//! them, so those checkpoints still resume.

use kvec_json::{FromJson, Json, ToJson};
use kvec_nn::checkpoint::CheckpointError;
use kvec_nn::AdamState;

/// Identifies the payload kind inside the generic container, so a trainer
/// checkpoint and (say) a future dataset snapshot cannot be confused.
pub const PAYLOAD_FORMAT: &str = "kvec-trainer-state";

/// The deserialized trainer checkpoint payload.
#[derive(Debug)]
pub struct TrainerState {
    /// Parameter values in `ParamStore` layout (`[name, tensor]` pairs).
    pub params: Json,
    /// Model-group Adam state (`theta`).
    pub opt_model: AdamState,
    /// Baseline-group Adam state (`theta_b`).
    pub opt_baseline: AdamState,
    /// Completed epochs (gates the policy warmup phase).
    pub epochs_done: usize,
    /// Optimizer-step attempts so far (good and skipped).
    pub step: u64,
    /// Consecutive bad steps at capture time (0 at any healthy boundary).
    pub consecutive_bad: usize,
    /// Full xoshiro256++ state of the training RNG.
    pub rng_state: [u64; 4],
}

/// Serializes a trainer state as the compact-JSON checkpoint payload.
pub fn encode_state(state: &TrainerState) -> String {
    let rng: Vec<u64> = state.rng_state.to_vec();
    Json::obj([
        ("format", PAYLOAD_FORMAT.to_json()),
        ("params", state.params.clone()),
        ("opt_model", state.opt_model.to_json()),
        ("opt_baseline", state.opt_baseline.to_json()),
        ("epochs_done", state.epochs_done.to_json()),
        ("step", state.step.to_json()),
        ("consecutive_bad", state.consecutive_bad.to_json()),
        ("rng", rng.to_json()),
    ])
    .dump()
}

/// Parses a verified payload as JSON: the first step of reading a trainer
/// checkpoint or a weights file.
pub(crate) fn parse_payload(payload: &[u8]) -> Result<Json, CheckpointError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| CheckpointError::InvalidPayload("payload is not UTF-8".into()))?;
    Json::parse(text)
        .map_err(|e| CheckpointError::InvalidPayload(format!("payload is not JSON: {e}")))
}

/// Parses a payload produced by [`encode_state`]. The container layer has
/// already verified the checksum, so any failure here means the writer and
/// reader disagree on the schema — reported as an invalid payload, never a
/// panic.
pub fn decode_state(payload: &[u8]) -> Result<TrainerState, CheckpointError> {
    let j = parse_payload(payload)?;
    let get = |name: &str| {
        j.get(name)
            .map_err(|e| CheckpointError::InvalidPayload(e.to_string()))
    };
    let inv = |e: kvec_json::JsonError| CheckpointError::InvalidPayload(e.to_string());

    let format = String::from_json(get("format")?).map_err(inv)?;
    if format != PAYLOAD_FORMAT {
        return Err(CheckpointError::InvalidPayload(format!(
            "payload format is `{format}`, expected `{PAYLOAD_FORMAT}`"
        )));
    }
    let rng_vec = Vec::<u64>::from_json(get("rng")?).map_err(inv)?;
    let rng_state: [u64; 4] = rng_vec.as_slice().try_into().map_err(|_| {
        CheckpointError::InvalidPayload(format!(
            "rng state has {} words, expected 4",
            rng_vec.len()
        ))
    })?;
    Ok(TrainerState {
        params: get("params")?.clone(),
        opt_model: AdamState::from_json(get("opt_model")?).map_err(inv)?,
        opt_baseline: AdamState::from_json(get("opt_baseline")?).map_err(inv)?,
        epochs_done: usize::from_json(get("epochs_done")?).map_err(inv)?,
        step: u64::from_json(get("step")?).map_err(inv)?,
        consecutive_bad: usize::from_json(get("consecutive_bad")?).map_err(inv)?,
        rng_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> TrainerState {
        TrainerState {
            params: Json::arr([]),
            opt_model: AdamState {
                t: 7,
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                m: vec![],
                v: vec![],
            },
            opt_baseline: AdamState {
                t: 7,
                lr: 0.02,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                m: vec![],
                v: vec![],
            },
            epochs_done: 3,
            step: 41,
            consecutive_bad: 0,
            rng_state: [u64::MAX, 2, 3, 4],
        }
    }

    #[test]
    fn payload_round_trips_exactly() {
        let state = sample_state();
        let text = encode_state(&state);
        let back = decode_state(text.as_bytes()).unwrap();
        assert_eq!(back.opt_model, state.opt_model);
        assert_eq!(back.opt_baseline, state.opt_baseline);
        assert_eq!(back.epochs_done, state.epochs_done);
        assert_eq!(back.step, state.step);
        assert_eq!(back.consecutive_bad, state.consecutive_bad);
        assert_eq!(back.rng_state, state.rng_state);
    }

    #[test]
    fn wrong_format_tag_is_rejected() {
        let mut state = sample_state();
        state.params = Json::arr([]);
        let text = encode_state(&state).replace(PAYLOAD_FORMAT, "something-else");
        let err = decode_state(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("something-else"), "{err}");
    }

    #[test]
    fn short_rng_state_is_rejected() {
        let state = sample_state();
        let text = encode_state(&state).replace("[18446744073709551615,2,3,4]", "[1,2]");
        assert!(decode_state(text.as_bytes()).is_err());
    }
}
