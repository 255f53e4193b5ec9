//! Cross-thread flow-trace context: causal tracing for the serving path.
//!
//! The RAII spans in [`crate::span`](mod@crate::span) time a scope on *one* thread; a
//! served flow's latency is spread across three — the router that admits
//! an arrival, the queue it waits in, and the shard worker that feeds it
//! — so its timeline needs a context that *travels with the message*
//! instead. [`FlowCtx`] is that context: a process-unique trace id plus
//! the microsecond stamps of the stages already passed. The producer
//! mints one per arrival at admission ([`FlowCtx::capture`]), ships it
//! through the queue inside the message, and each stage emits one linked
//! `flow.*` event carrying the trace id, so a JSONL trace reconstructs
//! any flow's full admission → queue-wait → service → decision timeline
//! offline (the `trace_report` bin does exactly that).
//!
//! # Record vocabulary
//!
//! All records are ordinary `kind: "event"` JSONL lines at `debug`
//! level, distinguished by name; every one carries `trace_id` and `key`:
//!
//! - `flow.submit` — admission verdict (`admitted` / `delayed` /
//!   `shed_queue_full` / `shed_confident`) with `admit_us`, the time the
//!   router spent on the arrival. A shed flow's chain ends here.
//! - `flow.queue` — emitted at dequeue with `queue_us`, the bounded-queue
//!   wait.
//! - `flow.service` — emitted after the engine call with `service_us` and
//!   an `outcome` (`fed` / `decided` / `halted` / `late_drop` /
//!   `engine_rejected`).
//! - `flow.decision` — the decision record, carrying the full component
//!   decomposition (`admit_us` + `queue_us` + `service_us` + `decide_us`
//!   ≡ `e2e_us`) of its *deciding* message: the arrival that tripped the
//!   halt, the flow-end signal, or — for deadline-forced halts — the
//!   key's first pending arrival (so `decide_us` is the deadline wait).
//! - `flow.replay` — a journaled mutation re-applied after a worker
//!   crash, carrying the *original* trace id (replay reconstructs state;
//!   it never re-mints identity).
//! - `flow.quarantine` — the in-flight arrival a crashed worker never
//!   finished.
//!
//! # Disabled-path contract
//!
//! With the subscriber disabled, [`FlowCtx::capture`] is one relaxed
//! load and a branch — no id allocation, no clock read — and every
//! emitter no-ops on the inactive context (trace id 0). Tracing rides
//! the same master switch as the rest of the crate.

use crate::{event, event_enabled, ts_us, Level};
use kvec_json::Json;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocator for process-unique trace ids. Id 0 is reserved for the
/// inactive context, so the first real flow gets id 1.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// The per-arrival trace context threaded from the router through the
/// queue to the worker. `Copy` so it rides inside queue messages and
/// journal-derived bookkeeping for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowCtx {
    /// Process-unique id linking this arrival's `flow.*` records; 0 means
    /// tracing was disabled at admission and every emitter no-ops.
    pub trace_id: u64,
    /// When the router first saw the arrival (µs, [`ts_us`] clock).
    pub submit_us: f64,
    /// When the router enqueued it (NaN until [`FlowCtx::mark_enqueued`];
    /// stays NaN for shed arrivals).
    pub enqueue_us: f64,
}

impl FlowCtx {
    /// The disabled context: id 0, no stamps, every emitter a no-op.
    pub const fn inactive() -> FlowCtx {
        FlowCtx {
            trace_id: 0,
            submit_us: f64::NAN,
            enqueue_us: f64::NAN,
        }
    }

    /// Mints a context for a newly offered arrival: a fresh trace id and
    /// the submit stamp. Returns [`FlowCtx::inactive`] when the
    /// subscriber is disabled — the single-load-and-branch contract.
    pub fn capture() -> FlowCtx {
        if !crate::enabled() {
            return FlowCtx::inactive();
        }
        FlowCtx {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Relaxed),
            submit_us: ts_us(),
            enqueue_us: f64::NAN,
        }
    }

    /// Rebuilds a context around an id recovered from a journal: the
    /// identity survives a crash, the wall-clock stamps do not (they
    /// died with the worker), so the component decomposition of anything
    /// decided from replayed state is explicitly unknown (null fields).
    pub fn replayed(trace_id: u64) -> FlowCtx {
        FlowCtx {
            trace_id,
            submit_us: f64::NAN,
            enqueue_us: f64::NAN,
        }
    }

    /// Whether this context traces anything (id 0 = disabled).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// Stamps the enqueue instant (call immediately before the queue
    /// push succeeds or fails; a failed push degrades to a shed and the
    /// stamp is simply never read).
    pub fn mark_enqueued(&mut self) {
        if self.is_active() {
            self.enqueue_us = ts_us();
        }
    }
}

/// The stamps accumulated by the time a message has been *served*: its
/// admission context plus the worker-side dequeue and feed-complete
/// instants. This is what a decision record's component decomposition is
/// computed from; pending keys keep the stamps of their first pending
/// arrival so deadline-forced decisions attribute to the message that
/// started the wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStamps {
    /// Admission context of the deciding message.
    pub ctx: FlowCtx,
    /// When the worker popped it (µs; NaN when untraced).
    pub dequeue_us: f64,
    /// When the engine call returned (µs; NaN when untraced).
    pub fed_us: f64,
}

impl FlowStamps {
    /// Stamps that trace nothing.
    pub const fn inactive() -> FlowStamps {
        FlowStamps {
            ctx: FlowCtx::inactive(),
            dequeue_us: f64::NAN,
            fed_us: f64::NAN,
        }
    }

    /// Whether the underlying context traces anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.ctx.is_active()
    }
}

/// Finite difference or `NaN` (serialized as `null`): stage durations
/// from stamps that may be missing (shed flows, replay-restored state).
fn delta(later: f64, earlier: f64) -> f64 {
    let d = later - earlier;
    if d.is_finite() {
        d
    } else {
        f64::NAN
    }
}

#[inline]
fn flow_enabled(trace_id: u64) -> bool {
    trace_id != 0 && event_enabled(Level::Debug)
}

/// Emits the `flow.submit` record: the admission verdict and the time
/// the router spent on the arrival. `msg` is `"item"` or `"flow_end"` —
/// the accounting identity is re-verified over item records only.
pub fn emit_submit(ctx: &FlowCtx, key: u64, shard: usize, msg: &'static str, verdict: &str) {
    if !flow_enabled(ctx.trace_id) {
        return;
    }
    event(
        Level::Debug,
        "flow.submit",
        &[
            ("trace_id", Json::Int(ctx.trace_id as i128)),
            ("key", Json::Int(key as i128)),
            ("shard", Json::Int(shard as i128)),
            ("msg", Json::Str(msg.into())),
            ("verdict", Json::Str(verdict.into())),
            (
                "admit_us",
                Json::Float(delta(ctx.enqueue_us, ctx.submit_us)),
            ),
        ],
    );
}

/// Emits the `flow.queue` record at dequeue with the queue wait.
pub fn emit_queue(ctx: &FlowCtx, key: u64, shard: usize, msg: &'static str, dequeue_us: f64) {
    if !flow_enabled(ctx.trace_id) {
        return;
    }
    event(
        Level::Debug,
        "flow.queue",
        &[
            ("trace_id", Json::Int(ctx.trace_id as i128)),
            ("key", Json::Int(key as i128)),
            ("shard", Json::Int(shard as i128)),
            ("msg", Json::Str(msg.into())),
            ("queue_us", Json::Float(delta(dequeue_us, ctx.enqueue_us))),
        ],
    );
}

/// Emits the `flow.service` record after the engine call. `outcome` is
/// one of `fed` / `decided` / `halted` / `late_drop` / `engine_rejected`.
pub fn emit_service(
    ctx: &FlowCtx,
    key: u64,
    shard: usize,
    msg: &'static str,
    outcome: &'static str,
    service_us: f64,
) {
    if !flow_enabled(ctx.trace_id) {
        return;
    }
    event(
        Level::Debug,
        "flow.service",
        &[
            ("trace_id", Json::Int(ctx.trace_id as i128)),
            ("key", Json::Int(key as i128)),
            ("shard", Json::Int(shard as i128)),
            ("msg", Json::Str(msg.into())),
            ("outcome", Json::Str(outcome.into())),
            ("service_us", Json::Float(service_us)),
        ],
    );
}

/// Emits the `flow.decision` record with the component decomposition of
/// the deciding message. The components sum to `e2e_us` by construction
/// (each is a difference of consecutive stamps); missing stamps (replay)
/// serialize as `null`, which downstream reconstruction treats as an
/// incomplete chain rather than a zero.
#[allow(clippy::too_many_arguments)]
pub fn emit_decision(
    stamps: &FlowStamps,
    key: u64,
    shard: usize,
    forced: bool,
    via: &'static str,
    pred: usize,
    n_items: usize,
    decided_us: f64,
) {
    if !flow_enabled(stamps.ctx.trace_id) {
        return;
    }
    let ctx = &stamps.ctx;
    event(
        Level::Debug,
        "flow.decision",
        &[
            ("trace_id", Json::Int(ctx.trace_id as i128)),
            ("key", Json::Int(key as i128)),
            ("shard", Json::Int(shard as i128)),
            ("forced", Json::Bool(forced)),
            ("via", Json::Str(via.into())),
            ("pred", Json::Int(pred as i128)),
            ("n_items", Json::Int(n_items as i128)),
            (
                "admit_us",
                Json::Float(delta(ctx.enqueue_us, ctx.submit_us)),
            ),
            (
                "queue_us",
                Json::Float(delta(stamps.dequeue_us, ctx.enqueue_us)),
            ),
            (
                "service_us",
                Json::Float(delta(stamps.fed_us, stamps.dequeue_us)),
            ),
            ("decide_us", Json::Float(delta(decided_us, stamps.fed_us))),
            ("e2e_us", Json::Float(delta(decided_us, ctx.submit_us))),
        ],
    );
}

/// Emits the `flow.replay` record: a journaled mutation re-applied after
/// a worker crash, carrying the original trace id. `entry` names the
/// journal entry kind (`item` / `flow_end` / `forced_halt`).
pub fn emit_replay(trace_id: u64, key: u64, shard: usize, entry: &'static str) {
    if !flow_enabled(trace_id) {
        return;
    }
    event(
        Level::Debug,
        "flow.replay",
        &[
            ("trace_id", Json::Int(trace_id as i128)),
            ("key", Json::Int(key as i128)),
            ("shard", Json::Int(shard as i128)),
            ("entry", Json::Str(entry.into())),
        ],
    );
}

/// Emits the `flow.quarantine` record for the in-flight arrival a
/// crashed worker never finished.
pub fn emit_quarantine(trace_id: u64, key: u64, shard: usize, seq: u64) {
    if !flow_enabled(trace_id) {
        return;
    }
    event(
        Level::Debug,
        "flow.quarantine",
        &[
            ("trace_id", Json::Int(trace_id as i128)),
            ("key", Json::Int(key as i128)),
            ("shard", Json::Int(shard as i128)),
            ("seq", Json::Int(seq as i128)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_context_traces_nothing() {
        let ctx = FlowCtx::inactive();
        assert!(!ctx.is_active());
        assert!(ctx.submit_us.is_nan() && ctx.enqueue_us.is_nan());
        assert!(!FlowStamps::inactive().is_active());
    }

    #[test]
    fn replayed_context_keeps_identity_but_not_stamps() {
        let ctx = FlowCtx::replayed(42);
        assert!(ctx.is_active());
        assert_eq!(ctx.trace_id, 42);
        assert!(ctx.submit_us.is_nan());
    }

    #[test]
    fn delta_of_missing_stamps_is_nan() {
        assert!(delta(f64::NAN, 1.0).is_nan());
        assert!(delta(5.0, f64::NAN).is_nan());
        assert_eq!(delta(5.0, 2.0), 3.0);
    }
}
