//! The serving layer's observability instruments (`kvec-obs`).
//!
//! Four of these are *required* by `validate_trace --serve` on any traced
//! serving run: `serve.queue_depth`, `serve.shed_total`,
//! `serve.forced_halts`, and `serve.worker_restarts` — the minimum
//! evidence that backpressure, degradation, and recovery are being
//! accounted for. Counters here mirror (but never replace) the exact
//! per-service [`crate::ServeStats`]: obs metrics are process-global and
//! may be disabled, so tests assert on stats, operators read metrics.
//!
//! The instruments declared with [`WINDOW_TICKS`] also keep their last
//! windows; each `telemetry.snapshot` heartbeat reads one window of them
//! (`window_total` / `merged_percentiles`), while the metrics summary
//! carries their whole-run totals.

use kvec_obs::{LazyCounter, LazyGauge, LazyHistogram};

/// Width, in logical ticks, of one telemetry window. Workers advance the
/// tick clock by one per processed message, so a window covers ~256
/// processed arrivals fleet-wide regardless of wall-clock speed.
pub const WINDOW_TICKS: u64 = 256;

/// Depth of the shard queue last touched (set on every submit and on
/// every supervisor poll with the total across shards; the high-water
/// mark is the backlog a deployment must provision for).
pub static QUEUE_DEPTH: LazyGauge = LazyGauge::new("serve.queue_depth");
/// Arrivals submitted to the router, admitted or not (windowed: the
/// denominator of each snapshot's shed rate).
pub static SUBMITTED: LazyCounter = LazyCounter::windowed("serve.submitted", WINDOW_TICKS);
/// Arrivals that entered a shard queue (includes delayed ones).
pub static ADMITTED: LazyCounter = LazyCounter::new("serve.admitted");
/// Admitted arrivals flagged `Delayed` (the backpressure signal).
pub static DELAYED: LazyCounter = LazyCounter::new("serve.delayed");
/// Arrivals and flow ends shed for any reason (queue full or confident
/// key).
pub static SHED_TOTAL: LazyCounter = LazyCounter::new("serve.shed_total");
/// Arrivals shed for any reason: [`SHED_TOTAL`] without flow-end sheds,
/// so that over [`SUBMITTED`] it is a shed rate (windowed: each
/// snapshot's shed count).
pub static SHED_ITEMS: LazyCounter = LazyCounter::windowed("serve.shed_items", WINDOW_TICKS);
/// Sheds at queue capacity.
pub static SHED_QUEUE_FULL: LazyCounter = LazyCounter::new("serve.shed_queue_full");
/// Sheds of already-confident keys past the shed watermark.
pub static SHED_CONFIDENT: LazyCounter = LazyCounter::new("serve.shed_confident");
/// Keys force-classified by the deadline enforcer (graceful degradation:
/// overload becomes earlier decisions, not unbounded latency). Windowed.
pub static FORCED_HALTS: LazyCounter = LazyCounter::windowed("serve.forced_halts", WINDOW_TICKS);
/// Shard workers respawned after a crash.
pub static WORKER_RESTARTS: LazyCounter = LazyCounter::new("serve.worker_restarts");
/// Arrivals quarantined because processing them killed a worker.
pub static QUARANTINED: LazyCounter = LazyCounter::new("serve.quarantined");
/// Arrivals successfully fed into a shard engine.
pub static PROCESSED: LazyCounter = LazyCounter::new("serve.processed");
/// Arrivals for already-decided keys dropped at the worker.
pub static LATE_DROPS: LazyCounter = LazyCounter::new("serve.late_drops");
/// Admitted arrivals the engine refused (e.g. the active-key bound).
pub static ENGINE_REJECTS: LazyCounter = LazyCounter::new("serve.engine_rejects");
/// Decisions emitted (each key decides exactly once). Windowed.
pub static DECISIONS: LazyCounter = LazyCounter::windowed("serve.decisions", WINDOW_TICKS);
/// Shards observed wedged (heartbeat stalled with a non-empty queue).
pub static WEDGE_EVENTS: LazyCounter = LazyCounter::new("serve.wedge_events");
/// Sum of worker heartbeats (processed messages), sampled by the
/// supervisor — a flat line with non-empty queues means a wedged fleet.
pub static WORKER_HEARTBEAT: LazyGauge = LazyGauge::new("serve.worker_heartbeat");
/// Microseconds from the deciding message's enqueue (or, for
/// deadline-forced halts, from the key's first pending arrival) to the
/// decision. Percentiles exported via `Histogram::percentiles`; windowed,
/// so the p50/p95/p99 in each `telemetry.snapshot` heartbeat cover one
/// recent window and latency drift is visible while a run is in flight.
pub static DECISION_LATENCY_US: LazyHistogram =
    LazyHistogram::windowed("serve.decision_latency_us", WINDOW_TICKS);
/// Microseconds a deciding arrival waited in its shard queue
/// (dequeue − enqueue). Whole-run aggregate of the per-flow `flow.queue`
/// trace records; exported so `serve_load` can report the queue-wait
/// share of end-to-end latency without a trace file.
pub static QUEUE_WAIT_US: LazyHistogram = LazyHistogram::new("serve.queue_wait_us");
/// Microseconds of worker service time per processed arrival
/// (engine feed + bookkeeping, including chaos-injected stalls).
pub static SERVICE_US: LazyHistogram = LazyHistogram::new("serve.service_us");

/// Forces registration of every serve instrument. Called at service
/// start so traced runs export them even at zero — a healthy run has no
/// restarts, and an *absent* `serve.worker_restarts` counter would be
/// indistinguishable from a broken pipeline (`validate_trace --serve`
/// requires the explicit zero).
pub fn register_all() {
    for c in [
        &SUBMITTED,
        &ADMITTED,
        &DELAYED,
        &SHED_TOTAL,
        &SHED_ITEMS,
        &SHED_QUEUE_FULL,
        &SHED_CONFIDENT,
        &FORCED_HALTS,
        &WORKER_RESTARTS,
        &QUARANTINED,
        &PROCESSED,
        &LATE_DROPS,
        &ENGINE_REJECTS,
        &DECISIONS,
        &WEDGE_EVENTS,
    ] {
        c.add(0);
    }
    QUEUE_DEPTH.set(0.0);
    WORKER_HEARTBEAT.set(0.0);
    // DECISION_LATENCY_US is registered without a sample: a zero sample
    // would skew percentiles, and a serving run that decided nothing
    // should fail validation (an empty histogram) rather than masquerade
    // as healthy. Registering it here fixes its window width before any
    // by-name read (`obs::metrics::histogram`) could create it without
    // windows.
    if kvec_obs::enabled() {
        DECISION_LATENCY_US.force();
    }
}
