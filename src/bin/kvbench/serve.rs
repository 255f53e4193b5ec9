//! `serve-closed` and `serve-overload`: the `ShardedService` with the tiny
//! model in the early-classification regime. Kernels do little here, so
//! queue, locks, journal, clones and per-arrival allocation dominate.
//!
//! `serve-closed` is a closed loop with backpressure: a full queue makes
//! the generator back off and resubmit, so every arrival is admitted exactly
//! once and the rate is the sustainable throughput without a rate search.
//! `serve-overload` offers the same stream open-loop at a fixed rate well
//! above that, through the default admission ladder: full queues, both
//! shed rungs and deadline-forced halts.

use crate::gen::{tiny_model, Event, Pool, PoolShape};
use crate::metrics::{Report, END_TO_END};
use crate::oracle::{duplicate_decisions, shard_mismatches};
use crate::stats::{self, Estimator, Timing};
use crate::{median_setup, shards, Plan};
use kvec::streaming::Decision;
use kvec_data::Key;
use kvec_serve::{Admission, ServeConfig, ServeReport, ServeStats, ShardedService, ShedReason};
use std::time::{Duration, Instant};

/// ~100 k arrivals per lap: 500 groups of 8 concurrent flows of ~25 items.
const FULL: PoolShape = PoolShape {
    groups: 500,
    flows_per_group: 8,
};
const SMOKE: PoolShape = PoolShape {
    groups: 6,
    flows_per_group: 8,
};

/// Offered rate of `serve-overload`, arrivals per second. A constant,
/// never derived from a measured run.
pub const OVERLOAD_RATE: f64 = 1_000_000.0;

/// Laps of `serve-closed` whose decisions are held to the reference
/// engine (checking costs about as much as serving them).
const CHECKED_LAPS: usize = 2;

pub fn shape(plan: &Plan) -> PoolShape {
    plan.pick(FULL, SMOKE)
}

/// The closed loop's configuration: watermarks at capacity and deadlines
/// off, so the shed rungs and the deadline enforcer are bypassed.
pub fn closed_config() -> ServeConfig {
    ServeConfig {
        shards: shards(),
        queue_capacity: 256,
        delay_watermark: 64,
        shed_watermark: 256,
        ..ServeConfig::default()
    }
}

/// The overload configuration: the default ladder.
pub fn overload_config() -> ServeConfig {
    ServeConfig {
        shards: shards(),
        queue_capacity: 256,
        delay_watermark: 64,
        shed_watermark: 128,
        confident_margin: 0.5,
        deadline_ticks: Some(64),
        overload_deadline_ticks: Some(16),
        wall_deadline: Some(Duration::from_millis(250)),
        ..ServeConfig::default()
    }
}

/// How long the closed-loop generator waits before resubmitting to a full
/// queue: a fraction of the ~0.4 ms the worker takes to drain 256 queued
/// arrivals, so the queue never runs empty. (Yielding instead of sleeping
/// had the generator retry two to three times per arrival against the
/// locks the worker needs, which cost a quarter of the throughput and
/// doubled its spread on the reference host.)
const BACKOFF: Duration = Duration::from_micros(50);

/// Sends one message, resubmitting after a back-off while the queue is
/// full, and returns the number of retries. Only for `closed_config`: with
/// the shed watermark at capacity no other shed can happen.
pub fn send_closed(svc: &ShardedService, event: Event<'_>) -> u64 {
    let mut retries = 0;
    loop {
        let verdict = match event {
            Event::Item(item) => svc.submit(item.clone()),
            Event::FlowEnd(key) => svc.submit_flow_end(key),
        };
        match verdict {
            Admission::Shed {
                reason: ShedReason::QueueFull { .. },
            } => {
                retries += 1;
                std::thread::sleep(BACKOFF);
            }
            Admission::Shed { reason } => unreachable!("closed loop shed by {reason:?}"),
            _ => return retries,
        }
    }
}

/// What a closed-loop run leaves behind for the checks.
pub struct Served {
    pub timing: Timing,
    pub retries: u64,
    pub report: ServeReport,
}

/// Messages per timed segment of a closed-loop lap, as seen by the
/// generator. The queue holds at most 256, so a segment's time is the
/// service's time for it to within about one part in a hundred.
const CLOSED_SEGMENT: usize = 10_000;

/// Drives laps through a started service in a closed loop until the
/// plan's time has passed, then shuts it down.
pub fn drive_closed(plan: &Plan, svc: ShardedService, pool: &mut Pool) -> Served {
    let mut timing = Timing::default();
    let mut retries = 0;
    let started = Instant::now();
    loop {
        let events: Vec<Event<'_>> = pool.events().collect();
        for (segment, chunk) in events.chunks(CLOSED_SEGMENT).enumerate() {
            let t0 = Instant::now();
            let mut items = 0;
            for &event in chunk {
                retries += send_closed(&svc, event);
                items += matches!(event, Event::Item(_)) as usize;
            }
            timing.record(segment, items as f64, t0.elapsed().as_secs_f64());
        }
        if plan.done(started, timing.laps()) {
            break;
        }
        pool.next_lap();
    }
    Served {
        timing,
        retries,
        report: svc.shutdown(),
    }
}

/// Failures of the accounting identity and of exactly-once delivery,
/// which hold for every run, shed or not.
fn accounting_failures(stats: &ServeStats, decisions: &[Decision]) -> u64 {
    stats.submitted.abs_diff(stats.arrivals_accounted())
        + stats.decisions.abs_diff(decisions.len() as u64)
        + duplicate_decisions(decisions)
}

pub fn run_closed(plan: &Plan) -> Report {
    let mut report = Report::new(END_TO_END);
    // `median_setup` drops (and so shuts down) each repetition's service
    // before it times the next.
    let ((mut pool, svc), setup_s) = median_setup(|| {
        let pool = Pool::traffic(plan.seed, shape(plan));
        let svc = ShardedService::start(tiny_model(), closed_config());
        (pool, svc)
    });
    report.set("setup_s", setup_s);
    report.lines.push(pool.describe());
    let mut lap = pool.clone();

    let Served {
        timing,
        retries,
        report: out,
    } = drive_closed(plan, svc, &mut pool);
    report.set_rate(&timing, Estimator::Fastest);
    let laps = timing.laps();

    let stats = out.stats;
    let arrivals = (laps * pool.arrivals()) as u64;
    let flows = (laps * pool.flows()) as u64;
    report.lines.push(format!(
        "served: {arrivals} arrivals, {} processed, {} late drops, {retries} retries, {} decisions",
        stats.processed, stats.late_drops, stats.decisions
    ));
    report.check(
        "accounting identity and exactly-once decisions",
        accounting_failures(&stats, &out.decisions),
        arrivals + flows,
    );
    // Every arrival admitted exactly once: each queue-full verdict was
    // retried, nothing else was shed, and every flow decided.
    let items_retried = stats.shed_queue_full;
    report.check(
        "every arrival admitted once, every flow decided",
        stats.shed_confident
            + stats.admitted.abs_diff(arrivals)
            + (stats.processed + stats.late_drops).abs_diff(arrivals)
            + (items_retried + stats.flow_ends_shed).abs_diff(retries)
            + stats.decisions.abs_diff(flows),
        arrivals + flows,
    );

    // The determinism contract on the first laps: per shard, decisions
    // bit-identical to one reference engine fed the shard's sub-stream.
    let checked = CHECKED_LAPS.min(laps);
    let mut stream = Vec::new();
    for _ in 0..checked {
        stream.push(lap.clone());
        lap.next_lap();
    }
    let events: Vec<Event<'_>> = stream.iter().flat_map(Pool::events).collect();
    let covered = Key(checked as u64 * pool.keys);
    let decisions: Vec<Decision> = out
        .decisions
        .iter()
        .filter(|d| d.key < covered)
        .cloned()
        .collect();
    report.check(
        "per-shard decisions equal the reference engine's",
        shard_mismatches(&tiny_model(), shards(), &events, &decisions),
        events.len() as u64,
    );
    report
}

/// Offers laps open-loop at `rate` arrivals per second until the plan's
/// time has passed: each arrival is sent at its due time or, after a
/// stall, as soon after it as possible; nothing is retried. `sent` sees
/// every message after its submission and whether it was admitted.
/// Returns the laps — each lap's processed count over its own time — and
/// a sample of the arrivals' lateness in seconds.
pub fn drive_open(
    plan: &Plan,
    svc: &ShardedService,
    pool: &mut Pool,
    rate: f64,
    mut sent: impl FnMut(Event<'_>, bool),
) -> (Timing, Vec<f64>) {
    let mut timing = Timing::default();
    let mut lag = Vec::new();
    let mut offered = 0u64;
    let started = Instant::now();
    let mut processed_before = 0;
    loop {
        let t0 = Instant::now();
        for event in pool.events() {
            let verdict = match event {
                Event::Item(item) => {
                    let due = Duration::from_secs_f64(offered as f64 / rate);
                    let mut now = started.elapsed();
                    while now < due {
                        std::hint::spin_loop();
                        now = started.elapsed();
                    }
                    if offered.is_multiple_of(64) {
                        lag.push((now - due).as_secs_f64());
                    }
                    offered += 1;
                    svc.submit(item.clone())
                }
                Event::FlowEnd(key) => svc.submit_flow_end(key),
            };
            sent(event, verdict.is_admitted());
        }
        let processed = svc.stats().processed;
        timing.record(
            0,
            (processed - processed_before) as f64,
            t0.elapsed().as_secs_f64(),
        );
        processed_before = processed;
        if plan.done(started, timing.laps()) {
            break;
        }
        pool.next_lap();
    }
    (timing, lag)
}

pub fn run_overload(plan: &Plan) -> Report {
    let mut report = Report::new(END_TO_END);
    let ((mut pool, svc), setup_s) = median_setup(|| {
        let pool = Pool::traffic(plan.seed, shape(plan));
        let svc = ShardedService::start(tiny_model(), overload_config());
        (pool, svc)
    });
    report.set("setup_s", setup_s);
    report.lines.push(pool.describe());

    // The rate is arrivals fed into shard engines per second while
    // saturated: each lap's own processed count over its own time. How
    // many a lap processes depends on timing, so the median lap stands.
    let (timing, lag) = drive_open(plan, &svc, &mut pool, OVERLOAD_RATE, |_, _| {});
    let out = svc.shutdown();
    report.set_rate(&timing, Estimator::Median);
    let laps = timing.laps();

    let stats = out.stats;
    let offered = (laps * pool.arrivals()) as u64;
    let flows = (laps * pool.flows()) as u64;
    let lag_p99_ms = stats::percentile(&lag, 0.99) * 1e3;
    report.lines.push(format!(
        "offered {offered} at {OVERLOAD_RATE}/s: {} processed, {} late drops, {} shed \
         ({} queue-full, {} confident), {} forced halts, {} decisions; generator lag p99 {lag_p99_ms:.3} ms",
        stats.processed,
        stats.late_drops,
        stats.shed_total(),
        stats.shed_queue_full,
        stats.shed_confident,
        stats.forced_halts,
        stats.decisions
    ));
    // A generator that ran a whole lap (0.1 s) behind its schedule did not
    // offer the stated load: the run is invalid, not slow. (The smoke
    // test's laps last a millisecond; one preemption is not a verdict.)
    report.check(
        "generator kept its schedule",
        plan.pick(lag_p99_ms > 100.0, false) as u64,
        1,
    );
    report.check(
        "accounting identity and exactly-once decisions",
        accounting_failures(&stats, &out.decisions)
            + stats.submitted.abs_diff(offered)
            + stats.flow_ends.abs_diff(flows)
            + stats.flow_ends_shed.saturating_sub(stats.flow_ends)
            + stats.decisions.saturating_sub(flows),
        offered + flows,
    );
    report
}
