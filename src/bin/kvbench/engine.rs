//! `stream-late-wide`: the bare `StreamingEngine`, configured as the
//! service runs it, on the wide model with every arrival processed until
//! its group's flow-end. Long visible lists and wide rows make the tensor
//! and attention kernels dominate; the service layer does nothing.

use crate::gen::{wide_model, Pool, PoolShape};
use crate::metrics::{Report, END_TO_END};
use crate::oracle::{mismatches, reference_decisions, service_engine};
use crate::stats::{Estimator, Timing};
use crate::{median_setup, Plan};
use kvec::streaming::Decision;
use kvec::StreamingEngine;
use std::time::Instant;

/// ~25 k arrivals per lap: 16 groups of 64 concurrent flows of ~25 items.
const FULL: PoolShape = PoolShape {
    groups: 16,
    flows_per_group: 64,
};
const SMOKE: PoolShape = PoolShape {
    groups: 2,
    flows_per_group: 8,
};

pub fn shape(plan: &Plan) -> PoolShape {
    plan.pick(FULL, SMOKE)
}

/// Feeds one lap to `engine`, one timed segment per flow group, handing
/// every decision to `sink`; returns the most KV rows resident after any
/// arrival.
pub fn feed_lap(
    engine: &mut StreamingEngine<'_>,
    pool: &Pool,
    timing: &mut Timing,
    mut sink: impl FnMut(Decision),
) -> usize {
    let mut peak_rows = 0;
    let mut start = 0;
    for (segment, (end, keys)) in pool.group_ends.iter().enumerate() {
        let t0 = Instant::now();
        for item in &pool.items[start..*end] {
            let decision = engine.feed(item).expect("unbounded engine cannot fault");
            peak_rows = peak_rows.max(engine.cache_rows());
            decision.into_iter().for_each(&mut sink);
        }
        for &key in keys {
            let decision = engine.halt_key(key).expect("flow-ended key was fed");
            decision.into_iter().for_each(&mut sink);
        }
        timing.record(segment, (end - start) as f64, t0.elapsed().as_secs_f64());
        start = *end;
    }
    peak_rows
}

pub fn run(plan: &Plan) -> Report {
    let mut report = Report::new(END_TO_END);
    let ((model, mut pool), setup_s) =
        median_setup(|| (wide_model(), Pool::traffic(plan.seed, shape(plan))));
    report.set("setup_s", setup_s);
    report.lines.push(pool.describe());
    let lap0 = pool.clone();

    let mut engine = service_engine(&model);
    let mut lap0_decisions = Vec::new();
    let mut decisions = 0u64;
    let mut peak_rows = 0;
    let mut timing = Timing::default();
    let started = Instant::now();
    loop {
        let first = timing.laps() == 0;
        let lap_peak = feed_lap(&mut engine, &pool, &mut timing, |d| {
            decisions += 1;
            if first {
                lap0_decisions.push(d);
            }
        });
        peak_rows = peak_rows.max(lap_peak);
        if plan.done(started, timing.laps()) {
            break;
        }
        pool.next_lap();
    }
    report.set_rate(&timing, Estimator::Fastest);
    let laps = timing.laps();

    // Windowed ≡ drop-only, bit for bit, on lap 0; no arrival dropped and
    // one decision per flow on every lap.
    let drop_only = StreamingEngine::new(&model).with_halted_feed_dropping();
    let want = reference_decisions(drop_only, lap0.events());
    report.check(
        "lap-0 decisions equal the drop-only unbounded engine's",
        mismatches(&lap0_decisions, &want),
        (lap0.arrivals() + lap0.flows()) as u64,
    );
    let flows = (laps * pool.flows()) as u64;
    report.check(
        "every arrival processed, one decision per flow",
        decisions.abs_diff(flows) + engine.halted_feed_drops() as u64,
        (laps * pool.arrivals()) as u64 + flows,
    );
    // The windowed cache keeps resident rows within twice the live span
    // (a whole group here: no flow halts before its flow-end) plus the
    // compaction hysteresis, however many laps ran — the bound
    // `tests/streaming_soak.rs` holds the engine to.
    let bound = row_bound(&pool);
    report.lines.push(format!(
        "resident rows: peak {peak_rows} over {laps} laps, bound {bound}"
    ));
    report.check(
        "resident rows within the windowed bound",
        (peak_rows > bound) as u64,
        1,
    );
    report
}

/// Most KV rows the windowed engine may hold on `pool`'s stream:
/// `2 · longest group + 128`.
pub fn row_bound(pool: &Pool) -> usize {
    let mut start = 0;
    let longest = pool.group_ends.iter().map(|(end, _)| {
        let len = end - start;
        start = *end;
        len
    });
    2 * longest.max().unwrap_or(0) + 128
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resident-row check means something: over three laps the windowed
    /// engine stays within the bound and an engine that never evicts does
    /// not.
    #[test]
    fn an_engine_that_never_evicts_exceeds_the_row_bound() {
        let model = wide_model();
        let peak_over_three_laps = |mut engine: StreamingEngine<'_>| {
            let mut pool = Pool::traffic(1, SMOKE);
            let mut peak = 0;
            for _ in 0..3 {
                peak = peak.max(feed_lap(&mut engine, &pool, &mut Timing::default(), drop));
                pool.next_lap();
            }
            peak
        };
        let bound = row_bound(&Pool::traffic(1, SMOKE));
        assert!(peak_over_three_laps(service_engine(&model)) <= bound);
        let unbounded = StreamingEngine::new(&model).with_halted_feed_dropping();
        assert!(peak_over_three_laps(unbounded) > bound);
    }
}
