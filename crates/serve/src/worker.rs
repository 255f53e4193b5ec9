//! The shard worker: owns one [`StreamingEngine`], interprets the chaos
//! plan, journals successful mutations for crash replay, and enforces
//! deadline budgets.
//!
//! # Crash recovery
//!
//! Every engine mutation that *succeeds* is appended to the shard
//! journal ([`JournalEntry`]) — items after a successful `feed`, flow
//! ends after a decision-producing `halt_key`, deadline halts explicitly
//! as [`JournalEntry::ForcedHalt`]. A respawned worker replays the
//! journal into a fresh engine, which reconstructs per-key state
//! bit-exactly; the shard's `decided` set suppresses re-emission of
//! decisions already delivered. Deadline-forced halts are journaled
//! (rather than re-derived) because enforcement depends on queue depth,
//! which is not reproducible at replay time.
//!
//! Poison arrivals crash the worker mid-`feed` and are therefore never
//! journaled: the supervisor quarantines them and the replayed engine
//! behaves as if they were shed.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use kvec::streaming::Decision;
use kvec::StreamingEngine;
use kvec_data::{Item, Key};
use kvec_json::ToJson;
use kvec_obs::{self as obs, event, trace_ctx, window, FlowCtx, FlowStamps, Level};

use crate::instruments as ins;
use crate::queue::Pop;
use crate::service::{lock, Shared};

/// A message on a shard queue.
pub(crate) enum Msg {
    /// One key-value arrival.
    Item {
        item: Item,
        /// Router-assigned submission sequence number (quarantine id).
        seq: u64,
        /// When the router enqueued it (decision-latency clock).
        enqueued: Instant,
        /// Flow trace context minted at admission.
        ctx: FlowCtx,
    },
    /// The stream for `key` ended upstream: force-classify it.
    FlowEnd {
        key: Key,
        enqueued: Instant,
        ctx: FlowCtx,
    },
}

/// One replayable engine mutation. See the [module docs](self). Each
/// entry carries the mutation's original flow trace id (0 = untraced) so
/// replay preserves flow *identity* across a crash — a replayed arrival
/// is the same flow, re-applied.
#[derive(Clone)]
pub(crate) enum JournalEntry {
    Item { item: Item, trace_id: u64 },
    FlowEnd { key: Key, trace_id: u64 },
    ForcedHalt { key: Key, trace_id: u64 },
}

/// Chaos fault kinds, used to key the shard's fired-once set.
#[derive(Clone, Copy)]
enum FaultKind {
    Kill = 0,
    Poison = 1,
    Stall = 2,
}

fn fire_once(shared: &Shared, idx: usize, kind: FaultKind, arrival: u64) -> bool {
    lock(&shared.shards[idx].fired).insert((kind as u8, arrival))
}

/// Pending-key index: keys fed at least once but not yet decided,
/// ordered by the logical tick of their first pending arrival — exactly
/// the order the deadline enforcer evicts them in ("longest pending
/// first"). Removal is lazy on the tick index; `oldest` skips stale
/// entries.
#[derive(Default)]
struct Pending {
    by_key: BTreeMap<Key, (u64, Instant, FlowStamps)>,
    by_tick: BTreeMap<u64, Vec<Key>>,
}

impl Pending {
    fn note(&mut self, key: Key, tick: u64, since: Instant, stamps: FlowStamps) {
        if self.by_key.contains_key(&key) {
            return; // deadline runs from the FIRST pending arrival
        }
        self.by_key.insert(key, (tick, since, stamps));
        self.by_tick.entry(tick).or_default().push(key);
    }

    fn remove(&mut self, key: Key) {
        self.by_key.remove(&key);
    }

    /// Trace stamps of the key's first pending arrival (inactive when
    /// the key isn't pending) — what a forced or end-of-stream decision
    /// attributes its wait to.
    fn stamps(&self, key: Key) -> FlowStamps {
        self.by_key
            .get(&key)
            .map_or(FlowStamps::inactive(), |&(_, _, s)| s)
    }

    fn oldest(&mut self) -> Option<(u64, Key, Instant, FlowStamps)> {
        loop {
            let tick = *self.by_tick.keys().next()?;
            let keys = self.by_tick.get_mut(&tick).expect("key just seen");
            while let Some(&k) = keys.first() {
                match self.by_key.get(&k) {
                    Some(&(t, since, stamps)) if t == tick => {
                        return Some((tick, k, since, stamps))
                    }
                    _ => {
                        keys.remove(0);
                    }
                }
            }
            self.by_tick.remove(&tick);
        }
    }
}

/// The worker body. Panics propagate to the `catch_unwind` wrapper in
/// the spawner, which records the crash for the supervisor.
pub(crate) fn run(shared: &Shared, idx: usize) {
    let cfg = &shared.cfg;
    let shard = &shared.shards[idx];
    let mut engine = StreamingEngine::new(&shared.model)
        .with_halted_feed_dropping()
        .with_windowed_cache();
    if let Some(limit) = cfg.max_active_keys {
        engine = engine.with_max_active_keys(limit);
    }
    let mut pending = Pending::default();
    let mut ticks: u64 = 0;

    // Replay the journal (empty on first spawn). Counters are NOT
    // touched here: the pre-crash worker already accounted these
    // arrivals; replay only reconstructs engine state.
    let entries = lock(&shard.journal).clone();
    if !entries.is_empty() {
        event(
            Level::Info,
            "serve.replay",
            &[
                ("shard", idx.to_json()),
                ("entries", entries.len().to_json()),
            ],
        );
        for entry in &entries {
            replay_entry(shared, idx, &mut engine, &mut pending, &mut ticks, entry);
        }
    }

    loop {
        let next = shard.popped.load(Ordering::SeqCst);
        if shared.chaos.kill_fires(idx, next) && fire_once(shared, idx, FaultKind::Kill, next) {
            panic!("chaos: kill shard {idx} worker before arrival {next}");
        }
        match shard.queue.pop_timeout(cfg.idle_poll) {
            Pop::Closed => break,
            Pop::TimedOut => {
                enforce_wall_deadline(shared, idx, &mut engine, &mut pending);
            }
            Pop::Msg(msg) => {
                let arrival = shard.popped.fetch_add(1, Ordering::SeqCst);
                // Dequeue stamps are taken *before* the chaos stall: an
                // injected stall models a slow worker, so its time lands
                // in service, not queue wait.
                let t_deq = Instant::now();
                let deq_us = if obs::enabled() {
                    obs::ts_us()
                } else {
                    f64::NAN
                };
                if let Some(ms) = shared.chaos.stall_millis(idx, arrival) {
                    if fire_once(shared, idx, FaultKind::Stall, arrival) {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                process(
                    shared,
                    idx,
                    &mut engine,
                    &mut pending,
                    &mut ticks,
                    msg,
                    arrival,
                    t_deq,
                    deq_us,
                );
                enforce_tick_deadlines(shared, idx, &mut engine, &mut pending, ticks);
                enforce_wall_deadline(shared, idx, &mut engine, &mut pending);
                shard.heartbeat.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    // Queue closed and drained: the stream has ended. Whatever is still
    // live gets its forced end-of-stream decision, exactly like a
    // single-threaded engine's finish().
    for d in engine.finish() {
        let stamps = pending.stamps(d.key);
        pending.remove(d.key);
        conclude(shared, idx, d, None, stamps, false, "finish");
    }
}

#[allow(clippy::too_many_arguments)]
fn process(
    shared: &Shared,
    idx: usize,
    engine: &mut StreamingEngine<'_>,
    pending: &mut Pending,
    ticks: &mut u64,
    msg: Msg,
    arrival: u64,
    t_deq: Instant,
    deq_us: f64,
) {
    let shard = &shared.shards[idx];
    match msg {
        Msg::Item {
            item,
            seq,
            enqueued,
            ctx,
        } => {
            trace_ctx::emit_queue(&ctx, item.key.0, idx, "item", deq_us);
            let wait_ns = t_deq.duration_since(enqueued).as_nanos() as u64;
            shard.queue_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
            shard.queue_wait_samples.fetch_add(1, Ordering::Relaxed);
            ins::QUEUE_WAIT_US.record(wait_ns as f64 / 1e3);
            if shared.chaos.poison_fires(idx, arrival)
                && fire_once(shared, idx, FaultKind::Poison, arrival)
            {
                // Simulate a crash mid-feed: inflight is set (so the
                // supervisor can quarantine the item) and the journal is
                // untouched (the feed "never completed").
                *lock(&shard.inflight) = Some((seq, item, ctx.trace_id));
                panic!("chaos: poison arrival {arrival} on shard {idx}");
            }
            if lock(&shard.decided).contains(&item.key) {
                // The engine would drop this anyway (halted-feed
                // dropping); skipping here keeps the journal minimal and
                // the drop observable.
                shard.late_drops.fetch_add(1, Ordering::Relaxed);
                ins::LATE_DROPS.add(1);
                trace_ctx::emit_service(&ctx, item.key.0, idx, "item", "late_drop", 0.0);
                return;
            }
            *lock(&shard.inflight) = Some((seq, item.clone(), ctx.trace_id));
            let fed = engine.feed_traced(&item, &ctx);
            *lock(&shard.inflight) = None;
            let fed_us = if ctx.is_active() {
                obs::ts_us()
            } else {
                f64::NAN
            };
            let service_ns = t_deq.elapsed().as_nanos() as u64;
            match fed {
                Ok(decision) => {
                    lock(&shard.journal).push(JournalEntry::Item {
                        item: item.clone(),
                        trace_id: ctx.trace_id,
                    });
                    *ticks += 1;
                    if obs::enabled() {
                        window::advance(1);
                    }
                    shard.processed.fetch_add(1, Ordering::Relaxed);
                    shard.service_ns.fetch_add(service_ns, Ordering::Relaxed);
                    shard.service_samples.fetch_add(1, Ordering::Relaxed);
                    ins::PROCESSED.add(1);
                    ins::SERVICE_US.record(service_ns as f64 / 1e3);
                    let stamps = FlowStamps {
                        ctx,
                        dequeue_us: deq_us,
                        fed_us,
                    };
                    match decision {
                        Some(d) => {
                            trace_ctx::emit_service(
                                &ctx,
                                item.key.0,
                                idx,
                                "item",
                                "decided",
                                fed_us - deq_us,
                            );
                            pending.remove(d.key);
                            conclude(shared, idx, d, Some(enqueued), stamps, false, "policy");
                        }
                        None => {
                            trace_ctx::emit_service(
                                &ctx,
                                item.key.0,
                                idx,
                                "item",
                                "fed",
                                fed_us - deq_us,
                            );
                            pending.note(item.key, *ticks, enqueued, stamps);
                            publish_confidence(shared, idx, engine, item.key);
                        }
                    }
                }
                Err(_) => {
                    // Typed engine refusal (active-key bound). Not
                    // journaled: replay would be refused identically, but
                    // only if the bound state matched exactly — cheaper
                    // and safer to treat it like a shed.
                    shard.engine_rejected.fetch_add(1, Ordering::Relaxed);
                    ins::ENGINE_REJECTS.add(1);
                    trace_ctx::emit_service(
                        &ctx,
                        item.key.0,
                        idx,
                        "item",
                        "engine_rejected",
                        fed_us - deq_us,
                    );
                }
            }
        }
        Msg::FlowEnd { key, enqueued, ctx } => {
            trace_ctx::emit_queue(&ctx, key.0, idx, "flow_end", deq_us);
            // Already-halted (decision delivered earlier) or never-fed
            // keys yield Ok(None)/Err: nothing to decide, nothing to
            // journal — replay reaches the same state without it.
            if let Ok(Some(d)) = engine.halt_key_traced(key, &ctx) {
                let fed_us = if ctx.is_active() {
                    obs::ts_us()
                } else {
                    f64::NAN
                };
                trace_ctx::emit_service(&ctx, key.0, idx, "flow_end", "halted", fed_us - deq_us);
                lock(&shard.journal).push(JournalEntry::FlowEnd {
                    key,
                    trace_id: ctx.trace_id,
                });
                pending.remove(key);
                let stamps = FlowStamps {
                    ctx,
                    dequeue_us: deq_us,
                    fed_us,
                };
                conclude(shared, idx, d, Some(enqueued), stamps, false, "flow_end");
            }
        }
    }
}

/// Evicts longest-pending keys whose logical-tick budget is exhausted.
/// One tick = one arrival processed on this shard, so enforcement is
/// deterministic for a fixed message sequence. Under overload (depth at
/// or past the shed watermark) the tighter overload budget applies:
/// latency is bought with earliness, which the paper's evaluation treats
/// as a first-class trade-off rather than a failure.
fn enforce_tick_deadlines(
    shared: &Shared,
    idx: usize,
    engine: &mut StreamingEngine<'_>,
    pending: &mut Pending,
    ticks: u64,
) {
    let cfg = &shared.cfg;
    let overloaded = shared.shards[idx].queue.depth() >= cfg.shed_watermark;
    let budget = if overloaded {
        cfg.overload_deadline_ticks.or(cfg.deadline_ticks)
    } else {
        cfg.deadline_ticks
    };
    let Some(budget) = budget else { return };
    // Chaos clock skew shifts the shard's view of "now" in ticks;
    // positive skew fires deadlines early.
    let now = ticks as i64 + shared.chaos.deadline_skew(idx);
    while let Some((t0, key, since, stamps)) = pending.oldest() {
        if now - t0 as i64 <= budget as i64 {
            break;
        }
        pending.remove(key);
        force_halt(shared, idx, engine, key, since, stamps, "deadline");
    }
}

/// Wall-clock safety net, checked on idle polls and after each message:
/// catches keys whose stream silently stopped (no arrivals → no ticks →
/// tick deadlines never fire). Pending keys are tick-ordered, and ticks
/// are monotone in wall time on a shard, so the oldest-tick key is also
/// the oldest-wall-clock key.
fn enforce_wall_deadline(
    shared: &Shared,
    idx: usize,
    engine: &mut StreamingEngine<'_>,
    pending: &mut Pending,
) {
    let Some(wall) = shared.cfg.wall_deadline else {
        return;
    };
    let now = Instant::now();
    while let Some((_, key, since, stamps)) = pending.oldest() {
        if now.duration_since(since) <= wall {
            break;
        }
        pending.remove(key);
        force_halt(shared, idx, engine, key, since, stamps, "wall");
    }
}

fn force_halt(
    shared: &Shared,
    idx: usize,
    engine: &mut StreamingEngine<'_>,
    key: Key,
    since: Instant,
    stamps: FlowStamps,
    via: &'static str,
) {
    // Ok(None)/Err means we raced a natural halt, or pending bookkeeping
    // outlived the key (e.g. replay): the first decision stands.
    if let Ok(Some(d)) = engine.halt_key_traced(key, &stamps.ctx) {
        lock(&shared.shards[idx].journal).push(JournalEntry::ForcedHalt {
            key,
            trace_id: stamps.ctx.trace_id,
        });
        conclude(shared, idx, d, Some(since), stamps, true, via);
    }
}

/// Delivers a decision exactly once per key: the shard's `decided` set
/// is the gate, which also suppresses re-emission during journal replay.
/// `stamps` belong to the deciding message (for deadline-forced halts,
/// the key's first pending arrival); `via` names the deciding path
/// (`policy` / `flow_end` / `deadline` / `wall` / `finish` / `replay`).
fn conclude(
    shared: &Shared,
    idx: usize,
    d: Decision,
    since: Option<Instant>,
    stamps: FlowStamps,
    forced: bool,
    via: &'static str,
) {
    let shard = &shared.shards[idx];
    if !lock(&shard.decided).insert(d.key) {
        return;
    }
    lock(&shard.confidence).insert(d.key, f32::INFINITY);
    if forced {
        shard.forced_halts.fetch_add(1, Ordering::Relaxed);
        ins::FORCED_HALTS.add(1);
    }
    if let Some(t0) = since {
        ins::DECISION_LATENCY_US.record(t0.elapsed().as_secs_f64() * 1e6);
    }
    shard.decisions.fetch_add(1, Ordering::Relaxed);
    ins::DECISIONS.add(1);
    if stamps.is_active() {
        trace_ctx::emit_decision(
            &stamps,
            d.key.0,
            idx,
            forced,
            via,
            d.pred,
            d.n_items,
            obs::ts_us(),
        );
    }
    lock(&shared.results).push(d);
}

/// Publishes the key's live posterior margin (top-1 minus top-2
/// probability) for the router's confident-key shedding.
fn publish_confidence(shared: &Shared, idx: usize, engine: &StreamingEngine<'_>, key: Key) {
    if let Some((_, probs)) = engine.peek(key) {
        lock(&shared.shards[idx].confidence).insert(key, margin_of(&probs));
    }
}

fn margin_of(probs: &[f32]) -> f32 {
    let (mut top1, mut top2) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    for &p in probs {
        if p > top1 {
            top2 = top1;
            top1 = p;
        } else if p > top2 {
            top2 = p;
        }
    }
    if top2 == f32::NEG_INFINITY {
        top1
    } else {
        top1 - top2
    }
}

/// Applies one journal entry to a fresh engine during respawn replay.
/// Decisions re-derived here were almost always delivered pre-crash and
/// are suppressed by `conclude`'s decided gate; one that was *not* (the
/// worker died between computing and delivering it — impossible for
/// chaos faults, possible for real panics) is delivered now, which is
/// exactly the recovery guarantee.
fn replay_entry(
    shared: &Shared,
    idx: usize,
    engine: &mut StreamingEngine<'_>,
    pending: &mut Pending,
    ticks: &mut u64,
    entry: &JournalEntry,
) {
    match entry {
        JournalEntry::Item { item, trace_id } => {
            // Replay preserves flow identity (the journaled trace id) but
            // not wall-clock stamps — those died with the worker, so any
            // decision re-derived here has null component latencies.
            let ctx = FlowCtx::replayed(*trace_id);
            trace_ctx::emit_replay(*trace_id, item.key.0, idx, "item");
            if let Ok(decision) = engine.feed_traced(item, &ctx) {
                *ticks += 1;
                let stamps = FlowStamps {
                    ctx,
                    dequeue_us: f64::NAN,
                    fed_us: f64::NAN,
                };
                match decision {
                    Some(d) => {
                        pending.remove(d.key);
                        conclude(shared, idx, d, None, stamps, false, "replay");
                    }
                    // Wall-deadline clocks restart at respawn time: the
                    // original enqueue instants died with the worker, and
                    // a fresh grace period beats spuriously halting
                    // everything that was pending at crash time.
                    None => pending.note(item.key, *ticks, Instant::now(), stamps),
                }
            }
        }
        JournalEntry::FlowEnd { key, trace_id } | JournalEntry::ForcedHalt { key, trace_id } => {
            let forced = matches!(entry, JournalEntry::ForcedHalt { .. });
            let ctx = FlowCtx::replayed(*trace_id);
            trace_ctx::emit_replay(
                *trace_id,
                key.0,
                idx,
                if forced { "forced_halt" } else { "flow_end" },
            );
            if let Ok(Some(d)) = engine.halt_key_traced(*key, &ctx) {
                let stamps = FlowStamps {
                    ctx,
                    dequeue_us: f64::NAN,
                    fed_us: f64::NAN,
                };
                conclude(shared, idx, d, None, stamps, forced, "replay");
            }
            pending.remove(*key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_is_top1_minus_top2() {
        assert_eq!(margin_of(&[0.7, 0.2, 0.1]), 0.5);
        assert_eq!(margin_of(&[0.5, 0.5]), 0.0);
        // Degenerate single-class head: the probability itself.
        assert_eq!(margin_of(&[1.0]), 1.0);
    }

    #[test]
    fn pending_evicts_in_first_pending_tick_order() {
        let mut p = Pending::default();
        let t0 = Instant::now();
        let s = FlowStamps::inactive();
        p.note(Key(5), 1, t0, s);
        p.note(Key(3), 2, t0, s);
        p.note(Key(5), 9, t0, s); // re-note must NOT reset the clock
        assert_eq!(p.oldest().map(|(t, k, _, _)| (t, k)), Some((1, Key(5))));
        p.remove(Key(5));
        assert_eq!(p.oldest().map(|(t, k, _, _)| (t, k)), Some((2, Key(3))));
        p.remove(Key(3));
        assert!(p.oldest().is_none());
    }

    #[test]
    fn pending_keeps_first_arrival_stamps() {
        let mut p = Pending::default();
        let t0 = Instant::now();
        let first = FlowStamps {
            ctx: FlowCtx::replayed(7),
            dequeue_us: 1.0,
            fed_us: 2.0,
        };
        let later = FlowStamps {
            ctx: FlowCtx::replayed(8),
            dequeue_us: 3.0,
            fed_us: 4.0,
        };
        p.note(Key(1), 1, t0, first);
        p.note(Key(1), 2, t0, later); // later arrivals never replace them
        assert_eq!(p.stamps(Key(1)).ctx.trace_id, 7);
        assert!(!p.stamps(Key(99)).is_active());
    }
}
