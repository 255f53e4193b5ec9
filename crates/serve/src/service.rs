//! The sharded service: router, shard state, supervisor, and accounting.
//!
//! [`ShardedService::start`] spawns one worker thread per shard, each
//! owning a private [`kvec::StreamingEngine`], plus a supervisor thread
//! that respawns crashed workers and quarantines the arrival that killed
//! them. Keys are routed by hash ([`shard_of_key`]), so every message of
//! a key lands on the same shard and per-key state never crosses a
//! thread boundary.
//!
//! # Determinism contract
//!
//! In a fault-free run with deadlines disabled, the decision stream of a
//! shard is bit-identical to a single-threaded `StreamingEngine` (same
//! guard configuration) fed that shard's message subsequence in order:
//! sharding and queuing add concurrency *between* keys but never reorder
//! *within* a shard. Deadline enforcement and load shedding are
//! explicitly queue-state-dependent and therefore outside the contract.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kvec::streaming::Decision;
use kvec::{KvecModel, ServeChaos};
use kvec_data::{Item, Key};
use kvec_json::{FromJson, Json, JsonError, ToJson};
use kvec_obs::{event, trace_ctx, window, FlowCtx, Level, SloInput, SloSpec};

use crate::admission::{admission_verdict, Admission, ShedReason, Watermarks};
use crate::instruments as ins;
use crate::queue::BoundedQueue;
use crate::worker::{self, JournalEntry, Msg};

/// Locks a mutex, clearing poisoning: all serve-side critical sections
/// leave their data consistent (single push/insert), and a chaos-killed
/// worker must never wedge the shard it shared state with.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Routes a key to a shard with the splitmix64 finalizer — cheap, and
/// avalanches low-entropy key spaces (sequential flow ids) across shards.
pub fn shard_of_key(key: Key, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut z = key.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Serving runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard workers (and queues).
    pub shards: usize,
    /// Per-shard queue capacity (hard admission limit).
    pub queue_capacity: usize,
    /// Queue depth at which admissions are flagged [`Admission::Delayed`].
    pub delay_watermark: usize,
    /// Queue depth at which confident-key shedding begins.
    pub shed_watermark: usize,
    /// Posterior margin (top-1 minus top-2) above which a key counts as
    /// confident for shedding purposes.
    pub confident_margin: f32,
    /// Per-key deadline budget in *logical ticks* (arrivals processed by
    /// the key's shard): a key still undecided `deadline_ticks` ticks
    /// after its first pending arrival is force-classified. `None`
    /// disables tick deadlines. Logical ticks keep enforcement
    /// deterministic under test.
    pub deadline_ticks: Option<u64>,
    /// Tighter budget applied while the shard is past its shed watermark
    /// (graceful degradation: overload buys earlier decisions). Falls
    /// back to `deadline_ticks` when `None`.
    pub overload_deadline_ticks: Option<u64>,
    /// Wall-clock safety net per pending key, enforced on idle polls:
    /// catches streams that simply stop arriving. `None` disables it.
    pub wall_deadline: Option<Duration>,
    /// Forwarded to [`kvec::StreamingEngine::with_max_active_keys`].
    pub max_active_keys: Option<usize>,
    /// Consumer poll timeout; also the cadence of wall-deadline checks.
    pub idle_poll: Duration,
    /// Supervisor declares a shard wedged when its heartbeat is flat for
    /// this long while its queue is non-empty.
    pub wedge_timeout: Duration,
    /// When set, quarantined arrivals are appended to this file as JSONL
    /// ([`QuarantineRecord`] per line) for offline replay. The file is
    /// truncated at service start.
    pub quarantine_path: Option<PathBuf>,
    /// Service-level objective evaluated once per completed telemetry
    /// window (when the obs subscriber is enabled): each violated budget
    /// emits a warn-level `slo.burn` event. `None` disables evaluation.
    pub slo: Option<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            delay_watermark: 512,
            shed_watermark: 768,
            confident_margin: 0.9,
            deadline_ticks: None,
            overload_deadline_ticks: None,
            wall_deadline: None,
            max_active_keys: None,
            idle_poll: Duration::from_millis(2),
            wedge_timeout: Duration::from_secs(2),
            quarantine_path: None,
            slo: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) {
        assert!(self.shards > 0, "need at least one shard");
        assert!(self.queue_capacity > 0, "queue capacity must be positive");
        assert!(
            self.delay_watermark <= self.shed_watermark
                && self.shed_watermark <= self.queue_capacity,
            "watermarks must satisfy delay <= shed <= capacity \
             (got {} <= {} <= {})",
            self.delay_watermark,
            self.shed_watermark,
            self.queue_capacity
        );
        for b in [self.deadline_ticks, self.overload_deadline_ticks]
            .into_iter()
            .flatten()
        {
            assert!(
                b <= i64::MAX as u64 / 2,
                "deadline budgets must leave headroom for clock skew"
            );
        }
    }

    pub(crate) fn watermarks(&self) -> Watermarks {
        Watermarks {
            capacity: self.queue_capacity,
            delay: self.delay_watermark,
            shed: self.shed_watermark,
            confident_margin: self.confident_margin,
        }
    }
}

/// An arrival pulled out of the stream because processing it crashed a
/// worker. Serialized as JSONL for offline replay and bug reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Shard whose worker died.
    pub shard: usize,
    /// Router-assigned submission sequence number of the arrival.
    pub seq: u64,
    /// The panic message of the crash.
    pub error: String,
    /// The poison arrival itself.
    pub item: Item,
}

impl ToJson for QuarantineRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("shard", self.shard.to_json()),
            ("seq", self.seq.to_json()),
            ("error", self.error.to_json()),
            ("item", self.item.to_json()),
        ])
    }
}

impl FromJson for QuarantineRecord {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            shard: usize::from_json(j.get("shard")?)?,
            seq: u64::from_json(j.get("seq")?)?,
            error: String::from_json(j.get("error")?)?,
            item: Item::from_json(j.get("item")?)?,
        })
    }
}

/// Per-shard state shared between the router, the worker, and the
/// supervisor. The worker is the only engine owner; everything here is
/// bookkeeping that must survive a worker crash.
pub(crate) struct ShardState {
    pub queue: BoundedQueue<Msg>,
    /// Ordered log of engine mutations that *succeeded*, replayed into a
    /// fresh engine after a crash. Poison arrivals never reach it.
    pub journal: Mutex<Vec<JournalEntry>>,
    /// Keys whose decision has been emitted. Gates exactly-once decision
    /// delivery across respawns and suppresses replay re-emission.
    pub decided: Mutex<BTreeSet<Key>>,
    /// Last published posterior margin per live key; decided keys hold
    /// `f32::INFINITY`. Read by the router for confident-key shedding.
    pub confidence: Mutex<BTreeMap<Key, f32>>,
    /// Shard-local count of messages dequeued, ever (survives respawn);
    /// chaos-plan arrival indices are offsets into this counter.
    pub popped: AtomicU64,
    /// Messages fully processed; the supervisor's liveness signal.
    pub heartbeat: AtomicU64,
    /// Chaos faults already fired, so a respawned worker does not re-fire
    /// them when its popped counter passes the trigger again (it cannot:
    /// popped is persistent — this guards the kill check, which runs
    /// *before* the pop increments it).
    pub fired: Mutex<BTreeSet<(u8, u64)>>,
    /// The arrival currently being fed — `(seq, item, trace_id)` — for
    /// quarantine (and its `flow.quarantine` trace record) on crash.
    pub inflight: Mutex<Option<(u64, Item, u64)>>,
    /// Panic message of a crashed worker, consumed by the supervisor.
    pub crashed: Mutex<Option<String>>,
    /// Set (after `crashed`) by the dying worker; supervisor clears it.
    pub crash_pending: AtomicBool,
    pub processed: AtomicU64,
    pub late_drops: AtomicU64,
    pub engine_rejected: AtomicU64,
    pub forced_halts: AtomicU64,
    pub quarantined: AtomicU64,
    pub restarts: AtomicU64,
    pub decisions: AtomicU64,
    pub wedge_events: AtomicU64,
    // Latency decomposition (always on — Instant arithmetic, no obs
    // dependency): total nanoseconds and sample counts, so the report
    // can attribute mean per-shard latency to queue wait vs. service.
    pub queue_wait_ns: AtomicU64,
    pub queue_wait_samples: AtomicU64,
    pub service_ns: AtomicU64,
    pub service_samples: AtomicU64,
}

impl ShardState {
    fn new(capacity: usize) -> Self {
        Self {
            queue: BoundedQueue::new(capacity),
            journal: Mutex::new(Vec::new()),
            decided: Mutex::new(BTreeSet::new()),
            confidence: Mutex::new(BTreeMap::new()),
            popped: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            fired: Mutex::new(BTreeSet::new()),
            inflight: Mutex::new(None),
            crashed: Mutex::new(None),
            crash_pending: AtomicBool::new(false),
            processed: AtomicU64::new(0),
            late_drops: AtomicU64::new(0),
            engine_rejected: AtomicU64::new(0),
            forced_halts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            wedge_events: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            queue_wait_samples: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
            service_samples: AtomicU64::new(0),
        }
    }
}

pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub model: KvecModel,
    pub chaos: ServeChaos,
    pub shards: Vec<ShardState>,
    pub results: Mutex<Vec<Decision>>,
    pub quarantine: Mutex<Vec<QuarantineRecord>>,
    pub shutdown: AtomicBool,
    // Router-side accounting (shard-side lives in ShardState).
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub delayed: AtomicU64,
    pub shed_queue_full: AtomicU64,
    pub shed_confident: AtomicU64,
    pub flow_ends: AtomicU64,
    pub flow_ends_shed: AtomicU64,
}

/// Point-in-time accounting snapshot. After [`ShardedService::shutdown`]
/// the identities below hold exactly (mid-run, in-queue messages make
/// the right-hand sides lag `submitted`):
///
/// ```text
/// submitted == shed_queue_full + shed_confident
///            + processed + late_drops + engine_rejected + quarantined
/// decisions == |decided keys|            (exactly once per key)
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Item arrivals offered to the router.
    pub submitted: u64,
    /// Item arrivals that entered a queue (incl. delayed).
    pub admitted: u64,
    /// Admitted item arrivals flagged `Delayed`.
    pub delayed: u64,
    /// Arrivals shed at queue capacity (incl. lost `try_push` races).
    pub shed_queue_full: u64,
    /// Arrivals shed because the key was already confident.
    pub shed_confident: u64,
    /// Arrivals fed into a shard engine.
    pub processed: u64,
    /// Arrivals dropped at the worker because the key had decided.
    pub late_drops: u64,
    /// Arrivals the engine refused (e.g. active-key bound).
    pub engine_rejected: u64,
    /// Arrivals quarantined after crashing a worker.
    pub quarantined: u64,
    /// Flow-end signals offered / shed (tracked apart from items: they
    /// carry no payload and bypass confidence shedding).
    pub flow_ends: u64,
    /// Flow-end signals rejected at a full or closed queue.
    pub flow_ends_shed: u64,
    /// Keys force-classified by deadline enforcement.
    pub forced_halts: u64,
    /// Worker respawns performed by the supervisor.
    pub worker_restarts: u64,
    /// Wedge detections (heartbeat flat with a non-empty queue).
    pub wedge_events: u64,
    /// Decisions emitted.
    pub decisions: u64,
}

impl ServeStats {
    /// All sheds, both rungs.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_confident
    }

    /// Item arrivals with a final disposition (everything but in-queue).
    pub fn arrivals_accounted(&self) -> u64 {
        self.shed_total()
            + self.processed
            + self.late_drops
            + self.engine_rejected
            + self.quarantined
    }
}

/// Per-shard latency decomposition: where a shard's share of end-to-end
/// decision latency went, split into queue wait (enqueue → dequeue) and
/// service (dequeue → engine-feed complete). Computed from always-on
/// `Instant` accounting, so it is exact and available with the obs
/// subscriber disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBreakdown {
    /// Shard index.
    pub shard: usize,
    /// Messages dequeued by this shard, ever.
    pub popped: u64,
    /// Item arrivals fed into this shard's engine.
    pub processed: u64,
    /// Mean queue wait per dequeued item, microseconds (NaN if none).
    pub mean_queue_wait_us: f64,
    /// Mean service time per processed item, microseconds (NaN if none).
    pub mean_service_us: f64,
}

impl ToJson for ShardBreakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            ("shard", self.shard.to_json()),
            ("popped", self.popped.to_json()),
            ("processed", self.processed.to_json()),
            ("mean_queue_wait_us", Json::Float(self.mean_queue_wait_us)),
            ("mean_service_us", Json::Float(self.mean_service_us)),
        ])
    }
}

/// The everything-at-the-end bundle returned by
/// [`ShardedService::shutdown`].
#[derive(Debug)]
pub struct ServeReport {
    /// Decisions not yet drained, in emission order per shard.
    pub decisions: Vec<Decision>,
    /// Final accounting (the identities in [`ServeStats`] hold).
    pub stats: ServeStats,
    /// Quarantined arrivals, in crash order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Per-shard queue-wait / service-time decomposition.
    pub shards: Vec<ShardBreakdown>,
}

/// A running sharded serving instance. The module docs of `service.rs`
/// give the architecture and the determinism contract.
pub struct ShardedService {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    seq: AtomicU64,
}

impl ShardedService {
    /// Starts the service: spawns `cfg.shards` workers and a supervisor.
    /// The model is owned by the service (workers borrow it).
    pub fn start(model: KvecModel, cfg: ServeConfig) -> Self {
        Self::with_chaos(model, cfg, ServeChaos::new())
    }

    /// Starts the service with a chaos plan armed. Production callers use
    /// [`ShardedService::start`]; the chaos variant exists so fault
    /// handling is exercised by the same code paths it protects.
    pub fn with_chaos(model: KvecModel, cfg: ServeConfig, chaos: ServeChaos) -> Self {
        cfg.validate();
        ins::register_all();
        if let Some(path) = &cfg.quarantine_path {
            // Truncate up front so a run's quarantine file never carries
            // stale records from a previous run.
            std::fs::File::create(path).expect("create quarantine file");
        }
        let shards = (0..cfg.shards)
            .map(|_| ShardState::new(cfg.queue_capacity))
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            model,
            chaos,
            shards,
            results: Mutex::new(Vec::new()),
            quarantine: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_confident: AtomicU64::new(0),
            flow_ends: AtomicU64::new(0),
            flow_ends_shed: AtomicU64::new(0),
        });
        let sup = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("kvec-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .expect("spawn supervisor")
        };
        Self {
            shared,
            supervisor: Some(sup),
            seq: AtomicU64::new(0),
        }
    }

    /// Offers one item arrival. Never blocks: the verdict says whether it
    /// was enqueued, and why not when it wasn't.
    pub fn submit(&self, item: Item) -> Admission {
        let sh = &self.shared;
        let mut ctx = FlowCtx::capture();
        let idx = shard_of_key(item.key, sh.cfg.shards);
        let shard = &sh.shards[idx];
        let key = item.key.0;
        sh.submitted.fetch_add(1, Ordering::Relaxed);
        ins::SUBMITTED.add(1);

        let depth = shard.queue.depth();
        ins::QUEUE_DEPTH.set(depth as f64);
        let margin = lock(&shard.confidence).get(&item.key).copied();
        let verdict = admission_verdict(idx, depth, &sh.cfg.watermarks(), margin);
        match verdict {
            Admission::Shed { reason } => {
                self.count_shed(reason);
                trace_ctx::emit_submit(&ctx, key, idx, "item", Self::shed_verdict(reason));
                verdict
            }
            _ => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                ctx.mark_enqueued();
                let msg = Msg::Item {
                    item,
                    seq,
                    enqueued: Instant::now(),
                    ctx,
                };
                match shard.queue.try_push(msg) {
                    Ok(_) => {
                        sh.admitted.fetch_add(1, Ordering::Relaxed);
                        ins::ADMITTED.add(1);
                        let delayed = matches!(verdict, Admission::Delayed { .. });
                        if delayed {
                            sh.delayed.fetch_add(1, Ordering::Relaxed);
                            ins::DELAYED.add(1);
                        }
                        trace_ctx::emit_submit(
                            &ctx,
                            key,
                            idx,
                            "item",
                            if delayed { "delayed" } else { "admitted" },
                        );
                        verdict
                    }
                    Err(_) => {
                        // Lost the race for the last slot (or the queue
                        // closed): degrade the verdict to a shed.
                        let reason = ShedReason::QueueFull {
                            capacity: sh.cfg.queue_capacity,
                        };
                        self.count_shed(reason);
                        trace_ctx::emit_submit(&ctx, key, idx, "item", "shed_queue_full");
                        Admission::Shed { reason }
                    }
                }
            }
        }
    }

    /// Signals that `key`'s stream ended upstream (e.g. TCP FIN): the
    /// shard force-classifies whatever it has. Flow ends ride the same
    /// queue as items (ordering matters) but skip confidence shedding —
    /// they *produce* decisions rather than add load.
    pub fn submit_flow_end(&self, key: Key) -> Admission {
        let sh = &self.shared;
        let mut ctx = FlowCtx::capture();
        let idx = shard_of_key(key, sh.cfg.shards);
        let shard = &sh.shards[idx];
        sh.flow_ends.fetch_add(1, Ordering::Relaxed);
        ctx.mark_enqueued();
        match shard.queue.try_push(Msg::FlowEnd {
            key,
            enqueued: Instant::now(),
            ctx,
        }) {
            Ok(depth) => {
                let delayed = depth > sh.cfg.delay_watermark;
                trace_ctx::emit_submit(
                    &ctx,
                    key.0,
                    idx,
                    "flow_end",
                    if delayed { "delayed" } else { "admitted" },
                );
                if delayed {
                    Admission::Delayed {
                        shard: idx,
                        queue_depth: depth,
                    }
                } else {
                    Admission::Admitted { shard: idx }
                }
            }
            Err(_) => {
                sh.flow_ends_shed.fetch_add(1, Ordering::Relaxed);
                ins::SHED_TOTAL.add(1);
                ins::SHED_QUEUE_FULL.add(1);
                trace_ctx::emit_submit(&ctx, key.0, idx, "flow_end", "shed_queue_full");
                Admission::Shed {
                    reason: ShedReason::QueueFull {
                        capacity: sh.cfg.queue_capacity,
                    },
                }
            }
        }
    }

    /// The `flow.submit` verdict string for a shed reason.
    fn shed_verdict(reason: ShedReason) -> &'static str {
        match reason {
            ShedReason::QueueFull { .. } => "shed_queue_full",
            ShedReason::ConfidentKey { .. } => "shed_confident",
        }
    }

    fn count_shed(&self, reason: ShedReason) {
        ins::SHED_TOTAL.add(1);
        ins::SHED_ITEMS.add(1);
        match reason {
            ShedReason::QueueFull { .. } => {
                self.shared.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                ins::SHED_QUEUE_FULL.add(1);
            }
            ShedReason::ConfidentKey { .. } => {
                self.shared.shed_confident.fetch_add(1, Ordering::Relaxed);
                ins::SHED_CONFIDENT.add(1);
            }
        }
    }

    /// Takes every decision emitted since the last drain (or start), in
    /// per-shard emission order.
    pub fn drain_decisions(&self) -> Vec<Decision> {
        std::mem::take(&mut *lock(&self.shared.results))
    }

    /// Point-in-time accounting snapshot.
    pub fn stats(&self) -> ServeStats {
        let sh = &self.shared;
        let mut s = ServeStats {
            submitted: sh.submitted.load(Ordering::Relaxed),
            admitted: sh.admitted.load(Ordering::Relaxed),
            delayed: sh.delayed.load(Ordering::Relaxed),
            shed_queue_full: sh.shed_queue_full.load(Ordering::Relaxed),
            shed_confident: sh.shed_confident.load(Ordering::Relaxed),
            flow_ends: sh.flow_ends.load(Ordering::Relaxed),
            flow_ends_shed: sh.flow_ends_shed.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        for shard in &sh.shards {
            s.processed += shard.processed.load(Ordering::Relaxed);
            s.late_drops += shard.late_drops.load(Ordering::Relaxed);
            s.engine_rejected += shard.engine_rejected.load(Ordering::Relaxed);
            s.forced_halts += shard.forced_halts.load(Ordering::Relaxed);
            s.quarantined += shard.quarantined.load(Ordering::Relaxed);
            s.worker_restarts += shard.restarts.load(Ordering::Relaxed);
            s.decisions += shard.decisions.load(Ordering::Relaxed);
            s.wedge_events += shard.wedge_events.load(Ordering::Relaxed);
        }
        s
    }

    /// Total queued messages across shards right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.shards.iter().map(|s| s.queue.depth()).sum()
    }

    /// Per-shard queue-wait / service-time decomposition so far.
    pub fn shard_breakdown(&self) -> Vec<ShardBreakdown> {
        let mean_us = |ns: u64, n: u64| {
            if n == 0 {
                f64::NAN
            } else {
                ns as f64 / n as f64 / 1e3
            }
        };
        self.shared
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardBreakdown {
                shard: i,
                popped: s.popped.load(Ordering::Relaxed),
                processed: s.processed.load(Ordering::Relaxed),
                mean_queue_wait_us: mean_us(
                    s.queue_wait_ns.load(Ordering::Relaxed),
                    s.queue_wait_samples.load(Ordering::Relaxed),
                ),
                mean_service_us: mean_us(
                    s.service_ns.load(Ordering::Relaxed),
                    s.service_samples.load(Ordering::Relaxed),
                ),
            })
            .collect()
    }

    /// Closes the queues, drains every shard, force-classifies still-live
    /// keys (stream end), joins all threads, and returns the final
    /// report. After this the accounting identities hold exactly.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        let decisions = self.drain_decisions();
        let stats = self.stats();
        let shards = self.shard_breakdown();
        let quarantined = std::mem::take(&mut *lock(&self.shared.quarantine));
        ServeReport {
            decisions,
            stats,
            quarantined,
            shards,
        }
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        // `shutdown` consumes self; reaching Drop with a live supervisor
        // means the caller bailed (likely a test panic). Close and join
        // so threads never outlive the service.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
    }
}

/// Supervisor: spawns the initial fleet, respawns crashed workers
/// (quarantining the arrival that killed them), detects wedged shards by
/// heartbeat, and publishes fleet-level gauges. Exits once shutdown is
/// requested and every worker has drained and terminated.
fn supervisor_loop(shared: &Arc<Shared>) {
    let n = shared.cfg.shards;
    let mut handles: Vec<Option<JoinHandle<()>>> =
        (0..n).map(|i| Some(spawn_worker(shared, i))).collect();
    let mut hb_seen: Vec<(u64, Instant)> = (0..n).map(|_| (0, Instant::now())).collect();
    let mut wedged = vec![false; n];
    // Telemetry heartbeat: one snapshot per completed window. Starts at
    // the clock's current window so a fresh service on a reused process
    // clock doesn't replay history.
    let mut snapped = window::tick() / ins::WINDOW_TICKS;

    loop {
        let mut alive = 0usize;
        for i in 0..n {
            let shard = &shared.shards[i];
            if shard.crash_pending.swap(false, Ordering::SeqCst) {
                let msg = lock(&shard.crashed).take().unwrap_or_default();
                if let Some(h) = handles[i].take() {
                    let _ = h.join();
                }
                handle_crash(shared, i, &msg);
                hb_seen[i] = (shard.heartbeat.load(Ordering::SeqCst), Instant::now());
                wedged[i] = false;
                handles[i] = Some(spawn_worker(shared, i));
                alive += 1;
                continue;
            }
            match &handles[i] {
                Some(h) if h.is_finished() => {
                    // Finished without raising crash_pending: a clean
                    // post-close drain. Reap it. (A crash that lands
                    // between the swap above and this check is caught on
                    // the next poll: the handle is only taken here when
                    // crash_pending is still false after the finish.)
                    if shard.crash_pending.load(Ordering::SeqCst) {
                        alive += 1; // handle crash on next iteration
                    } else if let Some(h) = handles[i].take() {
                        let _ = h.join();
                    }
                }
                Some(_) => {
                    alive += 1;
                    watch_heartbeat(shared, i, &mut hb_seen[i], &mut wedged[i]);
                }
                None => {}
            }
        }

        let total_hb: u64 = shared
            .shards
            .iter()
            .map(|s| s.heartbeat.load(Ordering::Relaxed))
            .sum();
        ins::WORKER_HEARTBEAT.set(total_hb as f64);
        let total_depth: usize = shared.shards.iter().map(|s| s.queue.depth()).sum();
        ins::QUEUE_DEPTH.set(total_depth as f64);

        if kvec_obs::event_enabled(Level::Info) {
            let now = window::tick() / ins::WINDOW_TICKS;
            // Emit one snapshot per completed window since the last poll
            // (the ring only retains SLOTS windows; older ones are gone).
            let from = snapped.max(now.saturating_sub(window::SLOTS as u64));
            for w in from..now {
                emit_snapshot(shared, w, false);
            }
            snapped = snapped.max(now);
        }

        if alive == 0 && shared.shutdown.load(Ordering::SeqCst) {
            // Final heartbeat covering the still-open window, so even a
            // run shorter than one window leaves a non-empty snapshot
            // stream in its trace.
            if kvec_obs::event_enabled(Level::Info) {
                emit_snapshot(shared, window::tick() / ins::WINDOW_TICKS, true);
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One `telemetry.snapshot` heartbeat for window `w`: per-shard queue
/// depths, windowed submission/shed/decision/forced-halt counts and
/// rates, and windowed decision-latency percentiles. `partial` marks the
/// shutdown-time snapshot of a window still in progress. Evaluates the
/// configured [`SloSpec`] for complete windows and emits one warn-level
/// `slo.burn` event per violated budget.
fn emit_snapshot(shared: &Shared, w: u64, partial: bool) {
    let submitted = ins::SUBMITTED.force().window_total(w);
    let shed = ins::SHED_ITEMS.force().window_total(w);
    let forced = ins::FORCED_HALTS.force().window_total(w);
    let decisions = ins::DECISIONS.force().window_total(w);
    let (lat_n, lat) = ins::DECISION_LATENCY_US.force().merged_percentiles(&[w]);
    let depths: Vec<Json> = shared
        .shards
        .iter()
        .map(|s| Json::Int(s.queue.depth() as i128))
        .collect();
    let rate = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    event(
        Level::Info,
        "telemetry.snapshot",
        &[
            ("window", Json::Int(w as i128)),
            ("tick", Json::Int(window::tick() as i128)),
            ("partial", Json::Bool(partial)),
            ("queue_depths", Json::Arr(depths)),
            ("submitted", Json::Int(submitted as i128)),
            ("shed", Json::Int(shed as i128)),
            ("decisions", Json::Int(decisions as i128)),
            ("forced_halts", Json::Int(forced as i128)),
            ("shed_rate", Json::Float(rate(shed, submitted))),
            ("forced_halt_rate", Json::Float(rate(forced, decisions))),
            ("latency_n", Json::Int(lat_n as i128)),
            ("latency_p50_us", Json::Float(lat.p50)),
            ("latency_p95_us", Json::Float(lat.p95)),
            ("latency_p99_us", Json::Float(lat.p99)),
        ],
    );
    if partial {
        return; // SLOs are judged on complete windows only
    }
    if let Some(slo) = &shared.cfg.slo {
        let input = SloInput {
            window: w,
            submitted,
            shed,
            decisions,
            forced_halts: forced,
            p99_latency_us: lat.p99,
        };
        for burn in slo.evaluate(&input) {
            event(
                Level::Warn,
                "slo.burn",
                &[
                    ("slo", Json::Str(slo.name.into())),
                    ("window", Json::Int(w as i128)),
                    ("budget", Json::Str(burn.budget.into())),
                    ("limit", Json::Float(burn.limit)),
                    ("observed", Json::Float(burn.observed)),
                ],
            );
        }
    }
}

fn watch_heartbeat(shared: &Shared, idx: usize, seen: &mut (u64, Instant), wedged: &mut bool) {
    let shard = &shared.shards[idx];
    let hb = shard.heartbeat.load(Ordering::Relaxed);
    if hb != seen.0 {
        *seen = (hb, Instant::now());
        *wedged = false;
        return;
    }
    if !*wedged && shard.queue.depth() > 0 && seen.1.elapsed() > shared.cfg.wedge_timeout {
        *wedged = true;
        shard.wedge_events.fetch_add(1, Ordering::Relaxed);
        ins::WEDGE_EVENTS.add(1);
        event(
            Level::Warn,
            "serve.shard_wedged",
            &[
                ("shard", idx.to_json()),
                ("heartbeat", hb.to_json()),
                ("queue_depth", shard.queue.depth().to_json()),
            ],
        );
    }
}

fn handle_crash(shared: &Shared, idx: usize, msg: &str) {
    let shard = &shared.shards[idx];
    if let Some((seq, item, trace_id)) = lock(&shard.inflight).take() {
        trace_ctx::emit_quarantine(trace_id, item.key.0, idx, seq);
        let rec = QuarantineRecord {
            shard: idx,
            seq,
            error: msg.to_string(),
            item,
        };
        shard.quarantined.fetch_add(1, Ordering::Relaxed);
        ins::QUARANTINED.add(1);
        if let Some(path) = &shared.cfg.quarantine_path {
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
                let _ = writeln!(f, "{}", kvec_json::encode(&rec));
            }
        }
        lock(&shared.quarantine).push(rec);
    }
    shard.restarts.fetch_add(1, Ordering::Relaxed);
    ins::WORKER_RESTARTS.add(1);
    event(
        Level::Warn,
        "serve.worker_restart",
        &[
            ("shard", idx.to_json()),
            ("error", msg.to_json()),
            ("journal_len", lock(&shard.journal).len().to_json()),
        ],
    );
}

fn spawn_worker(shared: &Arc<Shared>, idx: usize) -> JoinHandle<()> {
    let sh = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("kvec-serve-{idx}"))
        .spawn(move || {
            let res = catch_unwind(AssertUnwindSafe(|| worker::run(&sh, idx)));
            if let Err(payload) = res {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let shard = &sh.shards[idx];
                *lock(&shard.crashed) = Some(msg);
                shard.crash_pending.store(true, Ordering::SeqCst);
            }
        })
        .expect("spawn shard worker")
}
