//! The traced run (`--trace 1`): the workload's first lap replayed on the
//! same model and stream through each layer's public functions, with a
//! span around every call, and the service driven with its own probes.
//! End-to-end numbers never come from here, and nothing here runs during
//! an end-to-end run.
//!
//! Spans (name, start, end, parent, arrival) are kept in a preallocated
//! buffer (`shadow.rs`) and written to
//! `target/kvbench/trace-<workload>.jsonl` at exit; a part's self time is
//! its span minus its children. Counts and times come from separate passes
//! (see `alloc`).

use crate::alloc::counting;
use crate::batch::{self, eval_laps, train_job};
use crate::engine::{self, feed_lap};
use crate::gen::{batch_model, scenario_items, tiny_model, wide_model, Event, Pool, PoolShape};
use crate::metrics::{Report, PER_LAYER};
use crate::oracle::{answered_send_time, mismatches, service_engine};
use crate::serve::{self, closed_config, drive_closed, drive_open, overload_config, send_closed};
use crate::shadow::{shadow_lap, Part, Tracer, PARTS, TRACE_FILE_ARRIVALS};
use crate::stats::{drift, median, percentile, Estimator, Timing};
use crate::{obs_off, shards, Plan};
use kvec::eval::{evaluate, evaluate_scenario};
use kvec::train::Trainer;
use kvec::KvecModel;
use kvec_nn::Session;
use kvec_obs as obs;
use kvec_serve::{
    admission_verdict, BoundedQueue, Pop, ServeConfig, ServeStats, ShardBreakdown, ShardedService,
    Watermarks,
};
use kvec_tensor::{simd, KvecRng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

// -------------------------------------------------------------- kernels

/// Fastest of nine batches of `batch` calls of `f`, in nanoseconds per
/// call.
fn best_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Calls per batch for sub-microsecond kernels.
const KERNEL_BATCH: usize = 2_000;

/// `tensor.*`: each kernel in isolation at width `d`, on `active_path()`;
/// and a `t × d · d × d` product, the shape of a batched projection.
fn kernel_layer(report: &mut Report, d: usize, t: usize) {
    let mut rng = KvecRng::seed_from_u64(3);
    let mut random = |rows, cols| {
        let data = (0..rows * cols).map(|_| rng.uniform(-1.0, 1.0)).collect();
        Tensor::from_vec(rows, cols, data).expect("shape matches")
    };
    let (x, w, y) = (random(1, d), random(d, d), random(1, d));
    let path = simd::active_path();
    report.set(
        "tensor.gemv_nn_ns",
        best_ns(KERNEL_BATCH, || {
            black_box(black_box(&x).matmul(black_box(&w)));
        }),
    );
    report.set(
        "tensor.dot_on_ns",
        best_ns(KERNEL_BATCH, || {
            black_box(simd::dot_on(path, black_box(x.data()), black_box(y.data())));
        }),
    );
    let mut acc = vec![0.0f32; d];
    report.set(
        "tensor.axpy_on_ns",
        best_ns(KERNEL_BATCH, || {
            simd::axpy_on(path, black_box(&mut acc), 0.5, black_box(y.data()))
        }),
    );
    let a = random(t, d);
    let flops = 2.0 * (t * d * d) as f64;
    let ns = best_ns(20, || {
        black_box(black_box(&a).matmul(black_box(&w)));
    });
    report.set("tensor.matmul_gflops", flops / ns);
}

// ------------------------------------------------------- engine layers

/// What the engine passes hand to the service metrics.
struct EngineLayers {
    feed_ns_per_processed: f64,
    /// Bare engine arrivals per second on this stream (fastest lap).
    bare_arrivals_per_s: f64,
}

/// `nn.*` and `core.*` for a streaming workload: the shadow loop (spans),
/// the real `feed` timed call by call, a bare lap for the tracing
/// overhead, and a counting lap — all on lap 0 of `pool`, each with a
/// fresh engine, repeated while `plan` has time and reduced by minimum.
fn engine_layers(
    report: &mut Report,
    workload: &str,
    plan: &Plan,
    model: &KvecModel,
    pool: &Pool,
) -> EngineLayers {
    let arrivals = pool.arrivals();
    let mut tr = Tracer::with_capacity(arrivals * (2 + 3 * model.encoder.blocks().len() + 4));
    let mut part_ns = [f64::INFINITY; PARTS.len()];
    let (mut shadow_s, mut bare_s) = (f64::INFINITY, f64::INFINITY);
    let (mut feed_ns, mut drop_ns, mut halt_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut processed = 0u64;
    let mut reps = 0;
    let started = Instant::now();
    while reps < 2 || started.elapsed().as_secs_f64() < plan.seconds {
        // (b) the shadow loop, traced.
        let shadow = shadow_lap(model, pool, &mut tr);
        shadow_s = shadow_s.min(shadow.seconds);
        for (best, ns) in part_ns.iter_mut().zip(tr.self_ns()) {
            *best = best.min(ns as f64 / shadow.processed as f64);
        }

        // (c) the real feed, every call timed.
        let mut engine = service_engine(model);
        let mut decisions = Vec::new();
        let (mut fed, mut dropped, mut halted) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
        let mut peak_rows = 0;
        let mut items_at_decision = 0;
        for event in pool.events() {
            let t0 = Instant::now();
            let (d, bucket) = match event {
                Event::Item(item) => {
                    let drops = engine.halted_feed_drops();
                    let d = engine.feed(item).expect("unbounded engine cannot fault");
                    let was_drop = engine.halted_feed_drops() > drops;
                    (d, if was_drop { &mut dropped } else { &mut fed })
                }
                Event::FlowEnd(key) => (engine.halt_key(key).expect("key was fed"), &mut halted),
            };
            bucket.0 += t0.elapsed().as_nanos() as u64;
            bucket.1 += 1;
            peak_rows = peak_rows.max(engine.cache_rows());
            if let Some(d) = d {
                items_at_decision += d.n_items;
                decisions.push(d);
            }
        }
        let per = |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        feed_ns = feed_ns.min(per(fed));
        drop_ns = drop_ns.min(per(dropped));
        halt_ns = halt_ns.min(per(halted));
        processed = fed.1;

        // (c') a bare lap: no spans, no per-call timers.
        let mut bare = service_engine(model);
        let t0 = Instant::now();
        feed_lap(&mut bare, pool, &mut Timing::default(), |_| {});
        bare_s = bare_s.min(t0.elapsed().as_secs_f64());

        if reps == 0 {
            // The shadow loop is only evidence about `feed` if it is the
            // same computation.
            report.check(
                "shadow-loop decisions equal the engine's",
                mismatches(&shadow.decisions, &decisions) + shadow.processed.abs_diff(fed.1),
                (arrivals + pool.flows()) as u64,
            );
            report.set(
                "nn.visible_len_mean",
                shadow.visible_total as f64 / shadow.processed as f64,
            );
            report.set("core.processed_fraction", fed.1 as f64 / arrivals as f64);
            report.set(
                "core.mean_items_at_decision",
                items_at_decision as f64 / decisions.len().max(1) as f64,
            );
            report.set("core.resident_rows_peak", peak_rows as f64);
            report.set("core.evicted_rows", engine.evicted_rows() as f64);
            report.set("core.tracked_keys_end", engine.tracked_keys() as f64);
            match tr.write_jsonl(workload, TRACE_FILE_ARRIVALS) {
                Ok(path) => report.lines.push(format!("spans written to {path}")),
                Err(e) => report.lines.push(format!("spans not written: {e}")),
            }
        }
        reps += 1;
    }

    let blocks = model.encoder.blocks().len() as f64;
    let empty_span_ns = Tracer::empty_span_ns();
    let named = |part: Part| {
        let calls = match part {
            Part::ProjectQkv | Part::AttendRowWindow | Part::FinishRow => blocks,
            _ => 1.0,
        };
        let slot = PARTS.iter().position(|(p, _)| *p == part).expect("listed");
        (part_ns[slot] - calls * empty_span_ns).max(0.0)
    };
    report.set("core.mask_push_ns", named(Part::MaskPush));
    report.set("core.embed_lookup_ns", named(Part::EmbedLookup));
    report.set("nn.project_qkv_ns", named(Part::ProjectQkv));
    report.set("nn.attend_row_window_ns", named(Part::AttendRowWindow));
    report.set("nn.finish_row_ns", named(Part::FinishRow));
    report.set("nn.lstm_step_ns", named(Part::LstmStep));
    report.set("core.heads_ns", named(Part::Heads));
    report.set("core.feed_ns_per_processed", feed_ns);
    report.set("core.feed_drop_ns", drop_ns);
    report.set("core.halt_key_ns", halt_ns);
    // By construction: Σ part self times + unattributed = feed. What is
    // left is what `feed` spends outside the public calls: its maps, the
    // visible list, cache rows and window upkeep.
    let attributed: f64 = PARTS[1..].iter().map(|&(p, _)| named(p)).sum();
    report.set("core.feed_unattributed_ns", feed_ns - attributed);
    report.set("obs.ledger_overhead_fraction", (shadow_s - bare_s) / bare_s);
    report.lines.push(format!(
        "engine passes: {reps} repetitions of lap 0 ({arrivals} arrivals, {processed} processed); \
         shadow lap {shadow_s:.4} s, bare lap {bare_s:.4} s; an empty span reads {empty_span_ns:.1} ns"
    ));

    // Exact allocation counts of the real feed, in their own pass.
    let mut engine = service_engine(model);
    let ((), counts) = counting(|| {
        feed_lap(&mut engine, pool, &mut Timing::default(), drop);
    });
    report.set(
        "core.allocs_per_processed",
        counts.allocs as f64 / processed as f64,
    );
    report.set(
        "core.alloc_bytes_per_processed",
        counts.bytes as f64 / processed as f64,
    );

    EngineLayers {
        feed_ns_per_processed: feed_ns,
        bare_arrivals_per_s: arrivals as f64 / bare_s,
    }
}

/// `core.lap_time_drift`: the bare engine over successive laps for the
/// plan's time — the price of state that only grows.
fn engine_drift(report: &mut Report, plan: &Plan, model: &KvecModel, pool: &Pool) {
    let mut pool = pool.clone();
    let mut engine = service_engine(model);
    let mut timing = Timing::default();
    let started = Instant::now();
    loop {
        feed_lap(&mut engine, &pool, &mut timing, |_| {});
        if timing.laps() >= 4 && started.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
        pool.next_lap();
    }
    report.set("core.lap_time_drift", drift(&timing.lap_seconds()));
}

/// `data.generate_items_per_s`: the stream generator itself.
fn generator_layer(report: &mut Report, plan: &Plan, shape: PoolShape) {
    let best = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let pool = black_box(Pool::traffic(plan.seed, shape));
            pool.arrivals() as f64 / t0.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max);
    report.set("data.generate_items_per_s", best);
}

/// What every streaming ledger starts with: the workload's lap-0 pool, the
/// kernels at the model's width (and a product the size of a mean flow
/// group), and the generator's own speed.
fn stream_prelude(report: &mut Report, plan: &Plan, model: &KvecModel, shape: PoolShape) -> Pool {
    let pool = Pool::traffic(plan.seed, shape);
    kernel_layer(report, model.cfg.d_model, pool.arrivals() / shape.groups);
    generator_layer(report, plan, shape);
    pool
}

pub fn stream(plan: &Plan) -> Report {
    let mut report = Report::new(PER_LAYER);
    let model = wide_model();
    let pool = stream_prelude(&mut report, plan, &model, engine::shape(plan));
    engine_layers(
        &mut report,
        "stream-late-wide",
        &plan.phase(0.6),
        &model,
        &pool,
    );
    engine_drift(&mut report, &plan.phase(0.3), &model, &pool);
    report
}

// ------------------------------------------------------- service layers

/// `serve.queue_roundtrip_ns` and `serve.admission_verdict_ns`: the queue
/// and the admission policy on one thread, no contention.
fn serve_primitives(report: &mut Report, cfg: &ServeConfig) {
    let queue = BoundedQueue::new(cfg.queue_capacity);
    report.set(
        "serve.queue_roundtrip_ns",
        best_ns(KERNEL_BATCH, || {
            queue.try_push(black_box(1u64)).expect("queue has room");
            let Pop::Msg(v) = queue.pop_timeout(Duration::ZERO) else {
                unreachable!("just pushed")
            };
            black_box(v);
        }),
    );
    let marks = Watermarks {
        capacity: cfg.queue_capacity,
        delay: cfg.delay_watermark,
        shed: cfg.shed_watermark,
        confident_margin: cfg.confident_margin,
    };
    let mut depth = 0;
    report.set(
        "serve.admission_verdict_ns",
        best_ns(KERNEL_BATCH, || {
            depth = (depth + 37) % (marks.capacity + 8);
            black_box(admission_verdict(0, black_box(depth), &marks, Some(0.7)));
        }),
    );
}

/// Mean of a per-shard mean over all shards, weighted by its sample count
/// (a shard without samples reports NaN and weighs nothing).
fn weighted_mean(
    shards: &[ShardBreakdown],
    value: fn(&ShardBreakdown) -> f64,
    weight: fn(&ShardBreakdown) -> u64,
) -> f64 {
    let total: u64 = shards.iter().map(weight).sum();
    let sum: f64 = shards
        .iter()
        .filter(|s| weight(s) > 0)
        .map(|s| value(s) * weight(s) as f64)
        .sum();
    if total == 0 {
        0.0
    } else {
        sum / total as f64
    }
}

fn queue_wait_us_mean(shards: &[ShardBreakdown]) -> f64 {
    weighted_mean(shards, |s| s.mean_queue_wait_us, |s| s.popped)
}

/// The shards' queue-wait / service split, and the busiest shard's
/// processed count over the mean.
fn breakdown_metrics(report: &mut Report, shards: &[ShardBreakdown]) {
    report.set("serve.queue_wait_us_mean", queue_wait_us_mean(shards));
    report.set(
        "serve.service_us_mean",
        weighted_mean(shards, |s| s.mean_service_us, |s| s.processed),
    );
    let processed: Vec<f64> = shards.iter().map(|s| s.processed as f64).collect();
    let mean = processed.iter().sum::<f64>() / processed.len() as f64;
    let max = processed.iter().copied().fold(0.0, f64::max);
    report.set(
        "serve.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

fn stats_metrics(report: &mut Report, stats: &ServeStats, flows: u64) {
    let submitted = stats.submitted.max(1) as f64;
    report.set(
        "serve.late_drop_fraction",
        stats.late_drops as f64 / stats.admitted.max(1) as f64,
    );
    report.set("serve.shed_fraction", stats.shed_total() as f64 / submitted);
    report.set("serve.shed_queue_full", stats.shed_queue_full as f64);
    report.set("serve.shed_confident", stats.shed_confident as f64);
    report.set("serve.delayed_fraction", stats.delayed as f64 / submitted);
    report.set("serve.forced_halts", stats.forced_halts as f64);
    report.set("serve.flow_ends_shed", stats.flow_ends_shed as f64);
    report.set(
        "serve.decided_key_fraction",
        stats.decisions as f64 / flows.max(1) as f64,
    );
}

/// Closed-loop pass with a span around every submit call: submit
/// percentiles, the shards' queue-wait/service split, retries, shutdown.
/// Returns the service's arrivals per second.
fn closed_pass(report: &mut Report, plan: &Plan, pool: &Pool) -> f64 {
    let mut pool = pool.clone();
    let svc = ShardedService::start(tiny_model(), closed_config());
    let mut submit_ns = Vec::with_capacity(pool.arrivals() * 8);
    let mut timing = Timing::default();
    let mut retries = 0;
    let started = Instant::now();
    loop {
        let t_lap = Instant::now();
        for event in pool.events() {
            let t0 = Instant::now();
            let r = send_closed(&svc, event);
            let ns = t0.elapsed().as_nanos() as f64;
            // A retried submit's span holds its back-off sleeps.
            if r == 0 && submit_ns.len() < submit_ns.capacity() {
                submit_ns.push(ns);
            }
            retries += r;
        }
        timing.record(0, pool.arrivals() as f64, t_lap.elapsed().as_secs_f64());
        if plan.done(started, timing.laps()) {
            break;
        }
        pool.next_lap();
    }
    let t0 = Instant::now();
    let out = svc.shutdown();
    report.set("serve.shutdown_ms", t0.elapsed().as_secs_f64() * 1e3);
    let arrivals = (timing.laps() * pool.arrivals()) as u64;
    report.set("serve.submit_ns_p50", percentile(&submit_ns, 0.50));
    report.set("serve.submit_ns_p99", percentile(&submit_ns, 0.99));
    report.set(
        "serve.retries_per_arrival",
        retries as f64 / arrivals as f64,
    );
    report.set("core.lap_time_drift", drift(&timing.lap_seconds()));
    breakdown_metrics(report, &out.shards);
    stats_metrics(report, &out.stats, (timing.laps() * pool.flows()) as u64);
    report.check(
        "closed pass: accounting identity",
        out.stats.submitted.abs_diff(out.stats.arrivals_accounted()),
        arrivals,
    );
    timing.stats().rate(Estimator::Fastest)
}

/// One closed-loop lap under the counting allocator: allocations per
/// arrival with the generator's own clones subtracted, and the bytes the
/// service keeps live per arrival (journal, decided set, per-key state).
fn closed_counts(report: &mut Report, pool: &Pool) {
    let svc = ShardedService::start(tiny_model(), closed_config());
    let events: Vec<Event<'_>> = pool.events().collect();
    let (clones, counts) = counting(|| {
        let mut clones = 0u64;
        for &event in &events {
            let retries = send_closed(&svc, event);
            clones += (retries + 1) * matches!(event, Event::Item(_)) as u64;
        }
        // Let the worker finish what is queued before the scope closes.
        while svc.stats().arrivals_accounted() < svc.stats().submitted {
            std::thread::sleep(Duration::from_micros(200));
        }
        clones
    });
    drop(svc.shutdown());
    let arrivals = pool.arrivals() as f64;
    report.set(
        "serve.allocs_per_arrival",
        counts.allocs.saturating_sub(clones) as f64 / arrivals,
    );
    report.set(
        "serve.heap_live_growth_bytes_per_arrival",
        counts.live_growth as f64 / arrivals,
    );
}

/// What the generator remembers about a key's submissions, for latency
/// attribution (`oracle::answered_send_time`). Flows have at most 30 items.
#[derive(Clone, Copy, Default)]
struct KeySends {
    admitted: [u64; 32],
    n: usize,
    flow_end: Option<u64>,
}

/// What an open-loop pass observed.
struct OpenPass {
    latency_us: Vec<f64>,
    /// Sampled lateness of the generator, seconds.
    lag_s: Vec<f64>,
    stats: ServeStats,
    shards: Vec<ShardBreakdown>,
    flows_offered: u64,
}

impl OpenPass {
    /// Records the decision-latency percentiles as `<prefix>_p50_us` and
    /// `<prefix>_p99_us` (left at 0 when no decision was seen in flight).
    fn set_latency(&self, report: &mut Report, prefix: &str) {
        if !self.latency_us.is_empty() {
            report.set(
                &format!("{prefix}_p50_us"),
                percentile(&self.latency_us, 0.50),
            );
            report.set(
                &format!("{prefix}_p99_us"),
                percentile(&self.latency_us, 0.99),
            );
        }
    }
}

/// Open-loop pass at a fixed `rate` with decision-latency attribution:
/// the generator polls for decisions every `poll_every` sends and times
/// each from the send it answers, so a latency is exact to within one
/// poll interval.
fn open_pass(plan: &Plan, cfg: ServeConfig, pool: &Pool, rate: f64, poll_every: u64) -> OpenPass {
    let mut pool = pool.clone();
    let svc = ShardedService::start(tiny_model(), cfg);
    let mut sends: Vec<KeySends> = Vec::new();
    let mut latency_us = Vec::new();
    let epoch = Instant::now();
    let mut since_poll = 0;
    let (timing, lag_s) = drive_open(plan, &svc, &mut pool, rate, |event, admitted| {
        let now = epoch.elapsed().as_nanos() as u64;
        let key = match event {
            Event::Item(item) => item.key,
            Event::FlowEnd(key) => key,
        };
        if sends.len() <= key.0 as usize {
            sends.resize(key.0 as usize + 1, KeySends::default());
        }
        let entry = &mut sends[key.0 as usize];
        match event {
            Event::Item(_) if admitted => {
                entry.admitted[entry.n] = now;
                entry.n += 1;
            }
            Event::FlowEnd(_) if admitted => entry.flow_end = Some(now),
            _ => {}
        }
        since_poll += 1;
        if since_poll >= poll_every {
            since_poll = 0;
            for d in svc.drain_decisions() {
                let seen = epoch.elapsed().as_nanos() as u64;
                let entry = &sends[d.key.0 as usize];
                if let Some(sent) =
                    answered_send_time(&d, &entry.admitted[..entry.n], entry.flow_end)
                {
                    latency_us.push(seen.saturating_sub(sent) as f64 / 1e3);
                }
            }
        }
    });
    let out = svc.shutdown();
    OpenPass {
        latency_us,
        lag_s,
        stats: out.stats,
        shards: out.shards,
        flows_offered: (timing.laps() * pool.flows()) as u64,
    }
}

/// Rate of the ledger-only paced replay, arrivals per second: far below
/// capacity, so latency there is the unloaded service's.
const PACED_RATE: f64 = 40_000.0;

/// `obs.*`: loss of closed-loop arrivals per second with the subscriber on
/// (Info, memory sink) and with flow traces on (Debug), against off.
fn obs_overhead(report: &mut Report, plan: &Plan, pool: &Pool) {
    let rate = |config: Option<obs::Config>| {
        if let Some(config) = config {
            obs::configure(config);
        }
        let svc = ShardedService::start(tiny_model(), closed_config());
        let served = drive_closed(plan, svc, &mut pool.clone());
        obs_off();
        obs::reset();
        served.timing.stats().rate(Estimator::Fastest)
    };
    let off = rate(None);
    let info = rate(Some(obs::Config {
        enabled: true,
        level: obs::Level::Info,
        sink: obs::SinkConfig::Memory,
    }));
    let debug = rate(Some(obs::Config {
        enabled: true,
        level: obs::Level::Debug,
        sink: obs::SinkConfig::Null,
    }));
    report.set("obs.enabled_overhead_fraction", 1.0 - info / off);
    report.set("obs.trace_overhead_fraction", 1.0 - debug / off);
}

pub fn serve_closed(plan: &Plan) -> Report {
    let mut report = Report::new(PER_LAYER);
    let model = tiny_model();
    let pool = stream_prelude(&mut report, plan, &model, serve::shape(plan));
    serve_primitives(&mut report, &closed_config());
    let engine = engine_layers(&mut report, "serve-closed", &plan.phase(0.2), &model, &pool);

    let service_per_s = closed_pass(&mut report, &plan.phase(0.25), &pool);
    closed_counts(&mut report, &pool);
    // The ROADMAP's two ratios, from one model and one stream.
    report.set(
        "serve.service_over_feed_ratio",
        report.get("serve.service_us_mean") * 1e3 / engine.feed_ns_per_processed,
    );
    report.set(
        "serve.engine_over_service_ratio",
        shards() as f64 * engine.bare_arrivals_per_s / service_per_s,
    );

    let paced = open_pass(&plan.phase(0.15), closed_config(), &pool, PACED_RATE, 1);
    paced.set_latency(&mut report, "serve.paced_decision_latency");
    report.set(
        "serve.paced_queue_wait_us_mean",
        queue_wait_us_mean(&paced.shards),
    );
    obs_overhead(&mut report, &plan.phase(0.1), &pool);
    report
}

pub fn serve_overload(plan: &Plan) -> Report {
    let mut report = Report::new(PER_LAYER);
    let model = tiny_model();
    let pool = stream_prelude(&mut report, plan, &model, serve::shape(plan));
    serve_primitives(&mut report, &overload_config());
    engine_layers(
        &mut report,
        "serve-overload",
        &plan.phase(0.2),
        &model,
        &pool,
    );

    let pass = open_pass(
        &plan.phase(0.6),
        overload_config(),
        &pool,
        serve::OVERLOAD_RATE,
        64,
    );
    report.set(
        "serve.generator_lag_p99_ms",
        percentile(&pass.lag_s, 0.99) * 1e3,
    );
    pass.set_latency(&mut report, "serve.decision_latency");
    breakdown_metrics(&mut report, &pass.shards);
    stats_metrics(&mut report, &pass.stats, pass.flows_offered);
    report.check(
        "overload pass: accounting identity",
        pass.stats
            .submitted
            .abs_diff(pass.stats.arrivals_accounted()),
        pass.stats.submitted,
    );
    report
}

// --------------------------------------------------------- batch layers

/// Median wall time of `f` over `inputs`, in milliseconds.
fn median_ms<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = inputs
        .iter()
        .map(|input| {
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// `core.encode_stream_ms` and `core.evaluate_scenario_ms` per scenario.
fn forward_layers(
    report: &mut Report,
    model: &KvecModel,
    scenarios: &[kvec_data::TangledSequence],
) {
    let sample = &scenarios[..scenarios.len().min(32)];
    report.set(
        "core.encode_stream_ms",
        median_ms(sample, |s| {
            let sess = Session::new();
            black_box(model.encode_stream(&sess, s, None).e.shape());
        }),
    );
    report.set(
        "core.evaluate_scenario_ms",
        median_ms(sample, |s| {
            black_box(evaluate_scenario(model, s));
        }),
    );
}

pub fn train(plan: &Plan) -> Report {
    let mut report = Report::new(PER_LAYER);
    let s = batch::shape(plan);
    let model = batch_model();
    let (train, held_out) = batch::datasets(plan.seed, s);
    kernel_layer(&mut report, model.cfg.d_model, s.k * s.len);

    // One step at a time through the public step function.
    let mut probe = model.clone();
    let mut trainer = Trainer::new(&probe.cfg, &probe);
    let mut rng = KvecRng::seed_from_u64(batch::TRAIN_RNG_SEED);
    report.set(
        "core.train_scenario_ms",
        median_ms(&train, |scenario| {
            trainer
                .train_scenario(&mut probe, scenario, &mut rng)
                .expect("no fault injector is armed");
        }),
    );
    forward_layers(&mut report, &model, &held_out);

    // The quality guard's numbers, and the trainer's own bookkeeping.
    let trained = train_job(s, &model, &train, &mut Timing::default());
    let (eval, bad) = (evaluate(&trained.model, &held_out), trained.bad);
    report.set("core.eval_accuracy", eval.accuracy as f64);
    report.set("core.eval_earliness", eval.earliness as f64);
    report.set("core.eval_hm", eval.hm as f64);
    report.set("core.train_recovery_events", bad as f64);
    report.check(
        "training stayed finite",
        bad,
        (s.passes * train.len()) as u64,
    );
    report
}

pub fn eval(plan: &Plan) -> Report {
    let mut report = Report::new(PER_LAYER);
    let s = batch::shape(plan);
    let model = batch_model();
    let (_, held_out) = batch::datasets(plan.seed, s);
    kernel_layer(&mut report, model.cfg.d_model, s.k * s.len);
    forward_layers(&mut report, &model, &held_out);
    let (timing, eval) = eval_laps(&plan.phase(0.5), &model, &held_out);
    report.set("core.lap_time_drift", drift(&timing.lap_seconds()));
    report.set("core.eval_accuracy", eval.accuracy as f64);
    report.set("core.eval_earliness", eval.earliness as f64);
    report.set("core.eval_hm", eval.hm as f64);
    report.check(
        "every key evaluated once; batch equals streaming",
        batch::eval_failures(&model, &held_out, &eval),
        scenario_items(&held_out) as u64,
    );
    report
}
