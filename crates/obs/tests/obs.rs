//! Integration tests for the observability crate: span nesting and
//! ordering through the JSONL sink, histogram quantiles against a
//! sorted-vec oracle, and concurrent recording correctness.
//!
//! Every test that reconfigures the global subscriber runs under one
//! mutex — the subscriber is process-wide by design.

use kvec_json::Json;
use kvec_obs as obs;
use obs::{Config, Level, SinkConfig};
use std::sync::Mutex;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn memory_subscriber(level: Level) {
    obs::configure(Config {
        enabled: true,
        level,
        sink: SinkConfig::Memory,
    });
    obs::reset();
}

fn disable() {
    obs::configure(Config {
        enabled: false,
        level: Level::Info,
        sink: SinkConfig::Null,
    });
}

fn parse_lines(lines: &[String]) -> Vec<Json> {
    lines
        .iter()
        .map(|l| Json::parse(l).expect("every emitted line is valid JSON"))
        .collect()
}

/// Threads the concurrency tests spawn to check lock-free recording.
const WORKERS: usize = 4;

#[test]
fn span_nesting_depth_and_ordering() {
    let _g = lock();
    memory_subscriber(Level::Debug);
    {
        let _outer = obs::span("outer");
        {
            let _inner = obs::span_at(Level::Debug, "inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _second = obs::span("second");
        }
    }
    let lines = parse_lines(&obs::take_lines());
    disable();

    let spans: Vec<&Json> = lines
        .iter()
        .filter(|j| j.get("kind").unwrap().as_str().unwrap() == "span")
        .collect();
    assert_eq!(spans.len(), 3);
    // Spans are written at close: inner, second, then outer.
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["inner", "second", "outer"]);

    let rec = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str().unwrap() == name)
            .unwrap()
    };
    let f = |s: &Json, k: &str| s.get(k).unwrap().as_f64().unwrap();
    let (outer, inner, second) = (rec("outer"), rec("inner"), rec("second"));
    // Nesting depth: children sit one level below the parent.
    assert_eq!(outer.get("depth").unwrap(), &Json::Int(0));
    assert_eq!(inner.get("depth").unwrap(), &Json::Int(1));
    assert_eq!(second.get("depth").unwrap(), &Json::Int(1));
    // Interval containment: each child's [start, end] lies within the
    // parent's, and the sequential children do not overlap.
    for child in [inner, second] {
        assert!(f(child, "ts_us") >= f(outer, "ts_us"));
        assert!(
            f(child, "ts_us") + f(child, "dur_us") <= f(outer, "ts_us") + f(outer, "dur_us") + 1.0
        );
    }
    assert!(f(inner, "ts_us") + f(inner, "dur_us") <= f(second, "ts_us") + 1.0);
    // The slept span measured at least its sleep.
    assert!(f(inner, "dur_us") >= 1_000.0);
}

#[test]
fn filtered_spans_do_not_disturb_nesting() {
    let _g = lock();
    memory_subscriber(Level::Info);
    {
        let _outer = obs::span("outer.filtered");
        // Debug span is below the Info threshold: recorded nowhere, and
        // the sibling that follows keeps depth 1.
        let skipped = obs::span_at(Level::Debug, "invisible");
        assert!(!skipped.is_recording());
        drop(skipped);
        let _child = obs::span("child.filtered");
    }
    let lines = parse_lines(&obs::take_lines());
    disable();
    let names: Vec<&str> = lines
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["child.filtered", "outer.filtered"]);
    assert_eq!(lines[0].get("depth").unwrap(), &Json::Int(1));
    assert_eq!(lines[1].get("depth").unwrap(), &Json::Int(0));
}

#[test]
fn histogram_quantiles_match_a_sorted_vec_oracle() {
    let _g = lock();
    memory_subscriber(Level::Info);
    let h = obs::metrics::histogram("t.quantile.oracle");

    // A deliberately skewed sample: three decades of magnitudes, dense at
    // the bottom — the shape kernel timings actually have. Deterministic
    // LCG so the test never flakes.
    let mut x = 0x2545f4914f6cdd1du64;
    let mut values = Vec::with_capacity(5000);
    for _ in 0..5000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        values.push(10f64.powf(u * 3.0)); // log-uniform in [1, 1000)
    }
    for &v in &values {
        h.record(v);
    }
    let mut sorted = values.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));

    // One bucket spans a factor of 2^(1/SUB_BUCKETS); the estimate (the
    // bucket's geometric midpoint) is off by at most half a bucket width.
    let tol = 2f64.powf(1.0 / obs::metrics::SUB_BUCKETS as f64);
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        let oracle = sorted[(q * (sorted.len() - 1) as f64).floor() as usize];
        let got = h.quantile(q);
        assert!(
            got >= oracle / tol && got <= oracle * tol,
            "q={q}: histogram {got} vs oracle {oracle} (tolerance x{tol:.4})"
        );
    }
    // Extremes are exact, not bucket-approximated.
    assert_eq!(h.quantile(0.0), sorted[0]);
    assert_eq!(h.quantile(1.0), *sorted.last().unwrap());
    assert_eq!(h.count(), 5000);
    disable();
}

#[test]
fn concurrent_recording_loses_nothing() {
    let _g = lock();
    memory_subscriber(Level::Info);
    let threads = WORKERS;
    const PER_THREAD: u64 = 20_000;

    let c = obs::metrics::counter("t.conc.counter");
    let h = obs::metrics::histogram("t.conc.hist");
    let g = obs::metrics::gauge("t.conc.gauge");
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.add(1);
                    h.record((i % 100 + 1) as f64);
                    if i % 1000 == 0 {
                        g.set((t * 1000 + 1) as f64);
                    }
                }
            });
        }
    });
    assert_eq!(c.get(), threads as u64 * PER_THREAD);
    assert_eq!(h.count(), threads as u64 * PER_THREAD);
    assert_eq!(h.min(), 1.0);
    assert_eq!(h.max(), 100.0);
    // Sum is an exact integer total despite f64 CAS accumulation (all
    // values are small integers, so FP addition is exact here).
    let expect: f64 = (threads as u64 * PER_THREAD / 100) as f64 * (1..=100).sum::<u64>() as f64;
    assert_eq!(h.sum(), expect);
    assert_eq!(g.high_water(), ((threads - 1) * 1000 + 1) as f64);
    disable();
}

#[test]
fn concurrent_spans_keep_per_thread_depth() {
    let _g = lock();
    memory_subscriber(Level::Debug);
    let threads = WORKERS;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..50 {
                    let _a = obs::span("conc.outer");
                    let _b = obs::span("conc.inner");
                }
            });
        }
    });
    let lines = parse_lines(&obs::take_lines());
    disable();
    let spans: Vec<&Json> = lines
        .iter()
        .filter(|j| j.get("kind").unwrap().as_str().unwrap() == "span")
        .collect();
    assert_eq!(spans.len(), threads * 100);
    for s in spans {
        let name = s.get("name").unwrap().as_str().unwrap();
        let depth = s.get("depth").unwrap();
        match name {
            "conc.outer" => assert_eq!(depth, &Json::Int(0)),
            "conc.inner" => assert_eq!(depth, &Json::Int(1)),
            other => panic!("unexpected span {other}"),
        }
    }
}

#[test]
fn gauge_emission_appears_in_jsonl_and_chrome_trace() {
    let _g = lock();
    memory_subscriber(Level::Debug);
    let g = obs::metrics::gauge("t.emit.active_keys");
    g.set(5.0);
    g.set(11.0);
    let lines = parse_lines(&obs::take_lines());
    let gauges: Vec<&Json> = lines
        .iter()
        .filter(|j| j.get("kind").unwrap().as_str().unwrap() == "gauge")
        .collect();
    assert_eq!(gauges.len(), 2);
    assert_eq!(gauges[1].get("value").unwrap().as_f64().unwrap(), 11.0);

    let trace = obs::export::chrome_trace();
    let text = trace.dump();
    let parsed = Json::parse(&text).unwrap();
    let counters: Vec<&Json> = parsed
        .get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| {
            e.get("ph")
                .map(|p| p == &Json::Str("C".into()))
                .unwrap_or(false)
                && e.get("name").unwrap().as_str().unwrap() == "t.emit.active_keys"
        })
        .collect();
    assert_eq!(counters.len(), 2);
    disable();
}

#[test]
fn windowed_histogram_percentiles_match_a_sorted_vec_oracle() {
    let _g = lock();
    memory_subscriber(Level::Info);
    let h = obs::window::windowed_histogram("t.w.quantile.oracle", 100);

    // Same skewed sample and tolerance as the cumulative-histogram
    // oracle test: the windowed variant shares the bucket scheme, so it
    // must share the error bound.
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut values = Vec::with_capacity(5000);
    for _ in 0..5000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        values.push(10f64.powf(u * 3.0));
    }
    for &v in &values {
        h.record(v);
    }
    h.record(f64::NAN); // ignored, not counted
    obs::window::advance(100); // completes window 0

    let (count, p) = h.merged_percentiles(&[0]);
    assert_eq!(count, 5000);
    let mut sorted = values.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let tol = 2f64.powf(1.0 / obs::metrics::SUB_BUCKETS as f64);
    for (q, got) in [(0.50, p.p50), (0.95, p.p95), (0.99, p.p99)] {
        let oracle = sorted[(q * (sorted.len() - 1) as f64).floor() as usize];
        assert!(
            got >= oracle / tol && got <= oracle * tol,
            "q={q}: windowed {got} vs oracle {oracle} (tolerance x{tol:.4})"
        );
    }

    // A second window merges: same distribution recorded again, so the
    // merged percentiles stay within tolerance and the count doubles.
    for &v in &values {
        h.record(v);
    }
    obs::window::advance(100);
    let (count2, p2) = h.merged_percentiles(&[0, 1]);
    assert_eq!(count2, 10_000);
    let oracle50 = sorted[(0.5 * (sorted.len() - 1) as f64) as usize];
    assert!(p2.p50 >= oracle50 / tol && p2.p50 <= oracle50 * tol);
    disable();
}

#[test]
fn one_window_reads_bit_equal_to_the_whole_run_histogram() {
    let _g = lock();
    memory_subscriber(Level::Info);
    let whole = obs::metrics::histogram("t.pin.whole");
    let windowed = obs::window::windowed_histogram("t.pin.windowed", 1000);

    // Every bucket class: NaN (ignored), zero and negatives (underflow
    // bucket), magnitudes below 2^-30 (underflow) and above 2^34
    // (overflow), and a seeded log-uniform body across the whole range.
    let mut sample = vec![
        f64::NAN,
        0.0,
        -3.5,
        -1e-40,
        2f64.powi(-31),
        1e-12,
        2f64.powi(35),
        1e12,
    ];
    let mut x = 0x243f6a8885a308d3u64;
    for i in 0..4000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let v = (u * 80.0 - 40.0).exp2(); // 2^-40 .. 2^40
        sample.push(match i % 97 {
            0 => f64::NAN,
            1 => 0.0,
            2 => -v,
            _ => v,
        });
    }
    for &v in &sample {
        whole.record(v);
        windowed.record(v);
    }

    let w = windowed.current_window();
    let (n, p) = windowed.merged_percentiles(&[w]);
    let full = whole.percentiles();
    assert_eq!(n, whole.count());
    for (got, want) in [(p.p50, full.p50), (p.p95, full.p95), (p.p99, full.p99)] {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "window {got} vs whole run {want}"
        );
    }

    // The whole-run view against the estimator written out over the
    // sorted sample: exact extremes, else the geometric midpoint of the
    // order statistic's bucket clamped to [min, max].
    let mut sorted: Vec<f64> = sample.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let (min, max) = (sorted[0], *sorted.last().unwrap());
    assert_eq!(whole.count(), sorted.len() as u64);
    assert_eq!(whole.min().to_bits(), min.to_bits());
    assert_eq!(whole.max().to_bits(), max.to_bits());
    let sub = obs::metrics::SUB_BUCKETS as f64;
    let range = 64 * obs::metrics::SUB_BUCKETS; // octaves 2^-30 .. 2^34
    let bucket = |v: f64| {
        let pos = (v.log2() + 30.0) * sub;
        if v <= 0.0 || pos < 0.0 {
            0
        } else if pos >= range as f64 {
            range + 1
        } else {
            pos as usize + 1
        }
    };
    let n = sorted.len();
    for q in [
        0.0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0,
    ] {
        let rank = (q * (n - 1) as f64).floor() as usize;
        let want = if rank == 0 {
            min
        } else if rank == n - 1 {
            max
        } else {
            match bucket(sorted[rank]) {
                0 => min,
                i if i == range + 1 => max,
                i => (-30.0 + (i - 1) as f64 / sub + 0.5 / sub)
                    .exp2()
                    .clamp(min, max),
            }
        };
        let got = whole.quantile(q);
        assert_eq!(got.to_bits(), want.to_bits(), "q={q}: {got} vs {want}");
    }
    disable();
}

#[test]
fn windowed_counter_rotation_boundaries() {
    let _g = lock();
    memory_subscriber(Level::Info);
    let c = obs::window::windowed_counter("t.w.rotation", 10);

    // Ticks 0 and 9 land in window 0; tick 10 starts window 1.
    c.add(5);
    obs::window::advance(9);
    c.add(1);
    assert_eq!(c.current_window(), 0);
    obs::window::advance(1);
    assert_eq!(c.current_window(), 1);
    c.add(2);
    assert_eq!(c.window_total(0), 6);
    assert_eq!(c.window_total(1), 2);
    // Reads over the complete windows see neither the still-filling
    // current window nor windows that never recorded.
    let complete = |c: &obs::Counter| {
        (0..c.current_window())
            .map(|w| c.window_total(w))
            .sum::<u64>()
    };
    assert_eq!(complete(c), 6);
    assert_eq!(c.get(), 8, "the whole-run total spans every window");

    // Window SLOTS reuses window 0's slot: the old total stays readable
    // until the first record of the new window rotates it out.
    obs::window::advance(10 * (obs::window::SLOTS as u64 - 1));
    assert_eq!(c.current_window(), obs::window::SLOTS as u64);
    assert_eq!(
        c.window_total(0),
        6,
        "slot not recycled before first record"
    );
    c.add(7);
    assert_eq!(
        c.window_total(0),
        0,
        "recycled slot no longer serves window 0"
    );
    assert_eq!(c.window_total(obs::window::SLOTS as u64), 7);
    // Of windows 1..SLOTS-1 only window 1 ever recorded.
    assert_eq!(complete(c), 2);
    disable();
}

#[test]
fn windowed_concurrent_recording_loses_nothing() {
    let _g = lock();
    memory_subscriber(Level::Info);
    let threads = WORKERS;
    const PER_THREAD: u64 = 20_000;
    let c = obs::window::windowed_counter("t.w.conc.counter", 1000);
    let h = obs::window::windowed_histogram("t.w.conc.hist", 1000);

    // All recorders share window 0; the clock does not move under them.
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for i in 0..PER_THREAD {
                    c.add(1);
                    h.record((i % 100 + 1) as f64);
                }
            });
        }
    });
    obs::window::advance(1000);
    let total = threads as u64 * PER_THREAD;
    assert_eq!(c.window_total(0), total);
    assert_eq!(c.get(), total);
    let (count, p) = h.merged_percentiles(&[0]);
    assert_eq!(h.count(), total);
    assert_eq!(count, total);
    assert!(p.p50 >= 1.0 && p.p50 <= 100.0);
    disable();
}

#[test]
fn finish_is_idempotent_and_reset_clears_instruments() {
    let _g = lock();
    memory_subscriber(Level::Info);
    obs::metrics::counter("t.finish.stale").add(3);

    // Exactly one summary no matter how many times finish() runs (an
    // explicit call plus a caller's drop-guard is the common pair).
    obs::finish();
    let first = parse_lines(&obs::take_lines());
    assert_eq!(
        first
            .iter()
            .filter(|j| j.get("name").map(|n| n.as_str().ok()) == Ok(Some("metrics.summary")))
            .count(),
        1
    );
    obs::finish();
    assert!(
        obs::take_lines().is_empty(),
        "second finish must emit nothing"
    );

    // reset() retires registered instruments: the next run's summary
    // does not carry the earlier run's counter, and finish is re-armed.
    obs::reset();
    obs::metrics::counter("t.finish.fresh").add(1);
    obs::finish();
    let lines = obs::take_lines().join("\n");
    assert!(
        lines.contains("metrics.summary"),
        "finish re-armed after reset"
    );
    assert!(lines.contains("t.finish.fresh"));
    assert!(
        !lines.contains("t.finish.stale"),
        "reset must clear earlier registrations from the summary"
    );
    // The windowed tick clock rewinds too.
    obs::window::advance(17);
    obs::reset();
    assert_eq!(obs::window::tick(), 0);
    disable();
}
