//! # kvec-obs — zero-dependency observability for the KVEC workspace
//!
//! One crate gives the whole stack structured tracing, metrics, and
//! phase-level profiling without adding a single external dependency (the
//! `tests/no_registry.rs` guard stays green; serialization rides on
//! `kvec-json`). Three primitives:
//!
//! - **Events** — structured log records (`name` + typed fields) filtered
//!   by a level threshold and written as one JSON object per line (JSONL).
//! - **Spans** — RAII timing scopes with per-thread nesting depth. Closed
//!   spans are written to the JSONL sink and retained in memory so
//!   [`export::chrome_trace`] can produce a `chrome://tracing`-compatible
//!   file.
//! - **Metrics** — lock-free [`metrics::Counter`]s, [`metrics::Gauge`]s
//!   and log-bucketed [`metrics::Histogram`]s built on relaxed atomics, so
//!   concurrent recorders (the `kvec-serve` shard workers) never contend
//!   on a lock. One instrument per quantity: a counter or histogram
//!   declared with a window width ([`Lazy::windowed`]) keeps its
//!   whole-run total plus the last few [`window`]s of a logical tick
//!   clock, through the same bucket body and quantile estimator.
//!
//! ## Environment control
//!
//! The global subscriber initializes lazily from the environment:
//!
//! - `KVEC_LOG` — event level threshold: `off`, `error`, `warn`, `info`,
//!   `debug`, `trace`. Setting it (to anything but `off`/`0`) enables the
//!   subscriber; without a trace file, events go to stderr.
//! - `KVEC_TRACE_FILE` — JSONL sink path; implies enabled at `info` unless
//!   `KVEC_LOG` says otherwise.
//! - `KVEC_METRICS_FILE` / `KVEC_CHROME_TRACE` — paths written by
//!   [`finish`] (metrics-summary JSON / chrome trace). Setting either
//!   also enables metric aggregation.
//!
//! ## Overhead contract
//!
//! When the subscriber is disabled (no `KVEC_*` observability variable
//! set), every instrumentation site costs one relaxed atomic load and a
//! predictable branch — no clock reads, no allocation, no locks. The root
//! `tests/obs_overhead.rs` enforces <2% overhead on a training microbench.
//!
//! Programmatic control (tests, embedding): [`configure`] replaces the
//! subscriber config at runtime; [`reset`] clears metrics and retained
//! trace state.

pub mod export;
pub mod metrics;
pub mod span;
pub mod trace_ctx;
pub mod window;

mod sink;

pub use metrics::{
    Counter, Gauge, Histogram, Lazy, LazyCounter, LazyGauge, LazyHistogram, Percentiles,
};
pub use span::{span, span_at, Span};
pub use trace_ctx::{FlowCtx, FlowStamps};
pub use window::{SloBurn, SloInput, SloSpec};

use kvec_json::Json;
use sink::Sink;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 1,
    /// Recovered anomalies (watchdog skips, rollbacks, drops).
    Warn = 2,
    /// Per-epoch / per-run milestones. The default threshold.
    Info = 3,
    /// Per-step / per-feed records and fine-grained spans.
    Debug = 4,
    /// Everything, including per-kernel-call records.
    Trace = 5,
}

impl Level {
    /// Parses a `KVEC_LOG` value; `None` for unrecognized text and for the
    /// explicit `off`/`0` switches.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The lowercase name used in serialized events.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Where JSONL event lines go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkConfig {
    /// Discard lines (metrics still aggregate).
    Null,
    /// Human-readable fallback.
    Stderr,
    /// Append-to-file JSONL sink (`KVEC_TRACE_FILE`). The file is
    /// truncated on install and flushed per line.
    File(PathBuf),
    /// In-memory capture for tests; drain with [`take_lines`].
    Memory,
}

/// Full subscriber configuration, for programmatic installs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Master switch: gates events, spans, *and* metric aggregation.
    pub enabled: bool,
    /// Event/span level threshold.
    pub level: Level,
    /// JSONL destination.
    pub sink: SinkConfig,
}

struct State {
    enabled: AtomicBool,
    level: AtomicU8,
    sink: Mutex<Sink>,
}

static STATE: OnceLock<State> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn state() -> &'static State {
    STATE.get_or_init(|| {
        let log = std::env::var("KVEC_LOG").ok();
        let trace_file = std::env::var("KVEC_TRACE_FILE").ok();
        let wants_exports = std::env::var_os("KVEC_METRICS_FILE").is_some()
            || std::env::var_os("KVEC_CHROME_TRACE").is_some();
        let explicit_off = matches!(log.as_deref().map(str::trim), Some("off") | Some("0"));
        let enabled = !explicit_off && (log.is_some() || trace_file.is_some() || wants_exports);
        let level = log.as_deref().and_then(Level::parse).unwrap_or(Level::Info);
        let sink = match (&trace_file, enabled) {
            (Some(path), true) => Sink::file(PathBuf::from(path)),
            (None, true) => Sink::Stderr,
            _ => Sink::Null,
        };
        State {
            enabled: AtomicBool::new(enabled),
            level: AtomicU8::new(level as u8),
            sink: Mutex::new(sink),
        }
    })
}

/// Microseconds since the process-local trace epoch (first observability
/// call), as a float so sub-microsecond spans keep their precision.
pub fn ts_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Whether the subscriber is enabled at all. This is the single check
/// every instrumentation site makes first; when it returns `false` the
/// site does no further work.
#[inline]
pub fn enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Whether an event/span at `level` would currently be recorded.
#[inline]
pub fn event_enabled(level: Level) -> bool {
    enabled() && level as u8 <= state().level.load(Ordering::Relaxed)
}

/// `Some(Instant::now())` when enabled, `None` otherwise — the cheap
/// pattern for timing a phase only when someone is listening (pair with
/// [`LazyCounter::add_elapsed_ns`]).
#[inline]
pub fn timer() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Replaces the subscriber configuration (installing lazily if the
/// environment never did). Tests use this instead of racing on env vars.
pub fn configure(cfg: Config) {
    let st = state();
    let sink = match cfg.sink {
        SinkConfig::Null => Sink::Null,
        SinkConfig::Stderr => Sink::Stderr,
        SinkConfig::File(path) => Sink::file(path),
        SinkConfig::Memory => Sink::Memory(Vec::new()),
    };
    // Order: disable first so no event lands in a half-swapped sink.
    st.enabled.store(false, Ordering::SeqCst);
    st.level.store(cfg.level as u8, Ordering::SeqCst);
    *st.sink.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    FINISHED.store(false, Ordering::SeqCst);
    st.enabled.store(cfg.enabled, Ordering::SeqCst);
}

/// Records a structured event. `fields` become the event's `fields`
/// object. Build the `Json` values behind an [`event_enabled`] check when
/// the construction itself is not free.
pub fn event(level: Level, name: &str, fields: &[(&str, Json)]) {
    if !event_enabled(level) {
        return;
    }
    let obj = Json::obj([
        ("ts_us", Json::Float(ts_us())),
        ("kind", Json::Str("event".into())),
        ("level", Json::Str(level.as_str().into())),
        ("name", Json::Str(name.into())),
        ("tid", Json::Int(span::tid() as i128)),
        (
            "fields",
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    write_line(&obj.dump());
}

pub(crate) fn write_line(line: &str) {
    state()
        .sink
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .write_line(line);
}

/// Flushes the JSONL sink.
pub fn flush() {
    state()
        .sink
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .flush();
}

/// Drains the lines captured by a [`SinkConfig::Memory`] sink (empty for
/// other sinks).
pub fn take_lines() -> Vec<String> {
    state()
        .sink
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take_lines()
}

/// Set once [`finish`] has run; cleared by [`configure`] and [`reset`]
/// so a new in-process run gets its own summary.
static FINISHED: AtomicBool = AtomicBool::new(false);

/// End-of-run hook: emits a final `metrics.summary` event (so the JSONL
/// log carries the aggregate counters/histograms), flushes the sink, and
/// writes the `KVEC_METRICS_FILE` / `KVEC_CHROME_TRACE` exports when those
/// variables are set. Idempotent: repeated calls (e.g. an explicit call
/// plus a drop-guard in the caller) emit exactly one summary; the next
/// [`configure`] or [`reset`] re-arms it. A no-op when disabled.
pub fn finish() {
    if !enabled() {
        return;
    }
    if FINISHED.swap(true, Ordering::SeqCst) {
        return;
    }
    event(
        Level::Info,
        "metrics.summary",
        &[("summary", export::metrics_summary())],
    );
    flush();
    if let Some(path) = std::env::var_os("KVEC_METRICS_FILE") {
        if let Err(e) = export::write_metrics_summary(&path) {
            eprintln!("kvec-obs: failed to write metrics summary: {e}");
        }
    }
    if let Some(path) = std::env::var_os("KVEC_CHROME_TRACE") {
        if let Err(e) = export::write_chrome_trace(&path) {
            eprintln!("kvec-obs: failed to write chrome trace: {e}");
        }
    }
}

/// Resets the subscriber's accumulated state for a fresh in-process run:
/// zeroes and *retires* every registered metric (see
/// [`metrics::clear_registrations`] — a later run's summary no longer
/// carries an earlier run's instruments) with their windows, rewinds the
/// window tick clock, clears retained spans, gauge samples, and
/// memory-sink lines, and re-arms [`finish`]. For tests and repeated
/// in-process runs.
pub fn reset() {
    metrics::clear_registrations();
    window::rewind();
    span::reset_retained();
    FINISHED.store(false, Ordering::SeqCst);
    let _ = take_lines();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit tests share the global subscriber; serialize the ones that
    /// reconfigure it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse(" WARN "), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("nonsense"), None);
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn disabled_subscriber_drops_everything() {
        let _g = lock();
        configure(Config {
            enabled: false,
            level: Level::Trace,
            sink: SinkConfig::Memory,
        });
        event(Level::Error, "nope", &[("x", Json::Int(1))]);
        assert!(!enabled());
        assert!(timer().is_none());
        assert!(take_lines().is_empty());
    }

    #[test]
    fn events_respect_the_level_threshold() {
        let _g = lock();
        configure(Config {
            enabled: true,
            level: Level::Info,
            sink: SinkConfig::Memory,
        });
        event(Level::Debug, "too.fine", &[]);
        event(Level::Info, "kept", &[("n", Json::Int(7))]);
        let lines = take_lines();
        configure(Config {
            enabled: false,
            level: Level::Info,
            sink: SinkConfig::Null,
        });
        assert_eq!(lines.len(), 1, "{lines:?}");
        let parsed = Json::parse(&lines[0]).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str().unwrap(), "kept");
        assert_eq!(
            parsed.get("fields").unwrap().get("n").unwrap(),
            &Json::Int(7)
        );
    }
}
