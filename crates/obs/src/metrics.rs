//! Lock-free counters, gauges, and log-bucketed histograms.
//!
//! All metric state is relaxed atomics: recording from any thread (the
//! `kvec-serve` shard workers, say) never takes a lock and never blocks
//! another recorder. The only mutex in this module
//! guards *registration* — a once-per-callsite cold path that
//! [`Lazy`] handles cache through a `OnceLock`.
//!
//! Histograms bucket positive values on a base-2 log scale with
//! [`SUB_BUCKETS`] sub-buckets per octave, so a quantile estimate is off
//! by at most a factor of `2^(1/SUB_BUCKETS)` (~9%) from the exact order
//! statistic — tight enough for latency tuning, cheap enough for hot
//! paths. Exact `min`/`max`/`sum`/`count` are kept alongside.
//!
//! Each quantity is one instrument. A counter or histogram declared with
//! a window width ([`Lazy::windowed`]) also keeps the last
//! [`crate::window::SLOTS`] tick windows of the same quantity; the
//! whole-run view and every window share one bucket body and one
//! quantile estimator.

use crate::span;
use crate::window::{Ring, SlotBody};
use crate::Level;
use kvec_json::Json;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sub-buckets per power of two. 8 bounds the quantile's relative error
/// by `2^(1/8) - 1 ≈ 9%`.
pub const SUB_BUCKETS: usize = 8;
/// Smallest bucketed magnitude: `2^MIN_EXP` (≈ 1e-9; values below — and
/// non-positive values — land in the underflow bucket and resolve to the
/// exact recorded minimum).
const MIN_EXP: i32 = -30;
/// Largest bucketed magnitude: `2^MAX_EXP` (≈ 1.7e10 — comfortably above
/// nanosecond timings of multi-second phases).
const MAX_EXP: i32 = 34;
const RANGE: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB_BUCKETS;
/// Bucket count: underflow + log range + overflow.
const NUM_BUCKETS: usize = RANGE + 2;

/// Process-wide metric generation: bumped by [`clear_registrations`], so
/// the exported [`snapshot`] only carries metrics touched since the last
/// clear. Registered `&'static` handles stay valid forever (they are
/// leaked); a stale-generation metric is merely invisible until its next
/// mutation re-stamps it.
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn current_gen() -> u64 {
    GENERATION.load(Relaxed)
}

fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing `u64` (calls, items, FLOPs, nanoseconds),
/// optionally also bucketed into tick windows.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    gen: AtomicU64,
    windows: Ring<AtomicU64>,
}

impl Counter {
    fn new(name: &'static str, width: u64) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            gen: AtomicU64::new(current_gen()),
            windows: Ring::new(width, || AtomicU64::new(0)),
        }
    }

    /// Adds `n` to the total and to the current window.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
        self.gen.store(current_gen(), Relaxed);
        if let Some(slot) = self.windows.claim() {
            slot.fetch_add(n, Relaxed);
        }
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The window id the clock is currently in (0 without windows).
    pub fn current_window(&self) -> u64 {
        self.windows.current()
    }

    /// Total recorded in window `wid` (0 if empty, recycled or unwindowed).
    pub fn window_total(&self, wid: u64) -> u64 {
        self.windows.get(wid).map_or(0, |v| v.load(Relaxed))
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
        self.windows.reset();
    }
}

/// A last-value-wins `f64` with a high-water mark — the shape needed to
/// tune capacity bounds (e.g. `StreamingEngine::with_max_active_keys`)
/// from real runs.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
    high_bits: AtomicU64,
    set_count: AtomicU64,
    gen: AtomicU64,
}

impl Gauge {
    fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            bits: AtomicU64::new(f64::NAN.to_bits()),
            high_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            set_count: AtomicU64::new(0),
            gen: AtomicU64::new(current_gen()),
        }
    }

    /// Sets the gauge, updates the high-water mark, and (at `debug` level)
    /// emits a JSONL `gauge` record plus a retained chrome-trace counter
    /// sample.
    pub fn set(&self, v: f64) {
        self.gen.store(current_gen(), Relaxed);
        self.bits.store(v.to_bits(), Relaxed);
        atomic_f64_update(&self.high_bits, |cur| cur.max(v));
        self.set_count.fetch_add(1, Relaxed);
        span::retain_gauge_sample(self.name, v);
        if crate::event_enabled(Level::Debug) {
            let obj = Json::obj([
                ("ts_us", Json::Float(crate::ts_us())),
                ("kind", Json::Str("gauge".into())),
                ("name", Json::Str(self.name.into())),
                ("tid", Json::Int(span::tid() as i128)),
                ("value", Json::Float(v)),
            ]);
            crate::write_line(&obj.dump());
        }
    }

    /// Last set value (NaN before the first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }

    /// Largest value ever set (-inf before the first set).
    pub fn high_water(&self) -> f64 {
        f64::from_bits(self.high_bits.load(Relaxed))
    }

    /// Number of sets so far.
    pub fn sets(&self) -> u64 {
        self.set_count.load(Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.bits.store(f64::NAN.to_bits(), Relaxed);
        self.high_bits.store(f64::NEG_INFINITY.to_bits(), Relaxed);
        self.set_count.store(0, Relaxed);
    }
}

fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        // Non-positive and NaN values share the underflow bucket; the
        // quantile resolves them through the exact minimum.
        return 0;
    }
    let pos = (v.log2() - MIN_EXP as f64) * SUB_BUCKETS as f64;
    if pos < 0.0 {
        0
    } else if pos >= RANGE as f64 {
        RANGE + 1
    } else {
        pos as usize + 1
    }
}

/// Geometric midpoint of bucket `i`'s bounds (`1 <= i <= RANGE`).
fn bucket_mid(i: usize) -> f64 {
    let lo = MIN_EXP as f64 + (i - 1) as f64 / SUB_BUCKETS as f64;
    (lo + 0.5 / SUB_BUCKETS as f64).exp2()
}

/// The `q`-quantile (`0 <= q <= 1`) of `count` observations with bucket
/// counts `buckets` and exact extremes `min`/`max`: the geometric midpoint
/// of the bucket holding the order statistic at rank
/// `floor(q * (count - 1))`, clamped to `[min, max]`. The extreme ranks
/// are tracked exactly and skip bucket estimation. NaN when empty.
fn quantile(buckets: impl IntoIterator<Item = u64>, count: u64, min: f64, max: f64, q: f64) -> f64 {
    if count == 0 {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * (count - 1) as f64).floor() as u64;
    if rank == 0 {
        return min;
    }
    if rank == count - 1 {
        return max;
    }
    let mut cum = 0u64;
    for (i, c) in buckets.into_iter().enumerate() {
        cum += c;
        if cum > rank {
            let raw = match i {
                0 => min,
                i if i == RANGE + 1 => max,
                i => bucket_mid(i),
            };
            return raw.clamp(min, max);
        }
    }
    max
}

/// Bucket counts with exact count, min and max: the body of a histogram's
/// whole-run view and of each of its window slots.
struct Buckets {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Buckets {
    fn new() -> Buckets {
        let b = Buckets {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            min_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        };
        b.clear();
        b
    }

    fn record(&self, v: f64) {
        self.counts[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Relaxed))
    }

    fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Relaxed))
    }
}

impl SlotBody for Buckets {
    fn clear(&self) {
        for c in self.counts.iter() {
            c.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Relaxed);
    }
}

/// A lock-free histogram over positive `f64` values (log-scale buckets)
/// with exact count/sum/min/max, optionally also bucketed into tick
/// windows.
pub struct Histogram {
    name: &'static str,
    total: Buckets,
    sum_bits: AtomicU64,
    gen: AtomicU64,
    windows: Ring<Buckets>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    fn new(name: &'static str, width: u64) -> Histogram {
        Histogram {
            name,
            total: Buckets::new(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            gen: AtomicU64::new(current_gen()),
            windows: Ring::new(width, Buckets::new),
        }
    }

    /// Records one observation into the whole run and the current window.
    /// NaN is ignored.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.gen.store(current_gen(), Relaxed);
        self.total.record(v);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        if let Some(slot) = self.windows.claim() {
            slot.record(v);
        }
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Exact sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Relaxed))
    }

    /// Mean observation (NaN when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact minimum (+inf when empty).
    pub fn min(&self) -> f64 {
        self.total.min()
    }

    /// Exact maximum (-inf when empty).
    pub fn max(&self) -> f64 {
        self.total.max()
    }

    /// Estimates the `q`-quantile (`0 <= q <= 1`) of the whole run as the
    /// geometric midpoint of the bucket holding the order statistic at
    /// rank `floor(q * (count - 1))`, clamped to the exact observed range.
    /// Relative error is bounded by one bucket width (`2^(1/SUB_BUCKETS)`).
    /// NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let t = &self.total;
        let counts = t.counts.iter().map(|c| c.load(Relaxed));
        quantile(counts, t.count(), t.min(), t.max(), q)
    }

    /// The p50/p95/p99 triple every latency report wants, in one
    /// snapshot — so a serving layer can export decision-latency
    /// percentiles programmatically instead of re-parsing the metrics
    /// file. Each value carries [`quantile`](Histogram::quantile)'s
    /// one-bucket-width error bound; all NaN when empty.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles::of(|q| self.quantile(q))
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The window id the clock is currently in (0 without windows).
    pub fn current_window(&self) -> u64 {
        self.windows.current()
    }

    /// Count and p50/p95/p99 over the windows `wids`, merged (empty,
    /// recycled and unwindowed reads contribute nothing). All-NaN
    /// percentiles when those windows are empty.
    pub fn merged_percentiles(&self, wids: &[u64]) -> (u64, Percentiles) {
        let mut counts = vec![0u64; NUM_BUCKETS];
        let (mut count, mut min, mut max) = (0u64, f64::INFINITY, f64::NEG_INFINITY);
        for b in wids.iter().filter_map(|&w| self.windows.get(w)) {
            for (acc, c) in counts.iter_mut().zip(b.counts.iter()) {
                *acc += c.load(Relaxed);
            }
            count += b.count();
            min = min.min(b.min());
            max = max.max(b.max());
        }
        let p = Percentiles::of(|q| quantile(counts.iter().copied(), count, min, max, q));
        (count, p)
    }

    fn reset(&self) {
        self.total.clear();
        self.sum_bits.store(0f64.to_bits(), Relaxed);
        self.windows.reset();
    }
}

/// A point-in-time p50/p95/p99 snapshot of a [`Histogram`] (see
/// [`Histogram::percentiles`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl Percentiles {
    fn of(quantile: impl Fn(f64) -> f64) -> Percentiles {
        Percentiles {
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

pub(crate) enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn width(&self) -> u64 {
        match self {
            Metric::Counter(c) => c.windows.width(),
            Metric::Gauge(_) => 0,
            Metric::Histogram(h) => h.windows.width(),
        }
    }
}

/// A registrable instrument type: how to leak a new one into a registry
/// entry, and how to find one in an entry.
pub(crate) trait Instrument: Sized + 'static {
    fn create(name: &'static str, width: u64) -> Metric;
    fn of(m: &Metric) -> Option<&'static Self>;
}

impl Instrument for Counter {
    fn create(name: &'static str, width: u64) -> Metric {
        Metric::Counter(Box::leak(Box::new(Counter::new(name, width))))
    }
    fn of(m: &Metric) -> Option<&'static Self> {
        match m {
            Metric::Counter(c) => Some(c),
            _ => None,
        }
    }
}

impl Instrument for Gauge {
    fn create(name: &'static str, width: u64) -> Metric {
        assert_eq!(width, 0, "gauges keep no windows");
        Metric::Gauge(Box::leak(Box::new(Gauge::new(name))))
    }
    fn of(m: &Metric) -> Option<&'static Self> {
        match m {
            Metric::Gauge(g) => Some(g),
            _ => None,
        }
    }
}

impl Instrument for Histogram {
    fn create(name: &'static str, width: u64) -> Metric {
        Metric::Histogram(Box::leak(Box::new(Histogram::new(name, width))))
    }
    fn of(m: &Metric) -> Option<&'static Self> {
        match m {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

fn registry() -> &'static Mutex<Vec<(&'static str, Metric)>> {
    static REGISTRY: OnceLock<Mutex<Vec<(&'static str, Metric)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<(&'static str, Metric)>> {
    // A panicked registrant (type-mismatch panic) leaves the list in a
    // consistent state — either it pushed its metric or it didn't — so
    // poisoning is safe to clear.
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Finds or creates the instrument `name`. With `Some(width)` an existing
/// registration must have that window width; with `None` any width is
/// found and a new instrument keeps the whole run only. Panics if the
/// name is registered as another type or with another width.
pub(crate) fn register<M: Instrument>(name: &'static str, width: Option<u64>) -> &'static M {
    let mut reg = lock_registry();
    let found = match reg.iter().position(|(n, _)| *n == name) {
        Some(i) => &reg[i].1,
        None => {
            reg.push((name, M::create(name, width.unwrap_or(0))));
            &reg[reg.len() - 1].1
        }
    };
    match M::of(found) {
        Some(m) if width.is_none_or(|w| w == found.width()) => m,
        _ => panic!("metric `{name}` already registered with a different type or width"),
    }
}

/// Finds or creates the counter `name`, whatever its window width.
/// Panics if the name is already registered as a different metric type.
/// A name this creates keeps no windows, so a windowed instrument must be
/// registered by its declaring handle ([`Lazy::force`]) before it is
/// read by name.
pub fn counter(name: &'static str) -> &'static Counter {
    register(name, None)
}

/// Finds or creates the gauge `name` (see [`counter`] for the contract).
pub fn gauge(name: &'static str) -> &'static Gauge {
    register(name, None)
}

/// Finds or creates the histogram `name` (see [`counter`] for the
/// contract).
pub fn histogram(name: &'static str) -> &'static Histogram {
    register(name, None)
}

/// Zeroes every registered metric and its windows (registrations persist
/// — handles cached in `OnceLock`s stay valid and the metrics stay
/// visible in the exported snapshot).
pub fn reset_all() {
    for (_, m) in lock_registry().iter() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// Zeroes every registered metric *and* retires it from the exported
/// snapshot until its next mutation: back-to-back in-process runs (e.g.
/// a serving test followed by a training run) stop leaking each other's
/// instruments into `metrics.summary`. Cached `&'static` handles stay
/// valid — the backing metrics are leaked, only their visibility
/// generation moves — so instrumentation sites need no re-registration,
/// just a first touch.
pub fn clear_registrations() {
    reset_all();
    GENERATION.fetch_add(1, Relaxed);
}

/// Counter rows of a [`snapshot`]: `(name, total)`.
pub(crate) type CounterRows = Vec<(&'static str, u64)>;
/// Gauge rows of a [`snapshot`]: `(name, value, high_water, sets)`.
pub(crate) type GaugeRows = Vec<(&'static str, f64, f64, u64)>;

/// A point-in-time copy of every registered metric that is visible in
/// the current generation (touched since the last
/// [`clear_registrations`]), sorted by name — the input to
/// `export::metrics_summary`.
pub(crate) fn snapshot() -> (CounterRows, GaugeRows, Vec<&'static Histogram>) {
    let reg = lock_registry();
    let cur = current_gen();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    for (name, m) in reg.iter() {
        match m {
            Metric::Counter(c) if c.gen.load(Relaxed) == cur => counters.push((*name, c.get())),
            Metric::Gauge(g) if g.gen.load(Relaxed) == cur => {
                gauges.push((*name, g.get(), g.high_water(), g.sets()))
            }
            Metric::Histogram(h) if h.gen.load(Relaxed) == cur => hists.push(*h),
            _ => {}
        }
    }
    counters.sort_by_key(|(n, _)| *n);
    gauges.sort_by_key(|(n, ..)| *n);
    hists.sort_by_key(|h| h.name());
    (counters, gauges, hists)
}

// ---------------------------------------------------------------------------
// Lazy handles — the form instrumentation sites declare.
// ---------------------------------------------------------------------------

/// A `static`-declarable instrument handle: registration happens on the
/// first *enabled* use; disabled use is one relaxed load and a branch.
pub struct Lazy<M: 'static> {
    name: &'static str,
    width: u64,
    cell: OnceLock<&'static M>,
}

/// A [`Lazy`] [`Counter`].
pub type LazyCounter = Lazy<Counter>;
/// A [`Lazy`] [`Gauge`].
pub type LazyGauge = Lazy<Gauge>;
/// A [`Lazy`] [`Histogram`].
pub type LazyHistogram = Lazy<Histogram>;

impl<M> Lazy<M> {
    /// Declares a handle that keeps the whole run only (usually in a
    /// `static`).
    pub const fn new(name: &'static str) -> Lazy<M> {
        Lazy::windowed(name, 0)
    }

    /// Declares a handle that also keeps `width`-tick windows (0 = whole
    /// run only; gauges take no windows).
    pub const fn windowed(name: &'static str, width: u64) -> Lazy<M> {
        Lazy {
            name,
            width,
            cell: OnceLock::new(),
        }
    }
}

impl LazyCounter {
    /// The registered counter (registering it if needed).
    pub fn force(&self) -> &'static Counter {
        self.cell
            .get_or_init(|| register(self.name, Some(self.width)))
    }

    /// Adds `n` when the subscriber is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.force().add(n);
        }
    }

    /// Adds the elapsed nanoseconds of a [`crate::timer`] — the phase
    /// timing pattern: `let t = obs::timer(); ...work...;
    /// NS.add_elapsed_ns(t);`.
    #[inline]
    pub fn add_elapsed_ns(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.force().add(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Current total (0 if never registered).
    pub fn get(&self) -> u64 {
        self.cell.get().map_or(0, |c| c.get())
    }
}

impl LazyGauge {
    /// The registered gauge (registering it if needed).
    pub fn force(&self) -> &'static Gauge {
        self.cell
            .get_or_init(|| register(self.name, Some(self.width)))
    }

    /// Sets the gauge when the subscriber is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.force().set(v);
        }
    }
}

impl LazyHistogram {
    /// The registered histogram (registering it if needed).
    pub fn force(&self) -> &'static Histogram {
        self.cell
            .get_or_init(|| register(self.name, Some(self.width)))
    }

    /// Records one observation when the subscriber is enabled.
    #[inline]
    pub fn record(&self, v: f64) {
        if crate::enabled() {
            self.force().record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for e in -40..45 {
            let v = (e as f64).exp2() * 1.01;
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS);
            assert!(i >= last, "bucket index must not decrease");
            last = i;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e300), RANGE + 1);
    }

    #[test]
    fn bucket_mid_sits_inside_its_bucket() {
        for i in 1..=RANGE {
            let mid = bucket_mid(i);
            assert_eq!(bucket_index(mid), i, "midpoint of bucket {i} escapes");
        }
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::new("t.exact", 0);
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10.0);
        // Quantile endpoints are exact through min/max clamping.
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 10.0);
        // NaN observations are ignored.
        h.record(f64::NAN);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new("t.empty", 0);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn percentiles_match_a_sorted_vec_oracle() {
        // Seeded LCG stream spanning several octaves, checked against the
        // exact order statistics of the sorted sample. The contract is the
        // documented one-bucket-width relative error (2^(1/SUB_BUCKETS)).
        let h = Histogram::new("t.pctl.oracle", 0);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut vals = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Magnitudes from ~1e-3 to ~1e6.
            let v = ((x >> 11) as f64 / (1u64 << 53) as f64) * 30.0 - 10.0;
            let v = v.exp2();
            h.record(v);
            vals.push(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let tol = (1.0f64 / SUB_BUCKETS as f64).exp2(); // one bucket width
        let p = h.percentiles();
        for (q, got) in [(0.50, p.p50), (0.95, p.p95), (0.99, p.p99)] {
            let exact = vals[(q * (vals.len() - 1) as f64).floor() as usize];
            let ratio = got / exact;
            assert!(
                ratio > 1.0 / tol && ratio < tol,
                "p{}: estimate {got} vs exact {exact} (ratio {ratio})",
                (q * 100.0) as u32
            );
        }
        // The convenience must be exactly the three quantile calls.
        assert_eq!(p.p50, h.quantile(0.50));
        assert_eq!(p.p95, h.quantile(0.95));
        assert_eq!(p.p99, h.quantile(0.99));
        // Empty histograms stay well-defined.
        let e = Histogram::new("t.pctl.empty", 0);
        let pe = e.percentiles();
        assert!(pe.p50.is_nan() && pe.p95.is_nan() && pe.p99.is_nan());
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = gauge("t.gauge.hw");
        g.set(3.0);
        g.set(9.0);
        g.set(4.0);
        assert_eq!(g.get(), 4.0);
        assert_eq!(g.high_water(), 9.0);
        assert_eq!(g.sets(), 3);
    }

    #[test]
    fn registry_dedups_and_type_checks() {
        let a = counter("t.reg.c");
        let b = counter("t.reg.c");
        assert!(std::ptr::eq(a, b));
        let r = std::panic::catch_unwind(|| histogram("t.reg.c"));
        assert!(r.is_err(), "type mismatch must panic");
        // The registry lock recovers from the panic above.
        assert!(std::ptr::eq(counter("t.reg.c"), a));
        // A by-name read finds a windowed instrument; a declaration with
        // another width does not.
        let w = crate::window::windowed_histogram("t.reg.w", 16);
        assert!(std::ptr::eq(histogram("t.reg.w"), w));
        let r = std::panic::catch_unwind(|| crate::window::windowed_histogram("t.reg.w", 8));
        assert!(r.is_err(), "width mismatch must panic");
    }
}
