//! Lock-free counters, gauges, and log-bucketed histograms.
//!
//! All metric state is relaxed atomics: recording from any thread (the
//! `kvec-serve` shard workers, say) never takes a lock and never blocks
//! another recorder. The only mutex in this module
//! guards *registration* — a once-per-callsite cold path that
//! [`LazyCounter`]-style handles cache through a `OnceLock`.
//!
//! Histograms bucket positive values on a base-2 log scale with
//! [`SUB_BUCKETS`] sub-buckets per octave, so a quantile estimate is off
//! by at most a factor of `2^(1/SUB_BUCKETS)` (~9%) from the exact order
//! statistic — tight enough for latency tuning, cheap enough for hot
//! paths. Exact `min`/`max`/`sum`/`count` are kept alongside.

use crate::span;
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

// The windowed types in `crate::window` reuse the bucket scheme so their
// quantiles carry the same error bound as the cumulative histogram.
pub(crate) const HIST_BUCKETS: usize = NUM_BUCKETS;
pub(crate) const HIST_RANGE: usize = RANGE;

/// Process-wide metric generation: bumped by [`clear_registrations`], so
/// the exported [`snapshot`] only carries metrics touched since the last
/// clear. Registered `&'static` handles stay valid forever (they are
/// leaked); a stale-generation metric is merely invisible until its next
/// mutation re-stamps it.
static GENERATION: AtomicU64 = AtomicU64::new(0);

fn current_gen() -> u64 {
    GENERATION.load(Relaxed)
}

pub(crate) fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
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

/// A monotonically increasing `u64` (calls, items, FLOPs, nanoseconds).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    gen: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
        self.gen.store(current_gen(), Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
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

/// A lock-free histogram over positive `f64` values (log-scale buckets)
/// with exact count/sum/min/max.
pub struct Histogram {
    name: &'static str,
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    gen: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("name", &self.name)
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

pub(crate) fn bucket_index(v: f64) -> usize {
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
pub(crate) fn bucket_mid(i: usize) -> f64 {
    let lo = MIN_EXP as f64 + (i - 1) as f64 / SUB_BUCKETS as f64;
    (lo + 0.5 / SUB_BUCKETS as f64).exp2()
}

impl Histogram {
    fn new(name: &'static str) -> Histogram {
        let h = Histogram {
            name,
            // `AtomicU64` is not Copy; build through a zeroed Vec.
            buckets: (0..NUM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .try_into()
                .expect("bucket count is fixed"),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            gen: AtomicU64::new(current_gen()),
        };
        h.reset();
        h
    }

    /// Records one observation. NaN is ignored.
    pub fn record(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.gen.store(current_gen(), Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + v);
        atomic_f64_update(&self.min_bits, |m| m.min(v));
        atomic_f64_update(&self.max_bits, |m| m.max(v));
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
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
        f64::from_bits(self.min_bits.load(Relaxed))
    }

    /// Exact maximum (-inf when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Relaxed))
    }

    /// Estimates the `q`-quantile (`0 <= q <= 1`) as the geometric
    /// midpoint of the bucket holding the order statistic at rank
    /// `floor(q * (count - 1))`, clamped to the exact observed range.
    /// Relative error is bounded by one bucket width (`2^(1/SUB_BUCKETS)`).
    /// NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).floor() as u64;
        // The extreme ranks are tracked exactly; skip bucket estimation.
        if rank == 0 {
            return self.min();
        }
        if rank == n - 1 {
            return self.max();
        }
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if cum > rank {
                let raw = match i {
                    0 => self.min(),
                    i if i == RANGE + 1 => self.max(),
                    i => bucket_mid(i),
                };
                return raw.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// The p50/p95/p99 triple every latency report wants, in one
    /// snapshot — so a serving layer can export decision-latency
    /// percentiles programmatically instead of re-parsing the metrics
    /// file. Each value carries [`quantile`](Histogram::quantile)'s
    /// one-bucket-width error bound; all NaN when empty.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum_bits.store(0f64.to_bits(), Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Relaxed);
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

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
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

/// Finds or creates the counter `name`. Panics if the name is already
/// registered as a different metric type.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock_registry();
    for (n, m) in reg.iter() {
        if *n == name {
            match m {
                Metric::Counter(c) => return c,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        name,
        value: AtomicU64::new(0),
        gen: AtomicU64::new(current_gen()),
    }));
    reg.push((name, Metric::Counter(c)));
    c
}

/// Finds or creates the gauge `name` (see [`counter`] for the contract).
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = lock_registry();
    for (n, m) in reg.iter() {
        if *n == name {
            match m {
                Metric::Gauge(g) => return g,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge {
        name,
        bits: AtomicU64::new(f64::NAN.to_bits()),
        high_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        set_count: AtomicU64::new(0),
        gen: AtomicU64::new(current_gen()),
    }));
    reg.push((name, Metric::Gauge(g)));
    g
}

/// Finds or creates the histogram `name` (see [`counter`] for the
/// contract).
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = lock_registry();
    for (n, m) in reg.iter() {
        if *n == name {
            match m {
                Metric::Histogram(h) => return h,
                _ => panic!("metric `{name}` already registered with a different type"),
            }
        }
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new(name)));
    reg.push((name, Metric::Histogram(h)));
    h
}

/// Zeroes every registered metric (registrations persist — handles cached
/// in `OnceLock`s stay valid and the metrics stay visible in the exported
/// snapshot).
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

/// A `static`-declarable counter handle: registration happens on the
/// first *enabled* use; disabled use is one relaxed load and a branch.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declares a handle (usually in a `static`).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered counter (registering it if needed).
    pub fn force(&self) -> &'static Counter {
        self.cell.get_or_init(|| counter(self.name))
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

/// A `static`-declarable gauge handle (see [`LazyCounter`]).
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// Declares a handle (usually in a `static`).
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered gauge (registering it if needed).
    pub fn force(&self) -> &'static Gauge {
        self.cell.get_or_init(|| gauge(self.name))
    }

    /// Sets the gauge when the subscriber is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.force().set(v);
        }
    }
}

/// A `static`-declarable histogram handle (see [`LazyCounter`]).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// Declares a handle (usually in a `static`).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The registered histogram (registering it if needed).
    pub fn force(&self) -> &'static Histogram {
        self.cell.get_or_init(|| histogram(self.name))
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
        let h = Histogram::new("t.exact");
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
        let h = Histogram::new("t.empty");
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn percentiles_match_a_sorted_vec_oracle() {
        // Seeded LCG stream spanning several octaves, checked against the
        // exact order statistics of the sorted sample. The contract is the
        // documented one-bucket-width relative error (2^(1/SUB_BUCKETS)).
        let h = Histogram::new("t.pctl.oracle");
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
        let e = Histogram::new("t.pctl.empty");
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
    }
}
