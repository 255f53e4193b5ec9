//! The sliding windows of the instruments in [`crate::metrics`], over a
//! logical tick clock, plus declarative SLO evaluation.
//!
//! A counter or histogram declared with a window width keeps two views of
//! one quantity: the whole-run total every instrument has ("what happened
//! over the run") and a ring of [`SLOTS`] fixed-width windows ("what is
//! happening *now*" — shed rate over the last window, windowed latency
//! percentiles), so a drifting run is visible while it is still in
//! flight. The windows are keyed by a global logical tick clock
//! ([`tick`]/[`advance`], advanced by the serving workers once per
//! processed message): recording hits the slot of the current window with
//! plain relaxed atomics, and a slot is recycled in place when its window
//! id comes around again. An instrument declared without a width is the
//! one-window case: its whole run is the only window it keeps.
//!
//! # Concurrency contract
//!
//! Within one window, recording is a lock-free `fetch_add` — concurrent
//! recorders never lose counts (mirrored by the loss-free test in the
//! obs suite). Rotation (first record of a new window) briefly parks the
//! slot behind a sentinel id while it is zeroed; recorders for the same
//! new window spin for the handful of stores that takes, and a straggler
//! still holding a tick from ≥ [`SLOTS`] windows ago drops its sample
//! rather than resurrect a recycled slot. Readers racing a rotation can
//! observe a freshly zeroed window — the same point-in-time blur every
//! sampled telemetry system has, and why exact accounting lives in
//! `ServeStats`, not here.

use crate::metrics::{self, Counter, Histogram};
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// Windows retained per instrument: the ring recycles a slot after
/// `SLOTS` windows, so reads older than that return empty.
pub const SLOTS: usize = 8;

/// Slot id holding this value is mid-rotation; recorders spin.
const LOCKED: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// The logical tick clock
// ---------------------------------------------------------------------------

static TICKS: AtomicU64 = AtomicU64::new(0);

/// Current logical tick (monotone except across [`crate::reset`]).
#[inline]
pub fn tick() -> u64 {
    TICKS.load(Relaxed)
}

/// Advances the logical clock by `n` ticks, returning the new value. The
/// serving workers call this once per processed message, which makes
/// window boundaries a function of work done rather than wall time —
/// deterministic under test, load-proportional in production.
#[inline]
pub fn advance(n: u64) -> u64 {
    TICKS.fetch_add(n, Relaxed) + n
}

/// Rewinds the tick clock to zero (called by [`crate::reset`]).
pub(crate) fn rewind() {
    TICKS.store(0, Relaxed);
}

// ---------------------------------------------------------------------------
// The window ring
// ---------------------------------------------------------------------------

/// What a window slot holds: zeroed in place when the slot rotates.
pub(crate) trait SlotBody {
    fn clear(&self);
}

impl SlotBody for AtomicU64 {
    fn clear(&self) {
        self.store(0, Relaxed);
    }
}

#[derive(Debug)]
struct Slot<T> {
    /// Window id + 1 (0 = empty, [`LOCKED`] = mid-rotation).
    id: AtomicU64,
    body: T,
}

/// [`SLOTS`] fixed-width tick windows of one instrument; none at width 0
/// (the instrument keeps its whole run only).
#[derive(Debug)]
pub(crate) struct Ring<T> {
    width: u64,
    slots: Box<[Slot<T>]>,
}

impl<T: SlotBody> Ring<T> {
    pub(crate) fn new(width: u64, body: impl Fn() -> T) -> Ring<T> {
        let n = if width == 0 { 0 } else { SLOTS };
        Ring {
            width,
            slots: (0..n)
                .map(|_| Slot {
                    id: AtomicU64::new(0),
                    body: body(),
                })
                .collect(),
        }
    }

    pub(crate) fn width(&self) -> u64 {
        self.width
    }

    /// The window id the clock is currently in (0 at width 0).
    pub(crate) fn current(&self) -> u64 {
        tick().checked_div(self.width).unwrap_or(0)
    }

    /// The current window's body, rotating its slot in if the slot still
    /// holds an older window. `None` when the slot has already advanced
    /// past this window (a straggling recorder from ≥ SLOTS windows ago).
    pub(crate) fn claim(&self) -> Option<&T> {
        if self.slots.is_empty() {
            return None;
        }
        let wid = self.current();
        let slot = &self.slots[(wid % SLOTS as u64) as usize];
        let tag = wid + 1;
        loop {
            let cur = slot.id.load(Acquire);
            if cur == tag {
                return Some(&slot.body);
            }
            if cur == LOCKED {
                std::hint::spin_loop();
                continue;
            }
            if cur != 0 && cur - 1 > wid {
                return None;
            }
            if slot
                .id
                .compare_exchange(cur, LOCKED, Acquire, Relaxed)
                .is_ok()
            {
                slot.body.clear();
                slot.id.store(tag, Release);
                return Some(&slot.body);
            }
        }
    }

    /// Window `wid`'s body (`None` if empty, recycled or unwindowed).
    pub(crate) fn get(&self, wid: u64) -> Option<&T> {
        let slot = self.slots.get((wid % SLOTS as u64) as usize)?;
        (slot.id.load(Acquire) == wid + 1).then_some(&slot.body)
    }

    pub(crate) fn reset(&self) {
        for s in self.slots.iter() {
            s.body.clear();
            s.id.store(0, Relaxed);
        }
    }
}

/// Finds or creates the counter `name` with `width`-tick windows. Panics
/// if `name` is registered as another type or with another width.
pub fn windowed_counter(name: &'static str, width: u64) -> &'static Counter {
    metrics::register(name, Some(width))
}

/// Finds or creates the histogram `name` with `width`-tick windows (see
/// [`windowed_counter`] for the contract).
pub fn windowed_histogram(name: &'static str, width: u64) -> &'static Histogram {
    metrics::register(name, Some(width))
}

// ---------------------------------------------------------------------------
// SLO specs
// ---------------------------------------------------------------------------

/// A declarative service-level objective evaluated once per completed
/// window. Every budget is optional; unset budgets are never evaluated.
/// Pure data — the serving layer feeds it a [`SloInput`] per window and
/// emits a warn-level `slo.burn` event per returned [`SloBurn`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloSpec {
    /// Name carried on burn events (identifies the objective).
    pub name: &'static str,
    /// Budget for the windowed p99 decision latency, in microseconds.
    pub p99_latency_us: Option<f64>,
    /// Maximum tolerated shed fraction (sheds / submissions) per window.
    pub max_shed_fraction: Option<f64>,
    /// Maximum tolerated deadline-forced fraction (forced halts /
    /// decisions) per window.
    pub max_forced_halt_fraction: Option<f64>,
}

/// One window's observed values, the input to [`SloSpec::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloInput {
    /// The completed window id.
    pub window: u64,
    /// Submissions in the window.
    pub submitted: u64,
    /// Sheds in the window.
    pub shed: u64,
    /// Decisions in the window.
    pub decisions: u64,
    /// Deadline-forced halts in the window.
    pub forced_halts: u64,
    /// Windowed p99 decision latency (NaN when no decisions landed).
    pub p99_latency_us: f64,
}

/// One violated budget: which one, the limit, and what was observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloBurn {
    /// Budget identifier (`p99_latency_us` / `shed_fraction` /
    /// `forced_halt_fraction`).
    pub budget: &'static str,
    /// The configured limit.
    pub limit: f64,
    /// The observed value that exceeded it.
    pub observed: f64,
}

impl SloSpec {
    /// Evaluates every configured budget against one window's
    /// observation. Budgets whose denominator is empty this window
    /// (no submissions, no decisions) are vacuously met.
    pub fn evaluate(&self, w: &SloInput) -> Vec<SloBurn> {
        let mut burns = Vec::new();
        if let Some(limit) = self.p99_latency_us {
            if w.p99_latency_us.is_finite() && w.p99_latency_us > limit {
                burns.push(SloBurn {
                    budget: "p99_latency_us",
                    limit,
                    observed: w.p99_latency_us,
                });
            }
        }
        if let Some(limit) = self.max_shed_fraction {
            if w.submitted > 0 {
                let observed = w.shed as f64 / w.submitted as f64;
                if observed > limit {
                    burns.push(SloBurn {
                        budget: "shed_fraction",
                        limit,
                        observed,
                    });
                }
            }
        }
        if let Some(limit) = self.max_forced_halt_fraction {
            if w.decisions > 0 {
                let observed = w.forced_halts as f64 / w.decisions as f64;
                if observed > limit {
                    burns.push(SloBurn {
                        budget: "forced_halt_fraction",
                        limit,
                        observed,
                    });
                }
            }
        }
        burns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_budgets_fire_independently() {
        let spec = SloSpec {
            name: "serve",
            p99_latency_us: Some(1000.0),
            max_shed_fraction: Some(0.25),
            max_forced_halt_fraction: Some(0.5),
        };
        let healthy = SloInput {
            window: 3,
            submitted: 100,
            shed: 10,
            decisions: 20,
            forced_halts: 5,
            p99_latency_us: 900.0,
        };
        assert!(spec.evaluate(&healthy).is_empty());

        let burning = SloInput {
            shed: 60,
            p99_latency_us: 5000.0,
            ..healthy
        };
        let burns = spec.evaluate(&burning);
        assert_eq!(burns.len(), 2);
        assert_eq!(burns[0].budget, "p99_latency_us");
        assert_eq!(burns[1].budget, "shed_fraction");
        assert_eq!(burns[1].observed, 0.6);
    }

    #[test]
    fn slo_empty_denominators_are_vacuously_met() {
        let spec = SloSpec {
            name: "serve",
            p99_latency_us: Some(1.0),
            max_shed_fraction: Some(0.0),
            max_forced_halt_fraction: Some(0.0),
        };
        let idle = SloInput {
            window: 0,
            submitted: 0,
            shed: 0,
            decisions: 0,
            forced_halts: 0,
            p99_latency_us: f64::NAN,
        };
        assert!(spec.evaluate(&idle).is_empty());
    }

    #[test]
    fn unconfigured_spec_never_burns() {
        let spec = SloSpec::default();
        let w = SloInput {
            window: 1,
            submitted: 10,
            shed: 10,
            decisions: 10,
            forced_halts: 10,
            p99_latency_us: 1e9,
        };
        assert!(spec.evaluate(&w).is_empty());
    }

    #[test]
    fn quantile_of_empty_is_nan() {
        let h = windowed_histogram("t.w.empty", 10);
        let (n, p) = h.merged_percentiles(&[h.current_window()]);
        assert_eq!(n, 0);
        assert!(p.p50.is_nan() && p.p95.is_nan() && p.p99.is_nan());
        assert!(h.quantile(0.5).is_nan());
    }
}
