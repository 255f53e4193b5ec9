//! Bounded-memory bookkeeping for the streaming KV caches.
//!
//! The streaming engine caches one K/V row per layer per arrival. In the
//! paper's one-pass setting the stream never ends, so an append-only cache
//! is a slow memory leak: O(t·d) per layer. But the dynamic mask makes
//! most of that history *dead* — once no live key's correlation window can
//! reach a row (see [`crate::mask::MaskBuilder::live_horizon`]), nothing
//! will ever attend it again.
//!
//! [`CacheWindow`] turns that observation into a compacting ring over the
//! per-layer cache tensors: it tracks the global position of physical row
//! 0 (`base`), accepts monotone horizon advances, and decides — with
//! hysteresis, so per-arrival cost stays amortized O(1) — when the dead
//! prefix is worth one `memmove` to reclaim. Global attention positions
//! translate to physical rows by subtracting `base`; row *contents* are
//! untouched, which is why windowed attention is bit-identical to the
//! unbounded cache (`kvec_nn::AttentionBlock::attend_row_window`).

/// Minimum dead-prefix length worth a compaction memmove. Small drains
/// would churn without reclaiming meaningful memory.
const MIN_COMPACT_ROWS: usize = 64;

/// Position bookkeeping for a prefix-evicting KV cache.
///
/// Invariants: `base <= horizon <= len` where `len` is the number of rows
/// ever appended (the mask builder's arrival count). Physical rows resident
/// = `len - base`; rows `base..horizon` are dead but not yet compacted;
/// rows before `base` are gone.
#[derive(Debug, Clone, Default)]
pub struct CacheWindow {
    base: usize,
    horizon: usize,
}

impl CacheWindow {
    /// A window over an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Global position of physical row 0.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Total rows evicted so far.
    #[inline]
    pub fn evicted(&self) -> usize {
        self.base
    }

    /// Physical rows resident for a cache that has seen `len` appends.
    #[inline]
    pub fn resident(&self, len: usize) -> usize {
        debug_assert!(len >= self.base);
        len - self.base
    }

    /// Records a new dead/live boundary (from
    /// [`crate::mask::MaskBuilder::live_horizon`]). The horizon is clamped
    /// monotone: a stale smaller value is ignored, so callers may report
    /// boundaries in any order.
    pub fn advance(&mut self, horizon: usize) {
        self.horizon = self.horizon.max(horizon);
    }

    /// Rows currently dead but not yet compacted.
    #[inline]
    pub fn pending(&self) -> usize {
        self.horizon - self.base
    }

    /// Decides whether to compact now, given `len` total appends, and if
    /// so returns the number of front rows to drop (updating `base`).
    ///
    /// Hysteresis: compaction fires only when the dead prefix is at least
    /// `MIN_COMPACT_ROWS` (64) *and* at least as long as the surviving
    /// suffix. Each compaction memmoves `live <= dead` rows and frees
    /// `dead` rows, so the move cost charges to rows that die exactly
    /// once — amortized O(1) per appended row, never O(t²).
    #[must_use]
    pub fn take_compaction(&mut self, len: usize) -> usize {
        debug_assert!(self.horizon <= len, "horizon {} > len {len}", self.horizon);
        let dead = self.horizon - self.base;
        let live = len - self.horizon;
        if dead >= MIN_COMPACT_ROWS && dead >= live {
            self.base = self.horizon;
            dead
        } else {
            0
        }
    }

    /// Unconditionally compacts everything dead (stream end): returns the
    /// rows to drop and advances `base` to the horizon.
    #[must_use]
    pub fn flush(&mut self, len: usize) -> usize {
        self.advance(len);
        let dead = self.horizon - self.base;
        self.base = self.horizon;
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_window_is_identity() {
        let w = CacheWindow::new();
        assert_eq!(w.base(), 0);
        assert_eq!(w.evicted(), 0);
        assert_eq!(w.resident(5), 5);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn advance_is_monotone() {
        let mut w = CacheWindow::new();
        w.advance(10);
        w.advance(4); // stale report, ignored
        assert_eq!(w.pending(), 10);
        w.advance(12);
        assert_eq!(w.pending(), 12);
    }

    #[test]
    fn compaction_waits_for_hysteresis() {
        let mut w = CacheWindow::new();
        w.advance(MIN_COMPACT_ROWS - 1);
        assert_eq!(w.take_compaction(MIN_COMPACT_ROWS - 1), 0, "below minimum");
        w.advance(MIN_COMPACT_ROWS);
        // Dead = 64 but live suffix is bigger -> wait.
        assert_eq!(w.take_compaction(3 * MIN_COMPACT_ROWS), 0);
        // Dead >= live -> fire, dropping the whole dead prefix.
        assert_eq!(w.take_compaction(2 * MIN_COMPACT_ROWS), MIN_COMPACT_ROWS);
        assert_eq!(w.base(), MIN_COMPACT_ROWS);
        assert_eq!(w.pending(), 0);
        assert_eq!(w.resident(2 * MIN_COMPACT_ROWS), MIN_COMPACT_ROWS);
    }

    #[test]
    fn resident_rows_stay_bounded_by_live_span() {
        // Simulated stream: horizon trails the head by a fixed live window
        // of 100 rows. Residency must never exceed ~2x the window + slack.
        let mut w = CacheWindow::new();
        let window = 100usize;
        let mut max_resident = 0usize;
        for t in 1..=10_000usize {
            w.advance(t.saturating_sub(window));
            let _ = w.take_compaction(t);
            max_resident = max_resident.max(w.resident(t));
        }
        assert!(
            max_resident <= 2 * window + MIN_COMPACT_ROWS,
            "resident high-water {max_resident} exceeds the amortization bound"
        );
        assert!(w.evicted() > 9_000, "eviction must keep up with the stream");
    }

    #[test]
    fn flush_reclaims_everything() {
        let mut w = CacheWindow::new();
        w.advance(30);
        assert_eq!(w.flush(45), 45, "flush treats the whole prefix as dead");
        assert_eq!(w.base(), 45);
        assert_eq!(w.resident(45), 0);
        assert_eq!(w.flush(45), 0, "idempotent");
    }
}
