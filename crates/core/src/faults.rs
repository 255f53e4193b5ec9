//! Deterministic fault injection for the training runtime.
//!
//! Everything here exists to *test* the fault-tolerance machinery — the
//! divergence watchdog, checkpoint rollback and crash/resume paths — under
//! reproducible, seeded faults (`tests/fault_tolerance.rs` drives it
//! end-to-end). Nothing in this module runs unless an injector is
//! explicitly attached to a trainer or a helper is called on a file.
//!
//! Three fault families:
//!
//! - **kill-at-step-N** — the trainer returns `TrainError::Killed` just
//!   before applying optimizer step `N`, simulating a hard crash at an
//!   arbitrary point of an epoch;
//! - **gradient poisoning** — accumulated gradients are overwritten with
//!   NaN at chosen steps, the failure mode REINFORCE training actually
//!   exhibits;
//! - **checkpoint corruption** — byte flips and truncation applied to a
//!   checkpoint file on disk, which the container checksum must detect.

use kvec_nn::ParamStore;
use kvec_tensor::KvecRng;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// A seeded injector of training-time faults. Attach to a trainer with
/// `Trainer::set_fault_injector`; steps are counted as optimizer-step
/// attempts (one per scenario).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    kill_at_step: Option<u64>,
    poison_steps: BTreeSet<u64>,
    rng: KvecRng,
}

impl FaultInjector {
    /// Creates an injector with no faults armed; the seed drives the
    /// choice of poisoned entries.
    pub fn new(seed: u64) -> Self {
        Self {
            kill_at_step: None,
            poison_steps: BTreeSet::new(),
            rng: KvecRng::seed_from_u64(seed),
        }
    }

    /// Arms a simulated crash immediately before optimizer step `n` is
    /// applied (0-based: `kill_at_step(0)` dies before any update).
    pub fn kill_at_step(mut self, n: u64) -> Self {
        self.kill_at_step = Some(n);
        self
    }

    /// Arms NaN gradient poisoning at exactly the given steps.
    pub fn poison_grads_at(mut self, steps: impl IntoIterator<Item = u64>) -> Self {
        self.poison_steps.extend(steps);
        self
    }

    /// Whether the armed crash fires at `step`.
    pub fn should_kill(&self, step: u64) -> bool {
        self.kill_at_step == Some(step)
    }

    /// Applies gradient poisoning for `step` if armed: one seeded-random
    /// gradient entry of each of three seeded-random parameters (repeats
    /// allowed, either group) is set to NaN. Returns whether poisoning
    /// happened.
    pub fn poison(&mut self, store: &mut ParamStore, step: u64) -> bool {
        if !self.poison_steps.contains(&step) {
            return false;
        }
        // Poison one random entry of a few random parameters — enough to
        // make any finiteness check that misses a tensor flaky-free while
        // staying cheap.
        let ids = store.ids();
        for _ in 0..3 {
            let id = ids[self.rng.below(ids.len())];
            let g = store.grad(id).clone();
            let mut poisoned = g;
            let n = poisoned.len();
            if n == 0 {
                continue;
            }
            poisoned.data_mut()[self.rng.below(n)] = f32::NAN;
            // Overwrite by accumulate: NaN + anything = NaN.
            store.scale_grad(id, 0.0);
            store.accumulate_grad(id, &poisoned);
        }
        true
    }
}

/// A deterministic fault plan for the *serving* path (`kvec-serve`), the
/// fourth fault family: where [`FaultInjector`] attacks the training
/// loop, `ServeChaos` attacks the sharded streaming service. The plan is
/// pure data — the service interprets it at precisely defined points of
/// each shard worker's arrival loop, so a given plan reproduces the same
/// fault schedule on every run:
///
/// - **worker kill** — the shard worker dies *between* arrivals (after
///   completing local arrival `n-1`, before dequeuing arrival `n`),
///   exercising supervisor respawn + journal replay with no item in
///   flight;
/// - **poison arrival** — processing local arrival `n` panics mid-feed,
///   exercising quarantine (the arrival is written to a replayable JSONL
///   file and excluded from replay);
/// - **queue stall** — the worker sleeps before processing local arrival
///   `n`, backing up its bounded queue so admission shedding and
///   overload deadlines fire;
/// - **deadline skew** — the shard's logical deadline clock is offset by
///   a constant, modeling a skewed clock forcing decisions earlier or
///   later than budgeted.
///
/// Arrival indices are 0-based and *local to the shard* (its processed
/// count), which keeps them stable under respawn: a replayed journal
/// restores the counter, so a fired fault does not re-fire.
#[derive(Debug, Clone, Default)]
pub struct ServeChaos {
    kills: BTreeSet<(usize, u64)>,
    poisons: BTreeSet<(usize, u64)>,
    stalls: std::collections::BTreeMap<(usize, u64), u64>,
    skews: std::collections::BTreeMap<usize, i64>,
}

impl ServeChaos {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a worker kill on `shard` immediately before it dequeues its
    /// local arrival `n`.
    pub fn kill_worker_at(mut self, shard: usize, n: u64) -> Self {
        self.kills.insert((shard, n));
        self
    }

    /// Arms a mid-feed panic while `shard` processes its local arrival
    /// `n` (the arrival is quarantined, not replayed).
    pub fn poison_at(mut self, shard: usize, n: u64) -> Self {
        self.poisons.insert((shard, n));
        self
    }

    /// Arms a consumption stall: `shard` sleeps `millis` before
    /// processing its local arrival `n`.
    pub fn stall_at(mut self, shard: usize, n: u64, millis: u64) -> Self {
        self.stalls.insert((shard, n), millis);
        self
    }

    /// Skews `shard`'s logical deadline clock by `ticks` (positive =
    /// clock runs ahead, deadlines fire earlier).
    pub fn skew_deadline(mut self, shard: usize, ticks: i64) -> Self {
        self.skews.insert(shard, ticks);
        self
    }

    /// Whether a kill is armed for (`shard`, local arrival `n`).
    pub fn kill_fires(&self, shard: usize, n: u64) -> bool {
        self.kills.contains(&(shard, n))
    }

    /// Whether a poison panic is armed for (`shard`, local arrival `n`).
    pub fn poison_fires(&self, shard: usize, n: u64) -> bool {
        self.poisons.contains(&(shard, n))
    }

    /// The stall duration armed for (`shard`, local arrival `n`), if any.
    pub fn stall_millis(&self, shard: usize, n: u64) -> Option<u64> {
        self.stalls.get(&(shard, n)).copied()
    }

    /// The deadline-clock skew for `shard` (0 when unskewed).
    pub fn deadline_skew(&self, shard: usize) -> i64 {
        self.skews.get(&shard).copied().unwrap_or(0)
    }

    /// Whether the plan contains any fault at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
            && self.poisons.is_empty()
            && self.stalls.is_empty()
            && self.skews.is_empty()
    }
}

/// XORs the byte at `offset` with `mask` (mask must be non-zero so the
/// byte actually changes). For checkpoint-corruption tests.
pub fn flip_byte(path: impl AsRef<Path>, offset: usize, mask: u8) -> io::Result<()> {
    assert!(mask != 0, "mask 0 would leave the byte unchanged");
    let mut bytes = std::fs::read(&path)?;
    if offset >= bytes.len() {
        return Err(io::Error::other(format!(
            "offset {offset} out of range for {}-byte file",
            bytes.len()
        )));
    }
    bytes[offset] ^= mask;
    std::fs::write(&path, bytes)
}

/// Flips one seeded-random byte of the file with a seeded-random non-zero
/// mask; returns the offset chosen.
pub fn flip_random_byte(path: impl AsRef<Path>, rng: &mut KvecRng) -> io::Result<usize> {
    let len = std::fs::metadata(&path)?.len() as usize;
    if len == 0 {
        return Err(io::Error::other("cannot flip a byte of an empty file"));
    }
    let offset = rng.below(len);
    let mask = rng.range(1, 256) as u8;
    flip_byte(path, offset, mask)?;
    Ok(offset)
}

/// Truncates the file to its first `keep` bytes (a torn write).
pub fn truncate_file(path: impl AsRef<Path>, keep: usize) -> io::Result<()> {
    let bytes = std::fs::read(&path)?;
    let keep = keep.min(bytes.len());
    std::fs::write(&path, &bytes[..keep])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvec_tensor::Tensor;

    #[test]
    fn poison_hits_exactly_the_armed_steps() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros(2, 2));
        let mut inj = FaultInjector::new(1).poison_grads_at([3, 5]);
        for step in 0..8u64 {
            store.zero_grads();
            store.accumulate_grad(id, &Tensor::ones(2, 2));
            let hit = inj.poison(&mut store, step);
            assert_eq!(hit, step == 3 || step == 5, "step {step}");
            assert_eq!(store.grad(id).has_non_finite(), hit, "step {step}");
        }
    }

    #[test]
    fn kill_fires_once_at_the_armed_step() {
        let inj = FaultInjector::new(2).kill_at_step(4);
        let kills: Vec<u64> = (0..10).filter(|&s| inj.should_kill(s)).collect();
        assert_eq!(kills, vec![4]);
    }

    #[test]
    fn serve_chaos_plan_fires_exactly_where_armed() {
        let plan = ServeChaos::new()
            .kill_worker_at(0, 5)
            .poison_at(1, 3)
            .stall_at(2, 7, 40)
            .skew_deadline(1, -4);
        assert!(!plan.is_empty());
        assert!(plan.kill_fires(0, 5));
        assert!(!plan.kill_fires(0, 4) && !plan.kill_fires(1, 5));
        assert!(plan.poison_fires(1, 3));
        assert!(!plan.poison_fires(0, 3));
        assert_eq!(plan.stall_millis(2, 7), Some(40));
        assert_eq!(plan.stall_millis(2, 6), None);
        assert_eq!(plan.deadline_skew(1), -4);
        assert_eq!(plan.deadline_skew(0), 0);
        assert!(ServeChaos::new().is_empty());
    }

    #[test]
    fn file_helpers_change_and_truncate() {
        let dir = std::env::temp_dir().join("kvec-core-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, b"abcdef").unwrap();

        flip_byte(&path, 2, 0xFF).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_ne!(bytes, b"abcdef");
        assert_eq!(bytes.len(), 6);

        let mut rng = KvecRng::seed_from_u64(3);
        let off = flip_random_byte(&path, &mut rng).unwrap();
        assert!(off < 6);

        truncate_file(&path, 2).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }
}
