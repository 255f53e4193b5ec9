//! A counting global allocator for the ledger's exact allocation counts.
//!
//! Counting is gated by one relaxed flag that only `counting` sets, so an
//! end-to-end run pays a load and a branch per allocation and nothing
//! else. The ledger takes counts and times in separate passes: two
//! threads bumping the shared counters would distort a timed pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that no
// memory access depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's contract for `alloc_zeroed` is
        // `System::alloc_zeroed`'s; forwarding keeps its calloc path.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            FREED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout` (all
        // allocations of this type are forwarded there).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
            FREED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: same block, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the process allocated while a [`counting`] scope was open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` or `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes requested minus bytes released: what the scope left live.
    pub live_growth: i64,
}

/// Runs `f` with counting on (all threads) and returns what was counted.
/// Scopes must not nest or overlap.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = (
        ALLOCS.load(Relaxed),
        ALLOC_BYTES.load(Relaxed),
        FREED_BYTES.load(Relaxed),
    );
    assert!(!ON.swap(true, Relaxed), "counting scopes must not overlap");
    let out = f();
    ON.store(false, Relaxed);
    let allocs = ALLOCS.load(Relaxed) - before.0;
    let bytes = ALLOC_BYTES.load(Relaxed) - before.1;
    let freed = FREED_BYTES.load(Relaxed) - before.2;
    (
        out,
        Counts {
            allocs,
            bytes,
            live_growth: bytes as i64 - freed as i64,
        },
    )
}
