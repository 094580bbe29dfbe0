//! Counting global allocator for the allocation-regression harness
//! (`--features alloc-stats`).
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation, deallocation, and live byte. Test and bench binaries
//! install it:
//!
//! ```ignore
//! use pcd_util::alloc_stats::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//! ```
//!
//! then bracket a region with [`snapshot`] and diff the counters. The
//! zero-allocation level-loop test asserts that steady-state levels of the
//! driver (after the level-1 warm-up sizes every arena) perform **zero**
//! heap allocations in score, match, and contract.
//!
//! Counters are process-global and relaxed-atomic: cross-thread counts are
//! exact in total, but a snapshot taken while other threads allocate is
//! only approximately ordered. The regression test runs single-threaded.

use crate::sync::{AtomicU64, RELAXED};
use std::alloc::{GlobalAlloc, Layout, System};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn record_alloc(size: usize) {
    // ORDERING: RELAXED — statistics counters on the global-allocator
    // path: atomicity only, no synchronization rides on them, and any
    // stronger ordering would tax every allocation in the process.
    ALLOCATIONS.fetch_add(1, RELAXED);
    BYTES_ALLOCATED.fetch_add(size as u64, RELAXED);
    let live = LIVE_BYTES.fetch_add(size as u64, RELAXED) + size as u64;
    // Racy max is fine: the peak only ever under-reports by a transient
    // window, and the regression test is single-threaded.
    PEAK_LIVE_BYTES.fetch_max(live, RELAXED);
}

fn record_dealloc(size: usize) {
    // ORDERING: RELAXED — same statistics-counter argument as
    // record_alloc above.
    DEALLOCATIONS.fetch_add(1, RELAXED);
    LIVE_BYTES.fetch_sub(size as u64, RELAXED);
}

/// A [`GlobalAlloc`] that forwards to [`System`] and counts traffic.
/// Zero-sized; install as the binary's `#[global_allocator]`.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // One traffic event: retire the old block, charge the new.
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// A point-in-time reading of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocation events since process start (reallocs count once).
    pub allocations: u64,
    /// Deallocation events since process start.
    pub deallocations: u64,
    /// Total bytes ever requested.
    pub bytes_allocated: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_live_bytes: u64,
}

/// Reads the counters. All zeros unless the running binary installed
/// [`CountingAlloc`] as its global allocator.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        // ORDERING: RELAXED — the snapshot is advisory; fields are read
        // independently and callers quiesce the system (or accept a
        // transient view) before comparing snapshots.
        allocations: ALLOCATIONS.load(RELAXED),
        deallocations: DEALLOCATIONS.load(RELAXED),
        bytes_allocated: BYTES_ALLOCATED.load(RELAXED),
        live_bytes: LIVE_BYTES.load(RELAXED),
        peak_live_bytes: PEAK_LIVE_BYTES.load(RELAXED),
    }
}

impl AllocSnapshot {
    /// Allocation events between `earlier` and `self`.
    pub fn allocations_since(&self, earlier: &AllocSnapshot) -> u64 {
        self.allocations - earlier.allocations
    }

    /// Bytes requested between `earlier` and `self`.
    pub fn bytes_since(&self, earlier: &AllocSnapshot) -> u64 {
        self.bytes_allocated - earlier.bytes_allocated
    }
}
