//! The audited synchronisation layer — **every** atomic in the workspace
//! routes through this module.
//!
//! The paper's kernels stay correct under arbitrary interleavings via
//! full/empty bits (Cray XMT) or locks (OpenMP). This port replaces both
//! with lock-free atomics, which concentrates all memory-ordering
//! reasoning in one reviewable place: here. Kernels import atomic types
//! and ordering constants from `pcd_util::sync` and never name
//! `std::sync::atomic` or an `Ordering::` variant directly — `cargo xtask
//! lint` fails the build otherwise (see `xtask/src/main.rs` for the
//! allowlist).
//!
//! # Ordering discipline
//!
//! The workspace uses exactly three synchronisation patterns; each maps to
//! one documented ordering constant below.
//!
//! 1. **Fork-join accumulation** ([`RELAXED`]): commutative RMWs
//!    (`fetch_add`) or disjoint/idempotent stores inside a
//!    [`crate::par`] region, read only after the region ends. The
//!    region's thread joins are the happens-before edge; the atomics only
//!    need atomicity.
//! 2. **CAS publish/observe** (`ACQ_REL` / [`ACQUIRE`]): a register
//!    whose winning value is *read by other threads in the same parallel
//!    region* (the matcher's best-proposal registers). The successful RMW
//!    is `AcqRel`; the racing readers load with `Acquire`.
//! 3. **Optimistic scan** ([`RELAXED`]): the initial load and the failure
//!    ordering of a CAS loop. A stale value only costs a retry; the
//!    success ordering of the CAS provides the synchronisation. The
//!    component union-find's link is the one CAS whose success ordering
//!    is [`RELAXED`] too: its cells hold parent pointers and nothing else,
//!    so there is no other data to publish.
//!
//! `Release`-only stores and `SeqCst` are deliberately absent: no kernel
//! needs a store-release without an RMW, and nothing relies on a single
//! total order of unrelated atomics. Add a constant (with a use-case doc)
//! before reaching for either.
//!
//! # Model checking and dynamic analysis
//!
//! * **loom** — building with `RUSTFLAGS="--cfg loom"` swaps every type
//!   below for its [`loom`](https://docs.rs/loom) double. The exhaustive
//!   2–3-thread models live in `tools/loom` (a standalone crate, excluded
//!   from the workspace so the `loom` dependency never enters the main
//!   build graph): `cd tools/loom && RUSTFLAGS="--cfg loom" cargo test
//!   --release`.
//! * **Miri** — `cargo +nightly miri test -p pcd-util --lib` covers the
//!   `as_atomic_*` reinterprets; `cargo +nightly miri test --test
//!   miri_smoke` runs a tiny end-to-end detection.
//! * **ThreadSanitizer** — `RUSTFLAGS="-Zsanitizer=thread" cargo +nightly
//!   test -Zbuild-std --target x86_64-unknown-linux-gnu -p pcd-util
//!   -p pcd-matching -p pcd-contract`.
//!
//! All three run in CI (`.github/workflows/ci.yml`); DESIGN.md §9 has the
//! full discipline write-up.

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// `Ordering::Relaxed` — atomicity without inter-thread ordering.
///
/// Legitimate uses (patterns 1 and 3 in the module docs):
/// * commutative RMWs (`fetch_add` histograms/counters) whose results are
///   read only after the enclosing parallel region joins;
/// * the component union-find's parent pointers: a CAS links a root under
///   a smaller id, and loads and path-halving stores read and write other
///   pointers to ancestors. A pointer carries no other data, and any value
///   a cell ever holds points at an ancestor of its vertex;
/// * stores to disjoint indices claimed via a `fetch_add` cursor, read
///   after the join;
/// * idempotent racing stores where every writer writes the same value
///   (the matcher's mate stores);
/// * the optimistic initial load and the failure ordering of a CAS loop.
///
/// Never use it to *publish* data another thread reads before the join.
pub const RELAXED: Ordering = Ordering::Relaxed;

/// `Ordering::Acquire` — observe a register published by an `ACQ_REL`
/// RMW *within the same parallel region* (pattern 2). The matcher's
/// resolve pass loads best-proposal registers with this so that a register
/// value implies the proposing thread's prior writes are visible.
pub const ACQUIRE: Ordering = Ordering::Acquire;

/// `Ordering::AcqRel` — a read-modify-write that both observes the
/// current winner and publishes a new one (pattern 2): the matcher's
/// CAS-max proposal loops. Failure orderings stay [`RELAXED`]; a failed
/// CAS publishes nothing.
const ACQ_REL: Ordering = Ordering::AcqRel;

/// CAS loop that installs `new` for as long as `improves(current)` holds;
/// returns `true` if `new` was installed, `false` once the current value
/// stops being improvable. This is the matchers' proposal registers'
/// retry loop; the only other one is the component union-find's link
/// (`pcd_graph::components`), whose CAS carries no payload but the
/// pointer itself.
///
/// `improves` must describe a *stable* strict partial order on values
/// (e.g. "strictly better under a total order on scores") — otherwise two
/// threads can livelock replacing each other. The loop is commutative for
/// such orders: the final register value is independent of interleaving.
#[inline]
pub fn cas_improve_u64(cell: &AtomicU64, new: u64, mut improves: impl FnMut(u64) -> bool) -> bool {
    let mut cur = cell.load(RELAXED);
    while improves(cur) {
        match cell.compare_exchange_weak(cur, new, ACQ_REL, RELAXED) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
    false
}

// The `as_atomic_*` reinterprets are meaningless under loom (its atomics
// are fat tracking structs, not transparent wrappers), so the loom models
// exercise the algorithms through ordinary atomic arrays instead.
#[cfg(not(loom))]
mod reinterpret {
    use super::{AtomicU32, AtomicU64};

    // `as_atomic_u64` is sound only if the layouts agree exactly and the
    // plain integer is at least as aligned as its atomic counterpart.
    // Guaranteed on every mainstream 64-bit target, but targets where
    // `u64` is 4-byte-aligned (e.g. x86 32-bit) exist: fail the *build*
    // there, not the program.
    const _: () = assert!(
        std::mem::size_of::<u64>() == std::mem::size_of::<AtomicU64>()
            && std::mem::align_of::<u64>() >= std::mem::align_of::<AtomicU64>(),
        "u64 is under-aligned or mis-sized for AtomicU64 on this target"
    );
    const _: () = assert!(
        std::mem::size_of::<u32>() == std::mem::size_of::<AtomicU32>()
            && std::mem::align_of::<u32>() >= std::mem::align_of::<AtomicU32>(),
        "u32 is under-aligned or mis-sized for AtomicU32 on this target"
    );
    const _: () = assert!(
        std::mem::size_of::<usize>() == std::mem::size_of::<super::AtomicUsize>()
            && std::mem::align_of::<usize>() >= std::mem::align_of::<super::AtomicUsize>(),
        "usize is under-aligned or mis-sized for AtomicUsize on this target"
    );

    /// Reinterprets a mutable slice of `u64` as atomic cells.
    #[inline]
    pub fn as_atomic_u64(slice: &mut [u64]) -> &[AtomicU64] {
        // SAFETY: `AtomicU64` is `repr(transparent)` over `u64` with
        // identical size and compatible alignment (checked by the const
        // asserts above), and the unique `&mut` borrow we consume
        // guarantees no other reference to the storage exists for the
        // lifetime of the returned shared view.
        unsafe { &*(slice as *mut [u64] as *const [AtomicU64]) }
    }

    /// Reinterprets a mutable slice of `u32` as atomic cells (same argument
    /// as [`as_atomic_u64`]).
    #[inline]
    pub fn as_atomic_u32(slice: &mut [u32]) -> &[AtomicU32] {
        // SAFETY: as in `as_atomic_u64` — layout compatibility is checked
        // at compile time and the `&mut` borrow guarantees uniqueness.
        unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
    }

    /// Reinterprets a mutable slice of `usize` as atomic cells (same
    /// argument as [`as_atomic_u64`]). Lets reusable `Vec<usize>` scratch
    /// buffers serve as bucket counters without per-level
    /// `Vec<AtomicUsize>` allocations.
    #[inline]
    pub fn as_atomic_usize(slice: &mut [usize]) -> &[super::AtomicUsize] {
        // SAFETY: as in `as_atomic_u64` — layout compatibility is checked
        // at compile time and the `&mut` borrow guarantees uniqueness.
        unsafe { &*(slice as *mut [usize] as *const [super::AtomicUsize]) }
    }
}
#[cfg(not(loom))]
pub use reinterpret::{as_atomic_u32, as_atomic_u64, as_atomic_usize};

/// A raw pointer blessed for cross-thread sharing during a parallel region
/// whose tasks write **provably disjoint index ranges** of one exclusively
/// borrowed allocation (bucket sorting, chunked compaction).
///
/// This is the workspace's one sanctioned way to hand parallel tasks
/// overlapping-lifetime views of a single `&mut` buffer; keeping it here —
/// in the audited sync layer — rather than ad hoc in each kernel keeps the
/// disjointness arguments reviewable in one place. Every use site must
/// state its disjointness proof in a `SAFETY:` comment.
#[derive(Debug, Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);

// SAFETY: the pointer is shared only inside a parallel region over storage
// exclusively borrowed for that region, and each task dereferences a
// disjoint index range (callers prove this per use site); accesses never
// alias, so shared references to the wrapper are harmless.
unsafe impl<T> Sync for SendPtr<T> {}
// SAFETY: moving the pointer value across threads is trivially fine; every
// dereference is covered by the caller's disjoint-range argument.
unsafe impl<T> Send for SendPtr<T> {}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn cas_improve_installs_only_improvements() {
        let c = AtomicU64::new(10);
        assert!(!cas_improve_u64(&c, 7, |cur| 7 > cur));
        assert_eq!(c.load(RELAXED), 10);
        assert!(cas_improve_u64(&c, 42, |cur| 42 > cur));
        assert_eq!(c.load(RELAXED), 42);
    }

    #[test]
    fn cas_improve_parallel_is_max() {
        let c = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 1..=8u64 {
                let c = &c;
                s.spawn(move || {
                    for k in 0..1000u64 {
                        let v = t * 1000 + k;
                        cas_improve_u64(c, v, |cur| v > cur);
                    }
                });
            }
        });
        assert_eq!(c.load(RELAXED), 8999);
    }

    #[test]
    fn as_atomic_views_alias_storage() {
        let mut v = vec![0u64; 4];
        {
            let a = as_atomic_u64(&mut v);
            a[2].store(99, RELAXED);
        }
        assert_eq!(v[2], 99);
        let mut w = vec![0u32; 4];
        {
            let a = as_atomic_u32(&mut w);
            a[1].store(7, RELAXED);
        }
        assert_eq!(w[1], 7);
        let mut u = vec![0usize; 4];
        {
            let a = as_atomic_usize(&mut u);
            a[3].fetch_add(11, RELAXED);
        }
        assert_eq!(u[3], 11);
    }
}
