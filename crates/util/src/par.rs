//! Fork-join parallel regions on scoped OS threads.
//!
//! Every parallel loop in the workspace runs through this module. A
//! *region* splits `0..n` into fixed-size index chunks; the caller and
//! `width - 1` workers scoped to the region ([`std::thread::scope`]) claim
//! chunks from one atomic cursor until none is left, so irregular work —
//! power-law rows, largest-first shards — balances itself. The width is
//! the calling thread's [`crate::pool`] setting.
//!
//! The rules every entry point keeps:
//!
//! * **Cheap small regions.** A region over at most [`SEQ_CUTOFF`] items
//!   runs inline on the caller, and so does every region started from
//!   inside a worker: the tail of tiny levels and the per-graph work of a
//!   batch worker spawn no threads. A work-weighted region
//!   ([`for_each_mut_init_weighted`]) counts its items' work as well as
//!   the items themselves, so a loop over few vertices but many edges
//!   still runs on every worker.
//! * **Ordered results.** [`map`] and [`map_init`] return results in index
//!   order.
//! * **Deterministic reductions.** [`sum`] adds fixed chunks of
//!   [`SEQ_CUTOFF`] items, each left to right, then the chunk totals left to
//!   right. The association does not depend on the width, so an `f64` sum
//!   is bit-identical at 1, 2 or 8 workers.
//! * **Panics reach the caller.** A panicking participant stops further
//!   claims, and its payload is re-raised on the calling thread, where
//!   `catch_unwind` sees it as usual.
//!
//! The surface is deliberately narrow: index ranges ([`for_each`],
//! [`for_ranges`]), mutable slices ([`for_each_mut`], with per-worker
//! state [`for_each_mut_init`] and its work-weighted form
//! [`for_each_mut_init_weighted`], and [`chunks_mut`]), ordered collection
//! ([`map`], and [`map_init`] for coarse items), [`sum`], [`any`] and
//! [`all`] — plus [`width_for`], which tells a caller how many threads a
//! region over `n` items would run on, and [`Stripes`], the one-stripe-per-
//! thread counters of a count → cursor → scatter built on it.

use crate::pool::current_threads;
use crate::sync::{as_atomic_usize, AtomicBool, AtomicUsize, SendPtr, RELAXED};
use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;

/// Region size, in items, at or below which a region runs inline on the
/// caller; also the fixed chunk of [`sum`]'s reduction.
pub const SEQ_CUTOFF: usize = 1 << 16;

/// Items per claimed chunk of cheap per-index work, and cost units per
/// chunk of a work-weighted region.
const CHUNK: usize = 1 << 11;

thread_local! {
    /// True while this thread takes part in a parallel region.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// One thread's membership of a region: marks the thread as inside it (so
/// nested regions run inline) and, if the thread unwinds, exhausts the
/// cursor so the other participants stop claiming work.
struct Participant<'a> {
    cursor: &'a AtomicUsize,
    nchunks: usize,
    outer: bool,
}

impl<'a> Participant<'a> {
    fn enter(cursor: &'a AtomicUsize, nchunks: usize) -> Self {
        let outer = IN_REGION.with(|r| r.replace(true));
        Participant {
            cursor,
            nchunks,
            outer,
        }
    }

    fn claim(&self) -> Option<usize> {
        // ORDERING: RELAXED — the cursor only hands out unique chunk
        // indices (atomicity); what a chunk writes reaches the caller
        // through the thread joins that end the region.
        let c = self.cursor.fetch_add(1, RELAXED);
        (c < self.nchunks).then_some(c)
    }
}

impl Drop for Participant<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // ORDERING: RELAXED — exhausting the cursor only stops further
            // claims; the panic itself travels through the join.
            self.cursor.store(self.nchunks, RELAXED);
        }
        IN_REGION.with(|r| r.set(self.outer));
    }
}

/// The number of threads a region that may go parallel (`parallel`) is
/// allowed: the caller's width, or 1 inside another region.
fn allowed_width(parallel: bool) -> usize {
    if parallel && !IN_REGION.with(Cell::get) {
        current_threads()
    } else {
        1
    }
}

/// The number of threads a region over `n` items would run on: 1 when it
/// runs inline — at most [`SEQ_CUTOFF`] items, started inside another
/// region, or a width of 1 — and the caller's width otherwise. A loop that
/// keeps one piece of state per participant sizes that state with it, as
/// [`Stripes`] does.
fn width_for(n: usize) -> usize {
    allowed_width(n > SEQ_CUTOFF)
}

/// Runs chunk indices `0..nchunks`, each exactly once. Every participating
/// thread builds its own chunk runner with `make` (per-worker state lives
/// in it) and feeds it the chunks it claims. Inline — one runner, chunks
/// in order — unless `parallel` holds, the width is above 1, and the
/// caller is not already inside a region.
fn region<M, W>(nchunks: usize, parallel: bool, make: &M)
where
    M: Fn() -> W + Sync,
    W: FnMut(usize),
{
    let width = allowed_width(parallel).min(nchunks);
    if width <= 1 {
        let mut run = make();
        (0..nchunks).for_each(&mut run);
        return;
    }
    let cursor = AtomicUsize::new(0);
    let participate = || {
        let me = Participant::enter(&cursor, nchunks);
        let mut run = make();
        while let Some(c) = me.claim() {
            run(c);
        }
    };
    std::thread::scope(|s| {
        // A worker that fails to spawn is simply absent: the caller's own
        // participation still drains every chunk.
        let workers: Vec<_> = (1..width)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(s, participate)
                    .ok()
            })
            .collect();
        participate();
        let mut panicked = None;
        for w in workers {
            if let Err(payload) = w.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
}

/// Items `c * size .. (c + 1) * size` of `0..n`, clipped to `n`.
#[inline]
fn chunk_range(c: usize, size: usize, n: usize) -> Range<usize> {
    let lo = c * size;
    lo..(lo + size).min(n)
}

/// How a slice region cuts `0..n` into consecutive chunks. Chunk `c`
/// ends where chunk `c + 1` starts, the first starts at 0 and the last
/// ends at `n`, so the chunks are disjoint and cover every item once.
#[derive(Clone, Copy)]
enum Split<'a> {
    /// `size` items per chunk, the last one shorter.
    Items(usize),
    /// About [`CHUNK`] cost units per chunk, item `i` costing one unit
    /// plus its work `work[i + 1] - work[i]`; `work` has `n + 1` entries
    /// and never decreases (checked by the region's entry point).
    Work(&'a [usize]),
}

impl Split<'_> {
    fn chunks(self, n: usize) -> usize {
        match self {
            Split::Items(size) => n.div_ceil(size),
            Split::Work(work) => weighted_cost(work, n).div_ceil(CHUNK),
        }
    }

    fn range(self, c: usize, n: usize) -> Range<usize> {
        match self {
            Split::Items(size) => chunk_range(c, size, n),
            Split::Work(work) => {
                first_item_at(work, n, c * CHUNK)..first_item_at(work, n, (c + 1) * CHUNK)
            }
        }
    }
}

/// Cost of items `0..i` under a work prefix: their work plus one unit each.
#[inline]
fn weighted_cost(work: &[usize], i: usize) -> usize {
    work[i] - work[0] + i
}

/// The first item in `0..n` whose cost prefix reaches `at`, or `n`.
/// Nondecreasing in `at`, since the cost prefix strictly increases.
fn first_item_at(work: &[usize], n: usize, at: usize) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if weighted_cost(work, mid) < at {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Runs over the chunks `split` cuts from `data`, each handed with the
/// index of its first item to a per-worker runner built by `make`.
fn slice_region<T, M, W>(data: &mut [T], split: Split, parallel: bool, make: &M)
where
    T: Send,
    M: Fn() -> W + Sync,
    W: FnMut(usize, &mut [T]),
{
    if let Split::Items(size) = split {
        assert!(size > 0, "chunk size must be positive");
    }
    let n = data.len();
    let base = SendPtr(data.as_mut_ptr());
    region(split.chunks(n), parallel, &|| {
        let base = &base;
        let mut run = make();
        move |c| {
            let r = split.range(c, n);
            // SAFETY: `split` cuts `0..n` into abutting ranges, so chunk
            // `c`'s range `r` lies inside `data` and is disjoint from every
            // other chunk's; every chunk is claimed exactly once, while
            // `data` stays exclusively borrowed for the whole region — so
            // no two live slices alias.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(r.start), r.len()) };
            run(r.start, chunk)
        }
    });
}

/// Calls `f(i)` for every `i` in `0..n`.
pub fn for_each(n: usize, f: impl Fn(usize) + Sync) {
    let f = &f;
    for_ranges(n, CHUNK, |_, r| r.for_each(f));
}

/// Calls `f(c, range)` for every consecutive `size`-index chunk of `0..n`
/// (the last may be shorter), `c` being the chunk's index. Chunk bounds
/// depend only on `n` and `size`, never on the width.
pub fn for_ranges(n: usize, size: usize, f: impl Fn(usize, Range<usize>) + Sync) {
    assert!(size > 0, "chunk size must be positive");
    let f = &f;
    region(n.div_ceil(size), n > SEQ_CUTOFF, &|| {
        move |c| f(c, chunk_range(c, size, n))
    });
}

/// Stripe-private counters for a count → cursor → scatter over `0..n`
/// items that each land under some of `keys` keys (a bucket, a CSR row).
///
/// [`Stripes::reset`] cuts the items into one stripe per thread a region
/// over them runs on ([`width_for`]), each stripe owning a row of `keys`
/// counters. A count pass ([`Stripes::for_each`], calling
/// [`StripeRow::bump`]) fills each row with its stripe's per-key counts;
/// [`Stripes::column_sums`] gives each key's total, from which the caller
/// lays out the keys' extents; [`Stripes::cursors_from`] rewrites each
/// column into the stripes' cursors inside its key's extent; and a scatter
/// pass ([`Stripes::for_each`] again, calling [`StripeRow::take`]) hands
/// every item its own slot. Stripe `b` starts where stripes `0..b` end, so
/// the stripes fill disjoint, abutting runs of each extent, a key's items
/// land in item order at any width, and no item needs an atomic
/// read-modify-write. Both passes must visit the same items under the same
/// keys.
///
/// The matrix keeps its capacity across resets.
#[derive(Debug, Clone, Default)]
pub struct Stripes {
    /// Row-major stripes × `stride()` counters, row `b` owned by stripe `b`.
    cells: Vec<usize>,
    keys: usize,
    /// Items per stripe; the last stripe may be shorter.
    size: usize,
    n: usize,
}

/// One stripe's row of counters during a [`Stripes::for_each`] pass.
#[derive(Debug)]
pub struct StripeRow<'a>(&'a mut [usize]);

impl StripeRow<'_> {
    /// Counts one item under key `k` (count pass).
    #[inline]
    pub fn bump(&mut self, k: usize) {
        self.0[k] += 1;
    }

    /// Hands out the stripe's next slot in key `k`'s extent (scatter pass).
    #[inline]
    pub fn take(&mut self, k: usize) -> usize {
        let at = self.0[k];
        self.0[k] = at + 1;
        at
    }
}

impl Stripes {
    /// Sizes the matrix for a region over `n` items: one stripe per thread
    /// the region runs on, each with `keys` zeroed counters.
    pub fn reset(&mut self, n: usize, keys: usize) {
        self.n = n;
        self.keys = keys;
        self.size = n.div_ceil(width_for(n)).max(1);
        let cells = self.stripes() * self.stride();
        self.cells.clear();
        self.cells.resize(cells, 0);
    }

    fn stripes(&self) -> usize {
        self.n.div_ceil(self.size)
    }

    /// A row's length in `cells`: `keys`, but never 0, since the slice
    /// region's chunks must not be empty (an empty graph has no keys).
    fn stride(&self) -> usize {
        self.keys.max(1)
    }

    /// Calls `f(row, range)` once per stripe, `range` being the stripe's
    /// items and `row` its own counters.
    pub fn for_each(&mut self, f: impl Fn(StripeRow<'_>, Range<usize>) + Sync) {
        let (n, size, keys, stride) = (self.n, self.size, self.keys, self.stride());
        let run = |lo: usize, row: &mut [usize]| {
            let range = chunk_range(lo / stride, size, n);
            f(StripeRow(&mut row[..keys]), range)
        };
        let parallel = n > SEQ_CUTOFF;
        slice_region(&mut self.cells, Split::Items(stride), parallel, &|| &run);
    }

    /// Writes each key's count over all stripes into `out[k]`.
    pub fn column_sums(&self, out: &mut [usize]) {
        assert_eq!(out.len(), self.keys, "one sum per key");
        let (stripes, stride, cells) = (self.stripes(), self.stride(), &self.cells);
        for_each_mut(out, |k, sum| {
            *sum = (0..stripes).map(|b| cells[b * stride + k]).sum();
        });
    }

    /// Rewrites each column of counts into the stripes' cursors: stripe `b`
    /// starts key `k` at `start[k]` plus the counts of stripes `0..b`.
    pub fn cursors_from(&mut self, start: &[usize]) {
        assert_eq!(start.len(), self.keys, "one start offset per key");
        let (stripes, stride) = (self.stripes(), self.stride());
        let cells = as_atomic_usize(&mut self.cells);
        for_each(self.keys, |k| {
            // ORDERING: RELAXED — column `k` has one writer, this task, so
            // its cells take a plain load and store; the join barrier
            // publishes the cursors to the scatter pass.
            let mut at = start[k];
            for b in 0..stripes {
                let c = &cells[b * stride + k];
                let count = c.load(RELAXED);
                c.store(at, RELAXED);
                at += count;
            }
        });
    }
}

/// Calls `f(i, &mut data[i])` for every element of `data`.
pub fn for_each_mut<T: Send>(data: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    for_each_mut_init(data, || (), |_, i, x| f(i, x));
}

/// As [`for_each_mut`], with a per-worker state made by `init` (once per
/// participating thread, and once when the region runs inline).
fn for_each_mut_init<T: Send, S>(
    data: &mut [T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut T) + Sync,
) {
    let parallel = data.len() > SEQ_CUTOFF;
    items_region(data, Split::Items(CHUNK), parallel, &init, &f);
}

/// As [`for_each_mut_init`] for items of uneven cost — CSR rows, say.
/// `work` is a nondecreasing prefix of per-item work, `data.len() + 1`
/// entries long (row offsets qualify), and item `i` costs
/// `work[i + 1] - work[i]` units plus one. The region runs inline when
/// the items' total cost is at most [`SEQ_CUTOFF`]; otherwise its chunks
/// are contiguous item ranges of about [`CHUNK`] units, cut from `work`
/// alone, so their bounds never depend on the width.
///
/// # Panics
///
/// If `work` has the wrong length, decreases anywhere, or spans more than
/// `isize::MAX` units.
pub fn for_each_mut_init_weighted<T: Send, S>(
    data: &mut [T],
    work: &[usize],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut T) + Sync,
) {
    let n = data.len();
    assert_eq!(
        work.len(),
        n + 1,
        "work prefix needs one entry per item plus one"
    );
    assert!(
        work.windows(2).all(|w| w[0] <= w[1]),
        "work prefix must be nondecreasing"
    );
    // Keeps every cost and chunk target below overflow: `work` is
    // allocated, so `n` is far below `isize::MAX` too.
    assert!(
        work[n] - work[0] <= isize::MAX as usize,
        "work prefix spans more than isize::MAX units"
    );
    let parallel = weighted_cost(work, n) > SEQ_CUTOFF;
    items_region(data, Split::Work(work), parallel, &init, &f);
}

/// Calls `f(state, i, &mut data[i])` for every item, over the chunks
/// `split` cuts, with one `state` per participant.
fn items_region<T: Send, S>(
    data: &mut [T],
    split: Split,
    parallel: bool,
    init: &(impl Fn() -> S + Sync),
    f: &(impl Fn(&mut S, usize, &mut T) + Sync),
) {
    slice_region(data, split, parallel, &|| {
        let mut state = init();
        move |lo, chunk: &mut [T]| {
            for (k, x) in chunk.iter_mut().enumerate() {
                f(&mut state, lo + k, x);
            }
        }
    });
}

/// Calls `f(c, chunk)` for every consecutive `size`-element chunk of
/// `data` (the last may be shorter), `c` being the chunk's index.
pub fn chunks_mut<T: Send>(data: &mut [T], size: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let f = &f;
    let parallel = data.len() > SEQ_CUTOFF;
    slice_region(data, Split::Items(size), parallel, &|| {
        move |lo, chunk: &mut [T]| f(lo / size, chunk)
    });
}

/// Collects `f(state, i)` for `i` in `0..n`, in index order, claiming
/// `grain` items at a time.
fn collect<S, R: Send>(
    n: usize,
    grain: usize,
    parallel: bool,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let (init, f) = (&init, &f);
    let mut out = Vec::with_capacity(n);
    let slots = &mut out.spare_capacity_mut()[..n];
    slice_region(slots, Split::Items(grain), parallel, &|| {
        let mut state = init();
        move |lo, slots: &mut [MaybeUninit<R>]| {
            for (k, slot) in slots.iter_mut().enumerate() {
                slot.write(f(&mut state, lo + k));
            }
        }
    });
    // SAFETY: the region wrote every one of the first `n` slots (each chunk
    // writes all of its slots, and a panic would have unwound past here),
    // and `n` is within the capacity reserved above.
    unsafe { out.set_len(n) };
    out
}

/// `[f(0), f(1), …, f(n - 1)]`, computed in parallel.
pub fn map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    collect(n, CHUNK, n > SEQ_CUTOFF, || (), |_, i| f(i))
}

/// Ordered map over *coarse* items — whole graphs, shards — consumed by
/// value, with a per-worker state made by `init`: items are claimed one at
/// a time and any two of them make a parallel region. Results are in input
/// order. Work nested inside `f` runs inline on the worker.
pub fn map_init<T: Send, S, R: Send>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let mut items: Vec<ManuallyDrop<T>> = items.into_iter().map(ManuallyDrop::new).collect();
    let base = SendPtr(items.as_mut_ptr());
    collect(n, 1, n > 1, init, |state, i| {
        let base = &base;
        // SAFETY: `i < n` indexes a live element of `items`, and each index
        // is claimed exactly once, so every item is moved out at most once
        // and no two threads touch the same element; `ManuallyDrop` keeps
        // the moved-out originals from being dropped again with `items`
        // (an item a panic leaves unclaimed is leaked, never double-freed).
        let item = unsafe { ManuallyDrop::take(&mut *base.0.add(i)) };
        f(state, item)
    })
}

/// `f(0) + f(1) + … + f(n - 1)` with a width-independent association:
/// each [`SEQ_CUTOFF`]-item chunk is summed left to right, then the chunk
/// sums left to right. At most one chunk is a plain left-to-right sum.
pub fn sum<T>(n: usize, f: impl Fn(usize) -> T + Sync) -> T
where
    T: Send + std::iter::Sum<T>,
{
    if n <= SEQ_CUTOFF {
        return (0..n).map(f).sum();
    }
    let f = &f;
    collect(
        n.div_ceil(SEQ_CUTOFF),
        1,
        true,
        || (),
        |_, c| chunk_range(c, SEQ_CUTOFF, n).map(f).sum::<T>(),
    )
    .into_iter()
    .sum()
}

/// True if `f(i)` holds for some `i` in `0..n`. Chunks not yet started
/// are skipped once a match is found.
pub fn any(n: usize, f: impl Fn(usize) -> bool + Sync) -> bool {
    if n <= SEQ_CUTOFF {
        return (0..n).any(f);
    }
    let (f, found) = (&f, AtomicBool::new(false));
    region(n.div_ceil(CHUNK), true, &|| {
        let found = &found;
        move |c| {
            // ORDERING: RELAXED — `found` only ever goes false → true; a
            // stale read costs one extra chunk scan, and the joins publish
            // the final value to the caller.
            if !found.load(RELAXED) && chunk_range(c, CHUNK, n).any(f) {
                found.store(true, RELAXED);
            }
        }
    });
    found.into_inner()
}

/// True if `f(i)` holds for every `i` in `0..n`.
pub fn all(n: usize, f: impl Fn(usize) -> bool + Sync) -> bool {
    !any(n, |i| !f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{thread_ordinal, with_threads};
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn large_region_at_width_two_runs_on_two_threads() {
        let n = 4 * SEQ_CUTOFF;
        let seen = Mutex::new(HashSet::new());
        with_threads(2, || {
            for_each(n, |i| {
                seen.lock().unwrap().insert(thread_ordinal());
                if i == 0 {
                    // Hold the first chunk until a second thread shows up
                    // (bounded, so a sequential region fails instead of
                    // hanging).
                    let start = Instant::now();
                    while seen.lock().unwrap().len() < 2
                        && start.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::yield_now();
                    }
                }
            })
        });
        assert!(
            seen.into_inner().unwrap().len() >= 2,
            "region ran on one thread"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn heavy_items_at_width_two_run_on_two_threads() {
        // 64 items of 4 096 work units each: too few items for an
        // item-count region to leave the caller, but plenty of work.
        let work: Vec<usize> = (0..=64).map(|i| i * 4096).collect();
        let mut v = vec![0u8; 64];
        let seen = Mutex::new(HashSet::new());
        with_threads(2, || {
            for_each_mut_init_weighted(
                &mut v,
                &work,
                || (),
                |_, i, _| {
                    seen.lock().unwrap().insert(thread_ordinal());
                    if i == 0 {
                        let start = Instant::now();
                        while seen.lock().unwrap().len() < 2
                            && start.elapsed() < Duration::from_secs(10)
                        {
                            std::thread::yield_now();
                        }
                    }
                },
            )
        });
        assert!(
            seen.into_inner().unwrap().len() >= 2,
            "region ran on one thread"
        );
    }

    #[test]
    fn light_weighted_region_runs_inline_on_the_caller() {
        // Every participant of a parallel region, the caller included, is
        // marked as inside it; an inline run is not. Work plus items is
        // exactly SEQ_CUTOFF here, and one unit more in the contrast.
        let n = 1024;
        let work: Vec<usize> = (0..=n).map(|i| i * (SEQ_CUTOFF / n - 1)).collect();
        let mut heavier = work.clone();
        heavier[n] += 1;
        let me = thread_ordinal();
        for (work, inline) in [(&work, true), (&heavier, false)] {
            let mut seen = vec![(u32::MAX, inline); n];
            with_threads(8, || {
                for_each_mut_init_weighted(
                    &mut seen,
                    work,
                    || (),
                    |_, _, s| *s = (thread_ordinal(), IN_REGION.with(Cell::get)),
                )
            });
            assert!(seen.iter().all(|&(_, r)| r != inline), "inline: {inline}");
            if inline {
                assert!(seen.iter().all(|&(o, _)| o == me));
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn weighted_region_visits_every_item_once() {
        let heavy = 5 * SEQ_CUTOFF;
        // Per-item work of each case; the prefix is built from it.
        let cases: Vec<(&str, usize, Vec<usize>)> = vec![
            ("one item holds all the work", 0, {
                let mut w = vec![0; 3000];
                w[1234] = heavy;
                w
            }),
            (
                "runs of zero-work items",
                0,
                (0..20_000)
                    .map(|i| if (i / 700) % 2 == 0 { 0 } else { 37 + i % 5 })
                    .collect(),
            ),
            ("all-zero prefix", 0, vec![0; 3 * SEQ_CUTOFF + 11]),
            ("no items", 0, vec![]),
            (
                "prefix not starting at 0",
                1 << 40,
                (0..5000).map(|i| (i * 7919) % 101).collect(),
            ),
        ];
        for (name, base, item_work) in &cases {
            let work: Vec<usize> = std::iter::once(*base)
                .chain(item_work.iter().scan(*base, |acc, &w| {
                    *acc += w;
                    Some(*acc)
                }))
                .collect();
            for w in [1, 2, 8] {
                let mut v = vec![(usize::MAX, 0u32); item_work.len()];
                with_threads(w, || {
                    for_each_mut_init_weighted(
                        &mut v,
                        &work,
                        || (),
                        |_, i, x| {
                            x.0 = i;
                            x.1 += 1;
                        },
                    )
                });
                assert!(
                    v.iter()
                        .enumerate()
                        .all(|(i, &(j, hits))| i == j && hits == 1),
                    "{name} at width {w}"
                );
            }
        }
    }

    #[test]
    fn coarse_items_run_concurrently() {
        // Each item waits for the other: only two live workers can finish.
        let barrier = std::sync::Barrier::new(2);
        let ords = with_threads(2, || {
            map_init(
                vec![(); 2],
                || (),
                |_, ()| {
                    barrier.wait();
                    thread_ordinal()
                },
            )
        });
        assert_ne!(ords[0], ords[1]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn nested_region_runs_inline_on_the_worker() {
        let n = 4 * SEQ_CUTOFF;
        let inline = with_threads(2, || {
            map_init(
                vec![(); 4],
                || (),
                |_, ()| {
                    let me = thread_ordinal();
                    let seen = Mutex::new(HashSet::new());
                    for_each(n, |_| {
                        seen.lock().unwrap().insert(thread_ordinal());
                    });
                    seen.into_inner().unwrap() == HashSet::from([me])
                },
            )
        });
        assert_eq!(inline, vec![true; 4]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn small_region_runs_inline_on_the_caller() {
        let me = thread_ordinal();
        let ords = with_threads(8, || map(SEQ_CUTOFF, |_| thread_ordinal()));
        assert!(ords.iter().all(|&o| o == me));
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn width_for_follows_the_inline_rule() {
        let big = SEQ_CUTOFF + 1;
        with_threads(3, || {
            assert_eq!(width_for(0), 1);
            assert_eq!(width_for(SEQ_CUTOFF), 1);
            assert_eq!(width_for(big), 3);
            // Inside a parallel region, every participant would run inline.
            let nested = map(big, |_| width_for(big));
            assert!(nested.iter().all(|&w| w == 1));
        });
        assert_eq!(with_threads(1, || width_for(big)), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn stripes_scatter_is_a_stable_counting_sort_at_every_width() {
        // Above the cutoff, so widths 3 and 8 run three and eight stripes,
        // each scattering through its own cursors.
        let (n, keys) = (3 * SEQ_CUTOFF + 7, 1000);
        let key = |i: usize| (i.wrapping_mul(0x9E37_79B9) >> 7) % keys;
        let mut counts = vec![0usize; keys];
        (0..n).for_each(|i| counts[key(i)] += 1);
        let mut expect: Vec<usize> = (0..n).collect();
        expect.sort_by_key(|&i| key(i));
        for w in [1, 3, 8] {
            let (mut stripes, mut sums, mut out) = (Stripes::default(), vec![0; keys], vec![0; n]);
            with_threads(w, || {
                stripes.reset(n, keys);
                stripes.for_each(|mut row, range| range.for_each(|i| row.bump(key(i))));
                stripes.column_sums(&mut sums);
                let mut start = sums.clone();
                crate::scan::exclusive_prefix_sum(&mut start);
                stripes.cursors_from(&start);
                let slots = as_atomic_usize(&mut out);
                stripes.for_each(|mut row, range| {
                    for i in range {
                        // ORDERING: RELAXED — one writer per slot; the
                        // join publishes them.
                        slots[row.take(key(i))].store(i, RELAXED);
                    }
                });
            });
            assert_eq!(stripes.stripes(), w, "width {w}");
            assert_eq!(sums, counts, "width {w}");
            assert!(out == expect, "scatter differs at width {w}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn worker_panic_reaches_the_caller() {
        let n = 8 * SEQ_CUTOFF;
        for i_bad in [0, n / 2, n - 1] {
            let caught = with_threads(2, || {
                std::panic::catch_unwind(|| {
                    for_each(n, |i| {
                        if i == i_bad {
                            panic!("boom at {i}");
                        }
                    })
                })
            });
            let payload = caught.expect_err("the panic was swallowed");
            let msg = payload.downcast_ref::<String>().expect("original payload");
            assert_eq!(msg, &format!("boom at {i_bad}"));
        }
        // The pool is usable after a panic, and the caller is no longer
        // marked as inside a region.
        assert_eq!(with_threads(2, || map(n, |i| i)).len(), n);
        assert!(!IN_REGION.with(Cell::get));
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn ordered_collect_equals_sequential() {
        let n = 5 * SEQ_CUTOFF + 17;
        let expect: Vec<u64> = (0..n as u64).map(|i| (i * i) ^ 0x5555).collect();
        for w in [1, 2, 8] {
            let got = with_threads(w, || map(n, |i| ((i as u64) * (i as u64)) ^ 0x5555));
            assert_eq!(got, expect, "width {w}");
            let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
            let got = with_threads(w, || {
                map_init(
                    items,
                    || 7u64,
                    |s, item| {
                        *s += 1;
                        item.parse::<u64>().unwrap() * *s / *s
                    },
                )
            });
            assert_eq!(got, (0..100u64).collect::<Vec<_>>(), "width {w}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn f64_sum_is_bit_identical_across_widths() {
        let n = 10 * SEQ_CUTOFF + 123;
        let term =
            |i: usize| 1.0 / (i as f64 + 1.0) * if i.is_multiple_of(3) { -1e8 } else { 1e-3 };
        let fixed: f64 = (0..n.div_ceil(SEQ_CUTOFF))
            .map(|c| chunk_range(c, SEQ_CUTOFF, n).map(term).sum::<f64>())
            .sum();
        for w in [1, 2, 8] {
            let s = with_threads(w, || sum(n, term));
            assert_eq!(s.to_bits(), fixed.to_bits(), "width {w}");
        }
        // One chunk is a plain left-to-right sum.
        let small = with_threads(2, || sum(SEQ_CUTOFF, term));
        assert_eq!(
            small.to_bits(),
            (0..SEQ_CUTOFF).map(term).sum::<f64>().to_bits()
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn mutable_chunks_cover_every_element_once() {
        let n = 3 * SEQ_CUTOFF + 5;
        for w in [1, 2, 8] {
            let mut v = vec![0u32; n];
            with_threads(w, || for_each_mut(&mut v, |i, x| *x += i as u32 + 1));
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
            let mut v = vec![0usize; n];
            with_threads(w, || chunks_mut(&mut v, 1000, |c, chunk| chunk.fill(c)));
            assert!(v.iter().enumerate().all(|(i, &c)| c == i / 1000));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn any_and_all_agree_with_sequential() {
        let n = 6 * SEQ_CUTOFF;
        for w in [1, 2, 8] {
            with_threads(w, || {
                assert!(any(n, |i| i == n - 1));
                assert!(!any(n, |i| i == n));
                assert!(all(n, |i| i < n));
                assert!(!all(n, |i| i != 77));
                assert!(!any(0, |_| true));
                assert!(all(0, |_| false));
            });
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "regions of SEQ_CUTOFF items are too slow under Miri")]
    fn for_each_mut_init_makes_state_per_participant() {
        let mut v = vec![0usize; 4 * SEQ_CUTOFF];
        let inits = AtomicUsize::new(0);
        with_threads(2, || {
            for_each_mut_init(
                &mut v,
                || {
                    // ORDERING: RELAXED — test counter, read after the join.
                    inits.fetch_add(1, RELAXED);
                    0usize
                },
                |seen, i, x| {
                    *seen += 1;
                    *x = i + *seen - *seen;
                },
            )
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
        assert!((1..=2).contains(&inits.into_inner()));
    }
}
