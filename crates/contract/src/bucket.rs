//! The bucket-sort contraction pipeline (§IV-C): relabel → scatter by new
//! first endpoint → sort and accumulate each bucket → copy back.
//!
//! All phases are parallel, and no edge takes an atomic read-modify-write
//! unless it folds into a self-loop:
//!
//! 1. **Relabel and count.** The edges are cut into stripes, one per
//!    thread the pass runs on, each owning a row of counters
//!    ([`par::Stripes`]). Each stripe relabels its edges' endpoints
//!    through an old→new vertex map and re-canonicalises them under the
//!    parity hash; an edge whose endpoints coincide folds into the new
//!    vertex's self-loop, and every other edge bumps its stripe's own
//!    counter for its new stored-first endpoint. Contracting a matching
//!    runs the pipeline on the map [`relabel_into`] derives from it, so
//!    each matched edge folds here like any other coinciding edge.
//! 2. **Bucket** the surviving edges by their new stored-first endpoint:
//!    the stripes' column sums are the buckets' lengths, a [`Placement`]
//!    lays the buckets out in the scatter arena, and each stripe's
//!    counters become its cursors inside them. Each stripe then relabels
//!    its edges again and writes them through its own cursors, so every
//!    arena slot has one writer. The relabelled endpoints are never
//!    stored.
//! 3. **Sort & accumulate** each bucket by its second endpoint with the
//!    chosen [`RowSort`], merging duplicate edges and shortening the
//!    bucket.
//! 4. **Compact** the shortened buckets into dense storage ("copied back
//!    out into the original graph's storage").
//!
//! The placement and the row sort are the paper's ablations, and they
//! change only the work done, never the output; so does the stripe count,
//! which follows the width. Compaction writes row `v` at `final_off[v]`, a
//! prefix over new-vertex order; destinations ascend within a row;
//! duplicate weights merge by exact integer addition. So every choice
//! emits the same graph bit for bit, at any thread count.

use crate::{relabel_into, Contraction};
use pcd_graph::{canonical_order, Graph, GraphParts};
use pcd_matching::Matching;
use pcd_util::par;
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{
    as_atomic_u32, as_atomic_u64, as_atomic_usize, AtomicUsize, SendPtr, RELAXED,
};
use pcd_util::VertexId;

/// How the row pass sorts a bucket by destination before merging
/// duplicate destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSort {
    /// Stable LSD counting sort over the 8-bit digits a destination id can
    /// occupy, ping-ponging between the bucket and its slice of the output
    /// graph's `dst`/`weight` storage: the default `radix` contractor.
    Radix,
    /// In-place tandem heapsort of destinations and weights: the paper's
    /// per-bucket sort, kept as the `bucket` ablation.
    Heapsort,
}

/// Where the scatter places each bucket in its arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Per-vertex counts and a parallel prefix sum give each bucket a
    /// fixed offset, in ascending vertex order. ("Storing the buckets
    /// contiguously requires synchronizing on a prefix sum.")
    PrefixSum,
    /// The paper's placement ablation: buckets claim their extents off one
    /// global fetch-and-add cursor, in whatever order threads arrive, with
    /// no synchronisation "beyond an atomic fetch-and-add". Only the
    /// scatter arena's layout follows the schedule; the emitted graph is
    /// the same as under [`Placement::PrefixSum`].
    FetchAdd,
}

/// Rows at or below this length take an insertion sort under either
/// [`RowSort`]: neither a counting pass nor a heap beats it there.
const INSERTION_CUTOFF: usize = 24;

/// Contracts `g` along matching `m`: owning wrapper over [`contract_into`]
/// for oracles, ablations and one-shot callers. Allocates a fresh
/// [`ContractScratch`] and empty output storage per call.
pub fn contract(g: &Graph, m: &Matching, sort: RowSort, placement: Placement) -> Contraction {
    let mut scratch = ContractScratch::new();
    let (graph, num_new) =
        contract_into(g, m, sort, placement, &mut scratch, GraphParts::default());
    Contraction {
        graph,
        new_of_old: scratch.take_new_of_old(),
        num_new,
    }
}

/// Reusable working storage for the pipeline: the relabel map and its
/// prefix-sum buffer, the stripes' counters ([`par::Stripes`]: first each
/// stripe's per-bucket edge counts, then its cursors into the buckets),
/// bucket counts and offsets, the scatter arena, and the shortened
/// buckets' offsets. Every buffer is cleared and logically resized per
/// call; capacity only grows, so steady-state contraction allocates
/// nothing. The radix row sort's second arena is not here: it is the
/// output graph's `dst`/`weight` storage, which compaction overwrites
/// only after the row pass.
///
/// `bucket_off` and `final_off` hold `num_new + 1` entries: under
/// prefix-sum placement both are row-offset prefixes ending in their
/// total, which is what lets the per-row passes cut their chunks by row
/// length ([`par::for_each_mut_init_weighted`]).
#[derive(Debug, Default)]
pub struct ContractScratch {
    is_leader: Vec<usize>,
    new_of_old: Vec<VertexId>,
    stripes: par::Stripes,
    counts: Vec<usize>,
    bucket_off: Vec<usize>,
    tmp_dst: Vec<u32>,
    tmp_w: Vec<u64>,
    final_off: Vec<usize>,
}

impl ContractScratch {
    /// A scratch with no retained capacity.
    pub fn new() -> Self {
        ContractScratch::default()
    }

    /// The old→new community map of the most recent [`contract_into`] call.
    pub fn new_of_old(&self) -> &[VertexId] {
        &self.new_of_old
    }

    /// Moves the old→new map out (for callers assembling a [`Contraction`]).
    pub fn take_new_of_old(&mut self) -> Vec<VertexId> {
        std::mem::take(&mut self.new_of_old)
    }

    /// Puts an old→new map back (fault-injection harness round-trip).
    pub fn set_new_of_old(&mut self, map: Vec<VertexId>) {
        self.new_of_old = map;
    }
}

/// Contracts `g` along matching `m`, scattering the result into recycled
/// storage: `parts` supplies the output graph's six arrays (their capacity
/// is reused; contents are overwritten) and `scratch` every intermediate
/// buffer. Returns the contracted graph and `num_new`; the old→new map is
/// left in `scratch` ([`ContractScratch::new_of_old`]).
///
/// The emitted graph is the same for every `sort`, `placement` and
/// thread count, and equals [`contract_map_into`] on the matching's
/// relabel map. Total weight is conserved by construction, so the output
/// graph inherits the parent's total without a reduction pass (debug
/// builds re-verify).
pub fn contract_into(
    g: &Graph,
    m: &Matching,
    sort: RowSort,
    placement: Placement,
    scratch: &mut ContractScratch,
    parts: GraphParts,
) -> (Graph, usize) {
    let num_new = relabel_into(g, m, &mut scratch.is_leader, &mut scratch.new_of_old);
    let new_of_old = std::mem::take(&mut scratch.new_of_old);
    let graph = contract_rows(g, &new_of_old, num_new, sort, placement, scratch, parts);
    scratch.new_of_old = new_of_old;
    (graph, num_new)
}

/// Contracts `g` through an arbitrary old→new vertex map with radix rows
/// and prefix-sum placement: every old vertex maps somewhere in
/// `[0, num_new)`, and any number of old vertices may share a new id
/// (unlike a matching's pair merges). Edges whose endpoints coincide under
/// the map fold into the new vertex's self-loop, as do all old self-loops.
/// Returns the contracted graph; `new_of_old` is the caller's (it is *not*
/// deposited in `scratch`).
///
/// It builds the multilevel and refined community graphs, whose maps
/// merge whole groups of vertices in one call.
pub fn contract_map_into(
    g: &Graph,
    new_of_old: &[VertexId],
    num_new: usize,
    scratch: &mut ContractScratch,
    parts: GraphParts,
) -> Graph {
    contract_rows(
        g,
        new_of_old,
        num_new,
        RowSort::Radix,
        Placement::PrefixSum,
        scratch,
        parts,
    )
}

/// The pipeline behind both entry points (module docs, phases 1–4).
fn contract_rows(
    g: &Graph,
    new_of_old: &[VertexId],
    num_new: usize,
    sort: RowSort,
    placement: Placement,
    scratch: &mut ContractScratch,
    mut parts: GraphParts,
) -> Graph {
    assert_eq!(new_of_old.len(), g.num_vertices());
    let ContractScratch {
        stripes,
        counts,
        bucket_off,
        tmp_dst,
        tmp_w,
        final_off,
        ..
    } = scratch;
    let ne = g.num_edges();

    // Phase 1: old self-loops fold through the map, then each stripe
    // relabels and re-canonicalises its edges. An edge whose endpoints
    // coincide folds its weight into the new vertex's self-loop; every
    // other edge counts towards its new source's bucket in the stripe's
    // own row of counters.
    parts.self_loop.clear();
    parts.self_loop.resize(num_new, 0);
    stripes.reset(ne, num_new);
    {
        let self_c = as_atomic_u64(&mut parts.self_loop);
        // ORDERING: RELAXED — pure weight accumulation (atomicity only);
        // the self-loop fetch_add is the only cross-stripe accumulation,
        // and the join barrier publishes the totals.
        par::for_each(g.num_vertices(), |v| {
            let s = g.self_loop(v as u32);
            if s > 0 {
                self_c[new_of_old[v] as usize].fetch_add(s, RELAXED);
            }
        });
        stripes.for_each(|mut row, range| {
            for e in range {
                let (i, j, w) = g.edge(e);
                let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
                if ni == nj {
                    self_c[ni as usize].fetch_add(w, RELAXED);
                } else {
                    row.bump(canonical_order(ni, nj).0 as usize);
                }
            }
        });
    }

    // Phase 2: a bucket's length is its column sum over the stripes.
    counts.clear();
    counts.resize(num_new, 0);
    stripes.column_sums(counts);
    let counts: &[usize] = counts;
    let (live, longest) = counts
        .iter()
        .fold((0, 0), |(sum, max), &c| (sum + c, max.max(c)));

    // Bucket offsets per placement. The prefix sum's trailing entry holds
    // the total, so its offsets are also the row passes' work prefix.
    bucket_off.clear();
    match placement {
        Placement::PrefixSum => {
            bucket_off.resize(num_new + 1, 0);
            bucket_off[..num_new].copy_from_slice(counts);
            exclusive_prefix_sum(bucket_off);
        }
        Placement::FetchAdd => {
            // ORDERING: RELAXED — the fetch_add only needs a unique extent
            // (atomicity); each `off[v]` slot has a single writer and is
            // read only after the join barrier publishes it.
            bucket_off.resize(num_new + 1, live);
            let global = AtomicUsize::new(0);
            let off = as_atomic_usize(&mut bucket_off[..num_new]);
            par::for_each(num_new, |v| {
                let at = if counts[v] > 0 {
                    global.fetch_add(counts[v], RELAXED)
                } else {
                    0
                };
                off[v].store(at, RELAXED);
            });
        }
    }
    let bucket_off: &[usize] = bucket_off;

    // Each column of counts becomes the stripes' cursors into its bucket,
    // so the stripes fill disjoint, abutting runs of the bucket.
    stripes.cursors_from(&bucket_off[..num_new]);

    // Phase 2b: each stripe relabels its edges again and writes the
    // survivors through its own cursors. Within a bucket the edges sit in
    // edge order at any width; the row sort below reorders them anyway.
    tmp_dst.clear();
    tmp_dst.resize(live, 0);
    tmp_w.clear();
    tmp_w.resize(live, 0);
    {
        let dst_c = as_atomic_u32(tmp_dst);
        let w_c = as_atomic_u64(tmp_w);
        stripes.for_each(|mut row, range| {
            // ORDERING: RELAXED — the stripe's cursors hand each of its
            // edges a distinct slot inside the stripe's own run of the
            // bucket, so every slot has one writer; the join barrier
            // publishes the arena to the row pass that follows.
            for e in range {
                let (i, j, w) = g.edge(e);
                let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
                if ni != nj {
                    let (s, d) = canonical_order(ni, nj);
                    let pos = row.take(s as usize);
                    dst_c[pos].store(d, RELAXED);
                    w_c[pos].store(w, RELAXED);
                }
            }
        });
    }

    // Phase 3: sort and accumulate each row, its shortened length landing
    // in `final_off[v]`. Radix rows above the insertion cutoff ping-pong
    // through the output graph's `dst`/`weight` storage, sized to the live
    // edges; compaction overwrites it only after this pass, when every
    // sorted row is back in the scatter arena. Under prefix-sum placement
    // chunks are cut by row length; fetch-and-add extents are no prefix,
    // so that pass is split by row count.
    let arena = sort == RowSort::Radix && longest > INSERTION_CUTOFF;
    if arena {
        parts.dst.clear();
        parts.dst.resize(live, 0);
        parts.weight.clear();
        parts.weight.resize(live, 0);
    }
    let digits = digits_for(num_new);
    final_off.clear();
    final_off.resize(num_new + 1, 0);
    {
        let dst_ptr = SendPtr(tmp_dst.as_mut_ptr());
        let w_ptr = SendPtr(tmp_w.as_mut_ptr());
        let alt_dst_ptr = SendPtr(parts.dst.as_mut_ptr());
        let alt_w_ptr = SendPtr(parts.weight.as_mut_ptr());
        let shorten = |v: usize, u: &mut usize| {
            let (b, len) = (bucket_off[v], counts[v]);
            if len == 0 {
                return;
            }
            let (dst_ptr, w_ptr) = (&dst_ptr, &w_ptr);
            let (alt_dst_ptr, alt_w_ptr) = (&alt_dst_ptr, &alt_w_ptr);
            let radix = arena && len > INSERTION_CUTOFF;
            // SAFETY: every row's extent `[b, b + len)` is disjoint from
            // every other row's — `bucket_off` is the exclusive prefix sum
            // of `counts`, or extents claimed off one fetch-and-add cursor
            // — and lies inside the scatter arena, which is `live` long.
            // The output arena is `live` long whenever `radix` can hold.
            // All four arrays are exclusively borrowed for the region.
            let (d, w, alt) = unsafe {
                (
                    std::slice::from_raw_parts_mut(dst_ptr.0.add(b), len),
                    std::slice::from_raw_parts_mut(w_ptr.0.add(b), len),
                    radix.then(|| {
                        (
                            std::slice::from_raw_parts_mut(alt_dst_ptr.0.add(b), len),
                            std::slice::from_raw_parts_mut(alt_w_ptr.0.add(b), len),
                        )
                    }),
                )
            };
            match alt {
                Some((alt_d, alt_w)) => radix_sort(d, w, alt_d, alt_w, digits),
                None => tandem_sort(d, w),
            }
            *u = merge_duplicates(d, w);
        };
        let rows = &mut final_off[..num_new];
        match placement {
            Placement::PrefixSum => {
                par::for_each_mut_init_weighted(rows, bucket_off, || (), |_, v, u| shorten(v, u))
            }
            Placement::FetchAdd => par::for_each_mut(rows, shorten),
        }
    }

    // Phase 4: compact shortened rows into dense final storage.
    exclusive_prefix_sum(final_off);
    compact_rows(bucket_off, final_off, tmp_dst, tmp_w, &mut parts);

    // Contraction conserves Σw + Σself exactly, so the parent's total
    // carries over; debug builds re-verify inside `from_recycled_parts`.
    Graph::from_recycled_parts(num_new, parts, g.total_weight())
}

/// Phase 4: copies row `v`'s first `final_off[v + 1] - final_off[v]`
/// entries, starting at `from_off[v]` in the bucketed arrays, to
/// `final_off[v]` in dense storage, and sets the output rows' bounds.
/// Chunks are cut by output row length.
fn compact_rows(
    from_off: &[usize],
    final_off: &[usize],
    tmp_dst: &[u32],
    tmp_w: &[u64],
    parts: &mut GraphParts,
) {
    let num_new = final_off.len() - 1;
    let total = final_off[num_new];
    parts.src.clear();
    parts.src.resize(total, 0);
    parts.dst.clear();
    parts.dst.resize(total, 0);
    parts.weight.clear();
    parts.weight.resize(total, 0);
    parts.bucket_end.clear();
    parts.bucket_end.resize(num_new, 0);
    let src_c = as_atomic_u32(&mut parts.src);
    let dst_c = as_atomic_u32(&mut parts.dst);
    let w_c = as_atomic_u64(&mut parts.weight);
    par::for_each_mut_init_weighted(
        &mut parts.bucket_end,
        final_off,
        || (),
        |_, v, end| {
            // ORDERING: RELAXED — row v's extent [to, end) is disjoint per
            // task, so each slot has one writer; the join barrier publishes
            // the compacted arrays to the builder.
            let (from, to) = (from_off[v], final_off[v]);
            *end = final_off[v + 1];
            for k in 0..*end - to {
                src_c[to + k].store(v as u32, RELAXED);
                dst_c[to + k].store(tmp_dst[from + k], RELAXED);
                w_c[to + k].store(tmp_w[from + k], RELAXED);
            }
        },
    );
    parts.bucket_begin.clear();
    // analyze: allow(alloc, reason = "fill of recycled GraphParts buffers; ping-pong recycling amortizes capacity")
    parts.bucket_begin.extend_from_slice(&final_off[..num_new]);
}

/// Merges runs of equal destinations in a row sorted by destination,
/// summing their weights in place; returns the number of unique entries
/// (the shortened length). Weights merge by exact integer addition, so
/// the result does not depend on how a sort ordered equal destinations.
fn merge_duplicates(dst: &mut [u32], w: &mut [u64]) -> usize {
    let len = dst.len();
    let mut out = 0usize;
    let mut k = 0usize;
    while k < len {
        let d = dst[k];
        let mut acc = w[k];
        k += 1;
        while k < len && dst[k] == d {
            acc += w[k];
            k += 1;
        }
        // `out` trails `k` by at least one, so these writes only touch
        // already-consumed slots.
        dst[out] = d;
        w[out] = acc;
        out += 1;
    }
    out
}

/// Sorts `dst` ascending, applying the identical permutation to `w`,
/// entirely in place: insertion sort at or below [`INSERTION_CUTOFF`],
/// heapsort above it. No permutation buffer, no heap allocation.
fn tandem_sort(dst: &mut [u32], w: &mut [u64]) {
    let n = dst.len();
    if n <= INSERTION_CUTOFF {
        for i in 1..n {
            let (d, wi) = (dst[i], w[i]);
            let mut j = i;
            while j > 0 && dst[j - 1] > d {
                dst[j] = dst[j - 1];
                w[j] = w[j - 1];
                j -= 1;
            }
            dst[j] = d;
            w[j] = wi;
        }
        return;
    }
    for root in (0..n / 2).rev() {
        sift_down(dst, w, root, n);
    }
    for end in (1..n).rev() {
        dst.swap(0, end);
        w.swap(0, end);
        sift_down(dst, w, 0, end);
    }
}

fn sift_down(dst: &mut [u32], w: &mut [u64], mut root: usize, end: usize) {
    loop {
        let mut child = 2 * root + 1;
        if child >= end {
            return;
        }
        if child + 1 < end && dst[child + 1] > dst[child] {
            child += 1;
        }
        if dst[root] >= dst[child] {
            return;
        }
        dst.swap(root, child);
        w.swap(root, child);
        root = child;
    }
}

/// How many 8-bit digits a destination id below `num_new` can occupy.
fn digits_for(num_new: usize) -> u32 {
    let bits = usize::BITS - num_new.saturating_sub(1).leading_zeros();
    bits.div_ceil(8).max(1)
}

/// Sorts one row ascending by destination with a stable LSD counting sort
/// over `digits` 8-bit digits, skipping passes where every key shares the
/// digit, and leaves the sorted row in `dst`/`w`. `alt_dst`/`alt_w` are
/// the ping-pong buffers, as long as the row. The histograms live on the
/// stack — no allocation.
fn radix_sort(dst: &mut [u32], w: &mut [u64], alt_dst: &mut [u32], alt_w: &mut [u64], digits: u32) {
    let len = dst.len();
    debug_assert!(alt_dst.len() == len && alt_w.len() == len);
    let mut in_main = true;
    for pass in 0..digits {
        let shift = pass * 8;
        let (from_d, from_w, to_d, to_w): (&[u32], &[u64], &mut [u32], &mut [u64]) = if in_main {
            (&*dst, &*w, &mut *alt_dst, &mut *alt_w)
        } else {
            (&*alt_dst, &*alt_w, &mut *dst, &mut *w)
        };
        let mut hist = [0u32; 256];
        for &d in from_d.iter() {
            hist[(d >> shift) as usize & 0xff] += 1;
        }
        if hist.iter().any(|&c| c as usize == len) {
            // Every key shares this digit: the pass is the identity.
            continue;
        }
        let mut sum = 0u32;
        for h in hist.iter_mut() {
            let c = *h;
            *h = sum;
            sum += c;
        }
        for k in 0..len {
            let d = from_d[k];
            let slot = &mut hist[(d >> shift) as usize & 0xff];
            let at = *slot as usize;
            *slot += 1;
            to_d[at] = d;
            to_w[at] = from_w[k];
        }
        in_main = !in_main;
    }
    if !in_main {
        dst.copy_from_slice(alt_dst);
        w.copy_from_slice(alt_w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_fingerprint;
    use pcd_matching::seq::match_sequential_greedy;

    /// Every (row sort, placement) pair the contractor kinds reach.
    const CHOICES: [(RowSort, Placement); 3] = [
        (RowSort::Radix, Placement::PrefixSum),
        (RowSort::Heapsort, Placement::PrefixSum),
        (RowSort::Heapsort, Placement::FetchAdd),
    ];

    fn weighted_matching(g: &Graph) -> Matching {
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        match_sequential_greedy(g, &s)
    }

    fn contract_uniform(g: &Graph) -> Contraction {
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(g, &s);
        contract(g, &m, RowSort::Radix, Placement::PrefixSum)
    }

    fn assert_same_bits(a: &Contraction, b: &Contraction, what: &str) {
        assert_eq!(a.num_new, b.num_new, "{what}");
        assert_eq!(a.new_of_old, b.new_of_old, "{what}");
        assert_eq!(a.graph.srcs(), b.graph.srcs(), "{what}");
        assert_eq!(a.graph.dsts(), b.graph.dsts(), "{what}");
        assert_eq!(a.graph.weights(), b.graph.weights(), "{what}");
        assert_eq!(a.graph.self_loops(), b.graph.self_loops(), "{what}");
    }

    #[test]
    fn weight_conserved_on_clique_ring() {
        let g = pcd_gen::classic::clique_ring(4, 4);
        let c = contract_uniform(&g);
        assert_eq!(c.graph.total_weight(), g.total_weight());
        assert_eq!(c.graph.validate(), Ok(()));
        assert!(c.num_new < g.num_vertices());
    }

    #[test]
    fn pair_merge_folds_edge() {
        let g = pcd_graph::GraphBuilder::new(2).add_edge(0, 1, 7).build();
        let c = contract_uniform(&g);
        assert_eq!(c.num_new, 1);
        assert_eq!(c.graph.num_edges(), 0);
        assert_eq!(c.graph.self_loop(0), 7);
    }

    #[test]
    fn parallel_edges_between_pairs_accumulate() {
        // Square 0-1-2-3-0: match (0,1) and (2,3); the two cross edges
        // (1,2) and (3,0) become parallel edges between the two new
        // vertices and must merge into weight 2.
        let g = pcd_graph::GraphBuilder::new(4)
            .add_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        let s: Vec<f64> = (0..g.num_edges())
            .map(|e| {
                let (i, j, _) = g.edge(e);
                let key = (i.min(j), i.max(j));
                if key == (0, 1) || key == (2, 3) {
                    2.0
                } else {
                    1.0
                }
            })
            .collect();
        let m = match_sequential_greedy(&g, &s);
        assert_eq!(m.len(), 2);
        for (sort, placement) in CHOICES {
            let c = contract(&g, &m, sort, placement);
            assert_eq!(c.num_new, 2);
            assert_eq!(c.graph.num_edges(), 1);
            assert_eq!(c.graph.weights(), &[2]);
            assert_eq!(c.graph.total_weight(), g.total_weight());
        }
    }

    #[test]
    fn empty_matching_is_isomorphic_copy() {
        let g = pcd_gen::classic::clique_ring(3, 4);
        let m = pcd_matching::Matching::empty(g.num_vertices());
        let c = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
        assert_eq!(c.num_new, g.num_vertices());
        assert_eq!(edge_fingerprint(&c.graph), edge_fingerprint(&g));
        assert_eq!(c.graph.self_loops(), g.self_loops());
    }

    #[test]
    fn every_choice_is_bit_identical_on_rmat() {
        // R-MAT's hub rows run well past the insertion cutoff, so the
        // radix passes and the heapsort both run.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(12, 17));
        let m = weighted_matching(&g);
        let (map, num_new) = crate::relabel_from_matching(&g, &m);
        let mut rows = vec![0usize; num_new];
        for (i, j, _) in g.edges() {
            let (a, b) = (map[i as usize], map[j as usize]);
            if a != b {
                rows[canonical_order(a, b).0 as usize] += 1;
            }
        }
        let longest = rows.into_iter().max().unwrap();
        assert!(longest > INSERTION_CUTOFF, "longest row {longest}");
        let reference = contract(&g, &m, CHOICES[0].0, CHOICES[0].1);
        assert_eq!(reference.graph.validate(), Ok(()));
        for (sort, placement) in &CHOICES[1..] {
            let c = contract(&g, &m, *sort, *placement);
            assert_same_bits(&reference, &c, &format!("{sort:?}/{placement:?}"));
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // More edges than `SEQ_CUTOFF`, so the edge passes leave the caller
        // and run one stripe per thread: widths 3 and 8 scatter through
        // three and eight stripes' cursors.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(13, 23));
        assert!(g.num_edges() > par::SEQ_CUTOFF, "{} edges", g.num_edges());
        let m = weighted_matching(&g);
        for (sort, placement) in CHOICES {
            let run = |w| pcd_util::pool::with_threads(w, || contract(&g, &m, sort, placement));
            let c1 = run(1);
            for w in [3, 8] {
                assert_same_bits(&c1, &run(w), &format!("{sort:?}/{placement:?} width {w}"));
            }
        }
    }

    #[test]
    fn rmat_weight_conserved_through_contraction() {
        let p = pcd_gen::RmatParams::paper(10, 5);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m = pcd_matching::match_unmatched_list(&g, &s);
        let c = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
        assert_eq!(c.graph.total_weight(), g.total_weight());
        assert_eq!(c.graph.validate(), Ok(()));
        assert_eq!(c.num_new, g.num_vertices() - m.len());
    }

    #[test]
    fn row_sorts_agree_on_random_rows() {
        let mut rng = 0x243F6A8885A308D3u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [5usize, 25, 64, 300, 1000] {
            for &bound in &[7u32, 200, 70_000, 20_000_000] {
                let dst: Vec<u32> = (0..len).map(|_| (next() as u32) % bound).collect();
                let w: Vec<u64> = (0..len).map(|_| next() % 100 + 1).collect();
                let (mut d1, mut w1) = (dst.clone(), w.clone());
                tandem_sort(&mut d1, &mut w1);
                let n1 = merge_duplicates(&mut d1, &mut w1);
                let (mut d2, mut w2) = (dst.clone(), w.clone());
                let (mut alt_d, mut alt_w) = (vec![0u32; len], vec![0u64; len]);
                let digits = digits_for(bound as usize);
                radix_sort(&mut d2, &mut w2, &mut alt_d, &mut alt_w, digits);
                let n2 = merge_duplicates(&mut d2, &mut w2);
                assert_eq!(n1, n2, "len {len} bound {bound}");
                assert_eq!(&d1[..n1], &d2[..n2], "len {len} bound {bound}");
                assert_eq!(&w1[..n1], &w2[..n2], "len {len} bound {bound}");
                assert!(d1[..n1].windows(2).all(|p| p[0] < p[1]));
            }
        }
    }

    #[test]
    fn merge_duplicates_sums_runs() {
        let mut d = vec![5u32, 3, 5, 3, 9];
        let mut w = vec![1u64, 2, 3, 4, 5];
        tandem_sort(&mut d, &mut w);
        let n = merge_duplicates(&mut d, &mut w);
        assert_eq!(n, 3);
        assert_eq!(&d[..n], &[3, 5, 9]);
        assert_eq!(&w[..n], &[6, 4, 5]);
    }

    #[test]
    fn digits_for_covers_ranges() {
        assert_eq!(digits_for(0), 1);
        assert_eq!(digits_for(1), 1);
        assert_eq!(digits_for(256), 1);
        assert_eq!(digits_for(257), 2);
        assert_eq!(digits_for(1 << 16), 2);
        assert_eq!(digits_for((1 << 16) + 1), 3);
        assert_eq!(digits_for(1 << 24), 3);
        assert_eq!(digits_for((1 << 24) + 1), 4);
    }

    #[test]
    fn contract_map_matches_matching_contraction() {
        // Feeding a matching's relabel map through the map entry point
        // must reproduce the matching's contraction exactly.
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(11, 29));
        let m = weighted_matching(&g);
        let (map, num_new) = crate::relabel_from_matching(&g, &m);
        let via_matching = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
        let mut scratch = ContractScratch::new();
        let via_map = contract_map_into(&g, &map, num_new, &mut scratch, GraphParts::default());
        assert_eq!(via_matching.graph.srcs(), via_map.srcs());
        assert_eq!(via_matching.graph.dsts(), via_map.dsts());
        assert_eq!(via_matching.graph.weights(), via_map.weights());
        assert_eq!(via_matching.graph.self_loops(), via_map.self_loops());
    }

    #[test]
    fn contract_map_star_collapses_to_center() {
        // Star: center 0, leaves 1..=5, every leaf following the center.
        let mut b = pcd_graph::GraphBuilder::new(6);
        for leaf in 1..6u32 {
            b = b.add_edge(0, leaf, leaf as u64);
        }
        let g = b.build();
        let map = vec![0u32; 6];
        let mut scratch = ContractScratch::new();
        let pruned = contract_map_into(&g, &map, 1, &mut scratch, GraphParts::default());
        assert_eq!(pruned.num_vertices(), 1);
        assert_eq!(pruned.num_edges(), 0);
        assert_eq!(pruned.self_loop(0), 1 + 2 + 3 + 4 + 5);
        assert_eq!(pruned.total_weight(), g.total_weight());
        assert_eq!(pruned.validate(), Ok(()));
    }

    #[test]
    fn contract_map_identity_is_isomorphic_copy() {
        let g = pcd_gen::classic::clique_ring(3, 4);
        let map: Vec<u32> = (0..g.num_vertices() as u32).collect();
        let mut scratch = ContractScratch::new();
        let c = contract_map_into(
            &g,
            &map,
            g.num_vertices(),
            &mut scratch,
            GraphParts::default(),
        );
        assert_eq!(edge_fingerprint(&c), edge_fingerprint(&g));
        assert_eq!(c.self_loops(), g.self_loops());
        assert_eq!(c.validate(), Ok(()));
    }
}
