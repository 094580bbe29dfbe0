//! The paper's bucket-sort contraction (§IV-C).
//!
//! Pipeline, all phases parallel:
//!
//! 1. **Relabel** every edge's endpoints to new community ids and
//!    re-canonicalise under the parity hash; edges whose endpoints
//!    coincide fold into the new vertex's self-loop.
//! 2. **Bucket** surviving edges by their new stored-first endpoint.
//!    Placement of buckets in the output array follows one of the two
//!    policies the paper describes (see [`Placement`]).
//! 3. **Sort & accumulate** within each bucket by the second endpoint,
//!    merging duplicate edges and shortening the bucket.
//! 4. **Compact** the shortened buckets into dense storage ("copied back
//!    out into the original graph's storage").

use crate::{contracted_self_loops_into, relabel_into, Contraction};
use pcd_graph::{canonical_order, Graph, GraphParts};
use pcd_matching::Matching;
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{
    as_atomic_u32, as_atomic_u64, as_atomic_usize, AtomicUsize, SendPtr, RELAXED,
};
use pcd_util::VertexId;

use pcd_util::par;

/// Bucket placement policy in the scatter phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Deterministic: per-vertex counts + parallel prefix sum give each
    /// bucket a fixed offset; buckets appear in ascending vertex order.
    /// ("Storing the buckets contiguously requires synchronizing on a
    /// prefix sum.")
    PrefixSum,
    /// Paper-faithful racy variant: buckets claim space with one global
    /// fetch-and-add, in whatever order threads arrive. The resulting
    /// layout is schedule-dependent (the *graph* is the same up to edge
    /// order); the paper notes this needs no synchronisation "beyond an
    /// atomic fetch-and-add".
    FetchAdd,
}

/// Contracts `g` along matching `m` with the default deterministic
/// placement.
pub fn contract(g: &Graph, m: &Matching) -> Contraction {
    contract_with_policy(g, m, Placement::PrefixSum)
}

/// Contracts `g` along matching `m` with an explicit placement policy.
///
/// Owning convenience wrapper over [`contract_into`]: allocates a fresh
/// [`ContractScratch`] and empty output storage per call. The driver's
/// level loop uses [`contract_into`] directly; this entry point stays for
/// ablations, oracles, and one-shot callers.
pub fn contract_with_policy(g: &Graph, m: &Matching, placement: Placement) -> Contraction {
    let mut scratch = ContractScratch::new();
    let (graph, num_new) = contract_into(g, m, placement, &mut scratch, GraphParts::default());
    Contraction {
        graph,
        new_of_old: scratch.take_new_of_old(),
        num_new,
    }
}

/// Reusable working storage for [`contract_into`]: the relabel map and its
/// prefix-sum buffer, the matched-edge bitset, relabelled endpoints, bucket
/// counts/offsets/cursors, the bucketed temp arrays, the radix kernel's
/// ping-pong arena ([`crate::radix`]), and the shortened buckets' offsets.
/// Every buffer is cleared and logically resized per call; capacity only
/// grows, so steady-state contraction allocates nothing.
///
/// `bucket_off` and `final_off` hold `num_new + 1` entries: under
/// prefix-sum placement both are row-offset prefixes ending in their
/// total, which is what lets the per-row passes cut their chunks by row
/// length ([`par::for_each_mut_init_weighted`]).
#[derive(Debug, Default)]
pub struct ContractScratch {
    pub(crate) is_leader: Vec<usize>,
    pub(crate) new_of_old: Vec<VertexId>,
    pub(crate) matched_bits: Vec<u64>,
    pub(crate) new_src: Vec<u32>,
    pub(crate) new_dst: Vec<u32>,
    pub(crate) counts: Vec<usize>,
    pub(crate) bucket_off: Vec<usize>,
    pub(crate) cursor: Vec<usize>,
    pub(crate) tmp_dst: Vec<u32>,
    pub(crate) tmp_w: Vec<u64>,
    pub(crate) radix_dst: Vec<u32>,
    pub(crate) radix_w: Vec<u64>,
    pub(crate) final_off: Vec<usize>,
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

    /// Heap bytes retained by this scratch (capacity, not length) — summed
    /// into the engine's scratch-memory ceiling ledger.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.is_leader.capacity() * size_of::<usize>()
            + self.new_of_old.capacity() * size_of::<VertexId>()
            + self.matched_bits.capacity() * size_of::<u64>()
            + self.new_src.capacity() * size_of::<u32>()
            + self.new_dst.capacity() * size_of::<u32>()
            + self.counts.capacity() * size_of::<usize>()
            + self.bucket_off.capacity() * size_of::<usize>()
            + self.cursor.capacity() * size_of::<usize>()
            + self.tmp_dst.capacity() * size_of::<u32>()
            + self.tmp_w.capacity() * size_of::<u64>()
            + self.radix_dst.capacity() * size_of::<u32>()
            + self.radix_w.capacity() * size_of::<u64>()
            + self.final_off.capacity() * size_of::<usize>()
    }
}

/// Contracts `g` along matching `m`, scattering the result into recycled
/// storage: `parts` supplies the output graph's six arrays (their capacity
/// is reused; contents are overwritten) and `scratch` every intermediate
/// buffer. Returns the contracted graph and `num_new`; the old→new map is
/// left in `scratch` ([`ContractScratch::new_of_old`]).
///
/// The emitted graph is bit-identical to [`contract_with_policy`]'s for
/// either placement policy and any thread count. Total weight is conserved
/// by construction, so the output graph inherits the parent's total
/// without a reduction pass (debug builds re-verify).
pub fn contract_into(
    g: &Graph,
    m: &Matching,
    placement: Placement,
    scratch: &mut ContractScratch,
    mut parts: GraphParts,
) -> (Graph, usize) {
    let ContractScratch {
        is_leader,
        new_of_old,
        matched_bits,
        new_src,
        new_dst,
        counts,
        bucket_off,
        cursor,
        tmp_dst,
        tmp_w,
        radix_dst: _,
        radix_w: _,
        final_off,
    } = scratch;

    let num_new = relabel_into(g, m, is_leader, new_of_old);
    contracted_self_loops_into(g, m, new_of_old, num_new, &mut parts.self_loop);
    let new_of_old: &[VertexId] = new_of_old;

    let ne = g.num_edges();

    // Phase 1: relabel + re-canonicalise. Dead edges (now internal to a new
    // vertex) are marked with NO_VERTEX and their weight folded into the
    // self-loop array. Matched edges were already folded by
    // `contracted_self_loops_into`, so they are simply marked dead here.
    // Membership lives in a bitset: |E|/64 words instead of |E| bools.
    matched_bits.clear();
    matched_bits.resize(ne.div_ceil(64), 0);
    for &e in m.matched_edges() {
        matched_bits[e >> 6] |= 1 << (e & 63);
    }
    let matched = |e: usize| matched_bits[e >> 6] >> (e & 63) & 1 == 1;
    new_src.clear();
    new_src.resize(ne, 0);
    new_dst.clear();
    new_dst.resize(ne, 0);
    {
        let src_c = as_atomic_u32(new_src);
        let dst_c = as_atomic_u32(new_dst);
        let self_c = as_atomic_u64(&mut parts.self_loop);
        par::for_each(ne, |e| {
            // ORDERING: RELAXED suffices for every access in this loop —
            // slot `e` is written by exactly this task (self-loops use
            // fetch_add for the only cross-task accumulation, which needs
            // atomicity but no ordering) and the region's join barrier
            // publishes all writes before the sequential reads below.
            let (i, j, w) = g.edge(e);
            let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
            if ni == nj {
                // Internal to a merged pair. The matched edge itself was
                // already folded; any other coinciding edge folds here.
                if !matched(e) {
                    self_c[ni as usize].fetch_add(w, RELAXED);
                }
                src_c[e].store(pcd_util::NO_VERTEX, RELAXED);
            } else {
                let (a, b) = canonical_order(ni, nj);
                src_c[e].store(a, RELAXED);
                dst_c[e].store(b, RELAXED);
            }
        });
    }
    let new_src: &[u32] = new_src;
    let new_dst: &[u32] = new_dst;

    // Phase 2: size buckets.
    counts.clear();
    counts.resize(num_new, 0);
    {
        let cells = as_atomic_usize(counts);
        par::for_each(ne, |e| {
            let s = new_src[e];
            if s != pcd_util::NO_VERTEX {
                // ORDERING: RELAXED — pure counter increment; atomicity is
                // all that matters and the join barrier publishes totals.
                cells[s as usize].fetch_add(1, RELAXED);
            }
        });
    }
    let counts: &[usize] = counts;
    let live: usize = counts.iter().sum();

    // Bucket offsets per placement policy.
    bucket_off.clear();
    match placement {
        Placement::PrefixSum => {
            bucket_off.resize(num_new + 1, 0);
            bucket_off[..num_new].copy_from_slice(counts);
            exclusive_prefix_sum(bucket_off);
        }
        Placement::FetchAdd => {
            // One global cursor; buckets claim their extent on first touch
            // by any thread, in arrival order.
            // ORDERING: RELAXED — the fetch_add only needs a unique extent
            // (atomicity); each `off[v]` slot has a single writer and is
            // read only after the join barrier publishes it.
            bucket_off.resize(num_new + 1, live);
            let global = AtomicUsize::new(0);
            let off = as_atomic_usize(&mut bucket_off[..num_new]);
            par::for_each(num_new, |v| {
                if counts[v] > 0 {
                    let at = global.fetch_add(counts[v], RELAXED);
                    off[v].store(at, RELAXED);
                } else {
                    off[v].store(0, RELAXED);
                }
            });
        }
    }
    let bucket_off: &[usize] = bucket_off;

    // Phase 2b: scatter into the bucketed temp arrays.
    cursor.clear();
    // analyze: allow(alloc, reason = "copy into a recycled scratch buffer; capacity amortizes to the level ceiling")
    cursor.extend_from_slice(&bucket_off[..num_new]);
    tmp_dst.clear();
    tmp_dst.resize(live, 0);
    tmp_w.clear();
    tmp_w.resize(live, 0);
    {
        let cur = as_atomic_usize(cursor);
        let dst_c = as_atomic_u32(tmp_dst);
        let w_c = as_atomic_u64(tmp_w);
        par::for_each(ne, |e| {
            let s = new_src[e];
            if s != pcd_util::NO_VERTEX {
                // ORDERING: RELAXED — fetch_add hands each task a distinct
                // `pos`, so the stores have one writer per slot; the join
                // barrier publishes them to the dedup pass that follows.
                let pos = cur[s as usize].fetch_add(1, RELAXED);
                dst_c[pos].store(new_dst[e], RELAXED);
                w_c[pos].store(g.weights()[e], RELAXED);
            }
        });
    }

    // Phase 3: per-bucket sort + accumulate (shortening buckets), each
    // bucket's shortened length landing in `final_off[v]`. Buckets are
    // disjoint ranges of tmp arrays; raw-pointer access is safe. Under
    // prefix-sum placement the offsets are a prefix of bucket lengths, so
    // chunks are cut by bucket length; fetch-and-add extents are not.
    final_off.clear();
    final_off.resize(num_new + 1, 0);
    {
        let dst_ptr = SendPtr(tmp_dst.as_mut_ptr());
        let w_ptr = SendPtr(tmp_w.as_mut_ptr());
        let shorten = |v: usize, u: &mut usize| {
            let (b, len) = (bucket_off[v], counts[v]);
            if len == 0 {
                return;
            }
            let (dst_ptr, w_ptr) = (&dst_ptr, &w_ptr);
            // SAFETY: `bucket_off` is the exclusive prefix sum of
            // `counts` (or the FetchAdd equivalent: disjoint extents
            // claimed off one cursor), so each vertex's range
            // `[b, b + len)` is disjoint from every other task's and
            // in-bounds for the bucket arrays; the arrays are exclusively
            // borrowed for the duration of the parallel region.
            unsafe {
                let d = std::slice::from_raw_parts_mut(dst_ptr.0.add(b), len);
                let w = std::slice::from_raw_parts_mut(w_ptr.0.add(b), len);
                *u = sort_accumulate(d, w);
            }
        };
        let rows = &mut final_off[..num_new];
        match placement {
            Placement::PrefixSum => {
                par::for_each_mut_init_weighted(rows, bucket_off, || (), |_, v, u| shorten(v, u))
            }
            Placement::FetchAdd => par::for_each_mut(rows, shorten),
        }
    }
    let tmp_dst: &[u32] = tmp_dst;
    let tmp_w: &[u64] = tmp_w;

    // Phase 4: compact shortened buckets into dense final storage. The
    // final bucket order matches the placement policy's bucket order.
    exclusive_prefix_sum(final_off);
    compact_rows(bucket_off, final_off, tmp_dst, tmp_w, &mut parts);

    // Contraction conserves Σw + Σself exactly, so the parent's total
    // carries over; debug builds re-verify inside `from_recycled_parts`.
    let graph = Graph::from_recycled_parts(num_new, parts, g.total_weight());
    (graph, num_new)
}

/// Phase 4, shared with the radix kernel: copies row `v`'s first
/// `final_off[v + 1] - final_off[v]` entries, starting at `from_off[v]`
/// in the bucketed arrays, to `final_off[v]` in dense storage, and sets
/// the output rows' bounds. Chunks are cut by output row length.
pub(crate) fn compact_rows(
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

/// Sorts a bucket by destination and accumulates duplicate destinations in
/// place; returns the number of unique entries (the shortened length).
///
/// The sort is a tandem in-place sort (insertion sort for short buckets,
/// heapsort above that) that swaps `dst` and `w` together — no permutation
/// buffer, no heap allocation, O(1) extra space. Equal destinations may
/// land in any relative order, but their weights are summed with exact
/// integer addition, so the accumulated output is order-independent.
pub(crate) fn sort_accumulate(dst: &mut [u32], w: &mut [u64]) -> usize {
    let len = dst.len();
    if len == 0 {
        return 0;
    }
    tandem_sort(dst, w);
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

/// Insertion-sort cutoff for [`tandem_sort`]; buckets at or below this
/// length skip the heap machinery.
const TANDEM_INSERTION_CUTOFF: usize = 24;

/// Sorts `dst` ascending, applying the identical permutation to `w`,
/// entirely in place.
fn tandem_sort(dst: &mut [u32], w: &mut [u64]) {
    let n = dst.len();
    if n <= TANDEM_INSERTION_CUTOFF {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_fingerprint;
    use pcd_matching::seq::match_sequential_greedy;

    fn contract_uniform(g: &Graph) -> Contraction {
        let s = vec![1.0; g.num_edges()];
        let m = match_sequential_greedy(g, &s);
        contract(g, &m)
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
        let c = contract(&g, &m);
        assert_eq!(c.num_new, 2);
        assert_eq!(c.graph.num_edges(), 1);
        assert_eq!(c.graph.weights(), &[2]);
        assert_eq!(c.graph.total_weight(), g.total_weight());
    }

    #[test]
    fn empty_matching_is_isomorphic_copy() {
        let g = pcd_gen::classic::clique_ring(3, 4);
        let m = pcd_matching::Matching::empty(g.num_vertices());
        let c = contract(&g, &m);
        assert_eq!(c.num_new, g.num_vertices());
        assert_eq!(edge_fingerprint(&c.graph), edge_fingerprint(&g));
        assert_eq!(c.graph.self_loops(), g.self_loops());
    }

    #[test]
    fn fetch_add_placement_same_graph() {
        let p = pcd_gen::RmatParams::paper(9, 17);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m = match_sequential_greedy(&g, &s);
        let a = contract_with_policy(&g, &m, Placement::PrefixSum);
        let b = contract_with_policy(&g, &m, Placement::FetchAdd);
        assert_eq!(a.num_new, b.num_new);
        assert_eq!(edge_fingerprint(&a.graph), edge_fingerprint(&b.graph));
        assert_eq!(a.graph.self_loops(), b.graph.self_loops());
        assert_eq!(b.graph.validate(), Ok(()));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = pcd_gen::RmatParams::paper(9, 23);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m = match_sequential_greedy(&g, &s);
        let c1 = pcd_util::pool::with_threads(1, || contract(&g, &m));
        let c4 = pcd_util::pool::with_threads(4, || contract(&g, &m));
        assert_eq!(c1.graph.srcs(), c4.graph.srcs());
        assert_eq!(c1.graph.dsts(), c4.graph.dsts());
        assert_eq!(c1.graph.weights(), c4.graph.weights());
        assert_eq!(c1.new_of_old, c4.new_of_old);
    }

    #[test]
    fn rmat_weight_conserved_through_contraction() {
        let p = pcd_gen::RmatParams::paper(10, 5);
        let g = pcd_gen::rmat_graph(&p);
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        let m = pcd_matching::match_unmatched_list(&g, &s);
        let c = contract(&g, &m);
        assert_eq!(c.graph.total_weight(), g.total_weight());
        assert_eq!(c.graph.validate(), Ok(()));
        assert_eq!(c.num_new, g.num_vertices() - m.len());
    }

    #[test]
    fn sort_accumulate_merges_runs() {
        let mut d = vec![5u32, 3, 5, 3, 9];
        let mut w = vec![1u64, 2, 3, 4, 5];
        let n = sort_accumulate(&mut d, &mut w);
        assert_eq!(n, 3);
        assert_eq!(&d[..n], &[3, 5, 9]);
        assert_eq!(&w[..n], &[6, 4, 5]);
    }
}
