//! Counting/radix-sort contraction — the profile-driven rewrite of the
//! bucket kernel's hot path (DESIGN.md §15).
//!
//! The pipeline shares the bucket kernel's shape — relabel, histogram,
//! scatter, per-row accumulate, compact — but replaces the two spots the
//! profile blames:
//!
//! * **Placement** is always the deterministic exclusive prefix sum over
//!   new-source degrees (never the racy global fetch-and-add), and the
//!   scatter walks the edge array in fixed cache-sized blocks so each
//!   task's reads of `new_src`/`new_dst`/`weights` stay streaming.
//! * **Per-row accumulation** of parallel edges uses a stable LSD
//!   counting sort over 8-bit digits of the destination id (ping-ponging
//!   between the row's slice of the scatter arena and its slice of a
//!   dedicated radix arena) instead of the comparison heapsort, then a
//!   single linear merge of equal destinations. Rows at or below the
//!   tandem insertion cutoff fall back to the bucket kernel's
//!   insertion-sort path — a counting pass cannot beat it there.
//!
//! Output is **bit-identical** to [`bucket::contract_into`] with
//! [`Placement::PrefixSum`] for any thread count: rows land at the same
//! prefix-sum offsets in ascending new-source order, destinations within a
//! row ascend, and duplicate weights merge by exact integer addition
//! (order-independent). `tests/dispatch_parity.rs` holds this to zero bits
//! across the matcher/scorer cross-product.
//!
//! [`contract_map_into`] generalises the same pipeline from a matching to
//! an arbitrary old→new vertex map (many-to-one, not just pair merges) —
//! the engine's vertex-following pre-pass contracts whole hair bundles
//! through it in one shot.

use crate::bucket::{self, compact_rows, sort_accumulate, ContractScratch, Placement};
use crate::{relabel_into, Contraction};
use pcd_graph::{canonical_order, Graph, GraphParts};
use pcd_matching::Matching;
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{as_atomic_u32, as_atomic_u64, as_atomic_usize, SendPtr, RELAXED};
use pcd_util::VertexId;

use pcd_util::par;

/// Below this many parent edges the whole contraction delegates to
/// [`bucket::contract_into`] (prefix-sum placement): the outputs are
/// bit-identical, and at this scale the bucket kernel's smaller constant
/// factors win over the radix arena bookkeeping.
pub const RADIX_FALLBACK_EDGES: usize = 1 << 12;

/// Rows at or below this length use the bucket kernel's tandem insertion
/// sort; longer rows take the LSD counting passes. Matches the bucket
/// kernel's insertion cutoff so the radix kernel never runs a heapsort.
pub const RADIX_ROW_CUTOFF: usize = 24;

/// Edge-block length for the cache-blocked scatter: each task claims one
/// contiguous block of the relabelled edge arrays, so its reads stream
/// and only the per-bucket cursor bumps go through shared cache lines.
const SCATTER_BLOCK: usize = 1 << 12;

/// Contracts `g` along matching `m` — owning convenience wrapper over
/// [`contract_into`] for ablations, oracles, and one-shot callers.
pub fn contract(g: &Graph, m: &Matching) -> Contraction {
    let mut scratch = ContractScratch::new();
    let (graph, num_new) = contract_into(g, m, &mut scratch, GraphParts::default());
    Contraction {
        graph,
        new_of_old: scratch.take_new_of_old(),
        num_new,
    }
}

/// Contracts `g` along matching `m` with the radix pipeline, scattering
/// into recycled storage. Same contract as [`bucket::contract_into`]: the
/// old→new map is left in `scratch`, the returned graph is bit-identical
/// to the bucket kernel's for any thread count.
pub fn contract_into(
    g: &Graph,
    m: &Matching,
    scratch: &mut ContractScratch,
    parts: GraphParts,
) -> (Graph, usize) {
    if g.num_edges() < RADIX_FALLBACK_EDGES {
        return bucket::contract_into(g, m, Placement::PrefixSum, scratch, parts);
    }
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
        radix_dst,
        radix_w,
        final_off,
    } = scratch;

    let num_new = relabel_into(g, m, is_leader, new_of_old);
    let mut parts = parts;
    crate::contracted_self_loops_into(g, m, new_of_old, num_new, &mut parts.self_loop);

    // Phase 1 (matched variant): relabel + re-canonicalise; matched edges
    // were already folded by `contracted_self_loops_into`, so only
    // *unmatched* coinciding edges fold here. Identical to the bucket
    // kernel's phase 1.
    let ne = g.num_edges();
    matched_bits.clear();
    matched_bits.resize(ne.div_ceil(64), 0);
    for &e in m.matched_edges() {
        matched_bits[e >> 6] |= 1 << (e & 63);
    }
    relabel_edges(
        g,
        new_of_old,
        Some(matched_bits.as_slice()),
        new_src,
        new_dst,
        &mut parts.self_loop,
    );

    let graph = contract_relabelled(
        g, num_new, new_src, new_dst, counts, bucket_off, cursor, tmp_dst, tmp_w, radix_dst,
        radix_w, final_off, parts,
    );
    (graph, num_new)
}

/// Contracts `g` through an arbitrary old→new vertex map: every old vertex
/// maps somewhere in `[0, num_new)`, and any number of old vertices may
/// share a new id (unlike a matching's pair merges). Edges whose endpoints
/// coincide under the map fold into the new vertex's self-loop, as do all
/// old self-loops. Returns the contracted graph; `new_of_old` is the
/// caller's (it is *not* deposited in `scratch`).
///
/// This is the vertex-following pre-pass's workhorse: a whole star of
/// degree-1 hair contracts into its center in one call.
pub fn contract_map_into(
    g: &Graph,
    new_of_old: &[VertexId],
    num_new: usize,
    scratch: &mut ContractScratch,
    parts: GraphParts,
) -> Graph {
    assert_eq!(new_of_old.len(), g.num_vertices());
    let ContractScratch {
        new_src,
        new_dst,
        counts,
        bucket_off,
        cursor,
        tmp_dst,
        tmp_w,
        radix_dst,
        radix_w,
        final_off,
        ..
    } = scratch;

    let mut parts = parts;
    // Old self-loops fold through the map; coinciding edges fold in the
    // relabel pass below (there is no pre-folded matched edge here).
    parts.self_loop.clear();
    parts.self_loop.resize(num_new, 0);
    {
        let cells = as_atomic_u64(&mut parts.self_loop);
        par::for_each(g.num_vertices(), |v| {
            let s = g.self_loop(v as u32);
            if s > 0 {
                // ORDERING: RELAXED — pure weight accumulation (atomicity
                // only); the join barrier publishes the totals.
                cells[new_of_old[v] as usize].fetch_add(s, RELAXED);
            }
        });
    }
    relabel_edges(g, new_of_old, None, new_src, new_dst, &mut parts.self_loop);

    contract_relabelled(
        g, num_new, new_src, new_dst, counts, bucket_off, cursor, tmp_dst, tmp_w, radix_dst,
        radix_w, final_off, parts,
    )
}

/// Phase 1: maps every edge's endpoints through `new_of_old` and
/// re-canonicalises under the parity hash. Coinciding endpoints mark the
/// edge dead (`NO_VERTEX` in `new_src`) and fold its weight into the new
/// vertex's self-loop — except edges flagged in `matched_bits`, whose
/// weight the caller already folded.
fn relabel_edges(
    g: &Graph,
    new_of_old: &[VertexId],
    matched_bits: Option<&[u64]>,
    new_src: &mut Vec<u32>,
    new_dst: &mut Vec<u32>,
    self_loop: &mut [u64],
) {
    let ne = g.num_edges();
    new_src.clear();
    new_src.resize(ne, 0);
    new_dst.clear();
    new_dst.resize(ne, 0);
    let src_c = as_atomic_u32(new_src);
    let dst_c = as_atomic_u32(new_dst);
    let self_c = as_atomic_u64(self_loop);
    par::for_each(ne, |e| {
        // ORDERING: RELAXED — slot `e` has exactly one writer (the
        // self-loop fetch_add is the only cross-task accumulation and
        // needs atomicity only); the join barrier publishes everything to
        // the sequential reads that follow.
        let (i, j, w) = g.edge(e);
        let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
        if ni == nj {
            let already_folded = matched_bits
                .map(|bits| bits[e >> 6] >> (e & 63) & 1 == 1)
                .unwrap_or(false);
            if !already_folded {
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

/// Phases 2–4 over already-relabelled endpoints: histogram new-source
/// degrees, exclusive prefix-sum into row offsets, cache-blocked scatter,
/// per-row radix/counting accumulation, and compaction into dense final
/// storage. `parts.self_loop` must already hold the folded self-loops.
#[allow(clippy::too_many_arguments)]
fn contract_relabelled(
    g: &Graph,
    num_new: usize,
    new_src: &[u32],
    new_dst: &[u32],
    counts: &mut Vec<usize>,
    bucket_off: &mut Vec<usize>,
    cursor: &mut Vec<usize>,
    tmp_dst: &mut Vec<u32>,
    tmp_w: &mut Vec<u64>,
    radix_dst: &mut Vec<u32>,
    radix_w: &mut Vec<u64>,
    final_off: &mut Vec<usize>,
    mut parts: GraphParts,
) -> Graph {
    let ne = g.num_edges();

    // Phase 2: histogram new-source degrees.
    counts.clear();
    counts.resize(num_new, 0);
    {
        let cells = as_atomic_usize(counts);
        par::for_each(ne, |e| {
            let s = new_src[e];
            if s != pcd_util::NO_VERTEX {
                // ORDERING: RELAXED — pure counter increment; the join
                // barrier publishes the totals.
                cells[s as usize].fetch_add(1, RELAXED);
            }
        });
    }
    let counts: &[usize] = counts;
    let live: usize = counts.iter().sum();

    // Exclusive prefix sum gives every row a fixed, schedule-independent
    // offset — the fetch-and-add placement the paper shrugs at is strictly
    // worse here: it costs the same pass and surrenders determinism.
    // The trailing entry holds the total, so the offsets are also the
    // per-row work prefix that the row passes below cut chunks by.
    bucket_off.clear();
    bucket_off.resize(num_new + 1, 0);
    bucket_off[..num_new].copy_from_slice(counts);
    exclusive_prefix_sum(bucket_off);
    let bucket_off: &[usize] = bucket_off;

    // Phase 2b: cache-blocked scatter. Each task owns one contiguous
    // block of the edge arrays, so reads stream; within-row order is
    // schedule-dependent (per-row cursors race), which the per-row sort
    // below erases.
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
        let weights = g.weights();
        par::for_ranges(new_src.len(), SCATTER_BLOCK, |_, range| {
            let base = range.start;
            for (k, &s) in new_src[range].iter().enumerate() {
                if s != pcd_util::NO_VERTEX {
                    let e = base + k;
                    // ORDERING: RELAXED — fetch_add hands each edge a
                    // distinct `pos`, so the stores have one writer per
                    // slot; the join barrier publishes them to the
                    // per-row sort that follows.
                    let pos = cur[s as usize].fetch_add(1, RELAXED);
                    dst_c[pos].store(new_dst[e], RELAXED);
                    w_c[pos].store(weights[e], RELAXED);
                }
            }
        });
    }

    // Phase 3: per-row accumulate. Short rows take the tandem insertion
    // path; long rows take stable LSD counting passes over the digits a
    // destination id can actually occupy, ping-ponging between the row's
    // slice of the scatter arena and its slice of the radix arena. Each
    // row's shortened length lands in `final_off[v]`; chunks are cut by
    // row length.
    radix_dst.clear();
    radix_dst.resize(live, 0);
    radix_w.clear();
    radix_w.resize(live, 0);
    let digits = digits_for(num_new);
    final_off.clear();
    final_off.resize(num_new + 1, 0);
    {
        let dst_ptr = SendPtr(tmp_dst.as_mut_ptr());
        let w_ptr = SendPtr(tmp_w.as_mut_ptr());
        let alt_dst_ptr = SendPtr(radix_dst.as_mut_ptr());
        let alt_w_ptr = SendPtr(radix_w.as_mut_ptr());
        par::for_each_mut_init_weighted(
            &mut final_off[..num_new],
            bucket_off,
            || (),
            |_, v, u| {
                let (b, len) = (bucket_off[v], counts[v]);
                if len == 0 {
                    return;
                }
                let (dst_ptr, w_ptr) = (&dst_ptr, &w_ptr);
                let (alt_dst_ptr, alt_w_ptr) = (&alt_dst_ptr, &alt_w_ptr);
                // SAFETY: `bucket_off` is the exclusive prefix sum of
                // `counts`, so each row's range `[b, b + len)` is disjoint
                // from every other task's and in-bounds for all four arenas
                // (each sized `live`); the arenas are exclusively borrowed
                // for the duration of the parallel region.
                unsafe {
                    let d = std::slice::from_raw_parts_mut(dst_ptr.0.add(b), len);
                    let w = std::slice::from_raw_parts_mut(w_ptr.0.add(b), len);
                    *u = if len <= RADIX_ROW_CUTOFF {
                        sort_accumulate(d, w)
                    } else {
                        let alt_d = std::slice::from_raw_parts_mut(alt_dst_ptr.0.add(b), len);
                        let alt_w = std::slice::from_raw_parts_mut(alt_w_ptr.0.add(b), len);
                        radix_accumulate(d, w, alt_d, alt_w, digits)
                    };
                }
            },
        );
    }

    // Phase 4: compact shortened rows into dense final storage — the
    // bucket kernel's compaction, byte for byte.
    exclusive_prefix_sum(final_off);
    compact_rows(bucket_off, final_off, tmp_dst, tmp_w, &mut parts);

    // Contraction conserves Σw + Σself exactly, so the parent's total
    // carries over; debug builds re-verify inside `from_recycled_parts`.
    Graph::from_recycled_parts(num_new, parts, g.total_weight())
}

/// How many 8-bit digits a destination id below `num_new` can occupy.
fn digits_for(num_new: usize) -> u32 {
    let bits = usize::BITS - num_new.saturating_sub(1).leading_zeros();
    bits.div_ceil(8).max(1)
}

/// Sorts one row ascending by destination with a stable LSD counting sort
/// over 8-bit digits (skipping passes where every key shares the digit),
/// then merges duplicate destinations in place; returns the shortened
/// length. The histograms live on the stack — no allocation.
fn radix_accumulate(
    dst: &mut [u32],
    w: &mut [u64],
    alt_dst: &mut [u32],
    alt_w: &mut [u64],
    digits: u32,
) -> usize {
    let len = dst.len();
    debug_assert!(len > 0 && alt_dst.len() == len && alt_w.len() == len);
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
    // Linear merge of equal destinations (already adjacent and ascending).
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
        dst[out] = d;
        w[out] = acc;
        out += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_fingerprint;
    use pcd_matching::seq::match_sequential_greedy;

    fn weighted_matching(g: &Graph) -> Matching {
        let s: Vec<f64> = g.weights().iter().map(|&w| w as f64).collect();
        match_sequential_greedy(g, &s)
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
    fn radix_accumulate_matches_sort_accumulate() {
        let mut rng = 0x243F6A8885A308D3u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for len in [25usize, 64, 300, 1000] {
            for &bound in &[7u32, 200, 70_000, 20_000_000] {
                let dst: Vec<u32> = (0..len).map(|_| (next() as u32) % bound).collect();
                let w: Vec<u64> = (0..len).map(|_| next() % 100 + 1).collect();
                let (mut d1, mut w1) = (dst.clone(), w.clone());
                let n1 = sort_accumulate(&mut d1, &mut w1);
                let (mut d2, mut w2) = (dst.clone(), w.clone());
                let mut alt_d = vec![0u32; len];
                let mut alt_w = vec![0u64; len];
                let n2 = radix_accumulate(
                    &mut d2,
                    &mut w2,
                    &mut alt_d,
                    &mut alt_w,
                    digits_for(bound as usize),
                );
                assert_eq!(n1, n2, "len {len} bound {bound}");
                assert_eq!(&d1[..n1], &d2[..n2], "len {len} bound {bound}");
                assert_eq!(&w1[..n1], &w2[..n2], "len {len} bound {bound}");
            }
        }
    }

    #[test]
    fn bit_identical_to_bucket_prefix_sum_on_rmat() {
        // Above the fallback cutoff so the radix pipeline actually runs.
        let p = pcd_gen::RmatParams::paper(12, 17);
        let g = pcd_gen::rmat_graph(&p);
        assert!(g.num_edges() >= RADIX_FALLBACK_EDGES);
        let m = weighted_matching(&g);
        let a = bucket::contract_with_policy(&g, &m, Placement::PrefixSum);
        let b = contract(&g, &m);
        assert_eq!(a.num_new, b.num_new);
        assert_eq!(a.new_of_old, b.new_of_old);
        assert_eq!(a.graph.srcs(), b.graph.srcs());
        assert_eq!(a.graph.dsts(), b.graph.dsts());
        assert_eq!(a.graph.weights(), b.graph.weights());
        assert_eq!(a.graph.self_loops(), b.graph.self_loops());
        assert_eq!(b.graph.validate(), Ok(()));
    }

    #[test]
    fn small_graphs_delegate_and_agree() {
        let g = pcd_gen::classic::clique_ring(4, 5);
        let m = weighted_matching(&g);
        let a = bucket::contract(&g, &m);
        let b = contract(&g, &m);
        assert_eq!(edge_fingerprint(&a.graph), edge_fingerprint(&b.graph));
        assert_eq!(a.new_of_old, b.new_of_old);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = pcd_gen::RmatParams::paper(12, 23);
        let g = pcd_gen::rmat_graph(&p);
        let m = weighted_matching(&g);
        let c1 = pcd_util::pool::with_threads(1, || contract(&g, &m));
        let c4 = pcd_util::pool::with_threads(4, || contract(&g, &m));
        assert_eq!(c1.graph.srcs(), c4.graph.srcs());
        assert_eq!(c1.graph.dsts(), c4.graph.dsts());
        assert_eq!(c1.graph.weights(), c4.graph.weights());
        assert_eq!(c1.new_of_old, c4.new_of_old);
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

    #[test]
    fn contract_map_matches_matching_contraction() {
        // Feeding a matching's relabel map through the generic path must
        // reproduce the matching-based contraction exactly.
        let p = pcd_gen::RmatParams::paper(11, 29);
        let g = pcd_gen::rmat_graph(&p);
        let m = weighted_matching(&g);
        let (map, num_new) = crate::relabel_from_matching(&g, &m);
        let via_matching = contract(&g, &m);
        let mut scratch = ContractScratch::new();
        let via_map = contract_map_into(&g, &map, num_new, &mut scratch, GraphParts::default());
        assert_eq!(via_matching.graph.srcs(), via_map.srcs());
        assert_eq!(via_matching.graph.dsts(), via_map.dsts());
        assert_eq!(via_matching.graph.weights(), via_map.weights());
        assert_eq!(via_matching.graph.self_loops(), via_map.self_loops());
    }
}
