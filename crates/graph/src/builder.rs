//! Graph construction: canonicalise, sort, accumulate duplicates.
//!
//! The paper "accumulate\[s\] repeated edges by adding their weights" when
//! ingesting R-MAT output. [`from_edges`] does this wholesale: parallel
//! passes check the entries, fold self-loops into their vertex and put
//! every other pair in the parity-hash canonical order; one sequential
//! `sort_unstable` orders them by stored endpoint pair; and parallel passes
//! over fixed chunks of the sorted entries sum each run of equal pairs into
//! one edge and cut the contiguous buckets from the sorted sources. The
//! result is deterministic for any thread count.

use crate::{canonical_order, Graph};
use pcd_util::par;
use pcd_util::scan::exclusive_prefix_sum;
use pcd_util::sync::{as_atomic_u32, as_atomic_u64, as_atomic_usize, RELAXED};
use pcd_util::{PcdError, VertexId, Weight, NO_VERTEX};

/// One input entry: two endpoints and a weight.
type Entry = (VertexId, VertexId, Weight);

/// What a self-loop or zero-weight entry becomes once folded: its key
/// sorts after every real pair, whose ids are below `nv <= u32::MAX`.
const DROPPED: Entry = (NO_VERTEX, NO_VERTEX, 0);

/// Sorted entries per chunk of the run reduction.
const RUN_CHUNK: usize = 1 << 12;

/// Incremental builder for small / test graphs. For bulk ingest use
/// [`from_edges`], which this delegates to.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nv: usize,
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Starts a builder over `nv` vertices.
    pub fn new(nv: usize) -> Self {
        GraphBuilder {
            nv,
            edges: Vec::new(),
        }
    }

    /// Adds an edge; `i == j` is routed to the self-loop array, duplicates
    /// accumulate weight at build time.
    #[must_use]
    pub fn add_edge(mut self, i: VertexId, j: VertexId, w: Weight) -> Self {
        self.edges.push((i, j, w));
        self
    }

    /// Adds weight inside vertex `v` (a self-loop).
    #[must_use]
    pub fn add_self_loop(self, v: VertexId, w: Weight) -> Self {
        self.add_edge(v, v, w)
    }

    /// Adds unit-weight edges from an iterator of pairs.
    #[must_use]
    pub fn add_pairs(mut self, pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(pairs.into_iter().map(|(i, j)| (i, j, 1)));
        self
    }

    /// Finalises into a validated [`Graph`].
    pub fn build(self) -> Graph {
        from_edges(self.nv, self.edges)
    }
}

/// Builds a [`Graph`] from an arbitrary multiset of weighted edges.
///
/// Trusted-input entry point: panics on out-of-range endpoints or a total
/// weight overflowing [`Weight`]. Untrusted paths (file readers, network
/// ingest) must use [`try_from_edges`].
///
/// * self-pairs (`i == j`) accumulate into the self-loop array;
/// * parallel/duplicate edges accumulate their weights;
/// * zero-weight entries are dropped;
/// * buckets come out contiguous and sorted by `(src, dst)`.
pub fn from_edges(nv: usize, edges: Vec<(VertexId, VertexId, Weight)>) -> Graph {
    // analyze: allow(panic, reason = "documented trusted-input twin of try_from_edges (see doc comment)")
    try_from_edges(nv, edges).unwrap_or_else(|e| panic!("from_edges: {e}"))
}

/// Fallible [`from_edges`] for untrusted input: rejects out-of-range
/// endpoints and edge multisets whose total weight would overflow the
/// graph's [`Weight`] accumulator, instead of panicking or silently
/// wrapping.
pub fn try_from_edges(
    nv: usize,
    mut edges: Vec<(VertexId, VertexId, Weight)>,
) -> Result<Graph, PcdError> {
    if nv > u32::MAX as usize {
        return Err(PcdError::corrupt(format!(
            "vertex count {nv} exceeds the u32 id space"
        )));
    }
    let out_of_range = |&(i, j, _): &Entry| i as usize >= nv || j as usize >= nv;
    let bad = if par::any(edges.len(), |e| out_of_range(&edges[e])) {
        edges.iter().find(|e| out_of_range(e))
    } else {
        None
    };
    if let Some(&(i, j, _)) = bad {
        return Err(PcdError::corrupt(format!(
            "edge ({i}, {j}) endpoint out of range for {nv} vertices"
        )));
    }
    // The graph stores `total_weight = Σ w` in one u64; a hostile edge
    // list must not be able to wrap it. No u128 sum of a `Vec`'s u64s
    // can wrap.
    let total: u128 = par::sum(edges.len(), |e| u128::from(edges[e].2));
    if total > u128::from(Weight::MAX) {
        return Err(PcdError::corrupt(
            "total edge weight overflows the u64 accumulator",
        ));
    }

    // Fold self-loops into their vertex and canonicalise the rest in
    // place; folded and zero-weight entries become `DROPPED`, which the
    // sort moves past every kept pair. So a graph's stored edges followed
    // by its self-loops, the order `io::write_edge_list` writes, are
    // still sorted, which the sort finds in one pass.
    let mut self_loop: Vec<Weight> = per_vertex(nv)?;
    {
        let loops = as_atomic_u64(&mut self_loop);
        par::for_each_mut(&mut edges, |_, e| {
            let (i, j, w) = *e;
            *e = if w == 0 {
                DROPPED
            } else if i == j {
                // ORDERING: RELAXED — a commutative sum whose order does
                // not change its value; the join publishes the array.
                loops[i as usize].fetch_add(w, RELAXED);
                DROPPED
            } else {
                let (a, b) = canonical_order(i, j);
                (a, b, w)
            };
        });
    }

    edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
    let kept = edges.partition_point(|&(a, _, _)| a != NO_VERTEX);
    let (src, dst, weight) = sum_runs(&edges[..kept]);
    drop(edges);

    // Sorted by src, so vertex `v`'s bucket is the run of edges whose
    // source is `v`, starting where the sources below `v` end.
    let mut bucket_begin: Vec<usize> = per_vertex(nv)?;
    par::for_each_mut(&mut bucket_begin, |v, b| {
        *b = src.partition_point(|&s| (s as usize) < v);
    });
    let mut bucket_end: Vec<usize> = per_vertex(nv)?;
    par::for_each_mut(&mut bucket_end, |v, e| {
        *e = bucket_begin.get(v + 1).copied().unwrap_or(src.len());
    });

    Ok(Graph::from_parts(
        nv,
        src,
        dst,
        weight,
        bucket_begin,
        bucket_end,
        self_loop,
    ))
}

/// A zeroed array of one entry per vertex. An edge list names its vertex
/// count through its largest id, so one huge id must come back as an
/// error rather than abort the process when the allocation fails.
fn per_vertex<T: Clone + Default>(nv: usize) -> Result<Vec<T>, PcdError> {
    let mut out = Vec::new();
    out.try_reserve_exact(nv).map_err(|_| {
        PcdError::corrupt(format!(
            "cannot allocate the per-vertex arrays of {nv} vertices"
        ))
    })?;
    out.resize(nv, T::default());
    Ok(out)
}

/// Segmented reduction over sorted entries: each run of equal `(src,
/// dst)` pairs becomes one edge carrying the run's summed weight, in
/// order. Fixed chunks count the runs whose first entry they hold, a
/// prefix sum over the counts gives each chunk its first output slot, and
/// the chunk holding a run's first entry sums the run and writes it, so
/// the output does not depend on the width.
fn sum_runs(sorted: &[Entry]) -> (Vec<VertexId>, Vec<VertexId>, Vec<Weight>) {
    let n = sorted.len();
    let key = |e: usize| (sorted[e].0, sorted[e].1);
    let head = |e: usize| e == 0 || key(e - 1) != key(e);
    let mut first = vec![0usize; n.div_ceil(RUN_CHUNK)];
    {
        let counts = as_atomic_usize(&mut first);
        par::for_ranges(n, RUN_CHUNK, |c, r| {
            // ORDERING: RELAXED — each chunk stores only its own count;
            // the region's join publishes them to the prefix sum.
            counts[c].store(r.filter(|&e| head(e)).count(), RELAXED);
        });
    }
    let runs = exclusive_prefix_sum(&mut first);
    let (mut src, mut dst, mut weight) = (vec![0; runs], vec![0; runs], vec![0; runs]);
    {
        let (src_c, dst_c, w_c) = (
            as_atomic_u32(&mut src),
            as_atomic_u32(&mut dst),
            as_atomic_u64(&mut weight),
        );
        par::for_ranges(n, RUN_CHUNK, |c, r| {
            let mut at = first[c];
            // Entries before the chunk's first head belong to a run an
            // earlier chunk sums.
            let mut e = r.clone().find(|&e| head(e)).unwrap_or(r.end);
            while e < r.end {
                let (a, b, mut w) = sorted[e];
                e += 1;
                while e < n && key(e) == (a, b) {
                    w += sorted[e].2;
                    e += 1;
                }
                // ORDERING: RELAXED — slot `at` has one writer, the chunk
                // holding its run's head; the join publishes the arrays.
                src_c[at].store(a, RELAXED);
                dst_c[at].store(b, RELAXED);
                w_c[at].store(w, RELAXED);
                at += 1;
            }
        });
    }
    (src, dst, weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let g = from_edges(4, vec![(0, 1, 1), (1, 0, 2), (0, 1, 3), (2, 3, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_weight(), 7);
        let stored: Vec<_> = g.edges().collect();
        // 0,1 mixed parity -> (1,0); 2,3 mixed parity -> (3,2)
        assert!(stored.contains(&(1, 0, 6)));
        assert!(stored.contains(&(3, 2, 1)));
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn self_loops_split_out() {
        let g = from_edges(3, vec![(0, 0, 5), (1, 2, 1), (0, 0, 2)]);
        assert_eq!(g.self_loop(0), 7);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_weight(), 8);
    }

    #[test]
    fn zero_weights_dropped() {
        let g = from_edges(2, vec![(0, 1, 0)]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_weight(), 0);
    }

    #[test]
    fn empty_input() {
        let g = from_edges(0, vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn builder_matches_bulk() {
        let a = GraphBuilder::new(4)
            .add_edge(0, 1, 2)
            .add_edge(2, 3, 1)
            .add_self_loop(1, 4)
            .build();
        let b = from_edges(4, vec![(0, 1, 2), (2, 3, 1), (1, 1, 4)]);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.total_weight(), b.total_weight());
        assert_eq!(a.self_loops(), b.self_loops());
    }

    #[test]
    fn large_random_builds_valid() {
        let mut rng = pcd_util::rng::ChaCha8Rng::seed_from_u64(1);
        let nv = 500usize;
        let edges: Vec<_> = (0..20_000)
            .map(|_| {
                (
                    rng.gen_range(0..nv as u32),
                    rng.gen_range(0..nv as u32),
                    rng.gen_range(1..4u64),
                )
            })
            .collect();
        let expected: u64 = edges.iter().map(|e| e.2).sum();
        let g = from_edges(nv, edges);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.total_weight(), expected);
    }

    #[test]
    fn try_from_edges_rejects_out_of_range_endpoint() {
        let err = try_from_edges(2, vec![(0, 1, 1), (0, 5, 1)]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn try_from_edges_rejects_weight_overflow() {
        let err = try_from_edges(3, vec![(0, 1, u64::MAX), (1, 2, 1)]).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn per_vertex_arrays_fail_as_an_error() {
        // Its byte size overflows `isize`, so no host can allocate it.
        let nv = usize::MAX / 4;
        let err = per_vertex::<u64>(nv).unwrap_err();
        assert!(matches!(err, PcdError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains(&nv.to_string()), "{err}");
        assert_eq!(per_vertex::<u64>(3).unwrap(), vec![0; 3]);
    }

    #[test]
    fn try_from_edges_accepts_valid() {
        let g = try_from_edges(3, vec![(0, 1, 2), (1, 1, 3)]).unwrap();
        assert_eq!(g.total_weight(), 5);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn matches_a_sorted_map_at_every_width() {
        // More than `SEQ_CUTOFF` entries over few vertices, so every pass
        // leaves the caller and runs cross chunk boundaries; one pair
        // repeats across three whole chunks, and self-loops and zero
        // weights sit among the rest.
        let mut rng = pcd_util::rng::ChaCha8Rng::seed_from_u64(11);
        let nv = 300u32;
        let mut edges: Vec<_> = (0..par::SEQ_CUTOFF + 5_000)
            .map(|_| {
                (
                    rng.gen_range(0..nv),
                    rng.gen_range(0..nv),
                    rng.gen_range(0..4u64),
                )
            })
            .collect();
        edges.extend((0..3 * RUN_CHUNK).map(|_| (7, 8, 1)));
        let mut pairs = std::collections::BTreeMap::new();
        let mut loops = vec![0u64; nv as usize];
        for &(i, j, w) in &edges {
            if i == j {
                loops[i as usize] += w;
            } else if w > 0 {
                *pairs.entry(canonical_order(i, j)).or_insert(0) += w;
            }
        }
        let src: Vec<_> = pairs.keys().map(|&(a, _)| a).collect();
        let dst: Vec<_> = pairs.keys().map(|&(_, b)| b).collect();
        let weight: Vec<_> = pairs.values().copied().collect();
        for width in [1, 2, 3] {
            let e = edges.clone();
            let g = pcd_util::pool::with_threads(width, move || from_edges(nv as usize, e));
            assert_eq!(g.srcs(), src, "width {width}");
            assert_eq!(g.dsts(), dst, "width {width}");
            assert_eq!(g.weights(), weight, "width {width}");
            assert_eq!(g.self_loops(), loops, "width {width}");
            for v in 0..nv {
                let bucket = g.bucket(v);
                assert!(src[bucket.clone()].iter().all(|&s| s == v), "v{v}");
                assert_eq!(bucket.start, src.partition_point(|&s| s < v), "v{v}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut rng = pcd_util::rng::ChaCha8Rng::seed_from_u64(7);
        let edges: Vec<_> = (0..5_000)
            .map(|_| (rng.gen_range(0..200u32), rng.gen_range(0..200u32), 1u64))
            .collect();
        let g1 = pcd_util::pool::with_threads(1, {
            let e = edges.clone();
            move || from_edges(200, e)
        });
        let g4 = pcd_util::pool::with_threads(4, move || from_edges(200, edges));
        assert_eq!(g1.srcs(), g4.srcs());
        assert_eq!(g1.dsts(), g4.dsts());
        assert_eq!(g1.weights(), g4.weights());
        assert_eq!(g1.self_loops(), g4.self_loops());
    }
}
