//! Width parity on regions that really run in parallel.
//!
//! A parallel region runs inline on the caller when it is small: an
//! item-count region over at most `SEQ_CUTOFF` items, a work-weighted one
//! (the per-row passes: the Louvain proposal pass, the contractors'
//! sort-and-accumulate and compaction, and the unmatched-list matcher's
//! bucket scans — its liveness, propose and keep passes) when its rows'
//! edges plus rows come to at most `SEQ_CUTOFF`. The other parity suites'
//! inputs are small, so they compare inline runs with inline runs. This
//! suite's inputs are large enough that the first level's loops run on
//! several workers, and it checks that widths 1, 2 and 8 give the same
//! bits:
//!
//! * R-MAT with more than `SEQ_CUTOFF` vertices *and* edges, so every
//!   vertex- and edge-indexed loop (scoring, the matchers' CAS proposal
//!   registers, the contraction's bucket placement by prefix sum and by
//!   fetch-and-add, its striped count and scatter passes) leaves the
//!   caller;
//! * an R-MAT and a LiveJournal-like SBM with at most `SEQ_CUTOFF`
//!   vertices but more edges, where only the work-weighted passes do —
//!   the shape of every level after the first on the SBM. The R-MAT one
//!   also runs the default pipeline end to end, so the matcher's carried
//!   proposals and weighted scans are compared over every level;
//! * the bidirectional adjacency (`Csr`) on an R-MAT with more than
//!   `SEQ_CUTOFF` edges, whose striped count and scatter passes are
//!   checked against rows built sequentially in edge order at every
//!   width;
//! * refinement, flat and over the V-cycle, on an R-MAT whose rows plus
//!   adjacency come to more than `SEQ_CUTOFF`, so the move phase's
//!   proposal pass over the input graph runs on workers;
//! * ingest: the edge-list reader on a text of more than `SEQ_CUTOFF`
//!   lines and more than one block, whose pieces are parsed on workers,
//!   and the graph builder on as many unsorted entries;
//! * sharded detection of a disjoint union with more than `SEQ_CUTOFF`
//!   vertices and edges, so the component labelling, the split into
//!   parts and the batch over the parts leave the caller; the labels and
//!   every part are also checked against their oracles
//!   (`components_seq`, `induce`), on the union and on a copy whose
//!   components interleave, so that the split's row sort has work.
//!
//! The first-level check runs every kernel in the kind enums' `ALL`
//! lists, the sequential oracles and the 2011 baselines included.
//! The CI ThreadSanitizer job runs it too.

use parcomm::contract::ContractScratch;
use parcomm::core::kernel::{contract_level, match_level};
use parcomm::core::refine::refine;
use parcomm::core::refine_multilevel;
use parcomm::core::{score_all_into, DetectionResult, ScoreContext};
use parcomm::gen::{rmat_graph, sbm_graph, RmatParams, SbmParams};
use parcomm::graph::components::{components, components_seq};
use parcomm::graph::subgraph::{induce, split_by_labels};
use parcomm::graph::{builder, io, Csr, GraphParts};
use parcomm::matching::verify::verify_matching;
use parcomm::matching::MatchScratch;
use parcomm::prelude::*;
use parcomm::util::par::SEQ_CUTOFF;
use parcomm::util::pool::with_threads;

const WIDTHS: [usize; 3] = [1, 2, 8];
/// Levels the end-to-end check runs before its level cap stops it.
const LEVELS: usize = 3;

/// R-MAT at scale 17 with edge factor 2: the paper's power-law hubs, and
/// more than `SEQ_CUTOFF` vertices and edges at a fraction of the cost of
/// the paper's edge factor 16.
fn large_graph() -> Graph {
    let g = rmat_graph(&RmatParams {
        edge_factor: 2,
        ..RmatParams::paper(17, 5)
    });
    assert!(g.num_vertices() > SEQ_CUTOFF, "vertex regions run inline");
    assert!(g.num_edges() > SEQ_CUTOFF, "edge regions run inline");
    g
}

/// At most `SEQ_CUTOFF` vertices but more than `SEQ_CUTOFF` edges: vertex
/// loops split by count run inline, the work-weighted ones do not.
fn few_vertices_many_edges(g: Graph) -> Graph {
    assert!(
        g.num_vertices() <= SEQ_CUTOFF,
        "vertex regions leave the caller"
    );
    assert!(g.num_edges() > SEQ_CUTOFF, "weighted regions run inline");
    g
}

/// R-MAT at scale 14 with the paper's edge factor 16.
fn dense_rmat() -> Graph {
    few_vertices_many_edges(rmat_graph(&RmatParams::paper(14, 5)))
}

/// The LiveJournal-like SBM the louvain workload runs, at 20 000 vertices.
fn small_sbm() -> Graph {
    few_vertices_many_edges(sbm_graph(&SbmParams::livejournal_like(20_000, 5)).graph)
}

/// Everything one level computes, as comparable bits: the scores, then
/// per matcher its matching and rounds, and per contractor the contracted
/// graph's edges in stored order, its self-loops and the old→new map.
type LevelBits = (
    Vec<u64>,
    Vec<(Vec<usize>, usize)>,
    Vec<(Vec<(u32, u32, u64)>, Vec<u64>, Vec<u32>)>,
);

fn one_level(g: &Graph) -> LevelBits {
    let ctx = ScoreContext::new(g);
    let mut scores = Vec::new();
    score_all_into(ScorerKind::Modularity, g, &ctx, &mut scores);

    let mut matchings = Vec::new();
    let mut fingerprints = Vec::new();
    for kind in MatcherKind::ALL {
        let out = match_level(kind, g, &scores, usize::MAX, &mut MatchScratch::new());
        assert_eq!(
            verify_matching(g, &scores, &out.matching),
            Ok(()),
            "{kind:?}"
        );
        assert!(!out.matching.is_empty(), "{kind:?}: nothing matched");
        fingerprints.push((out.matching.matched_edges().to_vec(), out.rounds));
        matchings.push(out.matching);
    }

    // Contract along the default pipeline's matching.
    let default = MatcherKind::ALL
        .iter()
        .position(|&k| k == MatcherKind::default())
        .unwrap();
    let mut contracted = Vec::new();
    for kind in ContractorKind::ALL {
        let mut scratch = ContractScratch::new();
        let (next, num_new) = contract_level(
            kind,
            g,
            &matchings[default],
            &mut scratch,
            GraphParts::default(),
        );
        assert_eq!(next.validate(), Ok(()), "{kind:?}");
        assert_eq!(next.num_vertices(), num_new, "{kind:?}");
        contracted.push((
            (0..next.num_edges()).map(|e| next.edge(e)).collect(),
            next.self_loops().to_vec(),
            scratch.new_of_old().to_vec(),
        ));
    }
    for c in &contracted[1..] {
        assert_eq!(c, &contracted[0], "contractors disagree");
    }

    let score_bits = scores.iter().map(|s| s.to_bits()).collect();
    (score_bits, fingerprints, contracted)
}

#[test]
fn first_level_kernels_are_bit_identical_across_widths() {
    for (name, g) in [
        ("rmat-17", large_graph()),
        ("rmat-14", dense_rmat()),
        ("sbm-20k", small_sbm()),
    ] {
        let base = with_threads(WIDTHS[0], || one_level(&g));
        for &w in &WIDTHS[1..] {
            let got = with_threads(w, || one_level(&g));
            assert!(got.0 == base.0, "{name}: scores differ at width {w}");
            for (k, kind) in MatcherKind::ALL.iter().enumerate() {
                assert!(
                    got.1[k] == base.1[k],
                    "{name}: {kind:?} matching differs at width {w}"
                );
            }
            assert!(got.2 == base.2, "{name}: contraction differs at width {w}");
        }
    }
}

/// Detects `g` under `cfg` at every width and checks the assignment, the
/// level maps, the modularity bits and each level's edge count, merges and
/// match rounds against width 1; returns the width-1 result.
fn detect_at_every_width(g: &Graph, cfg: &Config) -> DetectionResult {
    let run = |w: usize| {
        let (g, cfg) = (g.clone(), cfg.clone());
        with_threads(w, move || detect(g, &cfg))
    };
    let base = run(WIDTHS[0]);
    for &w in &WIDTHS[1..] {
        let r = run(w);
        assert!(r.assignment == base.assignment, "assignment at width {w}");
        assert_eq!(r.level_maps, base.level_maps, "level maps at width {w}");
        assert_eq!(
            r.modularity.to_bits(),
            base.modularity.to_bits(),
            "Q at width {w}"
        );
        assert_eq!(
            r.community_vertex_counts, base.community_vertex_counts,
            "community sizes at width {w}"
        );
        assert_eq!(r.levels.len(), base.levels.len(), "levels at width {w}");
        for (a, b) in r.levels.iter().zip(&base.levels) {
            assert_eq!(a.num_edges, b.num_edges, "level |E| at width {w}");
            assert_eq!(a.pairs_merged, b.pairs_merged, "merges at width {w}");
            assert_eq!(a.match_rounds, b.match_rounds, "rounds at width {w}");
        }
    }
    base
}

#[test]
fn detection_is_bit_identical_across_widths() {
    // End to end, the engine also folds assignments through each level's
    // map and sums modularity over more than one fixed chunk. The isolated
    // vertices of a sparse R-MAT never merge, so every level stays above
    // the cutoff; the level cap keeps the debug-build run short.
    let cfg = Config::default()
        .with_recorded_levels()
        .with_budget(Budget::unarmed().with_max_levels(LEVELS));
    let base = detect_at_every_width(&large_graph(), &cfg);
    assert_eq!(base.levels.len(), LEVELS, "converged before the cap");
}

#[test]
fn louvain_detection_on_sbm_is_bit_identical_across_widths() {
    // Every level keeps at most `SEQ_CUTOFF` vertices, so this compares
    // the move phase's work-weighted proposal pass across widths.
    let cfg = Config::default()
        .with_matcher(MatcherKind::LouvainMove)
        .with_recorded_levels();
    let base = detect_at_every_width(&small_sbm(), &cfg);
    assert!(base.levels.len() > 1, "stopped after one level");
}

#[test]
fn default_detection_on_dense_rmat_is_bit_identical_across_widths() {
    // Every level keeps at most `SEQ_CUTOFF` vertices, so the
    // unmatched-list matcher's passes leave the caller only where they
    // are split by bucket length: the liveness, propose and keep passes.
    let cfg = Config::default().with_recorded_levels();
    let base = detect_at_every_width(&dense_rmat(), &cfg);
    assert!(base.levels.len() > 1, "stopped after one level");
}

/// A disjoint union with more than `SEQ_CUTOFF` vertices and edges:
/// R-MAT 14, 200 planted partitions of 256 vertices, a run of 1 000
/// isolated vertices and one vertex whose only edge is a self-loop.
fn sharded_union() -> Graph {
    let mut parts = vec![rmat_graph(&RmatParams::paper(14, 5))];
    parts.extend((0..200).map(|i| sbm_graph(&SbmParams::planted_partition(256, 4, 100 + i)).graph));
    let mut edges = Vec::new();
    let mut offset = 0;
    for g in &parts {
        edges.extend(g.edges().map(|(i, j, w)| (i + offset, j + offset, w)));
        edges.extend(
            (0..g.num_vertices() as u32)
                .filter(|&v| g.self_loop(v) > 0)
                .map(|v| (v + offset, v + offset, g.self_loop(v))),
        );
        offset += g.num_vertices() as u32;
    }
    let self_loop_only = offset + 1_000;
    edges.push((self_loop_only, self_loop_only, 3));
    let g = builder::from_edges(self_loop_only as usize + 1, edges);
    assert!(g.num_vertices() > SEQ_CUTOFF, "vertex regions run inline");
    assert!(g.num_edges() > SEQ_CUTOFF, "edge regions run inline");
    g
}

#[test]
fn sharded_detection_is_bit_identical_across_widths() {
    let cfg = Config::default().with_sharding(true).with_recorded_levels();
    let base = detect_at_every_width(&sharded_union(), &cfg);
    assert!(base.levels.len() > 1, "stopped after one level");
}

/// `g` with its vertex ids permuted by `v ↦ v·a mod n`, so its components
/// interleave: a part's dense ids no longer differ from its parent ids by
/// one shift, edges change orientation, and the split's rows need sorting.
fn interleaved(g: &Graph) -> Graph {
    let n = g.num_vertices() as u64;
    let a = 40_503;
    let (mut x, mut y) = (a, n);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    assert_eq!(x, 1, "the multiplier must be coprime to n");
    let p = |v: u32| (u64::from(v) * a % n) as u32;
    let loops = (0..n as u32).map(|v| (p(v), p(v), g.self_loop(v)));
    let edges = g
        .edges()
        .map(|(i, j, w)| (p(i), p(j), w))
        .chain(loops)
        .collect();
    builder::from_edges(n as usize, edges)
}

/// Every component's subgraph as `induce` builds it — the parent's edges
/// inside it in edge order, relabelled densely in ascending id order, then
/// its self-loops, through the builder — for all components in one pass,
/// in ascending-representative order, with each one's `old_of_new`.
fn induced_components(g: &Graph, label: &[u32]) -> Vec<(Stored, Vec<u32>)> {
    let nv = g.num_vertices();
    let mut rank = vec![0; nv];
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut new_of_old = vec![0; nv];
    for v in 0..nv {
        if label[v] as usize == v {
            rank[v] = members.len();
            members.push(Vec::new());
        }
        let part = &mut members[rank[label[v] as usize]];
        new_of_old[v] = part.len() as u32;
        part.push(v as u32);
    }
    let mut edges = vec![Vec::new(); members.len()];
    for (i, j, w) in g.edges() {
        let (ni, nj) = (new_of_old[i as usize], new_of_old[j as usize]);
        edges[rank[label[i as usize] as usize]].push((ni, nj, w));
    }
    for v in 0..nv {
        let (new, s) = (new_of_old[v], g.self_loops()[v]);
        if s > 0 {
            edges[rank[label[v] as usize]].push((new, new, s));
        }
    }
    members
        .into_iter()
        .zip(edges)
        .map(|(old_of_new, edges)| {
            (
                stored(builder::from_edges(old_of_new.len(), edges)),
                old_of_new,
            )
        })
        .collect()
}

#[test]
fn sharded_stage_matches_its_oracles_across_widths() {
    // Both unions have more than `SEQ_CUTOFF` vertices and edges, so the
    // union-find's link and compress passes and the split's counting,
    // scatter and row-sort passes run on workers. The interleaved one
    // makes the row sort reorder hub rows.
    let union = sharded_union();
    let interleaved = interleaved(&union);
    for g in [union, interleaved] {
        let label = components_seq(&g);
        let expected = induced_components(&g, &label);
        let last = expected.len() - 1;
        for p in [0, 1, last / 2, last] {
            let rep = expected[p].1[0];
            let keep: Vec<bool> = label.iter().map(|&l| l == rep).collect();
            let ex = induce(&g, &keep);
            assert_eq!(ex.old_of_new, expected[p].1, "oracle's part {p}");
            assert!(stored(ex.graph) == expected[p].0, "oracle's part {p}");
        }
        for w in WIDTHS {
            let (l, split) = with_threads(w, || {
                let l = components(&g);
                let split = split_by_labels(g.clone(), &l);
                (l, split)
            });
            assert!(l == label, "labels differ from the oracle's at width {w}");
            assert_eq!(split.len(), expected.len(), "parts at width {w}");
            for (p, (graph, old_of_new)) in expected.iter().enumerate() {
                assert!(
                    split.old_of_new(p) == old_of_new,
                    "part {p} map at width {w}"
                );
                assert!(stored(split.graph(p)) == *graph, "part {p} at width {w}");
            }
        }
    }
}

#[test]
fn csr_build_is_bit_identical_across_widths() {
    // More than `SEQ_CUTOFF` edges, so both edge passes leave the caller
    // and scatter through one stripe's cursors per thread. The scatter is
    // a stable counting sort: each row lists its edges in edge order.
    let g = rmat_graph(&RmatParams::paper(13, 23));
    assert!(g.num_edges() > SEQ_CUTOFF, "edge regions run inline");
    let mut rows = vec![Vec::new(); g.num_vertices()];
    for (i, j, w) in g.edges() {
        rows[i as usize].push((j, w));
        rows[j as usize].push((i, w));
    }
    let mut xadj = vec![0];
    let (mut adj, mut wgt) = (Vec::new(), Vec::new());
    for row in &rows {
        adj.extend(row.iter().map(|&(v, _)| v));
        wgt.extend(row.iter().map(|&(_, w)| w));
        xadj.push(adj.len());
    }
    for w in WIDTHS {
        let csr = with_threads(w, || Csr::from_graph(&g));
        assert!(csr.xadj == xadj, "xadj differs at width {w}");
        assert!(csr.adj == adj, "adj differs at width {w}");
        assert!(csr.wgt == wgt, "wgt differs at width {w}");
        assert_eq!(csr.self_loop, g.self_loops(), "self-loops at width {w}");
        assert_eq!(csr.total_weight, g.total_weight(), "m at width {w}");
    }
}

#[test]
fn refinement_is_bit_identical_across_widths() {
    // R-MAT 12 with the paper's edge factor 16: its rows plus adjacency
    // come to more than `SEQ_CUTOFF`, so every sweep's proposal pass over
    // the input graph leaves the caller.
    let g = rmat_graph(&RmatParams::paper(12, 7));
    assert!(
        g.num_vertices() + 2 * g.num_edges() > SEQ_CUTOFF,
        "the proposal pass runs inline"
    );
    let r = detect(g.clone(), &Config::default().with_recorded_levels());
    let run = |w: usize| {
        with_threads(w, || {
            let flat = refine(&g, &r.assignment, 5);
            let ml = refine_multilevel(&g, &r, 5);
            let trajectory: Vec<u64> = ml.q_trajectory.iter().map(|q| q.to_bits()).collect();
            (
                flat.assignment,
                flat.stats,
                flat.q_after.to_bits(),
                ml.assignment,
                trajectory,
            )
        })
    };
    let base = run(WIDTHS[0]);
    assert!(base.1.moves > 0, "refinement moved no vertex");
    for &w in &WIDTHS[1..] {
        let got = run(w);
        assert!(got.0 == base.0, "refined assignment at width {w}");
        assert_eq!(got.1, base.1, "move stats at width {w}");
        assert_eq!(got.2, base.2, "refined Q at width {w}");
        assert!(got.3 == base.3, "V-cycle assignment at width {w}");
        assert_eq!(got.4, base.4, "V-cycle Q trajectory at width {w}");
    }
}

/// Everything a graph stores.
type Stored = (
    usize,
    u64,
    Vec<u32>,
    Vec<u32>,
    Vec<u64>,
    Vec<usize>,
    Vec<usize>,
    Vec<u64>,
);

fn stored(g: Graph) -> Stored {
    let (nv, m) = (g.num_vertices(), g.total_weight());
    let p = g.into_parts();
    let (src, dst, w) = (p.src, p.dst, p.weight);
    (
        nv,
        m,
        src,
        dst,
        w,
        p.bucket_begin,
        p.bucket_end,
        p.self_loop,
    )
}

#[test]
fn ingest_is_bit_identical_across_widths() {
    // The scale-17 R-MAT's edge list twice over: more than `SEQ_CUTOFF`
    // lines and more than one 4 MiB block of text, so the reader parses
    // pieces on workers, and every parallel pass of the build leaves the
    // caller. The builder alone gets the same edges out of order, each
    // once in each orientation, so that its sort and run sums work.
    let g = large_graph();
    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).unwrap();
    let text = text.repeat(2);
    assert!(text.len() > 4 << 20, "the text fits one block");
    let loops = (0..g.num_vertices() as u32).map(|v| (v, v, g.self_loop(v)));
    let entries: Vec<_> = (0..g.num_edges())
        .rev()
        .map(|e| g.edge(e))
        .map(|(i, j, w)| (j, i, w))
        .chain(g.edges())
        .chain(loops)
        .collect();
    assert!(entries.len() > SEQ_CUTOFF, "builder regions run inline");
    let nv = g.num_vertices();
    let read = |w| with_threads(w, || stored(io::read_edge_list(&text[..]).unwrap()));
    let build = |w| {
        let entries = entries.clone();
        with_threads(w, move || {
            stored(builder::try_from_edges(nv, entries).unwrap())
        })
    };
    let (read_base, build_base) = (read(WIDTHS[0]), build(WIDTHS[0]));
    // Both double every weight of the input graph.
    assert_eq!(read_base.2, g.srcs(), "read sources");
    assert_eq!(build_base.2, g.srcs(), "built sources");
    assert_eq!(read_base.1, 2 * g.total_weight(), "read total weight");
    for &w in &WIDTHS[1..] {
        assert!(read(w) == read_base, "read graph differs at width {w}");
        assert!(build(w) == build_base, "built graph differs at width {w}");
    }
}
