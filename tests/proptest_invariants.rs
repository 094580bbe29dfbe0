//! Property-based tests over the core invariants, on arbitrary random
//! multigraphs (duplicates, self-loops, weights included).

use parcomm::contract::{contract, edge_fingerprint, linked, seq as cseq, Placement, RowSort};
use parcomm::core::{score_all_into, ScoreContext, ScorerKind};
use parcomm::graph::{builder, components};
use parcomm::matching::{edge_sweep, parallel, seq as mseq, verify::verify_matching};
use parcomm::util::prop::{self, check};
use parcomm::util::rng::ChaCha8Rng;

fn score_all(kind: ScorerKind, g: &parcomm::graph::Graph, ctx: &ScoreContext) -> Vec<f64> {
    let mut scores = Vec::new();
    score_all_into(kind, g, ctx, &mut scores);
    scores
}

/// A vertex count and an arbitrary weighted edge multiset.
fn arb_graph_input(rng: &mut ChaCha8Rng) -> (usize, Vec<(u32, u32, u64)>) {
    prop::edges(rng, 2..40, 0..120, 1..4)
}

#[test]
fn built_graphs_satisfy_all_invariants() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let expected: u64 = edges.iter().map(|e| e.2).sum();
        let g = builder::from_edges(nv, edges);
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.total_weight(), expected);
        // Volumes always sum to 2m.
        let vols: u64 = g.volumes().iter().sum();
        assert_eq!(vols, 2 * g.total_weight());
    });
}

#[test]
fn parallel_components_match_union_find() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        assert_eq!(components::components(&g), components::components_seq(&g));
    });
}

#[test]
fn all_matchers_produce_valid_maximal_matchings() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        for (name, m) in [
            (
                "unmatched-list",
                parallel::match_unmatched_list(&g, &scores),
            ),
            ("edge-sweep", edge_sweep::match_edge_sweep(&g, &scores)),
            ("sequential", mseq::match_sequential_greedy(&g, &scores)),
        ] {
            assert_eq!(verify_matching(&g, &scores, &m), Ok(()), "{}", name);
        }
    });
}

#[test]
fn edge_sweep_equals_sequential_greedy() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let a = edge_sweep::match_edge_sweep(&g, &scores);
        let b = mseq::match_sequential_greedy(&g, &scores);
        assert_eq!(a, b);
    });
}

#[test]
fn contractors_agree_and_conserve_weight() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let m = parallel::match_unmatched_list(&g, &scores);

        let a = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
        let b = contract(&g, &m, RowSort::Heapsort, Placement::FetchAdd);
        let c = linked::contract_linked(&g, &m);
        let d = cseq::contract_seq(&g, &m);

        let fp = edge_fingerprint(&a.graph);
        assert_eq!(&fp, &edge_fingerprint(&b.graph));
        assert_eq!(&fp, &edge_fingerprint(&c.graph));
        assert_eq!(&fp, &edge_fingerprint(&d.graph));
        assert_eq!(a.graph.self_loops(), b.graph.self_loops());
        assert_eq!(a.graph.self_loops(), c.graph.self_loops());
        assert_eq!(a.graph.self_loops(), d.graph.self_loops());
        assert_eq!(a.graph.total_weight(), g.total_weight());
        assert_eq!(a.graph.validate(), Ok(()));
        assert_eq!(a.num_new, g.num_vertices() - m.len());
    });
}

#[test]
fn modularity_telescopes_through_contraction() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        // Q(contracted) == Q(current) + Σ ΔQ of matched edges — the single
        // invariant that exercises scorer, matcher and contractor together.
        let g = builder::from_edges(nv, edges);
        if g.total_weight() == 0 {
            return;
        }
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let m = parallel::match_unmatched_list(&g, &scores);
        let q0 = parcomm::metrics::community_graph_modularity(&g);
        let dq: f64 = m.matched_edges().iter().map(|&e| scores[e]).sum();
        let contracted = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
        let q1 = parcomm::metrics::community_graph_modularity(&contracted.graph);
        assert!(
            (q1 - (q0 + dq)).abs() < 1e-9,
            "q0 {} + dq {} != q1 {}",
            q0,
            dq,
            q1
        );
    });
}

#[test]
fn detection_never_panics_and_is_consistent() {
    check(64, |rng| {
        let (nv, edges) = arb_graph_input(rng);
        let g = builder::from_edges(nv, edges);
        let r = parcomm::detect(g.clone(), &parcomm::Config::default());
        assert_eq!(r.assignment.len(), nv);
        assert_eq!(r.community_vertex_counts.iter().sum::<u64>(), nv as u64);
        let q_direct = parcomm::metrics::modularity(&g, &r.assignment);
        assert!((q_direct - r.modularity).abs() < 1e-9);
        // Agglomeration along positive scores can only improve modularity
        // over the singleton partition.
        let singles: Vec<u32> = (0..nv as u32).collect();
        let q_single = parcomm::metrics::modularity(&g, &singles);
        assert!(r.modularity >= q_single - 1e-12);
    });
}

/// The contraction pipeline's insertion cutoff: rows at or below it take
/// the insertion sort under every row sort.
const INSERTION_CUTOFF: usize = 24;

/// A random multigraph on 300–600 vertices plus a hub joined to 80–160
/// random vertices, so that some contracted row outgrows the insertion
/// cutoff; with more than 256 contracted vertices, its destinations also
/// take a second radix digit.
fn arb_hub_graph(rng: &mut ChaCha8Rng) -> parcomm::graph::Graph {
    let (nv, mut edges) = prop::edges(rng, 300..600, 0..600, 1..4);
    let hub = rng.gen_range(0..nv as u32);
    for _ in 0..rng.gen_range(80..160usize) {
        let j = rng.gen_range(0..nv as u32);
        edges.push((hub, j, rng.gen_range(1..4u64)));
    }
    builder::from_edges(nv, edges)
}

/// The longest row the contraction along `m` sorts: relabelled live edges
/// per new stored-first endpoint, duplicates included.
fn longest_contracted_row(g: &parcomm::graph::Graph, m: &parcomm::matching::Matching) -> usize {
    let (map, num_new) = parcomm::contract::relabel_from_matching(g, m);
    let mut rows = vec![0usize; num_new];
    for (i, j, _) in g.edges() {
        let (a, b) = (map[i as usize], map[j as usize]);
        if a != b {
            rows[parcomm::graph::canonical_order(a, b).0 as usize] += 1;
        }
    }
    rows.into_iter().max().unwrap_or(0)
}

#[test]
fn radix_contractor_agrees_with_bucket() {
    // Radix rows, heapsort rows and the fetch-and-add placement must emit
    // the same graph bit for bit, on inputs whose rows really take the
    // radix passes.
    check(64, |rng| {
        let g = arb_hub_graph(rng);
        let ctx = ScoreContext::new(&g);
        let scores = score_all(ScorerKind::Modularity, &g, &ctx);
        let m = parallel::match_unmatched_list(&g, &scores);
        let longest = longest_contracted_row(&g, &m);
        assert!(longest > INSERTION_CUTOFF, "longest row {longest}");

        let r = contract(&g, &m, RowSort::Radix, Placement::PrefixSum);
        assert_eq!(r.graph.validate(), Ok(()));
        assert_eq!(r.graph.total_weight(), g.total_weight());
        for (sort, placement) in [
            (RowSort::Heapsort, Placement::PrefixSum),
            (RowSort::Heapsort, Placement::FetchAdd),
        ] {
            let b = contract(&g, &m, sort, placement);
            let what = format!("{sort:?}/{placement:?}");
            assert_eq!(r.graph.srcs(), b.graph.srcs(), "{what}");
            assert_eq!(r.graph.dsts(), b.graph.dsts(), "{what}");
            assert_eq!(r.graph.weights(), b.graph.weights(), "{what}");
            assert_eq!(r.graph.self_loops(), b.graph.self_loops(), "{what}");
            assert_eq!(r.new_of_old, b.new_of_old, "{what}");
        }
    });
}

#[test]
fn map_contraction_conserves_weight() {
    // Contraction along an arbitrary many-to-one map is the §VI product
    // SᵀAS: it conserves weight, builds a valid graph, and preserves the
    // modularity of the partition it aggregates.
    check(64, |rng| {
        let (nv, edges) = prop::edges(rng, 2..20, 0..60, 1..4);
        let labels: Vec<u32> = (0..nv).map(|_| rng.gen_range(0..4u32)).collect();
        let g = builder::from_edges(nv, edges);
        let (dense_labels, k) = parcomm::metrics::compact_labels(&labels);
        let mut cs = parcomm::contract::ContractScratch::new();
        let c =
            parcomm::contract::contract_map_into(&g, &dense_labels, k, &mut cs, Default::default());
        assert_eq!(c.num_vertices(), k);
        assert_eq!(c.total_weight(), g.total_weight());
        assert_eq!(c.validate(), Ok(()));
        let q_orig = parcomm::metrics::modularity(&g, &dense_labels);
        let q_agg = parcomm::metrics::community_graph_modularity(&c);
        assert!((q_orig - q_agg).abs() < 1e-9, "{} vs {}", q_orig, q_agg);
    });
}
