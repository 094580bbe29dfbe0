//! Integration tests for the extension features: multilevel refinement,
//! numbering invariance, per-community reports and map contraction as a
//! Louvain aggregation — all wired through the public facade.

use parcomm::core::multilevel::refine_multilevel;
use parcomm::metrics::community_reports;
use parcomm::prelude::*;

#[test]
fn multilevel_improves_lfr_quality() {
    let lfr = parcomm::gen::lfr_graph(&parcomm::gen::LfrParams::benchmark(5_000, 0.3, 3));
    let plain = detect(lfr.graph.clone(), &Config::default());
    let levels = detect(lfr.graph.clone(), &Config::default().with_recorded_levels());
    let ml = refine_multilevel(&lfr.graph, &levels, 5);
    let q_plain = plain.modularity;
    let q_ml = parcomm::metrics::modularity(&lfr.graph, &ml.assignment);
    assert!(q_ml >= q_plain - 1e-9, "{q_ml} vs {q_plain}");
    let nmi_plain = normalized_mutual_information(&plain.assignment, &lfr.ground_truth);
    let nmi_ml = normalized_mutual_information(&ml.assignment, &lfr.ground_truth);
    assert!(
        nmi_ml >= nmi_plain - 0.05,
        "multilevel hurt NMI badly: {nmi_ml} vs {nmi_plain}"
    );
}

/// Relabels `g` by `new_of_old` (a bijection on its vertices).
fn relabel(g: &Graph, new_of_old: &[u32]) -> Graph {
    let map = |v: u32| new_of_old[v as usize];
    let mut edges: Vec<(u32, u32, u64)> = g.edges().map(|(i, j, w)| (map(i), map(j), w)).collect();
    edges.extend(
        (0..g.num_vertices() as u32)
            .filter(|&v| g.self_loop(v) > 0)
            .map(|v| (map(v), map(v), g.self_loop(v))),
    );
    parcomm::graph::builder::from_edges(g.num_vertices(), edges)
}

#[test]
fn detection_quality_is_numbering_invariant() {
    // Relabel the graph hub-first and by a seeded shuffle: detected
    // community *structure* must agree up to label names with the
    // original run.
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(3_000, 5));
    let g = sbm.graph;
    let n = g.num_vertices();
    let base = detect(g.clone(), &Config::default());

    // `order[k]` is the old vertex that gets new id `k`.
    let vol = g.volumes();
    let mut hubs_first: Vec<u32> = (0..n as u32).collect();
    hubs_first.sort_by_key(|&v| (std::cmp::Reverse(vol[v as usize]), v));
    let mut shuffled: Vec<u32> = (0..n as u32).collect();
    let mut rng = parcomm::util::rng::ChaCha8Rng::seed_from_u64(11);
    for k in (1..n).rev() {
        shuffled.swap(k, rng.gen_range(0..=k));
    }

    for (name, order) in [("hubs-first", hubs_first), ("shuffled", shuffled)] {
        let mut new_of_old = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            new_of_old[old as usize] = new as u32;
        }
        let r = detect(relabel(&g, &new_of_old), &Config::default());
        // Translate the permuted assignment back to original numbering.
        let back: Vec<u32> = (0..n)
            .map(|old| r.assignment[new_of_old[old] as usize])
            .collect();
        // Vertex numbering feeds the parity hash and every tie-break, so
        // the matching legitimately differs — but the recovered structure
        // and its quality must stay in the same neighbourhood.
        let nmi = normalized_mutual_information(&base.assignment, &back);
        assert!(nmi > 0.6, "{name}: structure drifted, NMI = {nmi}");
        assert!(
            (r.modularity - base.modularity).abs() < 0.08,
            "{name}: Q drifted: {} vs {}",
            r.modularity,
            base.modularity
        );
    }
}

#[test]
fn community_reports_match_counts_and_weigh_more_inside() {
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(4_000, 7));
    let r = detect(sbm.graph.clone(), &Config::default());
    let reports = community_reports(&sbm.graph, &r.assignment);
    // Report sizes match the detector's per-community counts.
    let sizes: Vec<u64> = reports.iter().map(|c| c.size as u64).collect();
    assert_eq!(sizes, r.community_vertex_counts);
    // Detected communities hold more weight inside than across, in
    // aggregate (each cut edge counts once on each side).
    let internal: u64 = reports.iter().map(|c| c.internal_weight).sum();
    let cut: u64 = reports.iter().map(|c| c.cut_weight).sum();
    assert!(internal > cut, "internal {internal} cut {cut}");
}

#[test]
fn spgemm_contraction_usable_as_louvain_aggregation() {
    // Aggregate an SBM by its planted truth through the map contraction
    // (the §VI product SᵀAS); detection on the aggregate should find very
    // coarse structure quickly and modularity of the planted partition
    // must be preserved by aggregation.
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(2_000, 9));
    let (truth, k) = parcomm::metrics::compact_labels(&sbm.ground_truth);
    let agg = parcomm::contract::contract_map_into(
        &sbm.graph,
        &truth,
        k,
        &mut parcomm::contract::ContractScratch::new(),
        parcomm::graph::GraphParts::default(),
    );
    let q_fine = parcomm::metrics::modularity(&sbm.graph, &truth);
    let q_coarse = parcomm::metrics::community_graph_modularity(&agg);
    assert!((q_fine - q_coarse).abs() < 1e-9);
}
