//! Explore the agglomeration dendrogram level by level and apply the
//! refinement extension (the paper's declared future work).
//!
//! Run with: `cargo run --release --example hierarchy_and_refine`

use parcomm::core::refine::refine;
use parcomm::prelude::*;

fn main() {
    let sbm = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(30_000, 3));
    let g = sbm.graph.clone();
    println!(
        "sbm-lj: {} vertices, {} edges, {} planted communities",
        g.num_vertices(),
        g.num_edges(),
        sbm.num_communities
    );

    // Record every level so any cut of the dendrogram is reconstructible.
    let result = detect(g.clone(), &Config::default().with_recorded_levels());

    println!("\ndendrogram cuts (level 0 = singletons):");
    println!(
        "{:>6} {:>12} {:>10} {:>10} {:>8}",
        "level", "communities", "Q", "coverage", "NMI"
    );
    for level in 0..=result.level_maps.len() {
        let a = result.assignment_at_level(level);
        let (dense, k) = parcomm::metrics::compact_labels(&a);
        let q = modularity(&g, &dense);
        let cov = coverage(&g, &dense);
        let nmi = normalized_mutual_information(&dense, &sbm.ground_truth);
        println!("{level:>6} {k:>12} {q:>10.4} {cov:>10.3} {nmi:>8.3}");
    }

    // Refinement: single-vertex moves that the pairwise matching cannot
    // express. The paper lists this as an area of active work.
    let refined = refine(&g, &result.assignment, 10);
    println!("\nrefinement:");
    println!("  Q before: {:.4}", refined.q_before);
    println!("  Q after:  {:.4}", refined.q_after);
    println!(
        "  moves: {} in {} sweeps",
        refined.stats.moves, refined.stats.sweeps
    );
    let nmi_before = normalized_mutual_information(&result.assignment, &sbm.ground_truth);
    let (dense, _) = parcomm::metrics::compact_labels(&refined.assignment);
    let nmi_after = normalized_mutual_information(&dense, &sbm.ground_truth);
    println!("  NMI vs planted: {nmi_before:.3} -> {nmi_after:.3}");

    let ari = parcomm::metrics::adjusted_rand_index(&dense, &sbm.ground_truth);
    println!("  ARI vs planted: {ari:.3}");
}
