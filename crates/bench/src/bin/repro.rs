//! Regenerates the paper's quality comparison (§V) and the LFR mixing
//! sweep. Timing lives in `bench_gate`, whose `paper*` rows give the
//! paper's figures, Table III and its ablation; `repro` times nothing.
//!
//! ```text
//! repro [options] <experiment...>
//!
//! experiments:
//!   quality   modularity/NMI vs sequential baselines (§V quality remark)
//!   mixing    LFR mixing sweep: detector quality vs noise (extension;
//!             not part of `all`)
//!   all       quality
//!
//! options:
//!   --rmat-scale N   R-MAT scale (default 15)
//!   --sbm N          SBM stand-in vertices (default 60000)
//!   --web N          web stand-in vertices (default 120000)
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use pcd_core::{detect, Config};
use pcd_gen::{rmat_graph, sbm_graph, web_graph, RmatParams, SbmParams, WebParams};
use pcd_graph::Graph;

/// A graph with its display name and optional planted ground truth.
#[derive(Debug)]
struct NamedGraph {
    name: String,
    graph: Graph,
    ground_truth: Option<Vec<u32>>,
}

/// Suite scale knobs (defaults sized for a small host; raise on big iron).
#[derive(Debug, Clone, Copy)]
struct SuiteParams {
    rmat_scale: u32,
    sbm_vertices: usize,
    web_vertices: usize,
    seed: u64,
}

impl Default for SuiteParams {
    fn default() -> Self {
        SuiteParams {
            rmat_scale: 15,
            sbm_vertices: 60_000,
            web_vertices: 120_000,
            seed: 42,
        }
    }
}

/// The paper's three graph roles (Table II): `rmat-<s>-16`, scale-free
/// R-MAT (largest component); `sbm-lj`, the LiveJournal stand-in
/// (planted partition); `web-uk`, the uk-2007-05 stand-in (hierarchical
/// web-like).
fn default_suite(p: &SuiteParams) -> Vec<NamedGraph> {
    let rmat = rmat_graph(&RmatParams::paper(p.rmat_scale, p.seed));
    let sbm = sbm_graph(&SbmParams::livejournal_like(p.sbm_vertices, p.seed + 1));
    let web = web_graph(&WebParams::uk_like(p.web_vertices, p.seed + 2));
    vec![
        NamedGraph {
            name: format!("rmat-{}-16", p.rmat_scale),
            graph: rmat,
            ground_truth: None,
        },
        NamedGraph {
            name: "sbm-lj".into(),
            graph: sbm.graph,
            ground_truth: Some(sbm.ground_truth),
        },
        NamedGraph {
            name: "web-uk".into(),
            graph: web.graph,
            ground_truth: Some(web.site_of),
        },
    ]
}

struct Options {
    suite: SuiteParams,
    experiments: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        suite: SuiteParams::default(),
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {what}"))
        };
        match a.as_str() {
            "--rmat-scale" => opts.suite.rmat_scale = value("--rmat-scale").parse().unwrap(),
            "--sbm" => opts.suite.sbm_vertices = value("--sbm").parse().unwrap(),
            "--web" => opts.suite.web_vertices = value("--web").parse().unwrap(),
            exp => opts.experiments.push(exp.to_string()),
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".into());
    }
    opts
}

fn main() {
    let opts = parse_args();
    let wants = |e: &str| opts.experiments.iter().any(|x| x == e);

    println!("# Reproduction harness — Riedy/Meyerhenke/Bader IPDPSW 2012");
    println!(
        "# suite: rmat-{}-16, sbm-lj n={}, web-uk n={}\n",
        opts.suite.rmat_scale, opts.suite.sbm_vertices, opts.suite.web_vertices
    );

    if wants("all") || wants("quality") {
        quality(&default_suite(&opts.suite));
    }
    if wants("mixing") {
        mixing(&opts);
    }
}

// ----- LFR mixing sweep (extension) ----------------------------------------

fn mixing(opts: &Options) {
    println!("## LFR mixing sweep — NMI vs planted communities as noise grows");
    println!(
        "{:>5} {:>16} {:>16} {:>16}",
        "mu", "parallel-agglom", "+refine", "louvain"
    );
    let n = opts.suite.sbm_vertices.min(30_000);
    for mu10 in [1u32, 2, 3, 4, 5, 6] {
        let mu = mu10 as f64 / 10.0;
        let lfr = pcd_gen::lfr_graph(&pcd_gen::LfrParams::benchmark(n, mu, opts.suite.seed));
        let r = detect(lfr.graph.clone(), &Config::default());
        let nmi_a = pcd_metrics::normalized_mutual_information(&r.assignment, &lfr.ground_truth);
        let refined = pcd_core::refine::refine(&lfr.graph, &r.assignment, 8);
        let nmi_r =
            pcd_metrics::normalized_mutual_information(&refined.assignment, &lfr.ground_truth);
        let l = pcd_baseline::louvain(&lfr.graph);
        let nmi_l = pcd_metrics::normalized_mutual_information(&l, &lfr.ground_truth);
        println!("{mu:>5.1} {nmi_a:>16.3} {nmi_r:>16.3} {nmi_l:>16.3}");
    }
    println!("(expected shape: all methods high at mu<=0.3, degrading beyond)\n");
}

// ----- Quality vs sequential baselines -------------------------------------

fn quality(suite: &[NamedGraph]) {
    println!("## Quality — modularity / coverage / NMI vs sequential baselines");
    for g in suite {
        println!("graph {}:", g.name);
        println!(
            "  {:<18} {:>8} {:>8} {:>9} {:>8}",
            "method", "Q", "cover", "#comm", "NMI"
        );
        let truth = g.ground_truth.as_deref();
        let report = |label: &str, a: &[u32]| {
            let (dense, k) = pcd_metrics::compact_labels(a);
            let q = pcd_metrics::modularity(&g.graph, &dense);
            let cov = pcd_metrics::coverage(&g.graph, &dense);
            let nmi = truth
                .map(|t| {
                    format!(
                        "{:.3}",
                        pcd_metrics::normalized_mutual_information(&dense, t)
                    )
                })
                .unwrap_or_else(|| "-".into());
            println!("  {label:<18} {q:>8.4} {cov:>8.3} {k:>9} {nmi:>8}");
        };

        let r = detect(g.graph.clone(), &Config::default());
        report("parallel-agglom", &r.assignment);
        let refined = pcd_core::refine::refine(&g.graph, &r.assignment, 10);
        report("  + refinement", &refined.assignment);
        report("louvain (seq)", &pcd_baseline::louvain(&g.graph));
        // CNM is O(E log E)-ish with big constants; keep it to small graphs.
        if g.graph.num_edges() <= 700_000 {
            report("cnm (seq)", &pcd_baseline::cnm(&g.graph));
        } else {
            println!("  {:<18} (skipped: graph too large)", "cnm (seq)");
        }
    }
    println!("(paper: 'smaller graphs' resulting modularities appear reasonable vs SNAP')\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_builds() {
        let p = SuiteParams {
            rmat_scale: 8,
            sbm_vertices: 500,
            web_vertices: 800,
            seed: 1,
        };
        let suite = default_suite(&p);
        assert_eq!(suite.len(), 3);
        for g in &suite {
            assert!(g.graph.num_edges() > 0, "{} empty", g.name);
            assert_eq!(g.graph.validate(), Ok(()), "{} invalid", g.name);
        }
        assert!(suite[1].ground_truth.is_some());
        assert!(suite[2].ground_truth.is_some());
    }
}
