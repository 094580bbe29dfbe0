//! Hierarchical nested-community generator — the stand-in for the
//! uk-2007-05 web crawl.
//!
//! Web graphs exhibit deep, nested locality: pages cluster into sites,
//! sites into domains. The generator plants a two-level hierarchy
//! (domains → sites) with Pareto-distributed sizes and draws per-vertex
//! Poisson partner counts at three locality levels (site, domain, global),
//! plus hub vertices per domain that attract extra links to give the
//! power-law in-degree shape crawls show.

use crate::sbm::{pareto_int, poisson};
use pcd_graph::{builder, Graph};
use pcd_util::par;
use pcd_util::rng::stream;
use pcd_util::{VertexId, Weight};

/// Parameters for the web-like generator.
#[derive(Debug, Clone, Copy)]
pub struct WebParams {
    /// Total vertex count.
    pub num_vertices: usize,
    /// Domain size bounds (Pareto-truncated, shape `domain_exponent`).
    pub min_domain: usize,
    /// Largest domain size.
    pub max_domain: usize,
    /// Pareto shape of domain sizes.
    pub domain_exponent: f64,
    /// Site size bounds within a domain.
    pub min_site: usize,
    /// Largest site size.
    pub max_site: usize,
    /// Pareto shape of site sizes.
    pub site_exponent: f64,
    /// Mean partner draws at each locality level.
    pub site_degree: f64,
    /// Mean domain-level partner draws per vertex.
    pub domain_degree: f64,
    /// Mean global partner draws per vertex.
    pub global_degree: f64,
    /// Fraction of each domain's vertices that act as hubs.
    pub hub_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WebParams {
    /// uk-2007-05-flavoured defaults at a configurable vertex count.
    pub fn uk_like(num_vertices: usize, seed: u64) -> Self {
        WebParams {
            num_vertices,
            min_domain: 50,
            max_domain: (num_vertices / 20).max(100),
            domain_exponent: 1.3,
            min_site: 8,
            max_site: 200,
            site_exponent: 1.5,
            site_degree: 18.0,
            domain_degree: 6.0,
            global_degree: 1.0,
            hub_fraction: 0.02,
            seed,
        }
    }
}

/// A generated web-like graph plus its planted hierarchy.
#[derive(Debug)]
pub struct WebGraph {
    /// The generated graph.
    pub graph: Graph,
    /// Site (fine-level community) id per vertex.
    pub site_of: Vec<VertexId>,
    /// Domain (coarse-level community) id per vertex.
    pub domain_of: Vec<VertexId>,
    /// Number of planted sites (fine level).
    pub num_sites: usize,
    /// Number of planted domains (coarse level).
    pub num_domains: usize,
}

/// Generates the web-like graph. Deterministic and thread-count independent.
pub fn web_graph(p: &WebParams) -> WebGraph {
    assert!(p.num_vertices > 0);
    // Carve vertices into domains, then domains into sites (sequential,
    // O(#sites)).
    let mut rng = stream(p.seed, u64::MAX);
    let mut domain_of = vec![0u32; p.num_vertices];
    let mut site_of = vec![0u32; p.num_vertices];
    let mut domain_ranges: Vec<(usize, usize)> = Vec::new(); // (start, len)
    let mut site_ranges: Vec<(usize, usize)> = Vec::new();
    let mut pos = 0usize;
    while pos < p.num_vertices {
        let dlen = pareto_int(&mut rng, p.min_domain, p.max_domain, p.domain_exponent)
            .min(p.num_vertices - pos);
        let d = domain_ranges.len() as u32;
        domain_ranges.push((pos, dlen));
        let dend = pos + dlen;
        domain_of[pos..dend].iter_mut().for_each(|x| *x = d);
        let mut spos = pos;
        while spos < dend {
            let slen =
                pareto_int(&mut rng, p.min_site, p.max_site, p.site_exponent).min(dend - spos);
            let s = site_ranges.len() as u32;
            site_ranges.push((spos, slen));
            site_of[spos..spos + slen].iter_mut().for_each(|x| *x = s);
            spos += slen;
        }
        pos = dend;
    }

    // Hubs: the first ⌈hub_fraction·len⌉ vertices of each domain.
    let hub_count_of_domain: Vec<usize> = domain_ranges
        .iter()
        .map(|&(_, len)| ((len as f64 * p.hub_fraction).ceil() as usize).clamp(1, len))
        .collect();

    let edges: Vec<(VertexId, VertexId, Weight)> = par::map(p.num_vertices, |v| {
        let v = v as u64;
        let mut rng = stream(p.seed, v);
        let vu = v as usize;
        let s = site_of[vu] as usize;
        let d = domain_of[vu] as usize;
        let (sst, slen) = site_ranges[s];
        let (dst_, dlen) = domain_ranges[d];
        let nhub = hub_count_of_domain[d];
        let mut out = Vec::new();
        let pick_other = |rng: &mut pcd_util::rng::ChaCha8Rng, st: usize, len: usize| {
            let mut u = st + rng.gen_range(0..len);
            if u == vu {
                u = st + (u - st + 1) % len;
            }
            u as u32
        };
        if slen > 1 {
            for _ in 0..poisson(&mut rng, p.site_degree).min(4 * slen) {
                let u = pick_other(&mut rng, sst, slen);
                out.push((v as u32, u, 1u64));
            }
        }
        if dlen > 1 {
            for _ in 0..poisson(&mut rng, p.domain_degree).min(4 * dlen) {
                // Half the domain-level links go to hubs.
                let u = if rng.gen::<bool>() {
                    pick_other(&mut rng, dst_, nhub.max(1))
                } else {
                    pick_other(&mut rng, dst_, dlen)
                };
                out.push((v as u32, u, 1u64));
            }
        }
        if p.num_vertices > 1 {
            for _ in 0..poisson(&mut rng, p.global_degree) {
                let u = pick_other(&mut rng, 0, p.num_vertices);
                out.push((v as u32, u, 1u64));
            }
        }
        out
    })
    .concat();

    WebGraph {
        graph: builder::from_edges(p.num_vertices, edges),
        site_of,
        domain_of,
        num_sites: site_ranges.len(),
        num_domains: domain_ranges.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WebParams {
        let mut p = WebParams::uk_like(3_000, 9);
        p.max_domain = 400;
        p
    }

    #[test]
    fn hierarchy_is_consistent() {
        let w = web_graph(&small());
        assert_eq!(w.site_of.len(), 3_000);
        assert!(w.num_domains >= 2);
        assert!(w.num_sites >= w.num_domains);
        // Every site lies inside exactly one domain.
        let mut site_domain = vec![None; w.num_sites];
        for v in 0..3_000 {
            let s = w.site_of[v] as usize;
            let d = w.domain_of[v];
            match site_domain[s] {
                None => site_domain[s] = Some(d),
                Some(prev) => assert_eq!(prev, d, "site {s} spans domains"),
            }
        }
        assert_eq!(w.graph.validate(), Ok(()));
    }

    #[test]
    fn deterministic() {
        let a = web_graph(&small());
        let b = web_graph(&small());
        assert_eq!(a.graph.srcs(), b.graph.srcs());
        assert_eq!(a.graph.weights(), b.graph.weights());
    }

    #[test]
    fn thread_count_independent() {
        let a = pcd_util::pool::with_threads(1, || web_graph(&small()));
        let b = pcd_util::pool::with_threads(4, || web_graph(&small()));
        assert_eq!(a.graph.srcs(), b.graph.srcs());
    }

    #[test]
    fn locality_dominates() {
        let w = web_graph(&small());
        let (mut same_site, mut same_domain, mut global) = (0u64, 0u64, 0u64);
        for (i, j, wt) in w.graph.edges() {
            if w.site_of[i as usize] == w.site_of[j as usize] {
                same_site += wt;
            } else if w.domain_of[i as usize] == w.domain_of[j as usize] {
                same_domain += wt;
            } else {
                global += wt;
            }
        }
        assert!(same_site > same_domain, "{same_site} vs {same_domain}");
        assert!(same_domain > global, "{same_domain} vs {global}");
    }

    #[test]
    fn has_skewed_degrees() {
        let w = web_graph(&small());
        let csr = pcd_graph::Csr::from_graph(&w.graph);
        let degrees: Vec<usize> = (0..csr.num_vertices() as u32)
            .map(|v| csr.degree(v))
            .collect();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        // Hubs should push the max degree well above the mean.
        assert!(max as f64 > 5.0 * mean, "max {max} mean {mean}");
    }
}
