//! Degree statistics — what `parcomm stats` prints, and sanity
//! checks on generated graphs (power-law shape of R-MAT, etc.).

use crate::Csr;
use pcd_util::par;

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Count of isolated (degree-0) vertices.
    pub isolated: usize,
}

/// Computes degree statistics via a CSR view.
pub fn degree_stats(csr: &Csr) -> DegreeStats {
    let nv = csr.num_vertices();
    if nv == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            isolated: 0,
        };
    }
    let degrees: Vec<usize> = par::map(nv, |v| csr.degree(v as u32));
    // analyze: allow(panic, reason = "nv == 0 early-returned above, so `degrees` is non-empty")
    let min = degrees.iter().copied().min().unwrap();
    // analyze: allow(panic, reason = "same non-empty argument as `min` on the previous line")
    let max = degrees.iter().copied().max().unwrap();
    let sum: usize = degrees.iter().sum();
    let isolated = degrees.iter().filter(|&&d| d == 0).count();
    DegreeStats {
        min,
        max,
        mean: sum as f64 / nv as f64,
        isolated,
    }
}

/// Log2-binned degree histogram: `hist[k]` counts vertices with degree in
/// `[2^k, 2^(k+1))`; `hist[0]` additionally counts degree-0 and 1 vertices.
pub fn degree_histogram_log2(csr: &Csr) -> Vec<usize> {
    let nv = csr.num_vertices();
    let mut hist = Vec::new();
    for v in 0..nv as u32 {
        let d = csr.degree(v);
        let bin = if d <= 1 {
            0
        } else {
            usize::BITS as usize - 1 - d.leading_zeros() as usize
        };
        if bin >= hist.len() {
            hist.resize(bin + 1, 0);
        }
        hist[bin] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, GraphBuilder};

    #[test]
    fn stats_of_star() {
        let g = GraphBuilder::new(6)
            .add_pairs((1..6).map(|i| (0u32, i)))
            .build();
        let csr = Csr::from_graph(&g);
        let s = degree_stats(&csr);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert!((s.mean - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn isolated_counted() {
        let g = GraphBuilder::new(4).add_pairs([(0, 1)]).build();
        let csr = Csr::from_graph(&g);
        assert_eq!(degree_stats(&csr).isolated, 2);
    }

    #[test]
    fn histogram_bins() {
        // degrees: 5,1,1,1,1,1 -> bin2 (4..8) has 1, bin0 has 5
        let g = GraphBuilder::new(6)
            .add_pairs((1..6).map(|i| (0u32, i)))
            .build();
        let h = degree_histogram_log2(&Csr::from_graph(&g));
        assert_eq!(h[0], 5);
        assert_eq!(h[2], 1);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::empty(0);
        let csr = Csr::from_graph(&g);
        let s = degree_stats(&csr);
        assert_eq!(
            s,
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                isolated: 0
            }
        );
    }
}
