//! [`Contractor`] impls wrapping the concrete kernels in `pcd-contract`.
//!
//! The bucket kernels scatter into the recycled `parts` and leave the
//! old→new map in `scratch`; the baseline and oracle kernels go through
//! the owning API (dropping `parts`) and deposit their map into `scratch`
//! afterwards, so the engine's fold path is uniform.

use super::Contractor;
use crate::config::ContractorKind;
use pcd_contract::{bucket, linked, radix, seq, ContractScratch, Placement};
use pcd_graph::{Graph, GraphParts};
use pcd_matching::Matching;

/// The paper's bucket-sort contraction, deterministic prefix-sum placement
/// (§IV-C).
#[derive(Debug)]
pub struct Bucket;

impl Contractor for Bucket {
    fn kind(&self) -> ContractorKind {
        ContractorKind::Bucket
    }
    fn name(&self) -> &'static str {
        "bucket"
    }
    fn description(&self) -> &'static str {
        "paper's bucket-sort contraction, prefix-sum placement (sec. IV-C)"
    }
    fn contract_level(
        &self,
        g: &Graph,
        matching: &Matching,
        scratch: &mut ContractScratch,
        parts: GraphParts,
    ) -> (Graph, usize) {
        bucket::contract_into(g, matching, Placement::PrefixSum, scratch, parts)
    }
}

/// Bucket-sort with the racy fetch-and-add placement the paper mentions
/// but never timed.
#[derive(Debug)]
pub struct BucketFetchAdd;

impl Contractor for BucketFetchAdd {
    fn kind(&self) -> ContractorKind {
        ContractorKind::BucketFetchAdd
    }
    fn name(&self) -> &'static str {
        "bucket-fetch-add"
    }
    fn description(&self) -> &'static str {
        "bucket-sort contraction with fetch-and-add placement"
    }
    fn contract_level(
        &self,
        g: &Graph,
        matching: &Matching,
        scratch: &mut ContractScratch,
        parts: GraphParts,
    ) -> (Graph, usize) {
        bucket::contract_into(g, matching, Placement::FetchAdd, scratch, parts)
    }
}

/// Counting/radix-sort contraction: prefix-sum placement, cache-blocked
/// scatter, per-row LSD counting accumulation (DESIGN.md §15).
#[derive(Debug)]
pub struct Radix;

impl Contractor for Radix {
    fn kind(&self) -> ContractorKind {
        ContractorKind::Radix
    }
    fn name(&self) -> &'static str {
        "radix"
    }
    fn description(&self) -> &'static str {
        "radix-sort contraction: prefix-sum placement + LSD row accumulation"
    }
    fn contract_level(
        &self,
        g: &Graph,
        matching: &Matching,
        scratch: &mut ContractScratch,
        parts: GraphParts,
    ) -> (Graph, usize) {
        radix::contract_into(g, matching, scratch, parts)
    }
}

/// The 2011 linked-list hash-chain baseline.
#[derive(Debug)]
pub struct Linked;

impl Contractor for Linked {
    fn kind(&self) -> ContractorKind {
        ContractorKind::Linked
    }
    fn name(&self) -> &'static str {
        "linked"
    }
    fn description(&self) -> &'static str {
        "2011 linked-list hash-chain baseline contractor"
    }
    fn contract_level(
        &self,
        g: &Graph,
        matching: &Matching,
        scratch: &mut ContractScratch,
        _parts: GraphParts,
    ) -> (Graph, usize) {
        let c = linked::contract_linked(g, matching);
        scratch.set_new_of_old(c.new_of_old);
        (c.graph, c.num_new)
    }
}

/// Sequential hash-map oracle.
#[derive(Debug)]
pub struct SequentialOracle;

impl Contractor for SequentialOracle {
    fn kind(&self) -> ContractorKind {
        ContractorKind::Sequential
    }
    fn name(&self) -> &'static str {
        "sequential"
    }
    fn description(&self) -> &'static str {
        "sequential hash-map oracle contractor"
    }
    fn contract_level(
        &self,
        g: &Graph,
        matching: &Matching,
        scratch: &mut ContractScratch,
        _parts: GraphParts,
    ) -> (Graph, usize) {
        let c = seq::contract_seq(g, matching);
        scratch.set_new_of_old(c.new_of_old);
        (c.graph, c.num_new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{score_all_into, ScoreContext};
    use crate::ScorerKind;
    use pcd_matching::MatchScratch;

    #[test]
    fn trait_output_matches_concrete_kernels() {
        let g = pcd_gen::rmat_graph(&pcd_gen::RmatParams::paper(8, 23));
        let ctx = ScoreContext::new(&g);
        let mut scores = Vec::new();
        score_all_into(ScorerKind::Modularity, &g, &ctx, &mut scores);
        let matching = pcd_matching::parallel::match_unmatched_list_scratch(
            &g,
            &scores,
            1000,
            &mut MatchScratch::new(),
        )
        .matching;

        let contractors: [&dyn Contractor; 5] =
            [&Bucket, &BucketFetchAdd, &Radix, &Linked, &SequentialOracle];
        let mut reference: Option<(Vec<u32>, usize)> = None;
        for c in contractors {
            let mut scratch = ContractScratch::new();
            let (next, num_new) =
                c.contract_level(&g, &matching, &mut scratch, GraphParts::default());
            assert_eq!(next.num_vertices(), num_new, "{}", c.name());
            assert_eq!(next.total_weight(), g.total_weight(), "{}", c.name());
            let map = scratch.new_of_old().to_vec();
            match &reference {
                None => reference = Some((map, num_new)),
                Some((ref_map, ref_new)) => {
                    assert_eq!(&map, ref_map, "{}", c.name());
                    assert_eq!(num_new, *ref_new, "{}", c.name());
                }
            }
        }
    }
}
