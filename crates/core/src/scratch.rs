//! Per-level scratch arenas for the driver's score → match → contract
//! loop.
//!
//! The level loop runs the same three kernels on a monotonically shrinking
//! community graph, so every per-level buffer can be allocated once (at
//! level-1 size, the high-water mark) and logically resized downward
//! thereafter. [`LevelScratch`] owns all of them:
//!
//! * the score context (volumes carried through contraction, not
//!   recomputed) and the `|E|`-long score array,
//! * the matcher's proposal registers, live list, and compaction buffers
//!   ([`MatchScratch`]),
//! * the contractor's relabel map, bucket counts/offsets, and bucketed
//!   temp arrays ([`ContractScratch`]),
//! * a recycled [`GraphParts`] — the *shadow graph*: contraction scatters
//!   the next level's graph into the previous level's storage (its radix
//!   row sorts ping-pong through that storage first), so the two graphs
//!   ping-pong across levels instead of allocating anew,
//! * the fold buffers for per-community volumes and original-vertex
//!   counts.
//!
//! After the first level, a steady-state iteration of the loop performs no
//! heap allocation in score, match, or contract (asserted by the
//! `alloc-stats` regression test). [`crate::Config::reuse_scratch`] =
//! `false` rebuilds the arena every level — the pre-reuse behaviour, kept
//! as the ablation arm; both settings are bit-identical.

use crate::scorer::ScoreContext;
use pcd_contract::ContractScratch;
use pcd_graph::{Graph, GraphParts};
use pcd_matching::MatchScratch;
use pcd_util::Weight;

/// Every reusable buffer the driver's level loop touches. See the module
/// docs for the inventory. Construct with [`LevelScratch::default`]; all
/// buffers start empty and grow to the level-1 high-water mark.
#[derive(Debug, Default)]
pub struct LevelScratch {
    /// Score context: per-community volumes + total weight. Volumes are
    /// refreshed from the graph once per run, then folded through each
    /// contraction map (volume is conserved exactly under pair merges).
    pub ctx: ScoreContext,
    /// `|E|`-long per-edge score array.
    pub scores: Vec<f64>,
    /// Matching-kernel working storage.
    pub matching: MatchScratch,
    /// Contraction-kernel working storage (also holds each level's
    /// old→new map after `contract_into`).
    pub contract: ContractScratch,
    /// The shadow graph: storage of the level-before-last's graph, waiting
    /// to receive the next contraction. `None` only before the first
    /// contraction completes.
    pub parts: Option<GraphParts>,
    /// Fold target for per-community volumes (swapped into `ctx.vol`).
    pub vol_next: Vec<Weight>,
    /// Fold target for per-community original-vertex counts (swapped with
    /// the driver's counts array).
    pub counts_next: Vec<Weight>,
}

impl LevelScratch {
    /// An empty arena with no retained capacity.
    pub fn new() -> Self {
        LevelScratch::default()
    }

    /// Takes the shadow graph's storage for the next contraction, or empty
    /// parts (first level, or fresh-allocation mode).
    pub fn take_parts(&mut self) -> GraphParts {
        self.parts.take().unwrap_or_default()
    }

    /// Returns a retired graph's storage to the arena as the new shadow.
    pub fn store_parts(&mut self, g: Graph) {
        self.parts = Some(g.into_parts());
    }
}
