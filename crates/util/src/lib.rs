#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Shared low-level utilities for the parallel community detection crates.
//!
//! The paper's Cray XMT implementation leans on full/empty bits and the
//! OpenMP port on explicit locks; this crate collects the Rust equivalents
//! used throughout the workspace:
//!
//! * [`sync`] — the audited synchronisation layer: every atomic type,
//!   ordering choice and lock-free retry loop in the workspace routes
//!   through it (enforced by `cargo xtask lint`), and `--cfg loom` swaps
//!   in loom's model-checked doubles. Its one CAS retry loop
//!   (`cas_improve_u64`) backs the matchers' proposal registers, where the
//!   XMT used full/empty bits.
//! * [`par`] — the fork-join layer every parallel loop runs on: scoped
//!   worker threads claiming fixed index chunks from an atomic cursor,
//!   ordered collection and width-independent reductions.
//! * [`pool`] — the region width (`with_threads`, `pin_global`), the
//!   analogue of `OMP_NUM_THREADS` sweeps.
//! * [`scan`] — parallel exclusive prefix sums, used to assign contiguous
//!   vertex ids and bucket offsets during contraction.
//! * [`rng`] — deterministic per-index ChaCha streams so generated graphs do
//!   not depend on thread count or work partitioning.
//! * [`timing`] — wall-clock timers and run statistics for the benchmark
//!   harness (the paper reports min/median over three runs).
//! * [`prop`] — a seeded property-loop helper for randomized tests.
//! * [`error`] — the crate-spanning structured [`PcdError`] every fallible
//!   path (readers, builders, CLI, runtime invariant guards) reports
//!   through instead of panicking.

#[cfg(feature = "alloc-stats")]
pub mod alloc_stats;
pub mod error;
pub mod par;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod scan;
pub mod sync;
pub mod timing;

pub use error::{PcdError, Phase};

/// Vertex identifier. The paper stores 64-bit labels on the XMT and 32-bit
/// labels for the largest graph on Intel; 32 bits cover every graph this
/// reproduction targets.
pub type VertexId = u32;

/// Edge weight: the *count* of input-graph edges collapsed into a
/// community-graph edge (or contained in a community, for self-loops).
/// Integer weights make parallel accumulation order-independent.
pub type Weight = u64;

/// Sentinel meaning "no vertex" (unmatched, no parent, ...).
pub const NO_VERTEX: VertexId = VertexId::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_is_max() {
        assert_eq!(NO_VERTEX, u32::MAX);
    }
}
