#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Sequential community-detection baselines.
//!
//! The paper replaces the sequential priority-queue agglomeration of
//! Clauset–Newman–Moore with a parallel matching, and cross-checks quality
//! against SNAP's sequential implementation. This crate supplies the
//! sequential reference points:
//!
//! * [`cnm`] — greedy modularity maximisation with a lazy priority queue
//!   (CNM \[13\]/\[28\]): merge the single best pair per step.
//! * [`louvain`] — Blondel et al.'s local-moving + aggregation heuristic
//!   \[17\], the strongest quality baseline.
//!
//! Both are deterministic and return assignment vectors compatible with
//! `pcd-metrics`.

pub mod cnm;
pub mod louvain;

pub use cnm::cnm;
pub use louvain::louvain;
