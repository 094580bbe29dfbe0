#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Parallel agglomerative community detection — the paper's contribution.
//!
//! Starting from the singleton partition, the driver repeats the three
//! primitives of §III until a local maximum or the coverage stop:
//!
//! 1. **score** every community-graph edge ([`scorer`]),
//! 2. **match** communities to merge (`pcd-matching`),
//! 3. **contract** the community graph (`pcd-contract`),
//!
//! while tracking the original-vertex → community mapping, per-community
//! vertex counts, per-level quality and phase timings.
//!
//! Each phase's kernel is a kind enum in [`Config`] ([`ScorerKind`],
//! [`MatcherKind`], [`ContractorKind`]), dispatched by one exhaustive
//! `match` per phase call ([`kernel`]); the [`engine::Detector`] owns the
//! config plus the warm scratch arenas so repeated detections reuse
//! buffers.
//!
//! ```
//! use pcd_core::{Config, Detector};
//!
//! let mut engine = Detector::new(Config::default()).unwrap();
//! let graph = pcd_gen::classic::clique_ring(8, 6);
//! let result = engine.run(graph).unwrap();
//! assert!(result.modularity > 0.5);
//! ```

pub mod budget;
pub mod config;
pub mod driver;
pub mod engine;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod kernel;
pub mod louvain;
pub mod multilevel;
pub mod observer;
pub mod refine;
pub mod result;
pub mod scorer;
pub mod scratch;
pub mod shard;

pub use budget::Budget;
pub use config::{
    default_match_round_cap, Config, ContractorKind, MatcherKind, Paranoia, ScorerKind,
};
pub use driver::{detect, try_detect};
pub use engine::{detect_many, detect_many_observed, Detector};
#[cfg(feature = "fault-injection")]
pub use fault::FaultPlan;
pub use louvain::{synchronous_move_phase, CommitRule, MoveStats};
pub use multilevel::{refine_multilevel, MultilevelOutcome};
pub use observer::{LevelObserver, NoopObserver, Tee};
pub use refine::{refine, refine_detected, Refinement};
pub use result::{DetectionResult, LevelStats, StopReason, Termination};
pub use scorer::{score_all_into, ScoreContext};
pub use scratch::LevelScratch;
pub use shard::{detect_sharded_outcomes, try_detect_sharded_observed, ComponentOutcome};
