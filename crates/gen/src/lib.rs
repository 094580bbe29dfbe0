#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Graph generators for the paper's evaluation (§V-B) and for tests.
//!
//! * [`rmat`] — the R-MAT generator with the paper's parameters
//!   (`a = 0.55, b = c = 0.10, d = 0.25`, perturbed), duplicate-edge
//!   accumulation and largest-component extraction.
//! * [`sbm`] — a planted-partition generator with power-law community
//!   sizes, standing in for the soc-LiveJournal1 snapshot (community-rich,
//!   skewed degrees, with ground truth for quality metrics).
//! * [`web`] — a hierarchical nested-community generator standing in for
//!   the uk-2007-05 crawl (deep locality, power-law degrees, large scale).
//! * [`classic`] — deterministic small graphs: Zachary's karate club,
//!   cliques, rings, stars, paths, clique chains.
//!
//! All generators derive per-work-item RNG streams from `(seed, index)`, so
//! output is identical for every thread count.

pub mod classic;
pub mod lfr;
pub mod rmat;
pub mod sbm;
pub mod web;

pub use lfr::{lfr_graph, LfrGraph, LfrParams};
pub use rmat::{rmat_graph, RmatParams};
pub use sbm::{sbm_graph, SbmParams};
pub use web::{web_graph, WebParams};
