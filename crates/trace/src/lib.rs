//! Zero-steady-state-allocation observability for the detection engine.
//!
//! The crate hangs off `pcd-core`'s [`LevelObserver`](pcd_core::LevelObserver)
//! seam (DESIGN.md §12): a [`TraceObserver`] records phase/level/run spans
//! into a preallocated [`SpanRing`] and typed metrics into a [`Registry`],
//! then two hand-rolled exporters serialize the result — the
//! `parcomm-metrics-v1` / `parcomm-trace-v1` JSON documents validated by
//! `cargo xtask metrics`, and Prometheus text exposition.
//!
//! Discipline (tested by the PR's parity/overhead wall):
//! - every byte of recorder storage is allocated at construction;
//!   recording is index writes only (`tests/alloc_regression.rs`);
//! - hooks run outside the engine's phase timers and see immutable views,
//!   so an observed run is bit-identical to an unobserved one
//!   (`tests/dispatch_parity.rs`) and end-to-end overhead stays within the
//!   bench gate's `observed` arm budget;
//! - exporters allocate only at flush time, never during the level loop.

pub mod json;
pub mod observer;
pub mod prometheus;
pub mod registry;
pub mod ring;

pub use json::{metrics_json, trace_json};
pub use observer::{merge_runs, set_run_gauges, TraceObserver};
pub use prometheus::encode as prometheus_text;
pub use registry::{
    decade_bounds, CounterId, CounterView, FamilyView, GaugeId, GaugeView, HistogramId,
    HistogramView, MetricKind, Registry,
};
pub use ring::{SpanKind, SpanRecord, SpanRing};
