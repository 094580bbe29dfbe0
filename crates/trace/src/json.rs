//! `parcomm-metrics-v1` and `parcomm-trace-v1` JSON exporters.
//!
//! Hand-rolled like `bench_gate`'s `parcomm-bench-v4` writer, and parsed
//! back by the dependency-free validator in `xtask` (`cargo xtask metrics`).
//! Histogram buckets carry explicit non-cumulative counts with `"le": null`
//! standing for the `+Inf` overflow bucket. Non-finite gauge values are
//! emitted as `null` so the document is always strict JSON (which has no
//! NaN/Infinity literals).

use crate::registry::{MetricKind, Registry};
use crate::ring::SpanRing;
use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as JSON, `null` otherwise.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(k), json_str(v));
    }
    out.push('}');
    out
}

/// Renders the registry as a `parcomm-metrics-v1` document. `label` names
/// the run (instance name, CLI input path, ...); `created_unix` is the
/// caller-supplied wall-clock stamp (the exporter itself reads no clock).
pub fn metrics_json(reg: &Registry, label: &str, created_unix: u64) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for fam in reg.families() {
        match fam.kind {
            MetricKind::Counter => {
                for c in reg.counters_of(fam.name) {
                    counters.push(format!(
                        "    {{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                        json_str(c.name),
                        json_labels(c.labels),
                        c.value
                    ));
                }
            }
            MetricKind::Gauge => {
                for g in reg.gauges_of(fam.name) {
                    gauges.push(format!(
                        "    {{\"name\": {}, \"labels\": {}, \"value\": {}}}",
                        json_str(g.name),
                        json_labels(g.labels),
                        json_f64(g.value)
                    ));
                }
            }
            MetricKind::Histogram => {
                for h in reg.histograms_of(fam.name) {
                    let mut buckets = Vec::new();
                    for (i, count) in h.buckets.iter().enumerate() {
                        let le = match h.bounds.get(i) {
                            Some(b) => json_f64(*b),
                            None => "null".to_string(),
                        };
                        buckets.push(format!("{{\"le\": {le}, \"count\": {count}}}"));
                    }
                    histograms.push(format!(
                        "    {{\"name\": {}, \"labels\": {}, \"sum\": {}, \"count\": {}, \"buckets\": [{}]}}",
                        json_str(h.name),
                        json_labels(h.labels),
                        json_f64(h.sum),
                        h.count,
                        buckets.join(", ")
                    ));
                }
            }
        }
    }
    format!(
        "{{\n  \"schema\": \"parcomm-metrics-v1\",\n  \"label\": {},\n  \"created_unix\": {},\n  \"dropped_observations\": {},\n  \"counters\": [\n{}\n  ],\n  \"gauges\": [\n{}\n  ],\n  \"histograms\": [\n{}\n  ]\n}}\n",
        json_str(label),
        created_unix,
        reg.dropped_observations(),
        counters.join(",\n"),
        gauges.join(",\n"),
        histograms.join(",\n")
    )
}

/// Renders the span ring as a `parcomm-trace-v1` document, oldest span
/// first. Tick fields are nanoseconds on the recorder's own clock;
/// `kernel_secs` is the engine timer's reading for the covered work.
pub fn trace_json(ring: &SpanRing, label: &str, created_unix: u64) -> String {
    let spans: Vec<String> = ring
        .iter()
        .map(|s| {
            format!(
                "    {{\"kind\": {}, \"level\": {}, \"start_ticks\": {}, \"end_ticks\": {}, \"thread\": {}, \"vertices\": {}, \"edges\": {}, \"kernel_secs\": {}}}",
                json_str(s.kind.name()),
                s.level,
                s.start_ticks,
                s.end_ticks,
                s.thread,
                s.vertices,
                s.edges,
                json_f64(s.kernel_secs)
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"parcomm-trace-v1\",\n  \"label\": {},\n  \"created_unix\": {},\n  \"clock\": \"ns-since-recorder-epoch\",\n  \"capacity\": {},\n  \"recorded\": {},\n  \"dropped\": {},\n  \"spans\": [\n{}\n  ]\n}}\n",
        json_str(label),
        created_unix,
        ring.capacity(),
        ring.recorded(),
        ring.dropped(),
        spans.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{SpanKind, SpanRecord};

    #[test]
    fn metrics_document_shape() {
        let mut reg = Registry::new();
        let c = reg.counter("pcd_levels_total", "levels", &[]);
        reg.inc(c, 4);
        let g = reg.gauge("pcd_last_run_modularity", "q", &[]);
        reg.set(g, 0.5);
        let h = reg.histogram(
            "pcd_phase_seconds",
            "lat",
            &[("phase", "score")],
            &[0.1, 1.0],
        );
        reg.observe(h, 0.05);
        reg.observe(h, 10.0);
        let doc = metrics_json(&reg, "rmat-10", 1700000000);
        assert!(doc.contains("\"schema\": \"parcomm-metrics-v1\""));
        assert!(doc.contains("\"label\": \"rmat-10\""));
        assert!(doc.contains("\"name\": \"pcd_levels_total\", \"labels\": {}, \"value\": 4"));
        assert!(doc.contains("\"value\": 0.5"));
        assert!(doc.contains("{\"le\": 0.1, \"count\": 1}"));
        assert!(
            doc.contains("{\"le\": null, \"count\": 1}"),
            "+Inf bucket is le:null"
        );
        assert!(doc.contains("\"phase\":\"score\""));
    }

    #[test]
    fn non_finite_gauge_becomes_null() {
        let mut reg = Registry::new();
        let g = reg.gauge("g", "", &[]);
        reg.set(g, f64::NAN);
        let doc = metrics_json(&reg, "x", 0);
        assert!(doc.contains("\"value\": null"));
        assert!(!doc.contains("NaN"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut reg = Registry::new();
        reg.counter("m", "", &[("k", "a\"b\\c\nd")]);
        let doc = metrics_json(&reg, "l\"abel", 0);
        assert!(doc.contains(r#""label": "l\"abel""#));
        assert!(doc.contains(r#""a\"b\\c\nd""#));
    }

    #[test]
    fn trace_document_shape() {
        let mut ring = SpanRing::with_capacity(4);
        ring.push(SpanRecord {
            kind: SpanKind::Score,
            level: 1,
            start_ticks: 100,
            end_ticks: 250,
            thread: 0,
            vertices: 32,
            edges: 64,
            kernel_secs: 1.25e-7,
        });
        let doc = trace_json(&ring, "unit", 42);
        assert!(doc.contains("\"schema\": \"parcomm-trace-v1\""));
        assert!(doc.contains("\"capacity\": 4"));
        assert!(doc.contains("\"recorded\": 1"));
        assert!(doc.contains("\"dropped\": 0"));
        assert!(doc.contains("\"kind\": \"score\""));
        assert!(doc.contains("\"start_ticks\": 100"));
        assert!(doc.contains("\"edges\": 64"));
    }

    #[test]
    fn empty_registry_is_still_a_document() {
        let doc = metrics_json(&Registry::new(), "empty", 0);
        assert!(doc.contains("\"counters\": [\n\n  ]"));
        assert!(doc.ends_with("}\n"));
    }
}
