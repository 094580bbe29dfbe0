//! `cargo xtask metrics` — schema validation for observability exports.
//!
//! Validates the JSON documents the `pcd-trace` exporters write:
//! `parcomm-metrics-v1` (the per-phase metrics registry snapshot emitted
//! by `parcomm detect --metrics` and `bench_gate --metrics-out`) and
//! `parcomm-trace-v1` (the span ring emitted by `--trace`). The schema is
//! detected from the document's `"schema"` field, so one command covers
//! both: `cargo xtask metrics out/metrics.json out/trace.json`.
//!
//! Reads documents with the dependency-free parser in `json.rs`, so this
//! gate runs without registry access.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{get, o_num, o_str, parse_json, Json};

pub(crate) fn run(args: &[String]) -> ExitCode {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: cargo xtask metrics FILE...");
        eprintln!("  validates parcomm-metrics-v1 / parcomm-trace-v1 documents");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for path in args {
        match validate_file(Path::new(path)) {
            Ok(summary) => println!("xtask metrics: {path}: {summary}"),
            Err(e) => {
                eprintln!("xtask metrics: {path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("xtask metrics: {failures} invalid document(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads, parses, and schema-checks one export; returns a one-line summary.
pub(crate) fn validate_file(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    validate_doc(&parse_json(&text)?)
}

/// Dispatches on the document's `"schema"` field.
pub(crate) fn validate_doc(json: &Json) -> Result<String, String> {
    let top = json.as_obj().ok_or("top level must be an object")?;
    let schema = get(top, "schema")?
        .as_str()
        .ok_or("\"schema\" must be a string")?;
    match schema {
        "parcomm-metrics-v1" => validate_metrics(top),
        "parcomm-trace-v1" => validate_trace(top),
        other => Err(format!("unknown schema {other:?}")),
    }
}

/// Metric names follow the Prometheus grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn check_metric_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        Ok(())
    } else {
        Err(format!("invalid metric name {name:?}"))
    }
}

/// Labels are an object of string values with sorted, unique keys — the
/// registry canonicalises at registration, so the export must agree.
fn check_labels(series: &[(String, Json)]) -> Result<(), String> {
    let labels = get(series, "labels")?
        .as_obj()
        .ok_or("\"labels\" must be an object")?;
    for (k, v) in labels {
        if v.as_str().is_none() {
            return Err(format!("label {k:?} must have a string value"));
        }
    }
    for pair in labels.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(format!(
                "label keys must be sorted and unique, got {:?} then {:?}",
                pair[0].0, pair[1].0
            ));
        }
    }
    Ok(())
}

fn validate_metrics(top: &[(String, Json)]) -> Result<String, String> {
    o_str(top, "label")?;
    o_num(top, "created_unix")?;
    let dropped = o_num(top, "dropped_observations")?;
    if dropped < 0.0 {
        return Err("\"dropped_observations\" must be >= 0".into());
    }

    let mut n_series = [0usize; 3];
    for (slot, key) in ["counters", "gauges", "histograms"].iter().enumerate() {
        let series = get(top, key)?
            .as_arr()
            .ok_or_else(|| format!("{key:?} must be an array"))?;
        n_series[slot] = series.len();
        for s in series {
            let o = s
                .as_obj()
                .ok_or_else(|| format!("{key} entries must be objects"))?;
            let name = o_str(o, "name")?;
            check_metric_name(&name).map_err(|e| format!("{key}: {e}"))?;
            check_labels(o).map_err(|e| format!("{key} {name}: {e}"))?;
            let r = match *key {
                "counters" => check_counter(o),
                "gauges" => check_gauge(o),
                _ => check_histogram(o),
            };
            r.map_err(|e| format!("{key} {name}: {e}"))?;
        }
    }
    Ok(format!(
        "parcomm-metrics-v1 ok ({} counters, {} gauges, {} histograms, {dropped} dropped)",
        n_series[0], n_series[1], n_series[2]
    ))
}

fn check_counter(o: &[(String, Json)]) -> Result<(), String> {
    let v = o_num(o, "value")?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "counter value must be a non-negative integer, got {v}"
        ));
    }
    Ok(())
}

fn check_gauge(o: &[(String, Json)]) -> Result<(), String> {
    // Non-finite gauge readings export as null; anything else is a number.
    let v = get(o, "value")?;
    if !matches!(v, Json::Null) && v.as_f64().is_none() {
        return Err("gauge value must be a number or null".into());
    }
    Ok(())
}

fn check_histogram(o: &[(String, Json)]) -> Result<(), String> {
    let sum = get(o, "sum")?;
    if !matches!(sum, Json::Null) && sum.as_f64().is_none() {
        return Err("histogram sum must be a number or null".into());
    }
    let count = o_num(o, "count")?;
    let buckets = get(o, "buckets")?
        .as_arr()
        .ok_or("\"buckets\" must be an array")?;
    if buckets.is_empty() {
        return Err("histogram has no buckets".into());
    }
    let mut total = 0.0;
    let mut prev_le = f64::NEG_INFINITY;
    for (i, b) in buckets.iter().enumerate() {
        let o = b.as_obj().ok_or("bucket entries must be objects")?;
        total += o_num(o, "count")?;
        let le = get(o, "le")?;
        match le {
            // `le: null` is the +Inf overflow bucket — exactly one, last.
            Json::Null if i + 1 == buckets.len() => {}
            Json::Null => return Err("le:null bucket must be last".into()),
            _ => {
                let le = le.as_f64().ok_or("bucket le must be a number or null")?;
                if le <= prev_le {
                    return Err(format!("bucket bounds not ascending at le={le}"));
                }
                prev_le = le;
            }
        }
    }
    if !matches!(buckets.last().and_then(|b| b.as_obj()), Some(o) if matches!(get(o, "le"), Ok(Json::Null)))
    {
        return Err("histogram is missing the le:null overflow bucket".into());
    }
    // Buckets are non-cumulative: their counts partition the observations.
    if total != count {
        return Err(format!("bucket counts sum to {total} but count is {count}"));
    }
    Ok(())
}

fn validate_trace(top: &[(String, Json)]) -> Result<String, String> {
    o_str(top, "label")?;
    o_num(top, "created_unix")?;
    let clock = o_str(top, "clock")?;
    if clock != "ns-since-recorder-epoch" {
        return Err(format!("unknown clock {clock:?}"));
    }
    let capacity = o_num(top, "capacity")?;
    let recorded = o_num(top, "recorded")?;
    let dropped = o_num(top, "dropped")?;
    if capacity < 1.0 {
        return Err("\"capacity\" must be >= 1".into());
    }
    let spans = get(top, "spans")?
        .as_arr()
        .ok_or("\"spans\" must be an array")?;
    // The ring keeps the newest min(recorded, capacity) spans and counts
    // the overwritten remainder as dropped.
    if spans.len() as f64 != recorded.min(capacity) || dropped != recorded - spans.len() as f64 {
        return Err(format!(
            "span accounting is inconsistent: {} spans, recorded {recorded}, \
             capacity {capacity}, dropped {dropped}",
            spans.len()
        ));
    }
    const KINDS: [&str; 5] = ["run", "level", "score", "match", "contract"];
    for s in spans {
        let o = s.as_obj().ok_or("span entries must be objects")?;
        let kind = o_str(o, "kind")?;
        if !KINDS.contains(&kind.as_str()) {
            return Err(format!(
                "span.kind must be one of {}, got {kind:?}",
                KINDS.join("|")
            ));
        }
        for k in ["level", "thread", "vertices", "edges"] {
            if o_num(o, k)? < 0.0 {
                return Err(format!("span.{k} must be >= 0"));
            }
        }
        let (start, end) = (o_num(o, "start_ticks")?, o_num(o, "end_ticks")?);
        if start > end {
            return Err(format!("span ticks out of order: {start} > {end}"));
        }
        let ks = get(o, "kernel_secs")?;
        if !matches!(ks, Json::Null) && ks.as_f64().is_none_or(|v| v < 0.0) {
            return Err("span.kernel_secs must be a non-negative number or null".into());
        }
    }
    Ok(format!(
        "parcomm-trace-v1 ok ({} spans, {recorded} recorded, {dropped} dropped)",
        spans.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = r#"{
      "schema": "parcomm-metrics-v1", "label": "rmat-10", "created_unix": 1,
      "dropped_observations": 0,
      "counters": [
        {"name": "pcd_levels_total", "labels": {}, "value": 8}
      ],
      "gauges": [
        {"name": "pcd_last_run_modularity", "labels": {}, "value": 0.41},
        {"name": "pcd_broken_clock", "labels": {}, "value": null}
      ],
      "histograms": [
        {"name": "pcd_phase_seconds", "labels": {"phase": "score"},
         "sum": 0.5, "count": 3,
         "buckets": [{"le": 0.001, "count": 1}, {"le": 1.0, "count": 2},
                     {"le": null, "count": 0}]}
      ]
    }"#;

    const TRACE: &str = r#"{
      "schema": "parcomm-trace-v1", "label": "rmat-10", "created_unix": 1,
      "clock": "ns-since-recorder-epoch",
      "capacity": 4096, "recorded": 2, "dropped": 0,
      "spans": [
        {"kind": "score", "level": 1, "start_ticks": 10, "end_ticks": 40,
         "thread": 0, "vertices": 32, "edges": 64, "kernel_secs": 3e-8},
        {"kind": "run", "level": 0, "start_ticks": 0, "end_ticks": 90,
         "thread": 0, "vertices": 32, "edges": 64, "kernel_secs": 9e-8}
      ]
    }"#;

    #[test]
    fn good_documents_validate() {
        let m = validate_doc(&parse_json(METRICS).unwrap()).unwrap();
        assert!(m.contains("1 counters"), "{m}");
        assert!(m.contains("2 gauges"), "{m}");
        let t = validate_doc(&parse_json(TRACE).unwrap()).unwrap();
        assert!(t.contains("2 spans"), "{t}");
    }

    #[test]
    fn schema_field_dispatches_and_rejects_unknown() {
        let e = validate_doc(&parse_json(r#"{"schema": "parcomm-bench-v1"}"#).unwrap());
        assert!(e.unwrap_err().contains("unknown schema"));
        assert!(validate_doc(&parse_json("[]").unwrap()).is_err());
    }

    #[test]
    fn rejects_metric_shape_violations() {
        for (bad, why) in [
            (
                METRICS.replace("\"value\": 8", "\"value\": -1"),
                "negative counter",
            ),
            (
                METRICS.replace("\"value\": 8", "\"value\": 1.5"),
                "fractional counter",
            ),
            (
                METRICS.replace("pcd_levels_total", "0bad name"),
                "bad metric name",
            ),
            (
                METRICS.replace("\"count\": 3", "\"count\": 4"),
                "bucket sum mismatch",
            ),
            (
                METRICS.replace("\"le\": 1.0", "\"le\": 0.0005"),
                "non-ascending bounds",
            ),
            (
                METRICS.replace(
                    "{\"le\": null, \"count\": 0}",
                    "{\"le\": 9.0, \"count\": 0}",
                ),
                "missing overflow bucket",
            ),
            (
                METRICS.replace(
                    "{\"phase\": \"score\"}",
                    "{\"phase\": \"score\", \"aaa\": \"x\"}",
                ),
                "unsorted label keys",
            ),
        ] {
            assert!(
                validate_doc(&parse_json(&bad).unwrap()).is_err(),
                "accepted {why}"
            );
        }
    }

    #[test]
    fn rejects_trace_shape_violations() {
        for (bad, why) in [
            (
                TRACE.replace("\"kind\": \"run\"", "\"kind\": \"refine\""),
                "unknown kind",
            ),
            (
                TRACE.replace("\"recorded\": 2", "\"recorded\": 3"),
                "span accounting",
            ),
            (
                TRACE.replace("\"end_ticks\": 40", "\"end_ticks\": 5"),
                "ticks out of order",
            ),
            (
                TRACE.replace("ns-since-recorder-epoch", "wall"),
                "unknown clock",
            ),
            (
                TRACE.replace("\"kernel_secs\": 3e-8", "\"kernel_secs\": -1"),
                "negative kernel_secs",
            ),
        ] {
            assert!(
                validate_doc(&parse_json(&bad).unwrap()).is_err(),
                "accepted {why}"
            );
        }
    }

    #[test]
    fn real_exporter_output_round_trips() {
        // Not a fixture: this feeds documents produced by the actual
        // pcd-trace exporters (dev-dependency) through the validator, so
        // writer and gate cannot drift apart silently.
        use pcd_trace::{metrics_json, trace_json, Registry, SpanKind, SpanRecord, SpanRing};
        let mut reg = Registry::new();
        let c = reg.counter("pcd_runs_total", "runs", &[]);
        reg.inc(c, 2);
        let g = reg.gauge("pcd_last_run_total_seconds", "t", &[]);
        reg.set(g, f64::NAN); // exports as null
        let h = reg.histogram(
            "pcd_phase_seconds",
            "lat",
            &[("phase", "score")],
            &[0.01, 1.0],
        );
        reg.observe(h, 0.005);
        reg.observe(h, 50.0);
        reg.observe(h, f64::INFINITY); // counted as dropped, not exported
        let doc = metrics_json(&reg, "round-trip", 7);
        let m = validate_doc(&parse_json(&doc).unwrap()).unwrap();
        assert!(m.contains("parcomm-metrics-v1 ok"), "{m}");
        assert!(m.contains("1 dropped"), "{m}");

        let mut ring = SpanRing::with_capacity(2);
        for i in 0..5u64 {
            ring.push(SpanRecord {
                kind: SpanKind::Level,
                level: i as u32,
                start_ticks: i * 10,
                end_ticks: i * 10 + 5,
                thread: 0,
                vertices: 4,
                edges: 8,
                kernel_secs: 0.5,
            });
        }
        let doc = trace_json(&ring, "round-trip", 7);
        let t = validate_doc(&parse_json(&doc).unwrap()).unwrap();
        assert!(t.contains("2 spans"), "{t}");
        assert!(t.contains("3 dropped"), "{t}");
    }

    #[test]
    fn ring_overflow_accounting_validates() {
        let full = TRACE
            .replace("\"capacity\": 4096", "\"capacity\": 2")
            .replace("\"recorded\": 2", "\"recorded\": 7")
            .replace("\"dropped\": 0", "\"dropped\": 5");
        let t = validate_doc(&parse_json(&full).unwrap()).unwrap();
        assert!(t.contains("5 dropped"), "{t}");
    }
}
