//! End-to-end tests of the `parcomm` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parcomm"))
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("parcomm-cli-{name}"));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn gen_stats_detect_roundtrip() {
    let dir = tmpdir("roundtrip");
    let graph = dir.join("ring.bin");

    let out = bin()
        .args(["gen", "clique-ring", "--cliques", "6", "--size", "5", "-o"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("30 vertices"), "{stdout}");

    let assignments = dir.join("a.txt");
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--refine", "2", "--assignments"])
        .arg(&assignments)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("modularity:"), "{stdout}");
    let lines = std::fs::read_to_string(&assignments).unwrap();
    assert_eq!(lines.lines().count(), 30);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_between_formats() {
    let dir = tmpdir("convert");
    let bin_path = dir.join("k.bin");
    let txt_path = dir.join("k.edges");

    assert!(bin()
        .args(["gen", "karate", "-o"])
        .arg(&bin_path)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("convert")
        .arg(&bin_path)
        .arg(&txt_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&txt_path).unwrap();
    assert!(text.lines().filter(|l| !l.starts_with('#')).count() >= 78);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails() {
    // `seed` and `stats` name no command, so a script that still calls
    // one exits 2.
    for args in [
        &["frobnicate"][..],
        &["seed", "g.bin", "0"][..],
        &["stats", "g.bin"][..],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown command"),
            "{args:?}"
        );
    }
}

#[test]
fn help_prints_full_usage() {
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["help"][..],
        &["detect", "--help"][..],
    ] {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: parcomm"), "{args:?}: {stdout}");
        assert!(stdout.contains("--paranoia"), "{args:?}: {stdout}");
        assert!(stdout.contains("--max-match-rounds"), "{args:?}: {stdout}");
        assert!(stdout.contains("--deadline-ms"), "{args:?}: {stdout}");
        assert!(stdout.contains("--strict-budget"), "{args:?}: {stdout}");
        assert!(stdout.contains("exit codes:"), "{args:?}: {stdout}");
    }
}

#[test]
fn list_kernels_enumerates_the_registry() {
    let out = bin().arg("--list-kernels").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for header in ["scorers (--scorer):", "matchers:", "contractors:"] {
        assert!(stdout.contains(header), "{stdout}");
    }
    for name in [
        "modularity",
        "conductance",
        "unmatched-list",
        "edge-sweep",
        "sequential",
        "louvain",
        "bucket",
        "bucket-fetch-add",
        "radix",
        "linked",
    ] {
        assert!(stdout.contains(name), "missing kernel {name}: {stdout}");
    }
    // Every non-header, non-blank line is "name  description".
    for line in stdout.lines() {
        if line.is_empty() || line.ends_with(':') {
            continue;
        }
        let mut words = line.split_whitespace();
        assert!(words.next().is_some(), "bare line: {line:?}");
        assert!(
            words.next().is_some(),
            "kernel without description: {line:?}"
        );
    }
}

#[test]
fn list_kernels_json_inventories_the_registry() {
    let out = bin().args(["--list-kernels", "--json"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for key in ["\"scorers\":", "\"matchers\":", "\"contractors\":"] {
        assert!(stdout.contains(key), "missing {key}: {stdout}");
    }
    // The full registry inventory, spelled exactly as the detect flags
    // accept them.
    for name in [
        "modularity",
        "conductance",
        "unmatched-list",
        "edge-sweep",
        "sequential",
        "louvain",
        "bucket",
        "bucket-fetch-add",
        "radix",
        "linked",
    ] {
        assert!(
            stdout.contains(&format!("{{\"name\": \"{name}\", \"description\": \"")),
            "missing kernel entry {name}: {stdout}"
        );
    }
    // Every entry line carries both fields.
    let entries = stdout.matches("\"name\": ").count();
    assert_eq!(entries, stdout.matches("\"description\": ").count());
    assert_eq!(entries, 11, "expected the full inventory");
}

#[test]
fn list_kernels_parses_strictly() {
    // The only argument accepted after --list-kernels is `--json`;
    // anything else is a usage error (exit 2), never silently ignored.
    for extra in [
        &["--jsn"][..],
        &["--json", "extra"][..],
        &["extra"][..],
        &["--json", "--json"][..],
    ] {
        let out = bin().arg("--list-kernels").args(extra).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--list-kernels"),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn detect_matcher_flag_selects_registry_backends() {
    let dir = tmpdir("matcher-flag");
    let graph = dir.join("planted.bin");
    assert!(bin()
        .args([
            "gen",
            "planted",
            "--vertices",
            "512",
            "--communities",
            "8",
            "-o"
        ])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    // Every matcher drives a full detect run; the planted
    // partition is easy (the quality oracle holds every backend to
    // NMI >= 0.9 on this family), so all backends recover exactly the 8
    // planted blocks. A clique ring would NOT work here: modularity's
    // resolution limit makes merging adjacent small cliques optimal, so
    // the "obvious" per-clique count is not what any backend returns.
    for name in ["unmatched-list", "edge-sweep", "sequential", "louvain"] {
        let out = bin()
            .arg("detect")
            .arg(&graph)
            .args(["--matcher", name])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--matcher {name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("communities:  8"),
            "--matcher {name}: {stdout}"
        );
    }
    // Unknown names are a configuration error (exit 2) that lists the
    // valid names.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--matcher", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown matcher 'nope'"), "{stderr}");
    assert!(stderr.contains("edge-sweep"), "{stderr}");
    assert!(stderr.contains("louvain"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_planted_writes_graph_and_ground_truth() {
    let dir = tmpdir("gen-planted");
    let graph = dir.join("planted.bin");
    let truth = dir.join("planted.truth");
    let out = bin()
        .args(["gen", "planted", "--vertices", "512", "--communities", "8"])
        .arg("--truth")
        .arg(&truth)
        .arg("-o")
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("512 vertices"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Truth file: one "vertex label" line per vertex, 8 distinct labels.
    let lines = std::fs::read_to_string(&truth).unwrap();
    assert_eq!(lines.lines().count(), 512);
    let labels: std::collections::HashSet<&str> = lines
        .lines()
        .map(|l| l.split_whitespace().nth(1).unwrap())
        .collect();
    assert_eq!(labels.len(), 8, "{labels:?}");

    // The planted structure is easy: detect recovers the block count.
    let out = bin().arg("detect").arg(&graph).output().unwrap();
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("communities:  8"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // --truth outside gen planted is a usage error.
    let out = bin()
        .args(["gen", "karate", "--truth"])
        .arg(&truth)
        .arg("-o")
        .arg(&graph)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Degenerate planted parameters are rejected, not asserted on.
    let out = bin()
        .args([
            "gen",
            "planted",
            "--vertices",
            "4",
            "--communities",
            "8",
            "-o",
        ])
        .arg(&graph)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_flag_narrates_levels_to_stderr() {
    let dir = tmpdir("progress");
    let graph = dir.join("ring.bin");
    assert!(bin()
        .args(["gen", "clique-ring", "--cliques", "6", "--size", "5", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .arg("--progress")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("level 1:"), "{stderr}");
    assert!(stderr.contains("score:"), "{stderr}");
    // --progress takes no value: a following flag still parses strictly,
    // and the summary still lands on stdout.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--progress", "--refine", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("modularity:"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_and_trace_exports_are_written_and_well_formed() {
    let dir = tmpdir("metrics-trace");
    let graph = dir.join("rmat.bin");
    assert!(bin()
        .args(["gen", "rmat", "--scale", "8", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());

    // JSON flavors, composed with --progress and --refine in one run.
    let metrics = dir.join("run-metrics.json");
    let trace = dir.join("run-trace.json");
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--trace")
        .arg(&trace)
        .args(["--progress", "--refine", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(stdout.contains("trace:"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("level 1:"),
        "--progress still narrates"
    );
    let mdoc = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        mdoc.contains("\"schema\": \"parcomm-metrics-v1\""),
        "{mdoc}"
    );
    assert!(mdoc.contains("pcd_runs_total"), "{mdoc}");
    assert!(mdoc.contains("\"phase\":\"score\""), "{mdoc}");
    let tdoc = std::fs::read_to_string(&trace).unwrap();
    assert!(tdoc.contains("\"schema\": \"parcomm-trace-v1\""), "{tdoc}");
    assert!(tdoc.contains("\"kind\": \"run\""), "{tdoc}");
    assert!(tdoc.contains("\"kind\": \"contract\""), "{tdoc}");

    // A .prom extension selects the Prometheus text exposition format.
    let prom = dir.join("run.prom");
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .arg("--metrics")
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let pdoc = std::fs::read_to_string(&prom).unwrap();
    assert!(pdoc.contains("# TYPE pcd_runs_total counter\n"), "{pdoc}");
    assert!(
        pdoc.contains("# TYPE pcd_phase_seconds histogram\n"),
        "{pdoc}"
    );
    assert!(pdoc.contains("pcd_last_run_modularity"), "{pdoc}");
    assert!(pdoc.contains("le=\"+Inf\""), "{pdoc}");

    // Strict parsing: both flags demand a value.
    for flag in ["--metrics", "--trace"] {
        let out = bin().arg("detect").arg(&graph).arg(flag).output().unwrap();
        assert!(!out.status.success(), "{flag} without value must fail");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: parcomm"));
}

#[test]
fn unknown_flag_rejected_with_allowed_list() {
    let dir = tmpdir("unknown-flag");
    let graph = dir.join("k.bin");
    assert!(bin()
        .args(["gen", "karate", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    // A typo'd flag must fail loudly, not be silently ignored.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--converage", "0.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--converage'"), "{stderr}");
    assert!(
        stderr.contains("--coverage"),
        "allowed list missing: {stderr}"
    );
    // Commands that take no flags reject any flag.
    let out = bin()
        .arg("convert")
        .arg(&graph)
        .arg(dir.join("k.edges"))
        .args(["--fast"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
        "convert"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flag_missing_value_rejected() {
    let dir = tmpdir("missing-value");
    let graph = dir.join("k.bin");
    assert!(bin()
        .args(["gen", "karate", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--coverage"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_with_paranoia_and_watchdog_flags() {
    let dir = tmpdir("paranoia");
    let graph = dir.join("ring.bin");
    assert!(bin()
        .args(["gen", "clique-ring", "--cliques", "6", "--size", "5", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--paranoia", "full", "--max-match-rounds", "64"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Bad paranoia level is a structured config error.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--paranoia", "extreme"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown paranoia level"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An invalid knob combination fails Config::validate before running.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--coverage", "1.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid configuration"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_binary_file_reports_structured_error() {
    let dir = tmpdir("corrupt-bin");
    let bad = dir.join("bad.bin");
    // Valid magic, header claiming 1000 edges, no body.
    let mut buf = b"PCDGRPH1".to_vec();
    buf.extend_from_slice(&4u64.to_le_bytes());
    buf.extend_from_slice(&1000u64.to_le_bytes());
    std::fs::write(&bad, &buf).unwrap();
    let out = bin().arg("detect").arg(&bad).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt input"), "{stderr}");
    assert!(stderr.contains("bad.bin"), "context path missing: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detect_with_coverage_rule() {
    let dir = tmpdir("coverage");
    let graph = dir.join("rmat.bin");
    assert!(bin()
        .args(["gen", "rmat", "--scale", "10", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--coverage", "0.5", "--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("communities:"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_detect_on_disconnected_graph() {
    let dir = tmpdir("sharded");
    let graph = dir.join("rmat.bin");
    // R-MAT at small scale is naturally disconnected (isolated vertices
    // and fragments), exactly the input --sharded exists for.
    assert!(bin()
        .args(["gen", "rmat", "--scale", "8", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let assignments = dir.join("a.txt");
    let metrics = dir.join("m.json");
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--sharded", "--threads", "2", "--assignments"])
        .arg(&assignments)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("modularity:"), "{stdout}");
    // The merged partition covers every original vertex.
    let lines = std::fs::read_to_string(&assignments).unwrap();
    assert_eq!(lines.lines().count(), 256);
    // Metrics flow through the merged per-component registries.
    let mdoc = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        mdoc.contains("\"schema\": \"parcomm-metrics-v1\""),
        "{mdoc}"
    );
    assert!(mdoc.contains("pcd_runs_total"), "{mdoc}");

    // Span traces are per-run artifacts the merge does not stitch;
    // asking for one under --sharded is a usage error, not silence.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--sharded", "--trace"])
        .arg(dir.join("t.json"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not supported with --sharded"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --sharded takes no value: strict parsing still works after it.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--sharded", "--progress"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `detect` on `graph` with `args` and a Prometheus export, and
/// checks every `pcd_last_run_*` gauge against the printed summary and
/// the input's size.
fn assert_run_gauges_match_the_printout(
    graph: &std::path::Path,
    args: &[&str],
    vertices: usize,
    edges: usize,
) {
    let prom = graph.with_extension("prom");
    let out = bin()
        .arg("detect")
        .arg(graph)
        .args(args)
        .arg("--metrics")
        .arg(&prom)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} line: {stdout}"))
            .trim()
            .to_string()
    };
    let doc = std::fs::read_to_string(&prom).unwrap();
    let gauge = |name: &str| -> f64 {
        doc.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} sample: {doc}"))
            .parse()
            .unwrap()
    };
    let secs = gauge("pcd_last_run_total_seconds");
    assert_eq!(
        gauge("pcd_last_run_communities").to_string(),
        printed("communities:"),
        "{args:?}"
    );
    assert_eq!(
        format!("{:.4}", gauge("pcd_last_run_modularity")),
        printed("modularity:"),
        "{args:?}"
    );
    assert_eq!(
        format!("{:.3}", gauge("pcd_last_run_coverage")),
        printed("coverage:"),
        "{args:?}"
    );
    assert_eq!(format!("{secs:.3}s"), printed("time:"), "{args:?}");
    assert_eq!(gauge("pcd_last_run_input_vertices"), vertices as f64);
    assert_eq!(gauge("pcd_last_run_input_edges"), edges as f64);
    let rate = if secs > 0.0 { edges as f64 / secs } else { 0.0 };
    assert_eq!(gauge("pcd_last_run_edges_per_second"), rate, "{args:?}");
}

#[test]
fn sharded_metrics_describe_the_merged_result() {
    // A ring of six 5-cliques and a separate 4-clique: the last component
    // alone has one community, 4 vertices and 6 edges.
    let dir = tmpdir("sharded-gauges");
    let graph = dir.join("two.edges");
    let mut text = String::new();
    for c in 0..6u32 {
        for i in 0..5 {
            for j in i + 1..5 {
                text += &format!("{} {}\n", 5 * c + i, 5 * c + j);
            }
        }
        text += &format!("{} {}\n", 5 * c, (5 * c + 5) % 30);
    }
    for i in 30..34u32 {
        for j in i + 1..34 {
            text += &format!("{i} {j}\n");
        }
    }
    std::fs::write(&graph, text).unwrap();
    assert_run_gauges_match_the_printout(&graph, &["--sharded"], 34, 72);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refined_metrics_describe_the_refined_result() {
    let dir = tmpdir("refine-gauges");
    let graph = dir.join("rmat.bin");
    let out = bin()
        .args(["gen", "rmat", "--scale", "8", "--seed", "7", "-o"])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(256 vertices, 2250 edges)"), "{stdout}");
    // Refinement moves Q at the printed precision on this input (0.3530
    // before, 0.3766 after), so the pre-refinement gauges would not match.
    assert_run_gauges_match_the_printout(&graph, &["--refine", "3"], 256, 2250);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_flag_accepted_across_subcommands() {
    let dir = tmpdir("threads-flag");
    let graph = dir.join("ring.bin");
    let out = bin()
        .args([
            "gen",
            "clique-ring",
            "--cliques",
            "6",
            "--size",
            "5",
            "--threads",
            "2",
            "-o",
        ])
        .arg(&graph)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .arg("communities")
        .arg(&graph)
        .args(["--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("communities, Q ="),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // 0 means "leave the default pool alone", not an error.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--threads", "0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_reports_error() {
    let out = bin()
        .args(["detect", "/nonexistent/graph.bin"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn exit_codes_distinguish_failure_classes() {
    // Everything the caller can fix — bad flags, unknown commands,
    // unreadable inputs, invalid knob values — exits 2.
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown command");
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no arguments");
    let out = bin()
        .args(["detect", "/nonexistent/graph.bin"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "missing file");

    let dir = tmpdir("exit-codes");
    let graph = dir.join("ring.bin");
    assert!(bin()
        .args(["gen", "clique-ring", "--cliques", "6", "--size", "5", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--coverage", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "invalid config");

    // A strict budget breach is its own exit code, 3.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--deadline-ms", "0", "--strict-budget"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "strict budget breach");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("budget exceeded"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_strict_deadline_returns_best_effort_partition() {
    let dir = tmpdir("deadline");
    let graph = dir.join("ring.bin");
    assert!(bin()
        .args(["gen", "clique-ring", "--cliques", "6", "--size", "5", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let assignments = dir.join("a.txt");
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--deadline-ms", "0", "--assignments"])
        .arg(&assignments)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("termination:  deadline"), "{stdout}");
    assert!(stdout.contains("best-effort"), "{stdout}");
    // An expired deadline at level start leaves the singleton partition —
    // still complete: one line per vertex.
    assert!(stdout.contains("communities:  30"), "{stdout}");
    let lines = std::fs::read_to_string(&assignments).unwrap();
    assert_eq!(lines.lines().count(), 30);

    // --max-levels now also reports through the termination contract.
    let out = bin()
        .arg("detect")
        .arg(&graph)
        .args(["--max-levels", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("termination:  max-levels"), "{stdout}");
    assert!(stdout.contains("levels:       1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn communities_subcommand_reports() {
    let dir = tmpdir("communities");
    let graph = dir.join("ring.bin");
    assert!(bin()
        .args(["gen", "clique-ring", "--cliques", "5", "--size", "6", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let out = bin()
        .arg("communities")
        .arg(&graph)
        .args(["--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("communities, Q ="), "{stdout}");
    assert!(stdout.contains("members"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_lfr_and_metis_convert() {
    let dir = tmpdir("lfr-metis");
    let edges = dir.join("lfr.edges");
    assert!(bin()
        .args(["gen", "lfr", "--vertices", "500", "--mixing", "0.2", "-o"])
        .arg(&edges)
        .output()
        .unwrap()
        .status
        .success());
    let metis = dir.join("lfr.metis");
    let out = bin()
        .arg("convert")
        .arg(&edges)
        .arg(&metis)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Round-trip the METIS file back in.
    let back = dir.join("back.edges");
    assert!(bin()
        .arg("convert")
        .arg(&metis)
        .arg(&back)
        .output()
        .unwrap()
        .status
        .success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_stdout_still_writes_the_requested_files() {
    // A reader that goes away before `detect` prints (`| head -1`, a
    // closed pipe) must cost neither the exit status nor the files.
    let dir = tmpdir("closed-stdout");
    let graph = dir.join("rmat.bin");
    assert!(bin()
        .args(["gen", "rmat", "--scale", "10", "-o"])
        .arg(&graph)
        .output()
        .unwrap()
        .status
        .success());
    let assignments = dir.join("a.txt");
    let metrics = dir.join("m.prom");
    let mut child = bin()
        .arg("detect")
        .arg(&graph)
        .arg("--assignments")
        .arg(&assignments)
        .arg("--metrics")
        .arg(&metrics)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // Every sample of the Prometheus export parses.
    let doc = std::fs::read_to_string(&metrics).unwrap();
    let samples: Vec<(&str, f64)> = doc
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').unwrap_or_else(|| panic!("{l}"));
            (name, value.parse().unwrap_or_else(|_| panic!("{l}")))
        })
        .collect();
    let vertices = samples
        .iter()
        .find_map(|&(name, v)| (name == "pcd_last_run_input_vertices").then_some(v))
        .unwrap_or_else(|| panic!("no input-vertices gauge: {doc}"));
    assert!(vertices > 0.0);
    // One assignment line per input vertex.
    let lines = std::fs::read_to_string(&assignments).unwrap();
    assert_eq!(lines.lines().count() as f64, vertices);
    std::fs::remove_dir_all(&dir).ok();
}
