//! `cargo xtask bench` — the JSON benchmark gate.
//!
//! Drives `bench_gate` (crates/bench/src/bin/bench_gate.rs), validates the
//! emitted `parcomm-bench-v3` report against the expected schema (v2
//! reports, which predate the `quality` section, and v1 reports, which
//! additionally predate the `contract-radix` arm and the host
//! `rayon_threads` field, still load as comparison baselines), and
//! compares it with the previous checked-in `BENCH_*.json`: any
//! (instance, threads, arm) cell whose median end-to-end time regressed by
//! more than the configured threshold fails the gate. Comparing reports
//! taken at different thread widths prints a loud warning — those
//! medians measure different machines.
//!
//! `--min-quality-ratio` gates the report's `quality` section: per
//! matching backend, the geometric mean of modularity over the sequential
//! Louvain reference must clear the floor, and every cell with planted
//! ground truth must clear the NMI floor. Quality cells are measured on
//! fixed-size instances and are deterministic, so — unlike every timing
//! gate — this one is **not** smoke-exempt.
//!
//! Like the lint gate, this module is dependency-free: the JSON reader is
//! a small recursive-descent parser covering exactly the JSON the harness
//! emits (no serde in the workspace).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default allowed slowdown: new median may be up to 15% above baseline.
/// Wide because CI runners are noisy; tighten with `--threshold`.
const DEFAULT_THRESHOLD: f64 = 1.15;

pub(crate) fn run(args: &[String]) -> ExitCode {
    let mut smoke = false;
    let mut skip_run = false;
    let mut alloc_stats = false;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut max_observed_overhead: Option<f64> = None;
    let mut max_budget_overhead: Option<f64> = None;
    let mut min_contract_speedup: Option<f64> = None;
    let mut min_sharded_speedup: Option<f64> = None;
    let mut max_sharded_overhead: Option<f64> = None;
    let mut min_quality_ratio: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut forward: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match flag.as_str() {
                "--smoke" => smoke = true,
                "--skip-run" => skip_run = true,
                "--alloc-stats" => alloc_stats = true,
                "--threshold" => {
                    threshold = val("--threshold")?
                        .parse()
                        .map_err(|_| "bad --threshold".to_string())?;
                }
                "--max-observed-overhead" => {
                    max_observed_overhead = Some(
                        val("--max-observed-overhead")?
                            .parse()
                            .map_err(|_| "bad --max-observed-overhead".to_string())?,
                    );
                }
                "--max-budget-overhead" => {
                    max_budget_overhead = Some(
                        val("--max-budget-overhead")?
                            .parse()
                            .map_err(|_| "bad --max-budget-overhead".to_string())?,
                    );
                }
                "--min-contract-speedup" => {
                    min_contract_speedup = Some(
                        val("--min-contract-speedup")?
                            .parse()
                            .map_err(|_| "bad --min-contract-speedup".to_string())?,
                    );
                }
                "--min-sharded-speedup" => {
                    min_sharded_speedup = Some(
                        val("--min-sharded-speedup")?
                            .parse()
                            .map_err(|_| "bad --min-sharded-speedup".to_string())?,
                    );
                }
                "--max-sharded-overhead" => {
                    max_sharded_overhead = Some(
                        val("--max-sharded-overhead")?
                            .parse()
                            .map_err(|_| "bad --max-sharded-overhead".to_string())?,
                    );
                }
                "--min-quality-ratio" => {
                    min_quality_ratio = Some(
                        val("--min-quality-ratio")?
                            .parse()
                            .map_err(|_| "bad --min-quality-ratio".to_string())?,
                    );
                }
                "--out" => out = Some(val("--out")?),
                "--baseline" => baseline = Some(val("--baseline")?),
                // Pass instance-shape flags straight through to bench_gate.
                "--scale" | "--sbm-vertices" | "--threads" | "--runs" | "--label" => {
                    forward.push(flag.clone());
                    forward.push(val(flag)?);
                }
                other => return Err(format!("unknown flag {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("xtask bench: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    }
    if threshold < 1.0 {
        eprintln!("xtask bench: --threshold is a ratio >= 1.0 (e.g. 1.15 allows +15%)");
        return ExitCode::FAILURE;
    }
    if max_observed_overhead.is_some_and(|l| l < 1.0) {
        eprintln!("xtask bench: --max-observed-overhead is a ratio >= 1.0 (e.g. 1.02 allows +2%)");
        return ExitCode::FAILURE;
    }
    if max_budget_overhead.is_some_and(|l| l < 1.0) {
        eprintln!("xtask bench: --max-budget-overhead is a ratio >= 1.0 (e.g. 1.01 allows +1%)");
        return ExitCode::FAILURE;
    }
    if min_contract_speedup.is_some_and(|l| l < 1.0) {
        eprintln!(
            "xtask bench: --min-contract-speedup is a ratio >= 1.0 (e.g. 1.2 demands 20% faster)"
        );
        return ExitCode::FAILURE;
    }
    if min_sharded_speedup.is_some_and(|l| l <= 0.0) {
        eprintln!(
            "xtask bench: --min-sharded-speedup is a positive ratio (e.g. 1.1 demands 10% \
             faster on union instances; values below 1.0 only bound the slowdown)"
        );
        return ExitCode::FAILURE;
    }
    if max_sharded_overhead.is_some_and(|l| l < 1.0) {
        eprintln!("xtask bench: --max-sharded-overhead is a ratio >= 1.0 (e.g. 1.01 allows +1%)");
        return ExitCode::FAILURE;
    }
    if min_quality_ratio.is_some_and(|l| l <= 0.0) {
        eprintln!(
            "xtask bench: --min-quality-ratio is a positive ratio (e.g. 0.95 demands 95% \
             of the sequential reference modularity)"
        );
        return ExitCode::FAILURE;
    }

    let root = crate::repo_root();
    let out_path = root.join(out.as_deref().unwrap_or(if smoke {
        "target/BENCH_smoke.json"
    } else {
        "BENCH_pr3.json"
    }));

    if !skip_run {
        if let Err(e) = invoke_bench_gate(&root, &out_path, smoke, alloc_stats, &forward) {
            eprintln!("xtask bench: {e}");
            return ExitCode::FAILURE;
        }
    }

    let report = match load_report(&out_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench: {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "xtask bench: {} is schema-valid ({} result cells)",
        out_path.display(),
        report.cells.len()
    );
    if !overhead_ok(&report.cells, "observed", max_observed_overhead, smoke) {
        eprintln!("xtask bench: observed arm exceeds --max-observed-overhead");
        return ExitCode::FAILURE;
    }
    if !overhead_ok(
        &report.cells,
        "budgeted-unarmed",
        max_budget_overhead,
        smoke,
    ) {
        eprintln!("xtask bench: budgeted-unarmed arm exceeds --max-budget-overhead");
        return ExitCode::FAILURE;
    }
    if !contract_speedup_ok(&report.cells, min_contract_speedup, smoke) {
        eprintln!("xtask bench: contract-radix arm falls short of --min-contract-speedup");
        return ExitCode::FAILURE;
    }
    if !sharded_speedup_ok(&report.cells, min_sharded_speedup, smoke) {
        eprintln!("xtask bench: sharded arm falls short of --min-sharded-speedup");
        return ExitCode::FAILURE;
    }
    if !sharded_overhead_ok(&report.cells, max_sharded_overhead, smoke) {
        eprintln!("xtask bench: sharded fast path exceeds --max-sharded-overhead");
        return ExitCode::FAILURE;
    }
    // Quality gates before the smoke early-return on purpose: the quality
    // cells are deterministic fixed-size measurements, so they carry full
    // signal even on a cold CI runner at tiny timing scale.
    if !quality_ok(&report.quality, min_quality_ratio) {
        eprintln!("xtask bench: a backend falls short of --min-quality-ratio");
        return ExitCode::FAILURE;
    }
    if smoke {
        // Smoke mode gates schema, plumbing, and quality only; timings on
        // a cold CI runner at tiny scale carry no signal worth failing on.
        return ExitCode::SUCCESS;
    }

    let baseline_path = baseline
        .map(|b| root.join(b))
        .or_else(|| previous_report(&root, &out_path));
    let Some(baseline_path) = baseline_path else {
        println!("xtask bench: no previous BENCH_*.json found; nothing to compare");
        return ExitCode::SUCCESS;
    };
    let base = match load_report(&baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask bench: baseline {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "xtask bench: comparing against {} (threshold {threshold}x)",
        baseline_path.display()
    );
    warn_thread_mismatch(&report, &base);

    let mut regressions = 0usize;
    for cell in &report.cells {
        let Some(old) = base.cells.iter().find(|b| b.key() == cell.key()) else {
            continue;
        };
        let ratio = cell.median_secs / old.median_secs;
        let verdict = if ratio > threshold {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {:28} t={:<2} {:5}  {:.4}s -> {:.4}s  ({ratio:.2}x) {verdict}",
            cell.instance, cell.threads, cell.arm, old.median_secs, cell.median_secs
        );
    }
    if regressions > 0 {
        eprintln!("xtask bench: {regressions} cell(s) regressed past {threshold}x");
        ExitCode::FAILURE
    } else {
        println!("xtask bench: no regressions");
        ExitCode::SUCCESS
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask bench [--smoke] [--skip-run] [--alloc-stats] \
         [--threshold 1.15] [--max-observed-overhead 1.02] \
         [--max-budget-overhead 1.01] [--min-contract-speedup 1.2] \
         [--min-sharded-speedup 1.1] [--max-sharded-overhead 1.01] \
         [--min-quality-ratio 0.95] [--out FILE] \
         [--baseline FILE] [--scale N] [--sbm-vertices N] [--threads 1,2,8] \
         [--runs N] [--label L]"
    );
}

/// Loud, non-fatal warning when two reports were taken at different
/// thread widths: every regression verdict below compares medians
/// measured on effectively different machines. Returns `true` when the
/// widths match (v1 baselines carry no `rayon_threads`; only the fields
/// both reports have are compared).
fn warn_thread_mismatch(new: &Report, old: &Report) -> bool {
    let pool_differs = match (new.rayon_threads, old.rayon_threads) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    if new.available_parallelism == old.available_parallelism && !pool_differs {
        return true;
    }
    eprintln!("xtask bench: ********************************************************");
    eprintln!("xtask bench: WARNING: thread environments differ between the reports:");
    eprintln!(
        "xtask bench:   report   available_parallelism={} rayon_threads={}",
        new.available_parallelism,
        new.rayon_threads.map_or("?".into(), |n| n.to_string())
    );
    eprintln!(
        "xtask bench:   baseline available_parallelism={} rayon_threads={}",
        old.available_parallelism,
        old.rayon_threads.map_or("?".into(), |n| n.to_string())
    );
    eprintln!("xtask bench: the regression verdicts below compare medians measured");
    eprintln!("xtask bench: at different widths and are advisory at best.");
    eprintln!("xtask bench: ********************************************************");
    false
}

/// Prints the contract-phase speedup of the `contract-radix` arm over
/// the `reuse` (bucket-kernel) arm for every (instance, threads) pair
/// carrying both, and gates the pooled geometric mean against `limit`
/// (a minimum: the pool must be at least `limit`x faster). Pooled for
/// the same reason as [`overhead_ok`]: the kernels do identical
/// per-level work on every instance, so the cells are replicates of one
/// quantity. Smoke-mode timings carry no signal and never gate.
fn contract_speedup_ok(report: &[Cell], limit: Option<f64>, smoke: bool) -> bool {
    let mut speedups = Vec::new();
    for cell in report.iter().filter(|c| c.arm == "contract-radix") {
        let plain = report
            .iter()
            .find(|c| c.arm == "reuse" && c.instance == cell.instance && c.threads == cell.threads);
        let Some(plain) = plain else { continue };
        if cell.contract_secs <= 0.0 || plain.contract_secs <= 0.0 {
            continue;
        }
        let speedup = plain.contract_secs / cell.contract_secs;
        println!(
            "  {:28} t={:<2} contract radix speedup {speedup:.2}x \
             ({:.4}s -> {:.4}s)",
            cell.instance, cell.threads, plain.contract_secs, cell.contract_secs
        );
        speedups.push(speedup);
    }
    if speedups.is_empty() {
        return true;
    }
    let mean = (speedups.iter().map(|r| r.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let under = !smoke && limit.is_some_and(|l| mean < l);
    println!(
        "  contract-radix speedup geometric mean over {} cell(s): {mean:.2}x{}",
        speedups.len(),
        if under { "  UNDER TARGET" } else { "" }
    );
    !under
}

/// End-to-end speedup of the `sharded` arm over `reuse` on the
/// multi-component `union-*` instances — the case component sharding
/// exists for. Pairs the arms at the same (instance, threads), pools by
/// geometric mean, and gates the pool against `limit` as a minimum.
/// Unlike the other speedup gate the limit may sit below 1.0: on narrow
/// hosts per-component detection pays decompose/merge overhead without
/// winning concurrency, and the gate then bounds the slowdown instead.
/// Smoke-mode timings never gate.
fn sharded_speedup_ok(report: &[Cell], limit: Option<f64>, smoke: bool) -> bool {
    let mut speedups = Vec::new();
    for (cell, plain) in sharded_pairs(report, |instance| instance.starts_with("union-")) {
        let speedup = plain.median_secs / cell.median_secs;
        println!(
            "  {:28} t={:<2} sharded speedup {speedup:.2}x ({:.4}s -> {:.4}s)",
            cell.instance, cell.threads, plain.median_secs, cell.median_secs
        );
        speedups.push(speedup);
    }
    if speedups.is_empty() {
        return true;
    }
    let mean = (speedups.iter().map(|r| r.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let under = !smoke && limit.is_some_and(|l| mean < l);
    println!(
        "  sharded speedup geometric mean over {} union cell(s): {mean:.2}x{}",
        speedups.len(),
        if under { "  UNDER TARGET" } else { "" }
    );
    !under
}

/// Whole-run cost of routing a **connected** graph through the sharded
/// entry point, which must detect the single component and fall through
/// to the plain engine: the sharded/reuse ratio on every non-`union-*`
/// instance carrying both arms (the `ring-*` cells), pooled by geometric
/// mean and gated against `limit` as a maximum. This is the fast-path
/// acceptance check — one components() sweep over an untouched graph —
/// so the budget is small (≈1%). Smoke-mode timings never gate.
fn sharded_overhead_ok(report: &[Cell], limit: Option<f64>, smoke: bool) -> bool {
    let mut ratios = Vec::new();
    for (cell, plain) in sharded_pairs(report, |instance| !instance.starts_with("union-")) {
        let ratio = cell.median_secs / plain.median_secs;
        println!(
            "  {:28} t={:<2} sharded/reuse {ratio:.4}x (fast path)",
            cell.instance, cell.threads
        );
        ratios.push(ratio);
    }
    if ratios.is_empty() {
        return true;
    }
    let mean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let over = !smoke && limit.is_some_and(|l| mean > l);
    println!(
        "  sharded fast-path geometric mean over {} cell(s): {mean:.4}x{}",
        ratios.len(),
        if over { "  OVER BUDGET" } else { "" }
    );
    !over
}

/// NMI floor on quality cells with planted ground truth when
/// `--min-quality-ratio` is set: the ground truth is known and easy, so
/// every backend must recover it near-perfectly.
const QUALITY_NMI_FLOOR: f64 = 0.9;

/// Prints every quality cell's modularity ratio against the sequential
/// Louvain reference and gates, per matching backend, the geometric mean
/// of those ratios against `limit` (a floor). Cells carrying planted
/// ground truth additionally must clear [`QUALITY_NMI_FLOOR`] NMI.
/// Pooled per backend because the fixed instances are replicate probes
/// of one backend's quality; pooling across backends would let a strong
/// one mask a broken one. Unlike the timing gates, quality cells are
/// deterministic fixed-size measurements, so smoke mode does **not**
/// exempt them. A report with no quality section (a v1/v2 baseline)
/// fails when the flag asks for the gate: there is nothing to certify.
fn quality_ok(quality: &[QualityCell], limit: Option<f64>) -> bool {
    if quality.is_empty() {
        if limit.is_some() {
            eprintln!(
                "xtask bench: --min-quality-ratio set but the report carries no quality cells"
            );
            return false;
        }
        return true;
    }
    let mut backends: Vec<&str> = Vec::new();
    for c in quality {
        if !backends.contains(&c.backend.as_str()) {
            backends.push(&c.backend);
        }
    }
    let mut ok = true;
    for backend in backends {
        let mut ratios = Vec::new();
        for c in quality.iter().filter(|c| c.backend == backend) {
            let ratio = c.modularity / c.reference_modularity;
            let nmi_bad = limit.is_some() && c.nmi.is_some_and(|n| n < QUALITY_NMI_FLOOR);
            println!(
                "  {:18} {:16} Q/ref {ratio:.3} (Q {:.4}, ref {:.4}){}{}",
                c.instance,
                backend,
                c.modularity,
                c.reference_modularity,
                c.nmi.map_or(String::new(), |n| format!("  NMI {n:.3}")),
                if nmi_bad { "  UNDER NMI FLOOR" } else { "" }
            );
            ok &= !nmi_bad;
            ratios.push(ratio);
        }
        let mean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        let under = limit.is_some_and(|l| mean < l);
        println!(
            "  {backend}: quality ratio geometric mean over {} cell(s): {mean:.3}{}",
            ratios.len(),
            if under { "  UNDER TARGET" } else { "" }
        );
        ok &= !under;
    }
    ok
}

/// (sharded, reuse) cell pairs at the same (instance, threads) whose
/// instance name passes `pick`, with degenerate timings skipped.
fn sharded_pairs<'a>(
    report: &'a [Cell],
    pick: impl Fn(&str) -> bool + 'a,
) -> impl Iterator<Item = (&'a Cell, &'a Cell)> {
    report
        .iter()
        .filter(move |c| c.arm == "sharded" && pick(&c.instance))
        .filter_map(|cell| {
            let plain = report.iter().find(|c| {
                c.arm == "reuse" && c.instance == cell.instance && c.threads == cell.threads
            })?;
            (cell.median_secs > 0.0 && plain.median_secs > 0.0).then_some((cell, plain))
        })
}

/// Prints the `arm`-vs-reuse ratio for every (instance, threads) pair
/// carrying both arms — the whole-run cost of that arm's extra machinery
/// (the tracing recorder for `observed`, the armed budget sentinel for
/// `budgeted-unarmed`) — and gates their pooled geometric mean against
/// `limit`.
///
/// Per cell it prefers the report's `overhead_vs_reuse` (the min/min
/// ratio of the two arms' fastest interleaved samples, which additive
/// host noise falls out of) and falls back to the ratio of the two cell
/// medians for reports that predate the field. The gate pools because
/// the extra machinery does identical per-level work on every instance,
/// so the cells are replicate measurements of one quantity: a single
/// cell's min-ratio still carries a few percent of shared-host noise —
/// more than a tight budget — while the geometric mean over all cells
/// does not. Per-cell ratios are printed for localization. Smoke-mode
/// timings carry no signal, so there the ratios are reported but never
/// gating.
fn overhead_ok(report: &[Cell], arm: &str, limit: Option<f64>, smoke: bool) -> bool {
    let mut ratios = Vec::new();
    for cell in report.iter().filter(|c| c.arm == arm) {
        let plain = report
            .iter()
            .find(|c| c.arm == "reuse" && c.instance == cell.instance && c.threads == cell.threads);
        let Some(plain) = plain else { continue };
        let (ratio, how) = match cell.overhead_vs_reuse {
            Some(min_ratio) => (min_ratio, "min-ratio"),
            None => (cell.median_secs / plain.median_secs, "of-medians"),
        };
        println!(
            "  {:28} t={:<2} {arm}/reuse {ratio:.4}x ({how})",
            cell.instance, cell.threads
        );
        ratios.push(ratio);
    }
    if ratios.is_empty() {
        return true;
    }
    let mean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    let over = !smoke && limit.is_some_and(|l| mean > l);
    println!(
        "  {arm}/reuse geometric mean over {} cell(s): {mean:.4}x{}",
        ratios.len(),
        if over { "  OVER BUDGET" } else { "" }
    );
    !over
}

fn invoke_bench_gate(
    root: &Path,
    out_path: &Path,
    smoke: bool,
    alloc_stats: bool,
    forward: &[String],
) -> Result<(), String> {
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    let mut cmd = std::process::Command::new("cargo");
    cmd.current_dir(root)
        .args(["run", "--release", "-p", "pcd-bench", "--bin", "bench_gate"]);
    if alloc_stats {
        cmd.args(["--features", "alloc-stats"]);
    }
    cmd.arg("--");
    if smoke {
        cmd.arg("--smoke");
    }
    cmd.args(forward);
    cmd.arg("--out").arg(out_path);
    let status = cmd
        .status()
        .map_err(|e| format!("failed to launch cargo: {e}"))?;
    if !status.success() {
        return Err(format!("bench_gate exited with {status}"));
    }
    Ok(())
}

/// Most recently modified `BENCH_*.json` in the repo root other than the
/// report under test — the previous PR's checked-in baseline.
fn previous_report(root: &Path, out_path: &Path) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(root).ok()?.flatten() {
        let path = entry.path();
        let name = path.file_name()?.to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        if path.canonicalize().ok() == out_path.canonicalize().ok() {
            continue;
        }
        let mtime = entry.metadata().ok()?.modified().ok()?;
        if best.as_ref().is_none_or(|(t, _)| mtime > *t) {
            best = Some((mtime, path));
        }
    }
    best.map(|(_, p)| p)
}

// ---------------------------------------------------------------------------
// Report loading: parse + schema validation.
// ---------------------------------------------------------------------------

/// The fields of one result cell the gate actually compares.
#[derive(Debug, PartialEq)]
pub(crate) struct Cell {
    pub instance: String,
    pub threads: u64,
    pub arm: String,
    pub median_secs: f64,
    /// Contract-phase seconds of the cell's measured run — what the
    /// `--min-contract-speedup` gate compares between the
    /// `contract-radix` and `reuse` arms.
    pub contract_secs: f64,
    /// Ratio of this arm's and the reuse arm's fastest samples, emitted
    /// by bench_gate on `observed` and `budgeted-unarmed` cells only.
    /// Preferred by the overhead gate over a ratio of independent medians
    /// because additive host noise falls out of a min/min ratio over
    /// interleaved rounds. Absent in reports from before those arms
    /// existed.
    pub overhead_vs_reuse: Option<f64>,
}

impl Cell {
    fn key(&self) -> (&str, u64, &str) {
        (&self.instance, self.threads, &self.arm)
    }
}

/// One (quality instance, backend) measurement from the report's
/// `quality` section — what `--min-quality-ratio` gates.
#[derive(Debug, PartialEq)]
pub(crate) struct QualityCell {
    pub instance: String,
    pub backend: String,
    /// Modularity of the backend's detect + refine pipeline on the
    /// original graph.
    pub modularity: f64,
    /// NMI against planted ground truth; `None` on instances without one.
    pub nmi: Option<f64>,
    /// Sequential Louvain reference modularity on the same graph.
    pub reference_modularity: f64,
}

/// A validated report: its result cells plus the host thread environment
/// (what the thread-mismatch warning compares).
#[derive(Debug)]
pub(crate) struct Report {
    pub cells: Vec<Cell>,
    /// Quality cells; empty in v1/v2 reports, which predate the section.
    pub quality: Vec<QualityCell>,
    pub available_parallelism: u64,
    /// Default rayon pool width. `None` in v1 reports, which predate the
    /// field.
    pub rayon_threads: Option<u64>,
}

/// Reads, parses, and schema-checks a report.
pub(crate) fn load_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = parse_json(&text)?;
    validate_report(&json)
}

/// Validates the `parcomm-bench-v3` shape (v1/v2 accepted for baselines)
/// and extracts the cells plus host thread environment.
pub(crate) fn validate_report(json: &Json) -> Result<Report, String> {
    let top = json.as_obj().ok_or("top level must be an object")?;
    let schema = get(top, "schema")?
        .as_str()
        .ok_or("\"schema\" must be a string")?;
    let version = match schema {
        "parcomm-bench-v3" => 3,
        // v2 reports predate the quality section; v1 additionally
        // predates the contract-radix arm and host.rayon_threads. Both
        // stay loadable so previous PRs' BENCH_*.json work as comparison
        // baselines.
        "parcomm-bench-v2" => 2,
        "parcomm-bench-v1" => 1,
        _ => return Err(format!("unknown schema {schema:?}")),
    };
    let v2 = version >= 2;
    get(top, "label")?
        .as_str()
        .ok_or("\"label\" must be a string")?;
    get(top, "created_unix")?
        .as_f64()
        .ok_or("\"created_unix\" must be a number")?;
    let host = get(top, "host")?
        .as_obj()
        .ok_or("\"host\" must be an object")?;
    let available_parallelism = get(host, "available_parallelism")?
        .as_f64()
        .ok_or("host.available_parallelism must be a number")?
        as u64;
    let rayon_threads = match obj_get_opt(host, "rayon_threads") {
        Some(v) => Some(v.as_f64().ok_or("host.rayon_threads must be a number")? as u64),
        None if v2 => return Err("v2 reports must carry host.rayon_threads".into()),
        None => None,
    };
    let instances = get(top, "instances")?
        .as_arr()
        .ok_or("\"instances\" must be an array")?;
    if instances.is_empty() {
        return Err("\"instances\" is empty".into());
    }
    for inst in instances {
        let o = inst.as_obj().ok_or("instance entries must be objects")?;
        get(o, "name")?
            .as_str()
            .ok_or("instance.name must be a string")?;
        for k in ["vertices", "edges"] {
            get(o, k)?
                .as_f64()
                .ok_or_else(|| format!("instance.{k} must be a number"))?;
        }
    }
    let results = get(top, "results")?
        .as_arr()
        .ok_or("\"results\" must be an array")?;
    if results.is_empty() {
        return Err("\"results\" is empty".into());
    }
    let mut cells = Vec::new();
    for r in results {
        let o = r.as_obj().ok_or("result entries must be objects")?;
        let instance = o_str(o, "instance")?;
        let arm = o_str(o, "arm")?;
        const ARMS: [&str; 8] = [
            "reuse",
            "fresh",
            "observed",
            "budgeted-unarmed",
            "contract-radix",
            "sharded",
            "batch-warm",
            "batch-cold",
        ];
        if !ARMS.contains(&arm.as_str()) {
            return Err(format!(
                "result.arm must be one of {}, got {arm:?}",
                ARMS.join("|")
            ));
        }
        let threads = o_num(o, "threads")? as u64;
        for k in ["runs", "score_secs", "match_secs", "levels", "modularity"] {
            o_num(o, k)?;
        }
        let contract_secs = o_num(o, "contract_secs")?;
        for k in ["peak_rss_bytes", "allocations"] {
            let v = get(o, k)?;
            if !matches!(v, Json::Null) && v.as_f64().is_none() {
                return Err(format!("result.{k} must be a number or null"));
            }
        }
        let e2e = get(o, "end_to_end_secs")?
            .as_obj()
            .ok_or("result.end_to_end_secs must be an object")?;
        let median = o_num(e2e, "median")?;
        let (min, max) = (o_num(e2e, "min")?, o_num(e2e, "max")?);
        if !(min <= median && median <= max && min > 0.0) {
            return Err(format!(
                "end_to_end_secs out of order for {instance} t={threads} {arm}"
            ));
        }
        // Optional for backward compatibility with pre-observability
        // reports; when present it must be null except on `observed` and
        // `budgeted-unarmed` cells, where it must be a positive number.
        let overhead_vs_reuse = match obj_get_opt(o, "overhead_vs_reuse") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let x = v
                    .as_f64()
                    .ok_or("result.overhead_vs_reuse must be a number or null")?;
                if arm != "observed" && arm != "budgeted-unarmed" {
                    return Err(format!(
                        "overhead_vs_reuse is only meaningful on the observed and \
                         budgeted-unarmed arms, found on {instance} t={threads} {arm}"
                    ));
                }
                if x <= 0.0 {
                    return Err(format!(
                        "overhead_vs_reuse must be positive, got {x} for {instance} t={threads}"
                    ));
                }
                Some(x)
            }
        };
        cells.push(Cell {
            instance,
            threads,
            arm,
            median_secs: median,
            contract_secs,
            overhead_vs_reuse,
        });
    }
    let mut quality = Vec::new();
    match obj_get_opt(top, "quality") {
        None if version >= 3 => return Err("v3 reports must carry a \"quality\" array".into()),
        None => {}
        Some(v) => {
            let arr = v.as_arr().ok_or("\"quality\" must be an array")?;
            if arr.is_empty() && version >= 3 {
                return Err("\"quality\" is empty".into());
            }
            for q in arr {
                let o = q.as_obj().ok_or("quality entries must be objects")?;
                let instance = o_str(o, "instance")?;
                let backend = o_str(o, "backend")?;
                let modularity = o_num(o, "modularity")?;
                o_num(o, "coverage")?;
                let reference_modularity = o_num(o, "reference_modularity")?;
                if reference_modularity <= 0.0 {
                    return Err(format!(
                        "quality.reference_modularity must be positive, got \
                         {reference_modularity} for {instance} {backend}"
                    ));
                }
                let nmi = match get(o, "nmi")? {
                    Json::Null => None,
                    v => Some(v.as_f64().ok_or("quality.nmi must be a number or null")?),
                };
                quality.push(QualityCell {
                    instance,
                    backend,
                    modularity,
                    nmi,
                    reference_modularity,
                });
            }
        }
    }
    Ok(Report {
        cells,
        quality,
        available_parallelism,
        rayon_threads,
    })
}

fn obj_get_opt<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub(crate) fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

pub(crate) fn o_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    Ok(get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("{key} must be a string"))?
        .to_string())
}

pub(crate) fn o_num(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("{key} must be a number"))
}

// ---------------------------------------------------------------------------
// Minimal JSON: covers the subset the harness emits (no \u surrogate
// pairs, numbers via f64).
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut obj = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(obj));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                obj.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(obj));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("\\u escape out of range")?);
                    }
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
            c => {
                // Re-decode multi-byte UTF-8 sequences from the source.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let width = utf8_width(c);
                    let chunk = b.get(start..start + width).ok_or("truncated UTF-8")?;
                    let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?;
                    out.push_str(s);
                    *pos = start + width;
                }
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number bytes")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "schema": "parcomm-bench-v2", "label": "t", "created_unix": 1, "smoke": true,
      "host": {"available_parallelism": 4, "rayon_threads": 4, "alloc_stats": false},
      "instances": [{"name": "rmat-8-16", "vertices": 256, "edges": 1000}],
      "results": [{
        "instance": "rmat-8-16", "threads": 2, "arm": "reuse", "runs": 3,
        "end_to_end_secs": {"min": 0.9, "median": 1.0, "max": 1.2},
        "score_secs": 0.1, "match_secs": 0.2, "contract_secs": 0.3,
        "levels": 5, "modularity": 0.4, "input_edges_per_sec": 1e6,
        "peak_rss_bytes": 1048576, "allocations": null
      }]
    }"#;

    /// The v3 edition of [`GOOD`]: same results, plus the quality section
    /// v3 requires.
    const GOOD_V3: &str = r#"{
      "schema": "parcomm-bench-v3", "label": "t", "created_unix": 1, "smoke": true,
      "host": {"available_parallelism": 4, "rayon_threads": 4, "alloc_stats": false},
      "instances": [{"name": "rmat-8-16", "vertices": 256, "edges": 1000}],
      "results": [{
        "instance": "rmat-8-16", "threads": 2, "arm": "reuse", "runs": 3,
        "end_to_end_secs": {"min": 0.9, "median": 1.0, "max": 1.2},
        "score_secs": 0.1, "match_secs": 0.2, "contract_secs": 0.3,
        "levels": 5, "modularity": 0.4, "input_edges_per_sec": 1e6,
        "peak_rss_bytes": 1048576, "allocations": null
      }],
      "quality": [{
        "instance": "planted-1024-16", "backend": "labelprop", "modularity": 0.88,
        "coverage": 0.94, "nmi": 0.99, "reference_modularity": 0.88
      }, {
        "instance": "rmat-10-16", "backend": "labelprop", "modularity": 0.35,
        "coverage": 0.91, "nmi": null, "reference_modularity": 0.36
      }]
    }"#;

    #[test]
    fn parses_and_validates_good_report() {
        let report = validate_report(&parse_json(GOOD).unwrap()).unwrap();
        assert_eq!(report.available_parallelism, 4);
        assert_eq!(report.rayon_threads, Some(4));
        let cells = &report.cells;
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].instance, "rmat-8-16");
        assert_eq!(cells[0].threads, 2);
        assert_eq!(cells[0].arm, "reuse");
        assert_eq!(cells[0].median_secs, 1.0);
        assert_eq!(cells[0].contract_secs, 0.3);
    }

    #[test]
    fn v1_reports_stay_loadable_as_baselines() {
        // A pre-radix report: v1 schema, no host.rayon_threads. It must
        // load (previous PRs' BENCH_*.json are comparison baselines)...
        let v1 = GOOD
            .replace("parcomm-bench-v2", "parcomm-bench-v1")
            .replace("\"rayon_threads\": 4, ", "");
        let report = validate_report(&parse_json(&v1).unwrap()).unwrap();
        assert_eq!(report.rayon_threads, None);
        assert_eq!(report.cells.len(), 1);
        // ...but a v2 report missing the field is malformed...
        let v2_missing = GOOD.replace("\"rayon_threads\": 4, ", "");
        assert!(validate_report(&parse_json(&v2_missing).unwrap())
            .unwrap_err()
            .contains("rayon_threads"));
        // ...and a v1 report that happens to carry it parses it.
        let v1_with = GOOD.replace("parcomm-bench-v2", "parcomm-bench-v1");
        assert_eq!(
            validate_report(&parse_json(&v1_with).unwrap())
                .unwrap()
                .rayon_threads,
            Some(4)
        );
    }

    #[test]
    fn thread_mismatch_warns_only_on_real_differences() {
        let mk = |ap: u64, rt: Option<u64>| Report {
            cells: Vec::new(),
            quality: Vec::new(),
            available_parallelism: ap,
            rayon_threads: rt,
        };
        assert!(warn_thread_mismatch(&mk(8, Some(8)), &mk(8, Some(8))));
        // v1 baselines have no pool width: only available_parallelism
        // can disagree.
        assert!(warn_thread_mismatch(&mk(8, Some(8)), &mk(8, None)));
        assert!(!warn_thread_mismatch(&mk(8, Some(8)), &mk(4, None)));
        assert!(!warn_thread_mismatch(&mk(8, Some(8)), &mk(8, Some(4))));
        assert!(!warn_thread_mismatch(&mk(4, Some(8)), &mk(8, Some(8))));
    }

    #[test]
    fn contract_radix_arm_is_valid_and_speedup_is_gated() {
        let radix = GOOD.replace("\"reuse\"", "\"contract-radix\"");
        let report = validate_report(&parse_json(&radix).unwrap()).unwrap();
        assert_eq!(report.cells[0].arm, "contract-radix");
        let mk = |arm: &str, contract_secs: f64| Cell {
            instance: "g".into(),
            threads: 1,
            arm: arm.into(),
            median_secs: 1.0,
            contract_secs,
            overhead_vs_reuse: None,
        };
        // 1.5x faster contract phase: passes a 1.2x floor, fails 1.6x.
        let pair = vec![mk("reuse", 0.3), mk("contract-radix", 0.2)];
        assert!(contract_speedup_ok(&pair, None, false));
        assert!(contract_speedup_ok(&pair, Some(1.2), false));
        assert!(!contract_speedup_ok(&pair, Some(1.6), false));
        // Smoke-mode timings never gate; a lone arm has nothing to check;
        // zero-second phases (empty instances) are skipped, not divided by.
        assert!(contract_speedup_ok(&pair, Some(1.6), true));
        assert!(contract_speedup_ok(&pair[1..], Some(1.6), false));
        let degenerate = vec![mk("reuse", 0.0), mk("contract-radix", 0.0)];
        assert!(contract_speedup_ok(&degenerate, Some(1.6), false));
        // The pooled geometric mean decides: one fast cell, one slow.
        let mut four = vec![mk("reuse", 0.4), mk("contract-radix", 0.2)];
        four.push(Cell {
            instance: "h".into(),
            threads: 1,
            arm: "reuse".into(),
            median_secs: 1.0,
            contract_secs: 0.2,
            overhead_vs_reuse: None,
        });
        four.push(Cell {
            instance: "h".into(),
            threads: 1,
            arm: "contract-radix".into(),
            median_secs: 1.0,
            contract_secs: 0.2,
            overhead_vs_reuse: None,
        });
        // geomean(2.0, 1.0) = 1.41x: over a 1.3 floor, under 1.5.
        assert!(contract_speedup_ok(&four, Some(1.3), false));
        assert!(!contract_speedup_ok(&four, Some(1.5), false));
    }

    #[test]
    fn sharded_arm_is_valid_and_gated_by_instance_prefix() {
        let sharded = GOOD.replace("\"reuse\"", "\"sharded\"");
        let report = validate_report(&parse_json(&sharded).unwrap()).unwrap();
        assert_eq!(report.cells[0].arm, "sharded");
        // A non-null overhead_vs_reuse on a sharded cell is malformed,
        // same as on reuse: the field belongs to the observed/budgeted
        // arms alone.
        let with_overhead = sharded.replace(
            "\"allocations\": null",
            "\"allocations\": null, \"overhead_vs_reuse\": 1.01",
        );
        assert!(validate_report(&parse_json(&with_overhead).unwrap())
            .unwrap_err()
            .contains("only meaningful"));
        let mk = |instance: &str, arm: &str, median_secs: f64| Cell {
            instance: instance.into(),
            threads: 1,
            arm: arm.into(),
            median_secs,
            contract_secs: 0.1,
            overhead_vs_reuse: None,
        };
        // One union cell 1.5x faster, one connected ring cell 0.5% slower.
        let cells = vec![
            mk("union-rmat6-sbm300", "reuse", 0.3),
            mk("union-rmat6-sbm300", "sharded", 0.2),
            mk("ring-16x8", "reuse", 1.0),
            mk("ring-16x8", "sharded", 1.005),
        ];
        // The speedup gate reads union cells only: 1.5x passes a 1.2 floor,
        // fails 1.6, and a sub-1.0 floor (slowdown bound) passes too.
        assert!(sharded_speedup_ok(&cells, None, false));
        assert!(sharded_speedup_ok(&cells, Some(1.2), false));
        assert!(!sharded_speedup_ok(&cells, Some(1.6), false));
        assert!(sharded_speedup_ok(&cells, Some(0.9), false));
        // The fast-path gate reads the non-union cells only: 1.005x is
        // inside a 1% budget, outside 0.2%.
        assert!(sharded_overhead_ok(&cells, None, false));
        assert!(sharded_overhead_ok(&cells, Some(1.01), false));
        assert!(!sharded_overhead_ok(&cells, Some(1.002), false));
        // Smoke never gates; a report with no sharded cells has nothing
        // to check on either side.
        assert!(sharded_speedup_ok(&cells, Some(1.6), true));
        assert!(sharded_overhead_ok(&cells, Some(1.002), true));
        assert!(sharded_speedup_ok(&cells[2..], Some(1.6), false));
        assert!(sharded_overhead_ok(&cells[..2], Some(1.002), false));
    }

    #[test]
    fn v3_reports_parse_quality_and_older_schemas_stay_loadable() {
        let report = validate_report(&parse_json(GOOD_V3).unwrap()).unwrap();
        assert_eq!(report.quality.len(), 2);
        assert_eq!(report.quality[0].backend, "labelprop");
        assert_eq!(report.quality[0].nmi, Some(0.99));
        assert_eq!(report.quality[1].nmi, None);
        assert_eq!(report.quality[1].reference_modularity, 0.36);
        // v2 reports carry no quality section and still load...
        let v2 = validate_report(&parse_json(GOOD).unwrap()).unwrap();
        assert!(v2.quality.is_empty());
        // ...but a v3 report without the section is malformed...
        let missing = GOOD.replace("parcomm-bench-v2", "parcomm-bench-v3");
        assert!(validate_report(&parse_json(&missing).unwrap())
            .unwrap_err()
            .contains("quality"));
        // ...as is one whose section is empty (nothing to certify), has a
        // non-numeric NMI, or a non-positive reference.
        let empty = GOOD_V3.replace(
            "\"quality\": [{",
            "\"quality\": [], \"quality_ignored\": [{",
        );
        assert!(validate_report(&parse_json(&empty).unwrap())
            .unwrap_err()
            .contains("empty"));
        let bad_nmi = GOOD_V3.replace("\"nmi\": 0.99", "\"nmi\": \"high\"");
        assert!(validate_report(&parse_json(&bad_nmi).unwrap())
            .unwrap_err()
            .contains("nmi"));
        let bad_ref = GOOD_V3.replace(
            "\"reference_modularity\": 0.36",
            "\"reference_modularity\": 0",
        );
        assert!(validate_report(&parse_json(&bad_ref).unwrap())
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn quality_gate_pools_per_backend_and_enforces_nmi_floor() {
        let mk =
            |instance: &str, backend: &str, q: f64, nmi: Option<f64>, reference: f64| QualityCell {
                instance: instance.into(),
                backend: backend.into(),
                modularity: q,
                nmi,
                reference_modularity: reference,
            };
        // labelprop holds geomean(1.0, 0.96) ~ 0.98 of the reference;
        // louvain only geomean(1.0, 0.80) ~ 0.89.
        let cells = vec![
            mk("planted", "labelprop", 0.88, Some(1.0), 0.88),
            mk("rmat", "labelprop", 0.96, None, 1.0),
            mk("planted", "louvain", 0.88, Some(1.0), 0.88),
            mk("rmat", "louvain", 0.80, None, 1.0),
        ];
        assert!(quality_ok(&cells, None));
        assert!(quality_ok(&cells, Some(0.85)));
        // The gate pools per backend: louvain's weak cell fails a 0.95
        // floor even though labelprop clears it...
        assert!(!quality_ok(&cells, Some(0.95)));
        // ...and labelprop alone passes the same floor.
        assert!(quality_ok(&cells[..2], Some(0.95)));
        // The NMI floor binds only when the flag is set, and only on
        // cells with planted ground truth — here the modularity ratio is
        // a perfect 1.0, so NMI is the sole failure.
        let low_nmi = vec![mk("planted", "labelprop", 0.88, Some(0.5), 0.88)];
        assert!(quality_ok(&low_nmi, None));
        assert!(!quality_ok(&low_nmi, Some(0.85)));
        // An empty quality section cannot certify what the flag asks for.
        assert!(quality_ok(&[], None));
        assert!(!quality_ok(&[], Some(0.85)));
    }

    #[test]
    fn rejects_wrong_schema_and_missing_keys() {
        let wrong = GOOD.replace("parcomm-bench-v2", "parcomm-bench-v0");
        assert!(validate_report(&parse_json(&wrong).unwrap())
            .unwrap_err()
            .contains("unknown schema"));
        let missing = GOOD.replace("\"arm\": \"reuse\",", "");
        assert!(validate_report(&parse_json(&missing).unwrap())
            .unwrap_err()
            .contains("arm"));
    }

    #[test]
    fn rejects_bad_arm_and_disordered_stats() {
        let bad_arm = GOOD.replace("\"reuse\"", "\"warm\"");
        assert!(validate_report(&parse_json(&bad_arm).unwrap()).is_err());
        for batch_arm in ["batch-warm", "batch-cold"] {
            let batched = GOOD.replace("\"reuse\"", &format!("{batch_arm:?}"));
            let cells = validate_report(&parse_json(&batched).unwrap())
                .unwrap()
                .cells;
            assert_eq!(cells[0].arm, batch_arm);
        }
        let disordered = GOOD.replace("\"median\": 1.0", "\"median\": 2.0");
        assert!(validate_report(&parse_json(&disordered).unwrap())
            .unwrap_err()
            .contains("out of order"));
    }

    #[test]
    fn observed_arm_is_valid_and_overhead_is_gated() {
        let observed = GOOD.replace("\"reuse\"", "\"observed\"");
        let cells = validate_report(&parse_json(&observed).unwrap())
            .unwrap()
            .cells;
        assert_eq!(cells[0].arm, "observed");
        let mk = |arm: &str, median_secs: f64| Cell {
            instance: "g".into(),
            threads: 1,
            arm: arm.into(),
            median_secs,
            contract_secs: 0.1,
            overhead_vs_reuse: None,
        };
        let pair = vec![mk("reuse", 1.0), mk("observed", 1.05)];
        assert!(overhead_ok(&pair, "observed", None, false));
        assert!(overhead_ok(&pair, "observed", Some(1.10), false));
        assert!(!overhead_ok(&pair, "observed", Some(1.02), false));
        // Smoke-mode timings never gate, and a lone arm has no pair to check.
        assert!(overhead_ok(&pair, "observed", Some(1.02), true));
        assert!(overhead_ok(&pair[1..], "observed", Some(1.02), false));
    }

    #[test]
    fn budgeted_unarmed_arm_is_valid_and_gated_independently() {
        let budgeted = GOOD.replace("\"reuse\"", "\"budgeted-unarmed\"");
        let cells = validate_report(&parse_json(&budgeted).unwrap())
            .unwrap()
            .cells;
        assert_eq!(cells[0].arm, "budgeted-unarmed");
        let mk = |arm: &str, median_secs: f64| Cell {
            instance: "g".into(),
            threads: 1,
            arm: arm.into(),
            median_secs,
            contract_secs: 0.1,
            overhead_vs_reuse: None,
        };
        // A slow observed arm must not fail the budget gate, and vice
        // versa: each gate reads only its own arm's cells.
        let cells = vec![
            mk("reuse", 1.0),
            mk("observed", 1.20),
            mk("budgeted-unarmed", 1.005),
        ];
        assert!(overhead_ok(&cells, "budgeted-unarmed", Some(1.01), false));
        assert!(!overhead_ok(&cells, "observed", Some(1.01), false));
        let flipped = vec![
            mk("reuse", 1.0),
            mk("observed", 1.005),
            mk("budgeted-unarmed", 1.20),
        ];
        assert!(!overhead_ok(
            &flipped,
            "budgeted-unarmed",
            Some(1.01),
            false
        ));
        assert!(overhead_ok(&flipped, "observed", Some(1.01), false));
    }

    #[test]
    fn gate_pools_cells_by_geometric_mean() {
        let mk = |instance: &str, arm: &str, overhead: Option<f64>| Cell {
            instance: instance.into(),
            threads: 1,
            arm: arm.into(),
            median_secs: 1.0,
            contract_secs: 0.1,
            overhead_vs_reuse: overhead,
        };
        // One cell 3% over, one 1% under: the pooled mean (~1.0098x) is
        // within a 2% budget — single-cell noise must not fail the gate.
        let mixed = vec![
            mk("a", "reuse", None),
            mk("a", "observed", Some(1.03)),
            mk("b", "reuse", None),
            mk("b", "observed", Some(0.99)),
        ];
        assert!(overhead_ok(&mixed, "observed", Some(1.02), false));
        // Both cells 3% over: the pooled mean is too, and the gate fails.
        let both = vec![
            mk("a", "reuse", None),
            mk("a", "observed", Some(1.03)),
            mk("b", "reuse", None),
            mk("b", "observed", Some(1.03)),
        ];
        assert!(!overhead_ok(&both, "observed", Some(1.02), false));
    }

    #[test]
    fn paired_overhead_takes_precedence_over_median_ratio() {
        let mk = |arm: &str, median_secs: f64, overhead: Option<f64>| Cell {
            instance: "g".into(),
            threads: 1,
            arm: arm.into(),
            median_secs,
            contract_secs: 0.1,
            overhead_vs_reuse: overhead,
        };
        // Medians 10% apart (drift), but the paired per-round ratio says
        // 1.005x — the gate must trust the pairing and pass.
        let drifted = vec![mk("reuse", 1.0, None), mk("observed", 1.10, Some(1.005))];
        assert!(overhead_ok(&drifted, "observed", Some(1.02), false));
        // And the converse: healthy-looking medians with a bad paired
        // ratio must still fail.
        let masked = vec![mk("reuse", 1.0, None), mk("observed", 1.0, Some(1.08))];
        assert!(!overhead_ok(&masked, "observed", Some(1.02), false));
    }

    #[test]
    fn overhead_field_is_parsed_and_policed() {
        let with_field = GOOD.replace("\"reuse\"", "\"observed\"").replace(
            "\"allocations\": null",
            "\"allocations\": null, \"overhead_vs_reuse\": 1.01",
        );
        let cells = validate_report(&parse_json(&with_field).unwrap())
            .unwrap()
            .cells;
        assert_eq!(cells[0].overhead_vs_reuse, Some(1.01));
        // Absent (old reports) and null are both fine...
        assert_eq!(
            validate_report(&parse_json(GOOD).unwrap()).unwrap().cells[0].overhead_vs_reuse,
            None
        );
        // ...and the field is legal on budgeted-unarmed cells too...
        let on_budgeted = with_field.replace("\"observed\"", "\"budgeted-unarmed\"");
        assert_eq!(
            validate_report(&parse_json(&on_budgeted).unwrap())
                .unwrap()
                .cells[0]
                .overhead_vs_reuse,
            Some(1.01)
        );
        // ...but a number on any other arm, or a non-positive one, is not.
        let on_reuse = GOOD.replace(
            "\"allocations\": null",
            "\"allocations\": null, \"overhead_vs_reuse\": 1.01",
        );
        assert!(validate_report(&parse_json(&on_reuse).unwrap())
            .unwrap_err()
            .contains("only meaningful on the observed and budgeted-unarmed arms"));
        let non_positive = with_field.replace("1.01", "0");
        assert!(validate_report(&parse_json(&non_positive).unwrap())
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let j = parse_json(r#"{"a": [1, -2.5e-3, "x\n\"yA"], "b": {"c": null}}"#).unwrap();
        let o = j.as_obj().unwrap();
        let arr = get(o, "a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-2.5e-3));
        assert_eq!(arr[2], Json::Str("x\n\"yA".into()));
        assert!(matches!(
            get(get(o, "b").unwrap().as_obj().unwrap(), "c").unwrap(),
            Json::Null
        ));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn emitted_smoke_report_roundtrips() {
        // End-to-end wiring check without running cargo: a report written
        // by the harness's renderer must pass this validator. Kept in a
        // fixture string so the test has no cross-crate dependency.
        let cells = validate_report(&parse_json(GOOD).unwrap()).unwrap().cells;
        assert!(cells.iter().all(|c| c.median_secs > 0.0));
    }
}
