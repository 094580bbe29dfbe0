//! `parcomm` — command-line community detection.
//!
//! Run `parcomm --help` for the full usage text (mirrored in [`USAGE`]).
//! Files ending in `.bin` use the compact binary format; anything else is
//! a whitespace edge list. All input is treated as untrusted: malformed
//! files, out-of-range ids and bad flags produce structured errors, never
//! panics.
//!
//! Every command prints through one stdout writer whose errors propagate
//! as [`PcdError`]s. A reader that goes away early (`parcomm detect g.bin
//! | head -1`) ends the output quietly with exit 0; each command writes
//! its requested files before its first line can fail.

#![deny(unsafe_op_in_unsafe_fn)]

use parcomm::core::refine::refine_detected;
use parcomm::core::result::LevelStats;
use parcomm::core::{DetectionResult, Paranoia, Tee};
use parcomm::prelude::*;
use parcomm::trace::{Registry, SpanRing, TraceObserver};
use parcomm::util::PcdError;
use parcomm::util::Phase;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: parcomm <command> [options]
       parcomm --list-kernels [--json]   enumerate the kernel backends

commands:
  gen <rmat|sbm|planted|web|lfr|clique-ring|karate> [options] -o <file>
                                generate a graph
  detect <graph-file> [options] run community detection
  convert <in-file> <out-file>  convert between edge-list and .bin
  compare <graph-file>          vs CNM / Louvain
  communities <graph-file>      per-community report

gen options:
  --scale N        R-MAT scale (rmat; default 14)
  --vertices N     vertex count (sbm / planted / web / lfr)
  --communities K  planted community count (planted; default 16)
  --truth FILE     also write the planted ground-truth labels (planted)
  --cliques K --size S   ring of K cliques of S vertices (clique-ring)
  --mixing F       LFR mixing parameter (default 0.2)
  --seed N         RNG seed (default 42)
  -o, --out FILE   output path (required)

detect options:
  --scorer NAME    edge score metric (see --list-kernels; default modularity)
  --matcher NAME   matching kernel (see --list-kernels; default unmatched-list)
  --contractor NAME  contraction kernel (see --list-kernels; default radix)
  --sharded        detect each connected component independently (warm
                   engines across the pool) and merge deterministically;
                   incompatible with --trace (no value)
  --coverage F     stop at coverage >= F (paper rule: 0.5)
  --max-levels N   budget: stop after N contraction levels
  --deadline-ms N  budget: wall-clock deadline; on expiry the best-effort
                   partition from completed levels is returned
  --strict-budget  treat a budget breach as an error (exit code 3) instead
                   of returning the best-effort partition (no value)
  --max-size N     mask merges creating communities above N vertices
  --refine N       run N refinement sweeps afterwards
  --threads N      worker threads (0 = default)
  --paranoia off|cheap|full   runtime invariant guards (default off)
  --max-match-rounds N        matcher watchdog cap (default 4*ceil(log2 nv)+64)
  --progress       print per-level phase progress to stderr (no value)
  --assignments FILE   write \"vertex community\" lines
  --metrics FILE   write run metrics; .prom = Prometheus text exposition,
                   anything else = parcomm-metrics-v1 JSON
  --trace FILE     write the span trace (parcomm-trace-v1 JSON)

communities options:
  --top N          how many largest communities to print (default 20)

common options:
  --threads N      worker threads for the command's parallel work
                   (gen, detect, compare, communities; 0 = default)

Files ending in .bin use the compact binary format; anything else is a
whitespace edge list.

exit codes:
  0  success (including best-effort partitions under a non-strict budget)
  1  internal error (invariant violation, poisoned engine)
  2  invalid input or usage (bad flags, unreadable or corrupt graphs)
  3  budget exceeded under --strict-budget";

/// The one stdout writer every command prints through.
type Out = std::io::Stdout;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let mut out = std::io::stdout();
    let result = if args.iter().any(|a| a == "--help" || a == "-h") || cmd == "help" {
        writeln!(out, "{USAGE}").map_err(PcdError::from)
    } else {
        match cmd.as_str() {
            "--list-kernels" => cmd_list_kernels(rest, &mut out),
            "gen" => cmd_gen(rest, &mut out),
            "detect" => cmd_detect(rest, &mut out),
            "convert" => cmd_convert(rest, &mut out),
            "compare" => cmd_compare(rest, &mut out),
            "communities" => cmd_communities(rest, &mut out),
            other => Err(PcdError::usage(format!(
                "unknown command '{other}' (run parcomm --help)"
            ))),
        }
    };
    match result.and_then(|()| out.flush().map_err(PcdError::from)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped reading; whatever it asked for is done.
        Err(PcdError::Io(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, PcdError::Usage { .. }) {
                eprintln!("run parcomm --help for usage");
            }
            exit_code_for(&e)
        }
    }
}

/// The CLI's exit-code contract (documented in `USAGE`): 2 for anything the
/// caller can fix (bad flags, unreadable or corrupt inputs), 3 for a strict
/// budget breach, 1 for genuine internal failures. Classification looks at
/// the root cause so a `Context`-wrapped parse error still exits 2.
fn exit_code_for(e: &PcdError) -> ExitCode {
    match e.root() {
        PcdError::Usage { .. }
        | PcdError::Parse { .. }
        | PcdError::Corrupt { .. }
        | PcdError::Config { .. }
        | PcdError::Io(_) => ExitCode::from(2),
        PcdError::BudgetExceeded { .. } => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

/// The kernel inventory, one `(name, description)` list per phase, read
/// off the kind enums' `ALL`.
fn kernel_lists() -> [(&'static str, Vec<(&'static str, &'static str)>); 3] {
    [
        (
            "scorers",
            ScorerKind::ALL
                .map(|k| (k.name(), k.description()))
                .to_vec(),
        ),
        (
            "matchers",
            MatcherKind::ALL
                .map(|k| (k.name(), k.description()))
                .to_vec(),
        ),
        (
            "contractors",
            ContractorKind::ALL
                .map(|k| (k.name(), k.description()))
                .to_vec(),
        ),
    ]
}

/// `parcomm --list-kernels [--json]`. Strict parse: the only argument
/// accepted after the flag is an optional `--json`; anything else is a
/// usage error (exit 2), so scripts never silently get the human format
/// they didn't ask for.
fn cmd_list_kernels(args: &[String], out: &mut Out) -> Result<(), PcdError> {
    match args {
        [] => print_kernels(out),
        [flag] if flag == "--json" => print_kernels_json(out),
        rest => Err(usage(format!(
            "--list-kernels takes at most `--json`, got '{}'",
            rest.join(" ")
        ))),
    }
}

/// Enumerates the kernels (`parcomm --list-kernels`): one line per
/// backend, grouped by phase, names matching the `detect` flag spellings.
fn print_kernels(out: &mut Out) -> Result<(), PcdError> {
    for (phase, entries) in kernel_lists() {
        let flag = if phase == "scorers" {
            " (--scorer)"
        } else {
            ""
        };
        writeln!(out, "{phase}{flag}:")?;
        for (name, desc) in entries {
            writeln!(out, "  {name:<18} {desc}")?;
        }
    }
    Ok(())
}

/// `parcomm --list-kernels --json`: the same inventory as a single JSON
/// object `{"scorers": [{"name", "description"}, ...], "matchers": ...,
/// "contractors": ...}`, for scripts (the CI quality-smoke job iterates
/// the matcher list). Kernel names and descriptions are static ASCII
/// without quotes or backslashes — asserted here so the hand-rolled
/// serialization stays honest.
fn print_kernels_json(w: &mut Out) -> Result<(), PcdError> {
    let mut out = String::from("{\n");
    for (p, (phase, entries)) in kernel_lists().iter().enumerate() {
        if p > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("  \"{phase}\": [\n"));
        for (i, (name, desc)) in entries.iter().enumerate() {
            for s in [name, desc] {
                assert!(
                    !s.contains(['"', '\\']) && s.is_ascii(),
                    "kernel names and descriptions must be plain ASCII"
                );
            }
            let comma = if i + 1 == entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", \"description\": \"{desc}\"}}{comma}\n"
            ));
        }
        out.push_str("  ]");
    }
    out.push_str("\n}");
    writeln!(w, "{out}")?;
    Ok(())
}

/// Flags that take no value (presence-only switches). Everything else in
/// this CLI takes exactly one value.
const BOOL_FLAGS: &[&str] = &["--progress", "--strict-budget", "--sharded"];

struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    /// Rejects any `--flag` (or `-x` shorthand) not in `allowed`, so a
    /// typo like `--converage 0.5` fails loudly instead of being silently
    /// ignored (and then treated as two positionals). Every flag outside
    /// [`BOOL_FLAGS`] takes a value, so a flag with nothing after it is
    /// also an error.
    fn check_allowed(&self, cmd: &str, allowed: &[&str]) -> Result<(), PcdError> {
        let mut i = 0;
        while i < self.0.len() {
            let a = &self.0[i];
            if a.starts_with("--") || a == "-o" {
                if !allowed.contains(&a.as_str()) {
                    return Err(PcdError::usage(format!(
                        "{cmd}: unknown flag '{a}' (allowed: {})",
                        if allowed.is_empty() {
                            "none".to_string()
                        } else {
                            allowed.join(", ")
                        }
                    )));
                }
                if BOOL_FLAGS.contains(&a.as_str()) {
                    i += 1;
                    continue;
                }
                if i + 1 >= self.0.len() {
                    return Err(PcdError::usage(format!("{cmd}: {a} requires a value")));
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// True if the presence-only flag `name` (a [`BOOL_FLAGS`] member) was
    /// given.
    fn has(&self, name: &str) -> bool {
        debug_assert!(BOOL_FLAGS.contains(&name));
        self.0.iter().any(|a| a == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(|s| s.as_str())
    }

    /// A flag's value parsed into `T`, or `default` when absent. A flag at
    /// the end of the line with no value, or an unparsable value, is a
    /// usage error.
    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, PcdError> {
        if self.0.iter().any(|a| a == name) && self.get(name).is_none() {
            return Err(PcdError::usage(format!("{name} requires a value")));
        }
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| PcdError::usage(format!("bad value for {name}: '{v}'"))),
        }
    }

    fn positional(&self, idx: usize) -> Option<&str> {
        // Positionals are arguments not consumed as a flag or flag value.
        let mut skip_next = false;
        let mut seen = 0;
        for a in self.0 {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") || a == "-o" {
                skip_next = !BOOL_FLAGS.contains(&a.as_str());
                continue;
            }
            if seen == idx {
                return Some(a);
            }
            seen += 1;
        }
        None
    }
}

fn usage(msg: impl Into<String>) -> PcdError {
    PcdError::usage(msg)
}

/// Runs `f` with parallel regions `threads` workers wide, or at the
/// default width when `threads` is 0 — the `--threads` contract
/// shared by every parallel subcommand.
fn with_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    if threads > 0 {
        parcomm::util::pool::with_threads(threads, f)
    } else {
        f()
    }
}

fn cmd_gen(args: &[String], out: &mut Out) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed(
        "gen",
        &[
            "-o",
            "--out",
            "--seed",
            "--scale",
            "--vertices",
            "--cliques",
            "--size",
            "--mixing",
            "--communities",
            "--truth",
            "--threads",
        ],
    )?;
    let kind = f
        .positional(0)
        .ok_or_else(|| usage("gen: missing kind"))?
        .to_string();
    let dest: PathBuf = f
        .get("-o")
        .or(f.get("--out"))
        .ok_or_else(|| usage("gen: missing -o <file>"))?
        .into();
    let seed: u64 = f.parse("--seed", 42)?;
    let threads: usize = f.parse("--threads", 0)?;
    let f = &f;
    type GenOut = (Graph, Option<Vec<u32>>);
    let (graph, truth) = with_pool(threads, move || -> Result<GenOut, PcdError> {
        Ok(match kind.as_str() {
            "rmat" => {
                let scale: u32 = f.parse("--scale", 14)?;
                (
                    parcomm::gen::rmat_graph(&parcomm::gen::RmatParams::paper(scale, seed)),
                    None,
                )
            }
            "sbm" => {
                let n: usize = f.parse("--vertices", 100_000)?;
                (
                    parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::livejournal_like(n, seed))
                        .graph,
                    None,
                )
            }
            "planted" => {
                let n: usize = f.parse("--vertices", 1_024)?;
                let k: usize = f.parse("--communities", 16)?;
                if k == 0 || n < 2 * k {
                    return Err(usage(format!(
                        "planted: need --communities >= 1 and --vertices >= 2*communities \
                         (got {n} vertices, {k} communities)"
                    )));
                }
                let s = parcomm::gen::sbm_graph(&parcomm::gen::SbmParams::planted_partition(
                    n, k, seed,
                ));
                (s.graph, Some(s.ground_truth))
            }
            "web" => {
                let n: usize = f.parse("--vertices", 100_000)?;
                (
                    parcomm::gen::web_graph(&parcomm::gen::WebParams::uk_like(n, seed)).graph,
                    None,
                )
            }
            "clique-ring" => {
                let k: usize = f.parse("--cliques", 8)?;
                let s: usize = f.parse("--size", 8)?;
                (parcomm::gen::classic::clique_ring(k, s), None)
            }
            "karate" => (parcomm::gen::classic::karate_club(), None),
            "lfr" => {
                let n: usize = f.parse("--vertices", 10_000)?;
                let mu: f64 = f.parse("--mixing", 0.2)?;
                (
                    parcomm::gen::lfr_graph(&parcomm::gen::LfrParams::benchmark(n, mu, seed)).graph,
                    None,
                )
            }
            other => return Err(usage(format!("gen: unknown kind '{other}'"))),
        })
    })?;
    let truth_out = f.get("--truth");
    if let Some(path) = truth_out {
        let labels = truth.ok_or_else(|| usage("--truth is only meaningful for gen planted"))?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (v, &c) in labels.iter().enumerate() {
            writeln!(w, "{v} {c}")?;
        }
        w.flush()?;
    }
    parcomm::graph::io::save(&graph, &dest).map_err(PcdError::from)?;
    if let Some(path) = truth_out {
        writeln!(out, "truth:        {path}")?;
    }
    writeln!(
        out,
        "wrote {} ({} vertices, {} edges)",
        dest.display(),
        graph.num_vertices(),
        graph.num_edges()
    )?;
    Ok(())
}

fn load(path: &str) -> Result<Graph, PcdError> {
    parcomm::graph::io::load(std::path::Path::new(path)).map_err(|e| e.context(path))
}

/// `--progress` observer: one block per level on stderr, fed by the
/// engine's phase-boundary hooks (outside the phase timers, so printing
/// never perturbs the recorded timings).
struct Progress;

impl LevelObserver for Progress {
    fn on_level_start(&mut self, level: usize, num_vertices: usize, num_edges: usize) {
        eprintln!("level {level}: {num_vertices} communities, {num_edges} edges");
    }
    fn on_phase_end(&mut self, _level: usize, phase: Phase, secs: f64) {
        eprintln!("  {phase}: {secs:.3}s");
    }
    fn on_level_end(&mut self, stats: &LevelStats) {
        eprintln!(
            "  -> {} communities, Q {:.4}, coverage {:.3}{}",
            stats.num_vertices - stats.pairs_merged,
            stats.modularity,
            stats.coverage,
            if stats.matcher_degraded {
                " (matcher degraded)"
            } else {
                ""
            }
        );
    }
}

fn cmd_detect(args: &[String], out: &mut Out) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed(
        "detect",
        &[
            "--scorer",
            "--matcher",
            "--contractor",
            "--sharded",
            "--coverage",
            "--max-levels",
            "--deadline-ms",
            "--strict-budget",
            "--max-size",
            "--refine",
            "--threads",
            "--paranoia",
            "--max-match-rounds",
            "--progress",
            "--assignments",
            "--metrics",
            "--trace",
        ],
    )?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("detect: missing graph file"))?;
    let g = load(path)?;

    let mut config = Config::default();
    if let Some(name) = f.get("--scorer") {
        config = config.with_scorer(name.parse()?);
    }
    if let Some(name) = f.get("--matcher") {
        config = config.with_matcher(name.parse()?);
    }
    if let Some(name) = f.get("--contractor") {
        config = config.with_contractor(name.parse()?);
    }
    if let Some(c) = f.get("--coverage") {
        let c: f64 = c
            .parse()
            .map_err(|_| usage(format!("bad value for --coverage: '{c}'")))?;
        config = config.with_coverage_stop(c);
    }
    // Budget limits: a breach is reported via `termination` (or exit 3
    // under --strict-budget), never as ordinary convergence.
    let mut budget = Budget::unarmed();
    if let Some(n) = f.get("--max-levels") {
        budget = budget.with_max_levels(
            n.parse()
                .map_err(|_| usage(format!("bad value for --max-levels: '{n}'")))?,
        );
    }
    if let Some(ms) = f.get("--deadline-ms") {
        budget = budget.with_deadline(Duration::from_millis(
            ms.parse()
                .map_err(|_| usage(format!("bad value for --deadline-ms: '{ms}'")))?,
        ));
    }
    if f.has("--strict-budget") {
        budget = budget.strict();
    }
    config = config.with_budget(budget);
    if let Some(n) = f.get("--max-size") {
        config = config.with_max_community_size(
            n.parse()
                .map_err(|_| usage(format!("bad value for --max-size: '{n}'")))?,
        );
    }
    if let Some(p) = f.get("--paranoia") {
        config = config.with_paranoia(p.parse::<Paranoia>()?);
    }
    if let Some(n) = f.get("--max-match-rounds") {
        config = config.with_max_match_rounds(
            n.parse()
                .map_err(|_| usage(format!("bad value for --max-match-rounds: '{n}'")))?,
        );
    }
    let sharded = f.has("--sharded");
    if sharded {
        config = config.with_sharding(true);
    }
    let refine_sweeps: usize = f.parse("--refine", 0)?;
    let threads: usize = f.parse("--threads", 0)?;
    let progress = f.has("--progress");
    let metrics_out = f.get("--metrics").map(str::to_string);
    let trace_out = f.get("--trace").map(str::to_string);
    if sharded && trace_out.is_some() {
        // Per-component span rings are not merged; metrics registries are.
        return Err(usage("detect: --trace is not supported with --sharded"));
    }
    let tracing = metrics_out.is_some() || trace_out.is_some();
    // Fail on bad knob combinations before spinning up a thread pool.
    config.validate()?;

    /// What a detect run hands back for the `--metrics`/`--trace` writers:
    /// the registry (one recorder's, or the per-component ones merged) and,
    /// on the unsharded path, the span ring.
    type Recorded = Option<(Registry, Option<SpanRing>)>;

    let run = move || -> Result<(DetectionResult, Recorded), PcdError> {
        // Refinement needs the original graph back after detection
        // consumes it; only pay for the clone when it will be used.
        let original = (refine_sweeps > 0).then(|| g.clone());
        let (result, recorded) = if sharded {
            if tracing {
                let (r, observers) =
                    parcomm::core::try_detect_sharded_observed(g, &config, TraceObserver::new)?;
                let reg = parcomm::trace::merge_runs(observers.iter().map(Ok));
                (r, Some((reg, None)))
            } else if progress {
                // One Progress block per component engine run, folded in
                // component order.
                let (r, _) = parcomm::core::try_detect_sharded_observed(g, &config, || Progress)?;
                (r, None)
            } else {
                (try_detect(g, &config)?, None)
            }
        } else {
            let mut engine = Detector::new(config)?;
            let mut tracer = tracing.then(TraceObserver::new);
            let result = match (&mut tracer, progress) {
                (Some(t), true) => {
                    let mut p = Progress;
                    engine.run_observed(g, &mut Tee::new(&mut p, t))?
                }
                (Some(t), false) => engine.run_observed(g, t)?,
                (None, true) => engine.run_observed(g, &mut Progress)?,
                (None, false) => engine.run(g)?,
            };
            let recorded = tracer.map(|t| {
                let (ring, reg) = t.into_parts();
                (reg, Some(ring))
            });
            (result, recorded)
        };
        let result = match original {
            Some(orig) => refine_detected(&orig, result, refine_sweeps).0,
            None => result,
        };
        Ok((result, recorded))
    };
    let (r, recorded) = with_pool(threads, run)?;

    // Every requested file is written before the first summary line, so a
    // closed stdout cannot cost the caller their files.
    let mut written: Vec<(&str, &str)> = Vec::new();
    if let Some(dest) = f.get("--assignments") {
        let mut w = std::io::BufWriter::new(std::fs::File::create(dest)?);
        for (v, &cid) in r.assignment.iter().enumerate() {
            writeln!(w, "{v} {cid}")?;
        }
        w.flush()?;
        written.push(("assignments", dest));
    }
    if let Some((mut reg, ring)) = recorded {
        // The run gauges describe the result printed below: merged across
        // components, refined.
        parcomm::trace::set_run_gauges(&mut reg, &r);
        let created_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        if let Some(dest) = &metrics_out {
            let doc = if dest.ends_with(".prom") {
                parcomm::trace::prometheus_text(&reg)
            } else {
                parcomm::trace::metrics_json(&reg, path, created_unix)
            };
            std::fs::write(dest, doc)?;
            written.push(("metrics", dest));
        }
        if let (Some(dest), Some(ring)) = (&trace_out, &ring) {
            std::fs::write(dest, parcomm::trace::trace_json(ring, path, created_unix))?;
            written.push(("trace", dest));
        }
    }

    writeln!(out, "communities:  {}", r.num_communities)?;
    writeln!(out, "modularity:   {:.4}", r.modularity)?;
    writeln!(out, "coverage:     {:.3}", r.coverage)?;
    writeln!(out, "levels:       {}", r.levels.len())?;
    writeln!(out, "time:         {:.3}s", r.total_secs)?;
    let (s, m, c) = r.phase_totals();
    if s + m + c > 0.0 {
        writeln!(
            out,
            "phases:       score {:.0}% / match {:.0}% / contract {:.0}%",
            100.0 * s / (s + m + c),
            100.0 * m / (s + m + c),
            100.0 * c / (s + m + c)
        )?;
    }
    if r.termination.is_budget_breach() {
        writeln!(
            out,
            "termination:  {} (best-effort partition from {} completed level(s))",
            r.termination,
            r.levels.len()
        )?;
    } else if r.termination != Termination::Converged {
        writeln!(out, "termination:  {}", r.termination)?;
    }
    let degraded = r.levels.iter().filter(|l| l.matcher_degraded).count();
    if degraded > 0 {
        writeln!(
            out,
            "warning:      matcher watchdog degraded {degraded} level(s) to sequential completion"
        )?;
    }
    for (what, dest) in written {
        writeln!(out, "{:<14}{dest}", format!("{what}:"))?;
    }
    Ok(())
}

fn cmd_convert(args: &[String], out: &mut Out) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("convert", &[])?;
    let input = f
        .positional(0)
        .ok_or_else(|| usage("convert: missing input"))?;
    let output = f
        .positional(1)
        .ok_or_else(|| usage("convert: missing output"))?;
    let g = load(input)?;
    parcomm::graph::io::save(&g, std::path::Path::new(output)).map_err(PcdError::from)?;
    writeln!(out, "converted {input} -> {output}")?;
    Ok(())
}

fn cmd_compare(args: &[String], out: &mut Out) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("compare", &["--threads"])?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("compare: missing graph file"))?;
    let threads: usize = f.parse("--threads", 0)?;
    let g = load(path)?;
    with_pool(threads, move || compare_report(g, out))
}

fn compare_report(g: Graph, out: &mut Out) -> Result<(), PcdError> {
    writeln!(
        out,
        "{:<20} {:>8} {:>8} {:>9} {:>9}",
        "method", "Q", "cover", "#comm", "time"
    )?;
    let mut report = |label: &str, a: &[u32], secs: f64| {
        let (dense, k) = parcomm::metrics::compact_labels(a);
        writeln!(
            out,
            "{:<20} {:>8.4} {:>8.3} {:>9} {:>8.3}s",
            label,
            parcomm::metrics::modularity(&g, &dense),
            parcomm::metrics::coverage(&g, &dense),
            k,
            secs
        )
    };
    let t = std::time::Instant::now();
    let r = detect(g.clone(), &Config::default());
    report("parallel-agglom", &r.assignment, t.elapsed().as_secs_f64())?;
    let t = std::time::Instant::now();
    let refined = parcomm::core::refine::refine(&g, &r.assignment, 10);
    report(
        "  + refinement",
        &refined.assignment,
        t.elapsed().as_secs_f64(),
    )?;
    let t = std::time::Instant::now();
    let a = parcomm::baseline::louvain(&g);
    report("louvain (seq)", &a, t.elapsed().as_secs_f64())?;
    if g.num_edges() <= 500_000 {
        let t = std::time::Instant::now();
        let a = parcomm::baseline::cnm(&g);
        report("cnm", &a, t.elapsed().as_secs_f64())?;
    }
    Ok(())
}

fn cmd_communities(args: &[String], out: &mut Out) -> Result<(), PcdError> {
    let f = Flags(args);
    f.check_allowed("communities", &["--top", "--threads"])?;
    let path = f
        .positional(0)
        .ok_or_else(|| usage("communities: missing graph file"))?;
    let top: usize = f.parse("--top", 20)?;
    let threads: usize = f.parse("--threads", 0)?;
    let g = load(path)?;
    with_pool(threads, move || {
        let r = detect(g.clone(), &Config::default());
        let reports = parcomm::metrics::community_reports(&g, &r.assignment);
        writeln!(
            out,
            "{} communities, Q = {:.4}, coverage {:.3}; largest {top}:",
            r.num_communities, r.modularity, r.coverage
        )?;
        for rep in parcomm::metrics::largest_communities(&reports, top) {
            writeln!(out, "{rep}")?;
        }
        Ok(())
    })
}
