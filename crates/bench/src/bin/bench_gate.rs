//! The benchmark gate: every arm in one table, measured on pinned
//! instances, gated in-process, and written as one JSON report.
//!
//! [`ARMS`] is the whole harness. A row names an arm, the instances it
//! runs on, what it changes against a default [`Detector`] run (a config
//! delta, another entry point, or the trace recorder attached) and, when
//! gated, its baseline arm, the per-cell quantity compared, and a bound.
//! In every (instance, threads) cell the arms that run there are timed
//! round-robin, one sample each per round, with the order reversed every
//! other round, so slow machine epochs (frequency drift, noisy
//! neighbours) land on every arm alike. A gate pairs its arm with the
//! baseline cell by cell, pools the per-cell ratios by geometric mean
//! and checks the pool against its bound: the cells are replicate
//! measurements of one cost, so pooling averages out the host noise a
//! single cell still carries. Every verdict is printed and written to the
//! report, and the process exits 1 if any gate failed. Under `--smoke`
//! (tiny instances, one thread, one run) the ratios are reported but
//! never gate: such timings carry no signal.
//!
//! Timed runs carry only what the arm measures: no observer, except on
//! `observed`, whose point is the recorder's cost. The phase columns come
//! from one more, untimed run per arm with the `pcd-trace` recorder
//! attached — the `pcd_phase_seconds` sums, folded across components and
//! batch graphs with [`merge_runs`] — so the report and `parcomm detect
//! --metrics` read the same recorder.
//!
//! Report schema `parcomm-bench-v4`: `created_unix`, `smoke`, `host`
//! (available parallelism, the region width every cell ran under —
//! pinned at startup to the widest `--threads` entry via [`pin_global`] —
//! alloc-stats on/off, and the process's peak RSS), `instances`,
//! `results` — one record per (instance, threads, arm) with
//! min/median/max end-to-end seconds, phase seconds, level count,
//! modularity, and the measured run's heap allocations under
//! `--features alloc-stats` (`null` otherwise) — and `gates`, one entry
//! per gated row with its per-cell ratios, geometric mean and verdict.
//! Everything is emitted by hand: the harness builds without serde or
//! any other registry dependency.

use std::fmt::Write as _;
use std::process::ExitCode;

use pcd_core::{
    detect_many_observed, try_detect_sharded_observed, Budget, CancelToken, Config, ContractorKind,
    DetectionResult, Detector, LevelObserver, NoopObserver,
};
use pcd_gen::classic::clique_ring;
use pcd_gen::{rmat_graph, sbm_graph, RmatParams, SbmParams};
use pcd_graph::{builder, Graph};
use pcd_trace::{merge_runs, metrics_json, Registry, TraceObserver};
use pcd_util::par;
use pcd_util::pool::{pin_global, with_threads};
use pcd_util::timing::{RunStats, Timer};
use pcd_util::VertexId;

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static ALLOC: pcd_util::alloc_stats::CountingAlloc = pcd_util::alloc_stats::CountingAlloc;

/// Pinned instance seed: every report benchmarks bit-identical graphs.
const SEED: u64 = 42;

/// Graphs in the batch instance.
const BATCH_SIZE: usize = 4;

/// The instance families; [`instances`] builds one of each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Inst {
    /// R-MAT at `--scale`, the paper's input.
    Rmat,
    /// LiveJournal-like SBM with `--sbm-vertices` vertices.
    Sbm,
    /// A disjoint union of a smaller R-MAT and SBM: many components, the
    /// shape sharded detection exists for.
    Union,
    /// A connected clique ring: sharding must take its single-component
    /// fast path.
    Ring,
    /// [`BATCH_SIZE`] independent R-MAT graphs.
    Batch,
}

/// The entry point an arm runs.
#[derive(Clone, Copy, Debug)]
enum Call {
    /// A new [`Detector`] per graph.
    Solo,
    /// [`try_detect_sharded_observed`]: components on warm per-worker
    /// engines, merged deterministically.
    Sharded,
    /// [`detect_many_observed`]: the batch on warm per-worker engines.
    BatchWarm,
    /// The same parallel loop with a new engine per graph, so the only
    /// difference from `BatchWarm` is arena reuse.
    BatchCold,
}

/// The per-cell number a gate compares between an arm and its baseline.
#[derive(Clone, Copy, Debug)]
enum Quantity {
    /// The fastest end-to-end sample. Host noise only adds time, so each
    /// minimum approaches its arm's true cost while real extra work
    /// shifts it: the min/min ratio of interleaved arms is the
    /// lowest-variance overhead estimate available here.
    Min,
    /// The median end-to-end sample.
    Median,
    /// Contract-phase seconds of the arm's recorder run.
    Contract,
}

impl Quantity {
    fn of(self, r: &Record) -> f64 {
        match self {
            Quantity::Min => r.end_to_end.min(),
            Quantity::Median => r.end_to_end.median(),
            Quantity::Contract => r.contract_secs,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Quantity::Min => "min_secs",
            Quantity::Median => "median_secs",
            Quantity::Contract => "contract_secs",
        }
    }
}

/// A gate's direction and threshold: `AtMost` bounds the overhead
/// arm ÷ baseline from above, `AtLeast` bounds the speedup
/// baseline ÷ arm from below.
#[derive(Clone, Copy, Debug)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
}

impl Bound {
    fn ratio(self, arm: f64, baseline: f64) -> f64 {
        match self {
            Bound::AtMost(_) => arm / baseline,
            Bound::AtLeast(_) => baseline / arm,
        }
    }

    fn holds(self, pooled: f64) -> bool {
        match self {
            Bound::AtMost(t) => pooled <= t,
            Bound::AtLeast(t) => pooled >= t,
        }
    }
}

/// A gated row's comparison with its baseline arm.
#[derive(Debug)]
struct Gate {
    baseline: &'static str,
    quantity: Quantity,
    bound: Bound,
}

/// One row of [`ARMS`].
#[derive(Debug)]
struct Arm {
    name: &'static str,
    on: &'static [Inst],
    config: fn() -> Config,
    call: Call,
    /// Timed with the trace recorder attached.
    traced: bool,
    gate: Option<Gate>,
}

/// The single-graph level-loop instances.
const SINGLE: &[Inst] = &[Inst::Rmat, Inst::Sbm];

/// Every arm the harness measures. Thresholds are the values
/// EXPERIMENTS.md records for each gate.
static ARMS: [Arm; 9] = [
    // The default engine: scratch arenas and graph buffers reused across
    // levels. Every gate's baseline.
    Arm {
        name: "reuse",
        on: &[Inst::Rmat, Inst::Sbm, Inst::Union, Inst::Ring],
        config: Config::default,
        call: Call::Solo,
        traced: false,
        gate: None,
    },
    // The ablation that rebuilds every buffer each level.
    Arm {
        name: "fresh",
        on: SINGLE,
        config: || Config::default().with_scratch_reuse(false),
        call: Call::Solo,
        traced: false,
        gate: None,
    },
    // The trace recorder's whole-run cost.
    Arm {
        name: "observed",
        on: SINGLE,
        config: Config::default,
        call: Call::Solo,
        traced: true,
        gate: Some(Gate {
            baseline: "reuse",
            quantity: Quantity::Min,
            bound: Bound::AtMost(1.02),
        }),
    },
    // A budget with every limit live and none binding: the cost of the
    // sentinel's phase-boundary checks.
    Arm {
        name: "budgeted-unarmed",
        on: SINGLE,
        config: unarmed_budget,
        call: Call::Solo,
        traced: false,
        gate: Some(Gate {
            baseline: "reuse",
            quantity: Quantity::Min,
            bound: Bound::AtMost(1.01),
        }),
    },
    // The radix-sort contraction kernel in place of bucket.
    Arm {
        name: "contract-radix",
        on: SINGLE,
        config: || Config::default().with_contractor(ContractorKind::Radix),
        call: Call::Solo,
        traced: false,
        gate: Some(Gate {
            baseline: "reuse",
            quantity: Quantity::Contract,
            bound: Bound::AtLeast(1.2),
        }),
    },
    // Sharding where components can run concurrently. The floor sits
    // below 1: a narrow host pays decompose and merge without much
    // concurrency to win, so the gate bounds the slowdown.
    Arm {
        name: "sharded",
        on: &[Inst::Union],
        config: Config::default,
        call: Call::Sharded,
        traced: false,
        gate: Some(Gate {
            baseline: "reuse",
            quantity: Quantity::Median,
            bound: Bound::AtLeast(0.9),
        }),
    },
    // Sharding a connected graph: one components() sweep, then the plain
    // engine, so it must cost about nothing.
    Arm {
        name: "sharded",
        on: &[Inst::Ring],
        config: Config::default,
        call: Call::Sharded,
        traced: false,
        gate: Some(Gate {
            baseline: "reuse",
            quantity: Quantity::Median,
            bound: Bound::AtMost(1.01),
        }),
    },
    Arm {
        name: "batch-warm",
        on: &[Inst::Batch],
        config: Config::default,
        call: Call::BatchWarm,
        traced: false,
        gate: None,
    },
    Arm {
        name: "batch-cold",
        on: &[Inst::Batch],
        config: Config::default,
        call: Call::BatchCold,
        traced: false,
        gate: None,
    },
];

/// An armed but non-binding budget: hour-long deadline, `usize::MAX`
/// caps, and a live cancel token nobody cancels.
fn unarmed_budget() -> Config {
    Config::default().with_budget(
        Budget::unarmed()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_max_levels(usize::MAX)
            .with_max_scratch_bytes(usize::MAX)
            .with_cancel_token(CancelToken::new()),
    )
}

struct Args {
    /// R-MAT scale (2^scale vertices).
    rmat_scale: u32,
    /// SBM vertex count.
    sbm_vertices: usize,
    threads: Vec<usize>,
    runs: usize,
    out: String,
    /// When non-empty: write the last observed cell's metrics registry as
    /// a `parcomm-metrics-v1` document to this path.
    metrics_out: String,
    /// Tiny instances, one thread, one run: schema/plumbing check only.
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            rmat_scale: 16,
            sbm_vertices: 60_000,
            threads: vec![1, 2, 8],
            runs: 3,
            out: "target/bench_gate.json".into(),
            metrics_out: String::new(),
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scale" => a.rmat_scale = num(&val("--scale")?)?,
                "--sbm-vertices" => a.sbm_vertices = num(&val("--sbm-vertices")?)?,
                "--threads" => {
                    a.threads = val("--threads")?
                        .split(',')
                        .map(num)
                        .collect::<Result<_, _>>()?;
                }
                "--runs" => a.runs = num(&val("--runs")?)?,
                "--out" => a.out = val("--out")?,
                "--metrics-out" => a.metrics_out = val("--metrics-out")?,
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if a.smoke {
            a.rmat_scale = 8;
            a.sbm_vertices = 600;
            a.threads = vec![1];
            a.runs = 1;
        }
        if a.threads.is_empty() || a.runs == 0 {
            return Err("need at least one thread count and one run".into());
        }
        Ok(a)
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number: {s}"))
}

/// A named input: one graph, or the graphs of a batch.
struct Instance {
    kind: Inst,
    name: String,
    graphs: Vec<Graph>,
}

/// The pinned instances, one per [`Inst`]. The batch graphs and the
/// union's R-MAT part are two scales below the headline R-MAT, so one
/// batch costs about as much as one single-graph cell.
fn instances(scale: u32, sbm: usize) -> Vec<Instance> {
    let small = scale.saturating_sub(2).max(4);
    let ring_cliques = 1usize << scale.saturating_sub(4).max(4);
    let one = |kind, name, graph| Instance {
        kind,
        name,
        graphs: vec![graph],
    };
    vec![
        one(
            Inst::Rmat,
            format!("rmat-{scale}-16"),
            rmat_graph(&RmatParams::paper(scale, SEED)),
        ),
        one(
            Inst::Sbm,
            format!("sbm-lj-{sbm}"),
            sbm_graph(&SbmParams::livejournal_like(sbm, SEED + 1)).graph,
        ),
        one(
            Inst::Union,
            format!("union-rmat{small}-sbm{}", sbm / 2),
            disjoint_union(&[
                rmat_graph(&RmatParams::paper(small, SEED + 7)),
                sbm_graph(&SbmParams::livejournal_like(sbm / 2, SEED + 8)).graph,
            ]),
        ),
        one(
            Inst::Ring,
            format!("ring-{ring_cliques}x8"),
            clique_ring(ring_cliques, 8),
        ),
        Instance {
            kind: Inst::Batch,
            name: format!("rmat-{small}-16-x{BATCH_SIZE}"),
            graphs: (0..BATCH_SIZE)
                .map(|i| rmat_graph(&RmatParams::paper(small, SEED + 100 + i as u64)))
                .collect(),
        },
    ]
}

/// Disjoint id-offset union of `parts`: each part's vertices are shifted
/// past its predecessors' and no cross-part edges are added, so the
/// result's connected components are exactly the parts' components.
fn disjoint_union(parts: &[Graph]) -> Graph {
    let nv: usize = parts.iter().map(Graph::num_vertices).sum();
    let mut edges = Vec::new();
    let mut off: VertexId = 0;
    for g in parts {
        edges.extend(g.edges().map(|(u, v, w)| (u + off, v + off, w)));
        for (v, &w) in g.self_loops().iter().enumerate() {
            if w > 0 {
                edges.push((v as VertexId + off, v as VertexId + off, w));
            }
        }
        off += g.num_vertices() as VertexId;
    }
    builder::from_edges(nv, edges)
}

/// One measured (instance, threads, arm) cell.
struct Record {
    instance: String,
    kind: Inst,
    input_edges: usize,
    threads: usize,
    arm: &'static str,
    end_to_end: RunStats,
    score_secs: f64,
    match_secs: f64,
    contract_secs: f64,
    levels: usize,
    modularity: f64,
    allocations: Option<u64>,
    /// The recorder run's metrics, folded across engine runs.
    registry: Registry,
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            eprintln!(
                "usage: bench_gate [--scale N] [--sbm-vertices N] [--threads 1,2,8] \
                 [--runs N] [--out FILE] [--metrics-out FILE] [--smoke]"
            );
            return ExitCode::FAILURE;
        }
    };

    // Pin the process-wide width to the widest swept width before any
    // parallel work (instance generation included) reads it, so the host
    // stanza records the width the run actually used instead of the
    // silent per-host default.
    let pin_width = args.threads.iter().copied().max().unwrap_or(0);
    if !pin_global(pin_width) {
        eprintln!(
            "bench_gate: the global region width was already fixed; \
             could not pin to {pin_width} threads"
        );
    }

    eprintln!(
        "bench_gate: building instances (rmat scale {}, sbm {} vertices)...",
        args.rmat_scale, args.sbm_vertices
    );
    let instances = instances(args.rmat_scale, args.sbm_vertices);
    let mut records = Vec::new();
    for inst in &instances {
        for &t in &args.threads {
            for r in measure_cell(inst, t, args.runs) {
                eprintln!(
                    "  {} t={} {}: median {:.4}s (score {:.4} match {:.4} contract {:.4})",
                    r.instance,
                    r.threads,
                    r.arm,
                    r.end_to_end.median(),
                    r.score_secs,
                    r.match_secs,
                    r.contract_secs
                );
                records.push(r);
            }
        }
    }

    let verdicts = evaluate(&records, args.smoke);
    for v in &verdicts {
        print_verdict(v);
    }

    let json = render(args.smoke, &instances, &records, &verdicts);
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("bench_gate: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("bench_gate: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("bench_gate: wrote {}", args.out);
    if !args.metrics_out.is_empty() {
        let last = records
            .iter()
            .rev()
            .find(|r| r.arm == "observed")
            .expect("the observed arm always runs");
        let doc = metrics_json(&last.registry, &last.instance, unix_now());
        if let Err(e) = std::fs::write(&args.metrics_out, doc) {
            eprintln!("bench_gate: cannot write {}: {e}", args.metrics_out);
            return ExitCode::FAILURE;
        }
        eprintln!("bench_gate: wrote {}", args.metrics_out);
    }
    if verdicts.iter().any(|v| v.outcome == Outcome::Fail) {
        eprintln!("bench_gate: a gate failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Times every arm that runs on `inst`, `runs` interleaved rounds at
/// `threads` workers, then runs each arm once more with the recorder
/// attached for its phase columns.
fn measure_cell(inst: &Instance, threads: usize, runs: usize) -> Vec<Record> {
    let arms: Vec<&Arm> = ARMS.iter().filter(|a| a.on.contains(&inst.kind)).collect();
    let mut samples = vec![Vec::with_capacity(runs); arms.len()];
    let mut allocations = vec![None; arms.len()];
    for round in 0..runs {
        for k in 0..arms.len() {
            let i = if round % 2 == 0 {
                k
            } else {
                arms.len() - 1 - k
            };
            let (secs, allocs) = if arms[i].traced {
                time_run(arms[i], inst, threads, TraceObserver::new)
            } else {
                time_run(arms[i], inst, threads, || NoopObserver)
            };
            samples[i].push(secs);
            allocations[i] = allocs;
        }
    }
    arms.iter()
        .zip(samples)
        .zip(allocations)
        .map(|((&arm, samples), allocations)| {
            let graphs = inst.graphs.clone();
            let runs = with_threads(threads, move || run(arm, graphs, TraceObserver::new));
            let registry = merge_runs(runs.iter().flat_map(|(_, obs)| obs).map(Ok));
            let phase = |name: &str| -> f64 {
                registry
                    .histograms_of("pcd_phase_seconds")
                    .filter(|h| h.labels.iter().any(|(_, v)| v == name))
                    .map(|h| h.sum)
                    .sum()
            };
            Record {
                instance: inst.name.clone(),
                kind: inst.kind,
                input_edges: inst.graphs.iter().map(Graph::num_edges).sum(),
                threads,
                arm: arm.name,
                end_to_end: RunStats::new(samples),
                score_secs: phase("score"),
                match_secs: phase("match"),
                contract_secs: phase("contract"),
                levels: runs.iter().map(|(r, _)| r.levels.len()).sum(),
                modularity: runs.iter().map(|(r, _)| r.modularity).sum::<f64>() / runs.len() as f64,
                allocations,
                registry,
            }
        })
        .collect()
}

/// One timed run of `arm`. The instance is copied before the clock
/// starts, engine construction is timed (every arm pays it), as is the
/// recorder's on the traced arm (`parcomm detect --metrics` builds one
/// per run too), and the results are dropped after the clock stops.
fn time_run<O, F>(arm: &Arm, inst: &Instance, threads: usize, make: F) -> (f64, Option<u64>)
where
    O: LevelObserver + Send,
    F: Fn() -> O + Send + Sync,
{
    let graphs = inst.graphs.clone();
    let before = alloc_count();
    let timer = Timer::start();
    let _results = with_threads(threads, move || run(arm, graphs, make));
    let secs = timer.elapsed_secs();
    (secs, alloc_count().zip(before).map(|(a, b)| a - b))
}

/// Runs `arm` on `graphs` with one observer from `make` per engine run,
/// returning each graph's result and observers in input order.
fn run<O, F>(arm: &Arm, graphs: Vec<Graph>, make: F) -> Vec<(DetectionResult, Vec<O>)>
where
    O: LevelObserver + Send,
    F: Fn() -> O + Sync,
{
    const VALID: &str = "bench configs are valid";
    const CLEAN: &str = "bench instances detect cleanly";
    let cfg = (arm.config)();
    let solo = |g| {
        let mut observer = make();
        let result = Detector::new(cfg.clone())
            .expect(VALID)
            .run_observed(g, &mut observer)
            .expect(CLEAN);
        (result, vec![observer])
    };
    match arm.call {
        Call::Solo => graphs.into_iter().map(solo).collect(),
        Call::Sharded => graphs
            .into_iter()
            .map(|g| try_detect_sharded_observed(g, &cfg, &make).expect(CLEAN))
            .collect(),
        Call::BatchWarm => detect_many_observed(graphs, &cfg, &make)
            .expect(VALID)
            .into_iter()
            .map(|(outcome, observer)| (outcome.expect(CLEAN), vec![observer]))
            .collect(),
        Call::BatchCold => par::map_init(graphs, || (), |(), g| solo(g)),
    }
}

/// A gate's outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Pass,
    Fail,
    /// No cell pairs the arm with its baseline.
    NoCells,
    /// A `--smoke` run: reported, not gated.
    Smoke,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::Fail => "fail",
            Outcome::NoCells => "no-cells",
            Outcome::Smoke => "not-gated",
        }
    }
}

/// One gated row evaluated over a report's records.
struct Verdict<'a> {
    arm: &'static Arm,
    gate: &'static Gate,
    /// (instance, threads, ratio) for every cell paired with the baseline.
    cells: Vec<(&'a str, usize, f64)>,
    geomean: Option<f64>,
    outcome: Outcome,
}

/// Evaluates every gated row of [`ARMS`] over `records`: pairs the arm's
/// cells with the baseline's at the same (instance, threads), pools the
/// per-cell ratios by geometric mean, and checks the pool. Cells whose
/// quantity is not positive (a phase that never ran) are skipped.
fn evaluate(records: &[Record], smoke: bool) -> Vec<Verdict<'_>> {
    ARMS.iter()
        .filter_map(|arm| Some((arm, arm.gate.as_ref()?)))
        .map(|(arm, gate)| {
            let cells: Vec<_> = records
                .iter()
                .filter(|r| r.arm == arm.name && arm.on.contains(&r.kind))
                .filter_map(|r| {
                    let base = records.iter().find(|b| {
                        b.arm == gate.baseline && b.instance == r.instance && b.threads == r.threads
                    })?;
                    let (a, b) = (gate.quantity.of(r), gate.quantity.of(base));
                    (a > 0.0 && b > 0.0)
                        .then(|| (r.instance.as_str(), r.threads, gate.bound.ratio(a, b)))
                })
                .collect();
            let geomean = (!cells.is_empty())
                .then(|| (cells.iter().map(|c| c.2.ln()).sum::<f64>() / cells.len() as f64).exp());
            let outcome = match geomean {
                None => Outcome::NoCells,
                Some(_) if smoke => Outcome::Smoke,
                Some(m) if gate.bound.holds(m) => Outcome::Pass,
                Some(_) => Outcome::Fail,
            };
            Verdict {
                arm,
                gate,
                cells,
                geomean,
                outcome,
            }
        })
        .collect()
}

fn print_verdict(v: &Verdict<'_>) {
    let (ratio, op, threshold) = match v.gate.bound {
        Bound::AtMost(t) => (format!("{}/{}", v.arm.name, v.gate.baseline), "<=", t),
        Bound::AtLeast(t) => (format!("{}/{}", v.gate.baseline, v.arm.name), ">=", t),
    };
    println!(
        "gate {} on {:?}: {ratio} {} {op} {threshold}",
        v.arm.name,
        v.arm.on,
        v.gate.quantity.name()
    );
    for (instance, threads, r) in &v.cells {
        println!("  {instance:28} t={threads:<2} {r:.4}x");
    }
    match v.geomean {
        Some(m) => println!(
            "  geometric mean over {} cell(s): {m:.4}x: {}",
            v.cells.len(),
            v.outcome.name()
        ),
        None => println!("  {}", v.outcome.name()),
    }
}

/// Heap allocation count so far, when the counting allocator is installed.
fn alloc_count() -> Option<u64> {
    #[cfg(feature = "alloc-stats")]
    {
        Some(pcd_util::alloc_stats::snapshot().allocations)
    }
    #[cfg(not(feature = "alloc-stats"))]
    {
        None
    }
}

/// The process's peak resident set size from `/proc/self/status`
/// (`VmHWM`, kibibytes). It only grows, so it describes the whole run,
/// not any one cell.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn render(
    smoke: bool,
    instances: &[Instance],
    records: &[Record],
    verdicts: &[Verdict<'_>],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"parcomm-bench-v4\",\n");
    let _ = writeln!(s, "  \"created_unix\": {},", unix_now());
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"host\": {\n");
    let _ = writeln!(
        s,
        "    \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(
        s,
        "    \"pool_threads\": {},",
        pcd_util::pool::current_threads()
    );
    let _ = writeln!(s, "    \"alloc_stats\": {},", cfg!(feature = "alloc-stats"));
    let _ = writeln!(s, "    \"peak_rss_bytes\": {}", json_opt(peak_rss_bytes()));
    s.push_str("  },\n");
    s.push_str("  \"instances\": [\n");
    let rows: Vec<String> = instances
        .iter()
        .map(|inst| {
            format!(
                "    {{\"name\": {}, \"vertices\": {}, \"edges\": {}}}",
                json_str(&inst.name),
                inst.graphs.iter().map(Graph::num_vertices).sum::<usize>(),
                inst.graphs.iter().map(Graph::num_edges).sum::<usize>()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n");
    s.push_str("  \"results\": [\n");
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let mut o = String::from("    {\n");
            let _ = writeln!(o, "      \"instance\": {},", json_str(&r.instance));
            let _ = writeln!(o, "      \"threads\": {},", r.threads);
            let _ = writeln!(o, "      \"arm\": {},", json_str(r.arm));
            let _ = writeln!(o, "      \"runs\": {},", r.end_to_end.samples.len());
            let _ = writeln!(
                o,
                "      \"end_to_end_secs\": {{\"min\": {}, \"median\": {}, \"max\": {}}},",
                json_f64(r.end_to_end.min()),
                json_f64(r.end_to_end.median()),
                json_f64(r.end_to_end.max())
            );
            let _ = writeln!(o, "      \"score_secs\": {},", json_f64(r.score_secs));
            let _ = writeln!(o, "      \"match_secs\": {},", json_f64(r.match_secs));
            let _ = writeln!(o, "      \"contract_secs\": {},", json_f64(r.contract_secs));
            let _ = writeln!(o, "      \"levels\": {},", r.levels);
            let _ = writeln!(o, "      \"modularity\": {},", json_f64(r.modularity));
            let _ = writeln!(
                o,
                "      \"input_edges_per_sec\": {},",
                json_f64(r.input_edges as f64 / r.end_to_end.min())
            );
            let _ = writeln!(o, "      \"allocations\": {}", json_opt(r.allocations));
            o.push_str("    }");
            o
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n");
    s.push_str("  \"gates\": [\n");
    let rows: Vec<String> = verdicts
        .iter()
        .map(|v| {
            let (bound, threshold) = match v.gate.bound {
                Bound::AtMost(t) => ("at_most", t),
                Bound::AtLeast(t) => ("at_least", t),
            };
            let on: Vec<String> = v
                .arm
                .on
                .iter()
                .map(|i| json_str(&format!("{i:?}").to_lowercase()))
                .collect();
            let cells: Vec<String> = v
                .cells
                .iter()
                .map(|(instance, threads, ratio)| {
                    format!(
                        "        {{\"instance\": {}, \"threads\": {threads}, \"ratio\": {}}}",
                        json_str(instance),
                        json_f64(*ratio)
                    )
                })
                .collect();
            let mut o = String::from("    {\n");
            let _ = writeln!(o, "      \"arm\": {},", json_str(v.arm.name));
            let _ = writeln!(o, "      \"on\": [{}],", on.join(", "));
            let _ = writeln!(o, "      \"baseline\": {},", json_str(v.gate.baseline));
            let _ = writeln!(o, "      \"quantity\": \"{}\",", v.gate.quantity.name());
            let _ = writeln!(o, "      \"bound\": \"{bound}\",");
            let _ = writeln!(o, "      \"threshold\": {},", json_f64(threshold));
            let _ = writeln!(o, "      \"cells\": [\n{}\n      ],", cells.join(",\n"));
            let _ = writeln!(
                o,
                "      \"geomean\": {},",
                v.geomean.map_or("null".into(), json_f64)
            );
            let _ = writeln!(o, "      \"verdict\": \"{}\"", v.outcome.name());
            o.push_str("    }");
            o
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// JSON string literal (the harness only emits ASCII names, but escape
/// defensively anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats only: JSON has no NaN/Inf, map them to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |n| n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-cell numbers of a checked-in report. Its renderer wrote
    /// one result key per line in a fixed order, ending each record's
    /// numbers we need with `contract_secs`, so a line scan suffices.
    fn cells_of(report: &str) -> Vec<Record> {
        let mut cells = Vec::new();
        let (mut instance, mut threads, mut arm) = ("", 0, "");
        let mut end_to_end = Vec::new();
        for line in report.lines() {
            let line = line.trim().trim_end_matches(',');
            let Some((key, value)) = line.split_once(": ") else {
                continue;
            };
            match key {
                "\"instance\"" => instance = value.trim_matches('"'),
                "\"threads\"" => threads = value.parse().unwrap(),
                "\"arm\"" => arm = value.trim_matches('"'),
                "\"end_to_end_secs\"" => {
                    end_to_end = value
                        .trim_matches(['{', '}'])
                        .split(", ")
                        .map(|kv| kv.split_once(": ").unwrap().1.parse().unwrap())
                        .collect();
                }
                "\"contract_secs\"" => cells.push(Record {
                    instance: instance.into(),
                    kind: match instance {
                        i if i.starts_with("union-") => Inst::Union,
                        i if i.starts_with("ring-") => Inst::Ring,
                        i if i.starts_with("sbm-") => Inst::Sbm,
                        i if i.contains("-x") => Inst::Batch,
                        _ => Inst::Rmat,
                    },
                    input_edges: 0,
                    threads,
                    arm: ARMS.iter().find(|a| a.name == arm).unwrap().name,
                    end_to_end: RunStats::new(std::mem::take(&mut end_to_end)),
                    score_secs: 0.0,
                    match_secs: 0.0,
                    contract_secs: value.parse().unwrap(),
                    levels: 0,
                    modularity: 0.0,
                    allocations: None,
                    registry: Registry::new(),
                }),
                _ => {}
            }
        }
        cells
    }

    /// The verdicts the checked-in reports got from the gate this harness
    /// replaces, under the same thresholds, in [`ARMS`] order: observed,
    /// budgeted-unarmed, contract-radix, sharded on union-*, sharded on
    /// the ring. Each geometric mean is checked to the digits given.
    #[test]
    fn checked_in_reports_keep_their_verdicts() {
        use Outcome::{Fail, NoCells, Pass};
        let cases = [
            (
                include_str!("../../../../BENCH_pr10.json"),
                [
                    (Pass, "1.0053"),
                    (Pass, "0.9870"),
                    (Pass, "1.62"),
                    (Pass, "0.95"),
                    (Pass, "1.0037"),
                ],
            ),
            (
                include_str!("../../../../BENCH_pr9.json"),
                [
                    (Pass, "0.9622"),
                    (Pass, "0.9733"),
                    (Pass, "1.62"),
                    (Pass, "0.98"),
                    (Pass, "0.9450"),
                ],
            ),
            (
                include_str!("../../../../BENCH_pr8.json"),
                [
                    (Pass, "1.0077"),
                    (Fail, "1.0164"),
                    (Pass, "1.64"),
                    (NoCells, ""),
                    (NoCells, ""),
                ],
            ),
        ];
        for (report, want) in cases {
            let cells = cells_of(report);
            let verdicts = evaluate(&cells, false);
            assert_eq!(verdicts.len(), want.len());
            for (v, (outcome, geomean)) in verdicts.iter().zip(want) {
                assert_eq!(v.outcome, outcome, "{} on {:?}", v.arm.name, v.arm.on);
                let digits = geomean.len().saturating_sub(2);
                let got = v.geomean.map_or(String::new(), |m| format!("{m:.digits$}"));
                assert_eq!(got, geomean, "{} on {:?}", v.arm.name, v.arm.on);
            }
            // Smoke runs report the same ratios and gate none.
            for v in evaluate(&cells, true) {
                assert!(matches!(v.outcome, Outcome::Smoke | NoCells));
            }
        }
    }

    /// A gate pairs cells by (instance, threads), so its baseline must run
    /// on every instance the gated arm runs on.
    #[test]
    fn every_baseline_runs_where_its_arm_does() {
        for arm in &ARMS {
            let Some(gate) = &arm.gate else { continue };
            for inst in arm.on {
                assert!(
                    ARMS.iter()
                        .any(|b| b.name == gate.baseline && b.on.contains(inst)),
                    "{} has no {} baseline on {inst:?}",
                    arm.name,
                    gate.baseline
                );
            }
        }
    }
}
