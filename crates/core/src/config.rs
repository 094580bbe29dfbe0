//! Detection configuration: metric, kernel implementations, constraints,
//! resource budget, and the coverage stop.

use crate::budget::Budget;
use pcd_util::PcdError;

/// Which optimisation metric scores edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScorerKind {
    /// Change in Newman–Girvan modularity (the paper's primary metric).
    #[default]
    Modularity,
    /// Negated change in conductance (minimisation turned maximisation).
    Conductance,
}

impl ScorerKind {
    /// Every scorer, in `--list-kernels` order.
    pub const ALL: [ScorerKind; 2] = [ScorerKind::Modularity, ScorerKind::Conductance];

    /// Stable name: the `--scorer` spelling and the `--list-kernels` entry.
    pub fn name(self) -> &'static str {
        match self {
            ScorerKind::Modularity => "modularity",
            ScorerKind::Conductance => "conductance",
        }
    }

    /// One-line description for `--list-kernels`.
    pub fn description(self) -> &'static str {
        match self {
            ScorerKind::Modularity => "change in Newman-Girvan modularity (paper primary metric)",
            ScorerKind::Conductance => {
                "negated change in conductance (minimisation as maximisation)"
            }
        }
    }
}

/// Which matching kernel merges communities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherKind {
    /// The paper's improved unmatched-vertex-list matching (§IV-B).
    #[default]
    UnmatchedList,
    /// The 2011 full-edge-sweep baseline.
    EdgeSweep,
    /// Sequential greedy (oracle / single-thread reference).
    Sequential,
    /// Louvain-style synchronous move phase guiding an unmatched-list
    /// matching: parallel best-neighbor moves with deterministic
    /// tie-breaking and sequential conflict-free commits.
    LouvainMove,
}

impl MatcherKind {
    /// Every matcher, in `--list-kernels` order.
    pub const ALL: [MatcherKind; 4] = [
        MatcherKind::UnmatchedList,
        MatcherKind::EdgeSweep,
        MatcherKind::Sequential,
        MatcherKind::LouvainMove,
    ];

    /// Stable name: the `--matcher` spelling and the `--list-kernels` entry.
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::UnmatchedList => "unmatched-list",
            MatcherKind::EdgeSweep => "edge-sweep",
            MatcherKind::Sequential => "sequential",
            MatcherKind::LouvainMove => "louvain",
        }
    }

    /// One-line description for `--list-kernels`.
    pub fn description(self) -> &'static str {
        match self {
            MatcherKind::UnmatchedList => {
                "paper's improved unmatched-vertex-list matching (sec. IV-B)"
            }
            MatcherKind::EdgeSweep => "2011 full-edge-sweep baseline matcher",
            MatcherKind::Sequential => "sequential greedy oracle matcher (single-thread reference)",
            MatcherKind::LouvainMove => {
                "synchronous Louvain move phase guiding an intra-label-first maximal matching"
            }
        }
    }
}

/// Which contraction kernel builds the next community graph. The three
/// bucket-sort kinds are one pipeline (`pcd_contract::bucket`) with two
/// ablation choices, the row sort and the bucket placement, and emit the
/// same graph bit for bit (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContractorKind {
    /// Bucket-sort contraction with prefix-sum placement and LSD radix
    /// row sorts: the production default.
    #[default]
    Radix,
    /// The paper's bucket-sort contraction with heapsort rows and
    /// deterministic prefix-sum placement (§IV-C): the row-sort ablation.
    Bucket,
    /// Heapsort rows with the fetch-and-add placement the paper mentions
    /// but never timed: the placement ablation.
    BucketFetchAdd,
    /// The 2011 linked-list hash-chain baseline.
    Linked,
    /// Sequential hash-map oracle.
    Sequential,
}

impl ContractorKind {
    /// Every contractor, in `--list-kernels` order.
    pub const ALL: [ContractorKind; 5] = [
        ContractorKind::Radix,
        ContractorKind::Bucket,
        ContractorKind::BucketFetchAdd,
        ContractorKind::Linked,
        ContractorKind::Sequential,
    ];

    /// Stable name: the `--contractor` spelling and the `--list-kernels`
    /// entry.
    pub fn name(self) -> &'static str {
        match self {
            ContractorKind::Radix => "radix",
            ContractorKind::Bucket => "bucket",
            ContractorKind::BucketFetchAdd => "bucket-fetch-add",
            ContractorKind::Linked => "linked",
            ContractorKind::Sequential => "sequential",
        }
    }

    /// One-line description for `--list-kernels`.
    pub fn description(self) -> &'static str {
        match self {
            ContractorKind::Radix => {
                "bucket-sort contraction: prefix-sum placement + LSD radix row sorts"
            }
            ContractorKind::Bucket => {
                "paper's bucket-sort contraction: heapsort rows, prefix-sum placement (sec. IV-C)"
            }
            ContractorKind::BucketFetchAdd => {
                "bucket-sort contraction: heapsort rows, fetch-and-add placement"
            }
            ContractorKind::Linked => "2011 linked-list hash-chain baseline contractor",
            ContractorKind::Sequential => "sequential hash-map oracle contractor",
        }
    }
}

/// Looks `name` up among `all` by `name_of`, failing with a
/// [`PcdError::Config`] that lists the valid names.
fn parse_kind<K: Copy>(
    what: &str,
    name: &str,
    all: &[K],
    name_of: fn(K) -> &'static str,
) -> Result<K, PcdError> {
    all.iter()
        .copied()
        .find(|&k| name_of(k) == name)
        .ok_or_else(|| {
            let names: Vec<&str> = all.iter().map(|&k| name_of(k)).collect();
            PcdError::config(format!(
                "unknown {what} '{name}' (expected one of: {})",
                names.join(", ")
            ))
        })
}

impl std::str::FromStr for ScorerKind {
    type Err = PcdError;

    fn from_str(s: &str) -> Result<Self, PcdError> {
        parse_kind("scorer", s, &ScorerKind::ALL, ScorerKind::name)
    }
}

impl std::str::FromStr for MatcherKind {
    type Err = PcdError;

    fn from_str(s: &str) -> Result<Self, PcdError> {
        parse_kind("matcher", s, &MatcherKind::ALL, MatcherKind::name)
    }
}

impl std::str::FromStr for ContractorKind {
    type Err = PcdError;

    fn from_str(s: &str) -> Result<Self, PcdError> {
        parse_kind("contractor", s, &ContractorKind::ALL, ContractorKind::name)
    }
}

/// How much the driver distrusts its own kernels at runtime.
///
/// Ordered: a level implies every check of the levels below it, so guards
/// are gated with `config.paranoia >= Paranoia::Cheap` etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Paranoia {
    /// No runtime guards (production default — correctness is covered by
    /// tests and debug assertions).
    #[default]
    Off,
    /// O(V + E) per-level spot checks: scores finite, contraction
    /// conserves total edge weight and maps onto a dense range.
    Cheap,
    /// Everything in `Cheap` plus full matching verification and complete
    /// structural validation of each contracted graph.
    Full,
}

impl std::str::FromStr for Paranoia {
    type Err = PcdError;

    fn from_str(s: &str) -> Result<Self, PcdError> {
        match s {
            "off" => Ok(Paranoia::Off),
            "cheap" => Ok(Paranoia::Cheap),
            "full" => Ok(Paranoia::Full),
            other => Err(PcdError::config(format!(
                "unknown paranoia level '{other}' (expected off, cheap, or full)"
            ))),
        }
    }
}

/// Default matcher round cap for a graph of `nv` vertices:
/// `4·⌈log₂ nv⌉ + 64`. The paper observes round counts far below even
/// log₂ nv on social networks; the slack keeps the watchdog out of the way
/// on anything but a genuinely wedged matcher.
pub fn default_match_round_cap(nv: usize) -> usize {
    let ceil_log2 = if nv <= 1 {
        0
    } else {
        (nv - 1).ilog2() as usize + 1
    };
    4 * ceil_log2 + 64
}

/// Full configuration for [`crate::detect`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Metric used to score candidate merges.
    pub scorer: ScorerKind,
    /// Matching kernel implementation.
    pub matcher: MatcherKind,
    /// Contraction kernel implementation.
    pub contractor: ContractorKind,
    /// If set, stop after the first level whose coverage (the fraction of
    /// edge weight inside communities) reaches this threshold — the
    /// paper's external constraint, 0.5 in its §V experiments. `None`
    /// runs to the local maximum (no positive edge score), which always
    /// applies.
    pub coverage_stop: Option<f64>,
    /// If set, merges that would grow a community past this many original
    /// vertices are masked out — the paper's "maximum community size"
    /// external constraint.
    pub max_community_size: Option<usize>,
    /// Record each level's old→new community map so any intermediate
    /// partition of the dendrogram can be reconstructed afterwards.
    pub record_levels: bool,
    /// Runtime invariant-guard level (see [`Paranoia`]).
    pub paranoia: Paranoia,
    /// Watchdog cap on parallel matching rounds per level. `None` uses
    /// [`default_match_round_cap`]. On expiry the matcher degrades to
    /// sequential greedy completion and the level is flagged in
    /// [`crate::LevelStats::matcher_degraded`].
    pub max_match_rounds: Option<usize>,
    /// Reuse the driver's per-level scratch arenas ([`crate::LevelScratch`])
    /// across levels (default). When `false`, every level rebuilds the
    /// arenas from empty — the pre-reuse allocation behaviour, kept as the
    /// ablation arm for the memory benchmarks. Both settings produce
    /// bit-identical results.
    pub reuse_scratch: bool,
    /// Resource budget: wall-clock deadline and level cap. Unarmed by
    /// default — zero overhead and bit-identical results (see [`Budget`]).
    pub budget: Budget,
    /// Route [`crate::detect`]/[`crate::try_detect`] through the
    /// WCC-sharded pipeline ([`crate::shard`]): decompose into
    /// connected components, detect each across worker threads with warm
    /// per-worker engines, merge deterministically. Off by default; a
    /// single-component graph takes the exact unsharded path either way
    /// (DESIGN.md §16).
    pub sharding: bool,
    /// Fault plan for the injection harness (test builds only).
    #[cfg(feature = "fault-injection")]
    pub fault: crate::fault::FaultPlan,
}

impl Default for Config {
    /// Quality defaults: modularity, the paper's improved kernels, run to
    /// the local maximum.
    fn default() -> Self {
        Config {
            scorer: ScorerKind::default(),
            matcher: MatcherKind::default(),
            contractor: ContractorKind::default(),
            coverage_stop: None,
            max_community_size: None,
            record_levels: false,
            paranoia: Paranoia::Off,
            max_match_rounds: None,
            reuse_scratch: true,
            budget: Budget::unarmed(),
            sharding: false,
            #[cfg(feature = "fault-injection")]
            fault: crate::fault::FaultPlan::default(),
        }
    }
}

impl Config {
    /// The paper's §V performance configuration: stop once coverage
    /// reaches 0.5 (the DIMACS-challenge-style rule).
    pub fn paper_performance() -> Self {
        Config {
            coverage_stop: Some(0.5),
            ..Config::default()
        }
    }

    /// The 2011-algorithm configuration (edge-sweep matching + linked-list
    /// contraction) used by the "20% improvement" ablation.
    pub fn legacy_2011() -> Self {
        Config {
            matcher: MatcherKind::EdgeSweep,
            contractor: ContractorKind::Linked,
            ..Config::paper_performance()
        }
    }

    #[must_use]
    /// Replaces the scoring metric.
    pub fn with_scorer(mut self, s: ScorerKind) -> Self {
        self.scorer = s;
        self
    }

    #[must_use]
    /// Replaces the matching kernel.
    pub fn with_matcher(mut self, m: MatcherKind) -> Self {
        self.matcher = m;
        self
    }

    #[must_use]
    /// Replaces the contraction kernel.
    pub fn with_contractor(mut self, c: ContractorKind) -> Self {
        self.contractor = c;
        self
    }

    #[must_use]
    /// Stops after the first level whose coverage reaches `c` (see
    /// [`Config::coverage_stop`]).
    pub fn with_coverage_stop(mut self, c: f64) -> Self {
        self.coverage_stop = Some(c);
        self
    }

    #[must_use]
    /// Masks merges that would exceed `s` original vertices per community.
    pub fn with_max_community_size(mut self, s: usize) -> Self {
        self.max_community_size = Some(s);
        self
    }

    #[must_use]
    /// Records every level map for dendrogram reconstruction.
    pub fn with_recorded_levels(mut self) -> Self {
        self.record_levels = true;
        self
    }

    #[must_use]
    /// Sets the runtime invariant-guard level.
    pub fn with_paranoia(mut self, p: Paranoia) -> Self {
        self.paranoia = p;
        self
    }

    #[must_use]
    /// Overrides the matcher watchdog's round cap.
    pub fn with_max_match_rounds(mut self, n: usize) -> Self {
        self.max_match_rounds = Some(n);
        self
    }

    #[must_use]
    /// Enables or disables cross-level scratch-arena reuse (on by
    /// default; `false` is the fresh-allocation ablation arm).
    pub fn with_scratch_reuse(mut self, on: bool) -> Self {
        self.reuse_scratch = on;
        self
    }

    #[must_use]
    /// Replaces the resource budget (see [`Budget`]).
    pub fn with_budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    #[must_use]
    /// Enables or disables WCC-sharded detection (off by default): the
    /// detect entry points decompose the graph into connected components,
    /// run them concurrently on warm per-worker engines, and merge the
    /// results deterministically (see [`crate::shard`]).
    pub fn with_sharding(mut self, on: bool) -> Self {
        self.sharding = on;
        self
    }

    /// Checks the configuration for values that would make detection
    /// meaningless or non-terminating, so bad CLI/API input fails up front
    /// with a [`PcdError::Config`] instead of looping or panicking deep in
    /// a kernel.
    pub fn validate(&self) -> Result<(), PcdError> {
        if let Some(f) = self.coverage_stop {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(PcdError::config(format!(
                    "coverage threshold {f} must be a finite fraction in [0, 1]"
                )));
            }
        }
        if self.max_community_size == Some(0) {
            return Err(PcdError::config(
                "max community size 0 would forbid every merge; use at least 1",
            ));
        }
        if self.max_match_rounds == Some(0) {
            return Err(PcdError::config(
                "max match rounds 0 would disable parallel matching entirely; \
                 use at least 1",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_improved_kernels() {
        let c = Config::default();
        assert_eq!(c.scorer, ScorerKind::Modularity);
        assert_eq!(c.matcher, MatcherKind::UnmatchedList);
        assert_eq!(c.contractor, ContractorKind::Radix);
        assert_eq!(c.coverage_stop, None);
        assert!(!c.budget.is_armed());
    }

    #[test]
    fn budget_rides_the_builder_and_validates() {
        let c = Config::default().with_budget(Budget::unarmed().with_max_levels(2).strict());
        assert!(c.budget.is_armed());
        assert!(c.budget.strict);
        assert_eq!(c.budget.max_levels, Some(2));
        // Any budget — even max_levels 0 (return singletons) — is valid.
        assert!(c.validate().is_ok());
        assert!(Config::default()
            .with_budget(Budget::unarmed().with_max_levels(0))
            .validate()
            .is_ok());
    }

    #[test]
    fn paper_performance_sets_coverage() {
        let c = Config::paper_performance();
        assert_eq!(c.coverage_stop, Some(0.5));
    }

    #[test]
    fn validate_accepts_defaults_and_presets() {
        assert!(Config::default().validate().is_ok());
        assert!(Config::paper_performance().validate().is_ok());
        assert!(Config::legacy_2011().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_coverage() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let c = Config::default().with_coverage_stop(bad);
            let err = c.validate().unwrap_err();
            assert!(err.to_string().contains("coverage"), "{err}");
        }
    }

    #[test]
    fn validate_rejects_zero_knobs() {
        assert!(Config::default()
            .with_max_community_size(0)
            .validate()
            .is_err());
        assert!(Config::default()
            .with_max_match_rounds(0)
            .validate()
            .is_err());
        assert!(Config::default()
            .with_max_match_rounds(1)
            .validate()
            .is_ok());
    }

    #[test]
    fn paranoia_parses_and_orders() {
        assert_eq!("off".parse::<Paranoia>().unwrap(), Paranoia::Off);
        assert_eq!("cheap".parse::<Paranoia>().unwrap(), Paranoia::Cheap);
        assert_eq!("full".parse::<Paranoia>().unwrap(), Paranoia::Full);
        assert!("loud".parse::<Paranoia>().is_err());
        assert!(Paranoia::Full > Paranoia::Cheap);
        assert!(Paranoia::Cheap > Paranoia::Off);
        assert_eq!(Paranoia::default(), Paranoia::Off);
    }

    #[test]
    fn legacy_2011_selects_the_2011_kernels() {
        let c = Config::legacy_2011();
        assert_eq!(c.scorer, ScorerKind::Modularity);
        assert_eq!(c.matcher, MatcherKind::EdgeSweep);
        assert_eq!(c.contractor, ContractorKind::Linked);
    }

    /// Checks one kind enum's registry: `slot` is an exhaustive `match`
    /// giving each variant its index in `ALL`, and `variants` is the number
    /// of its arms. A new variant does not compile until it has an arm,
    /// and then fails here until `ALL` lists it exactly once.
    fn check_kind_registry<K>(
        all: &[K],
        variants: usize,
        slot: fn(K) -> usize,
        name: fn(K) -> &'static str,
        description: fn(K) -> &'static str,
    ) where
        K: Copy + PartialEq + std::fmt::Debug + std::str::FromStr<Err = PcdError>,
    {
        let mut seen = vec![0; variants];
        for &k in all {
            seen[slot(k)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "ALL lists {seen:?} per variant"
        );
        for (i, &k) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|&other| name(other) != name(k)),
                "duplicate kernel name {}",
                name(k)
            );
            assert_eq!(name(k).parse::<K>().unwrap(), k, "{k:?}");
            let desc = description(k);
            assert!(!desc.is_empty() && !desc.contains('\n'), "{k:?}: {desc:?}");
        }
        let err = "nope".parse::<K>().unwrap_err();
        assert!(matches!(err, PcdError::Config { .. }), "{err:?}");
        assert!(err.to_string().contains("unknown"), "{err}");
        assert!(err.to_string().contains("'nope'"), "{err}");
        for &k in all {
            assert!(err.to_string().contains(name(k)), "{err}");
        }
    }

    #[test]
    fn scorer_registry_is_complete_and_round_trips() {
        check_kind_registry(
            &ScorerKind::ALL,
            2,
            |k| match k {
                ScorerKind::Modularity => 0,
                ScorerKind::Conductance => 1,
            },
            ScorerKind::name,
            ScorerKind::description,
        );
        assert_eq!(ScorerKind::ALL[0], ScorerKind::default());
    }

    #[test]
    fn matcher_registry_is_complete_and_round_trips() {
        check_kind_registry(
            &MatcherKind::ALL,
            4,
            |k| match k {
                MatcherKind::UnmatchedList => 0,
                MatcherKind::EdgeSweep => 1,
                MatcherKind::Sequential => 2,
                MatcherKind::LouvainMove => 3,
            },
            MatcherKind::name,
            MatcherKind::description,
        );
        assert_eq!(MatcherKind::ALL[0], MatcherKind::default());
    }

    #[test]
    fn contractor_registry_is_complete_and_round_trips() {
        check_kind_registry(
            &ContractorKind::ALL,
            5,
            |k| match k {
                ContractorKind::Radix => 0,
                ContractorKind::Bucket => 1,
                ContractorKind::BucketFetchAdd => 2,
                ContractorKind::Linked => 3,
                ContractorKind::Sequential => 4,
            },
            ContractorKind::name,
            ContractorKind::description,
        );
        assert_eq!(ContractorKind::ALL[0], ContractorKind::default());
    }

    #[test]
    fn unknown_kind_errors_name_the_phase() {
        // A matcher and a contractor may share a name ("sequential"), so
        // each phase resolves against its own list.
        assert_eq!(
            "sequential".parse::<MatcherKind>().unwrap(),
            MatcherKind::Sequential
        );
        assert_eq!(
            "sequential".parse::<ContractorKind>().unwrap(),
            ContractorKind::Sequential
        );
        let err = "bucket".parse::<MatcherKind>().unwrap_err().to_string();
        assert!(err.contains("unknown matcher 'bucket'"), "{err}");
        let err = "louvain".parse::<ContractorKind>().unwrap_err().to_string();
        assert!(err.contains("unknown contractor 'louvain'"), "{err}");
        let err = "heavy".parse::<ScorerKind>().unwrap_err().to_string();
        assert!(err.contains("unknown scorer 'heavy'"), "{err}");
    }

    #[test]
    fn round_cap_formula() {
        assert_eq!(default_match_round_cap(0), 64);
        assert_eq!(default_match_round_cap(1), 64);
        assert_eq!(default_match_round_cap(2), 68);
        assert_eq!(default_match_round_cap(1024), 104);
        assert_eq!(default_match_round_cap(1025), 108);
    }

    #[test]
    fn builder_chain() {
        let c = Config::default()
            .with_scorer(ScorerKind::Conductance)
            .with_matcher(MatcherKind::Sequential)
            .with_contractor(ContractorKind::Linked)
            .with_coverage_stop(0.7)
            .with_max_community_size(100);
        assert_eq!(c.scorer, ScorerKind::Conductance);
        assert_eq!(c.max_community_size, Some(100));
        assert_eq!(c.coverage_stop, Some(0.7));
    }

    #[test]
    fn sharding_rides_the_builder() {
        assert!(!Config::default().sharding);
        let c = Config::default()
            .with_sharding(true)
            .with_contractor(ContractorKind::Radix);
        assert!(c.sharding);
        assert!(c.validate().is_ok());
        assert!(!c.with_sharding(false).sharding);
    }
}
