//! Typed metrics registry.
//!
//! Series are registered up front (allocating their storage once) and then
//! updated through copy-sized handles: [`Registry::inc`], [`Registry::set`],
//! and [`Registry::observe`] are plain index writes with no allocation, so
//! they are safe to call from the steady-state level loop. Exporters walk
//! the registry read-only after the run.
//!
//! Naming follows Prometheus conventions: metric names match
//! `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names match `[a-zA-Z_][a-zA-Z0-9_]*`
//! and may not start with `__`. Labels are sorted by key at registration so
//! series identity and export order are independent of caller order.

use std::fmt;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// The three metric types in `parcomm-metrics-v1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing `u64`.
    Counter,
    /// Last-written `f64`.
    Gauge,
    /// Fixed-bucket distribution with sum and count.
    Histogram,
}

impl MetricKind {
    /// Stable lower-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared identity of one series: family name plus sorted labels.
#[derive(Debug, Clone, PartialEq)]
struct SeriesMeta {
    name: String,
    labels: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
}

#[derive(Debug, Clone)]
struct Counter {
    meta: SeriesMeta,
    value: u64,
}

#[derive(Debug, Clone)]
struct Gauge {
    meta: SeriesMeta,
    value: f64,
}

#[derive(Debug, Clone)]
struct Histogram {
    meta: SeriesMeta,
    /// Finite, strictly increasing upper bounds; the implicit final bucket
    /// is `+Inf`.
    bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts, `bounds.len() + 1` entries (the
    /// last is the `+Inf` overflow bucket).
    buckets: Vec<u64>,
    sum: f64,
    count: u64,
}

/// Read-only view of a counter series, for exporters and tests.
#[derive(Debug, Clone, Copy)]
pub struct CounterView<'a> {
    /// Family name.
    pub name: &'a str,
    /// Labels sorted by key.
    pub labels: &'a [(String, String)],
    /// Current value.
    pub value: u64,
}

/// Read-only view of a gauge series.
#[derive(Debug, Clone, Copy)]
pub struct GaugeView<'a> {
    /// Family name.
    pub name: &'a str,
    /// Labels sorted by key.
    pub labels: &'a [(String, String)],
    /// Last value written (`0.0` if never set).
    pub value: f64,
}

/// Read-only view of a histogram series.
#[derive(Debug, Clone, Copy)]
pub struct HistogramView<'a> {
    /// Family name.
    pub name: &'a str,
    /// Labels sorted by key.
    pub labels: &'a [(String, String)],
    /// Finite upper bounds; the final `+Inf` bucket is implicit.
    pub bounds: &'a [f64],
    /// Non-cumulative counts, one per bound plus the `+Inf` bucket.
    pub buckets: &'a [u64],
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observed values.
    pub count: u64,
}

/// Read-only view of one family (HELP/TYPE line), in first-registration
/// order.
#[derive(Debug, Clone, Copy)]
pub struct FamilyView<'a> {
    /// Family name.
    pub name: &'a str,
    /// Help text.
    pub help: &'a str,
    /// Metric type of every series in the family.
    pub kind: MetricKind,
}

/// A registry of counters, gauges, and histograms. Registration allocates;
/// updates through handles never do.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Vec<Family>,
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
    dropped_observations: u64,
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| {
            assert!(is_valid_label_name(k), "invalid label name {k:?}");
            ((*k).to_string(), (*v).to_string())
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    for pair in out.windows(2) {
        assert!(
            pair[0].0 != pair[1].0,
            "duplicate label key {:?}",
            pair[0].0
        );
    }
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn intern_family(&mut self, name: &str, help: &str, kind: MetricKind) {
        assert!(is_valid_metric_name(name), "invalid metric name {name:?}");
        if let Some(fam) = self.families.iter().find(|f| f.name == name) {
            assert!(
                fam.kind == kind,
                "metric {name:?} already registered as {} (requested {})",
                fam.kind,
                kind
            );
        } else {
            self.families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
            });
        }
    }

    /// Registers (or finds) the counter series `name{labels}`.
    /// Re-registering the exact series returns the existing handle.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        self.intern_family(name, help, MetricKind::Counter);
        let meta = SeriesMeta {
            name: name.to_string(),
            labels: sorted_labels(labels),
        };
        if let Some(i) = self.counters.iter().position(|c| c.meta == meta) {
            return CounterId(i);
        }
        self.counters.push(Counter { meta, value: 0 });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) the gauge series `name{labels}`.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        self.intern_family(name, help, MetricKind::Gauge);
        let meta = SeriesMeta {
            name: name.to_string(),
            labels: sorted_labels(labels),
        };
        if let Some(i) = self.gauges.iter().position(|g| g.meta == meta) {
            return GaugeId(i);
        }
        self.gauges.push(Gauge { meta, value: 0.0 });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) the histogram series `name{labels}` with the
    /// given finite, strictly increasing bucket upper bounds. A final
    /// `+Inf` bucket is implicit. Re-registering the exact series requires
    /// identical bounds.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramId {
        self.intern_family(name, help, MetricKind::Histogram);
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram {name:?} has a non-finite bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds not strictly increasing"
        );
        let meta = SeriesMeta {
            name: name.to_string(),
            labels: sorted_labels(labels),
        };
        if let Some(i) = self.histograms.iter().position(|h| h.meta == meta) {
            assert!(
                self.histograms[i].bounds == bounds,
                "histogram {name:?} re-registered with different bounds"
            );
            return HistogramId(i);
        }
        self.histograms.push(Histogram {
            meta,
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `by` to a counter. Index write; never allocates.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Sets a gauge. Index write; never allocates.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Records `value` into a histogram. Non-finite values are dropped
    /// (counted in [`Registry::dropped_observations`]) so no NaN/Inf can
    /// reach an exporter. Index writes; never allocates.
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        if !value.is_finite() {
            self.dropped_observations += 1;
            return;
        }
        let h = &mut self.histograms[id.0];
        let idx = h.bounds.partition_point(|b| value > *b);
        h.buckets[idx] += 1;
        h.sum += value;
        h.count += 1;
    }

    /// Current value of a counter.
    #[cfg(test)]
    fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Current value of a gauge.
    #[cfg(test)]
    fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].value
    }

    /// Total count of a histogram.
    #[cfg(test)]
    fn histogram_count(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].count
    }

    /// Non-finite values rejected by [`Registry::observe`].
    pub fn dropped_observations(&self) -> u64 {
        self.dropped_observations
    }

    /// Families in first-registration order (exporters emit HELP/TYPE in
    /// this order).
    pub fn families(&self) -> impl Iterator<Item = FamilyView<'_>> {
        self.families.iter().map(|f| FamilyView {
            name: &f.name,
            help: &f.help,
            kind: f.kind,
        })
    }

    /// Counter series of `name`, in registration order.
    pub fn counters_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = CounterView<'a>> {
        self.counters
            .iter()
            .filter(move |c| c.meta.name == name)
            .map(|c| CounterView {
                name: &c.meta.name,
                labels: &c.meta.labels,
                value: c.value,
            })
    }

    /// Gauge series of `name`, in registration order.
    pub fn gauges_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = GaugeView<'a>> {
        self.gauges
            .iter()
            .filter(move |g| g.meta.name == name)
            .map(|g| GaugeView {
                name: &g.meta.name,
                labels: &g.meta.labels,
                value: g.value,
            })
    }

    /// Histogram series of `name`, in registration order.
    pub fn histograms_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = HistogramView<'a>> {
        self.histograms
            .iter()
            .filter(move |h| h.meta.name == name)
            .map(|h| HistogramView {
                name: &h.meta.name,
                labels: &h.meta.labels,
                bounds: &h.bounds,
                buckets: &h.buckets,
                sum: h.sum,
                count: h.count,
            })
    }

    /// Folds another registry into this one, registering any series this
    /// registry lacks. Counters and histogram buckets add; gauges take
    /// `other`'s value (last writer wins). Merging registries produced by
    /// per-graph observers in input order yields a deterministic result for
    /// deterministic counters regardless of the thread pool that ran the
    /// graphs.
    pub fn merge_from(&mut self, other: &Registry) {
        for fam in &other.families {
            self.intern_family(&fam.name, &fam.help, fam.kind);
        }
        for c in &other.counters {
            let labels: Vec<(&str, &str)> = c
                .meta
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let fam_help = Self::family_help(&other.families, &c.meta.name);
            let id = self.counter(&c.meta.name, fam_help, &labels);
            self.inc(id, c.value);
        }
        for g in &other.gauges {
            let labels: Vec<(&str, &str)> = g
                .meta
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let fam_help = Self::family_help(&other.families, &g.meta.name);
            let id = self.gauge(&g.meta.name, fam_help, &labels);
            self.set(id, g.value);
        }
        for h in &other.histograms {
            let labels: Vec<(&str, &str)> = h
                .meta
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let fam_help = Self::family_help(&other.families, &h.meta.name);
            let id = self.histogram(&h.meta.name, fam_help, &labels, &h.bounds);
            let mine = &mut self.histograms[id.0];
            for (b, add) in mine.buckets.iter_mut().zip(&h.buckets) {
                *b += add;
            }
            mine.sum += h.sum;
            mine.count += h.count;
        }
        self.dropped_observations += other.dropped_observations;
    }

    fn family_help<'a>(families: &'a [Family], name: &str) -> &'a str {
        families
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.help.as_str())
            .unwrap_or("")
    }
}

/// Powers-of-ten histogram bounds: `10^min_exp ..= 10^max_exp`, one bound
/// per decade. `decade_bounds(-6, 2)` covers microseconds to a hundred
/// seconds — the per-phase latency range on the paper's inputs.
pub fn decade_bounds(min_exp: i32, max_exp: i32) -> Vec<f64> {
    assert!(min_exp <= max_exp, "decade_bounds: empty range");
    (min_exp..=max_exp).map(|e| 10f64.powi(e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registration_and_updates() {
        let mut reg = Registry::new();
        let a = reg.counter("pcd_levels_total", "levels completed", &[]);
        let b = reg.counter("pcd_levels_total", "levels completed", &[]);
        assert_eq!(a, b, "re-registering the same series returns the handle");
        reg.inc(a, 3);
        reg.inc(b, 2);
        assert_eq!(reg.counter_value(a), 5);
    }

    #[test]
    fn labels_sort_by_key_at_registration() {
        let mut reg = Registry::new();
        let a = reg.counter("m", "", &[("zeta", "1"), ("alpha", "2")]);
        let b = reg.counter("m", "", &[("alpha", "2"), ("zeta", "1")]);
        assert_eq!(a, b, "label order must not affect series identity");
        let view = reg.counters_of("m").next().unwrap();
        assert_eq!(view.labels[0].0, "alpha");
        assert_eq!(view.labels[1].0, "zeta");
    }

    #[test]
    fn histogram_buckets_and_infinity_overflow() {
        let mut reg = Registry::new();
        let h = reg.histogram("lat", "", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            reg.observe(h, v);
        }
        let view = reg.histograms_of("lat").next().unwrap();
        assert_eq!(view.buckets, &[1, 2, 1, 1], "last bucket is +Inf overflow");
        assert_eq!(view.count, 5);
        assert!((view.sum - 56.05).abs() < 1e-9);
    }

    #[test]
    fn observe_drops_non_finite() {
        let mut reg = Registry::new();
        let h = reg.histogram("lat", "", &[], &[1.0]);
        reg.observe(h, f64::NAN);
        reg.observe(h, f64::INFINITY);
        reg.observe(h, f64::NEG_INFINITY);
        reg.observe(h, 0.5);
        assert_eq!(reg.histogram_count(h), 1);
        assert_eq!(reg.dropped_observations(), 3);
    }

    #[test]
    fn boundary_value_lands_in_its_bucket() {
        // Prometheus buckets are `le` (less-or-equal): an observation equal
        // to a bound belongs to that bound's bucket.
        let mut reg = Registry::new();
        let h = reg.histogram("lat", "", &[], &[1.0, 2.0]);
        reg.observe(h, 1.0);
        reg.observe(h, 2.0);
        let view = reg.histograms_of("lat").next().unwrap();
        assert_eq!(view.buckets, &[1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let mut reg = Registry::new();
        reg.counter("m", "", &[]);
        reg.gauge("m", "", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let mut reg = Registry::new();
        reg.counter("9starts_with_digit", "", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn reserved_label_panics() {
        let mut reg = Registry::new();
        reg.counter("m", "", &[("__reserved", "x")]);
    }

    #[test]
    fn merge_adds_counters_and_buckets_gauges_last_wins() {
        let mut a = Registry::new();
        let ca = a.counter("runs", "", &[]);
        let ga = a.gauge("mod", "", &[]);
        let ha = a.histogram("lat", "", &[], &[1.0]);
        a.inc(ca, 2);
        a.set(ga, 0.25);
        a.observe(ha, 0.5);

        let mut b = Registry::new();
        let cb = b.counter("runs", "", &[]);
        let gb = b.gauge("mod", "", &[]);
        let hb = b.histogram("lat", "", &[], &[1.0]);
        let only_b = b.counter("extra", "", &[("k", "v")]);
        b.inc(cb, 3);
        b.set(gb, 0.75);
        b.observe(hb, 2.0);
        b.inc(only_b, 7);

        a.merge_from(&b);
        assert_eq!(a.counter_value(ca), 5);
        assert_eq!(a.gauge_value(ga), 0.75, "gauge takes the merged-in value");
        let view = a.histograms_of("lat").next().unwrap();
        assert_eq!(view.buckets, &[1, 1]);
        assert_eq!(view.count, 2);
        let extra = a.counters_of("extra").next().unwrap();
        assert_eq!(extra.value, 7, "missing series are created by merge");
    }

    #[test]
    fn merge_is_deterministic_over_input_order() {
        let make = |runs: u64, modularity: f64| {
            let mut r = Registry::new();
            let c = r.counter("runs", "", &[]);
            r.inc(c, runs);
            let g = r.gauge("mod", "", &[]);
            r.set(g, modularity);
            r
        };
        let parts = [make(1, 0.1), make(2, 0.2), make(3, 0.3)];
        let mut merged = Registry::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.counters_of("runs").next().unwrap().value, 6);
        assert_eq!(merged.gauges_of("mod").next().unwrap().value, 0.3);
    }

    #[test]
    fn decade_bounds_cover_the_range() {
        let b = decade_bounds(-2, 1);
        assert_eq!(b, vec![0.01, 0.1, 1.0, 10.0]);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn families_keep_first_registration_order() {
        let mut reg = Registry::new();
        reg.counter("z_first", "", &[]);
        reg.gauge("a_second", "", &[]);
        let names: Vec<&str> = reg.families().map(|f| f.name).collect();
        assert_eq!(names, vec!["z_first", "a_second"]);
    }
}
