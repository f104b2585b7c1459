//! Observability: a std-only metrics registry and span tracer.
//!
//! Without it the engine is fast but silent: partition reads nobody
//! counts, a pool stealing work nobody sees, and a serve daemon shedding
//! load it never counts. This module is the one place all of that
//! surfaces, under two hard constraints:
//!
//! * **No dependencies.** Counters, gauges and fixed-bucket histograms
//!   are plain atomics; the Prometheus text exposition is hand-rendered.
//! * **Observation only.** Nothing here may influence results. Metrics
//!   are written with relaxed atomics off the decision path, and span
//!   recording happens at phase boundaries — the property suite asserts
//!   byte-identical reports with tracing on and off, at every thread
//!   count.
//!
//! The hot path is lock-free: a handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) is an `Arc` around atomics, resolved once at
//! registration and cloned into whatever needs it (an [`super::Exec`],
//! a server loop). The registry's mutex is touched only at registration
//! and render time.
//!
//! Spans are the per-run complement: a [`Tracer`] (attached to an
//! [`super::Exec`] via [`super::Exec::with_tracer`]) accumulates named,
//! microsecond-resolution [`Span`]s which serialize to JSONL for the
//! `--trace-out` flag. A run without a tracer pays one branch per span
//! site.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use super::BudgetKind;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bucket bounds are upper bounds (`le`); an
/// implicit `+Inf` bucket catches the tail. Observations also feed a sum
/// (kept in integer microseconds so it stays a lock-free atomic — callers
/// observe seconds, as Prometheus latency conventions expect) and a count.
#[derive(Debug)]
pub struct Histogram {
    uppers: Vec<f64>,
    counts: Vec<AtomicU64>,
    sum_micros: AtomicU64,
    total: AtomicU64,
}

/// Default latency buckets in seconds, spanning sub-millisecond cache
/// hits to the 10 s default request deadline.
pub const LATENCY_BUCKETS: &[f64] = &[0.001, 0.005, 0.025, 0.1, 0.25, 1.0, 2.5, 5.0, 10.0];

impl Histogram {
    fn new(uppers: &[f64]) -> Self {
        Histogram {
            uppers: uppers.to_vec(),
            counts: (0..=uppers.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .uppers
            .iter()
            .position(|&u| v <= u)
            .unwrap_or(self.uppers.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        if v > 0.0 {
            self.sum_micros
                .fetch_add((v * 1e6).round() as u64, Ordering::Relaxed);
        }
    }

    /// Record a duration, in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A registry of labeled metric families rendering to Prometheus text
/// exposition format. Registration interns on `(name, labels)`: asking
/// for the same series twice returns the same handle, so call sites
/// never need to coordinate. The internal mutex guards registration and
/// rendering only — never the increments themselves.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Family>> {
        // Registration and rendering never panic while holding the lock;
        // recover the data regardless so metrics can't wedge a server.
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn series_slot<'a>(
        families: &'a mut Vec<Family>,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> (&'a mut Family, Option<usize>, Vec<(String, String)>) {
        let fi = match families.iter().position(|f| f.name == name) {
            Some(i) => i,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    series: Vec::new(),
                });
                families.len() - 1
            }
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let si = families[fi].series.iter().position(|s| s.labels == labels);
        (&mut families[fi], si, labels)
    }

    /// Get or register a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut fams = self.lock();
        let (fam, slot, labels) = Self::series_slot(&mut fams, name, help, labels);
        if let Some(i) = slot {
            if let Metric::Counter(c) = &fam.series[i].metric {
                return c.clone();
            }
            // Kind clash: hand back a detached handle rather than corrupt
            // the exposition (observation must never panic a run).
            return Arc::new(Counter::default());
        }
        let c = Arc::new(Counter::default());
        fam.series.push(Series {
            labels,
            metric: Metric::Counter(c.clone()),
        });
        c
    }

    /// Get or register a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut fams = self.lock();
        let (fam, slot, labels) = Self::series_slot(&mut fams, name, help, labels);
        if let Some(i) = slot {
            if let Metric::Gauge(g) = &fam.series[i].metric {
                return g.clone();
            }
            return Arc::new(Gauge::default());
        }
        let g = Arc::new(Gauge::default());
        fam.series.push(Series {
            labels,
            metric: Metric::Gauge(g.clone()),
        });
        g
    }

    /// Get or register a histogram series with the given bucket upper
    /// bounds (ascending; `+Inf` is implicit).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        uppers: &[f64],
    ) -> Arc<Histogram> {
        let mut fams = self.lock();
        let (fam, slot, labels) = Self::series_slot(&mut fams, name, help, labels);
        if let Some(i) = slot {
            if let Metric::Histogram(h) = &fam.series[i].metric {
                return h.clone();
            }
            return Arc::new(Histogram::new(uppers));
        }
        let h = Arc::new(Histogram::new(uppers));
        fam.series.push(Series {
            labels,
            metric: Metric::Histogram(h.clone()),
        });
        h
    }

    /// Render every registered family in Prometheus text exposition
    /// format (version 0.0.4). Families and series appear in
    /// registration order, so consecutive scrapes are diffable.
    pub fn render(&self) -> String {
        let fams = self.lock();
        let mut out = String::new();
        for fam in fams.iter() {
            let Some(first) = fam.series.first() else {
                continue;
            };
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {} {}", fam.name, first.metric.type_name());
            for s in &fam.series {
                match &s.metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            label_block(&s.labels, None),
                            c.get()
                        );
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            label_block(&s.labels, None),
                            g.get()
                        );
                    }
                    Metric::Histogram(h) => {
                        let mut cum = 0u64;
                        for (i, upper) in h.uppers.iter().enumerate() {
                            cum += h.counts[i].load(Ordering::Relaxed);
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                fam.name,
                                label_block(&s.labels, Some(&format!("{upper}"))),
                                cum
                            );
                        }
                        cum += h.counts[h.uppers.len()].load(Ordering::Relaxed);
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            fam.name,
                            label_block(&s.labels, Some("+Inf")),
                            cum
                        );
                        let sum = h.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            fam.name,
                            label_block(&s.labels, None),
                            sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            fam.name,
                            label_block(&s.labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote and line feed.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape HELP text: backslash and line feed only.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The process-wide registry. Everything in the workspace registers
/// here, so one render covers engine and server series alike.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

fn kind_label(kind: BudgetKind) -> &'static str {
    match kind {
        BudgetKind::Deadline => "deadline",
        BudgetKind::Nodes => "nodes",
        BudgetKind::Rows => "rows",
        BudgetKind::Memory => "memory",
        BudgetKind::Cancelled => "cancelled",
    }
}

/// Pre-registered handles for the engine-side series: TANE's partition
/// reads and computations, pool scheduling, pair-generation pruning and
/// per-kind budget exhaustions. Resolved once via [`engine_metrics`]; all increments are
/// single relaxed atomic adds.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Partition reads TANE answered from the lattice levels it holds.
    pub cache_hits: Arc<Counter>,
    /// Partitions TANE computed (`π_∅`, singletons and level products).
    pub cache_misses: Arc<Counter>,
    /// Parallel batches dispatched through `pool::map`.
    pub pool_batches: Arc<Counter>,
    /// Items evaluated across all pool batches.
    pub pool_items: Arc<Counter>,
    /// Work-stealing events (a worker raided a sibling's deque).
    pub pool_steals: Arc<Counter>,
    /// Seeded per-worker queue depth of the most recent pool batch.
    pub pool_queue_depth: Arc<Gauge>,
    /// Candidate-pair index blocks enumerated.
    pub pairgen_blocks: Arc<Counter>,
    /// Candidate pairs emitted by indexes (post-blocking).
    pub pairgen_candidate_pairs: Arc<Counter>,
    /// Pairs pruned relative to the naive all-pairs scan.
    pub pairgen_pruned_pairs: Arc<Counter>,
    /// Partition products computed by the radix (counting-sort) kernel.
    pub partition_product_radix: Arc<Counter>,
    /// Partition products computed by the probe-table hash fallback.
    pub partition_product_hash: Arc<Counter>,
    /// Rows whose q-gram indexing reused an already-indexed distinct
    /// dictionary entry (distinct-value edit builds).
    pub pairgen_distinct_gram_hits: Arc<Counter>,
    budget_exhausted: [Arc<Counter>; 5],
}

impl EngineMetrics {
    fn new(reg: &Registry) -> Self {
        let exhausted = |kind: BudgetKind| {
            reg.counter(
                "deptree_budget_exhausted_total",
                "Bounded runs stopped early, by binding budget kind.",
                &[("kind", kind_label(kind))],
            )
        };
        EngineMetrics {
            cache_hits: reg.counter(
                "deptree_cache_hits_total",
                "Partition reads TANE answered from the lattice levels it holds.",
                &[],
            ),
            cache_misses: reg.counter(
                "deptree_cache_misses_total",
                "Partitions TANE computed.",
                &[],
            ),
            pool_batches: reg.counter(
                "deptree_pool_batches_total",
                "Parallel batches dispatched through the work-stealing pool.",
                &[],
            ),
            pool_items: reg.counter(
                "deptree_pool_items_total",
                "Items evaluated across all pool batches.",
                &[],
            ),
            pool_steals: reg.counter(
                "deptree_pool_steals_total",
                "Work-stealing events between pool workers.",
                &[],
            ),
            pool_queue_depth: reg.gauge(
                "deptree_pool_queue_depth",
                "Seeded per-worker queue depth of the most recent pool batch.",
                &[],
            ),
            pairgen_blocks: reg.counter(
                "deptree_pairgen_blocks_total",
                "Candidate-pair index blocks enumerated.",
                &[],
            ),
            pairgen_candidate_pairs: reg.counter(
                "deptree_pairgen_candidate_pairs_total",
                "Candidate pairs emitted by pair indexes after blocking.",
                &[],
            ),
            pairgen_pruned_pairs: reg.counter(
                "deptree_pairgen_pruned_pairs_total",
                "Pairs skipped relative to the naive all-pairs scan.",
                &[],
            ),
            partition_product_radix: reg.counter(
                "deptree_partition_product_radix_total",
                "Partition products computed by the radix (counting-sort) kernel.",
                &[],
            ),
            partition_product_hash: reg.counter(
                "deptree_partition_product_hash_total",
                "Partition products computed by the probe-table hash fallback.",
                &[],
            ),
            pairgen_distinct_gram_hits: reg.counter(
                "deptree_pairgen_distinct_gram_hits_total",
                "Rows whose q-gram indexing reused an already-indexed distinct dictionary entry.",
                &[],
            ),
            budget_exhausted: [
                exhausted(BudgetKind::Deadline),
                exhausted(BudgetKind::Nodes),
                exhausted(BudgetKind::Rows),
                exhausted(BudgetKind::Memory),
                exhausted(BudgetKind::Cancelled),
            ],
        }
    }

    /// The exhaustion counter for one budget kind.
    pub fn budget_exhausted(&self, kind: BudgetKind) -> &Counter {
        let idx = match kind {
            BudgetKind::Deadline => 0,
            BudgetKind::Nodes => 1,
            BudgetKind::Rows => 2,
            BudgetKind::Memory => 3,
            BudgetKind::Cancelled => 4,
        };
        &self.budget_exhausted[idx]
    }
}

/// The engine's pre-registered metric handles, registered in the global
/// [`registry`] on first use.
pub fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics::new(registry()))
}

/// One recorded span: a named phase with microsecond start offset (from
/// tracer creation) and duration, plus numeric attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name, dotted (`"tane.level"`, `"profile.fastdc"`).
    pub name: String,
    /// Microseconds from tracer creation to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Numeric attributes (`("level", 3)`, `("granted", 128)`).
    pub attrs: Vec<(&'static str, u64)>,
}

/// A per-run span accumulator. Attach to an [`super::Exec`] with
/// [`super::Exec::with_tracer`]; open spans with [`super::Exec::span`].
/// Recording happens on guard drop under a mutex — spans mark phase
/// boundaries, not per-node events, so contention is nil.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose span offsets count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, name: &str, started: Instant, dur: Duration, attrs: Vec<(&'static str, u64)>) {
        let start_us = started
            .checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_micros() as u64;
        let span = Span {
            name: name.to_string(),
            start_us,
            dur_us: dur.as_micros() as u64,
            attrs,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Snapshot the recorded spans, ordered by start offset (ties by
    /// name) so output is stable regardless of which thread finished a
    /// span first.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by(|a, b| (a.start_us, &a.name).cmp(&(b.start_us, &b.name)));
        spans
    }

    /// Serialize the recorded spans as JSON Lines: one object per span
    /// with `name`, `start_us`, `dur_us` and the attributes inlined.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{}",
                escape_json(&s.name),
                s.start_us,
                s.dur_us
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ",\"{}\":{}", escape_json(k), v);
            }
            out.push_str("}\n");
        }
        out
    }
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// RAII span: created by [`super::Exec::span`], records itself into the
/// tracer on drop. When the run has no tracer every method is a no-op —
/// span sites cost one branch.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    name: &'static str,
    started: Instant,
    attrs: Vec<(&'static str, u64)>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn new(tracer: Option<&'a Tracer>, name: &'static str) -> Self {
        SpanGuard {
            tracer,
            name,
            started: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Attach a numeric attribute to the span.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.tracer.is_some() {
            self.attrs.push((key, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.record(
                self.name,
                self.started,
                self.started.elapsed(),
                std::mem::take(&mut self.attrs),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "help", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("t_gauge", "help", &[]);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn interning_returns_the_same_series() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "help", &[("route", "/v1/task")]);
        let b = reg.counter("x_total", "help", &[("route", "/v1/task")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // A different label set is a different series.
        let c = reg.counter("x_total", "help", &[("route", "/metrics")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        let c = reg.counter("esc_total", "with \\ and\nnewline", &[("v", "a\"b\\c\nd")]);
        c.inc();
        let text = reg.render();
        assert!(
            text.contains(r#"esc_total{v="a\"b\\c\nd"} 1"#),
            "label escaping wrong in: {text}"
        );
        assert!(
            text.contains("# HELP esc_total with \\\\ and\\nnewline"),
            "help escaping wrong in: {text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds", "help", &[], &[0.1, 1.0, 5.0]);
        for v in [0.05, 0.05, 0.5, 2.0, 100.0] {
            h.observe(v);
        }
        let text = reg.render();
        assert!(text.contains(r#"lat_seconds_bucket{le="0.1"} 2"#), "{text}");
        assert!(text.contains(r#"lat_seconds_bucket{le="1"} 3"#), "{text}");
        assert!(text.contains(r#"lat_seconds_bucket{le="5"} 4"#), "{text}");
        assert!(
            text.contains(r#"lat_seconds_bucket{le="+Inf"} 5"#),
            "{text}"
        );
        assert!(text.contains("lat_seconds_count 5"), "{text}");
        // Cumulativity as an invariant: each bucket ≥ its predecessor and
        // +Inf equals the count.
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("lat_seconds_bucket"))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse().ok())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), h.count());
    }

    #[test]
    fn counters_are_monotonic_across_scrapes() {
        let reg = Registry::new();
        let c = reg.counter("mono_total", "help", &[]);
        let value = |text: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with("mono_total "))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        c.add(3);
        let first = value(&reg.render());
        // Rendering must not reset anything.
        let second = value(&reg.render());
        c.add(2);
        let third = value(&reg.render());
        assert_eq!(first, 3);
        assert_eq!(second, 3);
        assert_eq!(third, 5);
    }

    #[test]
    fn render_orders_families_by_registration() {
        let reg = Registry::new();
        reg.counter("b_total", "second", &[]).inc();
        reg.counter("a_total", "first — registered later", &[])
            .inc();
        let text = reg.render();
        let b = text.find("b_total").unwrap();
        let a = text.find("a_total").unwrap();
        assert!(b < a, "registration order must be preserved: {text}");
    }

    #[test]
    fn engine_metrics_register_once() {
        let m1 = engine_metrics();
        let m2 = engine_metrics();
        let before = m1.cache_hits.get();
        m2.cache_hits.inc();
        assert_eq!(m1.cache_hits.get(), before + 1);
        let text = registry().render();
        assert!(text.contains("deptree_cache_hits_total"));
        assert!(text.contains(r#"deptree_budget_exhausted_total{kind="deadline"}"#));
    }

    #[test]
    fn tracer_records_and_serializes_spans() {
        let tracer = Tracer::new();
        {
            let mut g = SpanGuard::new(Some(&tracer), "phase.one");
            g.attr("items", 42);
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let _g = SpanGuard::new(Some(&tracer), "phase.two");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "phase.one");
        assert!(spans[0].dur_us >= 1000, "slept 1ms: {:?}", spans[0]);
        assert_eq!(spans[0].attrs, vec![("items", 42)]);
        let jsonl = tracer.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"phase.one\","), "{jsonl}");
        assert!(lines[0].contains("\"items\":42"), "{jsonl}");
        assert!(lines.iter().all(|l| l.ends_with('}')), "{jsonl}");
    }

    #[test]
    fn spanless_guard_is_a_no_op() {
        let mut g = SpanGuard::new(None, "ignored");
        g.attr("k", 1);
        drop(g);
    }
}
