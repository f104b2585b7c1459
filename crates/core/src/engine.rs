//! Resilient execution engine: budgets, cancellation and anytime results.
//!
//! Dependency discovery is exponential in the schema width in the worst
//! case, and the quality tasks built on top of it (repair, deduplication,
//! consistent query answering) are NP-hard even for fixed rule sets. A
//! production profiler cannot simply hope the input is friendly — it needs
//! every long-running routine to be an *anytime algorithm*: interruptible
//! at a fine grain, and able to return the **sound** portion of the work
//! done so far together with an honest account of why it stopped.
//!
//! The pieces:
//!
//! * [`Budget`] — declarative resource limits: a wall-clock deadline, a
//!   cap on candidate-lattice nodes, a cap on rows processed, and a cap
//!   on the estimated memory held in stripped partitions.
//! * [`CancelToken`] — a cheap, clonable cancellation flag (one relaxed
//!   atomic load per poll) that a driving thread, signal handler or UI can
//!   flip at any time.
//! * [`Exec`] — the per-run execution context that algorithms *tick*
//!   from their hot loops. Ticks are counters plus an occasional clock
//!   poll, so instrumentation costs nanoseconds per node. `Exec` is
//!   `Sync`: all counters are atomics, so the worker threads of the
//!   [`pool`] tick the same context concurrently and a budget exhausted
//!   by any worker stops all of them.
//! * [`Outcome`] — what every bounded entry point returns: the result,
//!   whether it is complete, which budget (if any) was exhausted, and
//!   [`EngineStats`] describing the work performed.
//! * [`pool`] — a scoped work-stealing thread pool used by the parallel
//!   discovery executors; [`Exec::threads`] carries the requested worker
//!   count through every bounded entry point.
//!
//! The contract every bounded algorithm in this workspace upholds: when
//! `complete == false`, the partial result is still **sound** — every
//! dependency reported holds on the input; every repair step applied is
//! valid — it is only *completeness* (minimality of covers, exhaustiveness
//! of search) that is forfeited.
//!
//! ## Deterministic parallel budgets
//!
//! Parallel executors must return the *same* anytime prefix at every
//! thread count. Per-candidate ticking from racing workers would make the
//! cut-off point depend on scheduling, so level-wise miners instead
//! *reserve* budget up front with [`Exec::try_reserve_nodes`] /
//! [`Exec::try_reserve_rows`]: the reservation atomically grants the
//! longest prefix of the candidate batch that fits the remaining budget,
//! the granted candidates are evaluated in parallel, and their results are
//! merged in canonical (input) order. The processed prefix — and therefore
//! the emitted dependency set — is identical to what the serial
//! tick-per-candidate loop would have processed.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod obs;
pub mod pool;
pub mod signal;

/// Which resource limit stopped a bounded run early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The candidate/search-node cap was reached.
    Nodes,
    /// The row-processing cap was reached.
    Rows,
    /// The partition-memory estimate exceeded its cap.
    Memory,
    /// The [`CancelToken`] was flipped by the caller.
    Cancelled,
}

impl BudgetKind {
    /// Dense encoding for the atomic exhaustion flag (0 = live).
    fn code(self) -> u8 {
        match self {
            BudgetKind::Deadline => 1,
            BudgetKind::Nodes => 2,
            BudgetKind::Rows => 3,
            BudgetKind::Memory => 4,
            BudgetKind::Cancelled => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(BudgetKind::Deadline),
            2 => Some(BudgetKind::Nodes),
            3 => Some(BudgetKind::Rows),
            4 => Some(BudgetKind::Memory),
            5 => Some(BudgetKind::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Deadline => "deadline",
            BudgetKind::Nodes => "node budget",
            BudgetKind::Rows => "row budget",
            BudgetKind::Memory => "memory budget",
            BudgetKind::Cancelled => "cancelled",
        })
    }
}

/// Declarative resource limits for one bounded run. All limits default to
/// "unlimited"; combine with the builder methods.
///
/// ```
/// use deptree_core::engine::Budget;
/// use std::time::Duration;
/// let b = Budget::new()
///     .with_deadline(Duration::from_millis(50))
///     .with_max_nodes(10_000);
/// assert!(b.deadline.is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit measured from [`Exec`] construction.
    pub deadline: Option<Duration>,
    /// Maximum search/lattice nodes visited.
    pub max_nodes: Option<u64>,
    /// Maximum rows processed (tuples scanned, pairs compared, …).
    pub max_rows: Option<u64>,
    /// Maximum bytes of partition state held at once (estimate).
    pub max_partition_bytes: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub fn new() -> Self {
        Budget::default()
    }

    /// Set a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Cap the number of search nodes visited.
    pub fn with_max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Cap the number of rows processed.
    pub fn with_max_rows(mut self, n: u64) -> Self {
        self.max_rows = Some(n);
        self
    }

    /// Cap the estimated partition memory held at once.
    pub fn with_max_partition_bytes(mut self, n: u64) -> Self {
        self.max_partition_bytes = Some(n);
        self
    }
}

/// Cheap cooperative cancellation: clone the token, hand one clone to the
/// running algorithm (via [`Exec::with_cancel`]) and keep the other;
/// [`CancelToken::cancel`] makes every subsequent budget poll fail with
/// [`BudgetKind::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Work counters reported with every [`Outcome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Search/lattice nodes visited.
    pub nodes_visited: u64,
    /// Rows processed (tuples scanned, pairs compared, …).
    pub rows_processed: u64,
    /// Peak estimated partition memory held at once, in bytes.
    pub partition_bytes_peak: u64,
    /// Wall-clock time from `Exec` construction to `finish`.
    pub elapsed: Duration,
}

/// The result of a bounded run: the (possibly partial, always sound)
/// result plus an honest account of whether and why the run stopped early.
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    /// The result. When `complete` is false this is the sound prefix of
    /// the full answer, not an approximation of it.
    pub result: T,
    /// True iff the run finished exhaustively.
    pub complete: bool,
    /// Which budget stopped the run, when `complete` is false.
    pub exhausted: Option<BudgetKind>,
    /// Work performed.
    pub stats: EngineStats,
}

impl<T> Outcome<T> {
    /// Map the result, preserving completeness and stats.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            result: f(self.result),
            complete: self.complete,
            exhausted: self.exhausted,
            stats: self.stats,
        }
    }
}

/// How many ticks pass between clock/cancellation polls. Counter limits
/// are checked on every tick (they are just integer compares); the
/// deadline requires `Instant::now()` and the cancel flag an atomic load,
/// so those are amortized over this many ticks. The interval bounds how
/// far a run can overshoot its deadline — one interval of node work —
/// so it is kept small relative to per-node cost (a clock read is tens
/// of nanoseconds; a node visit is microseconds).
const POLL_INTERVAL: u64 = 16;

/// Environment variable consulted for the default worker-thread count.
pub const THREADS_ENV: &str = "DEPTREE_THREADS";

/// Default number of worker threads: `DEPTREE_THREADS` when set to a
/// positive integer, otherwise 1 (serial). The conservative default keeps
/// single-machine runs deterministic-by-default and lets CI gate both
/// modes by exporting the variable.
pub fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Per-run execution context. Cheap to construct. All counters are
/// atomics, so `Exec` is `Sync` and one context can be shared by every
/// worker of a parallel run: any worker exhausting a budget stops all of
/// them, and counters aggregate across threads.
///
/// Hot-loop protocol:
///
/// ```
/// use deptree_core::engine::{Budget, Exec};
/// let exec = Exec::new(Budget::new().with_max_nodes(100));
/// let mut visited = 0u64;
/// loop {
///     if !exec.tick_node() {
///         break; // budget exhausted — wind down, return sound prefix
///     }
///     visited += 1;
/// }
/// let outcome = exec.finish(visited);
/// assert!(!outcome.complete);
/// assert_eq!(outcome.result, 100);
/// ```
#[derive(Debug)]
pub struct Exec {
    budget: Budget,
    cancel: CancelToken,
    start: Instant,
    threads: usize,
    nodes: AtomicU64,
    rows: AtomicU64,
    partition_bytes: AtomicU64,
    partition_peak: AtomicU64,
    since_poll: AtomicU64,
    exhausted: AtomicU8,
    tracer: Option<Arc<obs::Tracer>>,
}

impl Default for Exec {
    fn default() -> Self {
        Exec::unbounded()
    }
}

impl Exec {
    /// Context with the given budget and a private cancel token.
    pub fn new(budget: Budget) -> Self {
        Exec::with_cancel(budget, CancelToken::new())
    }

    /// Context with the given budget observing an external cancel token.
    pub fn with_cancel(budget: Budget, cancel: CancelToken) -> Self {
        Exec {
            budget,
            cancel,
            start: Instant::now(),
            threads: default_threads(),
            nodes: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            partition_bytes: AtomicU64::new(0),
            partition_peak: AtomicU64::new(0),
            since_poll: AtomicU64::new(0),
            exhausted: AtomicU8::new(0),
            tracer: None,
        }
    }

    /// Context with no limits — bounded entry points run to completion.
    pub fn unbounded() -> Self {
        Exec::new(Budget::new())
    }

    /// Set the worker-thread count for parallel discovery executors.
    /// Clamped to at least 1; 1 means fully serial execution.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Worker threads parallel executors should use (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attach a span tracer. Tracing is observation-only: algorithms
    /// record phase boundaries into it but never read it back, so an
    /// attached tracer cannot change any result byte.
    pub fn with_tracer(mut self, tracer: Arc<obs::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<obs::Tracer>> {
        self.tracer.as_ref()
    }

    /// Open a named span. With no tracer attached this is a no-op guard
    /// costing one branch, so phase boundaries can be instrumented
    /// unconditionally.
    pub fn span(&self, name: &'static str) -> obs::SpanGuard<'_> {
        obs::SpanGuard::new(self.tracer.as_deref(), name)
    }

    /// The budget this context enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Which budget has been exhausted, if any. Sticky: once set it stays
    /// set, so partial-result wind-down code can re-check freely.
    pub fn exhausted(&self) -> Option<BudgetKind> {
        BudgetKind::from_code(self.exhausted.load(Ordering::Relaxed))
    }

    /// True while no budget has been exhausted.
    pub fn is_live(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed) == 0
    }

    /// Record one search-node visit; returns false when the run must stop.
    #[inline]
    pub fn tick_node(&self) -> bool {
        let now = self.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.budget.max_nodes {
            if now > max {
                self.exhaust(BudgetKind::Nodes);
                return false;
            }
        }
        self.tick()
    }

    /// Record `n` rows processed; returns false when the run must stop.
    #[inline]
    pub fn tick_rows(&self, n: u64) -> bool {
        let now = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.budget.max_rows {
            if now > max {
                self.exhaust(BudgetKind::Rows);
                return false;
            }
        }
        self.tick()
    }

    /// Atomically reserve up to `want` node visits, granting the longest
    /// prefix the node budget still allows. When fewer than `want` are
    /// granted the node budget is marked exhausted, mirroring what `want`
    /// sequential [`Exec::tick_node`] calls would have done. A failed
    /// deadline/cancellation poll grants zero.
    ///
    /// This is the primitive behind deterministic parallel budgets: a
    /// level-wise miner reserves a whole candidate batch, evaluates
    /// exactly the granted prefix in parallel and merges in input order,
    /// so the processed set matches the serial path bit for bit.
    pub fn try_reserve_nodes(&self, want: u64) -> u64 {
        if !self.poll() {
            return 0;
        }
        let granted = Self::reserve_counter(&self.nodes, self.budget.max_nodes, want);
        if granted < want {
            self.exhaust(BudgetKind::Nodes);
        }
        granted
    }

    /// Atomically reserve up to `want` row ticks; the row-budget analogue
    /// of [`Exec::try_reserve_nodes`], with the same exhaustion contract.
    pub fn try_reserve_rows(&self, want: u64) -> u64 {
        if !self.poll() {
            return 0;
        }
        let granted = Self::reserve_counter(&self.rows, self.budget.max_rows, want);
        if granted < want {
            self.exhaust(BudgetKind::Rows);
        }
        granted
    }

    /// Reserve up to `want` candidates that each cost one node tick plus
    /// `rows_per_item` row ticks — the shape of a level-wise miner's
    /// candidate loop (`tick_node() && tick_rows(k)` per candidate). The
    /// grant is the longest candidate prefix BOTH budgets allow, exactly
    /// where the serial tick-per-candidate loop would have stopped; a
    /// short grant marks the binding budget(s) exhausted, node budget
    /// first to mirror the serial short-circuit order.
    ///
    /// The two single-budget reservations cannot be composed for this
    /// (`try_reserve_nodes` then `try_reserve_rows`): the first short
    /// grant marks the run exhausted, making the second reservation
    /// return zero instead of its own prefix.
    pub fn try_reserve_batch(&self, want: u64, rows_per_item: u64) -> u64 {
        if !self.poll() {
            return 0;
        }
        let by_nodes = Self::reserve_counter(&self.nodes, self.budget.max_nodes, want);
        let rows_granted = Self::reserve_counter(
            &self.rows,
            self.budget.max_rows,
            want.saturating_mul(rows_per_item),
        );
        // Zero-cost items (empty relation) are bounded by nodes alone.
        let by_rows = rows_granted.checked_div(rows_per_item).unwrap_or(want);
        if by_nodes < want {
            self.exhaust(BudgetKind::Nodes);
        }
        if by_rows < want {
            self.exhaust(BudgetKind::Rows);
        }
        by_nodes.min(by_rows)
    }

    /// Lock-free longest-prefix grant against one budget counter: adds up
    /// to `want` to `counter`, stopping at `max`. Exhaustion marking is
    /// the caller's job — this must stay side-effect-free so combined
    /// reservations can probe several budgets before deciding which one
    /// was binding.
    fn reserve_counter(counter: &AtomicU64, max: Option<u64>, want: u64) -> u64 {
        match max {
            None => {
                counter.fetch_add(want, Ordering::Relaxed);
                want
            }
            Some(max) => loop {
                let cur = counter.load(Ordering::Relaxed);
                let grant = want.min(max.saturating_sub(cur));
                if counter
                    .compare_exchange(cur, cur + grant, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    break grant;
                }
            },
        }
    }

    /// Cheap liveness poll for loops that don't map naturally onto nodes
    /// or rows; returns false when the run must stop.
    #[inline]
    pub fn tick(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) != 0 {
            return false;
        }
        let since = self.since_poll.fetch_add(1, Ordering::Relaxed) + 1;
        if since < POLL_INTERVAL {
            return true;
        }
        self.since_poll.store(0, Ordering::Relaxed);
        self.poll()
    }

    /// Immediate (non-amortized) deadline + cancellation check. Use at
    /// phase boundaries where stale liveness would waste a whole phase.
    pub fn poll(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) != 0 {
            return false;
        }
        if self.cancel.is_cancelled() {
            self.exhaust(BudgetKind::Cancelled);
            return false;
        }
        if let Some(d) = self.budget.deadline {
            if self.start.elapsed() > d {
                self.exhaust(BudgetKind::Deadline);
                return false;
            }
        }
        true
    }

    /// Active cancellation/deadline check for pool workers draining an
    /// already-reserved candidate batch. The deterministic budget kinds
    /// (nodes, rows, memory) must NOT abort the batch — the reservation
    /// fixed exactly which candidates get evaluated, at every thread
    /// count — but deadline expiry and external cancellation are
    /// timing-dependent by nature, so workers honor them promptly even
    /// mid-batch instead of finishing the whole grant. Marks the
    /// exhaustion it detects; sticky like [`Exec::poll`].
    pub fn interrupted(&self) -> bool {
        if let Some(BudgetKind::Deadline | BudgetKind::Cancelled) = self.exhausted() {
            return true;
        }
        if self.cancel.is_cancelled() {
            self.exhaust(BudgetKind::Cancelled);
            return true;
        }
        if let Some(d) = self.budget.deadline {
            if self.start.elapsed() > d {
                self.exhaust(BudgetKind::Deadline);
                return true;
            }
        }
        false
    }

    /// Track growth of partition state; returns false when the estimate
    /// exceeds the memory cap.
    pub fn alloc_partition(&self, bytes: u64) -> bool {
        let now = self.partition_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.partition_peak.fetch_max(now, Ordering::Relaxed);
        if let Some(max) = self.budget.max_partition_bytes {
            if now > max {
                self.exhaust(BudgetKind::Memory);
                return false;
            }
        }
        true
    }

    /// Track release of partition state.
    pub fn free_partition(&self, bytes: u64) {
        // Saturating subtract via CAS: a release racing a larger release
        // must not wrap the counter.
        loop {
            let cur = self.partition_bytes.load(Ordering::Relaxed);
            let next = cur.saturating_sub(bytes);
            if self
                .partition_bytes
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
    }

    fn exhaust(&self, kind: BudgetKind) {
        // First exhaustion wins; later ones keep the original cause.
        if self
            .exhausted
            .compare_exchange(0, kind.code(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            obs::engine_metrics().budget_exhausted(kind).inc();
        }
    }

    /// Snapshot the work counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            nodes_visited: self.nodes.load(Ordering::Relaxed),
            rows_processed: self.rows.load(Ordering::Relaxed),
            partition_bytes_peak: self.partition_peak.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
        }
    }

    /// Package a result with this context's completion state and stats.
    pub fn finish<T>(&self, result: T) -> Outcome<T> {
        let exhausted = self.exhausted();
        Outcome {
            result,
            complete: exhausted.is_none(),
            exhausted,
            stats: self.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let exec = Exec::unbounded();
        for _ in 0..10_000 {
            assert!(exec.tick_node());
        }
        let out = exec.finish(());
        assert!(out.complete);
        assert_eq!(out.exhausted, None);
        assert_eq!(out.stats.nodes_visited, 10_000);
    }

    #[test]
    fn node_budget_exhausts_exactly() {
        let exec = Exec::new(Budget::new().with_max_nodes(10));
        let mut ok = 0;
        for _ in 0..100 {
            if exec.tick_node() {
                ok += 1;
            }
        }
        assert_eq!(ok, 10);
        assert_eq!(exec.exhausted(), Some(BudgetKind::Nodes));
        assert!(!exec.finish(()).complete);
    }

    #[test]
    fn row_budget_counts_batches() {
        let exec = Exec::new(Budget::new().with_max_rows(100));
        assert!(exec.tick_rows(60));
        assert!(exec.tick_rows(40));
        assert!(!exec.tick_rows(1));
        assert_eq!(exec.exhausted(), Some(BudgetKind::Rows));
    }

    #[test]
    fn deadline_exhausts() {
        let exec = Exec::new(Budget::new().with_deadline(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(10));
        assert!(!exec.poll());
        assert_eq!(exec.exhausted(), Some(BudgetKind::Deadline));
    }

    #[test]
    fn deadline_detected_via_amortized_tick() {
        let exec = Exec::new(Budget::new().with_deadline(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(10));
        let mut stopped = false;
        // Poll interval is 16, so within a few intervals the deadline fires.
        for _ in 0..200 {
            if !exec.tick_node() {
                stopped = true;
                break;
            }
        }
        assert!(stopped);
        assert_eq!(exec.exhausted(), Some(BudgetKind::Deadline));
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let exec = Exec::with_cancel(Budget::new(), token.clone());
        assert!(exec.poll());
        token.cancel();
        assert!(!exec.poll());
        assert_eq!(exec.exhausted(), Some(BudgetKind::Cancelled));
    }

    #[test]
    fn memory_tracking_peaks_and_frees() {
        let exec = Exec::new(Budget::new().with_max_partition_bytes(1000));
        assert!(exec.alloc_partition(600));
        exec.free_partition(500);
        assert!(exec.alloc_partition(600));
        assert_eq!(exec.stats().partition_bytes_peak, 700);
        assert!(!exec.alloc_partition(400));
        assert_eq!(exec.exhausted(), Some(BudgetKind::Memory));
    }

    #[test]
    fn exhaustion_is_sticky() {
        let exec = Exec::new(Budget::new().with_max_nodes(1));
        assert!(exec.tick_node());
        assert!(!exec.tick_node());
        assert!(!exec.tick());
        assert!(!exec.poll());
        assert!(!exec.tick_rows(1));
    }

    #[test]
    fn outcome_map_preserves_flags() {
        let exec = Exec::new(Budget::new().with_max_nodes(1));
        exec.tick_node();
        exec.tick_node();
        let out = exec.finish(3u32).map(|x| x * 2);
        assert_eq!(out.result, 6);
        assert!(!out.complete);
        assert_eq!(out.exhausted, Some(BudgetKind::Nodes));
    }

    #[test]
    fn exec_is_sync_and_shareable() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Exec>();
        // Concurrent ticking from multiple threads aggregates counters.
        let exec = Exec::unbounded();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        assert!(exec.tick_node());
                    }
                });
            }
        });
        assert_eq!(exec.stats().nodes_visited, 4000);
    }

    #[test]
    fn reserve_nodes_grants_exact_prefix() {
        let exec = Exec::new(Budget::new().with_max_nodes(10));
        assert_eq!(exec.try_reserve_nodes(4), 4);
        assert!(exec.is_live());
        assert_eq!(exec.try_reserve_nodes(8), 6);
        assert_eq!(exec.exhausted(), Some(BudgetKind::Nodes));
        assert_eq!(exec.try_reserve_nodes(1), 0);
    }

    #[test]
    fn reserve_rows_matches_serial_tick_semantics() {
        // Serial: with max_rows = 100, ticking 30 rows at a time succeeds
        // 3 times then fails. Reservation grants 100 across batches.
        let exec = Exec::new(Budget::new().with_max_rows(100));
        assert_eq!(exec.try_reserve_rows(30), 30);
        assert_eq!(exec.try_reserve_rows(30), 30);
        assert_eq!(exec.try_reserve_rows(30), 30);
        assert_eq!(exec.try_reserve_rows(30), 10);
        assert_eq!(exec.exhausted(), Some(BudgetKind::Rows));
    }

    #[test]
    fn reserve_unlimited_grants_all() {
        let exec = Exec::unbounded();
        assert_eq!(exec.try_reserve_nodes(1_000_000), 1_000_000);
        assert_eq!(exec.stats().nodes_visited, 1_000_000);
    }

    #[test]
    fn reserve_zero_after_cancellation() {
        let token = CancelToken::new();
        let exec = Exec::with_cancel(Budget::new(), token.clone());
        token.cancel();
        assert_eq!(exec.try_reserve_nodes(5), 0);
        assert_eq!(exec.exhausted(), Some(BudgetKind::Cancelled));
    }

    #[test]
    fn threads_knob_clamps_to_one() {
        let exec = Exec::unbounded().with_threads(0);
        assert_eq!(exec.threads(), 1);
        let exec = Exec::unbounded().with_threads(8);
        assert_eq!(exec.threads(), 8);
    }
}
