//! TANE (Huhtala et al.): level-wise FD discovery with stripped
//! partitions. The canonical lattice algorithm most later discovery
//! methods extend (CTANE, PFD mining, FFD mining, …).
//!
//! This implementation is the repo's flagship *parallel* lattice walk:
//! each level's candidate nodes are evaluated concurrently on the
//! work-stealing pool (`deptree_core::engine::pool`), with node/row
//! budget *reserved* per batch so the emitted dependency set — including
//! the anytime prefix under an exhausted budget — is bit-identical at
//! every thread count (see `Exec::try_reserve_nodes`). Candidate verdicts
//! are merged in canonical lattice order, and the final FD list is
//! sorted, so output order never depends on scheduling. The run owns the
//! partitions it reads: `π_a` for every attribute, and the previous and
//! the current lattice level, which pool workers only read.

use deptree_core::engine::{obs, pool, Exec, Outcome};
use deptree_core::Fd;
use deptree_relation::{AttrSet, ProductScratch, Relation, StrippedPartition};
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    /// Per-thread product scratch: each pool worker reuses its own probe
    /// buffers across every product it computes within a batch.
    static SCRATCH: RefCell<ProductScratch> = RefCell::new(ProductScratch::new());
}

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct TaneConfig {
    /// Maximum size of the determinant set (lattice depth). TANE's lattice
    /// is exponential in this; the Fig. 3 scaling bench sweeps it.
    pub max_lhs: usize,
    /// Maximum `g3` error: `0.0` discovers exact FDs, a positive value
    /// discovers AFDs (`g3 ≤ ε`), exactly TANE's approximate mode.
    pub max_error: f64,
}

impl Default for TaneConfig {
    fn default() -> Self {
        TaneConfig {
            max_lhs: 5,
            max_error: 0.0,
        }
    }
}

/// Statistics from a run, for the scaling experiments.
#[derive(Debug, Clone, Default)]
pub struct TaneStats {
    /// Lattice nodes visited.
    pub nodes_visited: usize,
    /// Partition products computed (lattice nodes materialized).
    pub partition_products: usize,
    /// FDs emitted.
    pub fds_found: usize,
}

/// The result of a TANE run.
#[derive(Debug)]
pub struct TaneResult {
    /// Minimal non-trivial dependencies `X → A` (single-attribute RHS),
    /// each with `g3 ≤ max_error`.
    pub fds: Vec<Fd>,
    /// Run statistics.
    pub stats: TaneStats,
}

/// Run TANE on `r` to completion (no resource limits). Thread count comes
/// from the `DEPTREE_THREADS` environment default.
pub fn discover(r: &Relation, cfg: &TaneConfig) -> TaneResult {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Run TANE on `r` under `exec`'s budget, with `exec.threads()` workers.
///
/// Anytime contract: every FD in the result holds on `r` (with
/// `g3 ≤ max_error` in approximate mode) even when the run was stopped
/// early — FDs are only emitted after their partition check passes. What
/// an exhausted run forfeits is *completeness*: unvisited lattice nodes
/// may hide further (and, for FDs whose minimality pruning depended on
/// them, smaller) dependencies. Under node, row and memory budgets the
/// anytime prefix is additionally *deterministic across thread counts*:
/// each partition is charged to the memory budget in canonical order when
/// it is stored and released when its level is dropped. Deadline and
/// cancellation cut off at a timing-dependent point by nature.
pub fn discover_bounded(r: &Relation, cfg: &TaneConfig, exec: &Exec) -> Outcome<TaneResult> {
    let n_attrs = r.n_attrs();
    let n_rows = r.n_rows() as u64;
    let all = r.all_attrs();
    let approx = cfg.max_error > 0.0;
    let threads = exec.threads();
    let mut stats = TaneStats::default();
    let mut fds = Vec::new();
    // Partition reads answered from the held levels by the verdicts and
    // the key pruning, and products by kernel.
    let mut reads = 0u64;
    let (mut radix_products, mut hash_products) = (0u64, 0u64);

    // Level 0 is π_∅; π_a for every attribute is held all run long, as
    // the level-1 nodes, the probe-table product's right factor and the
    // approximate checks' right-hand side.
    let mut base_span = exec.span("tane.base_partitions");
    base_span.attr("attrs", n_attrs as u64);
    let mut parts = Partitions::default();
    let empty = StrippedPartition::identity(r.n_rows());
    parts.store(AttrSet::empty(), empty.approx_bytes(), empty, exec);
    for a in r.schema().ids() {
        let p = StrippedPartition::from_column(r, a);
        exec.alloc_partition(p.approx_bytes());
        parts.singles.push(p);
        exec.tick_rows(n_rows);
    }
    // Level 0 becomes the previous level of level 1, the singletons.
    parts.advance(exec);
    drop(base_span);

    // C+ candidate RHS sets per node.
    let mut cplus: HashMap<AttrSet, AttrSet> = HashMap::new();
    cplus.insert(AttrSet::empty(), all);

    // Level 1: singletons.
    let mut level: Vec<AttrSet> = r.schema().ids().map(AttrSet::single).collect();
    for &x in &level {
        cplus.insert(x, all);
    }

    // Levels up to max_lhs + 1 are evaluated: level d decides FDs with
    // |LHS| = d − 1.
    let last_depth = cfg.max_lhs.saturating_add(1).min(n_attrs);
    let mut depth = 1usize;
    'search: while !level.is_empty() && depth <= last_depth {
        let mut level_span = exec.span("tane.level");
        level_span.attr("level", depth as u64);
        level_span.attr("candidates", level.len() as u64);
        // compute_dependencies: reserve the level's node budget up front,
        // evaluate the granted prefix in parallel, merge in lattice order.
        let granted = exec.try_reserve_nodes(level.len() as u64) as usize;
        level_span.attr("granted", granted as u64);
        let batch = &level[..granted];
        let verdicts: Vec<(AttrSet, AttrSet)> = pool::map(threads, batch, |_, &x| {
            if exec.interrupted() {
                // Deadline/cancellation fired mid-batch: stop evaluating.
                // (Deterministic budgets — nodes/rows/memory — never abort
                // the granted batch; it runs to completion so the output
                // is identical at every thread count.)
                return (AttrSet::empty(), AttrSet::empty());
            }
            // C+(X) = ∩_{A ∈ X} C+(X \ {A}) — reads only previous-level
            // entries, all inserted before this batch was dispatched.
            let mut cx = all;
            for a in x.iter() {
                match cplus.get(&x.remove(a)) {
                    Some(&c) => cx = cx.intersect(c),
                    None => cx = AttrSet::empty(),
                }
            }
            let mut valid = AttrSet::empty();
            for a in x.intersect(cx).iter() {
                let px = parts.get(x.remove(a));
                let holds = if approx {
                    px.g3_error(parts.get(AttrSet::single(a))) <= cfg.max_error
                } else {
                    px.refines(parts.get(x))
                };
                if holds {
                    valid = valid.insert(a);
                }
            }
            (cx, valid)
        });
        for (&x, &(cx0, valid)) in batch.iter().zip(&verdicts) {
            stats.nodes_visited += 1;
            reads += 2 * x.intersect(cx0).len() as u64;
            let mut cx = cx0;
            for a in x.intersect(cx0).iter() {
                if valid.contains(a) {
                    fds.push(Fd::new(r.schema(), x.remove(a), AttrSet::single(a)));
                    cx = cx.remove(a);
                    // Remove all B ∈ R \ X from C+(X): no FD with a larger
                    // RHS candidate through this node stays minimal.
                    if !approx {
                        cx = cx.difference(all.difference(x));
                    }
                }
            }
            cplus.insert(x, cx);
        }
        // A deadline or cancellation that fired during the batch stops the
        // search here rather than after the next level's generation.
        if granted < level.len() || exec.interrupted() {
            break 'search;
        }

        // prune
        let mut survivors = Vec::with_capacity(level.len());
        for &x in &level {
            let cx = cplus.get(&x).copied().unwrap_or_default();
            if cx.is_empty() {
                continue;
            }
            // Key pruning: if X is a (super)key, emit X → A for remaining
            // candidates outside X and stop expanding.
            reads += u64::from(!approx);
            if !approx && parts.get(x).error() == 0 {
                if x.len() <= cfg.max_lhs {
                    for a in cx.difference(x).iter() {
                        // TANE's minimality condition for key-derived FDs:
                        // A ∈ C+((X ∪ {A}) \ {B}) for every B ∈ X.
                        // Never-generated nodes have their C+ computed on
                        // demand via C+(X) = ∩_B C+(X \ {B}), per the TANE
                        // paper's deletion fallback.
                        let minimal = x
                            .iter()
                            .all(|b| cplus_of(x.insert(a).remove(b), &mut cplus, all).contains(a));
                        if minimal {
                            fds.push(Fd::new(r.schema(), x, AttrSet::single(a)));
                        }
                    }
                }
                continue;
            }
            survivors.push(x);
        }
        level = survivors;
        // The level before last parented this one; the next level's
        // products read only this level and the singletons.
        parts.advance(exec);
        if depth == last_depth {
            // The next level would never be evaluated: skip its products.
            break 'search;
        }

        // generate_next_level: the union list is assembled serially
        // (cheap bitset algebra), the partition products `π_{U∖{a}} · π_a`
        // (`a = max(U)`) are computed in parallel, and the products are
        // stored and charged serially in canonical order so row/memory
        // exhaustion cuts at the same union at every thread count.
        let unions = next_level(&level);
        let mut product_span = exec.span("tane.products");
        product_span.attr("level", depth as u64);
        product_span.attr("products", unions.len() as u64);
        let products = pool::map(threads, &unions, |_, &u| {
            if exec.interrupted() {
                // Deadline/cancellation mid-generation: stop computing
                // partition products; the serial replay below sees the
                // sticky exhaustion on its first tick and winds down.
                // (Deterministic budgets never abort here — see the
                // compute_dependencies batch above.)
                return None;
            }
            let a = u.max()?;
            let (left, single) = (parts.get(u.remove(a)), parts.get(AttrSet::single(a)));
            let (p, radix) =
                SCRATCH.with(|s| left.product_with_attr(r.col(a), &mut s.borrow_mut(), single));
            Some((p.approx_bytes(), p, radix))
        });
        for &(_, _, radix) in products.iter().flatten() {
            if radix {
                radix_products += 1;
            } else {
                hash_products += 1;
            }
        }
        let mut next: Vec<AttrSet> = Vec::with_capacity(unions.len());
        for (&union, product) in unions.iter().zip(products) {
            stats.partition_products += 1;
            let live = exec.tick_rows(n_rows)
                && product.is_some_and(|(bytes, p, _)| parts.store(union, bytes, p, exec));
            cplus.entry(union).or_insert(all);
            next.push(union);
            if !live {
                // Memory/row budget hit while materializing the next
                // level: stop generating, process nothing further.
                next.clear();
                break 'search;
            }
        }
        drop(product_span);
        level = next;
        depth += 1;
    }
    parts.release(exec);

    fds.sort_by_key(|fd| (fd.lhs().len(), fd.lhs(), fd.rhs()));
    stats.fds_found = fds.len();
    // Hits: partition reads answered from the held levels (a product
    // reads its left parent, and the probe-table one `π_a` too); misses:
    // partitions computed (π_∅, the singletons and the products).
    let m = obs::engine_metrics();
    m.cache_hits.add(reads + radix_products + 2 * hash_products);
    m.cache_misses
        .add(1 + n_attrs as u64 + radix_products + hash_products);
    m.partition_product_radix.add(radix_products);
    m.partition_product_hash.add(hash_products);
    exec.finish(TaneResult { fds, stats })
}

/// The partitions a run holds, each charged to the run's partition-memory
/// budget while held: `π_a` for every attribute, all run long, plus the
/// previous and the current lattice level keyed by attribute set. Level 0
/// is `{∅}`; the level-1 nodes are the singletons.
#[derive(Default)]
struct Partitions {
    singles: Vec<StrippedPartition>,
    prev: HashMap<AttrSet, StrippedPartition>,
    cur: HashMap<AttrSet, StrippedPartition>,
    /// Bytes charged for `prev` and for `cur`.
    prev_bytes: u64,
    cur_bytes: u64,
}

impl Partitions {
    /// `π_x` for a singleton or a node of the previous or current level.
    /// TANE only asks for those: every node's parents survived the level
    /// before it.
    fn get(&self, x: AttrSet) -> &StrippedPartition {
        match x.min() {
            Some(a) if x.len() == 1 => &self.singles[a.0],
            _ => self.cur.get(&x).unwrap_or_else(|| &self.prev[&x]),
        }
    }

    /// Add `π_x`, whose estimate is `bytes`, to the current level and
    /// charge it; false when the charge exceeds the memory budget.
    fn store(&mut self, x: AttrSet, bytes: u64, p: StrippedPartition, exec: &Exec) -> bool {
        self.cur.insert(x, p);
        self.cur_bytes += bytes;
        exec.alloc_partition(bytes)
    }

    /// Drop and release the previous level whole; the current level
    /// becomes the previous one.
    fn advance(&mut self, exec: &Exec) {
        exec.free_partition(self.prev_bytes);
        self.prev = std::mem::take(&mut self.cur);
        self.prev_bytes = std::mem::take(&mut self.cur_bytes);
    }

    /// Release everything still held when the run ends.
    fn release(self, exec: &Exec) {
        let singles: u64 = self
            .singles
            .iter()
            .map(StrippedPartition::approx_bytes)
            .sum();
        exec.free_partition(singles + self.prev_bytes + self.cur_bytes);
    }
}

/// TANE's candidate generation: join the nodes of `level` (all of one
/// size) that share all but their largest attribute, and keep each union
/// whose parents — its subsets one attribute smaller — all survive in
/// `level` (children of pruned nodes are implied or hopeless).
///
/// Unions come out ordered by the level indexes of their two
/// lowest-indexed parents: the order in which a join over all pairs
/// `i < j` of `level` first meets them. Node budgets cut a level at a
/// prefix of this order, so it is part of the output contract.
fn next_level(level: &[AttrSet]) -> Vec<AttrSet> {
    let index: HashMap<AttrSet, usize> = level.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    let mut blocks: HashMap<AttrSet, Vec<usize>> = HashMap::new();
    for (i, &x) in level.iter().enumerate() {
        let prefix = x.max().map_or(x, |m| x.remove(m));
        blocks.entry(prefix).or_default().push(i);
    }
    let mut keyed: Vec<((usize, usize), AttrSet)> = Vec::new();
    for members in blocks.values() {
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                let union = level[i].union(level[j]);
                let parents: Option<Vec<usize>> = union
                    .iter()
                    .map(|c| index.get(&union.remove(c)).copied())
                    .collect();
                if let Some(mut parents) = parents {
                    parents.sort_unstable();
                    keyed.push(((parents[0], parents[1]), union));
                }
            }
        }
    }
    keyed.sort_unstable_by_key(|&(lowest, _)| lowest);
    keyed.into_iter().map(|(_, union)| union).collect()
}

/// Look up `C+(set)`, computing it on demand through the TANE recurrence
/// `C+(X) = ∩_{B∈X} C+(X \ {B})` (with `C+(∅)` = all attributes) when the
/// node was never generated; memoizes the result.
fn cplus_of(set: AttrSet, cplus: &mut HashMap<AttrSet, AttrSet>, all: AttrSet) -> AttrSet {
    if let Some(&c) = cplus.get(&set) {
        return c;
    }
    if set.is_empty() {
        return all;
    }
    let mut c = all;
    for b in set.iter() {
        c = c.intersect(cplus_of(set.remove(b), cplus, all));
    }
    cplus.insert(set, c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::{hotels_r5, hotels_r7};
    use deptree_relation::AttrId;
    use deptree_synth::{categorical, CategoricalConfig};
    use std::collections::HashSet;

    #[test]
    fn discovers_planted_fds() {
        let cfg = CategoricalConfig {
            n_rows: 300,
            n_key_attrs: 2,
            n_dep_attrs: 2,
            domain: 40,
            error_rate: 0.0,
            seed: 1,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let result = discover(&data.relation, &TaneConfig::default());
        for &(lhs, rhs) in &data.planted_fds {
            let found = result.fds.iter().any(|fd| {
                fd.lhs().is_subset(AttrSet::single(lhs)) && fd.rhs() == AttrSet::single(rhs)
            });
            assert!(found, "planted {lhs} -> {rhs} missing: {:?}", result.fds);
        }
    }

    #[test]
    fn all_results_hold_and_are_minimal() {
        let r = hotels_r5();
        let result = discover(&r, &TaneConfig::default());
        for fd in &result.fds {
            assert!(fd.holds(&r), "{fd} does not hold");
            assert!(!fd.is_trivial(), "{fd} is trivial");
            // Minimality: no proper subset of the LHS also works.
            for a in fd.lhs().iter() {
                let smaller = Fd::new(r.schema(), fd.lhs().remove(a), fd.rhs());
                assert!(!smaller.holds(&r), "{fd} not minimal ({smaller} holds)");
            }
        }
    }

    #[test]
    fn r7_numeric_keys() {
        // In r7 every attribute is a key (all values distinct), so every
        // A → B with single attributes is found.
        let r = hotels_r7();
        let result = discover(&r, &TaneConfig::default());
        // 4 attributes, each determines the 3 others: 12 single-attr FDs.
        assert_eq!(result.fds.len(), 12);
        assert!(result.fds.iter().all(|fd| fd.lhs().len() == 1));
    }

    #[test]
    fn approximate_mode_tolerates_noise() {
        let cfg = CategoricalConfig {
            n_rows: 400,
            n_key_attrs: 1,
            n_dep_attrs: 1,
            domain: 30,
            error_rate: 0.02,
            seed: 2,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        // Exact discovery misses the planted FD…
        let exact = discover(&data.relation, &TaneConfig::default());
        let planted = |fds: &[Fd]| {
            fds.iter().any(|fd| {
                fd.lhs() == AttrSet::single(AttrId(0)) && fd.rhs() == AttrSet::single(AttrId(1))
            })
        };
        assert!(!planted(&exact.fds));
        // …approximate discovery recovers it.
        let approx = discover(
            &data.relation,
            &TaneConfig {
                max_error: 0.05,
                ..Default::default()
            },
        );
        assert!(planted(&approx.fds), "{:?}", approx.fds);
    }

    #[test]
    fn lattice_depth_bound_respected() {
        let r = hotels_r5();
        let shallow = discover(
            &r,
            &TaneConfig {
                max_lhs: 1,
                max_error: 0.0,
            },
        );
        assert!(shallow.fds.iter().all(|fd| fd.lhs().len() <= 1));
        assert!(shallow.stats.nodes_visited <= r.n_attrs() * 2);
    }

    #[test]
    fn bounded_run_is_sound_and_deterministic() {
        use deptree_core::engine::Budget;
        let cfg = CategoricalConfig {
            n_rows: 200,
            n_key_attrs: 3,
            n_dep_attrs: 3,
            domain: 8,
            error_rate: 0.0,
            seed: 7,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let full = discover(r, &TaneConfig::default());
        // A node budget far below the full lattice forces a partial run.
        let budget = Budget::new().with_max_nodes(4);
        let partial = discover_bounded(r, &TaneConfig::default(), &Exec::new(budget.clone()));
        assert!(!partial.complete);
        assert!(partial.result.fds.len() < full.fds.len());
        // Sound: every FD in the partial result holds.
        for fd in &partial.result.fds {
            assert!(fd.holds(r), "{fd} unsound under budget");
        }
        // Deterministic: a second identical run returns the same FDs.
        let again = discover_bounded(r, &TaneConfig::default(), &Exec::new(budget));
        let names = |fds: &[Fd]| fds.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&partial.result.fds), names(&again.result.fds));
    }

    #[test]
    fn memory_budget_stops_lattice_growth() {
        use deptree_core::engine::{Budget, BudgetKind};
        let r = hotels_r5();
        let exec = Exec::new(Budget::new().with_max_partition_bytes(1));
        let out = discover_bounded(&r, &TaneConfig::default(), &exec);
        assert!(!out.complete);
        assert_eq!(out.exhausted, Some(BudgetKind::Memory));
        for fd in &out.result.fds {
            assert!(fd.holds(&r));
        }
    }

    #[test]
    fn unbounded_exec_reports_complete() {
        let r = hotels_r5();
        let out = discover_bounded(&r, &TaneConfig::default(), &Exec::unbounded());
        assert!(out.complete);
        assert_eq!(out.exhausted, None);
        assert!(out.stats.nodes_visited > 0);
    }

    #[test]
    fn parallel_run_matches_serial() {
        let cfg = CategoricalConfig {
            n_rows: 250,
            n_key_attrs: 2,
            n_dep_attrs: 3,
            domain: 6,
            error_rate: 0.05,
            seed: 13,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let names = |res: &TaneResult| res.fds.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let serial = discover_bounded(
            r,
            &TaneConfig::default(),
            &Exec::unbounded().with_threads(1),
        );
        for threads in [2, 4, 8] {
            let par = discover_bounded(
                r,
                &TaneConfig::default(),
                &Exec::unbounded().with_threads(threads),
            );
            assert_eq!(
                names(&serial.result),
                names(&par.result),
                "threads={threads}"
            );
        }
    }

    /// The all-pairs join `next_level` replaced: every pair `i < j` of the
    /// level, first occurrence of each union kept.
    fn next_level_all_pairs(level: &[AttrSet], depth: usize) -> Vec<AttrSet> {
        let mut unions: Vec<AttrSet> = Vec::new();
        let mut seen: HashSet<AttrSet> = HashSet::new();
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let union = level[i].union(level[j]);
                if union.len() != depth + 1 || !seen.insert(union) {
                    continue;
                }
                let all_parents = union.iter().all(|c| level.contains(&union.remove(c)));
                if all_parents {
                    unions.push(union);
                }
            }
        }
        unions
    }

    #[test]
    fn prefix_join_matches_all_pairs_join_in_order() {
        let mut rng = deptree_synth::rng(0x7A4E);
        for case in 0..400 {
            let n_attrs = rng.random_range(2..=9usize);
            let depth = rng.random_range(1..=n_attrs.min(4));
            // A random sample of the depth-subsets, in random order: the
            // order of a pruned level is part of the input.
            let mut level: Vec<AttrSet> = (0..1u64 << n_attrs)
                .map(AttrSet::from_bits)
                .filter(|x| x.len() == depth && rng.random_bool(0.7))
                .collect();
            for i in (1..level.len()).rev() {
                level.swap(i, rng.random_range(0..=i));
            }
            assert_eq!(
                next_level(&level),
                next_level_all_pairs(&level, depth),
                "case {case}: {level:?}"
            );
        }
    }

    #[test]
    fn last_level_is_not_materialised() {
        // Four attributes over a 3-value domain with every row twice: no
        // attribute (or pair) is a key, so level 2 survives pruning and
        // level 3 could be generated — but with max_lhs 1 it is never
        // evaluated, so none of its partitions may be computed.
        let cfg = CategoricalConfig {
            n_rows: 40,
            n_key_attrs: 4,
            n_dep_attrs: 0,
            domain: 3,
            error_rate: 0.0,
            seed: 5,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let twice: Vec<usize> = (0..data.relation.n_rows()).flat_map(|i| [i, i]).collect();
        let r = data.relation.select_rows(&twice);
        assert!(r.n_attrs() >= 4);
        let cfg = TaneConfig {
            max_lhs: 1,
            max_error: 0.0,
        };
        let out = discover_bounded(&r, &cfg, &Exec::unbounded());
        assert!(out.complete);
        for a in r.schema().ids() {
            let p = StrippedPartition::from_column(&r, a);
            assert!(p.error() > 0, "attribute {a:?} is a key");
        }
        // Every pair of attributes is a level-2 node; no triple is built.
        let pairs = r.n_attrs() * (r.n_attrs() - 1) / 2;
        assert_eq!(out.result.stats.nodes_visited, r.n_attrs() + pairs);
        assert_eq!(out.result.stats.partition_products, pairs);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(hotels_r5().schema().clone()).unwrap();
        let result = discover(&r, &TaneConfig::default());
        // Everything holds vacuously; TANE still terminates cleanly.
        assert!(result.fds.iter().all(|fd| fd.holds(&r)));
    }
}
