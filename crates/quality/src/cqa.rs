//! Consistent query answering (Arenas–Bertossi–Chomicki; Table 3): an
//! answer is *consistent* when it holds in every minimal repair of the
//! inconsistent database.
//!
//! For deletion-based repairs of equality/similarity rules whose witnesses
//! are tuple sets, a sound approximation is: a tuple participates in some
//! repair-divergence iff it appears in a violation witness, so answers
//! built only from *unconflicted* tuples are consistent. This module
//! implements that approximation plus an exact check for the common case
//! of a single FD (where minimal repairs keep, per conflicting group, a
//! maximal agreeing subset).

use deptree_core::engine::{Exec, Outcome};
use deptree_core::{Dependency, Fd};
use deptree_relation::{Relation, StrippedPartition, Value};
use std::collections::HashSet;

/// Rows not involved in any violation witness — the *core* every
/// deletion-minimal repair retains (sound, possibly incomplete).
pub fn consistent_rows(r: &Relation, rules: &[Box<dyn Dependency>]) -> Vec<usize> {
    consistent_rows_bounded(r, rules, &Exec::unbounded()).result
}

/// Budgeted [`consistent_rows`]: one node tick plus a full-relation row
/// tick per rule checked. A row can only be *certified* consistent once
/// every rule has been checked against it — an unprocessed rule could
/// conflict any row — so on exhaustion the sound answer is the empty set:
/// no row is certified, and `complete == false` tells the caller why.
pub fn consistent_rows_bounded(
    r: &Relation,
    rules: &[Box<dyn Dependency>],
    exec: &Exec,
) -> Outcome<Vec<usize>> {
    let mut conflicted: HashSet<usize> = HashSet::new();
    for rule in rules {
        if !exec.tick_node() || !exec.tick_rows(r.n_rows() as u64) {
            // Certification requires all rules; nothing can be claimed.
            return exec.finish(Vec::new());
        }
        for v in rule.violations(r) {
            conflicted.extend(v.rows.iter().copied());
        }
    }
    exec.finish(
        (0..r.n_rows())
            .filter(|row| !conflicted.contains(row))
            .collect(),
    )
}

/// A selection query `σ_{attr = value}` projected onto `output`.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    /// Selection attribute.
    pub attr: deptree_relation::AttrId,
    /// Selection constant.
    pub value: Value,
    /// Output attribute.
    pub output: deptree_relation::AttrId,
}

impl SelectQuery {
    fn answers_from(&self, r: &Relation, rows: &[usize]) -> HashSet<Value> {
        rows.iter()
            .filter(|&&row| r.value(row, self.attr) == &self.value)
            .map(|&row| r.value(row, self.output).clone())
            .collect()
    }
}

/// Consistent answers under the core approximation: evaluate the query on
/// the unconflicted rows only.
pub fn consistent_answers(
    r: &Relation,
    rules: &[Box<dyn Dependency>],
    q: &SelectQuery,
) -> HashSet<Value> {
    consistent_answers_bounded(r, rules, q, &Exec::unbounded()).result
}

/// Budgeted [`consistent_answers`]: inherits the certification semantics
/// of [`consistent_rows_bounded`] — on exhaustion the answer set is empty
/// (the empty set is always a sound under-approximation of the certain
/// answers) and `complete == false`.
pub fn consistent_answers_bounded(
    r: &Relation,
    rules: &[Box<dyn Dependency>],
    q: &SelectQuery,
    exec: &Exec,
) -> Outcome<HashSet<Value>> {
    let rows = consistent_rows_bounded(r, rules, exec);
    let answers = q.answers_from(r, &rows.result);
    exec.finish(answers)
}

/// Exact consistent answers for a *single FD*: the minimal repairs keep,
/// per equal-LHS group, exactly one maximal RHS-agreeing subset. An answer
/// is consistent iff it appears in every choice — i.e. it comes from an
/// unconflicted tuple, or from a group where *all* maximal subsets produce
/// it (impossible when subsets disagree on the queried output unless the
/// output attribute is outside the FD's RHS and constant across the
/// group's candidates).
pub fn consistent_answers_fd(r: &Relation, fd: &Fd, q: &SelectQuery) -> HashSet<Value> {
    // Enumerate repairs group-wise: each group contributes its alternative
    // "keep" subsets; the cross product of choices is the repair space.
    // Intersecting per-group is equivalent and avoids the exponential
    // cross product. Minimal repairs keep one maximum-cardinality `Y`-block
    // per `X`-group, and all tied maxima are alternatives; a conflict-free
    // group has one block, kept in every repair. A block is the class of
    // `π_{X∪Y}` that starts at its first row, or that row alone.
    let pxy = StrippedPartition::from_attrs(r, fd.lhs().union(fd.rhs()));
    let mut by_rhs = pxy.splitter();
    let mut certain = HashSet::new();
    for rows in StrippedPartition::from_attrs(r, fd.lhs()).into_groups() {
        let blocks = by_rhs.split(&rows);
        let max = blocks.iter().map(|b| b.len).max().unwrap_or(0);
        let group_certain = blocks
            .iter()
            .filter(|b| b.len == max)
            .map(|b| q.answers_from(r, class_at(&pxy, &b.first)))
            .reduce(|a, b| a.intersection(&b).cloned().collect());
        certain.extend(group_certain.into_iter().flatten());
    }
    certain
}

/// The rows of the class of `p` that starts at `first`, or `first` alone
/// when no class does.
fn class_at<'a>(p: &'a StrippedPartition, first: &'a usize) -> &'a [usize] {
    match p.classes().binary_search_by_key(first, |c| c[0]) {
        Ok(i) => &p.classes()[i],
        Err(_) => std::slice::from_ref(first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r5;

    fn q(r: &Relation, attr: &str, value: &str, output: &str) -> SelectQuery {
        let s = r.schema();
        SelectQuery {
            attr: s.id(attr),
            value: value.into(),
            output: s.id(output),
        }
    }

    #[test]
    fn unconflicted_answers_survive() {
        // Query: regions at address "175 North Jackson Street" — t1, t2
        // are unconflicted w.r.t. address → region; answer "Jackson" is
        // consistent.
        let r = hotels_r5();
        let fd: Box<dyn Dependency> = Box::new(Fd::parse(r.schema(), "address -> region").unwrap());
        let query = q(&r, "address", "175 North Jackson Street", "region");
        let answers = consistent_answers(&r, std::slice::from_ref(&fd), &query);
        assert_eq!(answers, HashSet::from([Value::str("Jackson")]));
    }

    #[test]
    fn conflicted_answers_dropped() {
        // Regions at "6030 Gateway Boulevard E": t3 says El Paso, t4 says
        // El Paso, TX — neither is in every repair.
        let r = hotels_r5();
        let fd: Box<dyn Dependency> = Box::new(Fd::parse(r.schema(), "address -> region").unwrap());
        let query = q(&r, "address", "6030 Gateway Boulevard E", "region");
        let answers = consistent_answers(&r, std::slice::from_ref(&fd), &query);
        assert!(answers.is_empty());
        // The exact FD version agrees here (two tied maximal subsets that
        // disagree on the output).
        let fd2 = Fd::parse(r.schema(), "address -> region").unwrap();
        let exact = consistent_answers_fd(&r, &fd2, &query);
        assert!(exact.is_empty());
    }

    #[test]
    fn exact_fd_version_recovers_majority_certain_answers() {
        // Make the El Paso group 2-vs-1: the majority subset is the unique
        // minimal repair, so its answer becomes certain — the core
        // approximation still (soundly) misses it.
        let mut r = hotels_r5();
        let s = r.schema().clone();
        r.push_row(vec![
            "Hyatt".into(),
            "6030 Gateway Boulevard E".into(),
            "El Paso".into(),
            199.into(),
        ])
        .unwrap();
        let fd = Fd::parse(&s, "address -> region").unwrap();
        let query = q(&r, "address", "6030 Gateway Boulevard E", "region");
        let exact = consistent_answers_fd(&r, &fd, &query);
        assert_eq!(exact, HashSet::from([Value::str("El Paso")]));
        let rules: Vec<Box<dyn Dependency>> = vec![Box::new(fd)];
        let approx = consistent_answers(&r, &rules, &query);
        assert!(approx.is_subset(&exact)); // sound but incomplete
    }

    #[test]
    fn bounded_cqa_certifies_nothing_on_exhaustion() {
        use deptree_core::engine::{Budget, Exec};
        let r = hotels_r5();
        let fd: Box<dyn Dependency> = Box::new(Fd::parse(r.schema(), "address -> region").unwrap());
        // Zero-node budget: the single rule cannot be checked.
        let exec = Exec::new(Budget::default().with_max_nodes(0));
        let rows = consistent_rows_bounded(&r, std::slice::from_ref(&fd), &exec);
        assert!(!rows.complete);
        assert!(rows.result.is_empty());
        let query = q(&r, "address", "175 North Jackson Street", "region");
        let exec2 = Exec::new(Budget::default().with_max_nodes(0));
        let answers = consistent_answers_bounded(&r, std::slice::from_ref(&fd), &query, &exec2);
        assert!(!answers.complete);
        assert!(answers.result.is_empty());
    }

    #[test]
    fn one_group_of_distinct_rhs_values_answers_in_bounded_time() {
        // One `X`-group of 40,000 rows whose `Y`-values are all distinct:
        // 40,000 tied one-row blocks. Rescanning the group for each block
        // would take 1.6·10⁹ row comparisons; taking each block's rows
        // from `π_{X∪Y}` is linear.
        use deptree_relation::{RelationBuilder, ValueType};
        use std::time::{Duration, Instant};
        let mut b = RelationBuilder::new()
            .attr("dept", ValueType::Categorical)
            .attr("name", ValueType::Categorical)
            .attr("site", ValueType::Categorical);
        for i in 0..40_000 {
            b = b.row(vec!["d".into(), format!("n{i}").into(), "s".into()]);
        }
        let r = b.build().unwrap();
        let fd = Fd::parse(r.schema(), "dept -> name").unwrap();
        let started = Instant::now();
        let site = consistent_answers_fd(&r, &fd, &q(&r, "dept", "d", "site"));
        let name = consistent_answers_fd(&r, &fd, &q(&r, "dept", "d", "name"));
        assert!(started.elapsed() < Duration::from_secs(5));
        // Every repair keeps one row, all of site "s" and no name in common.
        assert_eq!(site, HashSet::from([Value::str("s")]));
        assert!(name.is_empty());
    }

    #[test]
    fn consistent_rows_shrink_with_rules() {
        let r = hotels_r5();
        assert_eq!(consistent_rows(&r, &[]).len(), 4);
        let fd: Box<dyn Dependency> = Box::new(Fd::parse(r.schema(), "address -> region").unwrap());
        let rows = consistent_rows(&r, std::slice::from_ref(&fd));
        assert_eq!(rows, vec![0, 1]);
    }
}
