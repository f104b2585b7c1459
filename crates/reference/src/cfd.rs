//! Value-keyed CFD and eCFD checks: the rows matching the LHS pattern are
//! grouped by their projected `X`-tuples, and each group by its `Y`-tuples.

use crate::relation::group_by;
use deptree_core::{Cfd, ECfd, Pattern, PatternCell, Violation};
use deptree_discovery::cfd::CfdConfig;
use deptree_discovery::mvd::subsets_up_to;
use deptree_relation::{AttrId, AttrSet, Relation, Value};
use std::collections::HashMap;

/// Witnesses of the embedded FD `lhs → rhs` on the rows `matching`: per
/// equal-`X` group, one per pair of distinct `Y`-tuples, from each
/// tuple's smallest row.
fn pair_witnesses(r: &Relation, matching: &[usize], lhs: AttrSet, rhs: AttrSet) -> Vec<Violation> {
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for &row in matching {
        groups.entry(r.project_row(row, lhs)).or_default().push(row);
    }
    let mut out = Vec::new();
    for rows in groups.values() {
        let mut reps: HashMap<Vec<Value>, usize> = HashMap::new();
        for &row in rows {
            reps.entry(r.project_row(row, rhs)).or_insert(row);
        }
        let mut rs: Vec<usize> = reps.into_values().collect();
        rs.sort_unstable();
        for i in 0..rs.len() {
            for j in (i + 1)..rs.len() {
                out.push(Violation::pair(rs[i], rs[j], rhs));
            }
        }
    }
    out
}

/// A single-row witness per matching row with an RHS cell that fails
/// `cell_ok`, plus the pair witnesses, sorted by rows.
fn witnesses(
    r: &Relation,
    matching: &[usize],
    lhs: AttrSet,
    rhs: AttrSet,
    cell_ok: impl Fn(usize, AttrId) -> bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for &row in matching {
        let bad: AttrSet = rhs.iter().filter(|&a| !cell_ok(row, a)).collect();
        if !bad.is_empty() {
            out.push(Violation::row(row, bad));
        }
    }
    out.extend(pair_witnesses(r, matching, lhs, rhs));
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out.dedup();
    out
}

/// Reference for `Cfd::violations`.
pub fn cfd_violations(r: &Relation, cfd: &Cfd) -> Vec<Violation> {
    let cell_ok = |row: usize, a| cfd.pattern().cell(a).matches(r.value(row, a));
    witnesses(r, &cfd.matching_rows(r), cfd.lhs(), cfd.rhs(), cell_ok)
}

/// Reference for `Cfd::holds`: every matching row matches `t_p[Y]`, and
/// each equal-`X` group of matching rows has one `Y`-tuple.
pub fn cfd_holds(r: &Relation, cfd: &Cfd) -> bool {
    let matching = cfd.matching_rows(r);
    let rhs_ok = matching
        .iter()
        .all(|&row| cfd.pattern().matches_on(r, row, cfd.rhs()));
    rhs_ok && pair_witnesses(r, &matching, cfd.lhs(), cfd.rhs()).is_empty()
}

/// Reference for `ECfd::violations`.
pub fn ecfd_violations(r: &Relation, ecfd: &ECfd) -> Vec<Violation> {
    let cell_ok = |row: usize, a| ecfd.cell(a).matches(r.value(row, a));
    witnesses(r, &ecfd.matching_rows(r), ecfd.lhs(), ecfd.rhs(), cell_ok)
}

/// Reference for `deptree_discovery::cfd::ctane`: the serial level-wise
/// walk, each pattern candidate's support counted over every row and its
/// validity taken from [`cfd_holds`].
pub fn ctane(r: &Relation, cfg: &CfdConfig) -> Vec<Cfd> {
    let mut out: Vec<Cfd> = Vec::new();
    for lhs in subsets_up_to(r.all_attrs(), cfg.max_lhs) {
        for rhs in r.schema().ids().filter(|&a| !lhs.contains(a)) {
            let rhs_set = AttrSet::single(rhs);
            let mut patterns = vec![Pattern::all_any(lhs.union(rhs_set))];
            for a in lhs.iter() {
                let mut domain: Vec<Value> = group_by(r, AttrSet::single(a))
                    .into_keys()
                    .flatten()
                    .collect();
                domain.sort();
                patterns = patterns
                    .iter()
                    .flat_map(|p| {
                        let bound = domain.iter().map(|v| p.clone().with_const(a, v.clone()));
                        std::iter::once(p.clone()).chain(bound)
                    })
                    .collect();
            }
            patterns.sort_by_key(|p| p.cells().filter(|(_, c)| c.is_const()).count());
            for pattern in patterns {
                let cand = Cfd::new(r.schema(), lhs, rhs_set, pattern);
                if cand.matching_rows(r).len() >= cfg.min_support
                    && cfd_holds(r, &cand)
                    && !out.iter().any(|prev| generalizes(prev, &cand))
                {
                    out.push(cand);
                }
            }
        }
    }
    out
}

/// Does `a` generalize `b`: the same RHS, a sub-LHS, and every constant of
/// `a` also in `b`?
fn generalizes(a: &Cfd, b: &Cfd) -> bool {
    a.rhs() == b.rhs()
        && a.lhs().is_subset(b.lhs())
        && a.pattern().cells().all(|(attr, cell)| match cell {
            PatternCell::Any => b.lhs().contains(attr) || b.rhs().contains(attr),
            PatternCell::Const(_) => b.pattern().cell(attr) == cell,
        })
}
