//! Value-keyed FD-family checks: every `X`-group is copied out of the
//! relation with `select_rows` and regrouped by its `Y`-values.

use deptree_core::{Fd, Violation};
use deptree_quality::repair::RepairResult;
use deptree_relation::{AttrSet, Relation, Value};
use std::collections::HashMap;

/// The `Y`-groups of one `X`-group `rows`, as row lists of `r`.
fn rhs_groups(r: &Relation, rows: &[usize], rhs: AttrSet) -> Vec<Vec<usize>> {
    let sub = r.select_rows(rows);
    // `select_rows` keeps attribute names, so every lookup hits.
    let rhs_local: AttrSet = rhs
        .iter()
        .filter_map(|a| sub.schema().attr_id(r.schema().name(a)))
        .collect();
    sub.group_by(rhs_local)
        .into_values()
        .map(|g| g.into_iter().map(|m| rows[m]).collect())
        .collect()
}

/// Smallest row of each `Y`-group of `rows`, ascending.
fn representatives(r: &Relation, rows: &[usize], rhs: AttrSet) -> Vec<usize> {
    let mut reps: Vec<usize> = rhs_groups(r, rows, rhs)
        .iter()
        .filter_map(|g| g.iter().min().copied())
        .collect();
    reps.sort_unstable();
    reps
}

/// Reference for `Fd::violations`: per `X`-group, one witness per pair of
/// `Y`-groups, from each group's smallest row.
pub fn fd_violations(r: &Relation, lhs: AttrSet, rhs: AttrSet) -> Vec<Violation> {
    let mut out = Vec::new();
    for rows in r.group_by(lhs).values() {
        if rows.len() < 2 {
            continue;
        }
        let reps = representatives(r, rows, rhs);
        for i in 0..reps.len() {
            for j in (i + 1)..reps.len() {
                out.push(Violation::pair(reps[i], reps[j], rhs));
            }
        }
    }
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out
}

/// Reference for `Fd::g3`: rows outside each `X`-group's largest
/// `Y`-group, over all rows.
pub fn g3(r: &Relation, lhs: AttrSet, rhs: AttrSet) -> f64 {
    if r.n_rows() == 0 {
        return 0.0;
    }
    let removed: usize = r
        .group_by(lhs)
        .values()
        .map(|rows| {
            let keep = rhs_groups(r, rows, rhs).iter().map(Vec::len).max();
            rows.len() - keep.unwrap_or(0)
        })
        .sum();
    removed as f64 / r.n_rows() as f64
}

/// Reference for `Nud::max_fanout`: the most distinct `Y`-values of any
/// `X`-group.
pub fn nud_max_fanout(r: &Relation, lhs: AttrSet, rhs: AttrSet) -> usize {
    r.group_by(lhs)
        .values()
        .map(|rows| rhs_groups(r, rows, rhs).len())
        .max()
        .unwrap_or(0)
}

/// Reference for `Nud::violations`: one witness per `X`-group with more
/// than `k` distinct `Y`-values, its `k + 1` smallest representatives.
pub fn nud_violations(r: &Relation, lhs: AttrSet, rhs: AttrSet, k: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    for rows in r.group_by(lhs).values() {
        let mut reps = representatives(r, rows, rhs);
        if reps.len() > k {
            reps.truncate(k + 1);
            out.push(Violation {
                rows: reps,
                attrs: rhs,
            });
        }
    }
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out
}

/// Reference for `Pfd::probability`: the mean over `X`-groups of the
/// share held by the modal `Y`-value, summed in hash order (so equal only
/// up to rounding).
pub fn pfd_probability(r: &Relation, lhs: AttrSet, rhs: AttrSet) -> f64 {
    if r.n_rows() == 0 {
        return 1.0;
    }
    let groups = r.group_by(lhs);
    let total: f64 = groups
        .values()
        .map(|rows| {
            let max = rhs_groups(r, rows, rhs).iter().map(Vec::len).max();
            max.unwrap_or(0) as f64 / rows.len() as f64
        })
        .sum();
    total / groups.len() as f64
}

/// Reference for the unbounded `repair_fds`: every `X`-group, in hash
/// order, is overwritten with its modal `Y`-tuple (ties toward the
/// smallest tuple) until a pass changes nothing.
pub fn repair_fds(r: &Relation, fds: &[Fd], max_iters: usize) -> RepairResult {
    let mut rel = r.clone();
    let mut changes = Vec::new();
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let mut changed = false;
        for fd in fds {
            for rows in rel.group_by(fd.lhs()).values() {
                if rows.len() < 2 {
                    continue;
                }
                let mut counts: HashMap<Vec<Value>, usize> = HashMap::new();
                for &row in rows {
                    *counts.entry(rel.project_row(row, fd.rhs())).or_default() += 1;
                }
                if counts.len() <= 1 {
                    continue;
                }
                let Some((modal, _)) = counts
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                else {
                    continue;
                };
                for &row in rows {
                    for (attr, target) in fd.rhs().iter().zip(&modal) {
                        if rel.value(row, attr) != target {
                            changes.push((row, attr, rel.value(row, attr).clone()));
                            rel.set_value(row, attr, target.clone());
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    RepairResult {
        relation: rel,
        changes,
        iterations,
    }
}
