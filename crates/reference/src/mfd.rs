//! Value-keyed MFD checks: every equal-`X` group of the hash grouping,
//! singletons included, is measured with the shipped diameter helpers.

use crate::relation::group_by;
use deptree_core::{Mfd, Violation};
use deptree_discovery::mfd::{exact_diameter, pivot_radius, ApproxVerdict};
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation};

/// Reference for `Mfd::holds`: every group's diameter is within its `δ`.
pub fn holds(r: &Relation, mfd: &Mfd) -> bool {
    group_by(r, mfd.lhs()).values().all(|rows| {
        mfd.rhs()
            .iter()
            .enumerate()
            .all(|(i, (_, _, delta))| mfd.group_diameter(r, rows, i) <= *delta)
    })
}

/// Reference for `Mfd::violations`: every same-group row pair farther
/// than `δ` apart on some dependent attribute.
pub fn violations(r: &Relation, mfd: &Mfd) -> Vec<Violation> {
    let mut out = Vec::new();
    for rows in group_by(r, mfd.lhs()).values() {
        for (i, &r1) in rows.iter().enumerate() {
            for &r2 in &rows[i + 1..] {
                let bad: AttrSet = mfd
                    .rhs()
                    .iter()
                    .filter(|(a, metric, delta)| {
                        metric.dist(r.value(r1, *a), r.value(r2, *a)) > *delta
                    })
                    .map(|(a, _, _)| *a)
                    .collect();
                if !bad.is_empty() {
                    out.push(Violation::pair(r1, r2, bad));
                }
            }
        }
    }
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out
}

/// Reference for `discovery::mfd::minimal_delta`: the largest group
/// diameter.
pub fn minimal_delta(r: &Relation, lhs: AttrSet, attr: AttrId, metric: &Metric) -> f64 {
    group_by(r, lhs)
        .values()
        .map(|rows| exact_diameter(r, rows, attr, metric))
        .fold(0.0f64, f64::max)
}

/// Reference for `discovery::mfd::approx_verify`: pivot radii of every
/// group against `δ` and `δ/2`.
pub fn approx_verify(
    r: &Relation,
    lhs: AttrSet,
    attr: AttrId,
    metric: &Metric,
    delta: f64,
) -> ApproxVerdict {
    let radii: Vec<f64> = group_by(r, lhs)
        .values()
        .map(|rows| pivot_radius(r, rows, attr, metric))
        .collect();
    if radii.iter().any(|&m| m > delta) {
        ApproxVerdict::Fails
    } else if !radii.iter().any(|&m| 2.0 * m > delta) {
        ApproxVerdict::Holds
    } else {
        ApproxVerdict::Unknown
    }
}
