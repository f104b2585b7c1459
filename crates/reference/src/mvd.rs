//! Value-keyed MVD-family checks: every `X`-group's `Y`-, `Z`- and
//! `(Y, Z)`-values are projected tuples collected into hash sets.

use crate::relation::group_by;
use deptree_core::{Fhd, Mvd, Violation};
use deptree_relation::{AttrSet, Relation, Value};
use std::collections::{HashMap, HashSet};

/// A projected tuple.
type Tuple = Vec<Value>;

/// The distinct `Y`-, `Z`- and `(Y, Z)`-tuples of the group `rows`.
fn projections(
    r: &Relation,
    rows: &[usize],
    y: AttrSet,
    z: AttrSet,
) -> (HashSet<Tuple>, HashSet<Tuple>, HashSet<(Tuple, Tuple)>) {
    let mut ys = HashSet::new();
    let mut zs = HashSet::new();
    let mut yzs = HashSet::new();
    for &row in rows {
        let (yv, zv) = (r.project_row(row, y), r.project_row(row, z));
        ys.insert(yv.clone());
        zs.insert(zv.clone());
        yzs.insert((yv, zv));
    }
    (ys, zs, yzs)
}

/// Reference for `Mvd::spurious_tuples`: `Σ (|Y_g|·|Z_g| − |YZ_g|)` over
/// hash sets of projected tuples.
pub fn spurious_tuples(r: &Relation, mvd: &Mvd) -> usize {
    let z = mvd.z(r);
    group_by(r, mvd.x())
        .values()
        .map(|rows| {
            let (ys, zs, yzs) = projections(r, rows, mvd.y(), z);
            ys.len() * zs.len() - yzs.len()
        })
        .sum()
}

/// Reference for `Mvd::join_size`: `Σ |Y_g|·|Z_g|`.
pub fn join_size(r: &Relation, mvd: &Mvd) -> usize {
    let z = mvd.z(r);
    group_by(r, mvd.x())
        .values()
        .map(|rows| {
            let (ys, zs, _) = projections(r, rows, mvd.y(), z);
            ys.len() * zs.len()
        })
        .sum()
}

/// Reference for `Mvd::violations`: per `X`-group, the smallest row of each
/// `(Y, Z)`-tuple, and a witness per pair of them missing a recombination.
pub fn violations(r: &Relation, mvd: &Mvd) -> Vec<Violation> {
    let z = mvd.z(r);
    let mut out = Vec::new();
    for rows in group_by(r, mvd.x()).values() {
        let (_, _, yzs) = projections(r, rows, mvd.y(), z);
        let mut reps: HashMap<(Tuple, Tuple), usize> = HashMap::new();
        for &row in rows {
            reps.entry((r.project_row(row, mvd.y()), r.project_row(row, z)))
                .or_insert(row);
        }
        let mut reps: Vec<((Tuple, Tuple), usize)> = reps.into_iter().collect();
        reps.sort_by_key(|(_, row)| *row);
        for (i, ((y1, z1), r1)) in reps.iter().enumerate() {
            for ((y2, z2), r2) in &reps[i + 1..] {
                if !yzs.contains(&(y1.clone(), z2.clone()))
                    || !yzs.contains(&(y2.clone(), z1.clone()))
                {
                    out.push(Violation::pair(*r1, *r2, mvd.y().union(z)));
                }
            }
        }
    }
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out
}

/// Reference for `Mvd::missing_tuples` and for the rows
/// `quality::fairness::saturate` inserts: every recombination
/// `(x, y, z)` of an `X`-group's `Y`- and `Z`-tuples that no row carries,
/// as a full tuple in schema order, sorted.
pub fn missing_tuples(r: &Relation, mvd: &Mvd) -> Vec<Tuple> {
    let z = mvd.z(r);
    let mut out = Vec::new();
    for rows in group_by(r, mvd.x()).values() {
        let (ys, zs, yzs) = projections(r, rows, mvd.y(), z);
        for yv in &ys {
            for zv in &zs {
                if yzs.contains(&(yv.clone(), zv.clone())) {
                    continue;
                }
                let mut tuple = r.row(rows[0]);
                for (a, v) in mvd.y().iter().zip(yv).chain(z.iter().zip(zv)) {
                    tuple[a.index()] = v.clone();
                }
                out.push(tuple);
            }
        }
    }
    out.sort();
    out
}

/// Reference for `Fhd::spurious_tuples`: `Σ (Π_i |Yᵢ_g| · |rest_g| −
/// |tuples_g|)` over hash sets of projected tuples.
pub fn fhd_spurious_tuples(r: &Relation, fhd: &Fhd) -> usize {
    let rest = fhd.rest(r);
    let distinct = |rows: &[usize], attrs: AttrSet| {
        let set: HashSet<Tuple> = rows.iter().map(|&row| r.project_row(row, attrs)).collect();
        set.len()
    };
    group_by(r, fhd.x())
        .values()
        .map(|rows| {
            let mut join = 1usize;
            for &y in fhd.ys() {
                join = join.saturating_mul(distinct(rows, y));
            }
            if !rest.is_empty() {
                join = join.saturating_mul(distinct(rows, rest));
            }
            join - distinct(rows, r.all_attrs())
        })
        .sum()
}

/// Reference for `quality::fairness::prune`: per `X`-group, keep the rows
/// of the largest `Y`-block, ties to the smallest `Y`-tuple.
pub fn prune(r: &Relation, mvd: &Mvd) -> (Relation, Vec<usize>) {
    let mut keep = Vec::new();
    let mut deleted = Vec::new();
    for rows in group_by(r, mvd.x()).values() {
        let mut blocks: HashMap<Tuple, Vec<usize>> = HashMap::new();
        for &t in rows {
            blocks.entry(r.project_row(t, mvd.y())).or_default().push(t);
        }
        let Some((_, kept)) = blocks
            .iter()
            .max_by(|a, b| a.1.len().cmp(&b.1.len()).then_with(|| b.0.cmp(a.0)))
        else {
            continue;
        };
        for &t in rows {
            if kept.contains(&t) {
                keep.push(t);
            } else {
                deleted.push(t);
            }
        }
    }
    keep.sort_unstable();
    deleted.sort_unstable();
    (r.select_rows(&keep), deleted)
}
