//! Row-major grouping, ordering and partitioning: every key is a projected
//! `Value` tuple, every comparison a `Value` comparison.

use deptree_relation::{AttrId, AttrSet, Relation, Value};
use std::collections::HashMap;

/// One attribute's cells, cloned into a `Value` column in row order.
pub fn column(r: &Relation, attr: AttrId) -> Vec<Value> {
    (0..r.n_rows())
        .map(|row| r.value(row, attr).clone())
        .collect()
}

/// Rows keyed by their projected `Value` tuple (attributes in increasing
/// order), row lists ascending — the hash grouping every row-major oracle
/// here is built on.
pub fn group_by(r: &Relation, attrs: AttrSet) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for row in 0..r.n_rows() {
        groups
            .entry(r.project_row(row, attrs))
            .or_default()
            .push(row);
    }
    groups
}

/// Reference for `StrippedPartition::from_attrs(..).into_groups()`: the
/// groups of [`group_by`], singletons included, in first-row order.
pub fn groups(r: &Relation, attrs: AttrSet) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = group_by(r, attrs).into_values().collect();
    groups.sort_unstable_by_key(|g| g[0]);
    groups
}

/// Reference for `Relation::distinct_count`: the number of distinct
/// projected tuples (one — the empty tuple — for `∅` on a non-empty
/// relation).
pub fn distinct_count(r: &Relation, attrs: AttrSet) -> usize {
    group_by(r, attrs).len()
}

/// Reference for `Relation::sorted_rows`: a stable sort of the row ids by
/// their `Value`s on `attrs`, compared attribute by attribute.
pub fn sorted_rows(r: &Relation, attrs: AttrSet) -> Vec<usize> {
    let attr_list: Vec<AttrId> = attrs.to_vec();
    let mut rows: Vec<usize> = (0..r.n_rows()).collect();
    rows.sort_by(|&a, &b| {
        attr_list
            .iter()
            .map(|&attr| r.value(a, attr).cmp(r.value(b, attr)))
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Reference for `StrippedPartition::from_column(..).classes()`: rows of a
/// `Value` column grouped by value, singletons dropped, in canonical order
/// (rows ascending within a class, classes by first row).
pub fn column_partition(col: &[Value]) -> Vec<Vec<usize>> {
    let mut groups: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (row, v) in col.iter().enumerate() {
        groups.entry(v).or_default().push(row);
    }
    stripped(groups.into_values())
}

/// Reference for `StrippedPartition::from_attrs(..).classes()` and for the
/// partitions TANE computes level by level as products: the stripped
/// classes of [`group_by`], in canonical order.
pub fn partition(r: &Relation, attrs: AttrSet) -> Vec<Vec<usize>> {
    stripped(group_by(r, attrs).into_values())
}

/// Drop singleton groups and order the rest canonically. Groups arrive with
/// ascending rows (both builders visit rows in order), so ordering the
/// disjoint classes lexicographically orders them by first row.
fn stripped(groups: impl Iterator<Item = Vec<usize>>) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = groups.filter(|g| g.len() >= 2).collect();
    classes.sort_unstable();
    classes
}
