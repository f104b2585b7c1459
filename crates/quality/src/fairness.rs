//! Model fairness via MVDs (Salimi et al., §2.6.4 / Table 3): causal
//! fairness of training data reduces to the MVD `X ↠ Y` — the protected
//! attributes `Y` must be conditionally independent of the rest given the
//! admissible attributes `X` — and enforcing it is a database repair.

use deptree_core::Mvd;
use deptree_relation::{Relation, StrippedPartition};

/// Measure the fairness violation: the number of missing "interventional"
/// tuples — recombinations `(x, y, z)` the conditional-independence MVD
/// requires but the data lacks. Zero means the dataset is (saturation-)
/// fair w.r.t. the MVD.
pub fn fairness_violation(r: &Relation, mvd: &Mvd) -> usize {
    mvd.spurious_tuples(r)
}

/// Saturation repair: *insert* the missing recombinations so the MVD holds
/// — the tuple-generating repair direction (every per-`X` group becomes
/// the cross product of its `Y` and `Z` projections). Returns the repaired
/// relation and the number of inserted tuples, appended in the order of
/// [`Mvd::missing_tuples`]: `X`-groups, then `Y`-values, then `Z`-values,
/// each by first row.
pub fn saturate(r: &Relation, mvd: &Mvd) -> (Relation, usize) {
    let z = mvd.z(r);
    let mut rel = r.clone();
    let mut inserted = 0usize;
    for (y_row, z_row) in mvd.missing_tuples(r) {
        let tuple = r
            .schema()
            .ids()
            .map(|a| {
                r.value(if z.contains(a) { z_row } else { y_row }, a)
                    .clone()
            })
            .collect();
        if rel.push_row(tuple).is_ok() {
            inserted += 1;
        }
    }
    (rel, inserted)
}

/// Deletion repair: *remove* tuples until the MVD holds, greedily deleting
/// from the smallest offending `(Y, Z)` blocks — useful when synthetic
/// insertion is unacceptable (e.g. label columns). Returns the repaired
/// relation and the deleted row indices.
pub fn prune(r: &Relation, mvd: &Mvd) -> (Relation, Vec<usize>) {
    // Keep, per X-group, only the tuples of the largest Y-block (ties to
    // the smallest Y-value) crossed with the Z values present in that
    // block — a simple sufficient strategy: restrict each group to a
    // single Y value (independence holds trivially when |Y| = 1 per
    // group).
    let y = mvd.y();
    let mut by_y = StrippedPartition::from_attrs(r, mvd.x().union(y)).splitter();
    let value = |row: usize| r.project_row(row, y);
    let mut deleted: Vec<usize> = Vec::new();
    for class in StrippedPartition::from_attrs(r, mvd.x()).classes() {
        let best = by_y.split(class).iter().max_by(|a, b| {
            a.len
                .cmp(&b.len)
                .then_with(|| value(b.first).cmp(&value(a.first)))
        });
        if let Some(best) = best {
            deleted.extend(class.iter().filter(|&&t| !r.rows_agree(t, best.first, y)));
        }
    }
    deleted.sort_unstable();
    let keep: Vec<usize> = (0..r.n_rows())
        .filter(|t| deleted.binary_search(t).is_err())
        .collect();
    (r.select_rows(&keep), deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::{AttrSet, RelationBuilder, Value, ValueType};

    /// Hiring data where gender correlates with outcome given the
    /// admissible attribute (department): the classic Simpson's-paradox
    /// setup Salimi et al. repair.
    fn hiring() -> Relation {
        RelationBuilder::new()
            .attr("dept", ValueType::Categorical)
            .attr("gender", ValueType::Categorical)
            .attr("hired", ValueType::Categorical)
            .row(vec!["eng".into(), "m".into(), "yes".into()])
            .row(vec!["eng".into(), "m".into(), "no".into()])
            .row(vec!["eng".into(), "f".into(), "no".into()])
            .row(vec!["sales".into(), "f".into(), "yes".into()])
            .build()
            .unwrap()
    }

    fn fairness_mvd(r: &Relation) -> Mvd {
        let s = r.schema();
        Mvd::new(
            s,
            AttrSet::single(s.id("dept")),
            AttrSet::single(s.id("gender")),
        )
    }

    #[test]
    fn violation_measured() {
        let r = hiring();
        let mvd = fairness_mvd(&r);
        // eng group: genders {m, f} × outcomes {yes, no} = 4 combos,
        // 3 present → 1 missing (f, yes).
        assert_eq!(fairness_violation(&r, &mvd), 1);
        assert!(!mvd.holds(&r));
    }

    #[test]
    fn saturation_restores_independence() {
        let r = hiring();
        let mvd = fairness_mvd(&r);
        let (fixed, inserted) = saturate(&r, &mvd);
        assert_eq!(inserted, 1);
        assert_eq!(fixed.n_rows(), 5);
        assert!(mvd.holds(&fixed));
        assert_eq!(fairness_violation(&fixed, &mvd), 0);
        // The inserted tuple is the missing (eng, f, yes).
        let s = fixed.schema();
        let last = fixed.n_rows() - 1;
        assert_eq!(fixed.value(last, s.id("dept")), &Value::str("eng"));
        assert_eq!(fixed.value(last, s.id("gender")), &Value::str("f"));
        assert_eq!(fixed.value(last, s.id("hired")), &Value::str("yes"));
    }

    #[test]
    fn pruning_restores_independence_by_deletion() {
        let r = hiring();
        let mvd = fairness_mvd(&r);
        let (fixed, deleted) = prune(&r, &mvd);
        assert!(!deleted.is_empty());
        let mvd2 = fairness_mvd(&fixed);
        assert!(mvd2.holds(&fixed), "{fixed:?}");
        // Deletion keeps the majority gender block in eng: the two m rows.
        assert_eq!(fixed.n_rows(), 3);
    }

    #[test]
    fn already_fair_data_untouched() {
        let r = RelationBuilder::new()
            .attr("dept", ValueType::Categorical)
            .attr("gender", ValueType::Categorical)
            .attr("hired", ValueType::Categorical)
            .row(vec!["eng".into(), "m".into(), "yes".into()])
            .row(vec!["eng".into(), "f".into(), "yes".into()])
            .row(vec!["eng".into(), "m".into(), "no".into()])
            .row(vec!["eng".into(), "f".into(), "no".into()])
            .build()
            .unwrap();
        let mvd = fairness_mvd(&r);
        assert!(mvd.holds(&r));
        let (sat, inserted) = saturate(&r, &mvd);
        assert_eq!(inserted, 0);
        assert_eq!(sat.n_rows(), 4);
    }
}
