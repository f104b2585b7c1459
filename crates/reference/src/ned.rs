//! Neighborhood dependencies scored over every row pair.

use deptree_core::Ned;
use deptree_relation::Relation;

/// Reference for `Ned::support_confidence`: the number of LHS-agreeing row
/// pairs, and the fraction of those that also satisfy the RHS.
pub fn support_confidence(ned: &Ned, r: &Relation) -> (usize, f64) {
    let mut matched = 0usize;
    let mut satisfied = 0usize;
    for (i, j) in r.row_pairs() {
        if ned.lhs_agrees(r, i, j) {
            matched += 1;
            if ned.rhs_agrees(r, i, j) {
                satisfied += 1;
            }
        }
    }
    let conf = if matched == 0 {
        1.0
    } else {
        satisfied as f64 / matched as f64
    };
    (matched, conf)
}
