//! Row-major order-dependency check for the single-atom case.

use deptree_core::Direction;
use deptree_relation::Value;
use std::cmp::Ordering;

/// Reference for the single-atom check `Od::holds` runs on an OD
/// `A^da → B^db` (`Od::single_atom_verdicts` over rows counting-sorted by
/// numeric rank), here a comparison sort over the two `Value` columns.
///
/// Rows are sorted by `A` in the marked direction under `numeric_cmp`.
/// Within a run of `A`-equal rows both pair orientations fire the premise,
/// forcing numeric `B`-equality; across runs `A` strictly precedes, so `B`
/// must be monotone in the marked direction between consecutive run heads.
pub fn holds_sorted(ca: &[Value], da: Direction, cb: &[Value], db: Direction) -> bool {
    let n = ca.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&i, &j| {
        let ord = ca[i].numeric_cmp(&ca[j]);
        match da {
            Direction::Asc => ord,
            Direction::Desc => ord.reverse(),
        }
    });
    let mut start = 0;
    let mut prev_rep: Option<usize> = None;
    while start < n {
        let head = order[start];
        let mut end = start + 1;
        while end < n && ca[head].numeric_cmp(&ca[order[end]]) == Ordering::Equal {
            if cb[head].numeric_cmp(&cb[order[end]]) != Ordering::Equal {
                return false;
            }
            end += 1;
        }
        if let Some(p) = prev_rep {
            let ord = cb[p].numeric_cmp(&cb[head]);
            let ok = match db {
                Direction::Asc => ord != Ordering::Greater,
                Direction::Desc => ord != Ordering::Less,
            };
            if !ok {
                return false;
            }
        }
        prev_rep = Some(head);
        start = end;
    }
    true
}
