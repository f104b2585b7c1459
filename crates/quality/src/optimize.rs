//! Query-optimization applications (Table 3): SFD joint statistics for
//! selectivity estimation (§2.1.4), NUD cardinality bounds (§2.4.3), and
//! OD sort-order/index elimination (§4.2.4).

use deptree_core::{Dependency, Nud, Od};
use deptree_relation::{AttrId, AttrSet, Relation, Value};

/// Estimate the selectivity of `σ_{a = va ∧ b = vb}` two ways:
///
/// * `independent` — the textbook attribute-value-independence estimate
///   `sel(a) × sel(b)`;
/// * `joint` — using the joint distinct statistics an optimizer would
///   collect for columns CORDS flags as soft-FD-correlated: the actual
///   fraction of rows matching both.
///
/// The gap between them on correlated columns is exactly the estimation
/// error SFDs exist to eliminate (§2.1.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityEstimate {
    /// Independence-assumption estimate.
    pub independent: f64,
    /// Joint-statistics estimate (exact on the instance).
    pub joint: f64,
}

/// Compute both estimates for a conjunctive equality predicate.
pub fn conjunctive_selectivity(
    r: &Relation,
    a: AttrId,
    va: &Value,
    b: AttrId,
    vb: &Value,
) -> SelectivityEstimate {
    let n = r.n_rows() as f64;
    if n == 0.0 {
        return SelectivityEstimate {
            independent: 0.0,
            joint: 0.0,
        };
    }
    let sel = |attr: AttrId, v: &Value| {
        (0..r.n_rows())
            .filter(|&row| r.value(row, attr) == v)
            .count() as f64
            / n
    };
    let both = (0..r.n_rows())
        .filter(|&row| r.value(row, a) == va && r.value(row, b) == vb)
        .count() as f64
        / n;
    SelectivityEstimate {
        independent: sel(a, va) * sel(b, vb),
        joint: both,
    }
}

/// NUD-based projection-size bound (§2.4.3): if `X →ₖ Y` holds, then
/// `|π_{X∪Y}(r)| ≤ k · |π_X(r)|`. Returns `(bound, actual)` so callers
/// can check tightness.
pub fn projection_size_bound(r: &Relation, nud: &Nud) -> (usize, usize) {
    let dist_x = r.distinct_count(nud.lhs());
    let actual = r.distinct_count(nud.lhs().union(nud.rhs()));
    (nud.k() * dist_x, actual)
}

/// NUD-based aggregate-view cardinality bound: a `GROUP BY X` view joined
/// with its `Y` associations has at most `k · |π_X|` rows.
pub fn aggregate_view_bound(r: &Relation, nud: &Nud) -> usize {
    nud.k() * r.distinct_count(nud.lhs())
}

/// OD sort-order elimination (§4.2.4): data sorted on the OD's LHS is
/// already sorted on its RHS, so a sort (or secondary index) on the RHS
/// can be elided. Returns true when the optimization is sound on this
/// instance — i.e. the OD holds.
pub fn can_elide_sort(r: &Relation, od: &Od) -> bool {
    od.holds(r)
}

/// Verify the elision concretely: sort by the OD's LHS and check the RHS
/// sequence is ordered in its marked direction (ties broken arbitrarily).
pub fn verify_elided_order(r: &Relation, od: &Od) -> bool {
    let lhs_attrs: AttrSet = od.lhs().iter().map(|(a, _)| *a).collect();
    let order = r.sorted_rows(lhs_attrs);
    for w in order.windows(2) {
        for &(attr, dir) in od.rhs() {
            let ord = r.value(w[0], attr).numeric_cmp(r.value(w[1], attr));
            let ok = match dir {
                deptree_core::Direction::Asc => ord != std::cmp::Ordering::Greater,
                deptree_core::Direction::Desc => ord != std::cmp::Ordering::Less,
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Direction;
    use deptree_relation::examples::hotels_r7;
    use deptree_synth::{categorical, CategoricalConfig};

    #[test]
    fn correlated_columns_break_independence() {
        // K0 determines D0: the joint selectivity of a consistent (k, d)
        // pair is sel(k), but independence predicts sel(k)·sel(d) — an
        // underestimate by ~domain size.
        let cfg = CategoricalConfig {
            n_rows: 2000,
            n_key_attrs: 1,
            n_dep_attrs: 1,
            domain: 20,
            error_rate: 0.0,
            seed: 91,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let k = AttrId(0);
        let d = AttrId(1);
        let vk = r.value(0, k).clone();
        let vd = r.value(0, d).clone();
        let est = conjunctive_selectivity(r, k, &vk, d, &vd);
        // Joint ≈ sel(k) ≈ 1/20; independent ≈ 1/400.
        assert!(est.joint > est.independent * 5.0, "{est:?}");
    }

    #[test]
    fn independent_columns_agree() {
        let cfg = CategoricalConfig {
            n_rows: 4000,
            n_key_attrs: 2,
            n_dep_attrs: 0,
            domain: 10,
            error_rate: 0.0,
            seed: 92,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let vk = r.value(0, AttrId(0)).clone();
        let vd = r.value(0, AttrId(1)).clone();
        let est = conjunctive_selectivity(r, AttrId(0), &vk, AttrId(1), &vd);
        // Within 3× of each other on genuinely independent columns.
        assert!(est.joint <= est.independent * 3.0 + 0.01, "{est:?}");
        assert!(est.independent <= est.joint * 3.0 + 0.01, "{est:?}");
    }

    #[test]
    fn nud_bounds_hold_and_are_tight_for_planted_data() {
        use deptree_relation::examples::hotels_r5;
        let r = hotels_r5();
        let s = r.schema();
        let nud = Nud::new(
            s,
            AttrSet::single(s.id("address")),
            AttrSet::single(s.id("region")),
            2,
        );
        assert!(nud.holds(&r));
        let (bound, actual) = projection_size_bound(&r, &nud);
        assert!(actual <= bound);
        assert_eq!(bound, 4); // 2 addresses × k=2
        assert_eq!(actual, 3);
        assert_eq!(aggregate_view_bound(&r, &nud), 4);
    }

    #[test]
    fn od_sort_elision_on_r7() {
        let r = hotels_r7();
        let s = r.schema();
        let od = Od::new(
            s,
            vec![(s.id("nights"), Direction::Asc)],
            vec![(s.id("subtotal"), Direction::Asc)],
        );
        assert!(can_elide_sort(&r, &od));
        assert!(verify_elided_order(&r, &od));
        // Break it.
        let mut r2 = r.clone();
        r2.set_value(0, s.id("subtotal"), 9999.into());
        let od2 = Od::new(
            r2.schema(),
            vec![(s.id("nights"), Direction::Asc)],
            vec![(s.id("subtotal"), Direction::Asc)],
        );
        assert!(!can_elide_sort(&r2, &od2));
        assert!(!verify_elided_order(&r2, &od2));
    }
}
