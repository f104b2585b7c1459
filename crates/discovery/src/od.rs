//! Order-dependency discovery (§4.2.3): a list-based search over marked
//! attributes, on every column pair.
//!
//! Single-atom candidates `A^≤ → B^d` are decided by the one single-atom
//! check, [`Od::single_atom_verdicts`]: the rows are counting-sorted by
//! `A`'s numeric rank once per LHS attribute, and one linear pass per RHS
//! attribute decides both directions. With `max_lhs ≥ 2`, pointwise
//! two-atom compounds `A1^≤, A2^≤ → B^d` whose single-atom premises both
//! fail are checked pair by pair.

use deptree_core::engine::{Exec, Outcome};
use deptree_core::{Dependency, Direction, Od, SingleAtomVerdicts};
use deptree_relation::{AttrId, Relation};

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct OdConfig {
    /// Maximum marked attributes on the LHS.
    pub max_lhs: usize,
}

impl Default for OdConfig {
    fn default() -> Self {
        OdConfig { max_lhs: 1 }
    }
}

/// Cheap deterministic prefilter for compound candidates: scan all pairs
/// drawn from a strided sample of at most [`PREFILTER_ROWS`] rows. Any
/// violating sample pair refutes the OD outright, skipping the full
/// validation; a clean sample proves nothing, so the full check still
/// runs. Output is therefore unchanged.
fn sample_refutes(r: &Relation, od: &Od) -> bool {
    const PREFILTER_ROWS: usize = 64;
    let n = r.n_rows();
    let stride = (n / PREFILTER_ROWS).max(1);
    let rows: Vec<usize> = (0..n).step_by(stride).take(PREFILTER_ROWS).collect();
    for (x, &i) in rows.iter().enumerate() {
        for &j in &rows[x + 1..] {
            if !od.pair_ok(r, i, j) || !od.pair_ok(r, j, i) {
                return true;
            }
        }
    }
    false
}

/// Discover all valid ODs over every column pair (numeric or not, under
/// `numeric_cmp`), canonicalized so the LHS marks are always ascending
/// (`A^≥ → B^d` equals `A^≤ → B^d̄`). Single-atom ODs come first, in
/// (A, B, direction) order; then, with `max_lhs ≥ 2`, the minimal
/// two-atom compounds.
pub fn discover(r: &Relation, cfg: &OdConfig) -> Vec<Od> {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: each candidate OD costs one node tick plus one
/// row tick per row validated, taken before the candidate can be
/// emitted. ODs are emitted only after validation, so partial results
/// are sound; unvisited candidates are forfeit.
pub fn discover_bounded(r: &Relation, cfg: &OdConfig, exec: &Exec) -> Outcome<Vec<Od>> {
    let mut out = Vec::new();
    let attrs: Vec<AttrId> = r.schema().ids().collect();
    let k = attrs.len();
    // verdicts[a·k + b]: both directions of `a^≤ → b`. The single-atom
    // loop fills every entry unless a budget stops it, and exhaustion is
    // sticky, so the compound loop only reads filled entries.
    let mut verdicts = vec![SingleAtomVerdicts::default(); k * k];
    'single: for &a in &attrs {
        let mut order = None;
        for &b in &attrs {
            if a == b {
                continue;
            }
            for db in [Direction::Asc, Direction::Desc] {
                if !exec.tick_node() || !exec.tick_rows(r.n_rows() as u64) {
                    break 'single;
                }
                if db == Direction::Asc {
                    let order = order.get_or_insert_with(|| r.rows_by_num_rank(a));
                    verdicts[a.0 * k + b.0] = Od::single_atom_verdicts(r, order, a, b);
                }
                if verdicts[a.0 * k + b.0].holds(Direction::Asc, db) {
                    out.push(Od::new(
                        r.schema(),
                        vec![(a, Direction::Asc)],
                        vec![(b, db)],
                    ));
                }
            }
        }
    }
    // Compound LHS (pointwise two-atom lists) when requested.
    if cfg.max_lhs >= 2 {
        'compound: for &a1 in &attrs {
            for &a2 in &attrs {
                if a1 >= a2 {
                    continue;
                }
                for &b in &attrs {
                    if b == a1 || b == a2 {
                        continue;
                    }
                    for db in [Direction::Asc, Direction::Desc] {
                        if !exec.tick_node() || !exec.tick_rows(3 * r.n_rows() as u64) {
                            break 'compound;
                        }
                        // Only report if neither single-attribute premise
                        // already suffices (minimality).
                        if verdicts[a1.0 * k + b.0].holds(Direction::Asc, db)
                            || verdicts[a2.0 * k + b.0].holds(Direction::Asc, db)
                        {
                            continue;
                        }
                        let od = Od::new(
                            r.schema(),
                            vec![(a1, Direction::Asc), (a2, Direction::Asc)],
                            vec![(b, db)],
                        );
                        if !sample_refutes(r, &od) && od.holds(r) {
                            out.push(od);
                        }
                    }
                }
            }
        }
    }
    exec.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r7;
    use deptree_relation::{RelationBuilder, ValueType};

    #[test]
    fn discovery_agrees_with_pairwise_semantics() {
        // Every single-atom OD the pair scan accepts, in discovery's order.
        let r = hotels_r7();
        let s = r.schema();
        let mut want = Vec::new();
        for a in s.ids() {
            for b in s.ids().filter(|&b| b != a) {
                for db in [Direction::Asc, Direction::Desc] {
                    let od = Od::new(s, vec![(a, Direction::Asc)], vec![(b, db)]);
                    if od.holds_pairwise(&r) {
                        want.push(od);
                    }
                }
            }
        }
        assert_eq!(discover(&r, &OdConfig::default()), want);
    }

    #[test]
    fn discovers_both_paper_ods_on_r7() {
        let r = hotels_r7();
        let s = r.schema();
        let found = discover(&r, &OdConfig::default());
        let has = |lhs: &str, rhs: &str, d: Direction| {
            found
                .iter()
                .any(|od| od.lhs() == [(s.id(lhs), Direction::Asc)] && od.rhs() == [(s.id(rhs), d)])
        };
        // od1: nights^≤ → avg/night^≥ and ofd1-as-od: subtotal^≤ → taxes^≤.
        assert!(has("nights", "avg/night", Direction::Desc));
        assert!(has("subtotal", "taxes", Direction::Asc));
        // All discovered ODs hold.
        for od in &found {
            assert!(od.holds(&r), "{od}");
        }
    }

    #[test]
    fn ties_on_lhs_require_equal_rhs() {
        let r = RelationBuilder::new()
            .attr("a", ValueType::Numeric)
            .attr("b", ValueType::Numeric)
            .row(vec![1.into(), 10.into()])
            .row(vec![1.into(), 20.into()]) // tie on a, different b
            .row(vec![2.into(), 30.into()])
            .build()
            .unwrap();
        let s = r.schema();
        let found = discover(&r, &OdConfig::default());
        assert!(
            !found
                .iter()
                .any(|od| od.lhs() == [(s.id("a"), Direction::Asc)]),
            "{found:?}"
        );
    }

    #[test]
    fn compound_lhs_found_only_when_needed() {
        // Every row pair is pointwise-incomparable on (a1, a2) — the
        // compound premise is vacuous, so the compound OD holds — while b
        // is monotone in neither a1 nor a2 alone.
        let r = RelationBuilder::new()
            .attr("a1", ValueType::Numeric)
            .attr("a2", ValueType::Numeric)
            .attr("b", ValueType::Numeric)
            .row(vec![1.into(), 3.into(), 10.into()])
            .row(vec![2.into(), 2.into(), 20.into()])
            .row(vec![3.into(), 1.into(), 15.into()])
            .build()
            .unwrap();
        let s = r.schema();
        for a in ["a1", "a2"] {
            let single = Od::new(
                s,
                vec![(s.id(a), Direction::Asc)],
                vec![(s.id("b"), Direction::Asc)],
            );
            assert!(!single.holds_pairwise(&r), "{single}");
        }
        let found = discover(&r, &OdConfig { max_lhs: 2 });
        let compound = found
            .iter()
            .find(|od| od.lhs().len() == 2 && od.rhs()[0].0 == s.id("b"));
        assert!(compound.is_some(), "{found:?}");
    }
}
