//! eCFD discovery (Zanzi–Trombetta's "non-constant CFDs with built-in
//! predicates", the survey's \[114\]): mine conditions of the form
//! `A op c` on numeric attributes — with `c` drawn from the attribute's
//! value quantiles — under which an embedded FD holds that fails
//! unconditionally.

use deptree_core::engine::{pool, Exec, Outcome};
use deptree_core::{CmpOp, Dependency, ECfd, Fd, PatternOp};
use deptree_relation::{AttrId, AttrSet, Relation, Value, ValueType};

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct ECfdConfig {
    /// Minimum tuples the condition must cover.
    pub min_support: usize,
    /// Maximum *variable* LHS attributes (besides the condition attribute).
    pub max_lhs: usize,
    /// Candidate constants per condition attribute (value quantiles).
    pub constants_per_attr: usize,
}

impl Default for ECfdConfig {
    fn default() -> Self {
        ECfdConfig {
            min_support: 2,
            max_lhs: 1,
            constants_per_attr: 4,
        }
    }
}

fn numeric_constants(r: &Relation, attr: AttrId, k: usize) -> Vec<Value> {
    let mut vals: Vec<Value> = (0..r.n_rows())
        .map(|row| r.value(row, attr).clone())
        .collect();
    vals.sort();
    vals.dedup();
    if vals.len() <= k {
        return vals;
    }
    (0..k)
        .map(|q| vals[q * (vals.len() - 1) / (k - 1).max(1)].clone())
        .collect()
}

/// Discover eCFDs `(cond_attr op c), X → A` whose embedded FD fails
/// without the condition (the conditional rules that add information).
pub fn discover(r: &Relation, cfg: &ECfdConfig) -> Vec<ECfd> {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: one node tick per candidate rule, row ticks for
/// each validation scan. eCFDs are emitted only after `holds`, so partial
/// results are sound.
/// Candidates are enumerated in the canonical (condition attribute,
/// constant, operator, variable set, RHS) order, the node/row budget is
/// reserved for the whole batch — cutting it to the same prefix the
/// serial tick-per-candidate loop would process — and the validation
/// scans run concurrently on the engine pool. There is no minimality
/// filter, so the surviving rules are merged straight back in order.
pub fn discover_bounded(r: &Relation, cfg: &ECfdConfig, exec: &Exec) -> Outcome<Vec<ECfd>> {
    let schema = r.schema();
    let threads = exec.threads();
    let row_cost = 2 * r.n_rows() as u64;
    let numeric: Vec<AttrId> = schema
        .iter()
        .filter(|(_, a)| a.ty == ValueType::Numeric)
        .map(|(id, _)| id)
        .collect();
    let mut candidates: Vec<(AttrId, Value, CmpOp, AttrSet, AttrId)> = Vec::new();
    for &cond in &numeric {
        let constants = numeric_constants(r, cond, cfg.constants_per_attr);
        for c in &constants {
            for op in [CmpOp::Leq, CmpOp::Gt] {
                for vars in crate::mvd_subsets(r.all_attrs().remove(cond), cfg.max_lhs) {
                    for rhs in schema.ids() {
                        if vars.contains(rhs) || rhs == cond {
                            continue;
                        }
                        candidates.push((cond, c.clone(), op, vars, rhs));
                    }
                }
            }
        }
    }
    let want = candidates.len() as u64;
    let prefix = exec.try_reserve_batch(want, row_cost) as usize;
    let batch = &candidates[..prefix];
    let verdicts = pool::map(threads, batch, |_, (cond, c, op, vars, rhs)| {
        if exec.interrupted() {
            // Deadline/cancellation only; deterministic budgets never cut
            // the granted batch.
            return None;
        }
        // Skip when the unconditioned FD already holds — the condition
        // then adds nothing.
        let plain = Fd::new(schema, *vars, AttrSet::single(*rhs));
        if plain.holds(r) {
            return None;
        }
        let ecfd = ECfd::new(
            schema,
            vars.insert(*cond),
            AttrSet::single(*rhs),
            vec![(*cond, PatternOp::Cmp(*op, c.clone()))],
        );
        (ecfd.matching_rows(r).len() >= cfg.min_support && ecfd.holds(r)).then_some(ecfd)
    });
    let out: Vec<ECfd> = verdicts.into_iter().flatten().collect();
    exec.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r5;

    #[test]
    fn finds_the_papers_ecfd1_shape() {
        // §2.5.5: rate ≤ 200, name = _ → address = _ — name → address
        // fails globally on r5 but holds among the low-rate tuples.
        let r = hotels_r5();
        let s = r.schema();
        let found = discover(&r, &ECfdConfig::default());
        let hit = found.iter().find(|e| {
            e.lhs().contains(s.id("rate"))
                && e.lhs().contains(s.id("name"))
                && e.rhs() == AttrSet::single(s.id("address"))
                && matches!(e.cell(s.id("rate")), PatternOp::Cmp(CmpOp::Leq, _))
        });
        assert!(
            hit.is_some(),
            "{:?}",
            found.iter().map(|e| e.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_found_hold_with_support() {
        let r = hotels_r5();
        let cfg = ECfdConfig::default();
        for e in discover(&r, &cfg) {
            assert!(e.holds(&r), "{e}");
            assert!(e.matching_rows(&r).len() >= cfg.min_support, "{e}");
        }
    }

    #[test]
    fn unconditioned_fds_filtered_out() {
        // address → name holds globally on r5 (all names Hyatt): no eCFD
        // with that embedded FD should be reported.
        let r = hotels_r5();
        let s = r.schema();
        let found = discover(&r, &ECfdConfig::default());
        assert!(!found.iter().any(|e| {
            e.rhs() == AttrSet::single(s.id("name")) && e.lhs().contains(s.id("address"))
        }));
    }

    #[test]
    fn constants_are_quantiles_of_the_column() {
        let r = hotels_r5();
        let cs = numeric_constants(&r, r.schema().id("rate"), 4);
        // Distinct rates {189, 230, 250}: all become candidates.
        assert_eq!(cs.len(), 3);
    }
}
