//! FASTDC evidence sets computed pair by pair.

use deptree_core::engine::Exec;
use deptree_core::{CmpOp, Operand, Predicate};
use deptree_discovery::dc::FastDcStats;
use deptree_relation::{AttrId, Relation};
use std::collections::HashMap;

/// Reference for `discovery::dc::evidence_sets_blocked`: for each ordered
/// tuple pair, the bitset of predicates it satisfies, as distinct evidence
/// sets with their multiplicities.
pub fn evidence_sets(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
) -> HashMap<u64, usize> {
    evidence_sets_bounded(r, preds, stats, &Exec::unbounded()).0
}

/// Budgeted [`evidence_sets`]: each tuple pair costs one engine row tick.
/// Returns the evidence multiset plus a completeness flag.
pub fn evidence_sets_bounded(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
    exec: &Exec,
) -> (HashMap<u64, usize>, bool) {
    assert!(preds.len() <= 64, "predicate space capped at 64 bits");
    let mut evidence: HashMap<u64, usize> = HashMap::new();
    let mut complete = true;
    'scan: for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            if !exec.tick_rows(1) {
                complete = false;
                break 'scan;
            }
            stats.pairs_evaluated += 1;
            let mut bits = 0u64;
            for (k, p) in preds.iter().enumerate() {
                if p.eval(r, i, j) {
                    bits |= 1 << k;
                }
            }
            *evidence.entry(bits).or_default() += 1;
        }
    }
    stats.n_evidence_sets = evidence.len();
    (evidence, complete)
}

/// BFASTDC-style evidence-set construction: instead of evaluating every
/// predicate generically per pair, group the predicates by attribute,
/// compare each pair's attribute values *once*, and set all of that
/// attribute's predicate bits from the single comparison outcome — the
/// bitwise-reuse idea of Pena & de Almeida (§4.3.4). The same evidence
/// sets as [`evidence_sets`], several times faster on wide operator sets;
/// still one visit per ordered pair.
pub fn evidence_sets_grouped(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
) -> HashMap<u64, usize> {
    assert!(preds.len() <= 64, "predicate space capped at 64 bits");
    // Per attribute: (bit, op) lists for symmetric same-attribute
    // predicates; anything else falls back to generic evaluation.
    let mut by_attr: HashMap<AttrId, Vec<(usize, CmpOp)>> = HashMap::new();
    let mut generic: Vec<(usize, &Predicate)> = Vec::new();
    for (k, p) in preds.iter().enumerate() {
        match (&p.left, &p.right) {
            (Operand::First(a), Operand::Second(b)) if a == b => {
                by_attr.entry(*a).or_default().push((k, p.op));
            }
            _ => generic.push((k, p)),
        }
    }
    let attrs: Vec<(AttrId, Vec<(usize, CmpOp)>)> = by_attr.into_iter().collect();
    let mut evidence: HashMap<u64, usize> = HashMap::new();
    for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            stats.pairs_evaluated += 1;
            let mut bits = 0u64;
            for (attr, ops) in &attrs {
                let (vi, vj) = (r.value(i, *attr), r.value(j, *attr));
                if vi.is_null() || vj.is_null() {
                    // Match CmpOp::eval's null semantics predicate-wise.
                    for &(k, op) in ops {
                        if op.eval(vi, vj) {
                            bits |= 1 << k;
                        }
                    }
                    continue;
                }
                let ord = vi.numeric_cmp(vj);
                for &(k, op) in ops {
                    let sat = match (op, ord) {
                        (CmpOp::Eq, std::cmp::Ordering::Equal)
                        | (CmpOp::Leq, std::cmp::Ordering::Equal)
                        | (CmpOp::Geq, std::cmp::Ordering::Equal) => true,
                        (CmpOp::Neq, o) => o != std::cmp::Ordering::Equal,
                        (CmpOp::Lt | CmpOp::Leq, std::cmp::Ordering::Less) => true,
                        (CmpOp::Gt | CmpOp::Geq, std::cmp::Ordering::Greater) => true,
                        _ => false,
                    };
                    if sat {
                        bits |= 1 << k;
                    }
                }
            }
            for (k, p) in &generic {
                if p.eval(r, i, j) {
                    bits |= 1 << k;
                }
            }
            *evidence.entry(bits).or_default() += 1;
        }
    }
    stats.n_evidence_sets = evidence.len();
    evidence
}
