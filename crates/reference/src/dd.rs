//! Differential dependencies scored over every row pair.

use deptree_core::{Dd, DiffAtom};
use deptree_discovery::dd::{self, DdConfig};
use deptree_discovery::mvd::subsets_up_to;
use deptree_metrics::{DistRange, Metric};
use deptree_relation::{AttrId, Relation};

/// Reference for `Dd::support_confidence`: the number of LHS-compatible
/// row pairs, and the fraction of those that are RHS-compatible too.
pub fn support_confidence(d: &Dd, r: &Relation) -> (usize, f64) {
    let mut matched = 0usize;
    let mut ok = 0usize;
    for (i, j) in r.row_pairs() {
        if d.lhs_compatible(r, i, j) {
            matched += 1;
            if d.rhs_compatible(r, i, j) {
                ok += 1;
            }
        }
    }
    let conf = if matched == 0 {
        1.0
    } else {
        ok as f64 / matched as f64
    };
    (matched, conf)
}

/// Reference for `discovery::dd::discover`: the same search order,
/// thresholds and subsumption pruning, but every (LHS-combo, RHS) candidate
/// is scored with its own full pair scan.
pub fn discover(r: &Relation, cfg: &DdConfig) -> Vec<Dd> {
    let schema = r.schema();
    let attrs: Vec<AttrId> = schema.ids().collect();
    let metrics: Vec<Metric> = attrs
        .iter()
        .map(|&a| Metric::default_for(schema.ty(a)))
        .collect();
    let thresholds: Vec<Vec<f64>> = attrs
        .iter()
        .map(|&a| dd::candidate_thresholds(r, a, &metrics[a.0], cfg.thresholds_per_attr))
        .collect();

    let mut out: Vec<Dd> = Vec::new();
    for lhs_set in subsets_up_to(r.all_attrs(), cfg.max_lhs) {
        let lhs_attrs = lhs_set.to_vec();
        let mut combos: Vec<Vec<f64>> = vec![vec![]];
        for &a in &lhs_attrs {
            combos = combos
                .iter()
                .flat_map(|c| {
                    thresholds[a.0].iter().map(move |&t| {
                        let mut c2 = c.clone();
                        c2.push(t);
                        c2
                    })
                })
                .collect();
        }
        for combo in combos {
            let lhs: Vec<DiffAtom> = lhs_attrs
                .iter()
                .zip(&combo)
                .map(|(&a, &t)| DiffAtom::at_most(a, metrics[a.0].clone(), t))
                .collect();
            for &rhs_attr in &attrs {
                if lhs_set.contains(rhs_attr) {
                    continue;
                }
                let mut support = 0usize;
                let mut max_rhs: f64 = 0.0;
                for (i, j) in r.row_pairs() {
                    if lhs.iter().all(|atom| atom.compatible(r, i, j)) {
                        support += 1;
                        let d =
                            metrics[rhs_attr.0].dist(r.value(i, rhs_attr), r.value(j, rhs_attr));
                        max_rhs = max_rhs.max(d);
                    }
                }
                if support < cfg.min_support || !max_rhs.is_finite() {
                    continue;
                }
                let cand = Dd::new(
                    schema,
                    lhs.clone(),
                    vec![DiffAtom::new(
                        rhs_attr,
                        metrics[rhs_attr.0].clone(),
                        DistRange::at_most(max_rhs),
                    )],
                );
                if !out.iter().any(|prev| dd::subsumes(prev, &cand)) {
                    out.retain(|prev| !dd::subsumes(&cand, prev));
                    out.push(cand);
                }
            }
        }
    }
    out
}
