//! Matching dependencies scored over every row pair.

use deptree_core::Md;
use deptree_discovery::md::{self, MdConfig, ScoredMd};
use deptree_discovery::mvd::subsets_up_to;
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation};

/// Reference for `Md::matching_pairs`: every LHS-similar row pair,
/// `(i, j)`-ascending.
pub fn matching_pairs(md: &Md, r: &Relation) -> Vec<(usize, usize)> {
    r.row_pairs()
        .filter(|&(i, j)| md.lhs_similar(r, i, j))
        .collect()
}

/// Reference for `Md::support_confidence`: the fraction of all pairs that
/// are LHS-similar, and the fraction of those already identified on the
/// RHS.
pub fn support_confidence(md: &Md, r: &Relation) -> (f64, f64) {
    let n_pairs = r.n_rows() * r.n_rows().saturating_sub(1) / 2;
    if n_pairs == 0 {
        return (0.0, 1.0);
    }
    let mut matched = 0usize;
    let mut identified = 0usize;
    for (i, j) in r.row_pairs() {
        if md.lhs_similar(r, i, j) {
            matched += 1;
            if r.rows_agree(i, j, md.rhs()) {
                identified += 1;
            }
        }
    }
    let support = matched as f64 / n_pairs as f64;
    let confidence = if matched == 0 {
        1.0
    } else {
        identified as f64 / matched as f64
    };
    (support, confidence)
}

/// Reference for `discovery::md::discover`: the same search order,
/// thresholds and domination pruning, every combination scored serially
/// with [`support_confidence`].
pub fn discover(r: &Relation, rhs: AttrSet, cfg: &MdConfig) -> Vec<ScoredMd> {
    let schema = r.schema();
    let candidates: AttrSet = schema.ids().filter(|a| !rhs.contains(*a)).collect();
    let mut out: Vec<ScoredMd> = Vec::new();
    for lhs_set in subsets_up_to(candidates, cfg.max_lhs) {
        let lhs_attrs = lhs_set.to_vec();
        for combo in &md::threshold_combos(r, &lhs_attrs, cfg) {
            let lhs: Vec<(AttrId, Metric, f64)> = lhs_attrs
                .iter()
                .zip(combo)
                .map(|(&a, &t)| (a, Metric::default_for(schema.ty(a)), t))
                .collect();
            let md = Md::new(schema, lhs, rhs);
            let (support, confidence) = support_confidence(&md, r);
            md::merge_scored(
                &mut out,
                ScoredMd {
                    md,
                    support,
                    confidence,
                },
                cfg,
            );
        }
    }
    out.sort_by(|a, b| b.support.total_cmp(&a.support));
    out
}
