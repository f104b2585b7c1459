//! Differential-dependency discovery (Song–Chen, §3.3.3): determine
//! distance thresholds from the data's distance distribution, then search
//! the interval lattice for minimal DDs with subsumption pruning.

use deptree_core::engine::{Exec, Outcome};
use deptree_core::{Dd, DiffAtom};
use deptree_metrics::{DistRange, Metric};
use deptree_relation::{AttrId, Relation};

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct DdConfig {
    /// How many candidate thresholds to derive per attribute from the
    /// pairwise-distance distribution (the "parameter-free determination"
    /// of \[88, 89\] uses distribution quantiles; we take `k` evenly
    /// spaced quantiles of the observed distances).
    pub thresholds_per_attr: usize,
    /// Minimum number of LHS-compatible pairs for a DD to be interesting.
    pub min_support: usize,
    /// Maximum LHS atoms.
    pub max_lhs: usize,
}

impl Default for DdConfig {
    fn default() -> Self {
        DdConfig {
            thresholds_per_attr: 4,
            min_support: 2,
            max_lhs: 2,
        }
    }
}

/// Row cap for threshold derivation: relations larger than this use a
/// deterministic strided sample of rows, bounding the distance
/// distribution pass at `O(SAMPLE²)` instead of `O(n²)`. The sample is a
/// pure function of `n_rows`, so every discovery path (naive or indexed)
/// derives identical thresholds.
const THRESHOLD_SAMPLE_ROWS: usize = 512;

/// Candidate thresholds for `attr`: distinct quantiles of the observed
/// pairwise distances (the data-driven threshold determination step).
/// On relations above `THRESHOLD_SAMPLE_ROWS` (512) rows the distribution is
/// taken over a deterministic strided row sample.
pub fn candidate_thresholds(r: &Relation, attr: AttrId, metric: &Metric, k: usize) -> Vec<f64> {
    let n = r.n_rows();
    let sample: Vec<usize> = if n <= THRESHOLD_SAMPLE_ROWS {
        (0..n).collect()
    } else {
        let stride = n / THRESHOLD_SAMPLE_ROWS;
        (0..THRESHOLD_SAMPLE_ROWS).map(|i| i * stride).collect()
    };
    let mut dists: Vec<f64> = Vec::new();
    for (si, &i) in sample.iter().enumerate() {
        for &j in &sample[si + 1..] {
            let d = metric.dist(r.value(i, attr), r.value(j, attr));
            if d.is_finite() {
                dists.push(d);
            }
        }
    }
    if dists.is_empty() {
        return vec![0.0];
    }
    dists.sort_by(f64::total_cmp);
    let mut out: Vec<f64> = (1..=k)
        .map(|q| dists[(q * (dists.len() - 1)) / k])
        .collect();
    out.insert(0, 0.0);
    out.dedup();
    out
}

/// Discover minimal DDs of the form
/// `A₁(≤τ₁), … → B(≤σ)` — "similar LHS implies similar RHS" — where each
/// `τ` is a candidate threshold and `σ` is the *tightest* RHS bound valid
/// for that LHS (computed, not enumerated). A DD is pruned when a
/// discovered DD subsumes it: looser LHS (accepts more pairs) and tighter
/// or equal RHS.
pub fn discover(r: &Relation, cfg: &DdConfig) -> Vec<Dd> {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: the row budget is charged up front per LHS
/// combo (one tick per candidate pair the index will enumerate) and one
/// node tick is charged per (LHS-combo, RHS) emission. The RHS bound of
/// every emitted DD was computed from a *complete* candidate scan (the
/// whole combo is dropped if its scan cannot be afforded), so partial
/// results are sound.
///
/// Scoring runs one scan per LHS combo over the candidates of the most
/// selective [`deptree_core::pairs::best_index`] for the combo's atoms,
/// accumulating support plus the max RHS distance for *every* non-LHS
/// attribute simultaneously (support depends only on the LHS, so it is
/// shared). Output is identical to scoring every (LHS-combo, RHS)
/// candidate with a full pair scan.
pub fn discover_bounded(r: &Relation, cfg: &DdConfig, exec: &Exec) -> Outcome<Vec<Dd>> {
    let schema = r.schema();
    let attrs: Vec<AttrId> = schema.ids().collect();
    let metrics: Vec<Metric> = attrs
        .iter()
        .map(|&a| Metric::default_for(schema.ty(a)))
        .collect();
    let thresholds: Vec<Vec<f64>> = attrs
        .iter()
        .map(|&a| candidate_thresholds(r, a, &metrics[a.0], cfg.thresholds_per_attr))
        .collect();

    let mut out: Vec<Dd> = Vec::new();
    // LHS: single attributes and pairs (bounded by max_lhs).
    'search: for lhs_set in crate::mvd_subsets(r.all_attrs(), cfg.max_lhs) {
        let lhs_attrs = lhs_set.to_vec();
        // Threshold combinations for the LHS attributes.
        let mut combos: Vec<Vec<f64>> = vec![vec![]];
        for &a in &lhs_attrs {
            let mut next = Vec::new();
            for c in &combos {
                for &t in &thresholds[a.0] {
                    let mut c2 = c.clone();
                    c2.push(t);
                    next.push(c2);
                }
            }
            combos = next;
        }
        let rhs_attrs: Vec<AttrId> = attrs
            .iter()
            .copied()
            .filter(|&a| !lhs_set.contains(a))
            .collect();
        for combo in combos {
            let lhs: Vec<DiffAtom> = lhs_attrs
                .iter()
                .zip(&combo)
                .map(|(&a, &t)| DiffAtom::at_most(a, metrics[a.0].clone(), t))
                .collect();
            let lhs_atoms: Vec<deptree_core::pairs::MetricAtom> = lhs_attrs
                .iter()
                .zip(&combo)
                .map(|(&a, &t)| (a, metrics[a.0].clone(), t))
                .collect();
            let idx = deptree_core::pairs::best_index(r, &lhs_atoms);
            if !exec.tick_rows(idx.n_candidates()) {
                // A bound computed from a partial scan would be unsound;
                // drop the whole combo and stop.
                break 'search;
            }
            // Tightest valid RHS bound per attribute: max RHS distance
            // over LHS-compatible pairs, accumulated in one pass.
            let mut support = 0usize;
            let mut max_rhs: Vec<f64> = vec![0.0; rhs_attrs.len()];
            idx.for_each_candidate(|i, j| {
                if lhs.iter().all(|atom| atom.compatible(r, i, j)) {
                    support += 1;
                    for (k, &b) in rhs_attrs.iter().enumerate() {
                        let d = metrics[b.0].dist(r.value(i, b), r.value(j, b));
                        max_rhs[k] = max_rhs[k].max(d);
                    }
                }
                true
            });
            for (k, &rhs_attr) in rhs_attrs.iter().enumerate() {
                if !exec.tick_node() {
                    break 'search;
                }
                if support < cfg.min_support || !max_rhs[k].is_finite() {
                    continue;
                }
                let cand = Dd::new(
                    schema,
                    lhs.clone(),
                    vec![DiffAtom::new(
                        rhs_attr,
                        metrics[rhs_attr.0].clone(),
                        DistRange::at_most(max_rhs[k]),
                    )],
                );
                if !out.iter().any(|prev| subsumes(prev, &cand)) {
                    out.retain(|prev| !subsumes(&cand, prev));
                    out.push(cand);
                }
            }
        }
    }
    exec.finish(out)
}

/// Does `a` subsume `b`: same attributes, every `b`-LHS atom implies the
/// corresponding `a`-LHS atom is looser (accepts at least those pairs),
/// and `a`'s RHS is at least as tight?
pub fn subsumes(a: &Dd, b: &Dd) -> bool {
    if a.lhs().len() != b.lhs().len() || a.rhs().len() != b.rhs().len() {
        return false;
    }
    let lhs_looser = b.lhs().iter().all(|atom_b| {
        a.lhs()
            .iter()
            .any(|atom_a| atom_a.attr == atom_b.attr && atom_a.subsumes(atom_b))
    });
    let rhs_tighter = a.rhs().iter().all(|atom_a| {
        b.rhs()
            .iter()
            .any(|atom_b| atom_a.attr == atom_b.attr && atom_b.subsumes(atom_a))
    });
    lhs_looser && rhs_tighter
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::hotels_r6;

    #[test]
    fn thresholds_from_distribution() {
        let r = hotels_r6();
        let price = r.schema().id("price");
        let ts = candidate_thresholds(&r, price, &Metric::AbsDiff, 4);
        assert!(ts.len() >= 2);
        assert_eq!(ts[0], 0.0);
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
        // Quantiles must be observed distances.
        let max_price_dist = 499.0 - 299.0;
        assert!(*ts.last().expect("non-empty") <= max_price_dist);
    }

    #[test]
    fn all_discovered_dds_hold() {
        let r = hotels_r6();
        let found = discover(&r, &DdConfig::default());
        assert!(!found.is_empty());
        for dd in &found {
            assert!(dd.holds(&r), "{dd}");
        }
    }

    #[test]
    fn rhs_bounds_are_tight() {
        // Shrinking any RHS bound must break the DD (tightness of the
        // computed σ).
        let r = hotels_r6();
        let found = discover(
            &r,
            &DdConfig {
                max_lhs: 1,
                ..Default::default()
            },
        );
        for dd in found.iter().take(10) {
            let atom = &dd.rhs()[0];
            let sigma = atom.range.max();
            if sigma == 0.0 {
                continue;
            }
            let tighter = Dd::new(
                r.schema(),
                dd.lhs().to_vec(),
                vec![DiffAtom::at_most(
                    atom.attr,
                    atom.metric.clone(),
                    (sigma - 1.0).max(0.0),
                )],
            );
            assert!(!tighter.holds(&r), "σ not tight for {dd}");
        }
    }

    #[test]
    fn subsumption_removes_dominated_rules() {
        let r = hotels_r6();
        let found = discover(&r, &DdConfig::default());
        for a in &found {
            for b in &found {
                if !std::ptr::eq(a, b) {
                    assert!(!subsumes(a, b), "{a} subsumes {b} but both reported");
                }
            }
        }
    }

    #[test]
    fn name_similarity_implies_price_similarity() {
        // On r6, tuples with identical names (distance ≤ 0 on name) have
        // price distance ≤ 1 (NC: 299/300/300). Expect a DD reflecting a
        // small RHS bound for the tight name LHS.
        let r = hotels_r6();
        let s = r.schema();
        let found = discover(
            &r,
            &DdConfig {
                max_lhs: 1,
                ..Default::default()
            },
        );
        let tight = found.iter().find(|dd| {
            dd.lhs().len() == 1
                && dd.lhs()[0].attr == s.id("name")
                && dd.lhs()[0].range.max() == 0.0
                && dd.rhs()[0].attr == s.id("price")
        });
        if let Some(dd) = tight {
            assert!(dd.rhs()[0].range.max() <= 1.0, "{dd}");
        }
        // At minimum, some name → price DD must exist.
        assert!(found
            .iter()
            .any(|dd| dd.lhs()[0].attr == s.id("name") && dd.rhs()[0].attr == s.id("price")));
    }
}
