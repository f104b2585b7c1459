//! Matching-dependency discovery (Song–Chen, §3.7.3): support/confidence
//! search over the similarity predicate space, relative candidate keys,
//! and the greedy concise matching-key cover.

use deptree_core::engine::{pool, Exec, Outcome};
use deptree_core::Md;
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation};
use std::collections::HashSet;

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct MdConfig {
    /// Minimum support (fraction of pairs that are LHS-similar).
    pub min_support: f64,
    /// Minimum confidence (fraction of LHS-similar pairs already
    /// identified on the RHS).
    pub min_confidence: f64,
    /// Candidate thresholds per attribute (distance-distribution
    /// quantiles, as for DDs).
    pub thresholds_per_attr: usize,
    /// Maximum LHS atoms.
    pub max_lhs: usize,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            min_support: 0.01,
            min_confidence: 0.95,
            thresholds_per_attr: 3,
            max_lhs: 2,
        }
    }
}

/// A discovered MD with its measured quality.
#[derive(Debug, Clone)]
pub struct ScoredMd {
    /// The dependency.
    pub md: Md,
    /// Pair support.
    pub support: f64,
    /// Confidence.
    pub confidence: f64,
}

/// Discover MDs `X≈ → rhs⇌` meeting the support/confidence bars, keeping
/// only *relative candidate keys*: LHS sets minimal in the sense that
/// dropping any atom (or loosening it to the next threshold) violates the
/// confidence bar.
pub fn discover(r: &Relation, rhs: AttrSet, cfg: &MdConfig) -> Vec<ScoredMd> {
    discover_bounded(r, rhs, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: one node tick plus a linear row charge per
/// threshold combination (scoring is index-based, not a pair scan). MDs
/// are emitted only after clearing both bars, so partial results are
/// sound.
///
/// Combinations of one LHS attribute set are scored in parallel via
/// `pool::map` (scoring is pure), with budget *reservation* up front and a
/// serial in-order merge replaying the domination pruning — output is
/// identical at any thread count, and equal to scoring every combination
/// with a full pair scan.
pub fn discover_bounded(
    r: &Relation,
    rhs: AttrSet,
    cfg: &MdConfig,
    exec: &Exec,
) -> Outcome<Vec<ScoredMd>> {
    let schema = r.schema();
    let candidates: Vec<AttrId> = schema.ids().filter(|a| !rhs.contains(*a)).collect();
    let mut out: Vec<ScoredMd> = Vec::new();
    let mut span = exec.span("md.discover");
    let mut lhs_sets = 0u64;
    'search: for lhs_set in crate::mvd_subsets(candidates.iter().copied().collect(), cfg.max_lhs) {
        lhs_sets += 1;
        let lhs_attrs = lhs_set.to_vec();
        let combos = threshold_combos(r, &lhs_attrs, cfg);
        let n = r.n_rows() as u64;
        let granted = exec.try_reserve_batch(combos.len() as u64, n.max(1)) as usize;
        let scored: Vec<Option<ScoredMd>> =
            pool::map(exec.threads(), &combos[..granted], |_, combo| {
                if exec.interrupted() {
                    return None;
                }
                let lhs: Vec<(AttrId, Metric, f64)> = lhs_attrs
                    .iter()
                    .zip(combo)
                    .map(|(&a, &t)| (a, Metric::default_for(schema.ty(a)), t))
                    .collect();
                let md = Md::new(schema, lhs, rhs);
                let (support, confidence) = md.support_confidence(r);
                Some(ScoredMd {
                    md,
                    support,
                    confidence,
                })
            });
        for smd in scored {
            let Some(smd) = smd else { break 'search };
            merge_scored(&mut out, smd, cfg);
        }
        if granted < combos.len() {
            break 'search;
        }
    }
    out.sort_by(|a, b| b.support.total_cmp(&a.support));
    span.attr("lhs_sets", lhs_sets);
    span.attr("emitted", out.len() as u64);
    drop(span);
    exec.finish(out)
}

/// Threshold combinations (cartesian product of per-attribute candidate
/// thresholds) for one LHS attribute set.
pub fn threshold_combos(r: &Relation, lhs_attrs: &[AttrId], cfg: &MdConfig) -> Vec<Vec<f64>> {
    let schema = r.schema();
    let thresholds: Vec<Vec<f64>> = lhs_attrs
        .iter()
        .map(|&a| {
            crate::dd::candidate_thresholds(
                r,
                a,
                &Metric::default_for(schema.ty(a)),
                cfg.thresholds_per_attr,
            )
        })
        .collect();
    let mut combos: Vec<Vec<f64>> = vec![vec![]];
    for t in &thresholds {
        let mut next = Vec::new();
        for c in &combos {
            for &v in t {
                let mut c2 = c.clone();
                c2.push(v);
                next.push(c2);
            }
        }
        combos = next;
    }
    combos
}

/// Serial merge step: keep `smd` only if it clears the bars and is not
/// dominated; evict rules it dominates (RCK-style minimality — an MD
/// whose LHS uses a subset of attributes with looser-or-equal thresholds
/// matches strictly more pairs, making the tighter rule redundant).
pub fn merge_scored(out: &mut Vec<ScoredMd>, smd: ScoredMd, cfg: &MdConfig) {
    if smd.support < cfg.min_support || smd.confidence < cfg.min_confidence {
        return;
    }
    if out.iter().any(|prev| dominates(&prev.md, &smd.md)) {
        return;
    }
    out.retain(|prev| !dominates(&smd.md, &prev.md));
    out.push(smd);
}

/// `a` dominates `b` when `a`'s LHS attributes ⊆ `b`'s with thresholds ≥
/// (looser): every pair `b` matches, `a` matches too, so `b` is redundant.
fn dominates(a: &Md, b: &Md) -> bool {
    a.lhs().iter().all(|(attr_a, _, t_a)| {
        b.lhs()
            .iter()
            .any(|(attr_b, _, t_b)| attr_a == attr_b && t_a >= t_b)
    }) && a.lhs().len() <= b.lhs().len()
        && a.rhs() == b.rhs()
}

/// Greedy concise matching-key cover (Song–Chen \[90\]): pick the fewest
/// MDs so that the fraction of true duplicate pairs (given by `same`)
/// matched by at least one MD reaches `target_recall`.
pub fn concise_matching_keys(
    r: &Relation,
    candidates: &[ScoredMd],
    same: &dyn Fn(usize, usize) -> bool,
    target_recall: f64,
) -> Vec<ScoredMd> {
    // One O(1)-memory counting pass fixes the recall target; duplicate
    // pairs are never materialized.  Gains stream each candidate's
    // LHS-similar pairs out of its similarity index, so an MD's cost is
    // proportional to its match count, not to n².
    let mut total_dups = 0usize;
    for (i, j) in r.row_pairs() {
        if same(i, j) {
            total_dups += 1;
        }
    }
    if total_dups == 0 {
        return Vec::new();
    }
    let target = (target_recall * total_dups as f64).ceil() as usize;
    let mut covered: HashSet<(usize, usize)> = HashSet::new();
    let mut picked = Vec::new();
    let mut remaining: Vec<&ScoredMd> = candidates.iter().collect();
    while covered.len() < target && !remaining.is_empty() {
        // Greedy: the MD covering the most uncovered duplicate pairs.
        let (best_idx, best_gain) = remaining
            .iter()
            .enumerate()
            .map(|(idx, smd)| {
                let mut gain = 0usize;
                smd.md.for_each_matching(r, |i, j| {
                    if same(i, j) && !covered.contains(&(i, j)) {
                        gain += 1;
                    }
                    true
                });
                (idx, gain)
            })
            .max_by_key(|&(_, gain)| gain)
            .unwrap_or((0, 0));
        if best_gain == 0 {
            break;
        }
        let chosen = remaining.remove(best_idx);
        chosen.md.for_each_matching(r, |i, j| {
            if same(i, j) {
                covered.insert((i, j));
            }
            true
        });
        picked.push(chosen.clone());
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::hotels_r6;
    use deptree_synth::{entities, EntitiesConfig};

    #[test]
    fn discovers_md1_shape_on_r6() {
        // §3.7.1's md1: street≈, region≈ → zip⇌. On r6, even single-attr
        // street similarity suffices; the discovered set must contain a
        // street-based MD with full confidence.
        let r = hotels_r6();
        let s = r.schema();
        let rhs = AttrSet::single(s.id("zip"));
        let found = discover(&r, rhs, &MdConfig::default());
        assert!(!found.is_empty());
        for smd in &found {
            assert!(smd.confidence >= 0.95);
            assert!(smd.md.holds(&r) || smd.confidence < 1.0);
        }
        assert!(found
            .iter()
            .any(|smd| smd.md.lhs().iter().any(|(a, _, _)| *a == s.id("street"))));
    }

    #[test]
    fn domination_keeps_loosest_rules() {
        let r = hotels_r6();
        let s = r.schema();
        let found = discover(&r, AttrSet::single(s.id("zip")), &MdConfig::default());
        for a in &found {
            for b in &found {
                if !std::ptr::eq(a, b) {
                    assert!(!dominates(&a.md, &b.md), "{} dominates {}", a.md, b.md);
                }
            }
        }
    }

    #[test]
    fn concise_keys_reach_recall_on_synthetic_entities() {
        let cfg = EntitiesConfig {
            n_entities: 40,
            max_duplicates: 3,
            variety: 0.6,
            error_rate: 0.0,
            seed: 21,
        };
        let data = entities::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        let s = r.schema();
        let rhs = AttrSet::single(s.id("zip"));
        let candidates = discover(
            r,
            rhs,
            &MdConfig {
                min_support: 0.001,
                min_confidence: 0.9,
                thresholds_per_attr: 3,
                max_lhs: 1,
            },
        );
        assert!(!candidates.is_empty());
        let cluster = data.cluster.clone();
        let same = move |i: usize, j: usize| cluster[i] == cluster[j];
        let keys = concise_matching_keys(r, &candidates, &same, 0.8);
        assert!(!keys.is_empty());
        // Measure achieved recall.
        let dup: Vec<(usize, usize)> = r
            .row_pairs()
            .filter(|&(i, j)| data.cluster[i] == data.cluster[j])
            .collect();
        let matched = dup
            .iter()
            .filter(|&&(i, j)| keys.iter().any(|k| k.md.lhs_similar(r, i, j)))
            .count();
        assert!(
            matched as f64 / dup.len() as f64 >= 0.8,
            "recall {} with {} keys",
            matched as f64 / dup.len() as f64,
            keys.len()
        );
        // Conciseness: fewer keys than candidates.
        assert!(keys.len() <= candidates.len());
    }
}
