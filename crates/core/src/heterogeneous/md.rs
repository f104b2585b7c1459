//! Matching dependencies (§3.7).

use crate::categorical::Fd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation, Schema};
use std::fmt;

/// A matching dependency `X≈ → Y⇌` (Fan et al.): tuple pairs *similar* on
/// every determinant attribute should have their dependent values
/// *identified* (§3.7.1).
///
/// As a static constraint over one instance, a violation is a pair that is
/// LHS-similar but differs on some `Y` attribute; as a matching rule, those
/// pairs are exactly the merge candidates record matching acts on — the
/// deduplication application exposes them via
/// [`Md::matching_pairs`].
#[derive(Debug, Clone, PartialEq)]
pub struct Md {
    lhs: Vec<(AttrId, Metric, f64)>,
    rhs: AttrSet,
    display: String,
}

impl Md {
    /// Build an MD. `lhs` lists `(attribute, metric, similarity threshold)`
    /// where a pair is similar when distance ≤ threshold; `rhs` is the set
    /// of attributes to identify.
    ///
    /// # Panics
    /// Panics if `lhs` or `rhs` is empty, or a threshold is negative.
    pub fn new(schema: &Schema, lhs: Vec<(AttrId, Metric, f64)>, rhs: AttrSet) -> Self {
        assert!(!lhs.is_empty(), "MD needs at least one similarity atom");
        assert!(!rhs.is_empty(), "MD needs at least one matching attribute");
        assert!(
            lhs.iter().all(|(_, _, t)| *t >= 0.0),
            "similarity thresholds must be non-negative"
        );
        let lhs_names = lhs
            .iter()
            .map(|(a, _, t)| format!("{}≈{}", schema.name(*a), t))
            .collect::<Vec<_>>()
            .join(", ");
        let rhs_names = rhs
            .iter()
            .map(|a| format!("{}⇌", schema.name(a)))
            .collect::<Vec<_>>()
            .join(", ");
        let display = format!("{lhs_names} -> {rhs_names}");
        Md { lhs, rhs, display }
    }

    /// The Fig. 1 embedding: an FD is an MD whose similarity is exact
    /// equality (threshold 0 under the discrete metric) (§3.7.2).
    pub fn from_fd(schema: &Schema, fd: &Fd) -> Self {
        let lhs = fd
            .lhs()
            .iter()
            .map(|a| (a, Metric::Equality, 0.0))
            .collect();
        Md::new(schema, lhs, fd.rhs())
    }

    /// Similarity atoms.
    pub fn lhs(&self) -> &[(AttrId, Metric, f64)] {
        &self.lhs
    }

    /// Attributes to identify.
    pub fn rhs(&self) -> AttrSet {
        self.rhs
    }

    /// Is the pair similar on every determinant attribute?
    pub fn lhs_similar(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.lhs
            .iter()
            .all(|(a, m, t)| m.dist(r.value(t1, *a), r.value(t2, *a)) <= *t)
    }

    /// All LHS-similar pairs — the candidates a record matcher identifies.
    ///
    /// Enumerates candidates from the most selective similarity index of the
    /// LHS (equality blocking / band join / q-gram filter) and verifies each
    /// against the exact metrics; the result is identical to filtering
    /// every row pair through [`Md::lhs_similar`].
    pub fn matching_pairs(&self, r: &Relation) -> Vec<(usize, usize)> {
        let idx = crate::pairs::best_index(r, &self.lhs);
        let mut out = Vec::new();
        idx.for_each_candidate(|i, j| {
            if self.lhs_similar(r, i, j) {
                out.push((i, j));
            }
            true
        });
        out.sort_unstable();
        out
    }

    /// Visit LHS-similar pairs in the candidate index's deterministic order
    /// (unsorted), stopping early when `f` returns `false`; returns `false`
    /// iff stopped.  Streams — nothing is materialized.
    pub fn for_each_matching(&self, r: &Relation, mut f: impl FnMut(usize, usize) -> bool) -> bool {
        let idx = crate::pairs::best_index(r, &self.lhs);
        idx.for_each_candidate(|i, j| {
            if self.lhs_similar(r, i, j) {
                f(i, j)
            } else {
                true
            }
        })
    }

    /// Syntactic deduction (the reasoning mechanism of §3.7.4): does this
    /// MD logically imply `other` — i.e. every instance satisfying `self`
    /// satisfies `other`? Sufficient (and for same-metric atoms necessary)
    /// condition: `other`'s premise is *tighter* — it constrains at least
    /// the attributes `self` constrains, with thresholds ≤ `self`'s — and
    /// `other` identifies a subset of `self`'s attributes.
    pub fn implies(&self, other: &Md) -> bool {
        other.rhs.is_subset(self.rhs)
            && self.lhs.iter().all(|(attr, metric, t)| {
                other
                    .lhs
                    .iter()
                    .any(|(oa, om, ot)| oa == attr && om == metric && ot <= t)
            })
    }

    /// `(support, confidence)` as used by MD discovery (§3.7.3): support is
    /// the fraction of pairs that are LHS-similar, confidence the fraction
    /// of those already identified on `Y`.
    ///
    /// When the LHS is a conjunction of equality atoms plus at most one
    /// numeric band, both counts are computed analytically (grouping + a
    /// two-pointer band sweep) without touching a single pair; otherwise
    /// candidates from the most selective index are verified.  Either way
    /// the result equals a full scan over every row pair.
    pub fn support_confidence(&self, r: &Relation) -> (f64, f64) {
        let n = r.n_rows() as u64;
        let n_pairs = n * n.saturating_sub(1) / 2;
        if n_pairs == 0 {
            return (0.0, 1.0);
        }
        let counted = match (
            crate::pairs::count_matching(r, &self.lhs),
            crate::pairs::count_matching_agreeing(r, &self.lhs, self.rhs),
        ) {
            (Some(m), Some(id)) => Some((m, id)),
            _ => None,
        };
        let (matched, identified) = counted.unwrap_or_else(|| {
            let idx = crate::pairs::best_index(r, &self.lhs);
            let mut m = 0u64;
            let mut id = 0u64;
            idx.for_each_candidate(|i, j| {
                if self.lhs_similar(r, i, j) {
                    m += 1;
                    if r.rows_agree(i, j, self.rhs) {
                        id += 1;
                    }
                }
                true
            });
            (m, id)
        });
        let support = matched as f64 / n_pairs as f64;
        let confidence = if matched == 0 {
            1.0
        } else {
            identified as f64 / matched as f64
        };
        (support, confidence)
    }
}

impl Dependency for Md {
    fn kind(&self) -> DepKind {
        DepKind::Md
    }

    fn holds(&self, r: &Relation) -> bool {
        let idx = crate::pairs::best_index(r, &self.lhs);
        idx.for_each_candidate(|i, j| !self.lhs_similar(r, i, j) || r.rows_agree(i, j, self.rhs))
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let idx = crate::pairs::best_index(r, &self.lhs);
        let mut found: Vec<(usize, usize)> = Vec::new();
        idx.for_each_candidate(|i, j| {
            if self.lhs_similar(r, i, j) && !r.rows_agree(i, j, self.rhs) {
                found.push((i, j));
            }
            true
        });
        found.sort_unstable();
        found
            .into_iter()
            .map(|(i, j)| {
                let bad: AttrSet = self
                    .rhs
                    .iter()
                    .filter(|&a| r.value(i, a) != r.value(j, a))
                    .collect();
                Violation::pair(i, j, bad)
            })
            .collect()
    }
}

impl fmt::Display for Md {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::{hotels_r1, hotels_r6};

    fn md1(r: &Relation) -> Md {
        // §3.7.1: md1: street≈, region≈ → zip⇌ with edit distance ≤ 5 on
        // street and ≤ 2 on region.
        let s = r.schema();
        Md::new(
            s,
            vec![
                (s.id("street"), Metric::Levenshtein, 5.0),
                (s.id("region"), Metric::Levenshtein, 2.0),
            ],
            AttrSet::single(s.id("zip")),
        )
    }

    #[test]
    fn md1_identifies_t5_t6() {
        let r = hotels_r6();
        let m = md1(&r);
        assert!(m.lhs_similar(&r, 4, 5)); // t5, t6
        assert!(m.holds(&r)); // their zips are already identified
        let pairs = m.matching_pairs(&r);
        assert!(pairs.contains(&(4, 5)));
    }

    #[test]
    fn md_catches_what_fd_misses_on_r1() {
        // §1.2: t7, t8 have similar addresses but different regions —
        // invisible to fd1, visible to an MD with similarity on address.
        let r = hotels_r1();
        let s = r.schema();
        let md = Md::new(
            s,
            vec![(s.id("address"), Metric::Levenshtein, 4.0)],
            AttrSet::single(s.id("region")),
        );
        let v = md.violations(&r);
        assert!(
            v.iter().any(|v| v.rows == vec![6, 7]),
            "the t7/t8 error should surface: {v:?}"
        );
    }

    #[test]
    fn fd_embedding() {
        for r in [hotels_r1(), hotels_r6()] {
            let s = r.schema();
            for text in ["address -> region", "street -> zip", "name -> price"] {
                let Some(fd) = Fd::parse(s, text) else {
                    continue;
                };
                let md = Md::from_fd(s, &fd);
                assert_eq!(fd.holds(&r), md.holds(&r), "{text}");
                // Witness granularity differs (FDs report one pair per
                // distinct-RHS subgroup, MDs every violating pair), but
                // both are empty exactly when the rule holds.
                assert_eq!(
                    fd.violations(&r).is_empty(),
                    md.violations(&r).is_empty(),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn support_confidence_ranges() {
        let r = hotels_r6();
        let m = md1(&r);
        let (support, conf) = m.support_confidence(&r);
        assert!((0.0..=1.0).contains(&support));
        assert_eq!(conf, 1.0);
        assert!(support > 0.0);
    }

    #[test]
    fn zip_mismatch_detected() {
        let mut r = hotels_r6();
        let zip = r.schema().id("zip");
        r.set_value(5, zip, "95103".into());
        let m = md1(&r);
        assert!(!m.holds(&r));
        let v = m.violations(&r);
        assert!(v
            .iter()
            .any(|v| v.rows == vec![1, 5] || v.rows == vec![4, 5]));
    }

    #[test]
    fn deduction_is_sound_on_instances() {
        // md_loose: name ≈5 → zip; md_tight: name ≈1, street ≈2 → zip.
        // Loose implies tight (tight's premise matches fewer pairs).
        let r = hotels_r6();
        let s = r.schema();
        let loose = Md::new(
            s,
            vec![(s.id("name"), Metric::Levenshtein, 5.0)],
            AttrSet::single(s.id("zip")),
        );
        let tight = Md::new(
            s,
            vec![
                (s.id("name"), Metric::Levenshtein, 1.0),
                (s.id("street"), Metric::Levenshtein, 2.0),
            ],
            AttrSet::single(s.id("zip")),
        );
        assert!(loose.implies(&tight));
        assert!(!tight.implies(&loose));
        // Soundness check on the instance and perturbations: whenever the
        // implying MD holds, the implied one must too.
        let mut variants = vec![r.clone()];
        for row in 0..r.n_rows() {
            let mut v = r.clone();
            let donor = (row + 1) % r.n_rows();
            v.set_value(row, s.id("zip"), r.value(donor, s.id("zip")).clone());
            variants.push(v);
        }
        for v in &variants {
            if loose.holds(v) {
                assert!(tight.holds(v), "deduction unsound");
            }
        }
    }

    #[test]
    fn deduction_requires_matching_metric_and_rhs() {
        let r = hotels_r6();
        let s = r.schema();
        let a = Md::new(
            s,
            vec![(s.id("name"), Metric::Levenshtein, 5.0)],
            AttrSet::single(s.id("zip")),
        );
        let other_metric = Md::new(
            s,
            vec![(s.id("name"), Metric::JaroWinkler, 0.2)],
            AttrSet::single(s.id("zip")),
        );
        assert!(!a.implies(&other_metric));
        let bigger_rhs = Md::new(
            s,
            vec![(s.id("name"), Metric::Levenshtein, 1.0)],
            AttrSet::from_ids([s.id("zip"), s.id("region")]),
        );
        assert!(!a.implies(&bigger_rhs));
    }

    #[test]
    #[should_panic(expected = "at least one similarity atom")]
    fn empty_lhs_rejected() {
        let r = hotels_r6();
        let s = r.schema();
        Md::new(s, vec![], AttrSet::single(s.id("zip")));
    }

    #[test]
    fn indexed_violations_match_pair_scan() {
        let r6 = hotels_r6();
        let s6 = r6.schema();
        let r1 = hotels_r1();
        let s1 = r1.schema();
        let cases = vec![
            (&r6, md1(&r6)),
            (
                &r6,
                Md::new(
                    s6,
                    vec![(s6.id("region"), Metric::Equality, 0.0)],
                    AttrSet::single(s6.id("zip")),
                ),
            ),
            (
                &r6,
                Md::new(
                    s6,
                    vec![(s6.id("name"), Metric::JaroWinkler, 0.3)],
                    AttrSet::single(s6.id("region")),
                ),
            ),
            (
                &r1,
                Md::new(
                    s1,
                    vec![(s1.id("address"), Metric::Levenshtein, 4.0)],
                    AttrSet::single(s1.id("region")),
                ),
            ),
        ];
        {
            for (r, md) in &cases {
                let r = (*r).clone();
                let naive_viols: Vec<Violation> = r
                    .row_pairs()
                    .filter(|&(i, j)| md.lhs_similar(&r, i, j) && !r.rows_agree(i, j, md.rhs()))
                    .map(|(i, j)| {
                        let bad: AttrSet = md
                            .rhs()
                            .iter()
                            .filter(|&a| r.value(i, a) != r.value(j, a))
                            .collect();
                        Violation::pair(i, j, bad)
                    })
                    .collect();
                assert_eq!(md.violations(&r), naive_viols, "{md}");
                assert_eq!(md.holds(&r), naive_viols.is_empty(), "{md}");
            }
        }
    }
}
