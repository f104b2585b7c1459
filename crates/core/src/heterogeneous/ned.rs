//! Neighborhood dependencies (§3.2).

use crate::dep::{DepKind, Dependency, Violation};
use crate::heterogeneous::Mfd;
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation, Schema};
use std::fmt;

/// One atom of a neighborhood predicate: "distance on `attr` under
/// `metric` is at most `threshold`" (`A^α` in §3.2.1, using the distance
/// convention).
#[derive(Debug, Clone, PartialEq)]
pub struct NedAtom {
    /// The constrained attribute.
    pub attr: AttrId,
    /// The closeness function θ_A (as a distance).
    pub metric: Metric,
    /// The threshold α ≥ 0.
    pub threshold: f64,
}

impl NedAtom {
    /// Build an atom.
    ///
    /// # Panics
    /// Panics on a negative threshold.
    pub fn new(attr: AttrId, metric: Metric, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "closeness threshold must be non-negative");
        NedAtom {
            attr,
            metric,
            threshold,
        }
    }

    /// Does a tuple pair agree on this atom?
    #[inline]
    pub fn agrees(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.metric
            .dist(r.value(t1, self.attr), r.value(t2, self.attr))
            <= self.threshold
    }
}

/// A neighborhood dependency `A₁^α₁ … Aₙ^αₙ → B₁^β₁ … Bₘ^βₘ`: pairs close
/// on every left atom must be close on every right atom (§3.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Ned {
    lhs: Vec<NedAtom>,
    rhs: Vec<NedAtom>,
    display: String,
}

impl Ned {
    /// Build an NED.
    ///
    /// # Panics
    /// Panics if `rhs` is empty (an empty LHS is the "all pairs" predicate
    /// and is allowed).
    pub fn new(schema: &Schema, lhs: Vec<NedAtom>, rhs: Vec<NedAtom>) -> Self {
        assert!(!rhs.is_empty(), "NED needs at least one right-hand atom");
        let side = |atoms: &[NedAtom]| {
            atoms
                .iter()
                .map(|a| format!("{}^{}", schema.name(a.attr), a.threshold))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let display = format!("{} -> {}", side(&lhs), side(&rhs));
        Ned { lhs, rhs, display }
    }

    /// The Fig. 1 embedding: an MFD is an NED whose left thresholds are 0
    /// under the equality metric (§3.2.2).
    pub fn from_mfd(schema: &Schema, mfd: &Mfd) -> Self {
        let lhs = mfd
            .lhs()
            .iter()
            .map(|a| NedAtom::new(a, Metric::Equality, 0.0))
            .collect();
        let rhs = mfd
            .rhs()
            .iter()
            .map(|(a, m, d)| NedAtom::new(*a, m.clone(), *d))
            .collect();
        Ned::new(schema, lhs, rhs)
    }

    /// Left-hand atoms.
    pub fn lhs(&self) -> &[NedAtom] {
        &self.lhs
    }

    /// Right-hand atoms.
    pub fn rhs(&self) -> &[NedAtom] {
        &self.rhs
    }

    /// Does a pair agree on the whole left-hand predicate?
    pub fn lhs_agrees(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.lhs.iter().all(|a| a.agrees(r, t1, t2))
    }

    /// Does a pair satisfy the whole right-hand predicate?
    pub fn rhs_agrees(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.rhs.iter().all(|a| a.agrees(r, t1, t2))
    }

    fn atoms_as_tuples(atoms: &[NedAtom]) -> Vec<crate::pairs::MetricAtom> {
        atoms
            .iter()
            .map(|a| (a.attr, a.metric.clone(), a.threshold))
            .collect()
    }

    /// Support and confidence over all pairs: how many pairs match the LHS,
    /// and what fraction of those also satisfy the RHS. NED discovery
    /// searches for predicates with sufficient support and confidence
    /// (§3.2.3).
    ///
    /// Counts analytically (grouping / band sweep) when both the LHS and the
    /// LHS∧RHS conjunctions are countable; otherwise verifies candidates
    /// from the most selective LHS index.  Equals a full scan over every
    /// row pair either way.
    pub fn support_confidence(&self, r: &Relation) -> (usize, f64) {
        let lhs_atoms = Self::atoms_as_tuples(&self.lhs);
        let mut both_atoms = lhs_atoms.clone();
        both_atoms.extend(Self::atoms_as_tuples(&self.rhs));
        let counted = match (
            crate::pairs::count_matching(r, &lhs_atoms),
            crate::pairs::count_matching(r, &both_atoms),
        ) {
            (Some(m), Some(s)) => Some((m as usize, s as usize)),
            _ => None,
        };
        let (matched, satisfied) = counted.unwrap_or_else(|| {
            let idx = crate::pairs::best_index(r, &lhs_atoms);
            let mut m = 0usize;
            let mut s = 0usize;
            idx.for_each_candidate(|i, j| {
                if self.lhs_agrees(r, i, j) {
                    m += 1;
                    if self.rhs_agrees(r, i, j) {
                        s += 1;
                    }
                }
                true
            });
            (m, s)
        });
        let conf = if matched == 0 {
            1.0
        } else {
            satisfied as f64 / matched as f64
        };
        (matched, conf)
    }
}

impl Dependency for Ned {
    fn kind(&self) -> DepKind {
        DepKind::Ned
    }

    fn holds(&self, r: &Relation) -> bool {
        let idx = crate::pairs::best_index(r, &Self::atoms_as_tuples(&self.lhs));
        idx.for_each_candidate(|i, j| !self.lhs_agrees(r, i, j) || self.rhs_agrees(r, i, j))
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let idx = crate::pairs::best_index(r, &Self::atoms_as_tuples(&self.lhs));
        let mut found: Vec<(usize, usize)> = Vec::new();
        idx.for_each_candidate(|i, j| {
            if self.lhs_agrees(r, i, j) && !self.rhs_agrees(r, i, j) {
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
                    .filter(|a| !a.agrees(r, i, j))
                    .map(|a| a.attr)
                    .collect();
                Violation::pair(i, j, bad)
            })
            .collect()
    }
}

impl fmt::Display for Ned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NED: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r6;

    fn ned1(r: &Relation) -> Ned {
        // §3.2.1: ned1: name¹ address⁵ → street⁵ (edit distances).
        let s = r.schema();
        Ned::new(
            s,
            vec![
                NedAtom::new(s.id("name"), Metric::Levenshtein, 1.0),
                NedAtom::new(s.id("address"), Metric::Levenshtein, 5.0),
            ],
            vec![NedAtom::new(s.id("street"), Metric::Levenshtein, 5.0)],
        )
    }

    #[test]
    fn paper_pair_t2_t6_agrees() {
        // §3.2.1: t2 and t6 agree on name¹address⁵ (distances 0 and 1) and
        // satisfy street⁵.
        let r = hotels_r6();
        let n = ned1(&r);
        assert!(n.lhs_agrees(&r, 1, 5));
        assert!(n.rhs_agrees(&r, 1, 5));
    }

    #[test]
    fn ned1_holds_on_r6() {
        let r = hotels_r6();
        let n = ned1(&r);
        assert!(n.holds(&r));
        let (support, conf) = n.support_confidence(&r);
        assert!(support >= 1);
        assert_eq!(conf, 1.0);
    }

    #[test]
    fn injected_street_error_detected() {
        let mut r = hotels_r6();
        let street = r.schema().id("street");
        r.set_value(5, street, "Lombard Street West".into());
        let n = ned1(&r);
        assert!(!n.holds(&r));
        let v = n.violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![1, 5]);
        assert!(v[0].attrs.contains(street));
    }

    #[test]
    fn mfd_embedding_preserves_semantics() {
        let r = hotels_r6();
        let s = r.schema();
        let mfd = Mfd::new(
            s,
            AttrSet::from_ids([s.id("name"), s.id("region")]),
            vec![(s.id("price"), Metric::AbsDiff, 500.0)],
        );
        let ned = Ned::from_mfd(s, &mfd);
        assert_eq!(mfd.holds(&r), ned.holds(&r));
        // ned2 of §3.2.2 is exactly this embedding.
        assert_eq!(ned.to_string(), "NED: name^0 region^0 -> price^500");
        // And on a perturbed instance both flip together.
        let mut r2 = r.clone();
        r2.set_value(5, s.id("price"), 1200.into());
        let mfd2 = Mfd::new(
            r2.schema(),
            AttrSet::from_ids([s.id("name"), s.id("region")]),
            vec![(s.id("price"), Metric::AbsDiff, 500.0)],
        );
        let ned2 = Ned::from_mfd(r2.schema(), &mfd2);
        assert_eq!(mfd2.holds(&r2), ned2.holds(&r2));
        assert!(!ned2.holds(&r2));
    }

    #[test]
    fn empty_lhs_is_global_constraint() {
        // An NED with empty LHS requires ALL pairs to satisfy the RHS.
        let r = hotels_r6();
        let s = r.schema();
        let n = Ned::new(
            s,
            vec![],
            vec![NedAtom::new(s.id("price"), Metric::AbsDiff, 10_000.0)],
        );
        assert!(n.holds(&r));
        let tight = Ned::new(
            s,
            vec![],
            vec![NedAtom::new(s.id("price"), Metric::AbsDiff, 50.0)],
        );
        assert!(!tight.holds(&r));
    }

    #[test]
    fn indexed_holds_matches_pair_scan() {
        let r = hotels_r6();
        let s = r.schema();
        let neds = vec![
            ned1(&r),
            Ned::new(
                s,
                vec![NedAtom::new(s.id("region"), Metric::Equality, 0.0)],
                vec![NedAtom::new(s.id("price"), Metric::AbsDiff, 100.0)],
            ),
            Ned::new(
                s,
                vec![],
                vec![NedAtom::new(s.id("price"), Metric::AbsDiff, 50.0)],
            ),
            Ned::new(
                s,
                vec![NedAtom::new(s.id("name"), Metric::JaroWinkler, 0.4)],
                vec![NedAtom::new(s.id("street"), Metric::Levenshtein, 5.0)],
            ),
        ];
        for n in &neds {
            let naive_holds = r
                .row_pairs()
                .all(|(i, j)| !n.lhs_agrees(&r, i, j) || n.rhs_agrees(&r, i, j));
            assert_eq!(n.holds(&r), naive_holds, "{n}");
        }
    }
}
