//! Differential dependencies (§3.3).

use crate::dep::{DepKind, Dependency, Violation};
use crate::heterogeneous::Ned;
use deptree_metrics::{DistRange, Metric};
use deptree_relation::pairgen::{self, PairSpec};
use deptree_relation::{AttrId, AttrSet, Relation, Schema};
use std::fmt;

/// One differential-function atom φ\[A\]: the metric distance on `attr`
/// must fall in `range` (§3.3.1). Ranges can express both "similar"
/// (`≤ δ`) and "dissimilar" (`≥ δ`) semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffAtom {
    /// The constrained attribute.
    pub attr: AttrId,
    /// The distance metric d_A.
    pub metric: Metric,
    /// The admitted distance range.
    pub range: DistRange,
}

impl DiffAtom {
    /// Build an atom.
    pub fn new(attr: AttrId, metric: Metric, range: DistRange) -> Self {
        DiffAtom {
            attr,
            metric,
            range,
        }
    }

    /// "Similar" shorthand: distance at most `d`.
    pub fn at_most(attr: AttrId, metric: Metric, d: f64) -> Self {
        Self::new(attr, metric, DistRange::at_most(d))
    }

    /// "Dissimilar" shorthand: distance at least `d`.
    pub fn at_least(attr: AttrId, metric: Metric, d: f64) -> Self {
        Self::new(attr, metric, DistRange::at_least(d))
    }

    /// Are two tuples compatible with this atom
    /// (`(t1, t2) ≍ φ[A]` in the survey's notation)?
    #[inline]
    pub fn compatible(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.range.contains(
            self.metric
                .dist(r.value(t1, self.attr), r.value(t2, self.attr)),
        )
    }

    /// Does this atom *subsume* another on the same attribute — i.e. accept
    /// every pair the other accepts? Used by minimality reasoning in DD
    /// discovery (§3.3.3).
    pub fn subsumes(&self, other: &DiffAtom) -> bool {
        self.attr == other.attr && self.metric == other.metric && other.range.implies(&self.range)
    }

    /// Candidate-generation spec: a superset of the atom's compatible pairs.
    ///
    /// Sound because `dist ∈ [min, max] ⟹ dist ≤ max` and
    /// `Metric::pair_spec` is complete for `dist ≤ max`; dissimilarity lower
    /// bounds are left to verification, and an unbounded range degrades to
    /// the full scan.
    pub fn pair_spec(&self) -> (AttrId, PairSpec) {
        let max = self.range.max();
        let spec = if max.is_infinite() {
            PairSpec::All
        } else {
            self.metric.pair_spec(max)
        };
        (self.attr, spec)
    }

    /// The spec when it is *equivalent* to the atom (an exactly countable
    /// similarity range `[0, max]`), else `None`.
    fn exact_spec(&self) -> Option<(AttrId, PairSpec)> {
        if self.range.min() != 0.0 {
            return None;
        }
        let (attr, spec) = self.pair_spec();
        match spec {
            PairSpec::Eq | PairSpec::Band(_) | PairSpec::Empty => Some((attr, spec)),
            PairSpec::Edit(_) | PairSpec::All => None,
        }
    }
}

/// A differential dependency `φ[X] → φ[Y]`: any pair compatible with every
/// left differential function must be compatible with every right one
/// (§3.3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Dd {
    lhs: Vec<DiffAtom>,
    rhs: Vec<DiffAtom>,
    display: String,
}

impl Dd {
    /// Build a DD.
    ///
    /// # Panics
    /// Panics if `rhs` is empty.
    pub fn new(schema: &Schema, lhs: Vec<DiffAtom>, rhs: Vec<DiffAtom>) -> Self {
        assert!(!rhs.is_empty(), "DD needs at least one right-hand atom");
        let side = |atoms: &[DiffAtom]| {
            atoms
                .iter()
                .map(|a| format!("{}({})", schema.name(a.attr), a.range))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} -> {}", side(&lhs), side(&rhs));
        Dd { lhs, rhs, display }
    }

    /// The Fig. 1 embedding: an NED is a DD whose differential functions
    /// all express the "similar" (`≤`) semantics (§3.3.2).
    pub fn from_ned(schema: &Schema, ned: &Ned) -> Self {
        let conv = |atoms: &[crate::heterogeneous::NedAtom]| {
            atoms
                .iter()
                .map(|a| DiffAtom::at_most(a.attr, a.metric.clone(), a.threshold))
                .collect::<Vec<_>>()
        };
        Dd::new(schema, conv(ned.lhs()), conv(ned.rhs()))
    }

    /// Left-hand atoms φ\[X\].
    pub fn lhs(&self) -> &[DiffAtom] {
        &self.lhs
    }

    /// Right-hand atoms φ\[Y\].
    pub fn rhs(&self) -> &[DiffAtom] {
        &self.rhs
    }

    /// Is a pair compatible with the whole left side?
    pub fn lhs_compatible(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.lhs.iter().all(|a| a.compatible(r, t1, t2))
    }

    /// Is a pair compatible with the whole right side?
    pub fn rhs_compatible(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        self.rhs.iter().all(|a| a.compatible(r, t1, t2))
    }

    /// `(support, confidence)` over all pairs, as used by DD discovery:
    /// pairs matching the LHS, and the fraction of those satisfying the
    /// RHS.
    ///
    /// Similarity-range conjunctions are counted analytically when possible;
    /// otherwise candidates from the most selective LHS index are verified.
    /// Equals a full scan over every row pair either way.
    pub fn support_confidence(&self, r: &Relation) -> (usize, f64) {
        let counted = (|| {
            let lhs_specs: Vec<_> = self
                .lhs
                .iter()
                .map(DiffAtom::exact_spec)
                .collect::<Option<_>>()?;
            let rhs_specs: Vec<_> = self
                .rhs
                .iter()
                .map(DiffAtom::exact_spec)
                .collect::<Option<_>>()?;
            let mut both = lhs_specs.clone();
            both.extend(rhs_specs);
            Some((
                pairgen::count_pairs(r, &lhs_specs)?,
                pairgen::count_pairs(r, &both)?,
            ))
        })();
        let (matched, ok) = match counted {
            Some((m, s)) => (m as usize, s as usize),
            None => {
                let specs: Vec<_> = self.lhs.iter().map(DiffAtom::pair_spec).collect();
                let idx = pairgen::best_index(r, &specs);
                let mut m = 0usize;
                let mut s = 0usize;
                idx.for_each_candidate(|i, j| {
                    if self.lhs_compatible(r, i, j) {
                        m += 1;
                        if self.rhs_compatible(r, i, j) {
                            s += 1;
                        }
                    }
                    true
                });
                (m, s)
            }
        };
        let conf = if matched == 0 {
            1.0
        } else {
            ok as f64 / matched as f64
        };
        (matched, conf)
    }
}

impl Dependency for Dd {
    fn kind(&self) -> DepKind {
        DepKind::Dd
    }

    fn holds(&self, r: &Relation) -> bool {
        let specs: Vec<_> = self.lhs.iter().map(DiffAtom::pair_spec).collect();
        let idx = pairgen::best_index(r, &specs);
        idx.for_each_candidate(|i, j| !self.lhs_compatible(r, i, j) || self.rhs_compatible(r, i, j))
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let specs: Vec<_> = self.lhs.iter().map(DiffAtom::pair_spec).collect();
        let idx = pairgen::best_index(r, &specs);
        let mut found: Vec<(usize, usize)> = Vec::new();
        idx.for_each_candidate(|i, j| {
            if self.lhs_compatible(r, i, j) && !self.rhs_compatible(r, i, j) {
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
                    .filter(|a| !a.compatible(r, i, j))
                    .map(|a| a.attr)
                    .collect();
                Violation::pair(i, j, bad)
            })
            .collect()
    }
}

impl fmt::Display for Dd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneous::NedAtom;
    use deptree_relation::examples::hotels_r6;

    fn dd1(r: &Relation) -> Dd {
        // §3.3.1: dd1: name(≤1), street(≤5) → address(≤5).
        let s = r.schema();
        Dd::new(
            s,
            vec![
                DiffAtom::at_most(s.id("name"), Metric::Levenshtein, 1.0),
                DiffAtom::at_most(s.id("street"), Metric::Levenshtein, 5.0),
            ],
            vec![DiffAtom::at_most(s.id("address"), Metric::Levenshtein, 5.0)],
        )
    }

    fn dd2(r: &Relation) -> Dd {
        // §3.3.1: dd2: street(≥10) → address(≥5) — dissimilar semantics.
        let s = r.schema();
        Dd::new(
            s,
            vec![DiffAtom::at_least(
                s.id("street"),
                Metric::Levenshtein,
                10.0,
            )],
            vec![DiffAtom::at_least(
                s.id("address"),
                Metric::Levenshtein,
                5.0,
            )],
        )
    }

    #[test]
    fn dd1_pair_t2_t6() {
        // t2 and t6: similar names (distance 0 ≤ 1) and streets, so the
        // addresses must be similar (distance 1 ≤ 5). They are.
        let r = hotels_r6();
        let d = dd1(&r);
        assert!(d.lhs_compatible(&r, 1, 5));
        assert!(d.rhs_compatible(&r, 1, 5));
        assert!(d.holds(&r));
    }

    #[test]
    fn dd2_dissimilar_semantics() {
        // t1 vs t2: streets "CPark" vs "12th St." distance ≥ ... compute:
        // they are quite different; addresses must then differ by > 5.
        let r = hotels_r6();
        let d = dd2(&r);
        assert!(d.holds(&r));
        // Force a violation: make two tuples with very different streets
        // share an address.
        let mut r2 = r.clone();
        let s = r2.schema().clone();
        r2.set_value(0, s.id("address"), "#2 Ave, 12th St.".into());
        // Now t1 (street CPark) and t2 (street 12th St.) have identical
        // addresses: distance 0 < 5 while streets differ by ≥ 10? Check:
        let street_dist =
            Metric::Levenshtein.dist(r2.value(0, s.id("street")), r2.value(1, s.id("street")));
        if street_dist >= 10.0 {
            assert!(!d.holds(&r2));
        } else {
            // Streets not different enough for dd2's premise; use name too.
            assert!(d.holds(&r2));
        }
    }

    #[test]
    fn ned_embedding_preserves_semantics() {
        // ned1 → dd3 of §3.3.2.
        let r = hotels_r6();
        let s = r.schema();
        let ned = Ned::new(
            s,
            vec![
                NedAtom::new(s.id("name"), Metric::Levenshtein, 1.0),
                NedAtom::new(s.id("address"), Metric::Levenshtein, 5.0),
            ],
            vec![NedAtom::new(s.id("street"), Metric::Levenshtein, 5.0)],
        );
        let dd = Dd::from_ned(s, &ned);
        assert_eq!(ned.holds(&r), dd.holds(&r));
        assert_eq!(dd.to_string(), "DD: name(≤1), address(≤5) -> street(≤5)");
        // Perturb and compare again.
        let mut r2 = r.clone();
        r2.set_value(5, s.id("street"), "totally different road".into());
        assert_eq!(ned.holds(&r2), dd.holds(&r2));
        assert!(!dd.holds(&r2));
        assert_eq!(ned.violations(&r2), dd.violations(&r2));
    }

    #[test]
    fn subsumption_between_atoms() {
        let a_tight = DiffAtom::at_most(AttrId(0), Metric::Levenshtein, 2.0);
        let a_loose = DiffAtom::at_most(AttrId(0), Metric::Levenshtein, 5.0);
        assert!(a_loose.subsumes(&a_tight));
        assert!(!a_tight.subsumes(&a_loose));
        let other_attr = DiffAtom::at_most(AttrId(1), Metric::Levenshtein, 5.0);
        assert!(!a_loose.subsumes(&other_attr));
    }

    #[test]
    fn support_confidence() {
        let r = hotels_r6();
        let d = dd1(&r);
        let (support, conf) = d.support_confidence(&r);
        assert!(support >= 1);
        assert_eq!(conf, 1.0);
    }

    #[test]
    fn exact_range_atom() {
        // A DD with an exact-distance premise: street(=0) → zip(≤0) is the
        // FD street → zip seen differentially; t2/t4 share street "12th
        // St."? t2 row1 street "12th St.", t4 row4? rows 1 and 4 share
        // street "12th St." and zip 95102 — holds.
        let r = hotels_r6();
        let s = r.schema();
        let d = Dd::new(
            s,
            vec![DiffAtom::new(
                s.id("street"),
                Metric::Levenshtein,
                DistRange::zero(),
            )],
            vec![DiffAtom::at_most(s.id("zip"), Metric::Equality, 0.0)],
        );
        assert!(d.holds(&r));
    }
}
