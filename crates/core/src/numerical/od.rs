//! Order dependencies (§4.2).

use crate::dep::{DepKind, Dependency, Violation};
use crate::numerical::Ofd;
use deptree_relation::{AttrId, AttrSet, Relation, Schema};
use std::cmp::Ordering;
use std::fmt;

/// The ordering direction of a *marked attribute* `A^≤` / `A^≥` (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `A^≤`: ascending.
    Asc,
    /// `A^≥`: descending.
    Desc,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Asc => Direction::Desc,
            Direction::Desc => Direction::Asc,
        }
    }

    fn mark(self) -> &'static str {
        match self {
            Direction::Asc => "≤",
            Direction::Desc => "≥",
        }
    }
}

/// The verdicts of `A^≤ → B^≤` and `A^≤ → B^≥` on one relation, decided
/// together by [`Od::single_atom_verdicts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleAtomVerdicts {
    /// `A^≤ → B^≤` holds.
    pub asc: bool,
    /// `A^≤ → B^≥` holds.
    pub desc: bool,
}

impl SingleAtomVerdicts {
    /// Does `A^da → B^db` hold? An LHS marked `≥` is the `≤` case with
    /// the RHS direction flipped.
    pub fn holds(self, da: Direction, db: Direction) -> bool {
        if da == db {
            self.asc
        } else {
            self.desc
        }
    }
}

/// An order dependency over marked attributes: `X → Y` where each
/// attribute carries a direction mark. For any tuple pair, `t1 ≼ t2` on
/// all marked `X` attributes implies `t1 ≼ t2` on all marked `Y`
/// attributes (§4.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Od {
    lhs: Vec<(AttrId, Direction)>,
    rhs: Vec<(AttrId, Direction)>,
    display: String,
}

impl Od {
    /// Build an OD from marked attribute lists.
    ///
    /// # Panics
    /// Panics if either side is empty.
    pub fn new(
        schema: &Schema,
        lhs: Vec<(AttrId, Direction)>,
        rhs: Vec<(AttrId, Direction)>,
    ) -> Self {
        assert!(
            !lhs.is_empty() && !rhs.is_empty(),
            "OD sides must be non-empty"
        );
        let side = |atoms: &[(AttrId, Direction)]| {
            atoms
                .iter()
                .map(|(a, d)| format!("{}^{}", schema.name(*a), d.mark()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} -> {}", side(&lhs), side(&rhs));
        Od { lhs, rhs, display }
    }

    /// The Fig. 1 embedding: an OFD is an OD with every mark `≤` (§4.2.2).
    pub fn from_ofd(schema: &Schema, ofd: &Ofd) -> Self {
        let marks = |set: AttrSet| set.iter().map(|a| (a, Direction::Asc)).collect::<Vec<_>>();
        Od::new(schema, marks(ofd.lhs()), marks(ofd.rhs()))
    }

    /// Marked determinant attributes.
    pub fn lhs(&self) -> &[(AttrId, Direction)] {
        &self.lhs
    }

    /// Marked dependent attributes.
    pub fn rhs(&self) -> &[(AttrId, Direction)] {
        &self.rhs
    }

    /// Does `t1 ≼ t2` hold on every marked attribute of `atoms`?
    fn precedes(r: &Relation, t1: usize, t2: usize, atoms: &[(AttrId, Direction)]) -> bool {
        atoms.iter().all(|(a, d)| {
            let ord = r.value(t1, *a).numeric_cmp(r.value(t2, *a));
            match d {
                Direction::Asc => ord != Ordering::Greater,
                Direction::Desc => ord != Ordering::Less,
            }
        })
    }

    /// Check the ordered pair `(t1, t2)`: premise ⟹ conclusion.
    pub fn pair_ok(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        !Self::precedes(r, t1, t2, &self.lhs) || Self::precedes(r, t1, t2, &self.rhs)
    }

    /// Decide `A^≤ → B^≤` and `A^≤ → B^≥` together, in one pass over
    /// `order`: the rows ordered by `A`'s numeric rank, as
    /// [`Relation::rows_by_num_rank`] returns them. This is the one
    /// single-atom check; [`Dependency::holds`], the fast path of
    /// [`Dependency::violations`] and OD discovery all run it.
    ///
    /// Ranks are order-isomorphic to `numeric_cmp` (numerically equal
    /// cells share a rank), so the pass compares integers only. Within a
    /// run of equal `A` rank both pair orientations fire the premise, so
    /// `B`'s rank must be constant — otherwise both directions fail.
    /// Across runs `A` strictly precedes, so the run heads' `B` ranks must
    /// not decrease (`≤`) or must not increase (`≥`); by transitivity,
    /// consecutive heads suffice. The pass stops as soon as both
    /// directions are refuted. `O(n)`.
    pub fn single_atom_verdicts(
        r: &Relation,
        order: &[usize],
        a: AttrId,
        b: AttrId,
    ) -> SingleAtomVerdicts {
        let (ca, cb) = (r.col(a), r.col(b));
        let (ia, ib) = (ca.index(), cb.index());
        let refuted = SingleAtomVerdicts::default();
        let mut v = SingleAtomVerdicts {
            asc: true,
            desc: true,
        };
        let mut prev: Option<(u32, u32)> = None;
        for &row in order {
            let ra = ia.num_rank(ca.code(row));
            let rb = ib.num_rank(cb.code(row));
            if let Some((pa, pb)) = prev {
                if pa == ra {
                    if pb != rb {
                        return refuted;
                    }
                } else {
                    v.asc &= pb <= rb;
                    v.desc &= pb >= rb;
                    if v == refuted {
                        return refuted;
                    }
                }
            }
            prev = Some((ra, rb));
        }
        v
    }

    /// The single-atom check for `A^da → B^db`; `None` when either side
    /// is compound.
    fn holds_single(&self, r: &Relation) -> Option<bool> {
        let &[(a, da)] = &self.lhs[..] else {
            return None;
        };
        let &[(b, db)] = &self.rhs[..] else {
            return None;
        };
        let order = r.rows_by_num_rank(a);
        Some(Self::single_atom_verdicts(r, &order, a, b).holds(da, db))
    }

    /// All-pairs check: both orientations of every row pair.
    /// [`Dependency::holds`] runs it on every compound OD, which the
    /// single-atom check cannot decide.
    pub fn holds_pairwise(&self, r: &Relation) -> bool {
        r.row_pairs()
            .all(|(i, j)| self.pair_ok(r, i, j) && self.pair_ok(r, j, i))
    }
}

impl Dependency for Od {
    fn kind(&self) -> DepKind {
        DepKind::Od
    }

    fn holds(&self, r: &Relation) -> bool {
        match self.holds_single(r) {
            Some(ans) => ans,
            None => self.holds_pairwise(r),
        }
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        // On clean single-atom data the single-atom check settles it in
        // O(n + |dict|); the pair scan only runs when violations exist.
        if self.holds_single(r) == Some(true) {
            return Vec::new();
        }
        let rhs_attrs: AttrSet = self.rhs.iter().map(|(a, _)| *a).collect();
        let mut out = Vec::new();
        for (i, j) in r.row_pairs() {
            if !self.pair_ok(r, i, j) || !self.pair_ok(r, j, i) {
                out.push(Violation::pair(i, j, rhs_attrs));
            }
        }
        out
    }
}

impl fmt::Display for Od {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r7;

    fn od1(r: &Relation) -> Od {
        // §4.2.1: od1: nights^≤ → avg/night^≥ — more nights, lower rate.
        let s = r.schema();
        Od::new(
            s,
            vec![(s.id("nights"), Direction::Asc)],
            vec![(s.id("avg/night"), Direction::Desc)],
        )
    }

    #[test]
    fn od1_holds_on_r7() {
        let r = hotels_r7();
        let od = od1(&r);
        assert!(od.holds(&r));
        assert_eq!(od.to_string(), "OD: nights^≤ -> avg/night^≥");
    }

    #[test]
    fn paper_pair_t1_t2() {
        // §4.2.1: t1[nights] = 1 ≤ 2 = t2[nights] leads to
        // t1[avg/night] = 190 ≥ 185 = t2[avg/night].
        let r = hotels_r7();
        let od = od1(&r);
        assert!(od.pair_ok(&r, 0, 1));
        assert!(od.pair_ok(&r, 1, 0));
    }

    #[test]
    fn discount_anomaly_detected() {
        // A guest staying longer but paying a higher nightly rate.
        let mut r = hotels_r7();
        let avg = r.schema().id("avg/night");
        r.set_value(2, avg, 200.into()); // 3 nights at 200 > 185 (2 nights)
        let od = od1(&r);
        assert!(!od.holds(&r));
        let v = od.violations(&r);
        assert!(v.iter().any(|v| v.rows == vec![1, 2]));
    }

    #[test]
    fn ofd_embedding() {
        let r = hotels_r7();
        let s = r.schema();
        let ofd = Ofd::pointwise(
            s,
            AttrSet::single(s.id("subtotal")),
            AttrSet::single(s.id("taxes")),
        );
        let od = Od::from_ofd(s, &ofd);
        // od2 of §4.2.2: subtotal^≤ → taxes^≤.
        assert_eq!(od.to_string(), "OD: subtotal^≤ -> taxes^≤");
        assert_eq!(ofd.holds(&r), od.holds(&r));
        let mut r2 = r.clone();
        r2.set_value(3, s.id("taxes"), 10.into());
        assert_eq!(ofd.holds(&r2), od.holds(&r2));
        assert!(!od.holds(&r2));
        assert_eq!(ofd.violations(&r2), od.violations(&r2));
    }

    #[test]
    fn multi_attribute_premise() {
        // nights^≤, subtotal^≤ → taxes^≤ holds on r7.
        let r = hotels_r7();
        let s = r.schema();
        let od = Od::new(
            s,
            vec![
                (s.id("nights"), Direction::Asc),
                (s.id("subtotal"), Direction::Asc),
            ],
            vec![(s.id("taxes"), Direction::Asc)],
        );
        assert!(od.holds(&r));
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Asc.reverse(), Direction::Desc);
        assert_eq!(Direction::Desc.reverse(), Direction::Asc);
    }

    #[test]
    fn sorted_check_matches_pairwise_on_all_single_atom_ods() {
        // Every (A^da → B^db) combination over r7 and perturbations of it:
        // the sorted fast path must agree with the all-pairs check.
        let base = hotels_r7();
        let s = base.schema().clone();
        let mut variants = vec![base.clone()];
        for row in 0..base.n_rows() {
            let mut v = base.clone();
            let attr = s.ids().nth(row % s.len()).expect("attr");
            let donor = (row + 1) % base.n_rows();
            v.set_value(row, attr, base.value(donor, attr).clone());
            variants.push(v);
        }
        for r in &variants {
            for a in s.ids() {
                for b in s.ids() {
                    for da in [Direction::Asc, Direction::Desc] {
                        for db in [Direction::Asc, Direction::Desc] {
                            let od = Od::new(&s, vec![(a, da)], vec![(b, db)]);
                            assert_eq!(od.holds(r), od.holds_pairwise(r), "{od}");
                        }
                    }
                }
            }
        }
    }
}
