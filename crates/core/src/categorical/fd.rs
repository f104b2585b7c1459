//! Functional dependencies — the root of the family tree (§1.1).

use crate::dep::{DepKind, Dependency, Violation};
use deptree_relation::{AttrSet, Relation, Schema, StrippedPartition};
use std::fmt;

/// A functional dependency `X → Y`: tuples equal on `X` must be equal
/// on `Y`.
///
/// ```
/// use deptree_core::{Dependency, Fd};
/// use deptree_relation::examples::hotels_r1;
///
/// let r = hotels_r1();
/// let fd = Fd::parse(r.schema(), "address -> region").unwrap();
/// assert!(!fd.holds(&r)); // t3, t4 violate it (the paper's example)
/// assert_eq!(fd.violations(&r).len(), 2); // …and t5, t6 spuriously
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fd {
    lhs: AttrSet,
    rhs: AttrSet,
    /// Human-readable form, precomputed for Display.
    display: String,
}

impl Fd {
    /// Build an FD from attribute sets.
    pub fn new(schema: &Schema, lhs: AttrSet, rhs: AttrSet) -> Self {
        let fmt_side = |s: AttrSet| {
            s.iter()
                .map(|a| schema.name(a).to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} -> {}", fmt_side(lhs), fmt_side(rhs));
        Fd { lhs, rhs, display }
    }

    /// Parse `"a, b -> c"` against a schema. Returns `None` when an
    /// attribute name is unknown or the arrow is missing.
    pub fn parse(schema: &Schema, text: &str) -> Option<Self> {
        let (lhs_text, rhs_text) = text.split_once("->")?;
        let parse_side = |side: &str| -> Option<AttrSet> {
            let mut set = AttrSet::empty();
            for name in side.split(',') {
                let name = name.trim();
                if name.is_empty() {
                    continue;
                }
                set = set.insert(schema.attr_id(name)?);
            }
            Some(set)
        };
        let lhs = parse_side(lhs_text)?;
        let rhs = parse_side(rhs_text)?;
        Some(Fd::new(schema, lhs, rhs))
    }

    /// Determinant attributes `X`.
    #[inline]
    pub fn lhs(&self) -> AttrSet {
        self.lhs
    }

    /// Dependent attributes `Y`.
    #[inline]
    pub fn rhs(&self) -> AttrSet {
        self.rhs
    }

    /// Is the FD trivial (`Y ⊆ X`)?
    pub fn is_trivial(&self) -> bool {
        self.rhs.is_subset(self.lhs)
    }

    /// The rule in the `"a, b -> c"` form accepted by [`Fd::parse`], so
    /// an FD can round-trip through a wire protocol as plain text.
    pub fn rule(&self) -> &str {
        &self.display
    }

    /// The `g3` error (Kivinen–Mannila): fraction of rows to remove so the
    /// FD holds exactly. This is the measure AFDs threshold (§2.3.1).
    pub fn g3(&self, r: &Relation) -> f64 {
        let px = StrippedPartition::from_attrs(r, self.lhs);
        let py = StrippedPartition::from_attrs(r, self.rhs);
        px.g3_error(&py)
    }

    /// Check a single tuple pair: does it *violate* the FD?
    #[inline]
    pub fn pair_violates(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        r.rows_agree(t1, t2, self.lhs) && !r.rows_agree(t1, t2, self.rhs)
    }
}

impl Dependency for Fd {
    fn kind(&self) -> DepKind {
        DepKind::Fd
    }

    fn holds(&self, r: &Relation) -> bool {
        if self.is_trivial() {
            return true;
        }
        let px = StrippedPartition::from_attrs(r, self.lhs);
        let pxy = StrippedPartition::from_attrs(r, self.lhs.union(self.rhs));
        px.refines(&pxy)
    }

    /// One witness per pair of `Y`-sub-groups within an `X`-value, from
    /// each sub-group's first row: every class of `π_X` is split by
    /// `π_{X∪Y}`, in canonical order.
    fn violations(&self, r: &Relation) -> Vec<Violation> {
        witnesses(r, self.lhs, self.rhs, |_| true)
    }
}

/// The FD witness loop, shared by FDs, CFDs and eCFDs: each class of `π_X`
/// whose first row `keep` selects is split by `π_{X∪Y}`, and every pair of
/// its `Y`-sub-groups gives one witness from their first rows. A pattern
/// on `X` selects whole classes, since rows of one class have equal
/// `X`-cells. Witnesses come sorted by rows.
pub(crate) fn witnesses(
    r: &Relation,
    lhs: AttrSet,
    rhs: AttrSet,
    keep: impl Fn(usize) -> bool,
) -> Vec<Violation> {
    let px = StrippedPartition::from_attrs(r, lhs);
    let mut by_xy = StrippedPartition::from_attrs(r, lhs.union(rhs)).splitter();
    let mut out = Vec::new();
    for class in px.classes().iter().filter(|c| keep(c[0])) {
        let subs = by_xy.split(class);
        for (i, a) in subs.iter().enumerate() {
            for b in &subs[i + 1..] {
                out.push(Violation::pair(a.first, b.first, rhs));
            }
        }
    }
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::{hotels_r1, hotels_r5};

    #[test]
    fn fd1_on_r1_matches_paper_narrative() {
        // §1.1: fd1: address → region. t1,t2 satisfy; t3,t4 violate (real
        // error). §1.2: t5,t6 also trip the strict-equality check even
        // though "Chicago" / "Chicago, IL" denote the same region — the
        // false positive that motivates metric extensions.
        let r = hotels_r1();
        let fd = Fd::parse(r.schema(), "address -> region").unwrap();
        assert!(!fd.holds(&r));
        let v = fd.violations(&r);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].rows, vec![2, 3]); // t3, t4 — true violation
        assert_eq!(v[1].rows, vec![4, 5]); // t5, t6 — spurious violation
    }

    #[test]
    fn rule_round_trips_through_parse() {
        let r = hotels_r1();
        let fd = Fd::parse(r.schema(), "name ,  address->  region").unwrap();
        assert_eq!(fd.rule(), "name, address -> region");
        assert_eq!(Fd::parse(r.schema(), fd.rule()).unwrap(), fd);
    }

    #[test]
    fn fd1_false_positive_rows_4_5() {
        // §1.2: t5, t6 have the same address and regions "Chicago" vs
        // "Chicago, IL" — a spurious violation under strict equality.
        let r = hotels_r1();
        let fd = Fd::parse(r.schema(), "address -> region").unwrap();
        assert!(fd.pair_violates(&r, 4, 5));
        // and t7, t8 (the true error) are MISSED: addresses differ.
        assert!(!fd.pair_violates(&r, 6, 7));
    }

    #[test]
    fn g3_on_r5() {
        // §2.3.1: g3(address → region, r5) = 1/4; g3(name → address) = 1/2.
        let r = hotels_r5();
        let fd1 = Fd::parse(r.schema(), "address -> region").unwrap();
        assert!((fd1.g3(&r) - 0.25).abs() < 1e-12);
        let fd2 = Fd::parse(r.schema(), "name -> address").unwrap();
        assert!((fd2.g3(&r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trivial_fd_always_holds() {
        let r = hotels_r5();
        let s = r.schema();
        let a = AttrSet::from_ids([s.id("name"), s.id("rate")]);
        let fd = Fd::new(s, a, AttrSet::single(s.id("rate")));
        assert!(fd.is_trivial());
        assert!(fd.holds(&r));
        assert!(fd.violations(&r).is_empty());
    }

    #[test]
    fn parse_errors() {
        let r = hotels_r5();
        assert!(Fd::parse(r.schema(), "bogus -> region").is_none());
        assert!(Fd::parse(r.schema(), "no arrow here").is_none());
        let multi = Fd::parse(r.schema(), "name, address -> region, rate").unwrap();
        assert_eq!(multi.lhs().len(), 2);
        assert_eq!(multi.rhs().len(), 2);
    }

    #[test]
    fn display() {
        let r = hotels_r5();
        let fd = Fd::parse(r.schema(), "address -> region").unwrap();
        assert_eq!(fd.to_string(), "FD: address -> region");
    }

    #[test]
    fn empty_lhs_means_constant_column() {
        // ∅ → Y holds iff Y is constant across the relation.
        let r = hotels_r5();
        let s = r.schema();
        let fd = Fd::new(s, AttrSet::empty(), AttrSet::single(s.id("name")));
        assert!(fd.holds(&r)); // name is constantly "Hyatt"
        let fd2 = Fd::new(s, AttrSet::empty(), AttrSet::single(s.id("region")));
        assert!(!fd2.holds(&r));
    }
}
