//! Numerical dependencies (§2.4) — "numerical" in Grant & Minker's sense
//! of a *numeric bound* on associated values, not the numerical data type.

use crate::categorical::Fd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_relation::{AttrSet, Relation, Schema, StrippedPartition};
use std::fmt;

/// A numerical dependency `X →ₖ Y`: each `X`-value is associated with at
/// most `k` distinct `Y`-values (§2.4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nud {
    lhs: AttrSet,
    rhs: AttrSet,
    k: usize,
    display: String,
}

impl Nud {
    /// Build a NUD with weight `k ≥ 1`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(schema: &Schema, lhs: AttrSet, rhs: AttrSet, k: usize) -> Self {
        assert!(k >= 1, "NUD weight must be at least 1");
        let fd = Fd::new(schema, lhs, rhs);
        let display = fd.to_string()[4..].to_owned();
        Nud {
            lhs,
            rhs,
            k,
            display,
        }
    }

    /// The Fig. 1 embedding: an FD is a NUD with `k = 1` (§2.4.2).
    pub fn from_fd(schema: &Schema, fd: &Fd) -> Self {
        Nud::new(schema, fd.lhs(), fd.rhs(), 1)
    }

    /// Determinant attributes.
    pub fn lhs(&self) -> AttrSet {
        self.lhs
    }

    /// Dependent attributes.
    pub fn rhs(&self) -> AttrSet {
        self.rhs
    }

    /// The weight `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The maximum number of distinct `Y`-values associated with any single
    /// `X`-value in `r` — the smallest `k` for which this NUD holds: the
    /// most sub-groups any class of `π_X` splits into by `π_{X∪Y}`, and 1
    /// when every `X`-value is held by a single row.
    pub fn max_fanout(&self, r: &Relation) -> usize {
        if r.n_rows() == 0 {
            return 0;
        }
        let px = StrippedPartition::from_attrs(r, self.lhs);
        let mut by_xy = StrippedPartition::from_attrs(r, self.lhs.union(self.rhs)).splitter();
        px.classes()
            .iter()
            .map(|class| by_xy.split(class).len())
            .fold(1, usize::max)
    }
}

impl Dependency for Nud {
    fn kind(&self) -> DepKind {
        DepKind::Nud
    }

    fn holds(&self, r: &Relation) -> bool {
        self.max_fanout(r) <= self.k
    }

    /// One witness per `X`-group exceeding the fan-out budget: the group's
    /// first rows carrying `k + 1` distinct `Y`-values, i.e. the first
    /// rows of its first `k + 1` sub-groups by `π_{X∪Y}`.
    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let px = StrippedPartition::from_attrs(r, self.lhs);
        let mut by_xy = StrippedPartition::from_attrs(r, self.lhs.union(self.rhs)).splitter();
        let mut out = Vec::new();
        for class in px.classes() {
            let subs = by_xy.split(class);
            if subs.len() > self.k {
                out.push(Violation {
                    rows: subs[..=self.k].iter().map(|s| s.first).collect(),
                    attrs: self.rhs,
                });
            }
        }
        out.sort_by(|a, b| a.rows.cmp(&b.rows));
        out
    }
}

impl fmt::Display for Nud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NUD(k={}): {}", self.k, self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r5;

    #[test]
    fn nud1_on_r5() {
        // §2.4.1: nud1: address →₂ region holds — "El Paso" has two
        // representation variants in t3, t4.
        let r = hotels_r5();
        let s = r.schema();
        let nud = Nud::new(
            s,
            AttrSet::single(s.id("address")),
            AttrSet::single(s.id("region")),
            2,
        );
        assert!(nud.holds(&r));
        assert_eq!(nud.max_fanout(&r), 2);
        // With k = 1 it degenerates to the FD, which fails.
        let nud1 = Nud::new(
            s,
            AttrSet::single(s.id("address")),
            AttrSet::single(s.id("region")),
            1,
        );
        assert!(!nud1.holds(&r));
        let v = nud1.violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![2, 3]);
    }

    #[test]
    fn k1_equals_fd() {
        let r = hotels_r5();
        for text in ["address -> region", "name -> address", "address -> rate"] {
            let fd = Fd::parse(r.schema(), text).unwrap();
            let nud = Nud::from_fd(r.schema(), &fd);
            assert_eq!(fd.holds(&r), nud.holds(&r), "{text}");
        }
    }

    #[test]
    fn fanout_monotone_in_k() {
        let r = hotels_r5();
        let s = r.schema();
        let mk = |k| {
            Nud::new(
                s,
                AttrSet::single(s.id("name")),
                AttrSet::single(s.id("rate")),
                k,
            )
        };
        // "Hyatt" maps to rates {230, 250, 189}: fan-out 3.
        assert_eq!(mk(1).max_fanout(&r), 3);
        assert!(!mk(2).holds(&r));
        assert!(mk(3).holds(&r));
        assert!(mk(4).holds(&r));
    }

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_k_rejected() {
        let r = hotels_r5();
        let s = r.schema();
        Nud::new(
            s,
            AttrSet::single(s.id("name")),
            AttrSet::single(s.id("rate")),
            0,
        );
    }
}
