//! Extended conditional functional dependencies (§2.5.5).

use crate::categorical::cfd::conditional_witnesses;
use crate::categorical::{Cfd, PatternCell};
use crate::dep::{DepKind, Dependency, Violation};
use crate::op::CmpOp;
use deptree_relation::{AttrId, AttrSet, Relation, Schema, Value};
use std::fmt;

/// One cell of an eCFD pattern: the unnamed variable `_`, or `op a` where
/// `op ∈ {=, ≠, <, ≤, >, ≥}` and `a` is a domain constant (§2.5.5).
#[derive(Debug, Clone, PartialEq)]
pub enum PatternOp {
    /// `_`: any domain value.
    Any,
    /// `op a`.
    Cmp(
        /// The comparison operator.
        CmpOp,
        /// The constant operand.
        Value,
    ),
}

impl PatternOp {
    /// Does a value match this cell?
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternOp::Any => true,
            PatternOp::Cmp(op, c) => op.eval(v, c),
        }
    }
}

impl fmt::Display for PatternOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternOp::Any => write!(f, "_"),
            PatternOp::Cmp(op, v) => write!(f, "{op}{v}"),
        }
    }
}

impl From<PatternCell> for PatternOp {
    fn from(c: PatternCell) -> Self {
        match c {
            PatternCell::Any => PatternOp::Any,
            PatternCell::Const(v) => PatternOp::Cmp(CmpOp::Eq, v),
        }
    }
}

/// An extended CFD: a CFD whose pattern cells may carry the full operator
/// set, substantially increasing expressive power at unchanged implication
/// complexity (Bravo et al., §2.5.5).
#[derive(Debug, Clone, PartialEq)]
pub struct ECfd {
    lhs: AttrSet,
    rhs: AttrSet,
    cells: Vec<(AttrId, PatternOp)>,
    display: String,
}

impl ECfd {
    /// Build an eCFD from `(attribute, cell)` pairs; attributes without a
    /// cell behave as `_`.
    pub fn new(
        schema: &Schema,
        lhs: AttrSet,
        rhs: AttrSet,
        cells: Vec<(AttrId, PatternOp)>,
    ) -> Self {
        let cell_of = |a: AttrId| -> String {
            cells
                .iter()
                .find(|(x, _)| *x == a)
                .map(|(_, c)| c.to_string())
                .unwrap_or_else(|| "_".into())
        };
        let fmt_side = |set: AttrSet| {
            set.iter()
                .map(|a| {
                    format!("{}{}", schema.name(a), {
                        let c = cell_of(a);
                        if c == "_" {
                            "=_".to_owned()
                        } else {
                            format!(" {c}")
                        }
                    })
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} -> {}", fmt_side(lhs), fmt_side(rhs));
        ECfd {
            lhs,
            rhs,
            cells,
            display,
        }
    }

    /// The Fig. 1 embedding: every CFD is an eCFD whose constants become
    /// `= a` cells (§2.5.5).
    pub fn from_cfd(schema: &Schema, cfd: &Cfd) -> Self {
        let cells = cfd
            .pattern()
            .cells()
            .map(|(a, c)| (a, PatternOp::from(c.clone())))
            .collect();
        ECfd::new(schema, cfd.lhs(), cfd.rhs(), cells)
    }

    /// Determinant attributes.
    pub fn lhs(&self) -> AttrSet {
        self.lhs
    }

    /// Dependent attributes.
    pub fn rhs(&self) -> AttrSet {
        self.rhs
    }

    /// The cell for an attribute (`_` if unset).
    pub fn cell(&self, attr: AttrId) -> &PatternOp {
        self.cells
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, c)| c)
            .unwrap_or(&PatternOp::Any)
    }

    /// Explicitly set cells.
    pub fn cells(&self) -> impl Iterator<Item = (AttrId, &PatternOp)> {
        self.cells.iter().map(|(a, c)| (*a, c))
    }

    fn matches_on(&self, r: &Relation, row: usize, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| self.cell(a).matches(r.value(row, a)))
    }

    /// Rows matching the LHS pattern.
    pub fn matching_rows(&self, r: &Relation) -> Vec<usize> {
        (0..r.n_rows())
            .filter(|&row| self.matches_on(r, row, self.lhs))
            .collect()
    }
}

impl Dependency for ECfd {
    fn kind(&self) -> DepKind {
        DepKind::ECfd
    }

    fn holds(&self, r: &Relation) -> bool {
        self.count_violations(r) == 0
    }

    /// A row witness per matching row that misses an RHS cell, then the
    /// FD witnesses of the matching classes of `π_X`.
    fn violations(&self, r: &Relation) -> Vec<Violation> {
        conditional_witnesses(
            r,
            self.lhs,
            self.rhs,
            |row| self.matches_on(r, row, self.lhs),
            |row, a| self.cell(a).matches(r.value(row, a)),
        )
    }
}

impl fmt::Display for ECfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eCFD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categorical::{Fd, Pattern};
    use deptree_relation::examples::hotels_r5;

    fn ecfd1(r: &Relation) -> ECfd {
        // §2.5.5: ecfd1: rate ≤ 200, name = _ → address = _.
        let s = r.schema();
        let lhs = AttrSet::from_ids([s.id("rate"), s.id("name")]);
        let rhs = AttrSet::single(s.id("address"));
        ECfd::new(
            s,
            lhs,
            rhs,
            vec![(s.id("rate"), PatternOp::Cmp(CmpOp::Leq, Value::int(200)))],
        )
    }

    #[test]
    fn ecfd1_holds_on_r5() {
        // t3, t4 have rate 189 ≤ 200, equal names, equal addresses. Holds.
        let r = hotels_r5();
        let e = ecfd1(&r);
        assert_eq!(e.matching_rows(&r), vec![2, 3]);
        assert!(e.holds(&r));
    }

    #[test]
    fn ecfd1_detects_injected_error() {
        let mut r = hotels_r5();
        let addr = r.schema().id("address");
        r.set_value(3, addr, "100 Other St".into());
        let e = ecfd1(&r);
        assert!(!e.holds(&r));
        let v = e.violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![2, 3]);
    }

    #[test]
    fn cfd_embedding_preserves_semantics() {
        let r = hotels_r5();
        let s = r.schema();
        // cfd1 from §2.5.1.
        let lhs = AttrSet::from_ids([s.id("region"), s.id("name")]);
        let rhs = AttrSet::single(s.id("address"));
        let cfd = Cfd::new(
            s,
            lhs,
            rhs,
            Pattern::all_any(lhs.union(rhs)).with_const(s.id("region"), "Jackson"),
        );
        let e = ECfd::from_cfd(s, &cfd);
        assert_eq!(cfd.holds(&r), e.holds(&r));
        assert_eq!(cfd.violations(&r), e.violations(&r));
        // And a failing CFD (no condition): name → address.
        let fd = Fd::parse(s, "name -> address").unwrap();
        let cfd2 = Cfd::from_fd(s, &fd);
        let e2 = ECfd::from_cfd(s, &cfd2);
        assert!(!e2.holds(&r));
        assert_eq!(cfd2.holds(&r), e2.holds(&r));
    }

    #[test]
    fn inequality_condition() {
        // rate ≠ 189: covers t1, t2 only; name → region then holds there.
        let r = hotels_r5();
        let s = r.schema();
        let e = ECfd::new(
            s,
            AttrSet::from_ids([s.id("rate"), s.id("name")]),
            AttrSet::single(s.id("region")),
            vec![(s.id("rate"), PatternOp::Cmp(CmpOp::Neq, Value::int(189)))],
        );
        assert_eq!(e.matching_rows(&r), vec![0, 1]);
        assert!(e.holds(&r));
    }

    #[test]
    fn rhs_op_cell_single_tuple() {
        // rate ≤ 200 → region = "El Paso": t3 satisfies, t4 has
        // "El Paso, TX" → violation.
        let r = hotels_r5();
        let s = r.schema();
        let e = ECfd::new(
            s,
            AttrSet::single(s.id("rate")),
            AttrSet::single(s.id("region")),
            vec![
                (s.id("rate"), PatternOp::Cmp(CmpOp::Leq, Value::int(200))),
                (
                    s.id("region"),
                    PatternOp::Cmp(CmpOp::Eq, Value::str("El Paso")),
                ),
            ],
        );
        assert!(!e.holds(&r));
        let v = e.violations(&r);
        // Row 3 fails the constant; rows {2,3} also disagree pairwise.
        assert!(v.iter().any(|v| v.rows == vec![3]));
        assert!(v.iter().any(|v| v.rows == vec![2, 3]));
    }
}
