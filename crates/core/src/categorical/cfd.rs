//! Conditional functional dependencies (§2.5).

use crate::categorical::fd::witnesses;
use crate::categorical::Fd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_relation::{AttrId, AttrSet, Relation, Schema, Value};
use std::fmt;

/// One cell of a CFD pattern tuple: a constant from the attribute's domain
/// or the unnamed variable `_` (§2.5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternCell {
    /// `_`: draws any value from the domain.
    Any,
    /// A constant `a ∈ dom(A)`.
    Const(Value),
}

impl PatternCell {
    /// Does a value match this cell?
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            PatternCell::Any => true,
            PatternCell::Const(c) => v == c,
        }
    }

    /// Is this cell a constant?
    pub fn is_const(&self) -> bool {
        matches!(self, PatternCell::Const(_))
    }
}

impl fmt::Display for PatternCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternCell::Any => write!(f, "_"),
            PatternCell::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A pattern tuple `t_p` over a set of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    cells: Vec<(AttrId, PatternCell)>,
}

impl Pattern {
    /// The all-variables pattern over the given attributes — the pattern
    /// that turns a CFD back into a plain FD (§2.5.2).
    pub fn all_any(attrs: AttrSet) -> Self {
        Pattern {
            cells: attrs.iter().map(|a| (a, PatternCell::Any)).collect(),
        }
    }

    /// Empty pattern; add cells with [`Pattern::with`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or overwrite) a cell.
    #[must_use]
    pub fn with(mut self, attr: AttrId, cell: PatternCell) -> Self {
        if let Some(slot) = self.cells.iter_mut().find(|(a, _)| *a == attr) {
            slot.1 = cell;
        } else {
            self.cells.push((attr, cell));
        }
        self
    }

    /// Shorthand for a constant cell.
    #[must_use]
    pub fn with_const(self, attr: AttrId, v: impl Into<Value>) -> Self {
        self.with(attr, PatternCell::Const(v.into()))
    }

    /// The cell for `attr` (absent cells behave as `_`).
    pub fn cell(&self, attr: AttrId) -> &PatternCell {
        self.cells
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, c)| c)
            .unwrap_or(&PatternCell::Any)
    }

    /// Does the row match this pattern on all of `attrs`?
    pub fn matches_on(&self, r: &Relation, row: usize, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| self.cell(a).matches(r.value(row, a)))
    }

    /// Are all cells on `attrs` constants?
    pub fn all_const_on(&self, attrs: AttrSet) -> bool {
        attrs.iter().all(|a| self.cell(a).is_const())
    }

    /// Iterate over explicitly set cells.
    pub fn cells(&self) -> impl Iterator<Item = (AttrId, &PatternCell)> {
        self.cells.iter().map(|(a, c)| (*a, c))
    }
}

/// A conditional functional dependency `(X → Y, t_p)`: the embedded FD
/// holds on the subset of tuples matching the pattern (§2.5.1).
///
/// Satisfaction follows Fan et al.: for all tuples `t1, t2` (including
/// `t1 = t2`), if `t1[X] = t2[X]` and both match `t_p[X]`, then
/// `t1[Y] = t2[Y]` and both match `t_p[Y]`. The `t1 = t2` case gives
/// constant CFDs their single-tuple semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfd {
    lhs: AttrSet,
    rhs: AttrSet,
    pattern: Pattern,
    display: String,
}

impl Cfd {
    /// Build a CFD.
    pub fn new(schema: &Schema, lhs: AttrSet, rhs: AttrSet, pattern: Pattern) -> Self {
        let fmt_side = |set: AttrSet| {
            set.iter()
                .map(|a| format!("{}={}", schema.name(a), pattern.cell(a)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} -> {}", fmt_side(lhs), fmt_side(rhs));
        Cfd {
            lhs,
            rhs,
            pattern,
            display,
        }
    }

    /// The Fig. 1 embedding: an FD is a CFD whose pattern has no constants
    /// (§2.5.2).
    pub fn from_fd(schema: &Schema, fd: &Fd) -> Self {
        Cfd::new(
            schema,
            fd.lhs(),
            fd.rhs(),
            Pattern::all_any(fd.lhs().union(fd.rhs())),
        )
    }

    /// Determinant attributes.
    pub fn lhs(&self) -> AttrSet {
        self.lhs
    }

    /// Dependent attributes.
    pub fn rhs(&self) -> AttrSet {
        self.rhs
    }

    /// The pattern tuple.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Is this a *constant* CFD (all pattern cells constants)?
    pub fn is_constant(&self) -> bool {
        self.pattern.all_const_on(self.lhs.union(self.rhs))
    }

    /// Rows matching `t_p[X]` — the scope the condition selects.
    pub fn matching_rows(&self, r: &Relation) -> Vec<usize> {
        (0..r.n_rows())
            .filter(|&row| self.pattern.matches_on(r, row, self.lhs))
            .collect()
    }

    /// Support: fraction of tuples the condition covers. CFD discovery
    /// ranks tableaux by this (§2.5.3).
    pub fn support(&self, r: &Relation) -> f64 {
        if r.n_rows() == 0 {
            return 0.0;
        }
        self.matching_rows(r).len() as f64 / r.n_rows() as f64
    }
}

impl Dependency for Cfd {
    fn kind(&self) -> DepKind {
        DepKind::Cfd
    }

    fn holds(&self, r: &Relation) -> bool {
        self.count_violations(r) == 0
    }

    /// A row witness per matching row that misses `t_p[Y]`, then the FD
    /// witnesses of the matching classes of `π_X`.
    fn violations(&self, r: &Relation) -> Vec<Violation> {
        conditional_witnesses(
            r,
            self.lhs,
            self.rhs,
            |row| self.pattern.matches_on(r, row, self.lhs),
            |row, a| self.pattern.cell(a).matches(r.value(row, a)),
        )
    }
}

/// The witnesses of a conditional FD `(X → Y, t_p)`, shared by CFDs and
/// eCFDs: a row witness, on the failing cells, for each row that matches
/// `t_p[X]` (`lhs_ok`) but has a `Y`-cell `cell_ok` rejects; then the FD
/// witnesses of the classes of `π_X` that match. Sorted by rows.
pub(crate) fn conditional_witnesses(
    r: &Relation,
    lhs: AttrSet,
    rhs: AttrSet,
    lhs_ok: impl Fn(usize) -> bool,
    cell_ok: impl Fn(usize, AttrId) -> bool,
) -> Vec<Violation> {
    let mut out: Vec<Violation> = (0..r.n_rows())
        .filter(|&row| lhs_ok(row))
        .filter_map(|row| {
            let bad: AttrSet = rhs.iter().filter(|&a| !cell_ok(row, a)).collect();
            (!bad.is_empty()).then(|| Violation::row(row, bad))
        })
        .collect();
    out.extend(witnesses(r, lhs, rhs, &lhs_ok));
    out.sort_by(|a, b| a.rows.cmp(&b.rows));
    out
}

impl fmt::Display for Cfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CFD: {}", self.display)
    }
}

/// A CFD *tableau*: one embedded FD with several pattern rows — the form
/// CFDs take in practice (Fan et al. write `(X → Y, T_p)` with a pattern
/// tableau `T_p`). Satisfaction is the conjunction of the per-row CFDs;
/// the tableau's value is its *coverage*: the fraction of tuples at least
/// one row conditions on (the quantity the NP-complete optimal-tableau
/// problem maximizes, §2.5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CfdTableau {
    lhs: AttrSet,
    rhs: AttrSet,
    rows: Vec<Cfd>,
}

impl CfdTableau {
    /// Assemble a tableau from pattern rows over a shared embedded FD.
    ///
    /// # Panics
    /// Panics if `rows` is empty or the rows disagree on the embedded FD;
    /// use [`CfdTableau::try_new`] for a fallible variant.
    pub fn new(rows: Vec<Cfd>) -> Self {
        match Self::try_new(rows) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CfdTableau::new`]: errors instead of panicking when the
    /// row set is empty or the rows disagree on the embedded FD.
    pub fn try_new(rows: Vec<Cfd>) -> crate::error::Result<Self> {
        let Some(first) = rows.first() else {
            return Err(crate::error::DeptreeError::InvalidConfig(
                "tableau needs at least one row".into(),
            ));
        };
        let (lhs, rhs) = (first.lhs(), first.rhs());
        if !rows.iter().all(|c| c.lhs() == lhs && c.rhs() == rhs) {
            return Err(crate::error::DeptreeError::InvalidConfig(
                "tableau rows must share the embedded FD".into(),
            ));
        }
        Ok(CfdTableau { lhs, rhs, rows })
    }

    /// The embedded FD's determinant.
    pub fn lhs(&self) -> AttrSet {
        self.lhs
    }

    /// The embedded FD's dependent attributes.
    pub fn rhs(&self) -> AttrSet {
        self.rhs
    }

    /// The pattern rows.
    pub fn rows(&self) -> &[Cfd] {
        &self.rows
    }

    /// Fraction of tuples covered by at least one row's condition.
    pub fn coverage(&self, r: &Relation) -> f64 {
        if r.n_rows() == 0 {
            return 0.0;
        }
        let mut covered = vec![false; r.n_rows()];
        for cfd in &self.rows {
            for row in cfd.matching_rows(r) {
                covered[row] = true;
            }
        }
        covered.iter().filter(|&&c| c).count() as f64 / r.n_rows() as f64
    }
}

impl Dependency for CfdTableau {
    fn kind(&self) -> DepKind {
        DepKind::Cfd
    }

    fn holds(&self, r: &Relation) -> bool {
        self.rows.iter().all(|c| c.holds(r))
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let mut out: Vec<Violation> = self.rows.iter().flat_map(|c| c.violations(r)).collect();
        out.sort_by(|a, b| a.rows.cmp(&b.rows));
        out.dedup();
        out
    }
}

impl fmt::Display for CfdTableau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CFD tableau ({} rows): ", self.rows.len())?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{}", &row.to_string()[5..])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::{hotels_r1, hotels_r5};

    fn cfd1(r: &Relation) -> Cfd {
        // §2.5.1: cfd1: region = "Jackson", name = _ → address = _.
        let s = r.schema();
        let lhs = AttrSet::from_ids([s.id("region"), s.id("name")]);
        let rhs = AttrSet::single(s.id("address"));
        let pattern = Pattern::all_any(lhs.union(rhs)).with_const(s.id("region"), "Jackson");
        Cfd::new(s, lhs, rhs, pattern)
    }

    #[test]
    fn cfd1_holds_on_r5() {
        let r = hotels_r5();
        let cfd = cfd1(&r);
        assert!(cfd.holds(&r));
        assert!(cfd.violations(&r).is_empty());
        // The condition covers exactly t1, t2.
        assert_eq!(cfd.matching_rows(&r), vec![0, 1]);
        assert!((cfd.support(&r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unconditioned_fd_via_cfd_on_r5() {
        // Without the Jackson condition, name → address fails on r5.
        let r = hotels_r5();
        let s = r.schema();
        let fd = Fd::parse(s, "name -> address").unwrap();
        let cfd = Cfd::from_fd(s, &fd);
        assert!(!cfd.holds(&r));
        assert_eq!(fd.holds(&r), cfd.holds(&r));
    }

    #[test]
    fn embedding_agrees_with_fd_everywhere() {
        for r in [hotels_r1(), hotels_r5()] {
            let s = r.schema();
            for text in ["name -> address", "address -> region", "name -> region"] {
                let Some(fd) = Fd::parse(s, text) else {
                    continue;
                };
                let cfd = Cfd::from_fd(s, &fd);
                assert_eq!(fd.holds(&r), cfd.holds(&r), "{text}");
                assert_eq!(fd.violations(&r).len(), cfd.violations(&r).len(), "{text}");
            }
        }
    }

    #[test]
    fn constant_rhs_single_tuple_semantics() {
        // region = "Jackson" → name = "Hyatt": every Jackson tuple must be
        // a Hyatt. Holds on r5.
        let r = hotels_r5();
        let s = r.schema();
        let lhs = AttrSet::single(s.id("region"));
        let rhs = AttrSet::single(s.id("name"));
        let ok = Cfd::new(
            s,
            lhs,
            rhs,
            Pattern::new()
                .with_const(s.id("region"), "Jackson")
                .with_const(s.id("name"), "Hyatt"),
        );
        assert!(ok.holds(&r));
        assert!(ok.is_constant());
        let bad = Cfd::new(
            s,
            lhs,
            rhs,
            Pattern::new()
                .with_const(s.id("region"), "Jackson")
                .with_const(s.id("name"), "Ritz"),
        );
        assert!(!bad.holds(&r));
        let v = bad.violations(&r);
        assert_eq!(v.len(), 2); // t1 and t2 both fail the constant
        assert_eq!(v[0].rows, vec![0]);
    }

    #[test]
    fn pattern_overwrite_and_default_any() {
        let p = Pattern::new()
            .with_const(AttrId(0), "a")
            .with_const(AttrId(0), "b");
        assert_eq!(p.cell(AttrId(0)), &PatternCell::Const(Value::str("b")));
        assert_eq!(p.cell(AttrId(5)), &PatternCell::Any);
    }

    #[test]
    fn display_shows_condition() {
        let r = hotels_r5();
        let cfd = cfd1(&r);
        assert_eq!(cfd.to_string(), "CFD: name=_, region=Jackson -> address=_");
    }

    #[test]
    fn tableau_conjunction_and_coverage() {
        // Two rows over address → region on r5: the clean Jackson address
        // and the dirty El Paso one.
        let r = hotels_r5();
        let s = r.schema();
        let lhs = AttrSet::single(s.id("address"));
        let rhs = AttrSet::single(s.id("region"));
        let mk = |addr: &str| {
            Cfd::new(
                s,
                lhs,
                rhs,
                Pattern::all_any(lhs.union(rhs)).with_const(s.id("address"), addr),
            )
        };
        let clean = CfdTableau::new(vec![mk("175 North Jackson Street")]);
        assert!(clean.holds(&r));
        assert!((clean.coverage(&r) - 0.5).abs() < 1e-12);
        let both = CfdTableau::new(vec![
            mk("175 North Jackson Street"),
            mk("6030 Gateway Boulevard E"),
        ]);
        assert!((both.coverage(&r) - 1.0).abs() < 1e-12);
        assert!(!both.holds(&r)); // the El Paso row is violated
        assert_eq!(both.violations(&r).len(), 1);
        assert!(both.to_string().starts_with("CFD tableau (2 rows)"));
    }

    #[test]
    #[should_panic(expected = "share the embedded FD")]
    fn tableau_rejects_mixed_fds() {
        let r = hotels_r5();
        let s = r.schema();
        let a = Cfd::from_fd(s, &Fd::parse(s, "address -> region").unwrap());
        let b = Cfd::from_fd(s, &Fd::parse(s, "name -> region").unwrap());
        CfdTableau::new(vec![a, b]);
    }
}
