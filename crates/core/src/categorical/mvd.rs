//! Multivalued dependencies (§2.6): tuple-generating dependencies.

use crate::categorical::Fd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_relation::{AttrSet, Relation, Schema, StrippedPartition, SubGroup};
use std::fmt;

/// A multivalued dependency `X ↠ Y` with `Z = R − X − Y`: within each
/// `X`-group, the set of `Y`-values is independent of the `Z`-values, i.e.
/// `r = π_XY(r) ⋈ π_XZ(r)` (§2.6.1).
///
/// Unlike the equality-generating notations, a violation witness is a tuple
/// *pair* whose recombination `(t1[XY], t2[Z])` is missing from the
/// relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mvd {
    x: AttrSet,
    y: AttrSet,
    display: String,
}

impl Mvd {
    /// Build an MVD `X ↠ Y`. `Y` is implicitly made disjoint from `X`
    /// (`t[Y∩X]` is determined by `t[X]` anyway).
    pub fn new(schema: &Schema, x: AttrSet, y: AttrSet) -> Self {
        let y = y.difference(x);
        let names = |s: AttrSet| {
            s.iter()
                .map(|a| schema.name(a).to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} ->> {}", names(x), names(y));
        Mvd { x, y, display }
    }

    /// The Fig. 1 embedding: an FD `X → Y` is the MVD `X ↠ Y` whose
    /// per-group `Y`-value set has size 1 (§2.6.2). (Every FD is an MVD.)
    pub fn from_fd(schema: &Schema, fd: &Fd) -> Self {
        Mvd::new(schema, fd.lhs(), fd.rhs())
    }

    /// The determinant `X`.
    pub fn x(&self) -> AttrSet {
        self.x
    }

    /// The dependent set `Y`.
    pub fn y(&self) -> AttrSet {
        self.y
    }

    /// The complement `Z = R − X − Y` for a given relation.
    pub fn z(&self, r: &Relation) -> AttrSet {
        r.all_attrs().difference(self.x).difference(self.y)
    }

    /// Number of *spurious* tuples the decomposition `π_XY ⋈ π_XZ` would
    /// introduce: `Σ_groups (|Y_g|·|Z_g| − |YZ_g|)` over distinct values.
    /// Zero iff the MVD holds. This is the quantity AMVD accuracy
    /// thresholds (§2.6.6).
    pub fn spurious_tuples(&self, r: &Relation) -> usize {
        self.split_counts(r).map(|(y, z, yz)| y * z - yz).sum()
    }

    /// Size of the join `π_XY ⋈ π_XZ` (distinct tuples), the denominator of
    /// the AMVD accuracy measure.
    pub fn join_size(&self, r: &Relation) -> usize {
        self.split_counts(r).map(|(y, z, _)| y * z).sum()
    }

    /// `(|Y_g|, |Z_g|, |YZ_g|)` for every group `g` of `π_X`: the number of
    /// sub-groups it splits into by `π_{X∪Y}`, `π_{X∪Z}` and `π_{X∪Y∪Z}`.
    fn split_counts(&self, r: &Relation) -> impl Iterator<Item = (usize, usize, usize)> {
        let z = self.z(r);
        let splitter =
            |attrs: AttrSet| StrippedPartition::from_attrs(r, self.x.union(attrs)).splitter();
        let (mut by_y, mut by_z, mut by_yz) =
            (splitter(self.y), splitter(z), splitter(self.y.union(z)));
        StrippedPartition::from_attrs(r, self.x)
            .into_groups()
            .map(move |g| {
                (
                    by_y.split(&g).len(),
                    by_z.split(&g).len(),
                    by_yz.split(&g).len(),
                )
            })
    }

    /// The tuples the decomposition `π_XY ⋈ π_XZ` adds, one
    /// `(y_row, z_row)` pair per tuple `(t_y[X ∪ Y], t_z[Z])` missing from
    /// `r`: the two rows share an `X`-class and stand for their `Y`- and
    /// `Z`-values by the first row holding each. `X`-classes come in
    /// first-row order, then `Y`-values, then `Z`-values. As many pairs as
    /// [`Mvd::spurious_tuples`] counts.
    pub fn missing_tuples(&self, r: &Relation) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for combos in self.combinations(r) {
            let present = present(&combos);
            // A value's first combination is the one its first row opens.
            let z_openers: Vec<usize> = combos.iter().filter(|c| c.0 == c.2).map(|c| c.2).collect();
            for &(_, y, _) in combos.iter().filter(|c| c.0 == c.1) {
                for &z in &z_openers {
                    if present.binary_search(&(y, z)).is_err() {
                        out.push((y, z));
                    }
                }
            }
        }
        out
    }

    /// Each class of `π_X` as its distinct `(Y, Z)` combinations: one
    /// `(row, y_row, z_row)` per sub-group of `π_{X∪Y∪Z}`, in first-row
    /// order — its first row, and the first row of its class of `π_{X∪Y}`
    /// and of `π_{X∪Z}`: the first row of the `X`-class holding its
    /// `Y`-value and its `Z`-value (each the first row of an earlier or
    /// the same combination).
    fn combinations(&self, r: &Relation) -> Vec<Vec<(usize, usize, usize)>> {
        let z = self.z(r);
        let y_first = first_rows(r, self.x.union(self.y));
        let z_first = first_rows(r, self.x.union(z));
        let all = self.x.union(self.y).union(z);
        let mut by_yz = StrippedPartition::from_attrs(r, all).splitter();
        let px = StrippedPartition::from_attrs(r, self.x);
        px.classes()
            .iter()
            .map(|class| {
                let combo = |s: &SubGroup| (s.first, y_first[s.first], z_first[s.first]);
                by_yz.split(class).iter().map(combo).collect()
            })
            .collect()
    }
}

/// Row → the first row of its class of `π_attrs` (itself when a singleton).
fn first_rows(r: &Relation, attrs: AttrSet) -> Vec<usize> {
    let mut first: Vec<usize> = (0..r.n_rows()).collect();
    for class in StrippedPartition::from_attrs(r, attrs).classes() {
        for &t in class {
            first[t] = class[0];
        }
    }
    first
}

/// The `(y_row, z_row)` pairs of one class's combinations, sorted for
/// binary search.
fn present(combos: &[(usize, usize, usize)]) -> Vec<(usize, usize)> {
    let mut present: Vec<(usize, usize)> = combos.iter().map(|&(_, y, z)| (y, z)).collect();
    present.sort_unstable();
    present
}

impl Dependency for Mvd {
    fn kind(&self) -> DepKind {
        DepKind::Mvd
    }

    fn holds(&self, r: &Relation) -> bool {
        self.spurious_tuples(r) == 0
    }

    /// Witness pairs `(t1, t2)`, the first rows of two `(Y, Z)`
    /// combinations of one `X`-group, for which no tuple carries
    /// `(t1[Y], t2[Z])` or `(t2[Y], t1[Z])` — the tuples whose required
    /// "generated" counterpart is absent.
    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let yz = self.y.union(self.z(r));
        let mut out = Vec::new();
        for combos in self.combinations(r) {
            let present = present(&combos);
            let has = |y: usize, z: usize| present.binary_search(&(y, z)).is_ok();
            for (i, &(t1, y1, z1)) in combos.iter().enumerate() {
                for &(t2, y2, z2) in &combos[i + 1..] {
                    if !has(y1, z2) || !has(y2, z1) {
                        out.push(Violation::pair(t1, t2, yz));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.rows.cmp(&b.rows));
        out
    }
}

impl fmt::Display for Mvd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MVD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r5;
    use deptree_relation::{RelationBuilder, ValueType};

    #[test]
    fn mvd1_on_r5() {
        // §2.6.1: mvd1: address, rate ↠ region holds in r5.
        let r = hotels_r5();
        let s = r.schema();
        let mvd = Mvd::new(
            s,
            AttrSet::from_ids([s.id("address"), s.id("rate")]),
            AttrSet::single(s.id("region")),
        );
        assert!(mvd.holds(&r));
        assert!(mvd.violations(&r).is_empty());
    }

    #[test]
    fn classic_textbook_violation() {
        // course ↠ teacher with Z = book: a missing recombination.
        let r = RelationBuilder::new()
            .attr("course", ValueType::Categorical)
            .attr("teacher", ValueType::Categorical)
            .attr("book", ValueType::Categorical)
            .row(vec!["db".into(), "ann".into(), "codd".into()])
            .row(vec!["db".into(), "bob".into(), "date".into()])
            .build()
            .unwrap();
        let s = r.schema();
        let mvd = Mvd::new(
            s,
            AttrSet::single(s.id("course")),
            AttrSet::single(s.id("teacher")),
        );
        assert!(!mvd.holds(&r));
        assert_eq!(mvd.spurious_tuples(&r), 2); // (ann,date) and (bob,codd)
        let v = mvd.violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![0, 1]);
        // Completing the cross product repairs it.
        let r2 = RelationBuilder::new()
            .attr("course", ValueType::Categorical)
            .attr("teacher", ValueType::Categorical)
            .attr("book", ValueType::Categorical)
            .row(vec!["db".into(), "ann".into(), "codd".into()])
            .row(vec!["db".into(), "bob".into(), "date".into()])
            .row(vec!["db".into(), "ann".into(), "date".into()])
            .row(vec!["db".into(), "bob".into(), "codd".into()])
            .build()
            .unwrap();
        assert!(mvd.holds(&r2));
    }

    #[test]
    fn fd_embedding_is_sound() {
        // Every FD is an MVD: whenever the FD holds, the MVD holds.
        let r = hotels_r5();
        let s = r.schema();
        for text in ["address -> region", "name -> address", "rate -> region"] {
            let fd = Fd::parse(s, text).unwrap();
            let mvd = Mvd::from_fd(s, &fd);
            if fd.holds(&r) {
                assert!(mvd.holds(&r), "FD holds but MVD fails for {text}");
            }
        }
    }

    #[test]
    fn mvd_strictly_weaker_than_fd() {
        // The cross-product completion satisfies course ↠ teacher but not
        // course → teacher: MVDs are strictly more permissive.
        let r = RelationBuilder::new()
            .attr("course", ValueType::Categorical)
            .attr("teacher", ValueType::Categorical)
            .attr("book", ValueType::Categorical)
            .row(vec!["db".into(), "ann".into(), "codd".into()])
            .row(vec!["db".into(), "bob".into(), "codd".into()])
            .build()
            .unwrap();
        let s = r.schema();
        let fd = Fd::parse(s, "course -> teacher").unwrap();
        let mvd = Mvd::from_fd(s, &fd);
        assert!(!fd.holds(&r));
        assert!(mvd.holds(&r)); // book is constant; independence trivially holds
    }

    #[test]
    fn join_size_and_spurious_consistent() {
        let r = hotels_r5();
        let s = r.schema();
        let mvd = Mvd::new(
            s,
            AttrSet::single(s.id("name")),
            AttrSet::single(s.id("region")),
        );
        let distinct_tuples = r.distinct_count(r.all_attrs());
        assert_eq!(mvd.join_size(&r) - mvd.spurious_tuples(&r), distinct_tuples);
    }

    #[test]
    fn y_overlapping_x_normalized() {
        let r = hotels_r5();
        let s = r.schema();
        let x = AttrSet::from_ids([s.id("name"), s.id("address")]);
        let y = AttrSet::from_ids([s.id("name"), s.id("region")]);
        let mvd = Mvd::new(s, x, y);
        assert_eq!(mvd.y(), AttrSet::single(s.id("region")));
    }

    #[test]
    fn a_unique_z_column_recombines_in_bounded_time() {
        // One `X`-class of 40,000 rows, two `Y`-values and a unique `Z`:
        // 40,000 combinations, each opening its own `Z`-value. Searching
        // the combinations for each one's `Z`-value would take 8·10⁸ row
        // comparisons; reading it off `π_{X∪Z}` is linear.
        use std::time::{Duration, Instant};
        let mut b = RelationBuilder::new()
            .attr("course", ValueType::Categorical)
            .attr("teacher", ValueType::Categorical)
            .attr("id", ValueType::Numeric);
        for i in 0..40_000i64 {
            let teacher = if i % 2 == 0 { "ann" } else { "bob" };
            b = b.row(vec!["db".into(), teacher.into(), i.into()]);
        }
        let r = b.build().unwrap();
        let s = r.schema();
        let mvd = Mvd::new(
            s,
            AttrSet::single(s.id("course")),
            AttrSet::single(s.id("teacher")),
        );
        let started = Instant::now();
        let missing = mvd.missing_tuples(&r);
        assert!(started.elapsed() < Duration::from_secs(5));
        // Each id lacks its row with the other teacher: (ann, 1), (bob, 0), …
        assert_eq!(missing.len(), 40_000);
        assert_eq!(missing.len(), mvd.spurious_tuples(&r));
        assert_eq!(&missing[..2], &[(0, 1), (0, 3)]);
        assert_eq!(missing[20_000], (1, 0));
    }
}
