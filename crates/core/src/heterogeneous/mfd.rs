//! Metric functional dependencies (§3.1).

use crate::categorical::Fd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation, Schema, StrippedPartition};
use std::fmt;

/// A metric functional dependency `X →^δ Y`: tuples with *equal*
/// `X`-values must be within metric distance `δ` on each dependent
/// attribute (§3.1.1). With `δ = 0` this degenerates to an FD.
#[derive(Debug, Clone, PartialEq)]
pub struct Mfd {
    lhs: AttrSet,
    rhs: Vec<(AttrId, Metric, f64)>,
    display: String,
}

impl Mfd {
    /// Build an MFD. `rhs` lists `(attribute, metric, δ)` constraints.
    ///
    /// # Panics
    /// Panics if any `δ < 0` or `rhs` is empty.
    pub fn new(schema: &Schema, lhs: AttrSet, rhs: Vec<(AttrId, Metric, f64)>) -> Self {
        assert!(
            !rhs.is_empty(),
            "MFD needs at least one dependent attribute"
        );
        assert!(
            rhs.iter().all(|(_, _, d)| *d >= 0.0),
            "distance thresholds must be non-negative"
        );
        let lhs_names = lhs
            .iter()
            .map(|a| schema.name(a).to_owned())
            .collect::<Vec<_>>()
            .join(", ");
        let rhs_names = rhs
            .iter()
            .map(|(a, _, d)| format!("{}(δ≤{})", schema.name(*a), d))
            .collect::<Vec<_>>()
            .join(", ");
        let display = format!("{lhs_names} -> {rhs_names}");
        Mfd { lhs, rhs, display }
    }

    /// The Fig. 1 embedding: an FD is an MFD with `δ = 0` on every
    /// dependent attribute (§3.1.2).
    pub fn from_fd(schema: &Schema, fd: &Fd) -> Self {
        let rhs = fd
            .rhs()
            .iter()
            .map(|a| (a, Metric::Equality, 0.0))
            .collect();
        Mfd::new(schema, fd.lhs(), rhs)
    }

    /// Determinant attributes (compared by equality).
    pub fn lhs(&self) -> AttrSet {
        self.lhs
    }

    /// Dependent `(attribute, metric, δ)` constraints.
    pub fn rhs(&self) -> &[(AttrId, Metric, f64)] {
        &self.rhs
    }

    /// The attributes on the dependent side.
    pub fn rhs_attrs(&self) -> AttrSet {
        self.rhs.iter().map(|(a, _, _)| *a).collect()
    }

    /// The *diameter* of an equal-`X` group on a dependent attribute: the
    /// maximum pairwise distance. The MFD holds iff every group's diameter
    /// is within its `δ` — the `O(n²)` verification step of Koudas et al.
    /// (§3.1.3).
    pub fn group_diameter(&self, r: &Relation, rows: &[usize], atom: usize) -> f64 {
        let (attr, metric, _) = &self.rhs[atom];
        let mut max = 0.0f64;
        for (i, &r1) in rows.iter().enumerate() {
            for &r2 in rows.iter().skip(i + 1) {
                max = max.max(metric.dist(r.value(r1, *attr), r.value(r2, *attr)));
            }
        }
        max
    }
}

impl Dependency for Mfd {
    fn kind(&self) -> DepKind {
        DepKind::Mfd
    }

    /// Every class of `π_X` is within `δ` on every dependent attribute
    /// (a one-row group's diameter is 0).
    fn holds(&self, r: &Relation) -> bool {
        let px = StrippedPartition::from_attrs(r, self.lhs);
        px.classes().iter().all(|rows| {
            self.rhs
                .iter()
                .enumerate()
                .all(|(i, (_, _, delta))| self.group_diameter(r, rows, i) <= *delta)
        })
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        let mut out = Vec::new();
        for rows in StrippedPartition::from_attrs(r, self.lhs).classes() {
            for (i, &r1) in rows.iter().enumerate() {
                for &r2 in rows.iter().skip(i + 1) {
                    let bad: AttrSet = self
                        .rhs
                        .iter()
                        .filter(|(attr, metric, delta)| {
                            metric.dist(r.value(r1, *attr), r.value(r2, *attr)) > *delta
                        })
                        .map(|(a, _, _)| *a)
                        .collect();
                    if !bad.is_empty() {
                        out.push(Violation::pair(r1, r2, bad));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.rows.cmp(&b.rows));
        out
    }
}

impl fmt::Display for Mfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MFD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::{hotels_r1, hotels_r6};

    #[test]
    fn mfd1_on_r6() {
        // §3.1.1: mfd1: name, region →^500 price holds: t2 and t6 share
        // name NC and region San Jose; |300 − 300| = 0 ≤ 500.
        let r = hotels_r6();
        let s = r.schema();
        let mfd = Mfd::new(
            s,
            AttrSet::from_ids([s.id("name"), s.id("region")]),
            vec![(s.id("price"), Metric::AbsDiff, 500.0)],
        );
        assert!(mfd.holds(&r));
        assert!(mfd.violations(&r).is_empty());
    }

    #[test]
    fn tighter_delta_fails_elsewhere() {
        // name, region →^δ tax with δ = 0 fails nowhere on r6 (t2/t6 taxes
        // are both 20); but address variants with equal X: check via an
        // injected price error.
        let mut r = hotels_r6();
        let s = r.schema();
        let price = s.id("price");
        r.set_value(5, price, 1200.into());
        let s = r.schema();
        let mfd = Mfd::new(
            s,
            AttrSet::from_ids([s.id("name"), s.id("region")]),
            vec![(s.id("price"), Metric::AbsDiff, 500.0)],
        );
        assert!(!mfd.holds(&r)); // |300 − 1200| = 900 > 500
        let v = mfd.violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![1, 5]);
        assert!(v[0].attrs.contains(price));
    }

    #[test]
    fn delta_zero_equals_fd() {
        for r in [hotels_r1(), hotels_r6()] {
            let s = r.schema();
            for text in ["address -> region", "name -> price", "region -> name"] {
                let Some(fd) = Fd::parse(s, text) else {
                    continue;
                };
                let mfd = Mfd::from_fd(s, &fd);
                assert_eq!(fd.holds(&r), mfd.holds(&r), "{text}");
                assert_eq!(
                    fd.violations(&r).is_empty(),
                    mfd.violations(&r).is_empty(),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn paper_motivating_case_lat_long_style() {
        // §3.1.4's motivation: small variations in dependent values should
        // not be flagged. On r1, address → region as an MFD with edit
        // distance δ = 4 accepts "Chicago" vs "Chicago, IL" (distance 4)
        // but still flags "Boston" vs "Chicago, MA" (distance 8).
        let r = hotels_r1();
        let s = r.schema();
        let mfd = Mfd::new(
            s,
            AttrSet::single(s.id("address")),
            vec![(s.id("region"), Metric::Levenshtein, 4.0)],
        );
        let v = mfd.violations(&r);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rows, vec![2, 3]); // only the true error remains
    }

    #[test]
    fn group_diameter_computed() {
        let r = hotels_r6();
        let s = r.schema();
        let mfd = Mfd::new(
            s,
            AttrSet::single(s.id("region")),
            vec![(s.id("price"), Metric::AbsDiff, 1000.0)],
        );
        // San Jose group rows {1, 4, 5}: prices 300, 399, 300 → diameter 99.
        assert_eq!(mfd.group_diameter(&r, &[1, 4, 5], 0), 99.0);
    }

    #[test]
    #[should_panic(expected = "at least one dependent")]
    fn empty_rhs_rejected() {
        let r = hotels_r6();
        Mfd::new(r.schema(), AttrSet::single(AttrId(0)), vec![]);
    }
}
