//! Full hierarchical dependencies (§2.6.5).

use crate::categorical::Mvd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_relation::{AttrSet, Relation, Schema, Splitter, StrippedPartition};
use std::fmt;

/// A full hierarchical dependency `X : {Y₁, …, Yₖ}`: the relation
/// decomposes losslessly into `π_XY₁ ⋈ … ⋈ π_XYₖ ⋈ π_X(R−XY₁…Yₖ)`
/// (Delobel; §2.6.5). With `k = 1` this is exactly the MVD `X ↠ Y₁`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fhd {
    x: AttrSet,
    ys: Vec<AttrSet>,
    display: String,
}

impl Fhd {
    /// Build an FHD. The `Yᵢ` are made pairwise disjoint and disjoint from
    /// `X` (overlaps are removed left to right).
    ///
    /// # Panics
    /// Panics if no `Yᵢ` remains non-empty after normalization.
    pub fn new(schema: &Schema, x: AttrSet, ys: Vec<AttrSet>) -> Self {
        let mut used = x;
        let mut norm = Vec::with_capacity(ys.len());
        for y in ys {
            let y = y.difference(used);
            if !y.is_empty() {
                used = used.union(y);
                norm.push(y);
            }
        }
        assert!(!norm.is_empty(), "FHD needs at least one non-empty Y block");
        let names = |s: AttrSet| {
            s.iter()
                .map(|a| schema.name(a).to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let blocks = norm
            .iter()
            .map(|&y| format!("{{{}}}", names(y)))
            .collect::<Vec<_>>()
            .join(", ");
        let display = format!("{} : {}", names(x), blocks);
        Fhd {
            x,
            ys: norm,
            display,
        }
    }

    /// The Fig. 1 embedding: an MVD `X ↠ Y` is the FHD `X : {Y}` (§2.6.5).
    pub fn from_mvd(schema: &Schema, mvd: &Mvd) -> Self {
        Fhd::new(schema, mvd.x(), vec![mvd.y()])
    }

    /// The hierarchy root `X`.
    pub fn x(&self) -> AttrSet {
        self.x
    }

    /// The blocks `Y₁, …, Yₖ`.
    pub fn ys(&self) -> &[AttrSet] {
        &self.ys
    }

    /// The residual block `R − X − Y₁ − … − Yₖ` for a relation.
    pub fn rest(&self, r: &Relation) -> AttrSet {
        self.ys
            .iter()
            .fold(r.all_attrs().difference(self.x), |acc, &y| {
                acc.difference(y)
            })
    }

    /// Spurious tuples introduced by the k-way decomposition join:
    /// `Σ_groups (Π_i |Yᵢ_g| · |rest_g| − |tuples_g|)`, each count the
    /// number of sub-groups a class of `π_X` splits into by `π_{X∪Yᵢ}`,
    /// `π_{X∪rest}` and `π_R`. Zero iff the FHD holds.
    pub fn spurious_tuples(&self, r: &Relation) -> usize {
        let rest = self.rest(r);
        let blocks = self
            .ys
            .iter()
            .copied()
            .chain((!rest.is_empty()).then_some(rest));
        let mut by_block: Vec<Splitter> = blocks
            .map(|b| StrippedPartition::from_attrs(r, self.x.union(b)).splitter())
            .collect();
        let mut by_tuple = StrippedPartition::from_attrs(r, r.all_attrs()).splitter();
        let px = StrippedPartition::from_attrs(r, self.x);
        px.classes()
            .iter()
            .map(|class| {
                let join = by_block
                    .iter_mut()
                    .fold(1usize, |join, s| join.saturating_mul(s.split(class).len()));
                join - by_tuple.split(class).len()
            })
            .sum()
    }
}

impl Dependency for Fhd {
    fn kind(&self) -> DepKind {
        DepKind::Fhd
    }

    fn holds(&self, r: &Relation) -> bool {
        self.spurious_tuples(r) == 0
    }

    /// Witnesses reported through the constituent MVDs: an FHD implies
    /// `X ↠ Yᵢ` for each block, so each violated block contributes its MVD
    /// witnesses.
    fn violations(&self, r: &Relation) -> Vec<Violation> {
        // Reconstruct per-block MVDs without schema access to names; build
        // them directly over the attribute sets.
        let mut out = Vec::new();
        for &y in &self.ys {
            let mvd = Mvd::new(
                // Schema is only used for the display string.
                r.schema(),
                self.x,
                y,
            );
            out.extend(mvd.violations(r));
        }
        out.sort_by(|a, b| a.rows.cmp(&b.rows));
        out.dedup();
        out
    }
}

impl fmt::Display for Fhd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FHD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::{RelationBuilder, ValueType};

    /// emp : {project}, {skill} — employees with independent projects and
    /// skills (classic 4NF example, extended hierarchically).
    fn cross_product_rel(complete: bool) -> Relation {
        let mut b = RelationBuilder::new()
            .attr("emp", ValueType::Categorical)
            .attr("project", ValueType::Categorical)
            .attr("skill", ValueType::Categorical)
            .row(vec!["e1".into(), "p1".into(), "s1".into()])
            .row(vec!["e1".into(), "p1".into(), "s2".into()])
            .row(vec!["e1".into(), "p2".into(), "s1".into()]);
        if complete {
            b = b.row(vec!["e1".into(), "p2".into(), "s2".into()]);
        }
        b.build().unwrap()
    }

    #[test]
    fn fhd_holds_on_complete_hierarchy() {
        let r = cross_product_rel(true);
        let s = r.schema();
        let fhd = Fhd::new(
            s,
            AttrSet::single(s.id("emp")),
            vec![
                AttrSet::single(s.id("project")),
                AttrSet::single(s.id("skill")),
            ],
        );
        assert!(fhd.holds(&r));
        assert_eq!(fhd.spurious_tuples(&r), 0);
    }

    #[test]
    fn fhd_fails_on_incomplete_hierarchy() {
        let r = cross_product_rel(false);
        let s = r.schema();
        let fhd = Fhd::new(
            s,
            AttrSet::single(s.id("emp")),
            vec![
                AttrSet::single(s.id("project")),
                AttrSet::single(s.id("skill")),
            ],
        );
        assert!(!fhd.holds(&r));
        assert_eq!(fhd.spurious_tuples(&r), 1); // missing (e1, p2, s2)
        assert!(!fhd.violations(&r).is_empty());
    }

    #[test]
    fn k1_fhd_equals_mvd() {
        for complete in [true, false] {
            let r = cross_product_rel(complete);
            let s = r.schema();
            let mvd = Mvd::new(
                s,
                AttrSet::single(s.id("emp")),
                AttrSet::single(s.id("project")),
            );
            let fhd = Fhd::from_mvd(s, &mvd);
            assert_eq!(mvd.holds(&r), fhd.holds(&r), "complete={complete}");
            assert_eq!(mvd.spurious_tuples(&r), fhd.spurious_tuples(&r));
        }
    }

    #[test]
    fn rest_block_computed() {
        let r = cross_product_rel(true);
        let s = r.schema();
        let fhd = Fhd::new(
            s,
            AttrSet::single(s.id("emp")),
            vec![AttrSet::single(s.id("project"))],
        );
        assert_eq!(fhd.rest(&r), AttrSet::single(s.id("skill")));
    }

    #[test]
    fn overlapping_blocks_normalized() {
        let r = cross_product_rel(true);
        let s = r.schema();
        let fhd = Fhd::new(
            s,
            AttrSet::single(s.id("emp")),
            vec![
                AttrSet::from_ids([s.id("emp"), s.id("project")]),
                AttrSet::from_ids([s.id("project"), s.id("skill")]),
            ],
        );
        assert_eq!(
            fhd.ys(),
            &[
                AttrSet::single(s.id("project")),
                AttrSet::single(s.id("skill"))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one non-empty Y block")]
    fn degenerate_fhd_rejected() {
        let r = cross_product_rel(true);
        let s = r.schema();
        Fhd::new(
            s,
            AttrSet::single(s.id("emp")),
            vec![AttrSet::single(s.id("emp"))],
        );
    }
}
