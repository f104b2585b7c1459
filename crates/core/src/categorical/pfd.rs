//! Probabilistic functional dependencies (§2.2).

use crate::categorical::Fd;
use crate::dep::{DepKind, Dependency, Violation};
use deptree_relation::{Relation, StrippedPartition, SubGroup};
use std::fmt;

/// A probabilistic functional dependency `X →ₚ Y` from pay-as-you-go data
/// integration (Wang et al.): for each distinct `X`-value, the fraction of
/// tuples carrying the modal `Y`-value, averaged over `X`-values, must be
/// at least `p` (§2.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Pfd {
    embedded: Fd,
    threshold: f64,
}

impl Pfd {
    /// Build a PFD with a minimum probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p ≤ 1`.
    pub fn new(embedded: Fd, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "probability threshold must be in (0, 1]"
        );
        Pfd {
            embedded,
            threshold,
        }
    }

    /// The Fig. 1 embedding: an FD is a PFD with probability 1 (§2.2.2).
    pub fn from_fd(fd: Fd) -> Self {
        Pfd::new(fd, 1.0)
    }

    /// The embedded FD.
    pub fn embedded(&self) -> &Fd {
        &self.embedded
    }

    /// The minimum probability `p`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Per-value probability `P(X → Y, V_X)`: the fraction of tuples with
    /// `X = V_X` carrying the most frequent `Y`-value (§2.2.1). `rows` are
    /// the distinct rows of one `X`-group; they are split by `π_Y`.
    pub fn probability_for_group(&self, r: &Relation, rows: &[usize]) -> f64 {
        if rows.is_empty() {
            return 1.0;
        }
        let mut by_y = StrippedPartition::from_attrs(r, self.embedded.rhs()).splitter();
        modal_share(rows.len(), by_y.split(rows))
    }

    /// The probability `P(X → Y, r)`: average of per-value probabilities
    /// over all distinct `X`-values (§2.2.1). Defined as 1 on the empty
    /// relation.
    ///
    /// Each class of `π_X`, split by `π_{X∪Y}`, contributes its modal
    /// share, summed in canonical class order; each `X`-value held by a
    /// single row contributes 1, added last. One input gives one value.
    pub fn probability(&self, r: &Relation) -> f64 {
        if r.n_rows() == 0 {
            return 1.0;
        }
        let lhs = self.embedded.lhs();
        let px = StrippedPartition::from_attrs(r, lhs);
        let mut by_xy = StrippedPartition::from_attrs(r, lhs.union(self.embedded.rhs())).splitter();
        let classes: f64 = px
            .classes()
            .iter()
            .map(|class| modal_share(class.len(), by_xy.split(class)))
            .sum();
        let singletons = px.num_classes() - px.classes().len();
        (classes + singletons as f64) / px.num_classes() as f64
    }
}

/// Share of a group of `n` rows held by its largest sub-group.
fn modal_share(n: usize, subs: &[SubGroup]) -> f64 {
    let max = subs.iter().map(|s| s.len).max().unwrap_or(0);
    max as f64 / n as f64
}

impl Dependency for Pfd {
    fn kind(&self) -> DepKind {
        DepKind::Pfd
    }

    fn holds(&self, r: &Relation) -> bool {
        self.probability(r) >= self.threshold
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        self.embedded.violations(r)
    }
}

impl fmt::Display for Pfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PFD(p≥{}): {}",
            self.threshold,
            &self.embedded.to_string()[4..]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r5;

    #[test]
    fn paper_probabilities_on_r5() {
        // §2.2.1: P(address → region, V1) = 1, P(·, V2) = 1/2, average 3/4;
        //         P(name → address, r5) = 1/2.
        let r = hotels_r5();
        let p1 = Pfd::new(Fd::parse(r.schema(), "address -> region").unwrap(), 0.7);
        assert!((p1.probability(&r) - 0.75).abs() < 1e-12);
        assert!(p1.holds(&r));
        let p2 = Pfd::new(Fd::parse(r.schema(), "name -> address").unwrap(), 0.7);
        assert!((p2.probability(&r) - 0.5).abs() < 1e-12);
        assert!(!p2.holds(&r));
    }

    #[test]
    fn per_group_probabilities() {
        let r = hotels_r5();
        let pfd = Pfd::new(Fd::parse(r.schema(), "address -> region").unwrap(), 0.7);
        // Group for "175 North Jackson Street" = rows {0, 1}, both Jackson.
        assert_eq!(pfd.probability_for_group(&r, &[0, 1]), 1.0);
        // Group for "6030 Gateway Boulevard E" = rows {2, 3}, split.
        assert_eq!(pfd.probability_for_group(&r, &[2, 3]), 0.5);
    }

    #[test]
    fn probability_one_iff_fd_holds() {
        let r = hotels_r5();
        for text in ["address -> region", "name -> address", "rate -> name"] {
            let fd = Fd::parse(r.schema(), text).unwrap();
            let pfd = Pfd::from_fd(fd.clone());
            assert_eq!(
                fd.holds(&r),
                (pfd.probability(&r) - 1.0).abs() < 1e-12,
                "embedding mismatch for {text}"
            );
            assert_eq!(fd.holds(&r), pfd.holds(&r));
        }
    }

    #[test]
    fn probability_is_one_value_for_one_input() {
        // 97 X-values whose modal shares differ, so the sum's rounding
        // depends on the order the groups are added in.
        let mut b = deptree_relation::RelationBuilder::new()
            .attr("x", deptree_relation::ValueType::Categorical)
            .attr("y", deptree_relation::ValueType::Categorical);
        for i in 0..1000i64 {
            b = b.row(vec![(i % 97).into(), ((i * i) % 7).into()]);
        }
        let r = b.build().unwrap();
        let pfd = Pfd::new(Fd::parse(r.schema(), "x -> y").unwrap(), 0.5);
        let first = pfd.probability(&r).to_bits();
        for _ in 0..20 {
            assert_eq!(pfd.probability(&r).to_bits(), first);
        }
    }

    #[test]
    #[should_panic(expected = "probability threshold")]
    fn out_of_range_threshold_rejected() {
        let r = hotels_r5();
        Pfd::new(Fd::parse(r.schema(), "name -> rate").unwrap(), 1.5);
    }
}
