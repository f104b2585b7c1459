//! MVD discovery (Savnik–Flach): level-wise search of the hypothesis
//! space with augmentation-based pruning (§2.6.3).

use deptree_core::engine::{Exec, Outcome};
use deptree_core::{Dependency, Mvd};
use deptree_relation::{AttrSet, Relation};

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct MvdConfig {
    /// Maximum size of the determinant set `X`.
    pub max_x: usize,
    /// Maximum size of the dependent set `Y` (its complement is
    /// unbounded).
    pub max_y: usize,
}

impl Default for MvdConfig {
    fn default() -> Self {
        MvdConfig { max_x: 2, max_y: 2 }
    }
}

/// Discover non-trivial MVDs `X ↠ Y` holding in `r`, top-down from the
/// most general determinants (small `X`), pruning by the augmentation
/// axiom: once `X ↠ Y` holds, every `X' ⊇ X` also satisfies `X' ↠ Y \ X'`,
/// so only the minimal `X` per `Y` is reported.
///
/// `Y` candidates are deduplicated against their complement (`X ↠ Y` and
/// `X ↠ Z` are the same constraint): only the variant whose smallest
/// member is smaller than the complement's is enumerated.
pub fn discover(r: &Relation, cfg: &MvdConfig) -> Vec<Mvd> {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: one node tick per `(X, Y)` candidate, row ticks
/// for the validation scan. MVDs are emitted only after `holds`, so
/// partial results are sound.
pub fn discover_bounded(r: &Relation, cfg: &MvdConfig, exec: &Exec) -> Outcome<Vec<Mvd>> {
    let all = r.all_attrs();
    let n = r.n_attrs();
    let mut found: Vec<Mvd> = Vec::new();
    // Enumerate X by increasing size, starting from the empty determinant
    // (∅ ↠ Y: the relation is a cross product of π_Y and π_Z).
    let x_sets = std::iter::once(AttrSet::empty()).chain(subsets_up_to(all, cfg.max_x.min(n)));
    'search: for x in x_sets {
        let rest = all.difference(x);
        if rest.len() < 2 {
            continue; // Y or Z would be empty → trivial.
        }
        for y in subsets_up_to(rest, cfg.max_y.min(rest.len() - 1)) {
            if y.is_empty() {
                continue;
            }
            let z = rest.difference(y);
            if z.is_empty() {
                continue; // trivial: Y = R − X.
            }
            // Complement symmetry: keep the lexicographically smaller side
            // when both fit the size bound.
            if z.len() <= cfg.max_y && z < y {
                continue;
            }
            // Augmentation pruning: a found MVD with X' ⊆ X and the same Y
            // implies this one.
            if found.iter().any(|m| m.x().is_subset(x) && m.y() == y) {
                continue;
            }
            if !exec.tick_node() || !exec.tick_rows(r.n_rows() as u64) {
                break 'search;
            }
            let mvd = Mvd::new(r.schema(), x, y);
            if mvd.holds(r) {
                found.push(mvd);
            }
        }
    }
    exec.finish(found)
}

/// All subsets of `universe` with `1 ≤ |S| ≤ k`, ordered by size then bits.
pub fn subsets_up_to(universe: AttrSet, k: usize) -> Vec<AttrSet> {
    let attrs = universe.to_vec();
    let mut out: Vec<AttrSet> = Vec::new();
    let total = 1usize << attrs.len();
    for mask in 1..total {
        if (mask as u32).count_ones() as usize <= k {
            let set: AttrSet = attrs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &a)| a)
                .collect();
            out.push(set);
        }
    }
    out.sort_by_key(|s| (s.len(), *s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r5;
    use deptree_relation::{RelationBuilder, ValueType};

    #[test]
    fn discovers_mvd1_on_r5() {
        // §2.6.1: address, rate ↠ region holds in r5.
        let r = hotels_r5();
        let s = r.schema();
        let found = discover(&r, &MvdConfig::default());
        let target_x = AttrSet::from_ids([s.id("address"), s.id("rate")]);
        let region = AttrSet::single(s.id("region"));
        assert!(
            found
                .iter()
                .any(|m| m.x().is_subset(target_x) && (m.y() == region || m.z(&r) == region)),
            "{found:?}"
        );
    }

    #[test]
    fn all_discovered_hold() {
        let r = hotels_r5();
        for m in discover(&r, &MvdConfig::default()) {
            assert!(m.holds(&r), "{m}");
        }
    }

    #[test]
    fn classic_course_example() {
        let r = RelationBuilder::new()
            .attr("course", ValueType::Categorical)
            .attr("teacher", ValueType::Categorical)
            .attr("book", ValueType::Categorical)
            .row(vec!["db".into(), "ann".into(), "codd".into()])
            .row(vec!["db".into(), "ann".into(), "date".into()])
            .row(vec!["db".into(), "bob".into(), "codd".into()])
            .row(vec!["db".into(), "bob".into(), "date".into()])
            .row(vec!["os".into(), "eve".into(), "tan".into()])
            .build()
            .unwrap();
        let s = r.schema();
        let found = discover(&r, &MvdConfig::default());
        let course = AttrSet::single(s.id("course"));
        let teacher = AttrSet::single(s.id("teacher"));
        assert!(found
            .iter()
            .any(|m| m.x() == course && (m.y() == teacher || m.z(&r) == teacher)));
    }

    #[test]
    fn x_minimality_via_augmentation_pruning() {
        let r = hotels_r5();
        let found = discover(&r, &MvdConfig { max_x: 3, max_y: 1 });
        for m in &found {
            for a in m.x().iter() {
                let smaller = Mvd::new(r.schema(), m.x().remove(a), m.y());
                // If the smaller determinant also works with the same Y,
                // the bigger one should have been pruned.
                if smaller.holds(&r) && smaller.y() == m.y() {
                    panic!("{m} not X-minimal");
                }
            }
        }
    }

    #[test]
    fn subset_enumeration() {
        let u = AttrSet::full(4);
        let s1 = subsets_up_to(u, 1);
        assert_eq!(s1.len(), 4);
        let s2 = subsets_up_to(u, 2);
        assert_eq!(s2.len(), 4 + 6);
        assert!(s2.windows(2).all(|w| w[0].len() <= w[1].len()));
    }
}
