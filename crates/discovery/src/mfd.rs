//! MFD verification and threshold discovery (Koudas et al., §3.1.3).
//!
//! The key step is *verification*: per equal-`X` group, compute the
//! diameter on the dependent attribute. Exact verification is `O(n²)` in
//! the group size; the pivot approximation from the paper bounds the
//! diameter within a factor 2 in linear time (an ablation bench compares
//! the two).

use deptree_core::engine::{Exec, Outcome};
use deptree_core::Mfd;
use deptree_metrics::Metric;
use deptree_relation::{AttrId, AttrSet, Relation, StrippedPartition};

/// Exact diameter of `rows` on `attr` under `metric` — `O(k²)`.
pub fn exact_diameter(r: &Relation, rows: &[usize], attr: AttrId, metric: &Metric) -> f64 {
    let mut max = 0.0f64;
    for (i, &a) in rows.iter().enumerate() {
        for &b in rows.iter().skip(i + 1) {
            max = max.max(metric.dist(r.value(a, attr), r.value(b, attr)));
        }
    }
    max
}

/// Pivot-based diameter approximation — `O(k)`: the true diameter `D`
/// satisfies `M ≤ D ≤ 2·M` where `M` is the maximum distance to the first
/// row (triangle inequality). Returns `M`.
pub fn pivot_radius(r: &Relation, rows: &[usize], attr: AttrId, metric: &Metric) -> f64 {
    let Some((&pivot, rest)) = rows.split_first() else {
        return 0.0;
    };
    rest.iter()
        .map(|&b| metric.dist(r.value(pivot, attr), r.value(b, attr)))
        .fold(0.0f64, f64::max)
}

/// Verification verdict for a candidate MFD under the pivot scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxVerdict {
    /// Every group's pivot radius ≤ δ/2: the MFD certainly holds.
    Holds,
    /// Some group's pivot radius > δ: the MFD certainly fails.
    Fails,
    /// In between: exact verification needed.
    Unknown,
}

/// Approximately verify `lhs →^δ attr` using pivot radii only.
pub fn approx_verify(
    r: &Relation,
    lhs: AttrSet,
    attr: AttrId,
    metric: &Metric,
    delta: f64,
) -> ApproxVerdict {
    let mut all_certain_hold = true;
    for rows in StrippedPartition::from_attrs(r, lhs).into_groups() {
        let m = pivot_radius(r, &rows, attr, metric);
        if m > delta {
            return ApproxVerdict::Fails; // D ≥ M > δ
        }
        if 2.0 * m > delta {
            all_certain_hold = false; // D could be up to 2M > δ
        }
    }
    if all_certain_hold {
        ApproxVerdict::Holds
    } else {
        ApproxVerdict::Unknown
    }
}

/// The smallest `δ` for which `lhs →^δ attr` holds: the maximum
/// diameter of a class of `π_X` (one-row groups have diameter 0).
/// Discovery proposes this threshold (§3.1.3).
pub fn minimal_delta(r: &Relation, lhs: AttrSet, attr: AttrId, metric: &Metric) -> f64 {
    StrippedPartition::from_attrs(r, lhs)
        .classes()
        .iter()
        .map(|rows| exact_diameter(r, rows, attr, metric))
        .fold(0.0f64, f64::max)
}

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct MfdConfig {
    /// Only report MFDs whose minimal δ is at most this cap (a huge δ
    /// means "no metric relationship worth declaring").
    pub max_delta: f64,
    /// Maximum LHS size.
    pub max_lhs: usize,
}

impl Default for MfdConfig {
    fn default() -> Self {
        MfdConfig {
            max_delta: 10.0,
            max_lhs: 2,
        }
    }
}

/// Discover MFDs with minimal thresholds: for every small LHS set and
/// dependent attribute (with its type's default metric), propose
/// `lhs →^δmin attr` when `δmin ≤ max_delta` and the LHS is minimal.
pub fn discover(r: &Relation, cfg: &MfdConfig) -> Vec<(Mfd, f64)> {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: one node tick per candidate, row ticks for the
/// per-group diameter scans. Each emitted MFD carries its fully-computed
/// minimal threshold, so partial results are sound.
pub fn discover_bounded(r: &Relation, cfg: &MfdConfig, exec: &Exec) -> Outcome<Vec<(Mfd, f64)>> {
    let mut out: Vec<(Mfd, f64)> = Vec::new();
    let mut found: Vec<(AttrSet, AttrId)> = Vec::new();
    let all = r.all_attrs();
    let sets = crate::mvd_subsets(all, cfg.max_lhs);
    'search: for lhs in sets {
        for attr in r.schema().ids() {
            if lhs.contains(attr) {
                continue;
            }
            if found.iter().any(|(l, a)| l.is_subset(lhs) && *a == attr) {
                continue;
            }
            if !exec.tick_node() || !exec.tick_rows(r.n_rows() as u64) {
                break 'search;
            }
            let metric = Metric::default_for(r.schema().ty(attr));
            let delta = minimal_delta(r, lhs, attr, &metric);
            if delta <= cfg.max_delta {
                found.push((lhs, attr));
                out.push((
                    Mfd::new(r.schema(), lhs, vec![(attr, metric, delta)]),
                    delta,
                ));
            }
        }
    }
    exec.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::{hotels_r1, hotels_r6};

    #[test]
    fn minimal_delta_on_r1_regions() {
        // address → region: groups {t1,t2} (diameter 0), {t3,t4}
        // ("Boston" vs "Chicago, MA": edit distance 10), {t5,t6}
        // ("Chicago" vs "Chicago, IL": 4), {t7}, {t8}.
        let r = hotels_r1();
        let s = r.schema();
        let d = minimal_delta(
            &r,
            AttrSet::single(s.id("address")),
            s.id("region"),
            &Metric::Levenshtein,
        );
        assert_eq!(d, 10.0);
    }

    #[test]
    fn discovered_mfds_hold_with_their_delta() {
        let r = hotels_r6();
        for (mfd, _) in discover(
            &r,
            &MfdConfig {
                max_delta: 50.0,
                max_lhs: 2,
            },
        ) {
            assert!(mfd.holds(&r), "{mfd}");
        }
    }

    #[test]
    fn pivot_bounds_diameter() {
        let r = hotels_r6();
        let s = r.schema();
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        for attr in [s.id("price"), s.id("name"), s.id("address")] {
            let metric = Metric::default_for(s.ty(attr));
            let d = exact_diameter(&r, &rows, attr, &metric);
            let m = pivot_radius(&r, &rows, attr, &metric);
            assert!(m <= d + 1e-9, "radius {m} > diameter {d}");
            assert!(d <= 2.0 * m + 1e-9, "diameter {d} > 2×radius {m}");
        }
    }

    #[test]
    fn approx_verify_consistent_with_exact() {
        let r = hotels_r1();
        let s = r.schema();
        let lhs = AttrSet::single(s.id("address"));
        let attr = s.id("region");
        let metric = Metric::Levenshtein;
        for delta in [0.0, 3.0, 4.0, 8.0, 9.0, 16.0, 20.0] {
            let exact = minimal_delta(&r, lhs, attr, &metric) <= delta;
            match approx_verify(&r, lhs, attr, &metric, delta) {
                ApproxVerdict::Holds => assert!(exact, "δ={delta}"),
                ApproxVerdict::Fails => assert!(!exact, "δ={delta}"),
                ApproxVerdict::Unknown => {}
            }
        }
    }

    #[test]
    fn empty_group_edge_cases() {
        let r = hotels_r1();
        let s = r.schema();
        assert_eq!(
            pivot_radius(&r, &[], s.id("region"), &Metric::Levenshtein),
            0.0
        );
        assert_eq!(
            exact_diameter(&r, &[3], s.id("region"), &Metric::Levenshtein),
            0.0
        );
    }
}
