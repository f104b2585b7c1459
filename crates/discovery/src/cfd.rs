//! CFD discovery (§2.5.3): CFDMiner for constant CFDs, a CTANE-style
//! level-wise search for general CFDs, and the Golab et al. greedy
//! algorithm for near-optimal tableaux of a given embedded FD.

use deptree_core::engine::{pool, Exec, Outcome};
use deptree_core::{Cfd, Fd, Pattern, PatternCell};
use deptree_relation::{AttrSet, Relation, StrippedPartition, Value};

/// Configuration shared by the discovery entry points.
#[derive(Debug, Clone)]
pub struct CfdConfig {
    /// Minimum support: number of tuples the condition must cover.
    pub min_support: usize,
    /// Maximum LHS size.
    pub max_lhs: usize,
}

impl Default for CfdConfig {
    fn default() -> Self {
        CfdConfig {
            min_support: 2,
            max_lhs: 2,
        }
    }
}

/// CFDMiner: mine *constant* CFDs `(X = a̅ → A = b)` with support ≥
/// `min_support` — frequent LHS value combinations whose RHS value is
/// constant within their cover, reported with minimal LHS (the
/// free/closed-itemset connection of Fan et al., specialised to pattern
/// mining over attribute sets).
pub fn cfdminer(r: &Relation, cfg: &CfdConfig) -> Vec<Cfd> {
    let mut out = Vec::new();
    // found[(lhs_set, rhs)] = LHS value patterns already covered by a
    // smaller LHS (minimality).
    let mut found: Vec<(AttrSet, deptree_relation::AttrId, Vec<Value>)> = Vec::new();
    for lhs in crate::mvd_subsets(r.all_attrs(), cfg.max_lhs) {
        for rows in StrippedPartition::from_attrs(r, lhs).into_groups() {
            if rows.len() < cfg.min_support {
                continue;
            }
            let lhs_vals = r.project_row(rows[0], lhs);
            for rhs in r.schema().ids() {
                if lhs.contains(rhs) {
                    continue;
                }
                let first = r.value(rows[0], rhs);
                if !rows.iter().all(|&t| r.value(t, rhs) == first) {
                    continue;
                }
                // Minimality: a sub-LHS already emits a constant CFD whose
                // pattern this one specializes (project the stored values).
                let redundant = found.iter().any(|(l, a, vals)| {
                    *a == rhs && l.is_proper_subset(lhs) && {
                        // The stored pattern's values must match ours on l.
                        let ours: Vec<&Value> = l
                            .iter()
                            .filter_map(|attr| {
                                let idx = lhs.iter().position(|x| x == attr)?;
                                lhs_vals.get(idx)
                            })
                            .collect();
                        ours.iter().zip(vals).all(|(o, v)| *o == v)
                    }
                });
                if redundant {
                    continue;
                }
                let mut pattern = Pattern::new();
                for (attr, v) in lhs.iter().zip(&lhs_vals) {
                    pattern = pattern.with_const(attr, v.clone());
                }
                pattern = pattern.with_const(rhs, first.clone());
                out.push(Cfd::new(r.schema(), lhs, AttrSet::single(rhs), pattern));
                found.push((lhs, rhs, lhs_vals.clone()));
            }
        }
    }
    out
}

/// CTANE-lite: level-wise discovery of general (variable-pattern) CFDs.
///
/// Patterns are drawn from `{_, constant}` per LHS attribute with the
/// constants taken from the attribute's active domain; the RHS is a
/// variable. A candidate is emitted when it holds, covers at least
/// `min_support` tuples, and no generalization (fewer constants or fewer
/// LHS attributes) was already emitted — the CTANE minimality order.
pub fn ctane(r: &Relation, cfg: &CfdConfig) -> Vec<Cfd> {
    ctane_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`ctane`]: one node tick per pattern candidate, row ticks for
/// each support/validity scan. CFDs are emitted only once they are found
/// to hold, so partial results are sound.
///
/// The support/validity scans for one embedded FD's pattern space run
/// concurrently on the engine pool (budget reserved for the whole space
/// up front, so the evaluated prefix is thread-count-independent); the
/// generalization filter replays serially in the CTANE level order, which
/// keeps the emitted tableau identical to the serial walk.
pub fn ctane_bounded(r: &Relation, cfg: &CfdConfig, exec: &Exec) -> Outcome<Vec<Cfd>> {
    let threads = exec.threads();
    let row_cost = 2 * r.n_rows() as u64;
    let mut out: Vec<Cfd> = Vec::new();
    'search: for lhs in crate::mvd_subsets(r.all_attrs(), cfg.max_lhs) {
        for rhs in r.schema().ids() {
            if lhs.contains(rhs) {
                continue;
            }
            let rhs_set = AttrSet::single(rhs);
            // Pattern space: each LHS attribute is `_` or one of its
            // active-domain constants. Enumerate level-wise by number of
            // constants so generalizations are seen first.
            let lhs_attrs = lhs.to_vec();
            let domains: Vec<Vec<Value>> = lhs_attrs
                .iter()
                .map(|&a| {
                    let mut vals: Vec<Value> = StrippedPartition::from_column(r, a)
                        .into_groups()
                        .map(|g| r.value(g[0], a).clone())
                        .collect();
                    vals.sort();
                    vals
                })
                .collect();
            let mut patterns: Vec<Vec<Option<Value>>> = vec![vec![None; lhs_attrs.len()]];
            for (i, dom) in domains.iter().enumerate() {
                let mut next = Vec::new();
                for p in &patterns {
                    next.push(p.clone());
                    for v in dom {
                        let mut q = p.clone();
                        q[i] = Some(v.clone());
                        next.push(q);
                    }
                }
                patterns = next;
            }
            patterns.sort_by_key(|p| p.iter().flatten().count());
            let want = patterns.len() as u64;
            let prefix = exec.try_reserve_batch(want, row_cost) as usize;
            let batch = &patterns[..prefix];
            // Every candidate shares `π_X` and `π_{X∪A}`: each group of
            // `π_X` as its first row, its size and whether `π_{X∪A}`
            // splits it. A pattern on `X` selects whole groups, so a
            // candidate's support is the size of the groups it matches,
            // and it holds iff none of them splits.
            let mut by_xa = StrippedPartition::from_attrs(r, lhs.union(rhs_set)).splitter();
            let groups: Vec<(usize, usize, bool)> = StrippedPartition::from_attrs(r, lhs)
                .into_groups()
                .map(|g| (g[0], g.len(), by_xa.split(&g).len() > 1))
                .collect();
            let verdicts = pool::map(threads, batch, |_, p| {
                if exec.interrupted() {
                    // Deadline/cancellation only; deterministic budgets
                    // never cut the granted batch.
                    return None;
                }
                let matches = |t: usize| {
                    let cell_ok = |(c, &a): (&Option<Value>, _)| {
                        c.as_ref().is_none_or(|v| r.value(t, a) == v)
                    };
                    p.iter().zip(&lhs_attrs).all(cell_ok)
                };
                let (mut support, mut splits) = (0, false);
                for &(_, len, split) in groups.iter().filter(|g| matches(g.0)) {
                    support += len;
                    splits |= split;
                }
                if support < cfg.min_support || splits {
                    return None;
                }
                let mut pattern = Pattern::all_any(lhs.union(rhs_set));
                for (i, cell) in p.iter().enumerate() {
                    if let Some(v) = cell {
                        pattern = pattern.with_const(lhs_attrs[i], v.clone());
                    }
                }
                Some(Cfd::new(r.schema(), lhs, rhs_set, pattern))
            });
            for cand in verdicts.into_iter().flatten() {
                // Minimality against already-emitted generalizations;
                // candidates arrive in constant-count order, so a
                // generalization is always merged before its
                // specializations — exactly the serial CTANE order.
                let redundant = out.iter().any(|prev| generalizes(prev, &cand));
                if !redundant {
                    out.push(cand);
                }
            }
            if prefix < patterns.len() {
                break 'search;
            }
        }
    }
    exec.finish(out)
}

/// Does `a` generalize `b` (same RHS, LHS ⊆, and every constant of `a`
/// appears in `b`)? A generalization holding makes the specialization
/// redundant.
fn generalizes(a: &Cfd, b: &Cfd) -> bool {
    if a.rhs() != b.rhs() || !a.lhs().is_subset(b.lhs()) {
        return false;
    }
    a.pattern().cells().all(|(attr, cell)| match cell {
        PatternCell::Any => {
            // b may bind attr to anything only if attr ∈ b's lhs with Any,
            // or not in b at all (impossible since lhs ⊆). A constant in b
            // under a variable in a is a specialization: fine.
            b.lhs().contains(attr) || b.rhs().contains(attr)
        }
        PatternCell::Const(v) => b.pattern().cell(attr) == &PatternCell::Const(v.clone()),
    })
}

/// Golab et al.: greedy near-optimal tableau for a *given* embedded FD.
///
/// Returns pattern rows (constant conditions on the FD's LHS) such that
/// each row's CFD holds, greedily maximizing marginal tuple coverage —
/// the classic set-cover surrogate for the NP-complete optimal-tableau
/// problem. Stops when `target_coverage` (fraction of tuples) is reached
/// or no valid row remains.
///
/// Candidates are the groups of `π_X` that `π_{X∪Y}` does not split,
/// taken largest first; equal sizes go in first-row order.
pub fn greedy_tableau(r: &Relation, fd: &Fd, target_coverage: f64) -> Vec<Cfd> {
    let mut by_xy = StrippedPartition::from_attrs(r, fd.lhs().union(fd.rhs())).splitter();
    let mut candidates: Vec<Vec<usize>> = StrippedPartition::from_attrs(r, fd.lhs())
        .into_groups()
        .filter(|rows| by_xy.split(rows).len() == 1)
        .collect();
    candidates.sort_by_key(|rows| std::cmp::Reverse(rows.len()));
    let target = (target_coverage * r.n_rows() as f64).ceil() as usize;
    let mut covered = 0usize;
    let mut tableau = Vec::new();
    for rows in candidates {
        if covered >= target {
            break;
        }
        let mut pattern = Pattern::all_any(fd.lhs().union(fd.rhs()));
        for attr in fd.lhs().iter() {
            pattern = pattern.with_const(attr, r.value(rows[0], attr).clone());
        }
        tableau.push(Cfd::new(r.schema(), fd.lhs(), fd.rhs(), pattern));
        covered += rows.len();
    }
    tableau
}

/// Package a greedy tableau as a first-class [`deptree_core::CfdTableau`];
/// `None` when no valid row exists.
pub fn greedy_cfd_tableau(
    r: &Relation,
    fd: &Fd,
    target_coverage: f64,
) -> Option<deptree_core::CfdTableau> {
    let rows = greedy_tableau(r, fd, target_coverage);
    (!rows.is_empty()).then(|| deptree_core::CfdTableau::new(rows))
}

/// Coverage (fraction of tuples matched by at least one tableau row).
pub fn tableau_coverage(r: &Relation, tableau: &[Cfd]) -> f64 {
    if r.n_rows() == 0 {
        return 0.0;
    }
    let mut covered = vec![false; r.n_rows()];
    for cfd in tableau {
        for row in cfd.matching_rows(r) {
            covered[row] = true;
        }
    }
    covered.iter().filter(|&&c| c).count() as f64 / r.n_rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::{hotels_r5, hotels_r6};

    #[test]
    fn cfdminer_finds_jackson_rule() {
        // region = "Jackson" → address is constant over its 2-tuple cover.
        let r = hotels_r5();
        let found = cfdminer(
            &r,
            &CfdConfig {
                min_support: 2,
                max_lhs: 1,
            },
        );
        assert!(found.iter().all(|c| c.is_constant()));
        assert!(found.iter().all(|c| c.holds(&r)), "{found:?}");
        let s = r.schema();
        assert!(found.iter().any(|c| {
            c.lhs() == AttrSet::single(s.id("region"))
                && c.rhs() == AttrSet::single(s.id("address"))
        }));
    }

    #[test]
    fn cfdminer_minimality() {
        let r = hotels_r6();
        let found = cfdminer(
            &r,
            &CfdConfig {
                min_support: 2,
                max_lhs: 2,
            },
        );
        for c in &found {
            assert!(c.holds(&r), "{c}");
        }
        // No 2-attribute LHS rule whose 1-attribute projection was also
        // emitted with matching constants.
        for c in found.iter().filter(|c| c.lhs().len() == 2) {
            for a in c.lhs().iter() {
                let sub = c.lhs().remove(a);
                let dominated = found.iter().any(|d| {
                    d.lhs() == sub
                        && d.rhs() == c.rhs()
                        && sub
                            .iter()
                            .all(|x| d.pattern().cell(x) == c.pattern().cell(x))
                        && d.pattern().cell(c.rhs().min().expect("single rhs"))
                            == c.pattern().cell(c.rhs().min().expect("single rhs"))
                });
                assert!(!dominated, "{c} dominated by a smaller rule");
            }
        }
    }

    #[test]
    fn ctane_finds_conditional_rule_invisible_globally() {
        // On r6, name → zip fails globally (NC in two regions) but holds
        // under source = s2. CTANE must surface a conditioned variant.
        let r = hotels_r6();
        let s = r.schema();
        let found = ctane(
            &r,
            &CfdConfig {
                min_support: 2,
                max_lhs: 2,
            },
        );
        for c in &found {
            assert!(c.holds(&r), "{c}");
        }
        let zip = AttrSet::single(s.id("zip"));
        let conditional = found.iter().any(|c| {
            c.rhs() == zip
                && c.lhs().contains(s.id("name"))
                && c.pattern().cells().any(|(_, cell)| cell.is_const())
        });
        assert!(conditional, "no conditional name→zip rule found");
    }

    #[test]
    fn ctane_emits_plain_fd_when_it_holds() {
        // street → zip holds globally on r6: the all-variable pattern must
        // be reported, and no specialization of it.
        let r = hotels_r6();
        let s = r.schema();
        let found = ctane(
            &r,
            &CfdConfig {
                min_support: 2,
                max_lhs: 1,
            },
        );
        let street = AttrSet::single(s.id("street"));
        let zip = AttrSet::single(s.id("zip"));
        let plain: Vec<&Cfd> = found
            .iter()
            .filter(|c| c.lhs() == street && c.rhs() == zip)
            .collect();
        assert_eq!(plain.len(), 1, "{plain:?}");
        assert!(!plain[0].pattern().cells().any(|(_, c)| c.is_const()));
    }

    #[test]
    fn greedy_tableau_covers_clean_part() {
        // name → address fails on r5 only through the El Paso group? No:
        // name "Hyatt" covers all 4 rows with 2 addresses → invalid
        // globally. Use address → region: group t1,t2 is clean, t3,t4 is
        // not.
        let r = hotels_r5();
        let fd = Fd::parse(r.schema(), "address -> region").unwrap();
        let tableau = greedy_tableau(&r, &fd, 1.0);
        assert_eq!(tableau.len(), 1); // only the Jackson address is clean
        assert!(tableau.iter().all(|c| c.holds(&r)));
        assert!((tableau_coverage(&r, &tableau) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn greedy_tableau_packages_into_type() {
        let r = hotels_r5();
        let fd = Fd::parse(r.schema(), "address -> region").unwrap();
        let tableau = greedy_cfd_tableau(&r, &fd, 1.0).unwrap();
        assert!(tableau.holds(&r));
        assert!((tableau.coverage(&r) - 0.5).abs() < 1e-12);
        // An FD with no clean group yields no tableau.
        let hopeless = Fd::parse(r.schema(), "name -> rate").unwrap();
        assert!(greedy_cfd_tableau(&r, &hopeless, 1.0).is_none());
    }

    #[test]
    fn greedy_tableau_respects_target() {
        let r = hotels_r6();
        let fd = Fd::parse(r.schema(), "street -> zip").unwrap();
        let full = greedy_tableau(&r, &fd, 1.0);
        let half = greedy_tableau(&r, &fd, 0.4);
        assert!(half.len() <= full.len());
        assert!(tableau_coverage(&r, &half) >= 0.4);
        assert!(tableau_coverage(&r, &full) > 0.9);
    }
}
