//! Data repairing (Table 3, column 2): restore consistency by modifying
//! values or deleting tuples.
//!
//! Three repair families from the survey's citations:
//!
//! * [`repair_fds`] — value-modification repair for FDs/CFDs in the
//!   Bohannon/Cong style: merge equal-LHS groups onto their modal RHS
//!   (a cost-greedy heuristic for the NP-hard optimal repair);
//! * [`deletion_repair`] — minimal-deletion repair for *any* rule set
//!   (Lopatenko–Bravo): greedy vertex cover over the violation graph,
//!   a 2-approximation of the optimum;
//! * [`repair_sequence`] — numeric stream repair under gap constraints
//!   (the SCREEN-style speed-constraint repair of Song et al.): clamp each
//!   value into the window its predecessor admits.

use deptree_core::engine::{Exec, Outcome};
use deptree_core::{Dependency, Fd, Interval, Sd};
use deptree_relation::{AttrSet, Relation, StrippedPartition, SubGroup, Value};
use std::collections::HashMap;

/// Outcome of a value-modification repair.
#[derive(Debug)]
pub struct RepairResult {
    /// The repaired instance.
    pub relation: Relation,
    /// Cells changed, as `(row, attr, old value)`.
    pub changes: Vec<(usize, deptree_relation::AttrId, Value)>,
    /// Repair iterations used.
    pub iterations: usize,
}

/// Value-modification repair for a set of FDs: iteratively, for every
/// equal-LHS group disagreeing on the RHS, overwrite the minority RHS
/// values with the group's modal value (ties broken by value order, so
/// repairs are deterministic). Iterates to a fixpoint because each pass
/// only reduces the number of distinct RHS values per group; `max_iters`
/// bounds pathological rule interactions.
pub fn repair_fds(r: &Relation, fds: &[Fd], max_iters: usize) -> RepairResult {
    repair_fds_bounded(r, fds, max_iters, &Exec::unbounded()).result
}

/// Budgeted [`repair_fds`]: per FD and pass, row ticks for building
/// `π_X` and `π_{X∪Y}`, then one node tick per class of `π_X` (an
/// `X`-value held by two or more rows), visited in canonical order —
/// ascending by first row. An `X`-value held by a single row has nothing
/// to repair and takes no tick. The same budget therefore always stops at
/// the same class: partial repairs are deterministic. On exhaustion the
/// repair stops mid-fixpoint; every change already applied is a
/// legitimate modal-overwrite step of the greedy trajectory, so the
/// partial instance is a valid intermediate repair state — only full
/// consistency (`complete == true`) is forfeit.
///
/// Each class is split by `π_{X∪Y}`. The modal sub-group is the largest;
/// ties go to the structurally smallest `Y`-tuple. `changes` lists
/// overwritten cells in visiting order: class, then row, then attribute.
pub fn repair_fds_bounded(
    r: &Relation,
    fds: &[Fd],
    max_iters: usize,
    exec: &Exec,
) -> Outcome<RepairResult> {
    let mut rel = r.clone();
    let mut changes = Vec::new();
    let mut iterations = 0;
    'search: for _ in 0..max_iters {
        iterations += 1;
        let mut changed = false;
        for fd in fds {
            if !exec.tick_rows(rel.n_rows() as u64) {
                break 'search;
            }
            // Classes are disjoint, so overwriting one class's cells
            // leaves every other class's split as computed here.
            let px = StrippedPartition::from_attrs(&rel, fd.lhs());
            let mut by_xy =
                StrippedPartition::from_attrs(&rel, fd.lhs().union(fd.rhs())).splitter();
            for class in px.classes() {
                if !exec.tick_node() {
                    break 'search;
                }
                let subs = by_xy.split(class);
                if subs.len() <= 1 {
                    continue;
                }
                let Some(modal) = modal_row(&rel, fd.rhs(), subs) else {
                    continue;
                };
                for &row in class {
                    for attr in fd.rhs().iter() {
                        if rel.col(attr).code(row) != rel.col(attr).code(modal) {
                            let target = rel.value(modal, attr).clone();
                            changes.push((row, attr, rel.value(row, attr).clone()));
                            rel.set_value(row, attr, target);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    exec.finish(RepairResult {
        relation: rel,
        changes,
        iterations,
    })
}

/// First row of the modal sub-group: the largest, ties toward the
/// structurally smallest `rhs` tuple (compared only among the tied).
fn modal_row(rel: &Relation, rhs: AttrSet, subs: &[SubGroup]) -> Option<usize> {
    let tuple = |row: usize| rhs.iter().map(move |a| rel.value(row, a));
    subs.iter()
        .max_by(|a, b| {
            a.len
                .cmp(&b.len)
                .then_with(|| tuple(b.first).cmp(tuple(a.first)))
        })
        .map(|s| s.first)
}

/// Outcome of a deletion repair.
#[derive(Debug)]
pub struct DeletionRepair {
    /// The surviving instance.
    pub relation: Relation,
    /// Deleted row indices (in the original numbering), sorted.
    pub deleted: Vec<usize>,
}

/// Greedy minimal-deletion repair: delete the tuple involved in the most
/// violation witnesses, recompute, repeat — the classic 2-approximate
/// vertex cover on the conflict graph, generalized to hyperedges from any
/// dependency's witnesses.
pub fn deletion_repair(r: &Relation, rules: &[Box<dyn Dependency>]) -> DeletionRepair {
    deletion_repair_bounded(r, rules, &Exec::unbounded()).result
}

/// Budgeted [`deletion_repair`]: one node tick per deletion round, row
/// ticks for each violation recomputation. On exhaustion the greedy loop
/// stops early: every deletion already made targeted a genuine
/// max-degree conflict tuple, so the partial result is a valid prefix of
/// the greedy 2-approximation — the surviving instance may simply still
/// contain violations (`complete == false`).
pub fn deletion_repair_bounded(
    r: &Relation,
    rules: &[Box<dyn Dependency>],
    exec: &Exec,
) -> Outcome<DeletionRepair> {
    let mut alive: Vec<usize> = (0..r.n_rows()).collect();
    let mut deleted = Vec::new();
    loop {
        let current = r.select_rows(&alive);
        let scan = (alive.len() as u64).saturating_mul(rules.len() as u64);
        if !exec.tick_node() || !exec.tick_rows(scan) {
            return exec.finish(DeletionRepair {
                relation: current,
                deleted,
            });
        }
        let mut degree: HashMap<usize, usize> = HashMap::new();
        for rule in rules {
            for v in rule.violations(&current) {
                for &local in &v.rows {
                    *degree.entry(local).or_default() += 1;
                }
            }
        }
        let Some((&victim_local, _)) = degree.iter().max_by_key(|(local, d)| (**d, **local)) else {
            return exec.finish(DeletionRepair {
                relation: current,
                deleted,
            });
        };
        deleted.push(alive.remove(victim_local));
        deleted.sort_unstable();
        let _ = victim_local;
    }
}

/// Repair a numeric sequence so consecutive gaps satisfy the SD: a single
/// forward pass clamps each value into `[prev + lo, prev + hi]` — the
/// minimum-change greedy of stream cleaning under speed constraints.
/// Returns the repaired instance and the number of changed cells.
pub fn repair_sequence(r: &Relation, sd: &Sd) -> (Relation, usize) {
    repair_sequence_bounded(r, sd, &Exec::unbounded()).result
}

/// Budgeted [`repair_sequence`]: one row tick per sequence position. On
/// exhaustion the forward pass stops: the processed prefix satisfies the
/// speed constraint between every consecutive processed pair (each clamp
/// is final), while the unvisited suffix is returned untouched
/// (`complete == false`).
pub fn repair_sequence_bounded(r: &Relation, sd: &Sd, exec: &Exec) -> Outcome<(Relation, usize)> {
    let mut rel = r.clone();
    let order = rel.sorted_rows(deptree_relation::AttrSet::single(sd.on()));
    let gap: Interval = sd.gap();
    let mut changes = 0usize;
    let mut prev: Option<f64> = None;
    'scan: for &row in &order {
        if !exec.tick_rows(1) {
            break 'scan;
        }
        let Some(y) = rel.value(row, sd.target()).as_f64() else {
            continue;
        };
        match prev {
            None => prev = Some(y),
            Some(p) => {
                let lo = p + gap.lo();
                let hi = p + gap.hi();
                let mut fixed = y.clamp(lo, hi);
                // `p + hi − p` can round just outside the interval; nudge
                // until the *stored* gap really satisfies the constraint.
                while fixed - p > gap.hi() {
                    fixed = f64::next_down(fixed);
                }
                while fixed - p < gap.lo() {
                    fixed = f64::next_up(fixed);
                }
                if fixed != y {
                    rel.set_value(row, sd.target(), Value::float(fixed));
                    changes += 1;
                }
                prev = Some(fixed);
            }
        }
    }
    exec.finish((rel, changes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::{Md, Violation};
    use deptree_metrics::Metric;
    use deptree_relation::examples::{hotels_r1, hotels_r5};
    use deptree_relation::AttrSet;
    use deptree_synth::{categorical, numerical, CategoricalConfig, SequenceConfig};

    #[test]
    fn fd_repair_restores_consistency_on_r5() {
        let r = hotels_r5();
        let fd = Fd::parse(r.schema(), "address -> region").unwrap();
        assert!(!fd.holds(&r));
        let result = repair_fds(&r, std::slice::from_ref(&fd), 10);
        assert!(fd.holds(&result.relation));
        // Exactly one of t3/t4's regions changed.
        assert_eq!(result.changes.len(), 1);
        assert!(result.iterations <= 3);
    }

    #[test]
    fn fd_repair_prefers_majority() {
        let cfg = CategoricalConfig {
            n_rows: 300,
            n_key_attrs: 1,
            n_dep_attrs: 1,
            domain: 10,
            error_rate: 0.05,
            seed: 13,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let fd = Fd::new(
            data.relation.schema(),
            AttrSet::single(deptree_relation::AttrId(0)),
            AttrSet::single(deptree_relation::AttrId(1)),
        );
        let result = repair_fds(&data.relation, std::slice::from_ref(&fd), 10);
        assert!(fd.holds(&result.relation));
        // Majority voting should mostly rewrite the *dirty* cells: at
        // least 80% of changes are ground-truth dirty.
        let dirty: std::collections::HashSet<(usize, deptree_relation::AttrId)> =
            data.dirty_cells.iter().copied().collect();
        let hits = result
            .changes
            .iter()
            .filter(|(row, attr, _)| dirty.contains(&(*row, *attr)))
            .count();
        assert!(
            hits as f64 >= 0.8 * result.changes.len() as f64,
            "{hits}/{}",
            result.changes.len()
        );
    }

    #[test]
    fn deletion_repair_removes_min_tuples_on_r5() {
        // g3(address → region) = 1/4: one deletion suffices.
        let r = hotels_r5();
        let fd: Box<dyn Dependency> = Box::new(Fd::parse(r.schema(), "address -> region").unwrap());
        let result = deletion_repair(&r, std::slice::from_ref(&fd));
        assert_eq!(result.deleted.len(), 1);
        assert!(fd.holds(&result.relation));
    }

    #[test]
    fn deletion_repair_with_md_rules_on_r1() {
        let r = hotels_r1();
        let s = r.schema();
        let rules: Vec<Box<dyn Dependency>> = vec![
            Box::new(Fd::parse(s, "address -> region").unwrap()),
            Box::new(Md::new(
                s,
                vec![(s.id("address"), Metric::Levenshtein, 4.0)],
                AttrSet::single(s.id("region")),
            )),
        ];
        let result = deletion_repair(&r, &rules);
        for rule in &rules {
            assert!(rule.holds(&result.relation), "{rule}");
        }
        // The MD also links the St. Regis and Christina groups (their
        // "West Lake Rd." addresses are similar), so the conflict graph
        // needs up to 4 deletions.
        assert!(result.deleted.len() <= 4, "{:?}", result.deleted);
    }

    #[test]
    fn sequence_repair_fixes_spikes() {
        let cfg = SequenceConfig {
            n_rows: 150,
            regimes: vec![(9.0, 11.0)],
            spike_rate: 0.05,
            seed: 51,
        };
        let data = numerical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let s = data.relation.schema();
        let sd = Sd::new(s, s.id("seq"), s.id("y"), Interval::new(9.0, 11.0));
        assert!(!sd.holds(&data.relation));
        let (repaired, changes) = repair_sequence(&data.relation, &sd);
        assert!(
            sd.holds(&repaired),
            "sequence repair must reach consistency"
        );
        assert!(changes >= data.spike_steps.len());
    }

    #[test]
    fn sequence_repair_noop_on_clean_data() {
        let cfg = SequenceConfig {
            n_rows: 100,
            regimes: vec![(9.0, 11.0)],
            spike_rate: 0.0,
            seed: 52,
        };
        let data = numerical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let s = data.relation.schema();
        let sd = Sd::new(s, s.id("seq"), s.id("y"), Interval::new(9.0, 11.0));
        let (repaired, changes) = repair_sequence(&data.relation, &sd);
        assert_eq!(changes, 0);
        assert_eq!(repaired, data.relation);
    }

    #[test]
    fn deletion_repair_empty_rules() {
        let r = hotels_r5();
        let result = deletion_repair(&r, &[]);
        assert!(result.deleted.is_empty());
        assert_eq!(result.relation.n_rows(), r.n_rows());
    }

    #[test]
    fn bounded_repair_stops_in_valid_intermediate_state() {
        use deptree_core::engine::{Budget, Exec};
        let cfg = CategoricalConfig {
            n_rows: 200,
            n_key_attrs: 1,
            n_dep_attrs: 1,
            domain: 10,
            error_rate: 0.1,
            seed: 17,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let fd = Fd::new(
            data.relation.schema(),
            AttrSet::single(deptree_relation::AttrId(0)),
            AttrSet::single(deptree_relation::AttrId(1)),
        );
        let exec = Exec::new(Budget::default().with_max_nodes(3));
        let out = repair_fds_bounded(&data.relation, std::slice::from_ref(&fd), 10, &exec);
        assert!(!out.complete);
        // Every recorded change really differs from the original value and
        // the old value is faithfully preserved.
        for (row, attr, old) in &out.result.changes {
            assert_eq!(data.relation.value(*row, *attr), old);
            assert_ne!(out.result.relation.value(*row, *attr), old);
        }
        // Unbounded run from the same input reaches consistency.
        let full = repair_fds(&data.relation, std::slice::from_ref(&fd), 10);
        assert!(fd.holds(&full.relation));
    }

    #[test]
    fn bounded_deletion_repair_prefix_is_sound() {
        use deptree_core::engine::{Budget, Exec};
        let r = hotels_r1();
        let s = r.schema();
        let rules: Vec<Box<dyn Dependency>> = vec![
            Box::new(Fd::parse(s, "address -> region").unwrap()),
            Box::new(Md::new(
                s,
                vec![(s.id("address"), Metric::Levenshtein, 4.0)],
                AttrSet::single(s.id("region")),
            )),
        ];
        let exec = Exec::new(Budget::default().with_max_nodes(2));
        let out = deletion_repair_bounded(&r, &rules, &exec);
        assert!(!out.complete);
        // Deleted rows are a subset of what the unbounded greedy deletes.
        let full = deletion_repair(&r, &rules);
        for d in &out.result.deleted {
            assert!(full.deleted.contains(d), "{d} not in {:?}", full.deleted);
        }
    }

    /// A rule set whose only violation names a single row: deletion repair
    /// must remove exactly that row.
    #[test]
    fn deletion_repair_single_row_witnesses() {
        struct BadRow(usize);
        impl std::fmt::Display for BadRow {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "BadRow({})", self.0)
            }
        }
        impl Dependency for BadRow {
            fn kind(&self) -> deptree_core::DepKind {
                deptree_core::DepKind::Dc
            }
            fn holds(&self, r: &Relation) -> bool {
                r.n_rows() <= self.0
            }
            fn violations(&self, r: &Relation) -> Vec<Violation> {
                if r.n_rows() > self.0 {
                    vec![Violation::row(self.0, AttrSet::empty())]
                } else {
                    vec![]
                }
            }
        }
        let r = hotels_r5();
        let rules: Vec<Box<dyn Dependency>> = vec![Box::new(BadRow(3))];
        let result = deletion_repair(&r, &rules);
        assert_eq!(result.deleted, vec![3]);
        assert_eq!(result.relation.n_rows(), 3);
    }
}
