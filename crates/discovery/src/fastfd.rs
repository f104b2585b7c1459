//! FastFD (Wyss et al.): FD discovery from *difference sets* — the
//! attribute sets on which tuple pairs disagree — via depth-first search
//! for minimal covers. The dual strategy to TANE's lattice walk: FastFD
//! scales with tuples-squared but not with the attribute lattice, so the
//! two cross over on wide-vs-long relations (an ablation bench).

use crate::cover::minimal_hitting_sets_bounded;
use deptree_core::engine::{pool, Exec, Outcome};
use deptree_core::{Dependency, Fd};
use deptree_relation::{AttrSet, Relation, StrippedPartition};
use std::collections::HashSet;

/// Statistics from a run.
#[derive(Debug, Clone, Default)]
pub struct FastFdStats {
    /// Distinct difference sets found.
    pub difference_sets: usize,
    /// Tuple pairs compared.
    pub pairs_compared: usize,
}

/// Result of a FastFD run.
#[derive(Debug)]
pub struct FastFdResult {
    /// Minimal non-trivial FDs with single-attribute RHS.
    pub fds: Vec<Fd>,
    /// Run statistics.
    pub stats: FastFdStats,
}

/// Compute the distinct non-empty difference sets of `r`.
///
/// Following the FastFD paper, pairs are drawn from stripped partitions of
/// single attributes (pairs differing on *every* attribute contribute the
/// full set, which never constrains any minimal cover and is skipped via
/// the agree-set route): we enumerate pairs that agree on at least one
/// attribute, plus a sample of fully-disagreeing pairs which contribute
/// the universe set.
pub fn difference_sets(r: &Relation, stats: &mut FastFdStats) -> Vec<AttrSet> {
    difference_sets_bounded(r, stats, &Exec::unbounded()).0
}

/// Budgeted [`difference_sets`]: each tuple pair costs one engine row
/// tick. Returns the sets found plus a completeness flag; an incomplete
/// collection under-constrains covers, so callers must verify candidate
/// FDs before emitting them.
///
/// The pairwise value comparisons — the quadratic heart of FastFD — run
/// on the work-stealing pool, one task per partition class. The row
/// budget is *reserved* class-by-class in canonical scan order before the
/// parallel phase, so the set of pairs compared (and hence the anytime
/// result under an exhausted budget) is identical at every thread count.
pub fn difference_sets_bounded(
    r: &Relation,
    stats: &mut FastFdStats,
    exec: &Exec,
) -> (Vec<AttrSet>, bool) {
    let all = r.all_attrs();
    let threads = exec.threads();
    let mut seen: HashSet<AttrSet> = HashSet::new();
    let mut complete = true;
    // Pairs agreeing somewhere: walk each attribute's partition classes.
    let mut visited_pairs: HashSet<(usize, usize)> = HashSet::new();
    'scan: for a in r.schema().ids() {
        let p = StrippedPartition::from_column(r, a);
        // Reserve row budget per class in scan order; a short grant cuts
        // the last class to a pair-prefix, exactly where the serial
        // tick-per-pair loop would have stopped.
        let mut jobs: Vec<(Vec<usize>, usize)> = Vec::new();
        let mut truncated = false;
        for class in p.classes() {
            let want = (class.len() * (class.len() - 1) / 2) as u64;
            let granted = exec.try_reserve_rows(want) as usize;
            if granted > 0 {
                jobs.push((class.to_vec(), granted));
            }
            if (granted as u64) < want {
                truncated = true;
                break;
            }
        }
        // Pure phase: compare the granted pairs concurrently. A pair the
        // scan already visited through an earlier attribute is compared
        // redundantly here and discarded in the merge below — wasted
        // work, never a different answer.
        let batches = pool::map(threads, &jobs, |_, (class, limit)| {
            let mut out: Vec<((usize, usize), AttrSet)> = Vec::with_capacity(*limit);
            'pairs: for (i, &t1) in class.iter().enumerate() {
                for &t2 in class.iter().skip(i + 1) {
                    if out.len() == *limit {
                        break 'pairs;
                    }
                    // Amortized deadline/cancel check: deterministic
                    // budgets never cut a granted job, but wall-clock
                    // expiry must not wait for the whole class.
                    if out.len().is_multiple_of(64) && exec.interrupted() {
                        break 'pairs;
                    }
                    let diff: AttrSet = all
                        .iter()
                        .filter(|&b| r.value(t1, b) != r.value(t2, b))
                        .collect();
                    out.push(((t1, t2), diff));
                }
            }
            out
        });
        // Serial merge in class order: dedup against pairs from earlier
        // attributes and record the fresh difference sets.
        for ((t1, t2), diff) in batches.into_iter().flatten() {
            if !visited_pairs.insert((t1, t2)) {
                continue;
            }
            stats.pairs_compared += 1;
            if !diff.is_empty() {
                seen.insert(diff);
            }
        }
        if truncated || exec.interrupted() {
            // A short row grant or a mid-batch deadline/cancellation both
            // leave the pair scan partial: downstream covers must verify.
            complete = false;
            break 'scan;
        }
    }
    // Pairs agreeing nowhere have difference set = all attributes; one
    // representative suffices (it is a superset of everything anyway).
    // Detect cheaply: if not every pair was visited, such pairs exist.
    let n = r.n_rows();
    if n >= 2 && visited_pairs.len() < n * (n - 1) / 2 {
        seen.insert(all);
    }
    stats.difference_sets = seen.len();
    let mut v: Vec<AttrSet> = seen.into_iter().collect();
    v.sort();
    (v, complete)
}

/// Run FastFD on `r` to completion (no resource limits).
pub fn discover(r: &Relation) -> FastFdResult {
    discover_bounded(r, &Exec::unbounded()).result
}

/// Run FastFD on `r` under `exec`'s budget.
///
/// Anytime contract: when the difference-set scan was cut short the
/// hitting-set covers it implies are *not* trustworthy (missing
/// difference sets mean missing constraints), so every candidate FD is
/// re-verified against the relation before being emitted. A partial
/// result therefore contains only FDs that hold; completeness — and,
/// when the cover search itself was truncated, minimality — is forfeit.
pub fn discover_bounded(r: &Relation, exec: &Exec) -> Outcome<FastFdResult> {
    let mut stats = FastFdStats::default();
    let mut diff_span = exec.span("fastfd.difference_sets");
    let (diffs, diffs_complete) = difference_sets_bounded(r, &mut stats, exec);
    diff_span.attr("sets", diffs.len() as u64);
    diff_span.attr("pairs", stats.pairs_compared as u64);
    drop(diff_span);
    let mut cover_span = exec.span("fastfd.covers");
    let mut fds = Vec::new();
    'emit: for rhs in r.schema().ids() {
        // A spent budget fails every later search at its first node, so
        // stop before paying for another family's reduction.
        if !exec.poll() {
            break;
        }
        // FDs X → rhs: X must intersect every difference set containing
        // rhs, using only attributes ≠ rhs.
        let relevant: Vec<u64> = diffs
            .iter()
            .filter(|d| d.contains(rhs))
            .map(|d| d.remove(rhs).bits())
            .collect();
        if relevant.contains(&0) {
            // Some pair differs ONLY on rhs: no FD with this RHS exists.
            continue;
        }
        let (covers, _) = minimal_hitting_sets_bounded(&relevant, r.n_attrs(), exec);
        for cover in covers {
            let lhs = AttrSet::from_bits(cover);
            let fd = Fd::new(r.schema(), lhs, AttrSet::single(rhs));
            // With a truncated pair scan the cover is only a candidate:
            // verify before emitting so partial results stay sound.
            if diffs_complete || fd.holds(r) {
                fds.push(fd);
            }
            if !exec.tick() {
                break 'emit;
            }
        }
    }
    fds.sort_by_key(|fd| (fd.lhs().len(), fd.lhs(), fd.rhs()));
    cover_span.attr("fds", fds.len() as u64);
    drop(cover_span);
    exec.finish(FastFdResult { fds, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tane::{self, TaneConfig};
    use deptree_core::Dependency;
    use deptree_relation::examples::{hotels_r1, hotels_r5, hotels_r6};
    use deptree_synth::{categorical, CategoricalConfig};

    #[test]
    fn sound_and_minimal_on_r5() {
        let r = hotels_r5();
        let result = discover(&r);
        assert!(!result.fds.is_empty());
        for fd in &result.fds {
            assert!(fd.holds(&r), "{fd}");
            for a in fd.lhs().iter() {
                let smaller = Fd::new(r.schema(), fd.lhs().remove(a), fd.rhs());
                assert!(!smaller.holds(&r), "{fd} not minimal");
            }
        }
    }

    #[test]
    fn agrees_with_tane() {
        // The two canonical algorithms must produce identical minimal
        // covers (restricted to TANE's depth bound).
        for r in [hotels_r1(), hotels_r5(), hotels_r6()] {
            let t = tane::discover(
                &r,
                &TaneConfig {
                    max_lhs: r.n_attrs(),
                    max_error: 0.0,
                },
            );
            let f = discover(&r);
            let ts: HashSet<String> = t.fds.iter().map(|fd| fd.to_string()).collect();
            let fs: HashSet<String> = f.fds.iter().map(|fd| fd.to_string()).collect();
            assert_eq!(ts, fs, "TANE and FastFD disagree on {} attrs", r.n_attrs());
        }
    }

    #[test]
    fn agrees_with_tane_on_synthetic() {
        let cfg = CategoricalConfig {
            n_rows: 120,
            n_key_attrs: 2,
            n_dep_attrs: 2,
            domain: 8,
            error_rate: 0.05,
            seed: 5,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let t = tane::discover(
            &data.relation,
            &TaneConfig {
                max_lhs: 4,
                max_error: 0.0,
            },
        );
        let f = discover(&data.relation);
        let ts: HashSet<String> = t.fds.iter().map(|fd| fd.to_string()).collect();
        let fs: HashSet<String> = f.fds.iter().map(|fd| fd.to_string()).collect();
        assert_eq!(ts, fs);
    }

    #[test]
    fn no_fd_when_rhs_varies_alone() {
        // r5: t3 and t4 differ only on region ⇒ nothing determines region
        // …except that they differ on region only; check the guard.
        let r = hotels_r5();
        let result = discover(&r);
        assert!(
            !result
                .fds
                .iter()
                .any(|fd| fd.rhs() == AttrSet::single(r.schema().id("region"))),
            "{:?}",
            result.fds
        );
    }

    #[test]
    fn bounded_run_verifies_partial_covers() {
        use deptree_core::engine::Budget;
        let cfg = CategoricalConfig {
            n_rows: 150,
            n_key_attrs: 2,
            n_dep_attrs: 3,
            domain: 6,
            error_rate: 0.1,
            seed: 11,
        };
        let data = categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let r = &data.relation;
        // Row budget far below the pair count truncates the scan; the
        // partial result must still be sound.
        let exec = Exec::new(Budget::new().with_max_rows(50));
        let out = discover_bounded(r, &exec);
        assert!(!out.complete);
        for fd in &out.result.fds {
            assert!(fd.holds(r), "{fd} unsound under row budget");
        }
        // Determinism for a fixed budget.
        let again = discover_bounded(r, &Exec::new(Budget::new().with_max_rows(50)));
        let names = |fds: &[Fd]| fds.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&out.result.fds), names(&again.result.fds));
    }

    #[test]
    fn difference_set_stats_populated() {
        let r = hotels_r5();
        let mut stats = FastFdStats::default();
        let diffs = difference_sets(&r, &mut stats);
        assert_eq!(stats.difference_sets, diffs.len());
        assert!(stats.pairs_compared >= 2);
        // Every reported set is a genuine difference set of some pair.
        for d in &diffs {
            assert!(!d.is_empty());
        }
    }
}
