//! The minimal-hitting-set DFS that scans the whole family at every node.

use deptree_core::engine::Exec;

/// Reference for `discovery::cover::minimal_hitting_sets_bounded`: the
/// same search, orderings and node ticks, with every per-node question
/// (first uncovered set, coverage counts, redundancy) answered by a scan
/// over the family instead of hit bitsets.
pub fn minimal_hitting_sets_bounded(
    family: &[u64],
    universe: usize,
    exec: &Exec,
) -> (Vec<u64>, bool) {
    assert!(universe <= 64, "hitting-set universe capped at 64");
    // Reduce to inclusion-minimal family members: hitting a subset implies
    // hitting its supersets.
    let mut minimal_family: Vec<u64> = Vec::new();
    // The (count_ones, value) key is canonical: callers feed families out
    // of hash maps, and under a node budget the DFS visit order decides
    // which covers make it out before the cutoff — popcount-only sorting
    // left ties in hash order (and could let duplicates slip past dedup,
    // which only removes adjacent repeats).
    let mut sorted: Vec<u64> = family.to_vec();
    sorted.sort_by_key(|s| (s.count_ones(), *s));
    sorted.dedup();
    for &s in &sorted {
        // Keep s only if no already-kept set is a subset of it.
        if !minimal_family.iter().any(|&m| m & !s == 0) {
            minimal_family.push(s);
        }
    }
    if minimal_family.contains(&0) {
        // An empty set can never be hit.
        return (Vec::new(), true);
    }
    let mut out: Vec<u64> = Vec::new();
    let complete = dfs(&minimal_family, 0u64, &mut out, exec);
    // The DFS can emit non-minimal sets via different branch orders;
    // filter to the minimal antichain.
    out.sort_by_key(|s| s.count_ones());
    let mut result: Vec<u64> = Vec::new();
    for s in out {
        if !result.iter().any(|&m| m & !s == 0) {
            result.push(s);
        }
    }
    result.sort();
    (result, complete)
}

/// Returns false when the budget cut the search short.
fn dfs(family: &[u64], chosen: u64, out: &mut Vec<u64>, exec: &Exec) -> bool {
    if !exec.tick_node() {
        return false;
    }
    // First set not yet hit.
    let Some(&uncovered) = family.iter().find(|&&s| s & chosen == 0) else {
        out.push(chosen);
        return true;
    };
    // Branch on each element of the uncovered set; order by coverage of
    // remaining sets (descending) to find small covers early.
    let mut elems: Vec<u32> = (0..64).filter(|&b| uncovered & (1 << b) != 0).collect();
    elems.sort_by_key(|&b| {
        std::cmp::Reverse(
            family
                .iter()
                .filter(|&&s| s & chosen == 0 && s & (1 << b) != 0)
                .count(),
        )
    });
    for b in elems {
        let next = chosen | (1 << b);
        // Cheap local pruning: an already-chosen element whose hit sets
        // are all also hit by the rest of `next` makes `next` non-minimal;
        // a strict subset will be found on another branch.
        let redundant = (0..64).filter(|&c| chosen & (1 << c) != 0).any(|c| {
            let without = next & !(1 << c);
            family
                .iter()
                .filter(|&&s| s & (1 << c) != 0)
                .all(|&s| s & without != 0)
        });
        if redundant {
            continue;
        }
        if !dfs(family, next, out, exec) {
            return false;
        }
    }
    true
}
