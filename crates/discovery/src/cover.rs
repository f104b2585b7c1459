//! Minimal-hitting-set search shared by FastFD (difference sets) and
//! FASTDC (evidence-set complements): both reduce "find all minimal valid
//! dependencies" to "find all minimal sets hitting every set in a family".
//!
//! The search runs on *hit bitsets*: for each element `e` of the universe,
//! `hits[e]` is the set of family members containing `e`, one bit per
//! member, 64 members per word. Every per-node question of the classic DFS
//! then becomes a word operation: the first uncovered member is the lowest
//! set bit of the uncovered words, an element's coverage is
//! `popcount(hits[e] & uncovered)`, and a chosen element is redundant iff
//! every member it hits is hit at least twice.

use deptree_core::engine::Exec;

/// Find all *minimal* subsets of `0..universe` (as bitsets) that intersect
/// every set in `family`. Sets in `family` are bitsets over the same
/// universe. The empty family yields the empty hitting set.
///
/// This is the depth-first search both FastFD and FASTDC deploy, with the
/// classic orderings: branch on elements of the first uncovered set,
/// ordered by how many uncovered sets they hit.
pub fn minimal_hitting_sets(family: &[u64], universe: usize) -> Vec<u64> {
    minimal_hitting_sets_bounded(family, universe, &Exec::unbounded()).0
}

/// Budgeted [`minimal_hitting_sets`]: each DFS node costs one engine tick.
/// Returns the covers found plus a completeness flag. Every returned set
/// genuinely hits the whole family even when the search was cut short —
/// an incomplete run can only *miss* covers (and therefore report sets
/// that a missed smaller cover would have shadowed). The quadratic family
/// reduction and antichain filter take no ticks but stop on a deadline or
/// cancellation: the reduction then returns no covers, the filter the
/// minimal ones it kept so far.
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
        if exec.interrupted() {
            return (Vec::new(), false);
        }
        // Keep s only if no already-kept set is a subset of it.
        if !minimal_family.iter().any(|&m| m & !s == 0) {
            minimal_family.push(s);
        }
    }
    if minimal_family.contains(&0) {
        // An empty set can never be hit.
        return (Vec::new(), true);
    }
    let search = HitSets::new(&minimal_family);
    let mut out: Vec<u64> = Vec::new();
    let mut complete = search.dfs(0u64, &mut search.root_state(), &mut out, exec);
    // The DFS can emit non-minimal sets via different branch orders;
    // filter to the minimal antichain. Sets come by size, so every set
    // kept when a deadline stops the filter is already minimal.
    out.sort_by_key(|s| s.count_ones());
    let mut result: Vec<u64> = Vec::new();
    for s in out {
        if exec.interrupted() {
            complete = false;
            break;
        }
        if !result.iter().any(|&m| m & !s == 0) {
            result.push(s);
        }
    }
    result.sort();
    (result, complete)
}

/// The minimal family, transposed: per universe element, the bitset of
/// family members it hits.
struct HitSets<'a> {
    family: &'a [u64],
    /// Words per member bitset: one per 64 family members.
    words: usize,
    /// `hits[e * words..(e + 1) * words]`: members containing element `e`.
    hits: Vec<u64>,
}

impl<'a> HitSets<'a> {
    fn new(family: &'a [u64]) -> Self {
        let words = family.len().div_ceil(64).max(1);
        let mut hits = vec![0u64; 64 * words];
        for (m, &s) in family.iter().enumerate() {
            for e in elements(s) {
                hits[e * words + m / 64] |= 1 << (m % 64);
            }
        }
        HitSets {
            family,
            words,
            hits,
        }
    }

    fn hits(&self, e: usize) -> &[u64] {
        &self.hits[e * self.words..(e + 1) * self.words]
    }

    /// The DFS state stack, root frame filled in. A frame is the
    /// members still uncovered by the node's chosen set, then the members
    /// it hits at least twice; node depth `d` reads frame `d` and builds
    /// its children in frame `d + 1`. A chosen set has at most 64
    /// elements, so 65 frames always suffice.
    fn root_state(&self) -> Vec<u64> {
        let w = self.words;
        let mut state = vec![0u64; 2 * w * 65];
        for m in 0..self.family.len() {
            state[m / 64] |= 1 << (m % 64);
        }
        state
    }

    /// Returns false when the budget cut the search short.
    fn dfs(&self, chosen: u64, state: &mut [u64], out: &mut Vec<u64>, exec: &Exec) -> bool {
        if !exec.tick_node() {
            return false;
        }
        let w = self.words;
        let (frame, rest) = state.split_at_mut(2 * w);
        let (uncovered, twice) = frame.split_at(w);
        // First member not yet hit.
        let Some(first) = uncovered
            .iter()
            .position(|&word| word != 0)
            .map(|i| i * 64 + uncovered[i].trailing_zeros() as usize)
        else {
            out.push(chosen);
            return true;
        };
        // Branch on each element of that member, ascending, stably sorted
        // by coverage of the remaining members (descending) to find small
        // covers early: the key (Reverse(count), element) is that order.
        let mut order = [0u64; 64];
        let mut n = 0;
        for e in elements(self.family[first]) {
            let count: u32 = self
                .hits(e)
                .iter()
                .zip(uncovered)
                .map(|(h, u)| (h & u).count_ones())
                .sum();
            order[n] = (u64::from(u32::MAX - count) << 6) | e as u64;
            n += 1;
        }
        order[..n].sort_unstable();
        for &key in &order[..n] {
            let e = (key & 63) as usize;
            let h = self.hits(e);
            let (next_uncovered, next_twice) = rest[..2 * w].split_at_mut(w);
            for i in 0..w {
                next_uncovered[i] = uncovered[i] & !h[i];
                next_twice[i] = twice[i] | (!uncovered[i] & h[i]);
            }
            // Cheap local pruning: an already-chosen element all of whose
            // members are hit twice by `next` is hit again by the rest of
            // it, which makes `next` non-minimal; a strict subset will be
            // found on another branch.
            let redundant = elements(chosen).any(|c| {
                self.hits(c)
                    .iter()
                    .zip(&*next_twice)
                    .all(|(hc, t)| hc & !t == 0)
            });
            if redundant {
                continue;
            }
            if !self.dfs(chosen | (1 << e), rest, out, exec) {
                return false;
            }
        }
        true
    }
}

/// The members of a bitset, ascending.
fn elements(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let e = set.trailing_zeros() as usize;
            set &= set - 1;
            e
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: &[u32]) -> u64 {
        bits.iter().fold(0u64, |acc, &b| acc | (1 << b))
    }

    #[test]
    fn single_set_yields_singletons() {
        let hs = minimal_hitting_sets(&[set(&[0, 2, 5])], 6);
        assert_eq!(hs, vec![set(&[0]), set(&[2]), set(&[5])]);
    }

    #[test]
    fn disjoint_sets_need_one_from_each() {
        let hs = minimal_hitting_sets(&[set(&[0, 1]), set(&[2, 3])], 4);
        assert_eq!(hs.len(), 4);
        for h in &hs {
            assert_eq!(h.count_ones(), 2);
        }
        assert!(hs.contains(&set(&[0, 2])));
        assert!(hs.contains(&set(&[1, 3])));
    }

    #[test]
    fn shared_element_dominates() {
        // {0,1}, {0,2}: {0} hits both; {1,2} is the other minimal cover.
        let hs = minimal_hitting_sets(&[set(&[0, 1]), set(&[0, 2])], 3);
        assert!(hs.contains(&set(&[0])));
        assert!(hs.contains(&set(&[1, 2])));
        assert_eq!(hs.len(), 2);
    }

    #[test]
    fn supersets_in_family_are_ignored() {
        let a = minimal_hitting_sets(&[set(&[0, 1]), set(&[0, 1, 2, 3])], 4);
        let b = minimal_hitting_sets(&[set(&[0, 1])], 4);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_family_has_empty_cover() {
        assert_eq!(minimal_hitting_sets(&[], 4), vec![0]);
    }

    #[test]
    fn unhittable_family() {
        assert!(minimal_hitting_sets(&[0u64], 4).is_empty());
    }

    #[test]
    fn a_cancelled_search_skips_the_quadratic_reduction() {
        use deptree_core::engine::{Budget, CancelToken};
        use std::time::{Duration, Instant};
        // Every 9-element subset of 0..18: 48,620 pairwise-incomparable
        // members, so reducing the family takes about 10⁹ subset tests.
        let family: Vec<u64> = (0u64..1 << 18).filter(|s| s.count_ones() == 9).collect();
        let cancel = CancelToken::new();
        cancel.cancel();
        let exec = Exec::with_cancel(Budget::new(), cancel);
        let start = Instant::now();
        let (covers, complete) = minimal_hitting_sets_bounded(&family, 18, &exec);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(500), "took {took:?}");
        assert!(!complete);
        assert!(covers.is_empty());
    }

    #[test]
    fn all_outputs_hit_everything_and_are_minimal() {
        let family = [set(&[0, 1, 2]), set(&[1, 3]), set(&[2, 3]), set(&[0, 3])];
        let hs = minimal_hitting_sets(&family, 4);
        assert!(!hs.is_empty());
        for &h in &hs {
            assert!(family.iter().all(|&s| s & h != 0), "{h:b} misses a set");
            for b in 0..4 {
                if h & (1 << b) != 0 {
                    let smaller = h & !(1 << b);
                    assert!(
                        family.iter().any(|&s| s & smaller == 0),
                        "{h:b} not minimal"
                    );
                }
            }
        }
        // And the antichain property.
        for &a in &hs {
            for &b in &hs {
                assert!(a == b || a & b != a, "antichain violated");
            }
        }
    }
}
