//! Record matching / deduplication with matching dependencies (Table 3,
//! §3.7.4): MD-similar pairs are merge candidates; transitive closure via
//! union–find yields entity clusters.

use deptree_core::engine::{obs, Exec, Outcome};
use deptree_core::{pairs, Md};
use deptree_relation::pairgen::PairSpec;
use deptree_relation::{AttrSet, Relation, StrippedPartition};

/// Disjoint-set forest over row indices.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Find with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Union by rank; returns true if the sets were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

/// The result of clustering with a set of matching rules.
#[derive(Debug)]
pub struct Clustering {
    /// `cluster[row]` = canonical representative (smallest row index).
    pub cluster: Vec<usize>,
    /// Number of clusters.
    pub n_clusters: usize,
}

impl Clustering {
    /// Are two rows in the same cluster?
    pub fn same(&self, a: usize, b: usize) -> bool {
        self.cluster[a] == self.cluster[b]
    }
}

/// Cluster rows: any MD-similar pair is merged; clusters are the
/// connected components.
pub fn cluster(r: &Relation, mds: &[Md]) -> Clustering {
    cluster_bounded(r, mds, &Exec::unbounded()).result
}

/// Budgeted [`cluster`]: each MD's scan is charged as row ticks up front
/// (one per candidate pair its index enumerates, or one per row for the
/// partition fast path), and each merge costs a node tick. On exhaustion
/// remaining MDs (or merges) are skipped: every union already performed is
/// witnessed by a genuine MD-similar pair, so a partial clustering only
/// *under*-merges — it never places two rows in the same cluster without
/// evidence (`complete == false` signals possible over-segmentation).
///
/// An MD whose LHS atoms are all plain equality is resolved without pair
/// enumeration at all: its matching pairs are exactly the classes of the
/// LHS partition, and a spanning chain per class (`c − 1` unions instead
/// of `c(c−1)/2`) produces the same connected components. Everything else
/// streams candidates from the most selective
/// [`deptree_core::pairs::best_index`]. Full (unbudgeted) results equal
/// those of merging every MD-similar pair of a full pair scan exactly.
pub fn cluster_bounded(r: &Relation, mds: &[Md], exec: &Exec) -> Outcome<Clustering> {
    let mut uf = UnionFind::new(r.n_rows());
    let mut span = exec.span("dedup.rules");
    span.attr("rules", mds.len() as u64);
    'rules: for md in mds {
        if let Some(part) = eq_lhs_partition(r, md) {
            if !exec.tick_rows(r.n_rows() as u64) {
                break 'rules;
            }
            // The partition fast path is blocking too: each LHS class is a
            // block and only within-class pairs are candidates. Publish the
            // same pruning-power counters the index path reports, computed
            // analytically up front so interruption below cannot skew them.
            let candidates: u64 = part
                .classes()
                .iter()
                .map(|c| (c.len() as u64) * (c.len() as u64 - 1) / 2)
                .sum();
            let n = r.n_rows() as u64;
            let naive = n * n.saturating_sub(1) / 2;
            let m = obs::engine_metrics();
            m.pairgen_blocks.add(part.classes().len() as u64);
            m.pairgen_candidate_pairs.add(candidates);
            m.pairgen_pruned_pairs.add(naive.saturating_sub(candidates));
            for class in part.classes() {
                for w in class.windows(2) {
                    if !exec.tick_node() {
                        break 'rules;
                    }
                    uf.union(w[0], w[1]);
                }
            }
            continue;
        }
        let idx = pairs::best_index(r, md.lhs());
        if !exec.tick_rows(idx.n_candidates()) {
            break 'rules;
        }
        let mut exhausted = false;
        idx.for_each_candidate(|i, j| {
            if md.lhs_similar(r, i, j) {
                if !exec.tick_node() {
                    exhausted = true;
                    return false;
                }
                uf.union(i, j);
            }
            true
        });
        if exhausted {
            break 'rules;
        }
    }
    exec.finish(canonicalize(&mut uf, r.n_rows()))
}

/// The LHS partition when every determinant atom is plain structural
/// equality (its pair spec is [`PairSpec::Eq`]); `None` otherwise, or for
/// an empty LHS (which matches *all* pairs, not just within-class ones).
fn eq_lhs_partition(r: &Relation, md: &Md) -> Option<StrippedPartition> {
    if md.lhs().is_empty() {
        return None;
    }
    let mut attrs = AttrSet::empty();
    for (a, m, t) in md.lhs() {
        if !matches!(m.pair_spec(*t), PairSpec::Eq) {
            return None;
        }
        attrs = attrs.insert(*a);
    }
    Some(StrippedPartition::from_attrs(r, attrs))
}

/// The clustering a union–find over rows `0..n` describes: every row's
/// cluster is named by its smallest row, so the labels depend only on the
/// connected components, never on the order of the unions.
pub fn canonicalize(uf: &mut UnionFind, n: usize) -> Clustering {
    let mut canon: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut cluster = vec![0usize; n];
    for (row, slot) in cluster.iter_mut().enumerate() {
        let root = uf.find(row);
        let rep = *canon.entry(root).or_insert(row);
        *slot = rep;
    }
    let n_clusters = canon.len();
    Clustering {
        cluster,
        n_clusters,
    }
}

/// Visit every unordered row pair `(i, j)`, `i < j`, of an `n`-row
/// domain. The single home for the clustering-audit pair loop (scoring
/// and the under-merge checks in tests).
pub fn for_each_row_pair(n: usize, mut f: impl FnMut(usize, usize)) {
    for i in 0..n {
        for j in (i + 1)..n {
            f(i, j);
        }
    }
}

/// Pairwise precision/recall of a clustering against ground truth labels.
pub fn pairwise_score(clustering: &Clustering, truth: &[usize]) -> (f64, f64) {
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for_each_row_pair(truth.len(), |i, j| {
        let pred = clustering.same(i, j);
        let real = truth[i] == truth[j];
        match (pred, real) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    });
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_metrics::Metric;
    use deptree_relation::examples::hotels_r1;
    use deptree_relation::AttrSet;
    use deptree_synth::{entities, EntitiesConfig};

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(3));
        assert!(uf.union(1, 4));
        assert_eq!(uf.find(0), uf.find(3));
    }

    #[test]
    fn r1_name_variants_cluster_together() {
        // Table 1's pairs ("New Center" / "New Center Hotel", …) share
        // addresses; an MD on address similarity clusters each pair.
        let r = hotels_r1();
        let s = r.schema();
        let md = Md::new(
            s,
            vec![(s.id("address"), Metric::Levenshtein, 4.0)],
            AttrSet::single(s.id("name")),
        );
        let c = cluster(&r, std::slice::from_ref(&md));
        assert!(c.same(0, 1)); // New Center twins
        assert!(c.same(2, 3)); // St. Regis twins
        assert!(c.same(4, 5)); // West Wood twins
        assert!(c.same(6, 7)); // Christina twins (similar addresses)
        assert!(!c.same(0, 2));
        // "#3, West Lake Rd." and "No.7, West Lake Rd." are themselves
        // within edit distance 4, so the St. Regis and Christina groups
        // merge — the over-merging risk of loose thresholds.
        assert!(c.same(2, 6));
        assert_eq!(c.n_clusters, 3);
    }

    #[test]
    fn synthetic_entities_recovered() {
        let cfg = EntitiesConfig {
            n_entities: 50,
            max_duplicates: 3,
            variety: 0.7,
            error_rate: 0.0,
            seed: 61,
        };
        let data = entities::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
        let s = data.relation.schema();
        // zip is entity-identifying in the generator; name similarity
        // bridges format variants.
        let md = Md::new(
            s,
            vec![(s.id("zip"), Metric::Equality, 0.0)],
            AttrSet::single(s.id("name")),
        );
        let c = cluster(&data.relation, std::slice::from_ref(&md));
        let (precision, recall) = pairwise_score(&c, &data.cluster);
        assert!(recall >= 0.99, "recall {recall}");
        // Zips can collide across entities (modular arithmetic), so allow
        // slight precision loss.
        assert!(precision >= 0.9, "precision {precision}");
    }

    #[test]
    fn bounded_cluster_only_under_merges() {
        use deptree_core::engine::{Budget, Exec};
        let r = hotels_r1();
        let s = r.schema();
        let md = Md::new(
            s,
            vec![(s.id("address"), Metric::Levenshtein, 4.0)],
            AttrSet::single(s.id("name")),
        );
        let full = cluster(&r, std::slice::from_ref(&md));
        let exec = Exec::new(Budget::default().with_max_nodes(2));
        let partial = cluster_bounded(&r, std::slice::from_ref(&md), &exec);
        assert!(!partial.complete);
        // Every merge in the partial clustering also exists in the full
        // one: budget exhaustion can only over-segment, never over-merge.
        for_each_row_pair(r.n_rows(), |i, j| {
            if partial.result.same(i, j) {
                assert!(full.same(i, j), "spurious merge {i},{j}");
            }
        });
        assert!(partial.result.n_clusters >= full.n_clusters);
    }

    #[test]
    fn no_rules_no_merges() {
        let r = hotels_r1();
        let c = cluster(&r, &[]);
        assert_eq!(c.n_clusters, r.n_rows());
        let truth = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let (p, rec) = pairwise_score(&c, &truth);
        assert_eq!(p, 1.0); // vacuous precision
        assert_eq!(rec, 0.0);
    }
}
