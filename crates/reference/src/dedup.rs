//! MD-based deduplication over every row pair.

use deptree_core::Md;
use deptree_quality::dedup::{canonicalize, Clustering, UnionFind};
use deptree_relation::Relation;

/// Reference for `quality::dedup::cluster`: union every LHS-similar pair of
/// a full pair scan, rule by rule.
pub fn cluster(r: &Relation, mds: &[Md]) -> Clustering {
    let mut uf = UnionFind::new(r.n_rows());
    for md in mds {
        for (i, j) in crate::md::matching_pairs(md, r) {
            uf.union(i, j);
        }
    }
    canonicalize(&mut uf, r.n_rows())
}
