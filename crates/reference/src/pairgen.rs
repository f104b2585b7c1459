//! Row-major candidate-pair generation over a `Value` column: the classes
//! and links `PairIndex::build_attr` must produce, computed by hashing and
//! comparing `Value`s row by row.

use deptree_relation::pairgen::PairSpec;
use deptree_relation::Value;
use std::collections::HashMap;

/// q-gram width of the edit-distance filter.
const QGRAM: usize = 2;

/// The link budget past which an index degrades to the full scan.
fn link_cap(n_rows: usize) -> usize {
    8 * n_rows + 1024
}

/// The blocks of a candidate-pair index, in the shape `PairIndex` exposes
/// them: value classes (rows ascending, classes by first row), cross-class
/// links, and the exact / indexed flags.
#[derive(Debug)]
pub struct PairBlocks {
    /// Equivalence classes, each a row list.
    pub classes: Vec<Vec<usize>>,
    /// Candidate class pairs `(a, b)`, indexes into `classes`.
    pub links: Vec<(usize, usize)>,
    /// Every candidate satisfies the predicate.
    pub exact: bool,
    /// False for the full-scan fallback.
    pub indexed: bool,
    /// Rows of the column.
    pub n_rows: usize,
}

impl PairBlocks {
    fn empty(n_rows: usize) -> Self {
        PairBlocks {
            classes: Vec::new(),
            links: Vec::new(),
            exact: true,
            indexed: true,
            n_rows,
        }
    }

    fn full_scan(n_rows: usize) -> Self {
        PairBlocks {
            classes: Vec::new(),
            links: Vec::new(),
            exact: false,
            indexed: false,
            n_rows,
        }
    }

    /// Every candidate pair `(i, j)`, `i < j`, in block order: the pairs of
    /// each class, then the cross product of each link; `(i, j)`-ascending
    /// for the full scan.
    pub fn candidates(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if !self.indexed {
            for i in 0..self.n_rows {
                for j in i + 1..self.n_rows {
                    out.push((i, j));
                }
            }
            return out;
        }
        for rows in &self.classes {
            for (x, &i) in rows.iter().enumerate() {
                for &j in &rows[x + 1..] {
                    out.push((i, j));
                }
            }
        }
        for &(a, c) in &self.links {
            for &i in &self.classes[a] {
                for &j in &self.classes[c] {
                    out.push((i.min(j), i.max(j)));
                }
            }
        }
        out
    }
}

/// Reference for `PairIndex::build_attr` over the attribute holding `col`.
pub fn build(col: &[Value], spec: PairSpec) -> PairBlocks {
    match spec {
        PairSpec::Eq => PairBlocks {
            classes: structural_classes(col),
            ..PairBlocks::empty(col.len())
        },
        PairSpec::Band(theta) => build_band(col, theta),
        PairSpec::Edit(k) => build_edit(col, k),
        PairSpec::Empty => PairBlocks::empty(col.len()),
        PairSpec::All => PairBlocks::full_scan(col.len()),
    }
}

/// Structural-equality classes of a column, ordered by first row, rows
/// ascending within each class. All rows are covered (singletons included).
fn structural_classes(col: &[Value]) -> Vec<Vec<usize>> {
    let mut by_value: HashMap<&Value, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (row, v) in col.iter().enumerate() {
        let cls = *by_value.entry(v).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[cls].push(row);
    }
    classes
}

fn build_band(col: &[Value], theta: f64) -> PairBlocks {
    // A negative (or NaN) band matches nothing: even null/null pairs sit at
    // distance 0, which is not ≤ θ.
    if theta.is_nan() || theta < 0.0 {
        return PairBlocks::empty(col.len());
    }
    // Structural classes, excluding non-finite numerics: |x−y| is NaN or +∞
    // whenever either side is, so those rows match nothing at all.
    let mut by_value: HashMap<&Value, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (row, v) in col.iter().enumerate() {
        if matches!(v.as_f64(), Some(x) if !x.is_finite()) {
            continue;
        }
        let cls = *by_value.entry(v).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[cls].push(row);
    }
    // Two-pointer sweep over the numeric classes sorted by value: classes
    // a < b are linked iff their value gap is ≤ θ.
    let mut nums: Vec<(f64, usize)> = classes
        .iter()
        .enumerate()
        .filter_map(|(c, rows)| Some((col[rows[0]].as_f64()?, c)))
        .collect();
    nums.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let cap = link_cap(col.len());
    let mut links = Vec::new();
    let mut lo = 0usize;
    for hi in 0..nums.len() {
        while nums[hi].0 - nums[lo].0 > theta {
            lo += 1;
        }
        for k in lo..hi {
            let (a, b) = (nums[k].1, nums[hi].1);
            links.push((a.min(b), a.max(b)));
            if links.len() > cap {
                return PairBlocks::full_scan(col.len());
            }
        }
    }
    PairBlocks {
        classes,
        links,
        ..PairBlocks::empty(col.len())
    }
}

fn build_edit(col: &[Value], k: usize) -> PairBlocks {
    // Classes of identical rendered strings (distance 0), plus one class
    // for nulls (null/null distance is 0, null/string is ∞).
    let mut by_key: HashMap<Option<String>, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut texts: Vec<Option<Vec<char>>> = Vec::new();
    for (row, v) in col.iter().enumerate() {
        let key = (!v.is_null()).then(|| v.render().into_owned());
        let cls = *by_key.entry(key).or_insert_with(|| {
            classes.push(Vec::new());
            texts.push((!v.is_null()).then(|| v.render().chars().collect()));
            classes.len() - 1
        });
        classes[cls].push(row);
    }
    if k == 0 {
        // Edit distance 0 is rendered-string equality: classes only.
        return PairBlocks {
            classes,
            ..PairBlocks::empty(col.len())
        };
    }
    // The q-gram filter, decided class pair by class pair: two strings
    // within edit distance k differ in length by at most k, and share a
    // q-gram unless both are shorter than q·(k+1) (the Gravano count bound
    // is ≥ 1 only from that length on). Links are (earlier, later) pairs,
    // grouped by the later class.
    let short_lim = QGRAM * (k + 1);
    let mut links: Vec<(usize, usize)> = Vec::new();
    for (c, tc) in texts.iter().enumerate() {
        let Some(tc) = tc else { continue };
        for (e, te) in texts[..c].iter().enumerate() {
            let Some(te) = te else { continue };
            if te.len().abs_diff(tc.len()) > k {
                continue;
            }
            let both_short = te.len() < short_lim && tc.len() < short_lim;
            if both_short || share_gram(te, tc) {
                links.push((e, c));
            }
        }
        if links.len() > link_cap(col.len()) {
            return PairBlocks::full_scan(col.len());
        }
    }
    PairBlocks {
        exact: links.is_empty(),
        classes,
        links,
        ..PairBlocks::empty(col.len())
    }
}

/// Do two strings have a q-gram in common?
fn share_gram(a: &[char], b: &[char]) -> bool {
    a.windows(QGRAM).any(|g| b.windows(QGRAM).any(|h| g == h))
}
