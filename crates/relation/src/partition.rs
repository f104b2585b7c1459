//! Stripped partitions: the core data structure of partition-based
//! dependency discovery (TANE and its many descendants).
//!
//! A *partition* `π_X` groups rows by their values on attribute set `X`.
//! A *stripped* partition drops singleton classes: they can never witness a
//! violation, and dropping them keeps partitions small as `X` grows. The
//! *product* `π_X · π_Y = π_{X∪Y}` lets a level-wise algorithm compute the
//! partition for every lattice node from its parents in linear time, which
//! is the trick that makes TANE practical.

use crate::attrset::AttrSet;
use crate::relation::Relation;
use std::collections::HashMap;

/// A stripped partition of the rows of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    /// Equivalence classes with at least two rows, each sorted ascending.
    classes: Vec<Vec<usize>>,
    n_rows: usize,
}

impl StrippedPartition {
    /// The identity partition (all rows in one class) over `n_rows` rows —
    /// the partition of the empty attribute set.
    pub fn identity(n_rows: usize) -> Self {
        let classes = if n_rows >= 2 {
            vec![(0..n_rows).collect()]
        } else {
            Vec::new()
        };
        StrippedPartition { classes, n_rows }
    }

    /// Partition by one attribute's column.
    ///
    /// Buckets rows by dictionary code — structural equality of cells is
    /// code equality — so no `Value` is hashed or compared.
    pub fn from_column(rel: &Relation, attr: crate::AttrId) -> Self {
        let col = rel.col(attr);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); col.dict().len()];
        for (row, &code) in col.codes().iter().enumerate() {
            buckets[code as usize].push(row);
        }
        Self::from_groups(buckets, rel.n_rows())
    }

    /// Partition by an attribute set.
    ///
    /// One counting sort over the combined dictionary code when the
    /// dictionaries' product is narrow enough; otherwise the column
    /// product chain `π_{a₀} · π_{a₁} · …` in increasing attribute order,
    /// on the kernels TANE's level products run
    /// ([`StrippedPartition::product_with_attr`]), with scratch freed when
    /// the call returns. `π_a` is built only for a product the radix
    /// kernel declines.
    pub fn from_attrs(rel: &Relation, attrs: AttrSet) -> Self {
        let mut ids = attrs.iter();
        let Some(first) = ids.next() else {
            return Self::identity(rel.n_rows());
        };
        if let Some(p) = Self::from_codes_radix(rel, attrs) {
            return p;
        }
        let mut scratch = ProductScratch::new();
        ids.fold(Self::from_column(rel, first), |left, a| {
            left.product_with_column(rel.col(a), &mut scratch)
                .unwrap_or_else(|| left.product_with(&Self::from_column(rel, a), &mut scratch))
        })
    }

    /// Counting-sort grouping over the combined dictionary code.
    ///
    /// When the product of the attribute dictionaries fits a dense key
    /// space of `O(n_rows)` slots, each row's code tuple collapses (by
    /// Horner's rule) into one `u32` key and grouping becomes two linear
    /// counting passes over two flat arrays — no tuple hashing, no
    /// per-group allocation beyond the exact class sizes. Returns `None`
    /// when the combined domain is too wide (the product chain in
    /// [`StrippedPartition::from_attrs`] then takes over).
    ///
    /// Byte-identity: classes are created in first-covered-row order and
    /// filled ascending, which is exactly the canonical order
    /// `from_groups` produces (disjoint ascending classes sort by their
    /// first element).
    fn from_codes_radix(rel: &Relation, attrs: AttrSet) -> Option<StrippedPartition> {
        let n = rel.n_rows();
        if n >= u32::MAX as usize {
            return None;
        }
        let cols: Vec<&crate::Column> = attrs.iter().map(|a| rel.col(a)).collect();
        let cap = n.saturating_mul(4).saturating_add(4096);
        let mut domain = 1usize;
        for c in &cols {
            domain = domain.checked_mul(c.dict().len().max(1))?;
            if domain > cap || domain > u32::MAX as usize {
                return None;
            }
        }
        // Combined key per row, built column-at-a-time for sequential
        // access to each code vector.
        let mut keys = vec![0u32; n];
        for c in &cols {
            let d = c.dict().len().max(1) as u64;
            for (k, &code) in keys.iter_mut().zip(c.codes()) {
                *k = (u64::from(*k) * d + u64::from(code)) as u32;
            }
        }
        let mut count = vec![0u32; domain];
        for &k in &keys {
            count[k as usize] += 1;
        }
        const NO_CLASS: u32 = u32::MAX;
        let mut class_of = vec![NO_CLASS; domain];
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (row, &k) in keys.iter().enumerate() {
            let c = count[k as usize];
            if c < 2 {
                continue;
            }
            let slot = class_of[k as usize];
            let slot = if slot == NO_CLASS {
                let s = classes.len() as u32;
                class_of[k as usize] = s;
                classes.push(Vec::with_capacity(c as usize));
                s
            } else {
                slot
            };
            classes[slot as usize].push(row);
        }
        Some(StrippedPartition { classes, n_rows: n })
    }

    /// Partition from per-row labels: rows with equal labels share a class.
    pub fn from_labels<T: std::hash::Hash + Eq>(labels: &[T]) -> Self {
        let mut groups: HashMap<&T, Vec<usize>> = HashMap::new();
        for (row, l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(row);
        }
        Self::from_groups(groups.into_values(), labels.len())
    }

    fn from_groups<I: IntoIterator<Item = Vec<usize>>>(groups: I, n_rows: usize) -> Self {
        let mut classes: Vec<Vec<usize>> = groups
            .into_iter()
            .filter(|g| g.len() >= 2)
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        classes.sort_unstable();
        StrippedPartition { classes, n_rows }
    }

    /// Number of rows in the underlying relation.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The non-singleton classes.
    #[inline]
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// `‖π‖`: number of rows covered by non-singleton classes.
    pub fn covered_rows(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Total number of equivalence classes *including* singletons —
    /// i.e. the number of distinct values of the underlying attribute set.
    pub fn num_classes(&self) -> usize {
        self.n_rows - self.covered_rows() + self.classes.len()
    }

    /// Rough in-memory footprint in bytes, used by the execution engine's
    /// partition-memory budget. Counts the row indices plus per-class and
    /// per-partition overhead; an estimate, not an allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        const WORD: u64 = std::mem::size_of::<usize>() as u64;
        const VEC_OVERHEAD: u64 = 3 * WORD;
        VEC_OVERHEAD
            + self
                .classes
                .iter()
                .map(|c| VEC_OVERHEAD + c.len() as u64 * WORD)
                .sum::<u64>()
    }

    /// TANE's error `e(π) = (‖π‖ − |π|)`: the minimum number of rows to
    /// remove so every remaining class is a singleton. Divided by `n`,
    /// this is the key-ness error used for key pruning.
    pub fn error(&self) -> usize {
        self.covered_rows() - self.classes.len()
    }

    /// Partition product: `π_self · π_other = π_{X ∪ Y}`.
    ///
    /// Linear in `‖π_self‖` using the probe-table scheme from the TANE
    /// paper. Allocates fresh scratch buffers; the hot paths of the
    /// lattice miners should prefer [`StrippedPartition::product_with`],
    /// which reuses one [`ProductScratch`] across calls.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        self.product_with(other, &mut ProductScratch::new())
    }

    /// [`StrippedPartition::product`] with caller-owned scratch buffers.
    ///
    /// The product sits in the innermost loop of every lattice miner —
    /// one per generated lattice node — and the naive formulation
    /// reallocates an `n_rows`-sized probe table plus hash buckets per
    /// call. This variant keeps both in `scratch`: the probe table is
    /// grown once and selectively reset (only rows actually labelled are
    /// touched), and bucket vectors are recycled. Results are identical
    /// to [`StrippedPartition::product`].
    pub fn product_with(
        &self,
        other: &StrippedPartition,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        assert_eq!(
            self.n_rows, other.n_rows,
            "partition product over different relations"
        );
        // probe[row] = label of the other-partition class containing row,
        // or NO_LABEL. Grow once; stale entries from earlier calls were
        // reset via the touched list before the previous call returned.
        const NO_LABEL: u32 = u32::MAX;
        if scratch.probe.len() < self.n_rows {
            scratch.probe.resize(self.n_rows, NO_LABEL);
        }
        scratch.touched.clear();
        for (i, cls) in other.classes.iter().enumerate() {
            for &row in cls {
                scratch.probe[row] = i as u32;
                scratch.touched.push(row);
            }
        }
        let mut out: Vec<Vec<usize>> = Vec::new();
        for cls in &self.classes {
            for &row in cls {
                let label = scratch.probe[row];
                if label == NO_LABEL {
                    continue;
                }
                while scratch.buckets.len() <= label as usize {
                    scratch.buckets.push(Vec::new());
                }
                let bucket = &mut scratch.buckets[label as usize];
                if bucket.is_empty() {
                    scratch.used_labels.push(label);
                }
                bucket.push(row);
            }
            for &label in &scratch.used_labels {
                let bucket = &mut scratch.buckets[label as usize];
                if bucket.len() >= 2 {
                    out.push(std::mem::take(bucket));
                } else {
                    bucket.clear();
                }
            }
            scratch.used_labels.clear();
        }
        // Reset only the probe entries this call labelled, so the next
        // call starts clean without an O(n_rows) wipe.
        for &row in &scratch.touched {
            scratch.probe[row] = NO_LABEL;
        }
        Self::from_groups(out, self.n_rows)
    }

    /// The split kernel: a [`Splitter`] that splits row sets by the
    /// classes of `self`.
    ///
    /// Splitting every class of `π_X` by `π_{X∪Y}` (or by `π_Y`) yields
    /// the `Y`-sub-groups of each `X`-value, which is all that violation
    /// witnesses, `g3`, modal repair, NUD fan-out and PFD probability
    /// need. Labelling costs `O(n_rows + ‖self‖)` once; each split then
    /// costs the size of the row set, with dense per-class counts and no
    /// hashing. Unlike [`StrippedPartition::product_with`], singleton
    /// sub-groups are kept.
    pub fn splitter(&self) -> Splitter {
        // Class labels and sub-group slots are `u32`s below `NO_SLOT`.
        assert!(self.n_rows < NO_SLOT as usize, "too many rows to split");
        let mut class_of = vec![NO_SLOT; self.n_rows];
        for (i, cls) in self.classes.iter().enumerate() {
            for &row in cls {
                class_of[row] = i as u32;
            }
        }
        Splitter {
            class_of,
            slot: vec![NO_SLOT; self.classes.len()],
            touched: Vec::new(),
            subs: Vec::new(),
        }
    }

    /// `π_self · π_a` by the first kernel that takes it: the radix product
    /// on `a`'s code vector `col` ([`StrippedPartition::product_with_column`]),
    /// or — when `a`'s dictionary is too wide for that — the probe-table
    /// product ([`StrippedPartition::product_with`]) against
    /// `single = π_a`. The flag is true when the radix kernel ran. Both
    /// kernels give byte-identical partitions.
    pub fn product_with_attr(
        &self,
        col: &crate::Column,
        scratch: &mut ProductScratch,
        single: &StrippedPartition,
    ) -> (StrippedPartition, bool) {
        match self.product_with_column(col, scratch) {
            Some(p) => (p, true),
            None => (self.product_with(single, scratch), false),
        }
    }

    /// Radix partition product against one attribute's column:
    /// `π_self · π_{a} = π_{X ∪ {a}}` computed directly from `a`'s code
    /// vector, without materializing `π_a` or probe-labelling its rows.
    ///
    /// Two counting strategies, picked by domain width. When
    /// `num_classes · |dict|` fits the covered-row budget, rows are
    /// labelled by left class once and then streamed *sequentially*
    /// (count pass + exact-capacity fill pass over the combined
    /// `label·d + code` key — no random access in the hot loops).
    /// Otherwise each left class is split through a dense `|dict|`-slot
    /// scratch table (selectively reset via a touched list). Returns
    /// `None` when the dictionary alone is wide relative to the covered
    /// rows (the conservative hash fallback: a huge slot table for a tiny
    /// partition would trade O(‖π‖) work for O(|dict|) memory traffic).
    ///
    /// Byte-identity: both strategies create classes in ascending
    /// first-covered-row order (the sequential variant by construction —
    /// already the canonical lexicographic order of `from_groups`; the
    /// per-class variant after its final sort by first row).
    pub fn product_with_column(
        &self,
        col: &crate::Column,
        scratch: &mut ProductScratch,
    ) -> Option<StrippedPartition> {
        assert_eq!(
            self.n_rows,
            col.len(),
            "partition product over different relations"
        );
        let d = col.dict().len();
        if d > self.covered_rows().saturating_mul(4).saturating_add(1024)
            || self.n_rows >= u32::MAX as usize
        {
            return None;
        }
        let seq_cap = self.covered_rows().saturating_mul(4).saturating_add(4096);
        if let Some(domain) = self.classes.len().checked_mul(d) {
            if domain <= seq_cap && domain < u32::MAX as usize && self.n_rows < (1 << 31) {
                return Some(self.product_sequential(col, domain, scratch));
            }
        }
        const NO_SLOT: u32 = u32::MAX;
        if scratch.code_slot.len() < d {
            scratch.code_slot.resize(d, NO_SLOT);
        }
        let codes = col.codes();
        let mut out: Vec<Vec<usize>> = Vec::new();
        for cls in &self.classes {
            // Counting pass: assign slots in first-appearance order, count
            // rows per slot — no allocation, no pushes.
            let mut n_used = 0u32;
            for &row in cls {
                let code = codes[row] as usize;
                let slot = scratch.code_slot[code];
                if slot == NO_SLOT {
                    scratch.code_slot[code] = n_used;
                    scratch.touched_codes.push(code);
                    if scratch.slot_counts.len() == n_used as usize {
                        scratch.slot_counts.push(1);
                    } else {
                        scratch.slot_counts[n_used as usize] = 1;
                    }
                    n_used += 1;
                } else {
                    scratch.slot_counts[slot as usize] += 1;
                }
            }
            // Slots with ≥2 rows become exact-capacity output classes
            // (stripped: singletons are never allocated at all); the count
            // entry is reused as the slot's output index.
            for s in 0..n_used as usize {
                let cnt = scratch.slot_counts[s];
                if cnt >= 2 {
                    scratch.slot_counts[s] = out.len() as u32;
                    out.push(Vec::with_capacity(cnt as usize));
                } else {
                    scratch.slot_counts[s] = NO_SLOT;
                }
            }
            // Fill pass, in row order within the class.
            for &row in cls {
                let slot = scratch.code_slot[codes[row] as usize];
                let oi = scratch.slot_counts[slot as usize];
                if oi != NO_SLOT {
                    out[oi as usize].push(row);
                }
            }
            for &code in &scratch.touched_codes {
                scratch.code_slot[code] = NO_SLOT;
            }
            scratch.touched_codes.clear();
        }
        out.sort_unstable_by_key(|c| c[0]);
        Some(StrippedPartition {
            classes: out,
            n_rows: self.n_rows,
        })
    }

    /// Sequential counting-sort product: label rows by left class, then
    /// stream the row range twice — a count pass and an exact-capacity
    /// fill pass over the dense `label·d + code` key. Classes are created
    /// at their first covered row, so the output is born in canonical
    /// order and needs no sort.
    ///
    /// The count pass caches each covered row's combined key back into the
    /// probe table, so the fill pass streams a single array. The slot
    /// table does double duty: a slot holds the key's row count until the
    /// fill pass first touches it, then (tagged with the high bit) the
    /// output class index. Requires `n_rows < 2^31` so counts and tagged
    /// indexes cannot collide — guaranteed by the caller's gate.
    fn product_sequential(
        &self,
        col: &crate::Column,
        domain: usize,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        const NO_LABEL: u32 = u32::MAX;
        const PLACED: u32 = 1 << 31;
        if scratch.probe.len() < self.n_rows {
            scratch.probe.resize(self.n_rows, NO_LABEL);
        }
        for (i, cls) in self.classes.iter().enumerate() {
            for &row in cls {
                scratch.probe[row] = i as u32;
            }
        }
        let d = col.dict().len() as u64;
        let codes = col.codes();
        let mut slots = vec![0u32; domain];
        for (row, &code) in codes.iter().enumerate() {
            let label = scratch.probe[row];
            if label != NO_LABEL {
                // `domain < u32::MAX`, so a cached key never aliases NO_LABEL.
                let key = (u64::from(label) * d + u64::from(code)) as u32;
                slots[key as usize] += 1;
                scratch.probe[row] = key;
            }
        }
        let mut out: Vec<Vec<usize>> = Vec::new();
        for row in 0..self.n_rows {
            let key = scratch.probe[row];
            if key == NO_LABEL {
                continue;
            }
            let slot = slots[key as usize];
            if slot < 2 {
                continue; // singleton (or null-stripped) key: never allocated
            }
            let cls = if slot & PLACED == 0 {
                let idx = out.len() as u32;
                out.push(Vec::with_capacity(slot as usize));
                slots[key as usize] = idx | PLACED;
                idx
            } else {
                slot & !PLACED
            };
            out[cls as usize].push(row);
        }
        for cls in &self.classes {
            for &row in cls {
                scratch.probe[row] = NO_LABEL;
            }
        }
        StrippedPartition {
            classes: out,
            n_rows: self.n_rows,
        }
    }

    /// Does the FD `X → Y` hold, where `self = π_X` and `rhs = π_{X∪Y}`?
    ///
    /// Holds iff both partitions have the same number of classes
    /// (equivalently, the same error).
    pub fn refines(&self, xy: &StrippedPartition) -> bool {
        self.error() == xy.error()
    }

    /// `g3` error of the FD `X → rhs` where `self = π_X` and `rhs` is the
    /// partition of the right-hand side: the fraction of rows that must be
    /// removed so the FD holds exactly (Kivinen–Mannila's `g3`, as computed
    /// in TANE's approximate-dependency mode).
    pub fn g3_error(&self, rhs: &StrippedPartition) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.g3_violations(rhs) as f64 / self.n_rows as f64
    }

    /// Minimum number of rows to delete so that the FD `X → rhs` holds:
    /// `Σ (|c| − largest sub-group)` over the classes `c` of `π_X` split
    /// by `rhs`.
    pub fn g3_violations(&self, rhs: &StrippedPartition) -> usize {
        assert_eq!(self.n_rows, rhs.n_rows);
        let mut by_rhs = rhs.splitter();
        self.classes
            .iter()
            .map(|cls| {
                let keep = by_rhs.split(cls).iter().map(|s| s.len).max();
                cls.len() - keep.unwrap_or(0)
            })
            .sum()
    }
}

/// "No class" / "no slot" marker of the split kernel's dense tables.
const NO_SLOT: u32 = u32::MAX;

/// One sub-group of a row set split by a partition: rows that share a
/// class of the splitting partition, or one row that is a singleton there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubGroup {
    /// The sub-group's first row in the split row set — its smallest row
    /// when the set is ascending, as every stripped class is.
    pub first: usize,
    /// Number of rows in the sub-group.
    pub len: usize,
}

/// The split kernel ([`StrippedPartition::splitter`]): row → class labels
/// of one partition, plus dense per-class slots reused across splits and
/// freed with the splitter.
#[derive(Debug)]
pub struct Splitter {
    /// Row → class of the splitting partition (`NO_SLOT` = singleton).
    class_of: Vec<u32>,
    /// Class → index in `subs` for the current split (`NO_SLOT` = unseen).
    slot: Vec<u32>,
    /// Classes given a slot by the current split, for selective reset.
    touched: Vec<u32>,
    /// The current split's sub-groups.
    subs: Vec<SubGroup>,
}

impl Splitter {
    /// Split `rows` by the splitting partition's classes.
    ///
    /// Rows sharing a class form one sub-group; each row that is a
    /// singleton there forms its own. Sub-groups come in order of their
    /// first row in `rows`, so for an ascending class (every class of a
    /// [`StrippedPartition`]) each `first` is the sub-group's minimum and
    /// the sub-groups are ascending by it. Costs `O(|rows|)`; no `Value`
    /// is hashed or compared. `rows` must hold distinct rows.
    pub fn split(&mut self, rows: &[usize]) -> &[SubGroup] {
        for &c in &self.touched {
            self.slot[c as usize] = NO_SLOT;
        }
        self.touched.clear();
        self.subs.clear();
        for &row in rows {
            let c = self.class_of[row];
            if c == NO_SLOT {
                self.subs.push(SubGroup { first: row, len: 1 });
                continue;
            }
            let s = self.slot[c as usize];
            if s == NO_SLOT {
                self.slot[c as usize] = self.subs.len() as u32;
                self.touched.push(c);
                self.subs.push(SubGroup { first: row, len: 1 });
            } else {
                self.subs[s as usize].len += 1;
            }
        }
        &self.subs
    }
}

/// Reusable scratch buffers for [`StrippedPartition::product_with`].
///
/// One scratch per thread of execution: TANE gives each pool worker a
/// thread-local one, and serial callers keep one per run. Memory grows to
/// the largest product computed and is then recycled for every subsequent
/// call.
#[derive(Debug, Default)]
pub struct ProductScratch {
    /// Row → other-partition class label (`u32::MAX` = unlabelled).
    probe: Vec<u32>,
    /// Rows labelled by the current call, for selective reset.
    touched: Vec<usize>,
    /// Recycled per-label row buckets.
    buckets: Vec<Vec<usize>>,
    /// Labels with a non-empty bucket for the class being split.
    used_labels: Vec<u32>,
    /// Dictionary code → bucket slot for the radix product
    /// ([`StrippedPartition::product_with_column`]); `u32::MAX` = unused.
    code_slot: Vec<u32>,
    /// Codes assigned a slot for the class being split, for selective reset.
    touched_codes: Vec<usize>,
    /// Per-slot row count, then output-class index, for the counting pass.
    slot_counts: Vec<u32>,
}

impl ProductScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        ProductScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationBuilder;
    use crate::schema::ValueType;

    fn rel() -> Relation {
        // a  b  c
        // x  p  1
        // x  p  1
        // x  q  2
        // y  q  2
        // y  q  3
        RelationBuilder::new()
            .attr("a", ValueType::Categorical)
            .attr("b", ValueType::Categorical)
            .attr("c", ValueType::Numeric)
            .row(vec!["x".into(), "p".into(), 1.into()])
            .row(vec!["x".into(), "p".into(), 1.into()])
            .row(vec!["x".into(), "q".into(), 2.into()])
            .row(vec!["y".into(), "q".into(), 2.into()])
            .row(vec!["y".into(), "q".into(), 3.into()])
            .build()
            .unwrap()
    }

    #[test]
    fn from_column_strips_singletons() {
        let r = rel();
        let pa = StrippedPartition::from_column(&r, r.schema().id("a"));
        assert_eq!(pa.classes(), &[vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(pa.num_classes(), 2);
        let pc = StrippedPartition::from_column(&r, r.schema().id("c"));
        // c groups: {0,1}, {2,3}, {4} — the singleton {4} is stripped.
        assert_eq!(pc.classes(), &[vec![0, 1], vec![2, 3]]);
        assert_eq!(pc.num_classes(), 3);
    }

    #[test]
    fn product_equals_direct_grouping() {
        let r = rel();
        let s = r.schema();
        let pa = StrippedPartition::from_column(&r, s.id("a"));
        let pb = StrippedPartition::from_column(&r, s.id("b"));
        let prod = pa.product(&pb);
        let direct = StrippedPartition::from_attrs(&r, AttrSet::from_ids([s.id("a"), s.id("b")]));
        assert_eq!(prod, direct);
        // Commutativity.
        assert_eq!(pb.product(&pa), prod);
    }

    #[test]
    fn identity_is_product_unit() {
        let r = rel();
        let pa = StrippedPartition::from_column(&r, r.schema().id("a"));
        let id = StrippedPartition::identity(r.n_rows());
        assert_eq!(id.product(&pa), pa);
        assert_eq!(pa.product(&id), pa);
    }

    #[test]
    fn refines_detects_fds() {
        let r = rel();
        let s = r.schema();
        let pa = StrippedPartition::from_column(&r, s.id("a"));
        let pb = StrippedPartition::from_column(&r, s.id("b"));
        let pab = pa.product(&pb);
        // a → b does not hold (x maps to p and q).
        assert!(!pa.refines(&pab));
        // b → a does not hold (q maps to x and y).
        assert!(!pb.refines(&pab));
        let pc = StrippedPartition::from_column(&r, s.id("c"));
        let pcb = pc.product(&pb);
        // c → b holds: 1→p, 2→q, 3→q.
        assert!(pc.refines(&pcb));
    }

    #[test]
    fn g3_counts_minimum_removals() {
        let r = rel();
        let s = r.schema();
        let pa = StrippedPartition::from_column(&r, s.id("a"));
        let pb = StrippedPartition::from_column(&r, s.id("b"));
        // a → b: class {0,1,2} has b-values p,p,q → remove 1.
        //         class {3,4} has q,q → remove 0.
        assert_eq!(pa.g3_violations(&pb), 1);
        assert!((pa.g3_error(&pb) - 0.2).abs() < 1e-12);
        // Exact FD has zero error.
        let pc = StrippedPartition::from_column(&r, s.id("c"));
        assert_eq!(pc.g3_violations(&pb), 0);
    }

    #[test]
    fn g3_with_rhs_singletons() {
        // X has one class of 3 rows; RHS values are all distinct, so the
        // best we can keep is one row: 2 violations.
        let labels_x = ["g", "g", "g"];
        let labels_y = [1, 2, 3];
        let px = StrippedPartition::from_labels(&labels_x);
        let py = StrippedPartition::from_labels(&labels_y);
        assert_eq!(px.g3_violations(&py), 2);
    }

    #[test]
    fn error_measure() {
        let r = rel();
        let pa = StrippedPartition::from_column(&r, r.schema().id("a"));
        // ‖π‖ = 5, |π| = 2 → error 3: removing 3 rows makes `a` a key.
        assert_eq!(pa.error(), 3);
        let super_key = StrippedPartition::from_attrs(&r, r.all_attrs());
        // {a,b,c} is not a key: rows 0 and 1 are full duplicates.
        assert_eq!(super_key.error(), 1);
    }

    #[test]
    fn product_scratch_reuse_matches_fresh_products() {
        // One scratch across many products of different shapes and row
        // counts must give bit-identical results to fresh computations.
        let r = rel();
        let s = r.schema();
        let pa = StrippedPartition::from_column(&r, s.id("a"));
        let pb = StrippedPartition::from_column(&r, s.id("b"));
        let pc = StrippedPartition::from_column(&r, s.id("c"));
        let id5 = StrippedPartition::identity(r.n_rows());
        let tiny = StrippedPartition::from_labels(&["x", "x", "y"]);
        let tiny2 = StrippedPartition::from_labels(&[1, 2, 2]);
        let mut scratch = ProductScratch::new();
        for (x, y) in [
            (&pa, &pb),
            (&pb, &pa),
            (&pa, &pc),
            (&pc, &pb),
            (&id5, &pa),
            (&tiny, &tiny2),
            (&tiny2, &tiny),
            (&pa, &pa),
        ] {
            assert_eq!(x.product_with(y, &mut scratch), x.product(y));
        }
    }

    #[test]
    fn product_with_column_matches_probe_product() {
        let r = rel();
        let s = r.schema();
        let mut scratch = ProductScratch::new();
        for (x, a) in [
            ("a", "b"),
            ("b", "a"),
            ("a", "c"),
            ("c", "b"),
            ("b", "c"),
            ("a", "a"),
        ] {
            let px = StrippedPartition::from_column(&r, s.id(x));
            let pa = StrippedPartition::from_column(&r, s.id(a));
            let radix = px
                .product_with_column(r.col(s.id(a)), &mut scratch)
                .expect("tiny dictionaries always take the radix path");
            assert_eq!(radix, px.product(&pa), "radix product mismatch {x}·{a}");
        }
        // The identity partition splits into π_a directly.
        let id = StrippedPartition::identity(r.n_rows());
        let pa = StrippedPartition::from_column(&r, s.id("a"));
        assert_eq!(
            id.product_with_column(r.col(s.id("a")), &mut scratch),
            Some(pa)
        );
    }

    #[test]
    fn product_with_attr_falls_back_past_the_radix_gate() {
        let r = rel();
        let (a, c) = (r.schema().id("a"), r.schema().id("c"));
        let pa = StrippedPartition::from_column(&r, a);
        let pc = StrippedPartition::from_column(&r, c);
        let ac = AttrSet::from_ids([a, c]);
        let mut scratch = ProductScratch::new();
        let (p, radix) = pa.product_with_attr(r.col(c), &mut scratch, &pc);
        assert!(radix, "tiny dictionaries take the radix kernel");
        assert_eq!(p, StrippedPartition::from_attrs(&r, ac));
        // Orphaned dictionary entries widen `c` past both radix gates
        // (the product's `4·covered + 1024` and from_attrs' `4·n + 4096`)
        // without changing a single cell.
        let mut wide = rel();
        let kept = wide.value(0, c).clone();
        for i in 0..5000 {
            wide.set_value(0, c, crate::Value::Str(format!("orphan {i}")));
        }
        wide.set_value(0, c, kept);
        assert_eq!(wide, r, "orphans leave the cells untouched");
        let (q, radix) = pa.product_with_attr(wide.col(c), &mut scratch, &pc);
        assert!(
            !radix,
            "a dictionary past the radix gates takes the probe table"
        );
        assert_eq!(q, p);
        assert_eq!(q, StrippedPartition::from_attrs(&wide, ac));
    }

    #[test]
    fn radix_from_attrs_matches_hash_grouping() {
        let r = rel();
        let s = r.schema();
        for set in [
            AttrSet::from_ids([s.id("a"), s.id("b")]),
            AttrSet::from_ids([s.id("a"), s.id("c")]),
            AttrSet::from_ids([s.id("a"), s.id("b"), s.id("c")]),
        ] {
            let radix = StrippedPartition::from_codes_radix(&r, set).expect("domain fits");
            let hash = StrippedPartition::from_groups(r.group_by(set).into_values(), r.n_rows());
            assert_eq!(radix, hash, "from_attrs strategies disagree on {set:?}");
        }
    }

    #[test]
    fn empty_relation_edge_cases() {
        let p = StrippedPartition::identity(0);
        assert_eq!(p.num_classes(), 0);
        assert_eq!(p.error(), 0);
        assert_eq!(p.g3_error(&StrippedPartition::identity(0)), 0.0);
    }
}
