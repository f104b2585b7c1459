//! Property tests for the relational substrate: the total order on
//! values, bitset algebra, partition laws and CSV round-trips.
//!
//! Driven by a seeded splitmix64 loop (no external dev-dependencies);
//! a failing case reproduces exactly from its seed.

use deptree_relation::{
    parse_csv, to_csv, AttrId, AttrSet, RelationBuilder, StrippedPartition, Value, ValueType,
};
use std::cmp::Ordering;

struct MiniRng(u64);

impl MiniRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn value(&mut self) -> Value {
        match self.below(4) {
            0 => Value::Null,
            1 => Value::int(self.next() as i64),
            2 => {
                let raw = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
                Value::float((raw - 0.5) * 2e9)
            }
            _ => {
                let len = self.below(7) as usize;
                let s: String = (0..len)
                    .map(|_| (b'a' + self.below(26) as u8) as char)
                    .collect();
                Value::str(s)
            }
        }
    }

    fn string_from(&mut self, pool: &[char], max: usize) -> String {
        let len = self.below(max as u64 + 1) as usize;
        (0..len)
            .map(|_| pool[self.below(pool.len() as u64) as usize])
            .collect()
    }
}

const CASES: u64 = 256;

/// Ord is a total order consistent with Eq (the contract the Int/Float
/// tie-breaking exists to uphold).
#[test]
fn value_order_total_and_consistent() {
    let mut rng = MiniRng(0xA1);
    for case in 0..CASES {
        let a = rng.value();
        let b = rng.value();
        let c = rng.value();
        // Antisymmetry + consistency with Eq.
        assert_eq!(a == b, a.cmp(&b) == Ordering::Equal, "case {case}");
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "case {case}");
        // Transitivity.
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(
                a.cmp(&c),
                Ordering::Greater,
                "case {case}: {a:?} {b:?} {c:?}"
            );
        }
    }
}

/// numeric_cmp agrees with cmp except on cross-representation numeric ties.
#[test]
fn numeric_cmp_refines_cmp() {
    let mut rng = MiniRng(0xB2);
    for case in 0..CASES {
        let a = rng.value();
        let b = rng.value();
        let nc = a.numeric_cmp(&b);
        let sc = a.cmp(&b);
        if nc != Ordering::Equal {
            assert_eq!(nc, sc, "case {case}: {a:?} vs {b:?}");
        }
    }
}

/// AttrSet algebra: De Morgan-ish laws within a fixed universe.
#[test]
fn attrset_laws() {
    let mut rng = MiniRng(0xC3);
    for case in 0..CASES {
        let a = AttrSet::from_bits(rng.below(1 << 16));
        let b = AttrSet::from_bits(rng.below(1 << 16));
        let c = AttrSet::from_bits(rng.below(1 << 16));
        assert_eq!(a.union(b), b.union(a), "case {case}");
        assert_eq!(a.intersect(b), b.intersect(a), "case {case}");
        assert_eq!(
            a.union(b).intersect(c),
            a.intersect(c).union(b.intersect(c)),
            "case {case}"
        );
        assert_eq!(a.difference(b).union(a.intersect(b)), a, "case {case}");
        assert!(a.intersect(b).is_subset(a), "case {case}");
        assert!(a.is_subset(a.union(b)), "case {case}");
        assert_eq!(
            a.len() + b.len(),
            a.union(b).len() + a.intersect(b).len(),
            "case {case}"
        );
        // Iteration round-trips.
        assert_eq!(AttrSet::from_ids(a.iter()), a, "case {case}");
    }
}

/// CSV round-trip: text-typed relations survive serialize → parse.
#[test]
fn csv_round_trip() {
    const X_POOL: [char; 10] = ['a', 'Z', '0', '9', ' ', ',', '"', 'q', 'M', '5'];
    const Y_POOL: [char; 6] = ['a', 'b', 'c', 'x', 'y', 'z'];
    let mut rng = MiniRng(0xD4);
    for case in 0..CASES {
        let n_rows = rng.below(8) as usize;
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Text)
            .attr("y", ValueType::Text);
        for _ in 0..n_rows {
            let x = rng.string_from(&X_POOL, 12);
            let y = rng.string_from(&Y_POOL, 8);
            // Empty strings deserialize as Null; normalize to non-empty.
            let x = if x.is_empty() { "_".to_owned() } else { x };
            let y = if y.is_empty() { "_".to_owned() } else { y };
            b = b.row(vec![Value::str(x), Value::str(y)]);
        }
        let r = b.build().expect("consistent arity");
        let text = to_csv(&r);
        let back = parse_csv(&text, &[ValueType::Text, ValueType::Text]).expect("parses");
        assert_eq!(r, back, "case {case}");
    }
}

/// The groups of `π_X` partition the rows: disjoint, covering, each
/// ascending, in first-row order, and two rows share a group iff their
/// `X`-cells are equal — `2` and `2.0` included, which never are.
#[test]
fn groups_are_a_partition() {
    let mut rng = MiniRng(0xE5);
    for case in 0..CASES {
        let n_rows = 1 + rng.below(19) as usize;
        let mut b = RelationBuilder::new()
            .attr("a", ValueType::Categorical)
            .attr("n", ValueType::Numeric);
        for _ in 0..n_rows {
            let n = match rng.below(3) {
                0 => Value::int(2),
                1 => Value::float(2.0),
                _ => Value::Null,
            };
            b = b.row(vec![Value::str(format!("v{}", rng.below(5))), n]);
        }
        let r = b.build().expect("consistent arity");
        for attrs in [
            AttrSet::single(AttrId(0)),
            AttrSet::single(AttrId(1)),
            AttrSet::from_ids([AttrId(0), AttrId(1)]),
        ] {
            let groups: Vec<Vec<usize>> = StrippedPartition::from_attrs(&r, attrs)
                .into_groups()
                .collect();
            let mut group_of = vec![usize::MAX; r.n_rows()];
            for (g, rows) in groups.iter().enumerate() {
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "case {case}");
                for &row in rows {
                    assert_eq!(group_of[row], usize::MAX, "case {case}: row in two groups");
                    group_of[row] = g;
                }
            }
            assert!(group_of.iter().all(|&g| g != usize::MAX), "case {case}");
            assert!(
                groups.windows(2).all(|w| w[0][0] < w[1][0]),
                "case {case}: groups out of first-row order"
            );
            for i in 0..r.n_rows() {
                for j in 0..r.n_rows() {
                    assert_eq!(
                        group_of[i] == group_of[j],
                        r.project_row(i, attrs) == r.project_row(j, attrs),
                        "case {case}: rows {i}, {j} on {attrs:?}"
                    );
                }
            }
        }
    }
}
