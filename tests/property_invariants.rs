//! Property-based invariants over randomly generated relations: measure
//! bounds, family-tree embedding laws, discovery soundness, partition
//! algebra — the "does the theory hold off the happy path" suite.
//!
//! Runs seeded deterministic case loops (see `common`) instead of proptest
//! so the suite works with no external dev-dependencies.

mod common;

use common::{numeric_relation, small_relation, CASES};
use deptree::core::*;
use deptree::relation::{AttrId, AttrSet, ProductScratch, Relation, StrippedPartition};
use deptree::synth::Rng;

/// A random single-attr→single-attr FD for `r`.
fn fd_for(r: &Relation, lhs: usize, rhs: usize) -> Fd {
    let n = r.n_attrs();
    Fd::new(
        r.schema(),
        AttrSet::single(AttrId(lhs % n)),
        AttrSet::single(AttrId(rhs % n)),
    )
}

fn cases(base: u64) -> impl Iterator<Item = (Rng, u64)> {
    (0..CASES).map(move |i| (Rng::seed_from_u64(base.wrapping_mul(1000) + i), i))
}

/// A random (possibly empty) attribute subset of `r`.
fn random_set(rng: &mut Rng, r: &Relation) -> AttrSet {
    AttrSet::from_bits(rng.random_range(0..(1u64 << r.n_attrs())))
}

/// `π_X` the way TANE builds its lattice levels: `π_{X∖{a}} · π_a` with
/// `a = max(X)`, from the singletons up, each product on the kernel
/// `product_with_attr` picks.
fn level_chain(r: &Relation, set: AttrSet) -> StrippedPartition {
    let mut ids = set.iter();
    let Some(first) = ids.next() else {
        return StrippedPartition::identity(r.n_rows());
    };
    let mut scratch = ProductScratch::new();
    ids.fold(StrippedPartition::from_column(r, first), |left, a| {
        let single = StrippedPartition::from_column(r, a);
        left.product_with_attr(r.col(a), &mut scratch, &single).0
    })
}

#[test]
fn measures_are_bounded() {
    for (mut rng, case) in cases(1) {
        let r = small_relation(&mut rng);
        let (l, h) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
        let fd = fd_for(&r, l, h);
        let g3 = fd.g3(&r);
        assert!((0.0..=1.0).contains(&g3), "case {case}: g3 {g3}");
        let sfd = Sfd::from_fd(fd.clone());
        let s = sfd.strength(&r);
        assert!(s > 0.0 && s <= 1.0, "case {case}: strength {s}");
        let pfd = Pfd::from_fd(fd.clone());
        let p = pfd.probability(&r);
        assert!((0.0..=1.0).contains(&p), "case {case}: probability {p}");
    }
}

/// The statistical embeddings are exact at their degenerate points:
/// FD ⇔ SFD(1) ⇔ PFD(1) ⇔ AFD(0) ⇔ NUD(1) ⇔ CFD(no constants).
#[test]
fn fd_embeddings_agree() {
    for (mut rng, case) in cases(2) {
        let r = small_relation(&mut rng);
        let (l, h) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
        let fd = fd_for(&r, l, h);
        let expected = fd.holds(&r);
        assert_eq!(Sfd::from_fd(fd.clone()).holds(&r), expected, "case {case}");
        assert_eq!(Pfd::from_fd(fd.clone()).holds(&r), expected, "case {case}");
        assert_eq!(Afd::from_fd(fd.clone()).holds(&r), expected, "case {case}");
        assert_eq!(
            Nud::from_fd(r.schema(), &fd).holds(&r),
            expected,
            "case {case}"
        );
        assert_eq!(
            Cfd::from_fd(r.schema(), &fd).holds(&r),
            expected,
            "case {case}"
        );
        assert_eq!(
            Mfd::from_fd(r.schema(), &fd).holds(&r),
            expected,
            "case {case}"
        );
        assert_eq!(
            Md::from_fd(r.schema(), &fd).holds(&r),
            expected,
            "case {case}"
        );
        assert_eq!(
            Ffd::from_fd(r.schema(), &fd).holds(&r),
            expected,
            "case {case}"
        );
        // FD ⇒ MVD (one-directional).
        if expected {
            assert!(Mvd::from_fd(r.schema(), &fd).holds(&r), "case {case}");
        }
    }
}

/// `holds ⇔ violations().is_empty()` for the exact notations.
#[test]
fn holds_iff_no_violations() {
    for (mut rng, case) in cases(3) {
        let r = small_relation(&mut rng);
        let (l, h) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
        let fd = fd_for(&r, l, h);
        assert_eq!(fd.holds(&r), fd.violations(&r).is_empty(), "case {case}");
        let mvd = Mvd::from_fd(r.schema(), &fd);
        assert_eq!(mvd.holds(&r), mvd.violations(&r).is_empty(), "case {case}");
        let md = Md::from_fd(r.schema(), &fd);
        assert_eq!(md.holds(&r), md.violations(&r).is_empty(), "case {case}");
    }
}

/// Partition algebra: product is commutative, idempotent, matches direct
/// grouping, and num_classes is monotone under refinement.
#[test]
fn partition_laws() {
    for (mut rng, case) in cases(4) {
        let r = small_relation(&mut rng);
        let a = AttrId(0);
        let b = AttrId(1);
        let pa = StrippedPartition::from_column(&r, a);
        let pb = StrippedPartition::from_column(&r, b);
        let prod = pa.product(&pb);
        assert_eq!(prod, pb.product(&pa), "case {case}");
        assert_eq!(
            prod,
            StrippedPartition::from_attrs(&r, AttrSet::from_ids([a, b])),
            "case {case}"
        );
        assert_eq!(pa.product(&pa), pa, "case {case}");
        assert!(prod.num_classes() >= pa.num_classes(), "case {case}");
        assert!(prod.error() <= pa.error(), "case {case}");
    }
}

/// TANE and FastFD return identical minimal covers on random data.
#[test]
fn tane_equals_fastfd() {
    use deptree::discovery::{fastfd, tane};
    for (mut rng, case) in cases(5) {
        let r = small_relation(&mut rng);
        let t = tane::discover(
            &r,
            &tane::TaneConfig {
                max_lhs: r.n_attrs(),
                max_error: 0.0,
            },
        );
        let f = fastfd::discover(&r);
        let ts: std::collections::BTreeSet<String> =
            t.fds.iter().map(|fd| fd.to_string()).collect();
        let fs: std::collections::BTreeSet<String> =
            f.fds.iter().map(|fd| fd.to_string()).collect();
        assert_eq!(ts, fs, "case {case}");
    }
}

/// Discovery soundness: everything TANE returns holds and is minimal.
#[test]
fn tane_sound_and_minimal() {
    use deptree::discovery::tane;
    for (mut rng, case) in cases(6) {
        let r = small_relation(&mut rng);
        let t = tane::discover(
            &r,
            &tane::TaneConfig {
                max_lhs: r.n_attrs(),
                max_error: 0.0,
            },
        );
        for fd in &t.fds {
            assert!(fd.holds(&r), "case {case}: {fd} does not hold");
            for a in fd.lhs().iter() {
                let smaller = Fd::new(r.schema(), fd.lhs().remove(a), fd.rhs());
                assert!(!smaller.holds(&r), "case {case}: {fd} not minimal");
            }
        }
    }
}

/// FD repair converges and reaches consistency.
#[test]
fn fd_repair_reaches_fixpoint() {
    use deptree::quality::repair;
    for (mut rng, case) in cases(7) {
        let r = small_relation(&mut rng);
        let (l, h) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
        let fd = fd_for(&r, l, h);
        if fd.is_trivial() {
            continue;
        }
        let result = repair::repair_fds(&r, std::slice::from_ref(&fd), 20);
        assert!(fd.holds(&result.relation), "case {case}");
    }
}

/// Deletion repair always reaches consistency and never deletes more rows
/// than the relation has.
#[test]
fn deletion_repair_terminates() {
    use deptree::quality::repair;
    for (mut rng, case) in cases(8) {
        let r = small_relation(&mut rng);
        let (l, h) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
        let fd = fd_for(&r, l, h);
        let rules: Vec<Box<dyn Dependency>> = vec![Box::new(fd)];
        let result = repair::deletion_repair(&r, &rules);
        assert!(rules[0].holds(&result.relation), "case {case}");
        assert!(result.deleted.len() <= r.n_rows(), "case {case}");
    }
}

/// The g3 interpretation: g3·n is the *minimum* number of deletions, so
/// any repair that reaches consistency deletes at least that many rows.
#[test]
fn g3_lower_bounds_deletion_repair() {
    use deptree::quality::repair;
    for (mut rng, case) in cases(9) {
        let r = small_relation(&mut rng);
        if r.n_rows() == 0 {
            continue;
        }
        let (l, h) = (rng.random_range(0..4usize), rng.random_range(0..4usize));
        let fd = fd_for(&r, l, h);
        let optimal = (fd.g3(&r) * r.n_rows() as f64).round() as usize;
        let rules: Vec<Box<dyn Dependency>> = vec![Box::new(fd)];
        let result = repair::deletion_repair(&r, &rules);
        assert!(result.deleted.len() >= optimal, "case {case}");
        assert!(result.deleted.len() <= r.n_rows(), "case {case}");
    }
}

/// Order-notation properties over random numeric relations.
mod numeric {
    use super::*;

    #[test]
    fn od_dc_equivalence() {
        for (mut rng, case) in cases(10) {
            let r = numeric_relation(&mut rng);
            let s = r.schema();
            let dir = |i: u8| {
                if i == 0 {
                    Direction::Asc
                } else {
                    Direction::Desc
                }
            };
            let od = Od::new(
                s,
                vec![(AttrId(0), dir(rng.random_range(0..2u8)))],
                vec![(AttrId(1), dir(rng.random_range(0..2u8)))],
            );
            let dcs = Dc::from_od(s, &od);
            assert_eq!(od.holds(&r), dcs.iter().all(|d| d.holds(&r)), "case {case}");
        }
    }

    /// OD ⇒ SD under the from_od embedding.
    #[test]
    fn od_implies_sd() {
        for (mut rng, case) in cases(11) {
            let r = numeric_relation(&mut rng);
            let s = r.schema();
            let dir = if rng.random_range(0..2u8) == 0 {
                Direction::Asc
            } else {
                Direction::Desc
            };
            let od = Od::new(s, vec![(AttrId(0), Direction::Asc)], vec![(AttrId(1), dir)]);
            if let Some(sd) = Sd::from_od(s, &od) {
                if od.holds(&r) {
                    assert!(sd.holds(&r), "case {case}");
                }
            }
        }
    }

    /// The single-atom OD check (counting-sorted ranks, one pass for both
    /// RHS directions) agrees with the pair scan.
    #[test]
    fn od_validator_correct() {
        for (mut rng, case) in cases(12) {
            let r = numeric_relation(&mut rng);
            let s = r.schema();
            let order = r.rows_by_num_rank(AttrId(0));
            let verdicts = Od::single_atom_verdicts(&r, &order, AttrId(0), AttrId(1));
            for da in [Direction::Asc, Direction::Desc] {
                for db in [Direction::Asc, Direction::Desc] {
                    let od = Od::new(s, vec![(AttrId(0), da)], vec![(AttrId(1), db)]);
                    assert_eq!(
                        verdicts.holds(da, db),
                        od.holds_pairwise(&r),
                        "case {case}: {od}"
                    );
                }
            }
        }
    }

    /// Sequence repair under an SD always reaches consistency.
    #[test]
    fn sequence_repair_total() {
        use deptree::quality::repair;
        for (mut rng, case) in cases(13) {
            let r = numeric_relation(&mut rng);
            let s = r.schema();
            let lo = rng.random_range(-5..0i64);
            let width = rng.random_range(0..8i64);
            let sd = Sd::new(
                s,
                AttrId(0),
                AttrId(1),
                Interval::new(lo as f64, (lo + width) as f64),
            );
            let (repaired, _) = repair::repair_sequence(&r, &sd);
            assert!(sd.holds(&repaired), "case {case}");
        }
    }

    /// FASTDC soundness: every discovered DC holds.
    #[test]
    fn fastdc_sound() {
        use deptree::discovery::dc;
        for (mut rng, case) in cases(14).take(96) {
            let r = numeric_relation(&mut rng);
            let result = dc::discover(
                &r,
                &dc::DcConfig {
                    max_predicates: 2,
                    approx_epsilon: 0.0,
                },
            );
            for rule in &result.dcs {
                assert!(rule.holds(&r), "case {case}: {rule} fails");
            }
        }
    }
}

/// Observability is observation-only: attaching a tracer (which also
/// exercises the global metrics registry on every code path) must change
/// no output byte, at any thread count.
mod observability_invariance {
    use super::*;
    use deptree::core::engine::obs::Tracer;
    use deptree::core::engine::Exec;
    use deptree::discovery::tane::{self, TaneConfig};
    use deptree::serve::tasks::{self, ProfileOpts};
    use std::sync::Arc;

    /// TANE's full rendered FD list is identical across
    /// {1, 8} threads × {untraced, traced} — four runs, one answer.
    #[test]
    fn tracing_changes_no_discovery_output() {
        for (mut rng, case) in cases(40).take(24) {
            let r = small_relation(&mut rng);
            let cfg = TaneConfig {
                max_lhs: r.n_attrs(),
                max_error: 0.0,
            };
            let mut renders: Vec<Vec<String>> = Vec::new();
            for threads in [1usize, 8] {
                for traced in [false, true] {
                    let mut exec = Exec::unbounded().with_threads(threads);
                    let tracer = traced.then(|| Arc::new(Tracer::new()));
                    if let Some(t) = &tracer {
                        exec = exec.with_tracer(Arc::clone(t));
                    }
                    let started = std::time::Instant::now();
                    let out = tane::discover_bounded(&r, &cfg, &exec);
                    let wall_us = started.elapsed().as_micros() as u64;
                    renders.push(out.result.fds.iter().map(|f| f.to_string()).collect());
                    if let Some(t) = tracer {
                        let spans = t.spans();
                        assert!(
                            !spans.is_empty(),
                            "case {case}: traced run recorded nothing"
                        );
                        // Every span fits inside the run's wall time, and
                        // the top-level phases together do too (products
                        // are nested inside their level, so they are
                        // excluded from the sum).
                        let mut phase_sum = 0u64;
                        for s in &spans {
                            assert!(
                                s.dur_us <= wall_us + 1_000,
                                "case {case}: span {} ({}us) exceeds wall time {}us",
                                s.name,
                                s.dur_us,
                                wall_us
                            );
                            if s.name == "tane.base_partitions" || s.name == "tane.level" {
                                phase_sum += s.dur_us;
                            }
                        }
                        assert!(
                            phase_sum <= wall_us + 1_000,
                            "case {case}: phase durations ({phase_sum}us) exceed wall time ({wall_us}us)"
                        );
                    }
                }
            }
            assert!(
                renders.windows(2).all(|w| w[0] == w[1]),
                "case {case}: output differs across thread counts / tracing"
            );
        }
    }

    /// The end-to-end profile report (the bytes the CLI prints and the
    /// server returns) is byte-identical with and without a tracer.
    #[test]
    fn tracing_changes_no_profile_report_bytes() {
        for (mut rng, case) in cases(41).take(8) {
            let r = small_relation(&mut rng);
            let opts = ProfileOpts {
                max_lhs: 2,
                error: 0.0,
            };
            let mut texts = Vec::new();
            for threads in [1usize, 8] {
                for traced in [false, true] {
                    let mut exec = Exec::unbounded().with_threads(threads);
                    if traced {
                        exec = exec.with_tracer(Arc::new(Tracer::new()));
                    }
                    texts.push(tasks::profile(&r, &opts, &exec).text);
                }
            }
            assert!(
                texts.windows(2).all(|w| w[0] == w[1]),
                "case {case}: profile report differs across thread counts / tracing"
            );
        }
    }
}

/// Candidate-generation invariants for the blocking/similarity indexes:
/// over random (including adversarial mixed-type) relations and random
/// indexable predicates, the candidate set must contain every truly
/// matching pair, stay inside the i<j pair universe without duplicates,
/// be exactly the matching set when the index claims exactness, and agree
/// with its own counting and block-decomposed forms.
mod pairgen_properties {
    use super::*;
    use common::arbitrary_relation;
    use deptree::core::pairs::{self, MetricAtom};
    use deptree::metrics::Metric;
    use deptree::relation::ValueType;
    use std::collections::BTreeSet;

    /// 1–2 atoms on distinct attrs with the type's default metric and a
    /// threshold drawn from a spread that hits the degenerate points:
    /// 0 (pure equality), small bands/edit radii, and — on categorical
    /// attrs — threshold 1, which maps to the conservative full-scan
    /// fallback (`PairSpec::All`).
    fn random_atoms(rng: &mut Rng, r: &Relation) -> Vec<MetricAtom> {
        let n_atoms = rng.random_range(1..=r.n_attrs().min(2));
        let mut ids: Vec<AttrId> = r.schema().ids().collect();
        for k in 0..n_atoms {
            let pick = rng.random_range(k..ids.len());
            ids.swap(k, pick);
        }
        ids.truncate(n_atoms);
        ids.iter()
            .map(|&a| {
                let t = match r.schema().ty(a) {
                    ValueType::Numeric => [0.0, 0.5, 1.0, 3.0, 10.0][rng.random_range(0..5usize)],
                    ValueType::Text => [0.0, 1.0, 2.0, 4.0][rng.random_range(0..4usize)],
                    _ => [0.0, 1.0][rng.random_range(0..2usize)],
                };
                (a, Metric::default_for(r.schema().ty(a)), t)
            })
            .collect()
    }

    #[test]
    fn candidate_set_complete_and_sane() {
        for (mut rng, case) in cases(31) {
            let r = arbitrary_relation(&mut rng);
            let n = r.n_rows();
            let atoms = random_atoms(&mut rng, &r);
            let md = Md::new(r.schema(), atoms.clone(), AttrSet::single(AttrId(0)));
            let mut truth = BTreeSet::new();
            for i in 0..n {
                for j in i + 1..n {
                    if md.lhs_similar(&r, i, j) {
                        truth.insert((i, j));
                    }
                }
            }
            let idx = pairs::best_index(&r, &atoms);
            let mut cands = Vec::new();
            assert!(
                idx.for_each_candidate(|i, j| {
                    cands.push((i, j));
                    true
                }),
                "case {case}: uninterrupted enumeration must report completion"
            );
            let cand_set: BTreeSet<(usize, usize)> = cands.iter().copied().collect();
            assert_eq!(
                cand_set.len(),
                cands.len(),
                "case {case}: duplicate candidates"
            );
            assert!(
                cands.iter().all(|&(i, j)| i < j && j < n),
                "case {case}: candidate outside the i<j pair universe"
            );
            assert_eq!(
                idx.n_candidates(),
                cands.len() as u64,
                "case {case}: n_candidates disagrees with enumeration"
            );
            assert!(
                truth.iter().all(|p| cand_set.contains(p)),
                "case {case}: candidate set missed a matching pair (incomplete blocking)"
            );
            // Exactness is per-atom: it promises candidates equal the match
            // set only when the whole conjunction is that one atom.
            if idx.is_exact() && atoms.len() == 1 {
                assert_eq!(
                    cand_set, truth,
                    "case {case}: exact index must equal the matching set"
                );
            }
            // The fixed block decomposition enumerates the same sequence.
            let mut by_block = Vec::new();
            for b in 0..idx.n_blocks() {
                let before = by_block.len() as u64;
                idx.for_each_in_block(b, &mut |i, j| {
                    by_block.push((i, j));
                    true
                });
                assert_eq!(
                    by_block.len() as u64 - before,
                    idx.block_pairs(b),
                    "case {case}: block {b} size mismatch"
                );
            }
            assert_eq!(
                by_block, cands,
                "case {case}: block order differs from serial order"
            );
            // The closed-form count, when claimed, is the true match count.
            if let Some(c) = pairs::count_matching(&r, &atoms) {
                assert_eq!(
                    c,
                    truth.len() as u64,
                    "case {case}: closed-form count wrong"
                );
            }
            // Early stop is honored and reported.
            if !cands.is_empty() {
                let mut seen = 0usize;
                let done = idx.for_each_candidate(|_, _| {
                    seen += 1;
                    false
                });
                assert!(!done && seen == 1, "case {case}: early stop not honored");
            }
        }
    }
}

/// Columnar-substrate invariants: the dictionary-encoded storage must be a
/// lossless, canonical, order-faithful re-representation of the rows it
/// was built from — the laws the row↔columnar differential harness
/// (`columnar_equivalence`) leans on without restating them per notation.
mod columnar {
    use super::*;
    use common::{arbitrary_relation, mixed_relation};
    use deptree::relation::{parse_csv_lossy, to_csv, Column, RelationBuilder, Value, ValueType};
    use std::collections::BTreeSet;

    /// Reading every row back out and rebuilding a relation from those rows
    /// reproduces the original exactly — dictionaries, null bitmaps and all
    /// lazy views rebuilt from scratch. Includes NaN / ±inf / −0.0 floats
    /// and nulls, which a lossy representation would conflate.
    #[test]
    fn row_columnar_round_trip_lossless() {
        for (mut rng, case) in cases(50) {
            let r = arbitrary_relation(&mut rng);
            let rows: Vec<Vec<Value>> = (0..r.n_rows()).map(|i| r.row(i)).collect();
            let rebuilt =
                Relation::from_rows(r.schema().clone(), rows).expect("round trip rebuild");
            assert_eq!(r, rebuilt, "case {case}: round trip changed the relation");
            rebuilt.debug_validate();
            for a in r.schema().ids() {
                let col = r.col(a);
                for i in 0..r.n_rows() {
                    assert_eq!(r.value(i, a), col.value(i), "case {case}: accessor drift");
                    assert_eq!(
                        col.is_null(i),
                        col.value(i).is_null(),
                        "case {case}: null bitmap disagrees with cell"
                    );
                }
            }
        }
        // Non-finite and signed-zero floats survive bit-exactly.
        let weird = RelationBuilder::new()
            .attr("f", ValueType::Numeric)
            .attr("g", ValueType::Numeric)
            .row(vec![Value::float(f64::NAN), Value::float(0.0)])
            .row(vec![Value::float(f64::INFINITY), Value::float(-0.0)])
            .row(vec![Value::Null, Value::float(f64::NEG_INFINITY)])
            .build()
            .expect("consistent arity");
        let rows: Vec<Vec<Value>> = (0..weird.n_rows()).map(|i| weird.row(i)).collect();
        let back = Relation::from_rows(weird.schema().clone(), rows).expect("rebuild");
        assert_eq!(weird, back, "non-finite floats must round-trip bit-exactly");
        assert_eq!(back.value(0, AttrId(0)), &Value::float(f64::NAN));
        assert_ne!(
            back.col(AttrId(1)).code(0),
            back.col(AttrId(1)).code(1),
            "0.0 and -0.0 are distinct dictionary entries"
        );
        back.debug_validate();
    }

    /// CSV round trip through the interning lossy parser: `to_csv` output
    /// parses back to the identical relation, and CRLF line endings are
    /// salvaged without leaking a stray `\r` into any cell.
    #[test]
    fn csv_round_trip_and_crlf_salvage() {
        for (mut rng, case) in cases(51) {
            let r = mixed_relation(&mut rng);
            let csv = to_csv(&r);
            let types: Vec<ValueType> = r.schema().ids().map(|a| r.schema().ty(a)).collect();
            let lossy = parse_csv_lossy(&csv, &types).expect("round trip parse");
            assert_eq!(lossy.relation, r, "case {case}: CSV round trip drifted");
            lossy.relation.debug_validate();
            let crlf = csv.replace('\n', "\r\n");
            let salvaged = parse_csv_lossy(&crlf, &types).expect("CRLF parse");
            assert_eq!(
                salvaged.relation, r,
                "case {case}: CRLF endings changed cell values"
            );
            salvaged.relation.debug_validate();
        }
    }

    /// Dictionary codes of a freshly built column are *dense* (every code
    /// addresses the dictionary and every dictionary entry is referenced by
    /// at least one row — no orphans before mutation) and *stable*:
    /// re-encoding the same cells in the same order reproduces codes and
    /// dictionary exactly, which is what makes code-vector comparison a
    /// valid equality fast path.
    #[test]
    fn dict_codes_dense_and_stable_under_reencode() {
        for (mut rng, case) in cases(52) {
            let r = arbitrary_relation(&mut rng);
            for a in r.schema().ids() {
                let col = r.col(a);
                let used: BTreeSet<u32> = col.codes().iter().copied().collect();
                assert!(
                    col.codes().iter().all(|&c| (c as usize) < col.dict().len()),
                    "case {case}: dangling code"
                );
                assert_eq!(
                    used.len(),
                    col.dict().len(),
                    "case {case}: fresh column has orphaned dictionary entries"
                );
                let mut fresh = Column::new();
                for i in 0..col.len() {
                    fresh.push(col.value(i).clone());
                }
                assert_eq!(
                    fresh.codes(),
                    col.codes(),
                    "case {case}: re-encode produced different codes"
                );
                assert_eq!(
                    fresh.dict(),
                    col.dict(),
                    "case {case}: re-encode produced a different dictionary"
                );
                fresh.debug_validate();
            }
        }
    }

    /// Random cell overwrites orphan dictionary entries and invalidate lazy
    /// views: the relation must stay valid, its footprint estimate must
    /// not shrink (mutation only grows dictionaries; no lazy views were
    /// built to shrink), and every partition — direct and by TANE's
    /// product chain — must equal the one of a freshly encoded copy.
    #[test]
    fn mutated_relations_stay_valid_and_partition_like_fresh() {
        for (mut rng, case) in cases(23) {
            let mut r = arbitrary_relation(&mut rng);
            if r.n_rows() == 0 {
                continue;
            }
            let before = r.approx_bytes();
            for _ in 0..6 {
                let row = rng.random_range(0..r.n_rows());
                let attr = AttrId(rng.random_range(0..r.n_attrs()));
                let v = match rng.random_range(0..3u8) {
                    0 => Value::Null,
                    1 => Value::int(rng.random_range(-3..3i64)),
                    _ => Value::str(format!("m{}", rng.random_range(0..3u8))),
                };
                r.set_value(row, attr, v);
            }
            r.debug_validate();
            assert!(
                r.approx_bytes() >= before,
                "case {case}: mutation shrank the footprint estimate"
            );
            let all_rows: Vec<usize> = (0..r.n_rows()).collect();
            let fresh = r.select_rows(&all_rows);
            for step in 0..40 {
                let set = random_set(&mut rng, &r);
                let want = StrippedPartition::from_attrs(&fresh, set);
                assert_eq!(
                    StrippedPartition::from_attrs(&r, set),
                    want,
                    "case {case} step {step}: partition differs from the fresh copy's"
                );
                assert_eq!(
                    level_chain(&r, set),
                    want,
                    "case {case} step {step}: product chain differs from the fresh copy's"
                );
            }
        }
    }

    /// When cells arrive in sorted order, first-appearance interning makes
    /// the code sequence non-decreasing and every code equal to its own
    /// structural rank — sorted input degenerates the dictionary into an
    /// order-preserving encoding.
    #[test]
    fn codes_order_preserving_for_sorted_input() {
        for (mut rng, case) in cases(53) {
            let r = arbitrary_relation(&mut rng);
            for a in r.schema().ids() {
                let mut vals: Vec<Value> =
                    (0..r.n_rows()).map(|i| r.col(a).value(i).clone()).collect();
                vals.sort();
                let mut c = Column::new();
                for v in vals {
                    c.push(v);
                }
                assert!(
                    c.codes().windows(2).all(|w| w[0] <= w[1]),
                    "case {case}: sorted input produced non-monotone codes"
                );
                let ix = c.index();
                assert!(
                    (0..c.dict().len() as u32).all(|code| ix.rank(code) == code),
                    "case {case}: code ≠ rank on sorted input"
                );
            }
        }
    }

    /// The lazily built sorted-run index is exactly a naive argsort:
    /// structural ranks enumerate the dictionary in `Value`-order, numeric
    /// ranks are order-isomorphic to `numeric_cmp` with ties collapsed, and
    /// sorting rows by rank reproduces a stable argsort by value — over
    /// adversarial columns including NaN, ±inf, signed zeros and Int/Float
    /// numeric ties.
    #[test]
    fn sorted_run_index_matches_naive_argsort() {
        for (mut rng, case) in cases(54) {
            let r = arbitrary_relation(&mut rng);
            for a in r.schema().ids() {
                check_index_against_argsort(r.col(a), case);
            }
        }
        let mut c = Column::new();
        for v in [
            Value::float(f64::NAN),
            Value::float(f64::NEG_INFINITY),
            Value::int(3),
            Value::float(3.0),
            Value::Null,
            Value::float(f64::INFINITY),
            Value::float(-0.0),
            Value::float(0.0),
            Value::str(""),
            Value::int(3),
        ] {
            c.push(v);
        }
        check_index_against_argsort(&c, u64::MAX);
    }

    fn check_index_against_argsort(c: &Column, case: u64) {
        let ix = c.index();
        let d = c.dict();
        let mut order: Vec<u32> = (0..d.len() as u32).collect();
        order.sort_by(|&x, &y| d[x as usize].cmp(&d[y as usize]));
        for (pos, &code) in order.iter().enumerate() {
            assert_eq!(
                ix.rank(code),
                pos as u32,
                "case {case}: structural rank differs from argsort position"
            );
        }
        for &x in &order {
            for &y in &order {
                assert_eq!(
                    ix.num_rank(x).cmp(&ix.num_rank(y)),
                    d[x as usize].numeric_cmp(&d[y as usize]),
                    "case {case}: num_rank not order-isomorphic to numeric_cmp"
                );
            }
        }
        let mut by_rank: Vec<usize> = (0..c.len()).collect();
        by_rank.sort_by_key(|&i| (ix.rank(c.code(i)), i));
        let mut by_value: Vec<usize> = (0..c.len()).collect();
        by_value.sort_by(|&i, &j| c.value(i).cmp(c.value(j)).then(i.cmp(&j)));
        assert_eq!(
            by_rank, by_value,
            "case {case}: rank argsort differs from value argsort"
        );
    }
}

mod kernels {
    use super::*;
    use common::arbitrary_relation;
    use deptree::relation::pairgen::{band_pairs_sorted, PairIndex, PairSpec};

    /// The counting-sort (radix) partition product agrees with the
    /// hash-probe product and with a from-scratch computation on every
    /// attribute pair — including null classes and mixed-type columns from
    /// the adversarial generator. A count of radix products confirms the
    /// radix path was actually exercised, not silently skipped.
    #[test]
    fn radix_product_equals_hash_product() {
        let mut radix_taken = 0u64;
        for (mut rng, case) in cases(60) {
            let r = if case % 2 == 0 {
                small_relation(&mut rng)
            } else {
                arbitrary_relation(&mut rng)
            };
            let mut scratch = ProductScratch::new();
            for a in r.schema().ids() {
                let left = StrippedPartition::from_column(&r, a);
                for b in r.schema().ids() {
                    if a == b {
                        continue;
                    }
                    let right = StrippedPartition::from_column(&r, b);
                    let hash = left.product_with(&right, &mut scratch);
                    if let Some(radix) = left.product_with_column(r.col(b), &mut scratch) {
                        assert_eq!(
                            radix, hash,
                            "case {case}: radix product differs on ({a:?}, {b:?})"
                        );
                        radix_taken += 1;
                    }
                    let set = AttrSet::single(a).insert(b);
                    assert_eq!(
                        StrippedPartition::from_attrs(&r, set),
                        hash,
                        "case {case}: from_attrs differs on ({a:?}, {b:?})"
                    );
                }
            }
        }
        assert!(radix_taken > 0, "radix path never engaged on tiny domains");
    }

    /// TANE's product chain equals a from-scratch partition on random
    /// attribute subsets, whichever kernel each product takes.
    #[test]
    fn product_chain_equals_fresh_computation() {
        for (mut rng, case) in cases(20) {
            let r = small_relation(&mut rng);
            for _ in 0..12 {
                let set = random_set(&mut rng, &r);
                assert_eq!(
                    level_chain(&r, set),
                    StrippedPartition::from_attrs(&r, set),
                    "case {case}: product chain differs for {set:?}"
                );
            }
        }
    }

    /// The distinct-value q-gram edit index generates exactly the candidate
    /// set of the per-row reference builder: same classes, same links, same
    /// enumeration order — the columnar build only deduplicates *work*,
    /// never candidates.
    #[test]
    fn distinct_gram_index_equals_per_row_reference() {
        for (mut rng, case) in cases(63) {
            let r = arbitrary_relation(&mut rng);
            for a in r.schema().ids() {
                let col = deptree_reference::relation::column(&r, a);
                for k in [0usize, 1, 2] {
                    let fast = PairIndex::build_attr(&r, a, PairSpec::Edit(k));
                    let reference = deptree_reference::pairgen::build(&col, PairSpec::Edit(k));
                    assert_eq!(
                        fast.classes(),
                        &reference.classes[..],
                        "case {case}: classes differ for {a:?} k={k}"
                    );
                    assert_eq!(
                        fast.links(),
                        &reference.links[..],
                        "case {case}: links differ for {a:?} k={k}"
                    );
                    let mut got = Vec::new();
                    fast.for_each_candidate(|i, j| {
                        got.push((i, j));
                        true
                    });
                    assert_eq!(fast.n_candidates(), got.len() as u64, "case {case}");
                    assert_eq!(
                        got,
                        reference.candidates(),
                        "case {case}: candidate enumeration diverged"
                    );
                }
            }
        }
    }

    /// The vectorized band kernel counts exactly the pairs the scalar
    /// definition admits, on random sorted inputs of every size class the
    /// kernel branches on (sub-lane tails, windows past the scalar-fallback
    /// threshold) and on degenerate thresholds.
    #[test]
    fn band_kernel_equals_naive_pair_count() {
        for (mut rng, case) in cases(64) {
            let n = rng.random_range(0..200usize);
            let mut nums: Vec<f64> = (0..n)
                .map(|_| rng.random_range(-400..400i64) as f64 / 8.0)
                .collect();
            nums.sort_by(f64::total_cmp);
            for theta in [0.0, 0.125, 1.0, 7.5, 100.0, -1.0] {
                let mut naive = 0u64;
                for h in 0..n {
                    for j in 0..h {
                        // All inputs are finite, so `≤` is exactly the
                        // negation of the kernel's `>` exclusion test.
                        if nums[h] - nums[j] <= theta {
                            naive += 1;
                        }
                    }
                }
                if theta < 0.0 {
                    naive = 0; // kernel contract: negative θ admits nothing
                }
                assert_eq!(
                    band_pairs_sorted(&nums, theta),
                    naive,
                    "case {case}: band count drifted at n={n} theta={theta}"
                );
            }
            assert_eq!(band_pairs_sorted(&nums, f64::NAN), 0, "case {case}: NaN θ");
        }
    }
}
