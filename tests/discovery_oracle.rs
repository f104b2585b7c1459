//! Differential oracle for FD/AFD discovery.
//!
//! A brute-force oracle enumerates *every* candidate `X → A` with
//! `|X| ≤ 3` and decides it directly from stripped partitions — no
//! lattice pruning, no candidate propagation, nothing shared with the
//! miners under test. TANE and FastFD must reproduce the oracle's minimal
//! cover exactly, serially and at every thread count, on the paper's
//! built-in tables and on seeded synthetic relations.

mod common;

use deptree::core::engine::{Budget, Exec};
use deptree::core::{CmpOp, Dependency, Direction, Fd, Md, Ned, NedAtom, Od, Operand, Predicate};
use deptree::discovery::{cover, dc, dd, fastfd, md, ned, od, tane};
use deptree::metrics::Metric;
use deptree::quality::dedup;
use deptree::relation::examples::{hotels_r1, hotels_r5, hotels_r6, hotels_r7};
use deptree::relation::{AttrSet, Relation, RelationBuilder, StrippedPartition, Value, ValueType};
use deptree::synth::{categorical, entities, CategoricalConfig, EntitiesConfig};
use deptree_reference as reference;

const MAX_LHS: usize = 3;

/// All attribute subsets of size ≤ `max`, smallest first.
fn subsets(all: AttrSet, max: usize) -> Vec<AttrSet> {
    let attrs = all.to_vec();
    let mut out: Vec<AttrSet> = (0..1u64 << attrs.len())
        .map(|mask| {
            attrs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &a)| a)
                .collect()
        })
        .filter(|s: &AttrSet| s.len() <= max)
        .collect();
    out.sort_by_key(|s| (s.len(), *s));
    out
}

/// Brute-force minimal dependencies with `g3 ≤ max_error` and `|X| ≤ 3`,
/// rendered in the miners' display form for comparison. The decision for
/// each candidate comes straight from `g3` over materialized partitions
/// (`g3 = 0` ⟺ the FD holds exactly); minimality re-tests every proper
/// subset the same way. `X = ∅` is included — an empty LHS determines
/// exactly the constant columns.
fn oracle(r: &Relation, max_error: f64) -> Vec<String> {
    let all = r.all_attrs();
    let sets = subsets(all, MAX_LHS);
    let parts: Vec<(AttrSet, StrippedPartition)> = sets
        .iter()
        .map(|&s| (s, StrippedPartition::from_attrs(r, s)))
        .collect();
    let holds = |lhs: AttrSet, rhs: AttrSet| -> bool {
        let px = parts
            .iter()
            .find(|(s, _)| *s == lhs)
            .map(|(_, p)| p)
            .expect("subset enumerated");
        let pa = StrippedPartition::from_attrs(r, rhs);
        px.g3_error(&pa) <= max_error
    };
    let mut out = Vec::new();
    for &lhs in &sets {
        for a in all.difference(lhs).iter() {
            let rhs = AttrSet::single(a);
            if !holds(lhs, rhs) {
                continue;
            }
            let minimal = lhs.iter().all(|b| !holds(lhs.remove(b), rhs));
            if minimal {
                out.push(Fd::new(r.schema(), lhs, rhs).to_string());
            }
        }
    }
    out.sort();
    out
}

fn tane_fds(r: &Relation, max_error: f64, threads: usize) -> Vec<String> {
    let cfg = tane::TaneConfig {
        max_lhs: MAX_LHS,
        max_error,
    };
    let out = tane::discover_bounded(r, &cfg, &Exec::unbounded().with_threads(threads));
    assert!(out.complete, "unbounded run must complete");
    let mut v: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
    v.sort();
    v
}

fn fastfd_fds(r: &Relation, threads: usize) -> Vec<String> {
    let out = fastfd::discover_bounded(r, &Exec::unbounded().with_threads(threads));
    assert!(out.complete, "unbounded run must complete");
    let mut v: Vec<String> = out
        .result
        .fds
        .iter()
        .filter(|f| f.lhs().len() <= MAX_LHS)
        .map(|f| f.to_string())
        .collect();
    v.sort();
    v
}

fn check_exact(r: &Relation, label: &str) {
    let want = oracle(r, 0.0);
    for threads in [1, 8] {
        assert_eq!(
            tane_fds(r, 0.0, threads),
            want,
            "{label}: TANE vs oracle at {threads} thread(s)"
        );
        assert_eq!(
            fastfd_fds(r, threads),
            want,
            "{label}: FastFD vs oracle at {threads} thread(s)"
        );
    }
}

fn synthetic(seed: u64, n_rows: usize, error_rate: f64) -> Relation {
    let cfg = CategoricalConfig {
        n_rows,
        n_key_attrs: 2,
        n_dep_attrs: 3,
        domain: 6,
        error_rate,
        seed,
    };
    categorical::generate(&cfg, &mut deptree::synth::rng(seed)).relation
}

#[test]
fn oracle_agrees_on_paper_tables() {
    for (label, r) in [
        ("r1", hotels_r1()),
        ("r5", hotels_r5()),
        ("r6", hotels_r6()),
        ("r7", hotels_r7()),
    ] {
        check_exact(&r, label);
    }
}

#[test]
fn oracle_agrees_on_seeded_synthetics() {
    for (i, &(seed, rows, err)) in [
        (11u64, 60usize, 0.0f64),
        (23, 90, 0.05),
        (37, 120, 0.0),
        (59, 150, 0.1),
    ]
    .iter()
    .enumerate()
    {
        let r = synthetic(seed, rows, err);
        check_exact(&r, &format!("synthetic #{i} (seed {seed})"));
    }
}

#[test]
fn oracle_agrees_on_random_small_relations() {
    let mut rng = deptree::synth::rng(0xD1FF);
    for case in 0..32 {
        let r = common::small_relation(&mut rng);
        if r.n_rows() == 0 {
            continue;
        }
        check_exact(&r, &format!("small case {case}"));
    }
}

#[test]
fn afd_oracle_agrees_with_approximate_tane() {
    // AFDs: g3 ≤ ε, still minimal-LHS. FastFD has no approximate mode, so
    // only TANE is differential here.
    for (label, r, eps) in [
        ("r1 ε=0.2", hotels_r1(), 0.2),
        ("r5 ε=0.25", hotels_r5(), 0.25),
        ("r6 ε=0.1", hotels_r6(), 0.1),
        ("synthetic ε=0.05", synthetic(101, 200, 0.02), 0.05),
    ] {
        let want = oracle(&r, eps);
        for threads in [1, 8] {
            assert_eq!(
                tane_fds(&r, eps, threads),
                want,
                "{label}: approximate TANE vs oracle at {threads} thread(s)"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pairwise differential oracles (MD/DD/NED/OD/DC/dedup): the blocking and
// index-based candidate generation must reproduce the full `row_pairs()`
// scans of `deptree_reference` exactly — on the paper's tables and seeded
// synthetics, at every thread count, and soundly (verified results only)
// under tight budgets.
// ---------------------------------------------------------------------------

const PAIR_THREADS: [usize; 3] = [1, 2, 8];

fn entities_relation(seed: u64, n_entities: usize) -> Relation {
    let cfg = EntitiesConfig {
        n_entities,
        max_duplicates: 3,
        variety: 0.5,
        error_rate: 0.05,
        seed,
    };
    entities::generate(&cfg, &mut deptree::synth::rng(seed)).relation
}

/// Render discovered MDs with bit-exact scores for comparison.
fn render_scored_mds(v: &[md::ScoredMd]) -> Vec<String> {
    v.iter()
        .map(|s| {
            format!(
                "{} s={:016x} c={:016x}",
                s.md,
                s.support.to_bits(),
                s.confidence.to_bits()
            )
        })
        .collect()
}

#[test]
fn md_indexed_discovery_matches_naive_oracle() {
    // Text attributes exercise the q-gram edit-distance index, numeric ones
    // the band join, categorical ones equality blocking and (via thresholds
    // that reach 1.0 on Equality) the conservative full-scan fallback.
    let cfg = md::MdConfig {
        min_support: 0.0,
        min_confidence: 0.5,
        thresholds_per_attr: 2,
        max_lhs: 2,
    };
    let cases = [
        ("r1", hotels_r1(), "region", cfg.clone()),
        ("r6", hotels_r6(), "region", cfg.clone()),
        (
            "r6 zip default",
            hotels_r6(),
            "zip",
            md::MdConfig::default(),
        ),
        ("entities", entities_relation(41, 40), "name", cfg.clone()),
        ("categorical", synthetic(43, 60, 0.05), "D0", cfg),
    ];
    for (label, r, rhs_name, cfg) in cases {
        let rhs = AttrSet::single(r.schema().id(rhs_name));
        let want = render_scored_mds(&reference::md::discover(&r, rhs, &cfg));
        for threads in PAIR_THREADS {
            let out = md::discover_bounded(&r, rhs, &cfg, &Exec::unbounded().with_threads(threads));
            assert!(out.complete, "{label}: unbounded run must complete");
            assert_eq!(
                render_scored_mds(&out.result),
                want,
                "{label}: indexed MD discovery vs naive at {threads} thread(s)"
            );
        }
    }
    // Hand-picked rules over every index kind: equality blocking, the edit
    // index on two atoms, a Jaro-Winkler full scan, a single edit atom.
    let (r6, r1) = (hotels_r6(), hotels_r1());
    let (s6, s1) = (r6.schema(), r1.schema());
    let rules = [
        (
            &r6,
            Md::new(
                s6,
                vec![
                    (s6.id("street"), Metric::Levenshtein, 5.0),
                    (s6.id("region"), Metric::Levenshtein, 2.0),
                ],
                AttrSet::single(s6.id("zip")),
            ),
        ),
        (
            &r6,
            Md::new(
                s6,
                vec![(s6.id("region"), Metric::Equality, 0.0)],
                AttrSet::single(s6.id("zip")),
            ),
        ),
        (
            &r6,
            Md::new(
                s6,
                vec![(s6.id("name"), Metric::JaroWinkler, 0.3)],
                AttrSet::single(s6.id("region")),
            ),
        ),
        (
            &r1,
            Md::new(
                s1,
                vec![(s1.id("address"), Metric::Levenshtein, 4.0)],
                AttrSet::single(s1.id("region")),
            ),
        ),
    ];
    for (r, m) in rules {
        assert_eq!(
            m.matching_pairs(r),
            reference::md::matching_pairs(&m, r),
            "{m}"
        );
        let (fast, slow) = (
            m.support_confidence(r),
            reference::md::support_confidence(&m, r),
        );
        assert_eq!(fast.0.to_bits(), slow.0.to_bits(), "support of {m}");
        assert_eq!(fast.1.to_bits(), slow.1.to_bits(), "confidence of {m}");
    }
}

#[test]
fn md_partial_results_sound_under_budget() {
    let r = entities_relation(77, 50);
    let rhs = AttrSet::single(r.schema().id("name"));
    let cfg = md::MdConfig {
        min_support: 0.0,
        min_confidence: 0.5,
        thresholds_per_attr: 2,
        max_lhs: 2,
    };
    for budget in [
        Budget::new().with_max_rows(200),
        Budget::new().with_max_rows(5_000),
        Budget::new().with_max_nodes(3),
    ] {
        for threads in PAIR_THREADS {
            let exec = Exec::new(budget.clone()).with_threads(threads);
            let out = md::discover_bounded(&r, rhs, &cfg, &exec);
            // Whatever survives the budget must carry exact naive scores and
            // meet both bars — never a half-scanned estimate.
            for s in &out.result {
                let (sup, conf) = reference::md::support_confidence(&s.md, &r);
                assert_eq!(sup.to_bits(), s.support.to_bits(), "{}", s.md);
                assert_eq!(conf.to_bits(), s.confidence.to_bits(), "{}", s.md);
                assert!(conf >= cfg.min_confidence, "{}", s.md);
            }
        }
    }
}

#[test]
fn dd_indexed_discovery_matches_naive_oracle() {
    let cfg = dd::DdConfig {
        thresholds_per_attr: 3,
        min_support: 2,
        max_lhs: 1,
    };
    let cases = [
        ("r6", hotels_r6(), cfg.clone()),
        ("r6 default", hotels_r6(), dd::DdConfig::default()),
        (
            "r6 support 1",
            hotels_r6(),
            dd::DdConfig {
                thresholds_per_attr: 3,
                min_support: 1,
                max_lhs: 1,
            },
        ),
        ("entities", entities_relation(53, 35), cfg.clone()),
        ("categorical", synthetic(61, 50, 0.05), cfg),
    ];
    for (label, r, cfg) in cases {
        let want: Vec<String> = reference::dd::discover(&r, &cfg)
            .iter()
            .map(|d| d.to_string())
            .collect();
        for threads in PAIR_THREADS {
            let out = dd::discover_bounded(&r, &cfg, &Exec::unbounded().with_threads(threads));
            assert!(out.complete, "{label}: unbounded run must complete");
            let got: Vec<String> = out.result.iter().map(|d| d.to_string()).collect();
            assert_eq!(
                got, want,
                "{label}: indexed DD discovery vs naive at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn dd_partial_results_sound_under_budget() {
    let r = entities_relation(67, 45);
    let cfg = dd::DdConfig {
        thresholds_per_attr: 3,
        min_support: 2,
        max_lhs: 1,
    };
    for budget in [
        Budget::new().with_max_rows(300),
        Budget::new().with_max_nodes(4),
    ] {
        for threads in PAIR_THREADS {
            let exec = Exec::new(budget.clone()).with_threads(threads);
            let out = dd::discover_bounded(&r, &cfg, &exec);
            for d in &out.result {
                let (sup, conf) = reference::dd::support_confidence(d, &r);
                // Emitted DDs are fully verified: the RHS threshold is the
                // exact max over LHS-compatible pairs, so confidence is 1.
                assert!(sup >= cfg.min_support, "{d}");
                assert_eq!(conf.to_bits(), 1.0f64.to_bits(), "{d}");
            }
        }
    }
}

#[test]
fn ned_indexed_scoring_matches_naive_on_paper_tables() {
    // Every single-atom NED over data-driven thresholds: the counting /
    // index-backed scorer must agree bit-for-bit with the pair scan.
    for (label, r) in [("r1", hotels_r1()), ("r6", hotels_r6())] {
        let s = r.schema();
        let attrs: Vec<_> = s.ids().collect();
        for &a in &attrs {
            for &b in &attrs {
                if a == b {
                    continue;
                }
                let ma = Metric::default_for(s.ty(a));
                let mb = Metric::default_for(s.ty(b));
                for ta in dd::candidate_thresholds(&r, a, &ma, 3) {
                    for tb in dd::candidate_thresholds(&r, b, &mb, 2) {
                        let ned = Ned::new(
                            s,
                            vec![NedAtom::new(a, ma.clone(), ta)],
                            vec![NedAtom::new(b, mb.clone(), tb)],
                        );
                        let fast = ned.support_confidence(&r);
                        let slow = reference::ned::support_confidence(&ned, &r);
                        assert_eq!(fast.0, slow.0, "{label}: support of {ned}");
                        assert_eq!(
                            fast.1.to_bits(),
                            slow.1.to_bits(),
                            "{label}: confidence of {ned}"
                        );
                    }
                }
            }
        }
    }
    // Hand-picked compound and cross-metric NEDs on r6: a two-atom edit
    // LHS, an equality LHS with a band RHS, an empty LHS, a Jaro-Winkler
    // LHS with an edit RHS.
    let r = hotels_r6();
    let s = r.schema();
    let neds = [
        Ned::new(
            s,
            vec![
                NedAtom::new(s.id("name"), Metric::Levenshtein, 1.0),
                NedAtom::new(s.id("address"), Metric::Levenshtein, 5.0),
            ],
            vec![NedAtom::new(s.id("street"), Metric::Levenshtein, 5.0)],
        ),
        Ned::new(
            s,
            vec![NedAtom::new(s.id("region"), Metric::Equality, 0.0)],
            vec![NedAtom::new(s.id("price"), Metric::AbsDiff, 100.0)],
        ),
        Ned::new(
            s,
            vec![],
            vec![NedAtom::new(s.id("price"), Metric::AbsDiff, 50.0)],
        ),
        Ned::new(
            s,
            vec![NedAtom::new(s.id("name"), Metric::JaroWinkler, 0.4)],
            vec![NedAtom::new(s.id("street"), Metric::Levenshtein, 5.0)],
        ),
    ];
    for ned in &neds {
        let fast = ned.support_confidence(&r);
        let slow = reference::ned::support_confidence(ned, &r);
        assert_eq!(fast.0, slow.0, "r6: support of {ned}");
        assert_eq!(
            fast.1.to_bits(),
            slow.1.to_bits(),
            "r6: confidence of {ned}"
        );
    }
}

#[test]
fn ned_discovery_deterministic_across_threads() {
    let r = entities_relation(59, 40);
    let s = r.schema();
    let name = s.id("name");
    let rhs = vec![NedAtom::new(name, Metric::default_for(s.ty(name)), 2.0)];
    let cfg = ned::NedConfig::default();
    let render = |n: &Option<Ned>| n.as_ref().map(|n| n.to_string());
    let base =
        ned::discover_lhs_bounded(&r, rhs.clone(), &cfg, &Exec::unbounded().with_threads(1)).result;
    for threads in [2, 8] {
        let got = ned::discover_lhs_bounded(
            &r,
            rhs.clone(),
            &cfg,
            &Exec::unbounded().with_threads(threads),
        )
        .result;
        assert_eq!(render(&got), render(&base), "NED at {threads} thread(s)");
    }
    if let Some(n) = &base {
        let fast = n.support_confidence(&r);
        let slow = reference::ned::support_confidence(n, &r);
        assert_eq!(fast.0, slow.0);
        assert_eq!(fast.1.to_bits(), slow.1.to_bits());
    }
}

/// CSV cells that tie or split under `numeric_cmp` but not structurally:
/// `2` and `2.0` tie, `-0.0` sorts below `0`, `NaN` above every number,
/// and the empty cell is null, below every number.
const OD_CELLS: [&str; 7] = ["0", "-0.0", "2", "2.0", "3", "NaN", ""];

/// [`OD_CELLS`] plus a string, which a numeric column keeps as text.
const DC_CELLS: [&str; 8] = ["0", "-0.0", "2", "2.0", "3", "NaN", "", "x2"];

/// A relation of numeric columns built from cell texts through
/// `push_row_texts`, the CSV parser's path.
fn numeric_texts(columns: &[&[&str]]) -> Relation {
    let schema = deptree::relation::Schema::from_attrs(
        (0..columns.len()).map(|i| (format!("n{i}"), ValueType::Numeric)),
    );
    let mut r = Relation::empty(schema).expect("at most 64 attributes");
    for row in 0..columns[0].len() {
        let cells: Vec<&str> = columns.iter().map(|c| c[row]).collect();
        r.push_row_texts(&cells).expect("consistent arity");
    }
    r
}

/// Every OD in discovery's candidate space (ascending LHS marks; one
/// atom, or two with `max_lhs ≥ 2`) that the pair scan accepts, in
/// discovery's order. A two-atom OD counts only when neither of its
/// single-atom premises holds.
fn ods_by_enumeration(r: &Relation, max_lhs: usize) -> Vec<Od> {
    let s = r.schema();
    let attrs: Vec<_> = s.ids().collect();
    let dirs = [Direction::Asc, Direction::Desc];
    let holds = |lhs: &[deptree::relation::AttrId], b, db| {
        let lhs = lhs.iter().map(|&a| (a, Direction::Asc)).collect();
        let o = Od::new(s, lhs, vec![(b, db)]);
        o.holds_pairwise(r).then_some(o)
    };
    let mut want = Vec::new();
    for &a in &attrs {
        for &b in attrs.iter().filter(|&&b| b != a) {
            want.extend(dirs.iter().filter_map(|&db| holds(&[a], b, db)));
        }
    }
    if max_lhs >= 2 {
        for &a1 in &attrs {
            for &a2 in attrs.iter().filter(|&&a2| a1 < a2) {
                for &b in attrs.iter().filter(|&&b| b != a1 && b != a2) {
                    for db in dirs {
                        if holds(&[a1], b, db).is_none() && holds(&[a2], b, db).is_none() {
                            want.extend(holds(&[a1, a2], b, db));
                        }
                    }
                }
            }
        }
    }
    want
}

#[test]
fn od_sorted_validation_matches_naive_pair_scan() {
    let mut cases = vec![
        ("r7".to_string(), hotels_r7()),
        // `a^≤ → b^≤` fails: 2 and 2.0 tie on a, so b must tie too.
        (
            "probe a=[2, 2.0, 3]".to_string(),
            numeric_texts(&[&["2", "2.0", "3"], &["10", "20", "30"]]),
        ),
        // `a^≤ → b^≤` holds: b's 10 and 10.0 tie on a's tie.
        (
            "probe b=[10, 10.0, 20]".to_string(),
            numeric_texts(&[&["1", "1", "2"], &["10", "10.0", "20"]]),
        ),
    ];
    let mut rng = deptree::synth::rng(0x0D0D);
    for case in 0..24 {
        cases.push((
            format!("numeric case {case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for case in 0..300 {
        let n_rows = rng.random_range(1..=8usize);
        let columns: Vec<Vec<&str>> = (0..rng.random_range(2..=3usize))
            .map(|_| {
                (0..n_rows)
                    .map(|_| OD_CELLS[rng.random_range(0..OD_CELLS.len())])
                    .collect()
            })
            .collect();
        let columns: Vec<&[&str]> = columns.iter().map(Vec::as_slice).collect();
        cases.push((
            format!("mixed-cell case {case} {columns:?}"),
            numeric_texts(&columns),
        ));
    }
    for (label, r) in &cases {
        let s = r.schema();
        for a in s.ids() {
            for b in s.ids() {
                for da in [Direction::Asc, Direction::Desc] {
                    for db in [Direction::Asc, Direction::Desc] {
                        let o = Od::new(s, vec![(a, da)], vec![(b, db)]);
                        assert_eq!(o.holds(r), o.holds_pairwise(r), "{label}: {o}");
                        let none_violate = o.violations(r).is_empty();
                        assert_eq!(none_violate, o.holds_pairwise(r), "{label}: {o}");
                    }
                }
            }
        }
        // Discovery is sound and complete within its bounds, in order.
        for max_lhs in [1, 2] {
            assert_eq!(
                od::discover(r, &od::OdConfig { max_lhs }),
                ods_by_enumeration(r, max_lhs),
                "{label}: max LHS {max_lhs}"
            );
        }
    }
    // Discovery (incl. compound LHS with its sampling prefilter) emits only
    // ODs the naive scan confirms, even under tight budgets.
    let r = hotels_r7();
    let cfg = od::OdConfig { max_lhs: 2 };
    for budget in [Budget::new(), Budget::new().with_max_nodes(9)] {
        let out = od::discover_bounded(&r, &cfg, &Exec::new(budget));
        for o in &out.result {
            assert!(o.holds_pairwise(&r), "{o}");
        }
    }
}

/// Small-domain categorical synthetics: many duplicate tuples, so the
/// blocked evidence builder's multiplicity accounting carries real weight.
fn small_domain(seed: u64, n_rows: usize, domain: usize) -> Relation {
    let cfg = CategoricalConfig {
        n_rows,
        n_key_attrs: 2,
        n_dep_attrs: 1,
        domain,
        error_rate: 0.1,
        seed,
    };
    categorical::generate(&cfg, &mut deptree::synth::rng(seed)).relation
}

#[test]
fn dc_blocked_evidence_matches_naive_at_all_thread_counts() {
    // Twelve rows over six distinct tuples: the intra-class branch of the
    // blocked builder carries most of the multiset.
    let mut dup = RelationBuilder::new()
        .attr("x", ValueType::Numeric)
        .attr("y", ValueType::Numeric);
    for i in 0..12 {
        dup = dup.row(vec![(i % 3).into(), (i % 2).into()]);
    }
    let mut cases = vec![
        ("r7".to_string(), hotels_r7()),
        ("categorical".to_string(), synthetic(13, 80, 0.05)),
        ("domain 5".to_string(), small_domain(5, 40, 5)),
        ("domain 3".to_string(), small_domain(9, 40, 3)),
        (
            "duplicated rows".to_string(),
            dup.build().expect("two cells per row"),
        ),
    ];
    // `Int(2)` and `Float(2.0)` hold different codes but are equal under
    // `numeric_cmp`, on categorical columns too; `Str("2")` is neither.
    let mut two = RelationBuilder::new()
        .attr("c", ValueType::Categorical)
        .attr("n", ValueType::Numeric);
    for (c, n) in [
        (Value::int(2), Value::float(2.0)),
        (Value::float(2.0), Value::int(2)),
        (Value::int(3), Value::Null),
        (Value::Null, Value::float(-0.0)),
        (Value::str("2"), Value::int(0)),
        (Value::Null, Value::float(f64::NAN)),
        (Value::int(2), Value::Null),
    ] {
        two = two.row(vec![c, n]);
    }
    cases.push((
        "categorical Int(2) / Float(2.0)".to_string(),
        two.build().expect("two cells per row"),
    ));
    let mut rng = deptree::synth::rng(0xDCDC);
    for case in 0..12 {
        cases.push((
            format!("numeric case {case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for case in 0..60 {
        let n_rows = rng.random_range(1..=9usize);
        let columns: Vec<Vec<&str>> = (0..rng.random_range(1..=3usize))
            .map(|_| {
                (0..n_rows)
                    .map(|_| DC_CELLS[rng.random_range(0..DC_CELLS.len())])
                    .collect()
            })
            .collect();
        let columns: Vec<&[&str]> = columns.iter().map(Vec::as_slice).collect();
        cases.push((
            format!("mixed-cell case {case} {columns:?}"),
            numeric_texts(&columns),
        ));
    }
    for case in 0..40 {
        cases.push((
            format!("arbitrary case {case}"),
            common::arbitrary_relation(&mut rng),
        ));
    }
    for (label, r) in &cases {
        let mut pred_lists = vec![dc::predicate_space(r)];
        if let [a, .., b] = r.schema().ids().collect::<Vec<_>>()[..] {
            // Shapes `predicate_space` never builds: constants, crossed
            // attributes, swapped tuples and a repeated predicate.
            pred_lists.push(vec![
                Predicate::first_const(a, CmpOp::Leq, 2),
                Predicate::across(a, CmpOp::Lt, b),
                Predicate::new(Operand::Second(b), CmpOp::Geq, Operand::First(b)),
                Predicate::across(b, CmpOp::Eq, b),
                Predicate::across(b, CmpOp::Eq, b),
                Predicate::new(Operand::First(a), CmpOp::Neq, Operand::Const(Value::Null)),
            ]);
        }
        for preds in &pred_lists {
            check_blocked_evidence(label, r, preds);
        }
    }
}

/// The blocked builder's evidence map and pair count equal the per-pair
/// reference scan's at every thread count.
fn check_blocked_evidence(label: &str, r: &Relation, preds: &[Predicate]) {
    let mut nstats = dc::FastDcStats::default();
    let want = reference::dc::evidence_sets(r, preds, &mut nstats);
    let mut gstats = dc::FastDcStats::default();
    let grouped = reference::dc::evidence_sets_grouped(r, preds, &mut gstats);
    assert_eq!(grouped, want, "{label}: grouped reference evidence");
    assert_eq!(gstats.pairs_evaluated, nstats.pairs_evaluated, "{label}");
    for threads in PAIR_THREADS {
        let mut stats = dc::FastDcStats::default();
        let (got, complete) = dc::evidence_sets_blocked(
            r,
            preds,
            &mut stats,
            &Exec::unbounded().with_threads(threads),
        );
        assert!(complete, "{label}: unbounded run must complete");
        assert_eq!(
            got, want,
            "{label}: blocked evidence at {threads} thread(s)"
        );
        assert_eq!(
            stats.pairs_evaluated, nstats.pairs_evaluated,
            "{label}: multiplicity accounting at {threads} thread(s)"
        );
    }
}

/// How many distinct inclusion-minimal members `family` has.
fn minimal_members(family: &[u64]) -> usize {
    let mut sets = family.to_vec();
    sets.sort_unstable();
    sets.dedup();
    sets.iter()
        .filter(|&&s| !sets.iter().any(|&m| m != s && m & !s == 0))
        .count()
}

#[test]
fn cover_search_matches_reference_dfs() {
    let mut families: Vec<(String, Vec<u64>, usize)> = vec![
        ("empty family".to_string(), vec![], 5),
        ("empty member".to_string(), vec![0b101, 0, 0b11], 3),
        (
            "duplicates".to_string(),
            vec![0b0110, 0b0011, 0b0110, 0b1001, 0b0011, 0b1001],
            4,
        ),
        (
            "all 84 triples of 9 elements".to_string(),
            (0u64..1 << 9).filter(|s| s.count_ones() == 3).collect(),
            9,
        ),
    ];
    let mut rng = deptree::synth::rng(0xC0E5);
    for case in 0..120 {
        let universe = rng.random_range(3..=24usize);
        // Dense members over wide universes keep the full search small
        // enough for the reference's per-node family scans.
        let density = if universe <= 10 {
            rng.random_range(0.2..0.9f64)
        } else {
            rng.random_range(0.7..0.95f64)
        };
        let mut family: Vec<u64> = (0..rng.random_range(0..=200usize))
            .map(|_| {
                (0..universe)
                    .filter(|_| rng.random_bool(density))
                    .fold(0u64, |s, b| s | 1 << b)
            })
            .collect();
        if case % 4 == 0 && !family.is_empty() {
            family.extend_from_within(..family.len() / 2);
        }
        families.push((format!("random case {case}"), family, universe));
    }
    assert!(families.iter().any(|(_, f, _)| minimal_members(f) > 64));
    for (label, family, universe) in &families {
        for max_nodes in [None, Some(1), Some(7), Some(50), Some(500)] {
            let budget = match max_nodes {
                Some(n) => Budget::new().with_max_nodes(n),
                None => Budget::new(),
            };
            let (exec, reference_exec) = (Exec::new(budget.clone()), Exec::new(budget));
            let got = cover::minimal_hitting_sets_bounded(family, *universe, &exec);
            let want =
                reference::cover::minimal_hitting_sets_bounded(family, *universe, &reference_exec);
            assert_eq!(got, want, "{label}, max nodes {max_nodes:?}: {family:?}");
            assert_eq!(
                exec.stats().nodes_visited,
                reference_exec.stats().nodes_visited,
                "{label}, max nodes {max_nodes:?}: nodes visited"
            );
        }
    }
}

#[test]
fn dc_partial_evidence_is_submultiset_under_budget() {
    let r = synthetic(29, 120, 0.05);
    let preds = dc::predicate_space(&r);
    let mut nstats = dc::FastDcStats::default();
    let full = reference::dc::evidence_sets(&r, &preds, &mut nstats);
    for max_rows in [10u64, 500, 5_000] {
        for threads in PAIR_THREADS {
            let mut stats = dc::FastDcStats::default();
            let exec = Exec::new(Budget::new().with_max_rows(max_rows)).with_threads(threads);
            let (partial, complete) = dc::evidence_sets_blocked(&r, &preds, &mut stats, &exec);
            assert!(
                !complete,
                "row budget {max_rows} should not cover all {} pairs",
                nstats.pairs_evaluated
            );
            for (bits, mult) in &partial {
                let cap = full.get(bits).copied().unwrap_or(0);
                assert!(
                    *mult <= cap,
                    "partial evidence {bits:#x} has multiplicity {mult} > full {cap}"
                );
            }
            assert!(stats.pairs_evaluated <= nstats.pairs_evaluated);
        }
    }
}

#[test]
fn g3_is_monotone_in_lhs_growth() {
    // The property the AFD oracle's minimality definition rests on:
    // growing the LHS never increases g3.
    let r = synthetic(7, 100, 0.1);
    let all = r.all_attrs();
    for lhs in subsets(all, MAX_LHS) {
        for a in all.difference(lhs).iter() {
            let pa = StrippedPartition::from_attrs(&r, AttrSet::single(a));
            let base = StrippedPartition::from_attrs(&r, lhs).g3_error(&pa);
            for b in all.difference(lhs.insert(a)).iter() {
                let grown = StrippedPartition::from_attrs(&r, lhs.insert(b)).g3_error(&pa);
                assert!(
                    grown <= base + 1e-12,
                    "g3 grew: {lhs:?}+{b:?} -> {a:?} ({grown} > {base})"
                );
            }
        }
    }
}

#[test]
fn dedup_indexed_clustering_matches_naive_oracle() {
    // The partition fast path (all-equality LHS), the edit-distance index,
    // and a multi-rule mix on r1; a zip-blocked rule on noisy entities.
    let r = hotels_r1();
    let s = r.schema();
    let eq_md = Md::new(
        s,
        vec![(s.id("region"), Metric::Equality, 0.0)],
        AttrSet::single(s.id("name")),
    );
    let edit_md = Md::new(
        s,
        vec![(s.id("address"), Metric::Levenshtein, 4.0)],
        AttrSet::single(s.id("name")),
    );
    let cfg = EntitiesConfig {
        n_entities: 30,
        max_duplicates: 3,
        variety: 0.7,
        error_rate: 0.1,
        seed: 17,
    };
    let noisy = entities::generate(&cfg, &mut deptree::synth::rng(cfg.seed)).relation;
    let ns = noisy.schema();
    let zip_md = Md::new(
        ns,
        vec![(ns.id("zip"), Metric::Equality, 0.0)],
        AttrSet::single(ns.id("name")),
    );
    let cases: Vec<(&str, &Relation, Vec<Md>)> = vec![
        ("r1 equality", &r, vec![eq_md.clone()]),
        ("r1 edit", &r, vec![edit_md.clone()]),
        ("r1 both", &r, vec![eq_md, edit_md]),
        ("entities zip", &noisy, vec![zip_md]),
    ];
    for (label, r, mds) in cases {
        let want = reference::dedup::cluster(r, &mds);
        for threads in PAIR_THREADS {
            let exec = Exec::unbounded().with_threads(threads);
            let got = dedup::cluster_bounded(r, &mds, &exec);
            assert!(got.complete, "{label}: unbounded run must complete");
            assert_eq!(
                got.result.cluster, want.cluster,
                "{label} at {threads} thread(s)"
            );
            assert_eq!(got.result.n_clusters, want.n_clusters, "{label}");
        }
    }
}
