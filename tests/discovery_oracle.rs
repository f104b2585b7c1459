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
use deptree::core::{Dependency, Direction, Fd, Md, Ned, NedAtom, Od};
use deptree::discovery::{dc, dd, fastfd, md, ned, od, tane};
use deptree::metrics::Metric;
use deptree::quality::dedup;
use deptree::relation::examples::{hotels_r1, hotels_r5, hotels_r6, hotels_r7};
use deptree::relation::{AttrSet, Relation, RelationBuilder, StrippedPartition, ValueType};
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

#[test]
fn od_sorted_validation_matches_naive_pair_scan() {
    let mut cases = vec![("r7".to_string(), hotels_r7())];
    let mut rng = deptree::synth::rng(0x0D0D);
    for case in 0..24 {
        cases.push((
            format!("numeric case {case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for (label, r) in &cases {
        let s = r.schema();
        let attrs: Vec<_> = s.ids().collect();
        for &a in &attrs {
            for &b in &attrs {
                if a == b {
                    continue;
                }
                for db in [Direction::Asc, Direction::Desc] {
                    let o = Od::new(s, vec![(a, Direction::Asc)], vec![(b, db)]);
                    assert_eq!(o.holds(r), o.holds_pairwise(r), "{label}: {o}");
                }
            }
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
    let mut rng = deptree::synth::rng(0xDCDC);
    for case in 0..12 {
        cases.push((
            format!("numeric case {case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for (label, r) in &cases {
        let preds = dc::predicate_space(r);
        let mut nstats = dc::FastDcStats::default();
        let want = reference::dc::evidence_sets(r, &preds, &mut nstats);
        let mut gstats = dc::FastDcStats::default();
        let grouped = reference::dc::evidence_sets_grouped(r, &preds, &mut gstats);
        assert_eq!(grouped, want, "{label}: grouped reference evidence");
        assert_eq!(gstats.pairs_evaluated, nstats.pairs_evaluated, "{label}");
        for threads in PAIR_THREADS {
            let mut stats = dc::FastDcStats::default();
            let (got, complete) = dc::evidence_sets_blocked(
                r,
                &preds,
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
