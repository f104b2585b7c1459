//! Columnar ↔ reference differential harness.
//!
//! Two gates on the dictionary-encoded relation core:
//!
//! * **Kernel level.** Every kernel that has a row-major twin — grouping,
//!   distinct counting and sorting, stripped partitions (direct and via
//!   TANE's radix / probe-table level products), candidate-pair
//!   indexes, the sorted order-dependency check, and the split-kernel FD
//!   checks (violations, g3, repair, NUD fan-out, PFD probability) — must
//!   equal its `deptree_reference` counterpart on *every* attribute subset
//!   (or attribute, spec and direction; for the FD checks, every `X` of at
//!   most two attributes and every single `Y`) of every relation in the
//!   corpus: the paper's worked examples, seeded synthetics and
//!   fault-plan-corrupted CSVs, each also after a `set` mutation that
//!   leaves orphaned dictionary entries and after a `select` that
//!   re-encodes the dictionaries.
//! * **Task level.** Every discovery and quality task must render
//!   **byte-identical** output at 1/2/8 threads, including under tight
//!   node and row budgets (sound partials included), across the same
//!   corpus. Deadline budgets cut at a timing-dependent point, so they are
//!   checked for soundness instead of bytes.

mod common;

use deptree::core::engine::{Budget, Exec};
use deptree::core::{
    Cfd, CmpOp, Dependency, Direction, ECfd, Fd, Fhd, Mfd, Mvd, NedAtom, Nud, Od, Pattern,
    PatternOp, Pfd,
};
use deptree::discovery::{cfd, dc, dd, fastfd, md, mfd, ned, od, tane};
use deptree::metrics::Metric;
use deptree::quality::{cqa, fairness, repair};
use deptree::relation::examples::{dataspace_cd, hotels_r1, hotels_r5, hotels_r6, hotels_r7};
use deptree::relation::pairgen::{PairIndex, PairSpec};
use deptree::relation::{
    parse_csv_lossy, to_csv, AttrId, AttrSet, ProductScratch, Relation, StrippedPartition, Value,
    ValueType,
};
use deptree::serve::tasks::{self, ProfileOpts};
use deptree::synth::fault::FaultPlan;
use deptree::synth::{categorical, CategoricalConfig};
use deptree_reference as reference;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 2, 8];

/// The task-level assertion: `render` must produce the same bytes at
/// every thread count.
fn assert_equiv(label: &str, budget: &Budget, render: &dyn Fn(&Exec) -> String) {
    let base = render(&Exec::new(budget.clone()).with_threads(1));
    for threads in THREADS {
        let exec = Exec::new(budget.clone()).with_threads(threads);
        assert_eq!(
            render(&exec),
            base,
            "{label}: output drifts at {threads} thread(s)"
        );
    }
}

// ---------------------------------------------------------------------
// Renderers: one string per task family, exact bytes (scores rendered
// via to_bits where floats are involved).
// ---------------------------------------------------------------------

/// The serve `profile` task: TANE (exact + approximate), CORDS soft FDs
/// and — on numeric schemas — OD and DC discovery, all through the one
/// rendering path the CLI and the server share.
fn render_profile(r: &Relation, opts: &ProfileOpts, exec: &Exec) -> String {
    let report = tasks::profile(r, opts, exec);
    format!(
        "{}|exhausted={:?}|fds={:?}",
        report.text, report.exhausted, report.fds
    )
}

/// The direct miners the profile doesn't reach: FastFD, MD, DD, NED, OD,
/// DC discovery, rendered with bit-exact scores.
fn render_miners(r: &Relation, exec: &Exec) -> String {
    let mut out = String::new();
    let ffd = fastfd::discover_bounded(r, exec);
    let _ = writeln!(out, "fastfd: {:?}", render_deps(&ffd.result.fds));
    if r.n_attrs() >= 2 {
        let s = r.schema();
        let attrs: Vec<_> = s.ids().collect();
        let rhs_attr = attrs[attrs.len() - 1];
        let cfg = md::MdConfig {
            min_support: 0.0,
            min_confidence: 0.5,
            thresholds_per_attr: 2,
            max_lhs: 2,
        };
        let mds = md::discover_bounded(r, AttrSet::single(rhs_attr), &cfg, exec);
        for m in &mds.result {
            let _ = writeln!(
                out,
                "md: {} s={:016x} c={:016x}",
                m.md,
                m.support.to_bits(),
                m.confidence.to_bits()
            );
        }
        let dds = dd::discover_bounded(
            r,
            &dd::DdConfig {
                thresholds_per_attr: 2,
                min_support: 2,
                max_lhs: 1,
            },
            exec,
        );
        let _ = writeln!(out, "dd: {:?}", render_deps(&dds.result));
        let m1 = Metric::default_for(s.ty(rhs_attr));
        let neds = ned::discover_lhs_bounded(
            r,
            vec![NedAtom::new(rhs_attr, m1, 1.0)],
            &ned::NedConfig::default(),
            exec,
        );
        let _ = writeln!(out, "ned: {:?}", neds.result.map(|n| n.to_string()));
    }
    let ods = od::discover_bounded(r, &od::OdConfig { max_lhs: 2 }, exec);
    let _ = writeln!(out, "od: {:?}", render_deps(&ods.result));
    let dcs = dc::discover_bounded(r, &dc::DcConfig::default(), exec);
    let _ = writeln!(out, "dc: {:?}", render_deps(&dcs.result.dcs));
    out
}

fn render_deps<D: std::fmt::Display>(v: &[D]) -> Vec<String> {
    v.iter().map(|d| d.to_string()).collect()
}

/// The quality tasks: validate, detect, repair (report + repaired CSV)
/// and dedup on a representative rule over the first/last attributes.
fn render_quality(r: &Relation, exec: &Exec) -> String {
    if r.n_attrs() < 2 || r.n_rows() == 0 {
        return String::from("degenerate");
    }
    let s = r.schema();
    let attrs: Vec<_> = s.ids().collect();
    let rule = format!("{} -> {}", s.name(attrs[0]), s.name(attrs[attrs.len() - 1]));
    let mut out = String::new();
    match tasks::validate(r, &rule) {
        Ok(rep) => out.push_str(&rep.text),
        Err(e) => {
            let _ = writeln!(out, "validate error: {e}");
        }
    }
    match tasks::detect(r, &rule) {
        Ok(rep) => out.push_str(&rep.text),
        Err(e) => {
            let _ = writeln!(out, "detect error: {e}");
        }
    }
    match tasks::repair(r, &rule, exec) {
        Ok((rep, fixed)) => {
            out.push_str(&rep.text);
            out.push_str(&to_csv(&fixed));
        }
        Err(e) => {
            let _ = writeln!(out, "repair error: {e}");
        }
    }
    match tasks::dedup(r, &[s.name(attrs[0]).to_string()], exec) {
        Ok(rep) => out.push_str(&rep.text),
        Err(e) => {
            let _ = writeln!(out, "dedup error: {e}");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------

fn paper_tables() -> Vec<(String, Relation)> {
    vec![
        ("r1".into(), hotels_r1()),
        ("r5".into(), hotels_r5()),
        ("r6".into(), hotels_r6()),
        ("r7".into(), hotels_r7()),
        ("dataspace".into(), dataspace_cd()),
    ]
}

fn seeded_synthetics() -> Vec<(String, Relation)> {
    let mut rng = deptree::synth::rng(0xC01A);
    let mut out = Vec::new();
    for case in 0..4 {
        out.push((format!("small #{case}"), common::small_relation(&mut rng)));
    }
    for case in 0..3 {
        out.push((
            format!("numeric #{case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for case in 0..3 {
        out.push((format!("mixed #{case}"), common::mixed_relation(&mut rng)));
    }
    for case in 0..3 {
        out.push((
            format!("arbitrary #{case}"),
            common::arbitrary_relation(&mut rng),
        ));
    }
    out
}

/// Every fault scenario, applied at the CSV text level and re-ingested
/// through the lossy parser — the relations the service actually sees on
/// dirty uploads.
fn corrupted_relations() -> Vec<(String, Relation)> {
    let mut rng = deptree::synth::rng(0xFA0C7);
    let base = common::mixed_relation(&mut rng);
    let clean = to_csv(&base);
    let types: Vec<ValueType> = base.schema().iter().map(|(_, a)| a.ty).collect();
    FaultPlan::scenarios(0xC0DEC, 0.3)
        .into_iter()
        .map(|(name, plan)| {
            let dirty = plan.apply_csv(&clean);
            let parsed = parse_csv_lossy(&dirty, &types)
                .unwrap_or_else(|e| panic!("lossy parse died on {name}: {e}"));
            parsed.relation.debug_validate();
            (format!("fault {name}"), parsed.relation)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Byte-identity: unbounded runs.
// ---------------------------------------------------------------------

#[test]
fn profile_is_byte_identical_on_paper_tables() {
    for (label, r) in paper_tables() {
        for opts in [
            ProfileOpts {
                max_lhs: 2,
                error: 0.0,
            },
            ProfileOpts {
                max_lhs: 2,
                error: 0.1,
            },
        ] {
            assert_equiv(
                &format!("profile {label} ε={}", opts.error),
                &Budget::default(),
                &|exec| render_profile(&r, &opts, exec),
            );
        }
    }
}

#[test]
fn profile_is_byte_identical_on_synthetics_and_corrupted_csvs() {
    let opts = ProfileOpts {
        max_lhs: 2,
        error: 0.0,
    };
    for (label, r) in seeded_synthetics().into_iter().chain(corrupted_relations()) {
        assert_equiv(&format!("profile {label}"), &Budget::default(), &|exec| {
            render_profile(&r, &opts, exec)
        });
    }
}

#[test]
fn miners_are_byte_identical_on_paper_tables() {
    for (label, r) in paper_tables() {
        assert_equiv(&format!("miners {label}"), &Budget::default(), &|exec| {
            render_miners(&r, exec)
        });
    }
}

#[test]
fn miners_are_byte_identical_on_synthetics_and_corrupted_csvs() {
    for (label, r) in seeded_synthetics().into_iter().chain(corrupted_relations()) {
        assert_equiv(&format!("miners {label}"), &Budget::default(), &|exec| {
            render_miners(&r, exec)
        });
    }
}

#[test]
fn quality_tasks_are_byte_identical_everywhere() {
    let all = paper_tables()
        .into_iter()
        .chain(seeded_synthetics())
        .chain(corrupted_relations());
    for (label, r) in all {
        assert_equiv(&format!("quality {label}"), &Budget::default(), &|exec| {
            render_quality(&r, exec)
        });
    }
}

// ---------------------------------------------------------------------
// Byte-identity: budget-truncated partials. Node and row budgets are
// deterministic by the engine's reservation contract, so the *partial*
// output must also match byte-for-byte across thread counts.
// ---------------------------------------------------------------------

#[test]
fn budget_truncated_partials_are_byte_identical() {
    let opts = ProfileOpts {
        max_lhs: 3,
        error: 0.0,
    };
    let budgets = [
        ("nodes=5", Budget::default().with_max_nodes(5)),
        ("nodes=40", Budget::default().with_max_nodes(40)),
        ("rows=300", Budget::default().with_max_rows(300)),
        ("rows=2000", Budget::default().with_max_rows(2000)),
    ];
    let datasets = [
        ("r6".to_string(), hotels_r6()),
        ("r7".to_string(), hotels_r7()),
        seeded_synthetics().swap_remove(0),
    ];
    for (dlabel, r) in datasets.iter().chain([&planted_violations()]) {
        for (blabel, budget) in &budgets {
            assert_equiv(
                &format!("partial profile {dlabel} {blabel}"),
                budget,
                &|exec| render_profile(r, &opts, exec),
            );
            assert_equiv(
                &format!("partial miners {dlabel} {blabel}"),
                budget,
                &|exec| render_miners(r, exec),
            );
            assert_equiv(
                &format!("partial quality {dlabel} {blabel}"),
                budget,
                &|exec| render_quality(r, exec),
            );
        }
    }
}

/// A key → dependent table with planted errors: its repaired rule has
/// far more violating key groups than the node budgets above allow, so a
/// truncated repair stops part-way through them.
fn planted_violations() -> (String, Relation) {
    let cfg = CategoricalConfig {
        n_rows: 2000,
        n_key_attrs: 1,
        n_dep_attrs: 1,
        domain: 100,
        error_rate: 0.1,
        seed: 3,
    };
    let data = categorical::generate(&cfg, &mut deptree::synth::rng(cfg.seed));
    ("planted".into(), data.relation)
}

// ---------------------------------------------------------------------
// Deadline budgets cut at a timing-dependent point: only soundness is
// required.
// ---------------------------------------------------------------------

#[test]
fn deadline_partials_are_sound() {
    let r = hotels_r6();
    for deadline_ms in [0u64, 1, 5] {
        let budget = Budget::default().with_deadline(Duration::from_millis(deadline_ms));
        let out = tane::discover_bounded(
            &r,
            &tane::TaneConfig {
                max_lhs: 3,
                max_error: 0.0,
            },
            &Exec::new(budget.clone()),
        );
        for fd in &out.result.fds {
            assert!(fd.holds(&r), "unsound FD {fd} from a deadline partial");
        }
        let ods = od::discover_bounded(&r, &od::OdConfig { max_lhs: 2 }, &Exec::new(budget));
        for o in &ods.result {
            assert!(o.holds(&r), "unsound OD {o} from a deadline partial");
        }
    }
}

// ---------------------------------------------------------------------
// Kernel level: every kernel against its row-major reference, on every
// attribute subset of every relation in the corpus.
// ---------------------------------------------------------------------

/// Orphaned dictionary entries churned through the last column by
/// [`mutated`]: more than both radix gates admit on the corpus's row
/// counts (`4·covered + 1024` for the column product TANE's levels run,
/// `4·n + 4096` for direct grouping), so the hash fallbacks run too.
const ORPHANS: usize = 5000;

/// `r` after `set` mutations: row 0 of the first attribute takes row 1's
/// value (a real change, orphaning the old value if no other row held
/// it), and [`ORPHANS`] throwaway values churn through row 0 of the last
/// attribute before its value is restored.
fn mutated(r: &Relation) -> Relation {
    let mut m = r.clone();
    let attrs: Vec<_> = r.schema().ids().collect();
    if r.n_rows() >= 2 {
        m.set_value(0, attrs[0], r.value(1, attrs[0]).clone());
    }
    if let Some(&last) = attrs.last().filter(|_| r.n_rows() >= 1) {
        let kept = m.value(0, last).clone();
        for i in 0..ORPHANS {
            m.set_value(0, last, Value::Str(format!("orphan {i}")));
        }
        m.set_value(0, last, kept);
    }
    m.debug_validate();
    m
}

/// `r` after a `select` that reverses the row order and drops every third
/// row: dictionaries are rebuilt in the new first-appearance order, so
/// code order no longer follows the original row order.
fn selected(r: &Relation) -> Relation {
    let rows: Vec<usize> = (0..r.n_rows()).rev().filter(|i| i % 3 != 1).collect();
    let s = r.select_rows(&rows);
    s.debug_validate();
    s
}

/// The kernel corpus: every task-level dataset, plus its mutated and
/// selected variants.
fn kernel_corpus() -> Vec<(String, Relation)> {
    let mut out = Vec::new();
    for (label, r) in paper_tables()
        .into_iter()
        .chain(seeded_synthetics())
        .chain(corrupted_relations())
    {
        out.push((format!("{label} after set"), mutated(&r)));
        out.push((format!("{label} after select"), selected(&r)));
        out.push((label, r));
    }
    out
}

/// Every subset of the relation's attributes, `∅` included.
fn all_subsets(r: &Relation) -> Vec<AttrSet> {
    let attrs: Vec<_> = r.schema().ids().collect();
    (0..1u64 << attrs.len())
        .map(|mask| {
            attrs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &a)| a)
                .collect()
        })
        .collect()
}

#[test]
fn grouping_kernels_match_reference_on_every_attribute_subset() {
    for (label, r) in kernel_corpus() {
        for set in all_subsets(&r) {
            assert_eq!(
                StrippedPartition::from_attrs(&r, set)
                    .into_groups()
                    .collect::<Vec<_>>(),
                reference::relation::groups(&r, set),
                "{label}: groups {set:?}"
            );
            assert_eq!(
                r.distinct_count(set),
                reference::relation::distinct_count(&r, set),
                "{label}: distinct_count {set:?}"
            );
            assert_eq!(
                r.sorted_rows(set),
                reference::relation::sorted_rows(&r, set),
                "{label}: sorted_rows {set:?}"
            );
        }
    }
}

#[test]
fn partition_kernels_match_reference_on_every_attribute_subset() {
    let (mut radix, mut hash) = (0, 0);
    for (label, r) in kernel_corpus() {
        for a in r.schema().ids() {
            let col = reference::relation::column(&r, a);
            let p = StrippedPartition::from_column(&r, a);
            assert_eq!(p.n_rows(), r.n_rows(), "{label}: from_column {a:?} rows");
            assert_eq!(
                p.classes(),
                &reference::relation::column_partition(&col)[..],
                "{label}: from_column {a:?}"
            );
        }
        // TANE's chain: π_X = π_{X∖{a}} · π_a with a = max(X), every
        // `X∖{a}` built the same way first (subsets come in mask order).
        let mut chain: HashMap<AttrSet, StrippedPartition> = HashMap::new();
        let mut scratch = ProductScratch::new();
        for set in all_subsets(&r) {
            let want = reference::relation::partition(&r, set);
            let direct = StrippedPartition::from_attrs(&r, set);
            assert_eq!(
                direct.n_rows(),
                r.n_rows(),
                "{label}: from_attrs {set:?} rows"
            );
            assert_eq!(direct.classes(), &want[..], "{label}: from_attrs {set:?}");
            let product = match set.max() {
                Some(a) if set.len() >= 2 => {
                    let single = StrippedPartition::from_column(&r, a);
                    let (p, took_radix) =
                        chain[&set.remove(a)].product_with_attr(r.col(a), &mut scratch, &single);
                    if took_radix {
                        radix += 1;
                    } else {
                        hash += 1;
                    }
                    p
                }
                _ => direct,
            };
            assert_eq!(product.classes(), &want[..], "{label}: product {set:?}");
            chain.insert(set, product);
        }
    }
    assert!(radix > 0, "no level product took the radix kernel");
    assert!(hash > 0, "no level product took the probe-table fallback");
}

#[test]
fn pair_index_matches_reference_on_every_attribute_and_spec() {
    let specs = [
        PairSpec::Eq,
        PairSpec::Band(0.0),
        PairSpec::Band(1.0),
        PairSpec::Band(7.5),
        PairSpec::Band(1e9),
        PairSpec::Band(-1.0),
        PairSpec::Band(f64::NAN),
        PairSpec::Edit(0),
        PairSpec::Edit(1),
        PairSpec::Edit(2),
        PairSpec::Edit(6),
        PairSpec::Empty,
        PairSpec::All,
    ];
    for (label, r) in kernel_corpus() {
        for a in r.schema().ids() {
            let col = reference::relation::column(&r, a);
            for spec in specs {
                let got = PairIndex::build_attr(&r, a, spec);
                let want = reference::pairgen::build(&col, spec);
                let what = format!("{label}: {a:?} {spec:?}");
                assert_eq!(got.classes(), &want.classes[..], "{what}: classes");
                assert_eq!(got.links(), &want.links[..], "{what}: links");
                assert_eq!(got.is_exact(), want.exact, "{what}: exact");
                assert_eq!(got.is_indexed(), want.indexed, "{what}: indexed");
                let mut pairs = Vec::new();
                got.for_each_candidate(|i, j| {
                    pairs.push((i, j));
                    true
                });
                assert_eq!(pairs, want.candidates(), "{what}: candidates");
                assert_eq!(got.n_candidates(), pairs.len() as u64, "{what}: count");
            }
        }
    }
}

#[test]
fn od_check_matches_reference_on_every_attribute_pair() {
    let dirs = [Direction::Asc, Direction::Desc];
    for (label, r) in kernel_corpus() {
        let s = r.schema();
        let cols: Vec<Vec<Value>> = s
            .ids()
            .map(|a| reference::relation::column(&r, a))
            .collect();
        for a in s.ids() {
            for b in s.ids() {
                for da in dirs {
                    for db in dirs {
                        let o = Od::new(s, vec![(a, da)], vec![(b, db)]);
                        let want = reference::od::holds_sorted(&cols[a.0], da, &cols[b.0], db);
                        assert_eq!(o.holds(&r), want, "{label}: {o}");
                    }
                }
            }
        }
    }
}

#[test]
fn fd_checks_match_reference_on_every_attribute_pair() {
    for (label, r) in kernel_corpus() {
        let s = r.schema();
        let lhs_sets = all_subsets(&r).into_iter().filter(|x| x.len() <= 2);
        for x in lhs_sets {
            for y in s.ids() {
                let y = AttrSet::single(y);
                let fd = Fd::new(s, x, y);
                let what = format!("{label}: {fd}");
                assert_eq!(
                    fd.violations(&r),
                    reference::fd::fd_violations(&r, x, y),
                    "{what}: violations"
                );
                assert_eq!(
                    fd.g3(&r).to_bits(),
                    reference::fd::g3(&r, x, y).to_bits(),
                    "{what}: g3"
                );
                let got = repair::repair_fds(&r, std::slice::from_ref(&fd), 10);
                let want = reference::fd::repair_fds(&r, std::slice::from_ref(&fd), 10);
                assert_eq!(got.relation, want.relation, "{what}: repaired relation");
                assert_eq!(got.iterations, want.iterations, "{what}: iterations");
                let as_set = |mut c: Vec<(usize, AttrId, Value)>| {
                    c.sort();
                    c
                };
                assert_eq!(
                    as_set(got.changes),
                    as_set(want.changes),
                    "{what}: repair changes"
                );
                assert_eq!(
                    Nud::new(s, x, y, 1).max_fanout(&r),
                    reference::fd::nud_max_fanout(&r, x, y),
                    "{what}: NUD fan-out"
                );
                for k in [1, 2] {
                    assert_eq!(
                        Nud::new(s, x, y, k).violations(&r),
                        reference::fd::nud_violations(&r, x, y, k),
                        "{what}: NUD k={k} witnesses"
                    );
                }
                let p = Pfd::from_fd(fd.clone()).probability(&r);
                let want_p = reference::fd::pfd_probability(&r, x, y);
                assert!((p - want_p).abs() <= 1e-12, "{what}: PFD {p} vs {want_p}");
            }
        }
    }
}

#[test]
fn grouped_checks_match_reference_on_every_attribute_pair() {
    for (label, r) in kernel_corpus() {
        let s = r.schema();
        let lhs_sets = all_subsets(&r).into_iter().filter(|x| x.len() <= 2);
        for x in lhs_sets {
            for a in s.ids() {
                let y = AttrSet::single(a);
                let what = format!("{label}: X = {x:?}, A = {a:?}");
                if !x.contains(a) {
                    mvd_family_matches_reference(&r, x, a, &what);
                }
                cfd_family_matches_reference(&r, x, a, &what);
                let metric = Metric::default_for(s.ty(a));
                for delta in [0.0, 1.0, 5.0] {
                    let m = Mfd::new(s, x, vec![(a, metric.clone(), delta)]);
                    assert_eq!(m.holds(&r), reference::mfd::holds(&r, &m), "{what}: {m}");
                    let want = reference::mfd::violations(&r, &m);
                    assert_eq!(m.violations(&r), want, "{what}: {m} witnesses");
                }
                for delta in [-1.0, 0.0, 1.0, 5.0, f64::NAN] {
                    assert_eq!(
                        mfd::approx_verify(&r, x, a, &metric, delta),
                        reference::mfd::approx_verify(&r, x, a, &metric, delta),
                        "{what}: MFD pivot verdict at δ = {delta}"
                    );
                }
                assert_eq!(
                    mfd::minimal_delta(&r, x, a, &metric),
                    reference::mfd::minimal_delta(&r, x, a, &metric),
                    "{what}: MFD minimal δ"
                );
                if let (Some(first), Some(last)) = (s.ids().next(), s.ids().last()) {
                    if r.n_rows() > 0 {
                        let q = cqa::SelectQuery {
                            attr: first,
                            value: r.value(0, first).clone(),
                            output: last,
                        };
                        let fd = Fd::new(s, x, y);
                        assert_eq!(
                            cqa::consistent_answers_fd(&r, &fd, &q),
                            reference::fd::consistent_answers_fd(&r, &fd, &q),
                            "{what}: consistent answers"
                        );
                    }
                }
            }
        }
    }
}

/// `X ↠ A`, its saturation and pruning repairs, and the FHD
/// `X : {A}, {B}` for the first other `B` outside `X`, against their
/// row-major references.
fn mvd_family_matches_reference(r: &Relation, x: AttrSet, a: AttrId, what: &str) {
    let s = r.schema();
    let mvd = Mvd::new(s, x, AttrSet::single(a));
    let spurious = mvd.spurious_tuples(r);
    assert_eq!(
        spurious,
        reference::mvd::spurious_tuples(r, &mvd),
        "{what}: {mvd} spurious"
    );
    assert_eq!(
        mvd.join_size(r),
        reference::mvd::join_size(r, &mvd),
        "{what}: {mvd} join"
    );
    let want = reference::mvd::violations(r, &mvd);
    assert_eq!(mvd.violations(r), want, "{what}: {mvd} witnesses");
    let z = mvd.z(r);
    let tuple = |(y_row, z_row): (usize, usize)| -> Vec<Value> {
        s.ids()
            .map(|b| {
                r.value(if z.contains(b) { z_row } else { y_row }, b)
                    .clone()
            })
            .collect()
    };
    let mut missing: Vec<Vec<Value>> = mvd.missing_tuples(r).into_iter().map(tuple).collect();
    missing.sort();
    let want = reference::mvd::missing_tuples(r, &mvd);
    assert_eq!(missing, want, "{what}: {mvd} missing tuples");
    assert_eq!(missing.len(), spurious, "{what}: {mvd} missing = spurious");
    let (saturated, inserted) = fairness::saturate(r, &mvd);
    let mut added: Vec<Vec<Value>> = (r.n_rows()..saturated.n_rows())
        .map(|row| saturated.row(row))
        .collect();
    added.sort();
    assert_eq!(
        (inserted, added),
        (want.len(), want),
        "{what}: {mvd} saturate"
    );
    assert_eq!(
        fairness::prune(r, &mvd),
        reference::mvd::prune(r, &mvd),
        "{what}: {mvd} prune"
    );
    if let Some(b) = s.ids().find(|&b| b != a && !x.contains(b)) {
        let fhd = Fhd::new(s, x, vec![AttrSet::single(a), AttrSet::single(b)]);
        assert_eq!(
            fhd.spurious_tuples(r),
            reference::mvd::fhd_spurious_tuples(r, &fhd),
            "{what}: {fhd} spurious"
        );
    }
}

/// `(X → A, t_p)` with `t_p` all variables, `X` bound to the first and to
/// the last row, and `A` bound too; and the eCFDs that bound `X`'s first
/// attribute by `≤` and `≠` instead.
/// CTANE scores every pattern candidate of an embedded FD on the groups
/// of `π_X` and their split flags; the reference counts support over all
/// rows and validates each candidate on its own.
#[test]
fn ctane_matches_reference_on_the_kernel_corpus() {
    let cfg = cfd::CfdConfig {
        min_support: 2,
        max_lhs: 2,
    };
    for (label, r) in kernel_corpus() {
        assert_eq!(
            cfd::ctane(&r, &cfg),
            reference::cfd::ctane(&r, &cfg),
            "{label}"
        );
    }
}

fn cfd_family_matches_reference(r: &Relation, x: AttrSet, a: AttrId, what: &str) {
    let s = r.schema();
    let (y, xa) = (AttrSet::single(a), x.insert(a));
    let mut patterns = vec![Pattern::all_any(xa)];
    let mut ecfds = Vec::new();
    for row in [0, r.n_rows().saturating_sub(1)]
        .into_iter()
        .filter(|&t| t < r.n_rows())
    {
        let bound = x.iter().fold(Pattern::all_any(xa), |p, b| {
            p.with_const(b, r.value(row, b).clone())
        });
        patterns.push(bound.clone().with_const(a, r.value(row, a).clone()));
        patterns.push(bound);
        if let Some(b) = x.min() {
            for op in [CmpOp::Leq, CmpOp::Neq] {
                let cells = vec![(b, PatternOp::Cmp(op, r.value(row, b).clone()))];
                ecfds.push(ECfd::new(s, x, y, cells));
            }
        }
    }
    for pattern in patterns {
        let cfd = Cfd::new(s, x, y, pattern);
        assert_eq!(
            cfd.holds(r),
            reference::cfd::cfd_holds(r, &cfd),
            "{what}: {cfd}"
        );
        let want = reference::cfd::cfd_violations(r, &cfd);
        assert_eq!(cfd.violations(r), want, "{what}: {cfd} witnesses");
        ecfds.push(ECfd::from_cfd(s, &cfd));
    }
    for ecfd in ecfds {
        let want = reference::cfd::ecfd_violations(r, &ecfd);
        assert_eq!(ecfd.violations(r), want, "{what}: {ecfd} witnesses");
    }
}
