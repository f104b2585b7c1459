//! Parallel discovery must be invisible in the output.
//!
//! Every parallelized miner is pinned three ways:
//!
//! 1. against *frozen snapshots* of the pre-parallelization serial
//!    implementation (captured from the tree before the engine pool
//!    existed), so the port provably changed the schedule and nothing
//!    else;
//! 2. across thread counts 1, 2 and 8, which must agree bit-for-bit;
//! 3. under tight node/row budgets, where the reservation scheme
//!    guarantees the *anytime prefix* is also identical at every thread
//!    count — and still sound — and, for TANE, under partition-memory
//!    caps, which it charges in canonical order.
//!
//! Deadline budgets cut off at a timing-dependent point by design, so for
//! those only soundness (not bit-equality) is asserted.

use deptree::core::engine::{Budget, BudgetKind, Exec};
use deptree::core::Dependency;
use deptree::discovery::{cfd, ecfd, fastfd, nud, pfd, tane};
use deptree::relation::examples::{hotels_r1, hotels_r5, hotels_r6, hotels_r7};
use deptree::relation::Relation;
use deptree::synth::{categorical, CategoricalConfig};

const THREADS: [usize; 3] = [1, 2, 8];

fn exec(budget: Budget, threads: usize) -> Exec {
    Exec::new(budget).with_threads(threads)
}

/// The pre-parallelization TANE/FastFD minimal cover of r1.
fn r1_full() -> Vec<&'static str> {
    vec![
        "FD: name -> address",
        "FD: name -> region",
        "FD: name -> star",
        "FD: name -> price",
        "FD: address -> star",
        "FD: address -> price",
        "FD: region -> address",
        "FD: region -> star",
        "FD: region -> price",
        "FD: price -> address",
        "FD: price -> star",
    ]
}

/// The pre-parallelization TANE/FastFD minimal cover of r6.
fn r6_full() -> Vec<&'static str> {
    vec![
        "FD: street -> source",
        "FD: street -> region",
        "FD: street -> zip",
        "FD: address -> source",
        "FD: address -> name",
        "FD: address -> street",
        "FD: address -> region",
        "FD: address -> zip",
        "FD: address -> price",
        "FD: address -> tax",
        "FD: region -> zip",
        "FD: zip -> region",
        "FD: price -> name",
        "FD: price -> region",
        "FD: price -> zip",
        "FD: price -> tax",
        "FD: tax -> name",
        "FD: tax -> region",
        "FD: tax -> zip",
        "FD: tax -> price",
        "FD: name, street -> address",
        "FD: name, street -> price",
        "FD: name, street -> tax",
        "FD: source, region -> street",
        "FD: name, region -> price",
        "FD: name, region -> tax",
        "FD: source, zip -> street",
        "FD: name, zip -> price",
        "FD: name, zip -> tax",
        "FD: source, price -> street",
        "FD: source, price -> address",
        "FD: street, price -> address",
        "FD: source, tax -> street",
        "FD: source, tax -> address",
        "FD: street, tax -> address",
        "FD: source, name, region -> address",
        "FD: source, name, zip -> address",
    ]
}

fn r7_full() -> Vec<&'static str> {
    vec![
        "FD: nights -> avg/night",
        "FD: nights -> subtotal",
        "FD: nights -> taxes",
        "FD: avg/night -> nights",
        "FD: avg/night -> subtotal",
        "FD: avg/night -> taxes",
        "FD: subtotal -> nights",
        "FD: subtotal -> avg/night",
        "FD: subtotal -> taxes",
        "FD: taxes -> nights",
        "FD: taxes -> avg/night",
        "FD: taxes -> subtotal",
    ]
}

#[test]
fn tane_matches_pre_parallel_snapshots_at_every_thread_count() {
    let cases: [(&str, Relation, Vec<&str>); 4] = [
        ("r1", hotels_r1(), r1_full()),
        (
            "r5",
            hotels_r5(),
            vec![
                "FD:  -> name",
                "FD: region -> address",
                "FD: rate -> address",
            ],
        ),
        ("r6", hotels_r6(), r6_full()),
        ("r7", hotels_r7(), r7_full()),
    ];
    for (label, r, want) in cases {
        for t in THREADS {
            let out =
                tane::discover_bounded(&r, &tane::TaneConfig::default(), &exec(Budget::new(), t));
            assert!(out.complete);
            let got: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
            assert_eq!(got, want, "TANE {label} at {t} thread(s)");
        }
    }
}

#[test]
fn fastfd_matches_pre_parallel_snapshots_at_every_thread_count() {
    let cases: [(&str, Relation, Vec<&str>); 3] = [
        ("r1", hotels_r1(), r1_full()),
        ("r6", hotels_r6(), r6_full()),
        ("r7", hotels_r7(), r7_full()),
    ];
    for (label, r, want) in cases {
        for t in THREADS {
            let out = fastfd::discover_bounded(&r, &exec(Budget::new(), t));
            assert!(out.complete);
            let got: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
            assert_eq!(got, want, "FastFD {label} at {t} thread(s)");
        }
    }
}

#[test]
fn tane_anytime_prefix_is_frozen_under_node_budget() {
    // Pre-parallelization serial outputs under `max_nodes = 4`.
    let cases: [(&str, Relation, bool, Vec<&str>); 4] = [
        ("r1", hotels_r1(), false, vec![]),
        ("r5", hotels_r5(), false, vec!["FD:  -> name"]),
        ("r6", hotels_r6(), false, vec![]),
        ("r7", hotels_r7(), true, r7_full()),
    ];
    for (label, r, complete, want) in cases {
        for t in THREADS {
            let out = tane::discover_bounded(
                &r,
                &tane::TaneConfig::default(),
                &exec(Budget::new().with_max_nodes(4), t),
            );
            assert_eq!(out.complete, complete, "TANE {label} completeness at {t}");
            let got: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
            assert_eq!(got, want, "TANE {label} bounded prefix at {t} thread(s)");
            for fd in &out.result.fds {
                assert!(fd.holds(&r), "TANE {label}: unsound anytime FD {fd}");
            }
        }
    }
}

#[test]
fn tane_memory_budget_cuts_identically_at_every_thread_count() {
    // TANE charges each partition it stores, in canonical order, and
    // releases a lattice level whole when it drops it, so a partition-
    // memory cap stops the walk at the same stored partition at every
    // thread count. Caps are fractions of the uncapped run's peak, so
    // they cut the lattice at different levels.
    let mut tables = vec![
        ("r1".to_string(), hotels_r1()),
        ("r5".to_string(), hotels_r5()),
        ("r6".to_string(), hotels_r6()),
        ("r7".to_string(), hotels_r7()),
    ];
    for seed in [3u64, 17, 42] {
        let cfg = CategoricalConfig {
            n_rows: 150,
            n_key_attrs: 2,
            n_dep_attrs: 3,
            domain: 5,
            error_rate: 0.05,
            seed,
        };
        let r = categorical::generate(&cfg, &mut deptree::synth::rng(seed)).relation;
        tables.push((format!("synthetic {seed}"), r));
    }
    let cfg = tane::TaneConfig::default();
    let mut most_cuts = 0;
    for (label, r) in &tables {
        let peak = tane::discover_bounded(r, &cfg, &exec(Budget::new(), 1))
            .stats
            .partition_bytes_peak;
        // Where in the lattice each cap cut.
        let mut visited_per_cap = Vec::new();
        for cap in [1, peak / 4, peak / 2, peak * 3 / 4, peak - 1, peak] {
            let runs: Vec<_> = THREADS
                .iter()
                .map(|&t| {
                    let budget = Budget::new().with_max_partition_bytes(cap);
                    let out = tane::discover_bounded(r, &cfg, &exec(budget, t));
                    let fds: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
                    for fd in &out.result.fds {
                        assert!(fd.holds(r), "{label}/{cap}: unsound FD {fd} at {t}");
                    }
                    let visited = out.result.stats.nodes_visited;
                    (
                        fds,
                        visited,
                        out.complete,
                        out.exhausted,
                        out.stats.partition_bytes_peak,
                    )
                })
                .collect();
            assert_eq!(runs[0], runs[1], "{label}/{cap}: 1 vs 2 threads");
            assert_eq!(runs[0], runs[2], "{label}/{cap}: 1 vs 8 threads");
            let (_, visited, complete, exhausted, _) = runs.into_iter().next().unwrap_or_default();
            assert_eq!(complete, cap >= peak, "{label}/{cap}: completeness");
            let memory = (!complete).then_some(BudgetKind::Memory);
            assert_eq!(exhausted, memory, "{label}/{cap}: binding budget");
            visited_per_cap.push(visited);
        }
        visited_per_cap.dedup();
        assert!(
            visited_per_cap.len() >= 2,
            "{label}: no cap cut the lattice"
        );
        most_cuts = most_cuts.max(visited_per_cap.len());
    }
    assert!(
        most_cuts >= 4,
        "no table was cut at two levels inside its lattice"
    );
}

#[test]
fn fastfd_anytime_prefix_is_frozen_under_row_budget() {
    // Pre-parallelization serial outputs under row budgets. A truncated
    // pair scan under-constrains the covers, and post-verification culls
    // the bogus ones — on these tables down to nothing.
    let cases: [(&str, Relation, u64, bool, Vec<&str>); 4] = [
        ("r1", hotels_r1(), 12, false, vec![]),
        ("r1", hotels_r1(), 30, true, r1_full()),
        ("r6", hotels_r6(), 10, false, vec![]),
        ("r6", hotels_r6(), 25, true, r6_full()),
    ];
    for (label, r, rows, complete, want) in cases {
        for t in THREADS {
            let out = fastfd::discover_bounded(&r, &exec(Budget::new().with_max_rows(rows), t));
            assert_eq!(
                out.complete, complete,
                "FastFD {label}/{rows} completeness at {t}"
            );
            let got: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
            assert_eq!(got, want, "FastFD {label}/{rows} at {t} thread(s)");
        }
    }
}

#[test]
fn pfd_matches_pre_parallel_snapshots() {
    let r = hotels_r5();
    let cfg = pfd::PfdConfig {
        min_probability: 0.7,
        max_lhs: 2,
    };
    let full = vec![
        "PFD(p≥0.7): address -> name",
        "PFD(p≥0.7): address -> region",
        "PFD(p≥0.7): address -> rate",
        "PFD(p≥0.7): region -> name",
        "PFD(p≥0.7): region -> address",
        "PFD(p≥0.7): region -> rate",
        "PFD(p≥0.7): rate -> name",
        "PFD(p≥0.7): rate -> address",
        "PFD(p≥0.7): rate -> region",
    ];
    // max_nodes = 9 cuts the first level after its ninth candidate.
    let bounded = &full[..6];
    for t in THREADS {
        let out = pfd::discover_bounded(&r, &cfg, &exec(Budget::new(), t));
        assert!(out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, full, "PFD full at {t} thread(s)");

        let out = pfd::discover_bounded(&r, &cfg, &exec(Budget::new().with_max_nodes(9), t));
        assert!(!out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, bounded, "PFD bounded prefix at {t} thread(s)");
    }
}

#[test]
fn nud_matches_pre_parallel_snapshots() {
    let r = hotels_r5();
    let cfg = nud::NudConfig {
        max_lhs: 2,
        max_k: 5,
    };
    let full = vec![
        "NUD(k=2): name -> address",
        "NUD(k=3): name -> region",
        "NUD(k=3): name -> rate",
        "NUD(k=1): address -> name",
        "NUD(k=2): address -> region",
        "NUD(k=2): address -> rate",
        "NUD(k=1): region -> name",
        "NUD(k=1): region -> address",
        "NUD(k=2): region -> rate",
        "NUD(k=1): rate -> name",
        "NUD(k=1): rate -> address",
        "NUD(k=2): rate -> region",
    ];
    for t in THREADS {
        let out = nud::discover_bounded(&r, &cfg, &exec(Budget::new(), t));
        assert!(out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, full, "NUD full at {t} thread(s)");

        // 13 nodes stop mid-way through the 2-attribute candidates, all of
        // which the 1-attribute results dominate: same list, incomplete.
        let out = nud::discover_bounded(&r, &cfg, &exec(Budget::new().with_max_nodes(13), t));
        assert!(!out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, full, "NUD bounded prefix at {t} thread(s)");
    }
}

#[test]
fn ctane_matches_pre_parallel_snapshots() {
    let r = hotels_r6();
    let cfg = cfd::CfdConfig {
        min_support: 2,
        max_lhs: 1,
    };
    let full = vec![
        "CFD: street=_ -> source=_",
        "CFD: street=_ -> region=_",
        "CFD: street=_ -> zip=_",
        "CFD: address=_ -> source=_",
        "CFD: address=_ -> name=_",
        "CFD: address=_ -> street=_",
        "CFD: address=_ -> region=_",
        "CFD: address=_ -> zip=_",
        "CFD: address=_ -> price=_",
        "CFD: address=_ -> tax=_",
        "CFD: region=New York -> source=_",
        "CFD: region=New York -> street=_",
        "CFD: region=_ -> zip=_",
        "CFD: zip=10041 -> source=_",
        "CFD: zip=10041 -> street=_",
        "CFD: zip=_ -> region=_",
        "CFD: price=_ -> name=_",
        "CFD: price=_ -> region=_",
        "CFD: price=_ -> zip=_",
        "CFD: price=_ -> tax=_",
        "CFD: tax=_ -> name=_",
        "CFD: tax=_ -> region=_",
        "CFD: tax=_ -> zip=_",
        "CFD: tax=_ -> price=_",
    ];
    for t in THREADS {
        let out = cfd::ctane_bounded(&r, &cfg, &exec(Budget::new(), t));
        assert!(out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, full, "CTANE full at {t} thread(s)");

        // The first 40 pattern candidates all fail support or validity.
        let out = cfd::ctane_bounded(&r, &cfg, &exec(Budget::new().with_max_nodes(40), t));
        assert!(!out.complete);
        assert!(
            out.result.is_empty(),
            "CTANE bounded prefix at {t} thread(s)"
        );
    }
}

#[test]
fn ecfd_matches_pre_parallel_snapshots() {
    let r = hotels_r5();
    let cfg = ecfd::ECfdConfig::default();
    let full = vec![
        "eCFD: name=_, rate ≤189 -> address=_",
        "eCFD: name=_, rate >189 -> address=_",
        "eCFD: name=_, rate >189 -> region=_",
        "eCFD: address=_, rate >189 -> region=_",
        "eCFD: name=_, rate ≤230 -> address=_",
        "eCFD: name=_, rate ≤250 -> address=_",
    ];
    for t in THREADS {
        let out = ecfd::discover_bounded(&r, &cfg, &exec(Budget::new(), t));
        assert!(out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, full, "eCFD full at {t} thread(s)");

        // All six rules live in the first 25 candidates; the cut is
        // visible only in the completeness flag.
        let out = ecfd::discover_bounded(&r, &cfg, &exec(Budget::new().with_max_nodes(25), t));
        assert!(!out.complete);
        let got: Vec<String> = out.result.iter().map(|x| x.to_string()).collect();
        assert_eq!(got, full, "eCFD bounded prefix at {t} thread(s)");
    }
}

#[test]
fn all_miners_agree_across_thread_counts_on_synthetics() {
    // Beyond the frozen tables: seeded synthetics, full and budgeted,
    // every miner, threads 1/2/8 must be bit-identical.
    for seed in [3u64, 17, 42] {
        let cfg = CategoricalConfig {
            n_rows: 150,
            n_key_attrs: 2,
            n_dep_attrs: 3,
            domain: 5,
            error_rate: 0.05,
            seed,
        };
        let r = categorical::generate(&cfg, &mut deptree::synth::rng(seed)).relation;
        for budget in [
            Budget::new(),
            Budget::new().with_max_nodes(7),
            Budget::new().with_max_rows(900),
        ] {
            let runs: Vec<Vec<String>> = THREADS
                .iter()
                .map(|&t| {
                    let mut lines: Vec<String> = Vec::new();
                    let tn = tane::discover_bounded(
                        &r,
                        &tane::TaneConfig::default(),
                        &exec(budget.clone(), t),
                    );
                    lines.push(format!("tane complete={}", tn.complete));
                    lines.extend(tn.result.fds.iter().map(|f| f.to_string()));
                    let ff = fastfd::discover_bounded(&r, &exec(budget.clone(), t));
                    lines.push(format!("fastfd complete={}", ff.complete));
                    lines.extend(ff.result.fds.iter().map(|f| f.to_string()));
                    let pf = pfd::discover_bounded(
                        &r,
                        &pfd::PfdConfig::default(),
                        &exec(budget.clone(), t),
                    );
                    lines.push(format!("pfd complete={}", pf.complete));
                    lines.extend(pf.result.iter().map(|x| x.to_string()));
                    let nu = nud::discover_bounded(
                        &r,
                        &nud::NudConfig::default(),
                        &exec(budget.clone(), t),
                    );
                    lines.push(format!("nud complete={}", nu.complete));
                    lines.extend(nu.result.iter().map(|x| x.to_string()));
                    let ct = cfd::ctane_bounded(
                        &r,
                        &cfd::CfdConfig {
                            min_support: 2,
                            max_lhs: 1,
                        },
                        &exec(budget.clone(), t),
                    );
                    lines.push(format!("ctane complete={}", ct.complete));
                    lines.extend(ct.result.iter().map(|x| x.to_string()));
                    lines
                })
                .collect();
            assert_eq!(runs[0], runs[1], "seed {seed}: 1 vs 2 threads");
            assert_eq!(runs[0], runs[2], "seed {seed}: 1 vs 8 threads");
        }
    }
}

#[test]
fn deadline_budget_stays_sound_at_every_thread_count() {
    // A deadline cuts off wherever the clock lands — output equality is
    // not promised, soundness of every emitted dependency is.
    let cfg = CategoricalConfig {
        n_rows: 400,
        n_key_attrs: 3,
        n_dep_attrs: 4,
        domain: 4,
        error_rate: 0.02,
        seed: 99,
    };
    let r = categorical::generate(&cfg, &mut deptree::synth::rng(cfg.seed)).relation;
    for t in THREADS {
        let budget = Budget::new().with_deadline(std::time::Duration::from_millis(5));
        let out = tane::discover_bounded(&r, &tane::TaneConfig::default(), &exec(budget, t));
        for fd in &out.result.fds {
            assert!(
                fd.holds(&r),
                "deadline run emitted unsound {fd} at {t} threads"
            );
        }
    }
}
