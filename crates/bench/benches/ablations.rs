//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * TANE vs FastFD on wide-vs-long relations (the crossover the survey's
//!   discovery discussion implies);
//! * stripped-partition products vs direct grouping (TANE's key trick);
//! * CORDS cost vs table size (the "sample size independent of |r|"
//!   claim of §2.1.3);
//! * MFD exact O(k²) diameter vs O(k) pivot approximation (§3.1.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deptree_bench::{entity_workload, fd_workload};
use deptree_discovery::{cords, fastfd, mfd, tane};
use deptree_metrics::Metric;
use deptree_relation::{AttrSet, StrippedPartition};
use std::hint::black_box;

fn tane_vs_fastfd_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/tane_vs_fastfd");
    group.sample_size(10);
    // Long and narrow: many tuples, few attributes → FastFD pays n² pairs,
    // TANE's lattice is tiny.
    let long = fd_workload(3000, 4, 0.01);
    // Short and wide: few tuples, many attributes → TANE's lattice
    // explodes, FastFD's pair set is tiny.
    let wide = fd_workload(80, 14, 0.01);
    for (name, r) in [("long_narrow", &long), ("short_wide", &wide)] {
        group.bench_with_input(BenchmarkId::new("tane", name), r, |b, r| {
            b.iter(|| {
                tane::discover(
                    black_box(r),
                    &tane::TaneConfig {
                        max_lhs: r.n_attrs(),
                        max_error: 0.0,
                    },
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("fastfd", name), r, |b, r| {
            b.iter(|| fastfd::discover(black_box(r)))
        });
    }
    group.finish();
}

fn partition_product_vs_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/partition");
    group.sample_size(20);
    let r = fd_workload(5000, 6, 0.0);
    let a = deptree_relation::AttrId(0);
    let b_attr = deptree_relation::AttrId(1);
    let pa = StrippedPartition::from_column(&r, a);
    let pb = StrippedPartition::from_column(&r, b_attr);
    group.bench_function("product", |b| {
        b.iter(|| black_box(&pa).product(black_box(&pb)))
    });
    group.bench_function("direct_grouping", |b| {
        b.iter(|| StrippedPartition::from_attrs(black_box(&r), AttrSet::from_ids([a, b_attr])))
    });
    group.finish();
}

fn cords_sample_independence(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/cords_table_size");
    group.sample_size(10);
    for rows in [2_000usize, 8_000, 32_000] {
        let r = fd_workload(rows, 4, 0.0);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &r, |b, r| {
            b.iter(|| cords::discover(black_box(r), &cords::CordsConfig::default()))
        });
    }
    group.finish();
}

fn mfd_exact_vs_pivot(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/mfd_verification");
    group.sample_size(10);
    let data = entity_workload(400);
    let r = &data.relation;
    let s = r.schema();
    let rows: Vec<usize> = (0..r.n_rows()).collect();
    group.bench_function("exact_diameter", |b| {
        b.iter(|| mfd::exact_diameter(black_box(r), &rows, s.id("price"), &Metric::AbsDiff))
    });
    group.bench_function("pivot_radius", |b| {
        b.iter(|| mfd::pivot_radius(black_box(r), &rows, s.id("price"), &Metric::AbsDiff))
    });
    group.finish();
}

fn dc_evidence_builders(c: &mut Criterion) {
    use deptree_discovery::dc;
    let mut group = c.benchmark_group("ablation/dc_evidence");
    group.sample_size(10);
    let r = fd_workload(150, 5, 0.05);
    let preds = dc::predicate_space(&r);
    group.bench_function("naive_per_predicate", |b| {
        b.iter(|| {
            let mut stats = dc::FastDcStats::default();
            deptree_reference::dc::evidence_sets(black_box(&r), &preds, &mut stats)
        })
    });
    group.bench_function("grouped_bfastdc_style", |b| {
        b.iter(|| {
            let mut stats = dc::FastDcStats::default();
            deptree_reference::dc::evidence_sets_grouped(black_box(&r), &preds, &mut stats)
        })
    });
    group.finish();
}

fn dc_full_vs_hydra(c: &mut Criterion) {
    use deptree_discovery::dc;
    let mut group = c.benchmark_group("ablation/dc_search");
    group.sample_size(10);
    // Regular data: few distinct evidence sets, Hydra's sweet spot.
    let r = fd_workload(120, 4, 0.0);
    let cfg = dc::DcConfig {
        max_predicates: 3,
        approx_epsilon: 0.0,
    };
    group.bench_function("fastdc_full_evidence", |b| {
        b.iter(|| dc::discover(black_box(&r), &cfg))
    });
    group.bench_function("hydra_sampled", |b| {
        b.iter(|| dc::discover_hydra(black_box(&r), &cfg, 20))
    });
    group.finish();
}

criterion_group!(
    benches,
    tane_vs_fastfd_shape,
    partition_product_vs_grouping,
    cords_sample_independence,
    mfd_exact_vs_pivot,
    dc_evidence_builders,
    dc_full_vs_hydra
);
criterion_main!(benches);
