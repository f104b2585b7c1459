//! The benchmark's inputs are pinned, seeds only relabel them, and
//! `BENCHMARK.json` lists exactly the metrics the code reports.

use deptree::serve::Json;
use deptree_benchmark::inputs::{self, fnv1a, Table, FULL};
use deptree_benchmark::metrics::{Def, END_TO_END, PER_LAYER};
use deptree_benchmark::workloads::Workload;
use deptree_benchmark::RUN_SECONDS;
use std::collections::HashMap;

#[test]
fn default_seed_tables_are_pinned() {
    let digests = [
        fnv1a(inputs::wide(1, FULL.wide).csv.as_bytes()),
        fnv1a(inputs::orders(1, FULL.orders).csv.as_bytes()),
        fnv1a(inputs::ledger(1, FULL.ledger).csv.as_bytes()),
    ];
    assert_eq!(
        digests,
        [
            0x5c8b_b673_887b_855b,
            0xd5c7_88e1_9749_fa4b,
            0x2bb9_8233_56ec_8477
        ],
        "{digests:#018x?}"
    );
}

#[test]
fn default_seed_request_cycles_are_pinned() {
    let reqs = inputs::requests(&inputs::orders(1, FULL.orders));
    let digest = |cycle: &[usize]| {
        let mut bytes = Vec::new();
        for &i in cycle {
            bytes.extend_from_slice(reqs[i].kind.path().as_bytes());
            bytes.push(b' ');
            bytes.extend_from_slice(reqs[i].body.as_bytes());
            bytes.push(b'\n');
        }
        fnv1a(&bytes)
    };
    let digests = [
        digest(&inputs::UNCACHED_CYCLE),
        digest(&inputs::CACHED_CYCLE),
        digest(&inputs::READ_WRITE_CYCLE),
    ];
    assert_eq!(
        digests,
        [
            0xc2bd_a804_0cc8_dd12,
            0x0819_9814_9c55_4161,
            0x25ba_7d7e_c8d1_1e93
        ],
        "{digests:#018x?}"
    );
}

/// Per column, the sorted frequencies of its values: equal for two
/// tables exactly when each column's values can be relabelled into the
/// other's.
fn column_shapes(t: &Table) -> Vec<Vec<usize>> {
    let mut lines = t.csv.lines();
    let width = lines.next().map_or(0, |h| h.split(',').count());
    let mut counts: Vec<HashMap<&str, usize>> = vec![HashMap::new(); width];
    for line in lines {
        for (col, cell) in line.split(',').enumerate() {
            *counts[col].entry(cell).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| {
            let mut f: Vec<usize> = c.into_values().collect();
            f.sort_unstable();
            f
        })
        .collect()
}

#[test]
fn seeds_relabel_but_keep_the_shape() {
    let pairs = [
        (inputs::wide(1, 5_000), inputs::wide(2, 5_000)),
        (inputs::orders(1, 5_000), inputs::orders(2, 5_000)),
        (inputs::ledger(1, 200), inputs::ledger(2, 200)),
    ];
    for (a, b) in pairs {
        assert_ne!(a.csv, b.csv, "{}: seeds must change the bytes", a.name);
        assert_eq!(a.csv.lines().count(), b.csv.lines().count(), "{}", a.name);
        assert_eq!(column_shapes(&a), column_shapes(&b), "{}", a.name);
    }
}

#[test]
fn the_write_fits_the_server_body_cap() {
    let reqs = inputs::requests(&inputs::orders(1, FULL.orders));
    assert!(reqs[inputs::WRITE].body.len() < 1 << 20);
}

fn check_defs(listed: &Json, defs: &[Def]) {
    let listed = listed.as_arr().expect("a metric list");
    assert_eq!(listed.len(), defs.len());
    for (json, def) in listed.iter().zip(defs) {
        assert_eq!(json.str_field("name"), Some(def.name));
        assert_eq!(json.str_field("unit"), Some(def.unit), "{}", def.name);
        assert_eq!(
            json.str_field("better"),
            Some(def.better.word()),
            "{}",
            def.name
        );
        assert_eq!(json.f64_field("bound"), def.bound, "{}", def.name);
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("valid JSON");
    assert_eq!(doc.u64_field("run_seconds"), Some(RUN_SECONDS));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.str_field("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    check_defs(doc.get("end_to_end").expect("end_to_end"), &END_TO_END);
    check_defs(doc.get("per_layer").expect("per_layer"), &PER_LAYER);
}
