//! Pairwise-scan scaling: naive `O(n²)` pair loops vs the blocking /
//! similarity-index paths, on selective-predicate synthetics at
//! 10k/50k/100k rows, for the three workloads the index machinery was
//! built for — MD discovery, FASTDC evidence-set construction, and MD
//! dedup clustering.  Results (wall-clock, speedups, identity checks) are
//! written to `BENCH_pairwise.json`.
//!
//! ```sh
//! cargo run --release -p deptree-reference --bin pairwise_scaling             # 10k/50k/100k
//! cargo run --release -p deptree-reference --bin pairwise_scaling -- --smoke  # tiny, CI gate
//! cargo run --release -p deptree-reference --bin pairwise_scaling -- --smoke --trace-out spans.jsonl
//! ```
//!
//! `--trace-out` attaches a tracer to the timed indexed runs and writes
//! their phase spans (`pairs.blocks` etc.) as JSONL.
//!
//! Every indexed result is asserted byte-identical to its naive baseline
//! (and identical at 1 vs 8 threads); the run aborts on any mismatch.
//! Naive baselines above [`NAIVE_CAP`] rows are skipped (recorded as
//! `null`): a 100k-row naive scan is 5·10⁹ pairs and exists only to be
//! avoided.  The FASTDC baseline at 50k is
//! [`deptree_reference::dc::evidence_sets_grouped`] — itself a full Θ(n²)
//! pair scan, just with bitwise predicate reuse — while the plain
//! per-predicate scan is additionally timed up to [`PLAIN_DC_CAP`] rows.
//! The naive baselines are the `deptree_reference` oracles.

use deptree_core::engine::obs::Tracer;
use deptree_core::engine::Exec;
use deptree_core::Md;
use deptree_discovery::dc::{self, FastDcStats};
use deptree_discovery::md::{self, MdConfig};
use deptree_metrics::Metric;
use deptree_quality::dedup;
use deptree_reference as reference;
use deptree_relation::{AttrSet, Relation, RelationBuilder, Value, ValueType};
use deptree_synth::{entities, EntitiesConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Largest size the naive baselines run at.
const NAIVE_CAP: usize = 50_000;
/// Largest size the per-predicate (ungrouped) FASTDC scan runs at.
const PLAIN_DC_CAP: usize = 10_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tracer = trace_out.as_ref().map(|_| Arc::new(Tracer::new()));
    let sizes: &[usize] = if smoke {
        &[300, 800]
    } else {
        &[10_000, 50_000, 100_000]
    };
    let mut rows_json = Vec::new();
    for &n in sizes {
        println!("== {n} rows ==");
        let mut obj = format!("    {{\n      \"rows\": {n}");
        bench_md(n, &mut obj, tracer.as_ref());
        bench_dc(n, &mut obj, tracer.as_ref());
        bench_dedup(n, &mut obj, tracer.as_ref());
        obj.push_str("\n    }");
        rows_json.push(obj);
    }
    if let (Some(path), Some(tracer)) = (&trace_out, &tracer) {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {} trace spans to {path}", tracer.spans().len());
    }
    let json = format!(
        "{{\n  \"bench\": \"pairwise_scaling\",\n  \"mode\": \"{}\",\n  \"naive_cap_rows\": {NAIVE_CAP},\n  \"sizes\": [\n{}\n  ]\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows_json.join(",\n"),
    );
    if smoke {
        println!("{json}");
        println!("smoke: indexed ≡ reference on every workload");
    } else {
        if let Err(e) = std::fs::write("BENCH_pairwise.json", &json) {
            eprintln!("error: cannot write BENCH_pairwise.json: {e}");
            std::process::exit(2);
        }
        println!("wrote BENCH_pairwise.json");
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn push_metric(obj: &mut String, name: &str, naive_ms: Option<f64>, indexed_ms: f64) {
    let speedup = naive_ms.map(|nv| nv / indexed_ms.max(1e-9));
    // Writing into a String is infallible.
    let _ = write!(
        obj,
        ",\n      \"{name}\": {{\"naive_ms\": {}, \"indexed_ms\": {indexed_ms:.3}, \"speedup\": {}, \"identical\": true}}",
        naive_ms.map_or("null".into(), |v| format!("{v:.3}")),
        speedup.map_or("null".into(), |v| format!("{v:.2}")),
    );
}

/// The indexed runs' executor, with the shared tracer attached when
/// `--trace-out` asked for one.
fn exec_with(threads: usize, tracer: Option<&Arc<Tracer>>) -> Exec {
    let exec = Exec::unbounded().with_threads(threads);
    match tracer {
        Some(t) => exec.with_tracer(Arc::clone(t)),
        None => exec,
    }
}

/// Finish a builder whose shape is fixed by the code above it; arity
/// mistakes are programmer errors, reported without a panic/backtrace.
fn built(b: RelationBuilder) -> Relation {
    match b.build() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: internal workload builder produced an invalid relation: {e}");
            std::process::exit(4);
        }
    }
}

/// Two selective numeric key columns plus a correlated dependent column —
/// the MD-discovery workload (all predicates band/equality ⇒ countable).
fn md_relation(n: usize) -> Relation {
    let mut b = RelationBuilder::new()
        .attr("a", ValueType::Numeric)
        .attr("b", ValueType::Numeric)
        .attr("c", ValueType::Numeric);
    for i in 0..n as i64 {
        b = b.row(vec![
            Value::int(i % 50),
            Value::int((i / 50) % 40),
            Value::int((i % 50) * 2 + i % 7),
        ]);
    }
    built(b)
}

fn render_mds(found: &[md::ScoredMd]) -> Vec<(String, u64, u64)> {
    found
        .iter()
        .map(|s| {
            (
                s.md.to_string(),
                s.support.to_bits(),
                s.confidence.to_bits(),
            )
        })
        .collect()
}

fn bench_md(n: usize, obj: &mut String, tracer: Option<&Arc<Tracer>>) {
    let r = md_relation(n);
    let rhs = AttrSet::single(r.schema().id("c"));
    let cfg = MdConfig {
        min_support: 0.001,
        min_confidence: 0.5,
        thresholds_per_attr: 1,
        max_lhs: 1,
    };
    let t0 = Instant::now();
    let fast = md::discover_bounded(&r, rhs, &cfg, &exec_with(1, tracer)).result;
    let indexed_ms = ms(t0.elapsed());
    let fast8 = md::discover_bounded(&r, rhs, &cfg, &Exec::unbounded().with_threads(8)).result;
    assert_eq!(
        render_mds(&fast),
        render_mds(&fast8),
        "MD discovery differs at 1 vs 8 threads"
    );
    let naive_ms = (n <= NAIVE_CAP).then(|| {
        let t0 = Instant::now();
        let slow = reference::md::discover(&r, rhs, &cfg);
        let elapsed = ms(t0.elapsed());
        assert_eq!(
            render_mds(&fast),
            render_mds(&slow),
            "indexed MD discovery differs from naive"
        );
        elapsed
    });
    println!(
        "  md_discovery : naive {}  indexed {indexed_ms:9.1}ms  ({} rules)",
        naive_ms.map_or("   skipped".into(), |v| format!("{v:9.1}ms")),
        fast.len()
    );
    push_metric(obj, "md_discovery", naive_ms, indexed_ms);
}

/// Two small-domain numeric columns — ≤1000 distinct tuples at any size,
/// so distinct-tuple blocking collapses the evidence scan.
fn dc_relation(n: usize) -> Relation {
    let mut b = RelationBuilder::new()
        .attr("x", ValueType::Numeric)
        .attr("y", ValueType::Numeric);
    for i in 0..n as i64 {
        b = b.row(vec![Value::int(i % 40), Value::int((i * 7) % 25)]);
    }
    built(b)
}

fn bench_dc(n: usize, obj: &mut String, tracer: Option<&Arc<Tracer>>) {
    let r = dc_relation(n);
    let preds = dc::predicate_space(&r);
    let mut stats = FastDcStats::default();
    let t0 = Instant::now();
    let (blocked, complete) =
        dc::evidence_sets_blocked(&r, &preds, &mut stats, &exec_with(1, tracer));
    let indexed_ms = ms(t0.elapsed());
    assert!(complete);
    let mut stats8 = FastDcStats::default();
    let (blocked8, _) =
        dc::evidence_sets_blocked(&r, &preds, &mut stats8, &Exec::unbounded().with_threads(8));
    assert_eq!(blocked, blocked8, "DC evidence differs at 1 vs 8 threads");
    assert_eq!(stats.pairs_evaluated, stats8.pairs_evaluated);
    let naive_ms = (n <= NAIVE_CAP).then(|| {
        let mut gstats = FastDcStats::default();
        let t0 = Instant::now();
        let grouped = reference::dc::evidence_sets_grouped(&r, &preds, &mut gstats);
        let elapsed = ms(t0.elapsed());
        assert_eq!(blocked, grouped, "blocked DC evidence differs from naive");
        assert_eq!(stats.pairs_evaluated, gstats.pairs_evaluated);
        elapsed
    });
    let plain_ms = (n <= PLAIN_DC_CAP).then(|| {
        let mut pstats = FastDcStats::default();
        let t0 = Instant::now();
        let plain = reference::dc::evidence_sets(&r, &preds, &mut pstats);
        let elapsed = ms(t0.elapsed());
        assert_eq!(blocked, plain, "blocked DC evidence differs from plain");
        elapsed
    });
    println!(
        "  dc_evidence  : naive {}  indexed {indexed_ms:9.1}ms  ({} evidence sets)",
        naive_ms.map_or("   skipped".into(), |v| format!("{v:9.1}ms")),
        blocked.len()
    );
    push_metric(obj, "dc_evidence", naive_ms, indexed_ms);
    let _ = write!(
        obj,
        ",\n      \"dc_evidence_plain_ms\": {}",
        plain_ms.map_or("null".into(), |v| format!("{v:.3}")),
    );
}

fn bench_dedup(n: usize, obj: &mut String, tracer: Option<&Arc<Tracer>>) {
    let cfg = EntitiesConfig {
        n_entities: (n / 2).max(4),
        max_duplicates: 3,
        variety: 0.6,
        error_rate: 0.02,
        seed: 20260806,
    };
    let data = entities::generate(&cfg, &mut deptree_synth::rng(cfg.seed));
    let r = &data.relation;
    let s = r.schema();
    let mds = vec![
        Md::new(
            s,
            vec![(s.id("zip"), Metric::Equality, 0.0)],
            AttrSet::single(s.id("name")),
        ),
        Md::new(
            s,
            vec![(s.id("price"), Metric::AbsDiff, 5.0)],
            AttrSet::single(s.id("name")),
        ),
    ];
    let t0 = Instant::now();
    let fast = dedup::cluster(r, &mds);
    let indexed_ms = ms(t0.elapsed());
    let fast2 = dedup::cluster_bounded(r, &mds, &exec_with(8, tracer)).result;
    assert_eq!(
        fast.cluster, fast2.cluster,
        "dedup differs at 1 vs 8 threads"
    );
    let naive_ms = (r.n_rows() <= NAIVE_CAP).then(|| {
        let t0 = Instant::now();
        let slow = reference::dedup::cluster(r, &mds);
        let elapsed = ms(t0.elapsed());
        assert_eq!(
            fast.cluster, slow.cluster,
            "indexed dedup differs from naive"
        );
        elapsed
    });
    println!(
        "  dedup        : naive {}  indexed {indexed_ms:9.1}ms  ({} rows, {} clusters)",
        naive_ms.map_or("   skipped".into(), |v| format!("{v:9.1}ms")),
        r.n_rows(),
        fast.n_clusters
    );
    push_metric(obj, "dedup_cluster", naive_ms, indexed_ms);
    let _ = write!(obj, ",\n      \"dedup_rows\": {}", r.n_rows());
}
