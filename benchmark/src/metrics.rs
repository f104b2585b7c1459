//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! lists the same table; a test keeps the two in step.

use crate::stats::Better;

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user sees, measured with tracing off. Every workload reports
/// every one of these. There is no tail latency: on two shared cores a
/// window's p99 (and, for the CLI, its slowest invocation) moved by a
/// third between runs of the same code, more than any bound allows.
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("p50_ms", "ms", Better::Lower, 0.25),
    e2e("key_op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
];

/// Per-layer metrics from the traced run, named after the program's
/// modules. Counts come from the traced window; times from the
/// in-process layer suite, which every traced run executes in full.
pub const PER_LAYER: [Def; 58] = [
    // relation
    layer("relation.parse_ms", "ms"),
    layer_up("relation.partition_cache_hits", "count"),
    layer("relation.partition_cache_misses", "count"),
    layer_up("relation.partition_hit_ratio", "ratio"),
    layer_up("relation.radix_products", "count"),
    layer("relation.hash_products", "count"),
    layer("relation.dataset_bytes", "bytes"),
    // discovery
    layer("tane.ms", "ms"),
    layer("tane.base_partitions_ms", "ms"),
    layer("tane.products_ms", "ms"),
    layer("tane.level_self_ms", "ms"),
    layer("cords.ms", "ms"),
    layer("od.ms", "ms"),
    layer("fastdc.ms", "ms"),
    layer("dc.evidence_ms", "ms"),
    layer("profile.unspanned_ms", "ms"),
    // engine
    layer("engine.pool_batches", "count"),
    layer("engine.pool_items", "count"),
    layer("engine.pool_steals", "count"),
    layer("engine.budget_exhausted", "count"),
    // tasks (quality, core)
    layer("task.discover_orders_ms", "ms"),
    layer("task.discover_ledger_ms", "ms"),
    layer("task.validate_ms", "ms"),
    layer("task.detect_ms", "ms"),
    layer("task.dedup_ms", "ms"),
    layer("task.repair_ms", "ms"),
    layer("pairgen.candidate_pairs", "count"),
    // router
    layer("router.discover_overhead_ms", "ms"),
    layer("router.validate_overhead_ms", "ms"),
    layer("router.detect_overhead_ms", "ms"),
    layer("router.dedup_overhead_ms", "ms"),
    layer("router.repair_overhead_ms", "ms"),
    layer("router.admin_load_ms", "ms"),
    // json
    layer("json.render_us.discover", "us"),
    layer("json.render_us.validate", "us"),
    layer("json.render_us.detect", "us"),
    layer("json.render_us.dedup", "us"),
    layer("json.render_us.repair", "us"),
    layer("json.body_parse_us", "us"),
    layer("reply_bytes.discover", "bytes"),
    layer("reply_bytes.validate", "bytes"),
    layer("reply_bytes.detect", "bytes"),
    layer("reply_bytes.dedup", "bytes"),
    layer("reply_bytes.repair", "bytes"),
    // cache
    layer("cache.key_us", "us"),
    layer("cache.hit_respond_us", "us"),
    layer_up("cache.hits", "count"),
    layer("cache.misses", "count"),
    layer("cache.evictions", "count"),
    layer_up("cache.hit_ratio", "ratio"),
    layer("cache.bytes", "bytes"),
    // transport
    layer("transport.server_ms", "ms"),
    layer("transport.outside_server_ms", "ms"),
    layer_up("transport.requests_per_conn", "count"),
    layer("transport.shed", "count"),
    layer("transport.healthz_rtt_us", "us"),
    // cli
    layer("cli.overhead_ms", "ms"),
    layer("trace.overhead_frac", "ratio"),
];

/// Look a metric up by name in either table.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}
