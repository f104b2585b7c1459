//! The traced run's layer suite. Every traced run executes all of it, on
//! the run's own seed, so every per-layer time is measured in every
//! workload; the counts come from the workload's own window.
//!
//! Times come from the benchmark's own spans around calls into each
//! layer's public functions (`parse_csv`, `tasks::*`, `router::handle`,
//! `AppState::cache_key`, `Service::respond`, `Json::parse`/`render`)
//! and from the spans the program already emits under
//! `Exec::with_tracer` and the CLI's `--trace-out`.

use crate::expected;
use crate::http::Conn;
use crate::inputs::{Kind, Request, WRITE};
use crate::metrics::PER_LAYER;
use crate::proc::Server;
use crate::stats;
use crate::workloads::{checked_invoke, scrape, Inputs, Tally, Value, WIDE_MAX_LHS};
use deptree::core::engine::obs::{self, Tracer};
use deptree::core::engine::Exec;
use deptree::relation::Relation;
use deptree::serve::protocol::Request as HttpRequest;
use deptree::serve::{router, tasks, AppState, DrainState, Json, Service};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A served window's traffic, for the per-layer counts.
pub struct Traffic {
    /// `/metrics` before the window.
    pub before: String,
    /// `/metrics` after the window.
    pub after: String,
    /// Mean client-side latency of the window's good requests.
    pub client_mean_ms: f64,
    /// Requests the window sent.
    pub requests: usize,
    /// The server, still running.
    pub server: Server,
}

/// One span: a timed call, grouped by operation.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// The operation the span belongs to (spans of one op nest).
    pub op: String,
    /// What was timed.
    pub name: String,
    /// Microseconds from the suite's start.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Repetitions of each timed task call; the median is reported.
const REPS: usize = 3;

/// Repetitions of each microsecond-scale call.
const MICRO_REPS: usize = 25;

/// Round trips of the `/healthz` probe.
const HEALTHZ_RTTS: usize = 200;

/// Rounds of the seven cached reads when the workload had no server.
const PROBE_ROUNDS: usize = 50;

/// Collects spans and metric values.
struct Suite {
    epoch: Instant,
    spans: Vec<SpanRec>,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Suite {
    fn span(&mut self, op: &str, name: &str, start: Instant, dur: Duration) {
        self.spans.push(SpanRec {
            op: op.to_owned(),
            name: name.to_owned(),
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
    }

    /// Call `f` `reps` (≥ 1) times, one span each; the median duration
    /// and the last result.
    fn time<T>(
        &mut self,
        op: &str,
        name: &str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (Duration, T) {
        let mut durs = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            let dur = t0.elapsed();
            self.span(op, name, t0, dur);
            durs.push(dur.as_secs_f64());
            last = Some(out);
        }
        let last = last.expect("at least one repetition runs");
        (Duration::from_secs_f64(stats::median(&durs)), last)
    }

    fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, (value, n));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Sum of every sample of one Prometheus family in an exposition.
pub fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let family = series.split('{').next()?;
            (family == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Run the whole suite; returns every per-layer metric, in catalogue
/// order, and the spans it recorded.
pub fn suite(
    bin: &Path,
    inp: &Inputs,
    traffic: Option<&Traffic>,
    tally: &mut Tally,
) -> (Vec<Value>, Vec<SpanRec>) {
    let mut s = Suite {
        epoch: Instant::now(),
        spans: Vec::new(),
        values: BTreeMap::new(),
    };
    let parse_wide = parse_layer(&mut s, inp, traffic.is_none());
    let profile_wide = discovery_layer(&mut s, inp, traffic.is_none(), tally);
    serve_layers(&mut s, inp, tally);
    match traffic {
        Some(t) => window_counts(&mut s, t, tally),
        None => probe(&mut s, bin, inp, tally),
    }
    cli_layer(&mut s, bin, inp, parse_wide + profile_wide, tally);

    let values = PER_LAYER
        .iter()
        .map(|d| match s.values.get(d.name) {
            Some(&(v, n)) if v.is_finite() => Value::new(d.name, Some(v), n),
            _ => Value::new(d.name, None, 0),
        })
        .collect();
    (values, s.spans)
}

/// `relation.parse_ms`: median `parse_csv` time of the workload's own
/// tables. Returns the wide table's parse time, which the CLI overhead
/// needs in every workload.
fn parse_layer(s: &mut Suite, inp: &Inputs, cli: bool) -> Duration {
    let parse = |s: &mut Suite, t: &crate::inputs::Table| {
        s.time(
            &format!("parse:{}", t.name),
            "relation.parse_csv",
            REPS,
            || expected::parse(t).map(|r| r.n_rows()),
        )
        .0
    };
    let wide = parse(s, &inp.wide);
    let served = parse(s, &inp.orders) + parse(s, &inp.ledger);
    s.set(
        "relation.parse_ms",
        ms(if cli { wide } else { served }),
        REPS,
    );
    wide
}

/// Discovery stage times, summed over the three profiles the benchmark
/// runs: `wide` as the CLI does (two threads), and the served
/// discoveries of `orders` and `ledger` (one thread). For the CLI
/// workload, the engine counts are the wide profile's. Returns the wide
/// profile's wall time.
fn discovery_layer(s: &mut Suite, inp: &Inputs, cli: bool, tally: &mut Tally) -> Duration {
    // Stage metric ← the span it sums.
    const STAGES: [(&str, &str); 7] = [
        ("tane.ms", "profile.tane"),
        ("tane.base_partitions_ms", "tane.base_partitions"),
        ("tane.products_ms", "tane.products"),
        ("cords.ms", "profile.cords"),
        ("od.ms", "profile.od"),
        ("fastdc.ms", "profile.fastdc"),
        ("dc.evidence_ms", "dc.evidence"),
    ];
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut wide_wall = Duration::ZERO;
    let runs: [(&Relation, &str, usize, usize); 3] = [
        (&inp.wide_rel, "wide", 2, WIDE_MAX_LHS),
        (&inp.orders_rel, "orders", 1, crate::inputs::ORDERS_MAX_LHS),
        (&inp.ledger_rel, "ledger", 1, crate::inputs::LEDGER_MAX_LHS),
    ];
    for (rel, name, threads, max_lhs) in runs {
        let before = obs::registry().render();
        let tracer = Arc::new(Tracer::new());
        let exec = Exec::unbounded()
            .with_threads(threads)
            .with_tracer(Arc::clone(&tracer));
        let opts = tasks::ProfileOpts {
            max_lhs,
            error: 0.0,
        };
        let t0 = Instant::now();
        let report = tasks::profile(rel, &opts, &exec);
        let wall = t0.elapsed();
        let op = format!("profile:{name}");
        s.span(&op, "tasks.profile", t0, wall);
        let offset = t0.saturating_duration_since(s.epoch).as_micros() as u64;
        let spans = tracer.spans();
        let total = |n: &str| -> f64 {
            spans
                .iter()
                .filter(|x| x.name == n)
                .map(|x| x.dur_us as f64 / 1e3)
                .sum()
        };
        for (metric, span) in STAGES {
            *totals.entry(metric).or_default() += total(span);
        }
        let top: f64 = [
            "profile.tane",
            "profile.cords",
            "profile.od",
            "profile.fastdc",
        ]
        .iter()
        .map(|n| total(n))
        .sum();
        *totals.entry("profile.unspanned_ms").or_default() += ms(wall) - top;
        // A level's self time: its span minus the products inside it.
        for level in spans.iter().filter(|x| x.name == "tane.level") {
            let end = level.start_us + level.dur_us;
            let inner: u64 = spans
                .iter()
                .filter(|x| {
                    x.name == "tane.products" && x.start_us >= level.start_us && x.start_us < end
                })
                .map(|x| x.dur_us)
                .sum();
            *totals.entry("tane.level_self_ms").or_default() +=
                level.dur_us.saturating_sub(inner) as f64 / 1e3;
        }
        s.spans.extend(spans.into_iter().map(|sp| SpanRec {
            op: op.clone(),
            name: sp.name,
            start_us: offset + sp.start_us,
            dur_us: sp.dur_us,
        }));
        if name == "wide" {
            wide_wall = wall;
            // Traced at two threads ≡ untraced at one thread.
            tally.check(if report.text == inp.wide_report() {
                Ok(())
            } else {
                Err("traced two-thread profile differs from the one-thread report".into())
            });
            if cli {
                engine_counts(s, &before, &obs::registry().render(), 1);
                s.set("relation.dataset_bytes", rel.approx_bytes() as f64, 1);
            }
        }
    }
    for (metric, v) in totals {
        s.set(metric, v, runs.len());
    }
    wide_wall
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Partition-cache, engine and pair-generation counts between two
/// Prometheus expositions (a server's, or this process's registry).
fn engine_counts(s: &mut Suite, before: &str, after: &str, n: usize) {
    let d = |name: &str| prom(after, name) - prom(before, name);
    let (hits, misses) = (
        d("deptree_cache_hits_total"),
        d("deptree_cache_misses_total"),
    );
    s.set("relation.partition_cache_hits", hits, n);
    s.set("relation.partition_cache_misses", misses, n);
    s.set("relation.partition_hit_ratio", ratio(hits, misses), n);
    s.set(
        "relation.radix_products",
        d("deptree_partition_product_radix_total"),
        n,
    );
    s.set(
        "relation.hash_products",
        d("deptree_partition_product_hash_total"),
        n,
    );
    s.set("engine.pool_batches", d("deptree_pool_batches_total"), n);
    s.set("engine.pool_items", d("deptree_pool_items_total"), n);
    s.set("engine.pool_steals", d("deptree_pool_steals_total"), n);
    s.set(
        "engine.budget_exhausted",
        d("deptree_budget_exhausted_total"),
        n,
    );
    s.set(
        "pairgen.candidate_pairs",
        d("deptree_pairgen_candidate_pairs_total"),
        n,
    );
}

/// The task metric of a request kind.
fn task_metric(kind: Kind) -> &'static str {
    match kind {
        Kind::DiscoverOrders => "task.discover_orders_ms",
        Kind::DiscoverLedger => "task.discover_ledger_ms",
        Kind::Validate => "task.validate_ms",
        Kind::Detect => "task.detect_ms",
        Kind::Dedup => "task.dedup_ms",
        Kind::Repair | Kind::Write => "task.repair_ms",
    }
}

/// The per-route metrics (router overhead, render time, reply bytes) a
/// request is filed under; `None` for the second discover, whose route
/// the `orders` discover already represents.
fn route_metrics(kind: Kind) -> Option<[&'static str; 3]> {
    match kind {
        Kind::DiscoverOrders => Some([
            "router.discover_overhead_ms",
            "json.render_us.discover",
            "reply_bytes.discover",
        ]),
        Kind::Validate => Some([
            "router.validate_overhead_ms",
            "json.render_us.validate",
            "reply_bytes.validate",
        ]),
        Kind::Detect => Some([
            "router.detect_overhead_ms",
            "json.render_us.detect",
            "reply_bytes.detect",
        ]),
        Kind::Dedup => Some([
            "router.dedup_overhead_ms",
            "json.render_us.dedup",
            "reply_bytes.dedup",
        ]),
        Kind::Repair => Some([
            "router.repair_overhead_ms",
            "json.render_us.repair",
            "reply_bytes.repair",
        ]),
        Kind::DiscoverLedger | Kind::Write => None,
    }
}

fn http_request(req: &Request) -> HttpRequest {
    HttpRequest {
        method: "POST".into(),
        path: req.kind.path().into(),
        headers: Vec::new(),
        body: req.body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn app(inp: &Inputs, cache_bytes: usize) -> AppState {
    let mut datasets = BTreeMap::new();
    datasets.insert("orders".to_owned(), inp.orders_rel.clone());
    datasets.insert("ledger".to_owned(), inp.ledger_rel.clone());
    AppState::new(
        datasets,
        DrainState::new(),
        1,
        Duration::from_secs(60),
        Duration::from_secs(60),
        cache_bytes,
    )
}

/// tasks, router, json and cache: each distinct served request through
/// the server's layers in-process, one layer call at a time.
fn serve_layers(s: &mut Suite, inp: &Inputs, tally: &mut Tally) {
    let plain = app(inp, 0);
    let cached = app(inp, 64 << 20);
    // Metrics averaged over the requests filed under them.
    let mut per_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut parse_us, mut key_us, mut hit_us) = (Vec::new(), Vec::new(), Vec::new());
    for (i, req) in inp.reqs.iter().enumerate().filter(|(i, _)| *i != WRITE) {
        let op = format!("request:{i}");
        let http = http_request(req);
        let (d, _) = s.time(&op, "json.parse", MICRO_REPS, || {
            Json::parse(&req.body).is_ok()
        });
        parse_us.push(us(d));
        let (d, _) = s.time(&op, "cache.key", MICRO_REPS, || cached.cache_key(&http));
        key_us.push(us(d));
        let (task, ok) = s.time(
            &op,
            task_metric(req.kind).trim_end_matches("_ms"),
            REPS,
            || expected::task(req, &inp.orders_rel, &inp.ledger_rel).is_ok(),
        );
        tally.check(if ok {
            Ok(())
        } else {
            Err(format!("in-process {:?} failed", req.kind))
        });
        per_metric
            .entry(task_metric(req.kind))
            .or_default()
            .push(ms(task));
        let (handle, (status, reply)) =
            s.time(&op, "router.handle", REPS, || router::handle(&plain, &http));
        tally.check(if status == 200 {
            Ok(())
        } else {
            Err(format!("router::handle {:?} answered {status}", req.kind))
        });
        let (render, bytes) = s.time(&op, "json.render", MICRO_REPS, || reply.render().len());
        // Warm: the first respond computes and stores, the rest replay.
        let _ = cached.respond(&http);
        let (hit, _) = s.time(&op, "service.respond_hit", MICRO_REPS, || {
            cached.respond(&http)
        });
        if req.kind != Kind::Repair {
            hit_us.push(us(hit));
        }
        if let Some([overhead, render_us, reply_bytes]) = route_metrics(req.kind) {
            per_metric
                .entry(overhead)
                .or_default()
                .push(ms(handle) - ms(task));
            per_metric.entry(render_us).or_default().push(us(render));
            per_metric
                .entry(reply_bytes)
                .or_default()
                .push(bytes as f64);
        }
    }
    for (name, v) in per_metric {
        s.set(name, mean(&v), v.len() * REPS);
    }
    s.set(
        "json.body_parse_us",
        mean(&parse_us),
        parse_us.len() * MICRO_REPS,
    );
    s.set("cache.key_us", mean(&key_us), key_us.len() * MICRO_REPS);
    s.set(
        "cache.hit_respond_us",
        mean(&hit_us),
        hit_us.len() * MICRO_REPS,
    );

    let write = http_request(&inp.reqs[WRITE]);
    let (d, (status, _)) = s.time("request:8", "router.handle", REPS, || {
        router::handle(&plain, &write)
    });
    tally.check(if status == 200 {
        Ok(())
    } else {
        Err(format!("admin load answered {status}"))
    });
    s.set("router.admin_load_ms", ms(d), REPS);
}

/// Counts and transport times from the workload's own window, plus a
/// `/healthz` probe against its live server.
fn window_counts(s: &mut Suite, t: &Traffic, tally: &mut Tally) {
    let d = |n: &str| prom(&t.after, n) - prom(&t.before, n);
    let n = t.requests;
    engine_counts(s, &t.before, &t.after, n);
    s.set(
        "relation.dataset_bytes",
        prom(&t.after, "deptree_dataset_bytes"),
        1,
    );
    let (hits, misses) = (
        d("deptree_response_cache_hits_total"),
        d("deptree_response_cache_misses_total"),
    );
    s.set("cache.hits", hits, n);
    s.set("cache.misses", misses, n);
    s.set(
        "cache.evictions",
        d("deptree_response_cache_evictions_total"),
        n,
    );
    s.set("cache.hit_ratio", ratio(hits, misses), n);
    s.set(
        "cache.bytes",
        prom(&t.after, "deptree_response_cache_bytes"),
        1,
    );
    transport_counts(s, &t.before, &t.after, t.client_mean_ms, n);
    healthz(s, t.server.addr, tally);
}

/// Transport figures between two scrapes that bracket `requests` client
/// requests of mean latency `client_mean_ms`.
fn transport_counts(
    s: &mut Suite,
    before: &str,
    after: &str,
    client_mean_ms: f64,
    requests: usize,
) {
    let d = |n: &str| prom(after, n) - prom(before, n);
    // The first scrape is itself observed (after it rendered), and the
    // second scrape's connection is admitted before it renders.
    let served = (d("deptree_request_duration_seconds_count") - 1.0).max(1.0);
    let server_ms = d("deptree_request_duration_seconds_sum") / served * 1e3;
    let conns = (d("deptree_admitted_total") - 1.0).max(1.0);
    s.set("transport.server_ms", server_ms, requests);
    s.set(
        "transport.outside_server_ms",
        client_mean_ms - server_ms,
        requests,
    );
    s.set(
        "transport.requests_per_conn",
        requests as f64 / conns,
        requests,
    );
    s.set("transport.shed", d("deptree_shed_total"), requests);
}

/// Median `/healthz` round trip over one keep-alive connection.
fn healthz(s: &mut Suite, addr: std::net::SocketAddr, tally: &mut Tally) {
    let mut conn = Conn::new(addr);
    let mut failed = 0;
    let (d, _) = s.time("healthz", "http.healthz", HEALTHZ_RTTS, || {
        if !matches!(conn.request("GET", "/healthz", b"", false), Ok(r) if r.status == 200) {
            failed += 1;
        }
    });
    tally.check(if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} /healthz probes failed"))
    });
    s.set("transport.healthz_rtt_us", us(d), HEALTHZ_RTTS);
}

/// The CLI workload serves nothing, so its transport figures come from a
/// probe server: the seven cacheable reads, warmed, then replayed
/// sequentially on one connection. The CLI has no response cache, so
/// its cache counts are zero.
fn probe(s: &mut Suite, bin: &Path, inp: &Inputs, tally: &mut Tally) {
    for name in [
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "cache.hit_ratio",
        "cache.bytes",
    ] {
        s.set(name, 0.0, 1);
    }
    let server = match Server::spawn(bin, &inp.serve_args(1, true)) {
        Ok(server) => server,
        Err(e) => {
            tally.check(Err(e));
            return;
        }
    };
    let reads: Vec<&Request> = inp.reqs[..WRITE]
        .iter()
        .filter(|r| r.kind != Kind::Repair)
        .collect();
    let mut conn = Conn::new(server.addr);
    let send = |conn: &mut Conn, req: &Request| {
        let reply = conn.request("POST", req.kind.path(), req.body.as_bytes(), false);
        matches!(reply, Ok(r) if r.status == 200)
    };
    let warmed = reads.iter().all(|r| send(&mut conn, r));
    drop(conn);
    let before = scrape(server.addr, tally);
    let mut conn = Conn::new(server.addr);
    let mut lat = Vec::new();
    let mut ok = warmed;
    for _ in 0..PROBE_ROUNDS {
        for r in &reads {
            let t0 = Instant::now();
            ok &= send(&mut conn, r);
            lat.push(ms(t0.elapsed()));
        }
    }
    drop(conn);
    let after = scrape(server.addr, tally);
    tally.check(if ok {
        Ok(())
    } else {
        Err("probe server requests failed".into())
    });
    transport_counts(s, &before, &after, mean(&lat), lat.len());
    healthz(s, server.addr, tally);
}

/// The CLI: untraced, `--trace-out`, untraced invocations of `deptree
/// profile`, every stdout checked against the library's report (traced ≡
/// untraced). The traced run sits between the two untraced ones so that
/// a drift in machine speed cancels out of the comparison. `in_process`
/// is the in-process parse plus profile of the same table.
fn cli_layer(s: &mut Suite, bin: &Path, inp: &Inputs, in_process: Duration, tally: &mut Tally) {
    let plain_args = inp.profile_args();
    let trace_file = inp.dir.join("cli-spans.jsonl");
    let mut traced_args = plain_args.clone();
    traced_args.extend([
        "--trace-out".to_owned(),
        trace_file.to_string_lossy().into_owned(),
    ]);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, args) in [&plain_args, &traced_args, &plain_args]
        .into_iter()
        .enumerate()
    {
        let is_traced = i == 1;
        let op = format!("cli:{}#{i}", if is_traced { "traced" } else { "untraced" });
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let Some(inv) = checked_invoke(bin, &args, inp.wide_report(), tally) else {
            continue;
        };
        s.span(&op, "cli.profile", t0, inv.wall);
        if !is_traced {
            plain.push(inv.wall.as_secs_f64());
            continue;
        }
        traced.push(inv.wall.as_secs_f64());
        let offset = t0.saturating_duration_since(s.epoch).as_micros() as u64;
        let spans = std::fs::read_to_string(&trace_file).unwrap_or_default();
        s.spans.extend(spans.lines().filter_map(|line| {
            let span = Json::parse(line).ok()?;
            Some(SpanRec {
                op: op.clone(),
                name: span.str_field("name")?.to_owned(),
                start_us: offset + span.u64_field("start_us")?,
                dur_us: span.u64_field("dur_us")?,
            })
        }));
    }
    if let (Some(&t), false) = (traced.first(), plain.is_empty()) {
        let p = mean(&plain);
        s.set("cli.overhead_ms", p * 1e3 - ms(in_process), plain.len());
        s.set("trace.overhead_frac", t / p - 1.0, 1);
    }
}

/// Each span's parent: the innermost other span of the same op whose
/// interval encloses it (ties broken by order), if any.
fn parents(spans: &[SpanRec]) -> Vec<Option<usize>> {
    spans
        .iter()
        .enumerate()
        .map(|(id, sp)| {
            let end = sp.start_us + sp.dur_us;
            spans
                .iter()
                .enumerate()
                .filter(|(j, p)| {
                    *j != id
                        && p.op == sp.op
                        && p.start_us <= sp.start_us
                        && p.start_us + p.dur_us >= end
                        && (p.dur_us > sp.dur_us || *j < id)
                })
                .min_by_key(|(_, p)| p.dur_us)
                .map(|(j, _)| j)
        })
        .collect()
}

/// Spans as JSONL, one object per span: `name`, `op`, `id`, `parent`
/// (an `id`, or null), `start_us`, `dur_us`.
pub fn spans_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (id, (sp, parent)) in spans.iter().zip(parents(spans)).enumerate() {
        out.push_str(&format!(
            "{{\"name\":{},\"op\":{},\"id\":{id},\"parent\":{},\"start_us\":{},\"dur_us\":{}}}\n",
            crate::inputs::json_string(&sp.name),
            crate::inputs::json_string(&sp.op),
            parent.map_or("null".to_owned(), |p| p.to_string()),
            sp.start_us,
            sp.dur_us
        ));
    }
    out
}

/// Self time per span name in ms (duration minus its children's),
/// largest first.
pub fn self_times(spans: &[SpanRec]) -> Vec<(String, f64)> {
    let mut self_us: Vec<i64> = spans.iter().map(|s| s.dur_us as i64).collect();
    for (child, parent) in parents(spans).into_iter().enumerate() {
        if let Some(p) = parent {
            self_us[p] -= spans[child].dur_us as i64;
        }
    }
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (sp, us) in spans.iter().zip(self_us) {
        *by_name.entry(&sp.name).or_default() += us.max(0) as f64 / 1e3;
    }
    let mut out: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}
