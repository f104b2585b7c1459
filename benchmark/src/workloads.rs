//! The four workloads: set-up, the timed window, and the end-to-end
//! metrics. Load comes from this one process: at most two threads, each
//! owning one closed-loop keep-alive connection (or, for the CLI, one
//! invocation at a time plus a `/proc` sampler).

use crate::expected::{self, Expected};
use crate::http::Conn;
use crate::inputs::{self, Request, Sizes, Table, WRITE};
use crate::layers;
use crate::proc::{self, Server};
use crate::stats;
use deptree::relation::Relation;
use deptree::serve::tasks;
use std::cell::OnceCell;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `deptree profile wide.csv`, one invocation at a time.
    ProfileCli,
    /// Every served request computes (response cache off).
    ServeUncached,
    /// Cacheable reads only, one server worker, cache on.
    ServeCached,
    /// Cacheable reads plus a 4% stream of dataset replacements.
    ServeReadWrite,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ProfileCli,
        Workload::ServeUncached,
        Workload::ServeCached,
        Workload::ServeReadWrite,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileCli => "profile_cli",
            Workload::ServeUncached => "serve_uncached",
            Workload::ServeCached => "serve_cached",
            Workload::ServeReadWrite => "serve_read_write",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(engine threads, server workers)` the program runs with.
    pub fn threads_workers(self) -> (usize, usize) {
        match serve_spec(self) {
            Some(spec) => (1, spec.workers),
            None => (CLI_THREADS, 0),
        }
    }
}

/// `--threads` of the CLI profile invocation.
const CLI_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median. One set-up varies by a
/// quarter either way within a run, so the median needs this many.
const SETUPS: usize = 15;

/// The rule the CLI set-up probe (`deptree detect`) checks.
const WIDE_RULE: &str = "a -> b";

/// `--max-lhs` of the CLI profile.
pub const WIDE_MAX_LHS: usize = 3;

/// How a served workload configures and drives `deptree serve`.
struct ServeSpec {
    workers: usize,
    cache: bool,
    cycle: &'static [usize],
    /// Leading cycle entries that keep their place; each connection
    /// walks the rest in a fresh seeded order every cycle.
    pinned: usize,
    /// The request whose median latency is `key_op_p50_ms`.
    key: usize,
    /// Every windowed reply must replay the warm-up reply byte for byte.
    exact_replay: bool,
}

fn serve_spec(w: Workload) -> Option<ServeSpec> {
    match w {
        Workload::ProfileCli => None,
        Workload::ServeUncached => Some(ServeSpec {
            workers: 2,
            cache: false,
            cycle: &inputs::UNCACHED_CYCLE,
            pinned: 0,
            key: 0,
            exact_replay: false,
        }),
        Workload::ServeCached => Some(ServeSpec {
            workers: 1,
            cache: true,
            cycle: &inputs::CACHED_CYCLE,
            pinned: 0,
            key: 0,
            exact_replay: true,
        }),
        Workload::ServeReadWrite => Some(ServeSpec {
            workers: 2,
            cache: true,
            cycle: &inputs::READ_WRITE_CYCLE,
            pinned: 1,
            key: WRITE,
            exact_replay: false,
        }),
    }
}

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Table sizes.
    pub sizes: Sizes,
    /// Report per-layer metrics (the traced run) instead of end-to-end.
    pub trace: bool,
}

/// One metric as measured. `None` when the sample cannot support it.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name (see [`crate::metrics`]).
    pub name: &'static str,
    /// The measurement.
    pub value: Option<f64>,
    /// How many samples it summarizes.
    pub n: usize,
}

impl Value {
    /// A metric over `n` samples; `None` when they cannot support it.
    pub fn new(name: &'static str, value: Option<f64>, n: usize) -> Value {
        Value { name, value, n }
    }
}

/// Counts checked operations and keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// What went wrong, first few only.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problem(e);
        }
    }

    /// Record a problem that is not a counted operation.
    pub fn problem(&mut self, e: String) {
        if self.problems.len() < 10 {
            self.problems.push(e);
        }
    }
}

/// The generated inputs of one run, written to a private directory that
/// is removed when the run ends.
pub struct Inputs {
    /// Where the CSV files are.
    pub dir: PathBuf,
    /// `wide.csv`.
    pub wide: Table,
    /// `orders.csv`.
    pub orders: Table,
    /// `ledger.csv`.
    pub ledger: Table,
    /// `wide`, parsed in-process.
    pub wide_rel: Relation,
    /// `orders`, parsed in-process.
    pub orders_rel: Relation,
    /// `ledger`, parsed in-process.
    pub ledger_rel: Relation,
    /// The distinct served requests.
    pub reqs: Vec<Request>,
    wide_report: OnceCell<String>,
}

impl Inputs {
    fn generate(seed: u64, sizes: Sizes, dir: PathBuf) -> Result<Inputs, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (wide, orders, ledger) = (
            inputs::wide(seed, sizes.wide),
            inputs::orders(seed, sizes.orders),
            inputs::ledger(seed, sizes.ledger),
        );
        for t in [&wide, &orders, &ledger] {
            let path = dir.join(format!("{}.csv", t.name));
            std::fs::write(&path, &t.csv).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(Inputs {
            wide_rel: expected::parse(&wide)?,
            orders_rel: expected::parse(&orders)?,
            ledger_rel: expected::parse(&ledger)?,
            reqs: inputs::requests(&orders),
            wide_report: OnceCell::new(),
            dir,
            wide,
            orders,
            ledger,
        })
    }

    /// The file of one table, as a command-line argument.
    pub fn path(&self, t: &Table) -> String {
        self.dir
            .join(format!("{}.csv", t.name))
            .to_string_lossy()
            .into_owned()
    }

    /// The report `deptree profile wide.csv` must print, computed
    /// in-process at one thread on first use.
    pub fn wide_report(&self) -> &str {
        self.wide_report
            .get_or_init(|| expected::profile_text(&self.wide_rel, WIDE_MAX_LHS))
    }

    /// `deptree profile` arguments for `wide.csv`.
    pub fn profile_args(&self) -> Vec<String> {
        vec![
            "profile".to_owned(),
            self.path(&self.wide),
            "--types".to_owned(),
            self.wide.types.to_owned(),
            "--max-lhs".to_owned(),
            WIDE_MAX_LHS.to_string(),
            "--threads".to_owned(),
            CLI_THREADS.to_string(),
        ]
    }

    /// `deptree serve` arguments (after `serve`) loading both tables.
    pub fn serve_args(&self, workers: usize, cache: bool) -> Vec<String> {
        let mut args = Vec::new();
        for t in [&self.orders, &self.ledger] {
            args.push("--data".to_owned());
            args.push(format!("{}={}:{}", t.name, self.path(t), t.types));
        }
        args.extend(["--workers".to_owned(), workers.to_string()]);
        args.extend(["--threads".to_owned(), "1".to_owned()]);
        if !cache {
            args.extend(["--response-cache-bytes".to_owned(), "0".to_owned()]);
        }
        args
    }
}

/// Removes the run's private directory on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run measured.
pub struct Outcome {
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub values: Vec<Value>,
    /// The traced run's spans.
    pub spans: Vec<layers::SpanRec>,
    /// Checked operations and failures.
    pub tally: Tally,
}

/// Run one workload: generate inputs, compute expected outputs, set up,
/// measure the window, and (traced) run the layer suite.
pub fn run(w: Workload, bin: &Path, s: &Settings) -> Outcome {
    let mut tally = Tally::default();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("run-{}", std::process::id()));
    let _cleanup = WorkDir(dir.clone());
    let inp = match Inputs::generate(s.seed, s.sizes, dir) {
        Ok(inp) => inp,
        Err(e) => {
            tally.check(Err(e));
            return Outcome {
                values: Vec::new(),
                spans: Vec::new(),
                tally,
            };
        }
    };
    let (values, traffic) = match serve_spec(w) {
        None => (profile_cli(bin, &inp, s, &mut tally), None),
        Some(spec) => serve(bin, &inp, &spec, s, &mut tally),
    };
    let (values, spans) = if s.trace {
        layers::suite(bin, &inp, traffic.as_ref(), &mut tally)
    } else {
        (values, Vec::new())
    };
    Outcome {
        values,
        spans,
        tally,
    }
}

/// Median of the samples, `None` when empty.
fn median_of(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| stats::median(v))
}

fn profile_cli(bin: &Path, inp: &Inputs, s: &Settings, tally: &mut Tally) -> Vec<Value> {
    let want_profile = inp.wide_report();
    let want_detect = match tasks::detect(&inp.wide_rel, WIDE_RULE) {
        Ok(r) => r.text,
        Err(e) => {
            tally.check(Err(format!("in-process detect: {e}")));
            return Vec::new();
        }
    };

    // Set-up: the fixed cost every invocation pays before profiling —
    // spawn, read and parse wide.csv, check one rule.
    let wide = inp.path(&inp.wide);
    let detect = [
        "detect",
        &wide,
        "--types",
        inp.wide.types,
        "--rule",
        WIDE_RULE,
    ];
    let mut setup = Vec::new();
    for _ in 0..SETUPS {
        if let Some(inv) = checked_invoke(bin, &detect, &want_detect, tally) {
            setup.push(inv.wall.as_secs_f64());
        }
    }

    let args = inp.profile_args();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let start = Instant::now();
    let deadline = start + s.window;
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    while Instant::now() < deadline {
        if let Some(inv) = checked_invoke(bin, &args, want_profile, tally) {
            walls.push(inv.wall.as_secs_f64() * 1e3);
            peaks.push(inv.peak_kib as f64 / 1024.0);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = walls.len();
    vec![
        Value::new("setup_s", median_of(&setup), setup.len()),
        Value::new("ops_per_s", Some(n as f64 / elapsed), n),
        Value::new("p50_ms", median_of(&walls), n),
        Value::new("key_op_p50_ms", median_of(&walls), n),
        Value::new("peak_rss_mb", median_of(&peaks), peaks.len()),
    ]
}

/// Invoke the CLI and check its exit status and stdout; `None` (and a
/// counted failure) when either is wrong.
pub fn checked_invoke(
    bin: &Path,
    args: &[&str],
    want_stdout: &str,
    tally: &mut Tally,
) -> Option<proc::Invocation> {
    let checked = proc::invoke(bin, args).and_then(|inv| {
        if !inv.success {
            Err(format!(
                "deptree {} failed: {}",
                args[0],
                String::from_utf8_lossy(&inv.stderr).trim()
            ))
        } else if inv.stdout != want_stdout.as_bytes() {
            Err(format!(
                "deptree {} stdout differs from the library's",
                args[0]
            ))
        } else {
            Ok(inv)
        }
    });
    match checked {
        Ok(inv) => {
            tally.check(Ok(()));
            Some(inv)
        }
        Err(e) => {
            tally.check(Err(e));
            None
        }
    }
}

/// Indices of `cycle` in first-appearance order.
fn distinct(cycle: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    for &i in cycle {
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// A server that passed set-up, with the checked warm-up replies.
struct Warm {
    server: Server,
    /// Per request index: the reply, and its checked prefix.
    replies: Vec<Vec<u8>>,
    prefixes: Vec<Vec<u8>>,
}

/// Spawn a server, wait for readiness, and make one checked sequential
/// pass over `order`. Returns the server and the set-up time.
fn set_up(
    bin: &Path,
    args: &[String],
    inp: &Inputs,
    order: &[usize],
    want: &[Option<Expected>],
    tally: &mut Tally,
) -> Result<(Warm, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, args)?;
    let mut conn = Conn::new(server.addr);
    let ready = conn.request("GET", "/readyz", b"", false);
    tally.check(match ready {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(format!("/readyz answered HTTP {}", r.status)),
        Err(e) => Err(format!("/readyz: {e}")),
    });
    let mut warm = Warm {
        server,
        replies: vec![Vec::new(); inp.reqs.len()],
        prefixes: vec![Vec::new(); inp.reqs.len()],
    };
    for &i in order {
        let req = &inp.reqs[i];
        let Some(want) = &want[i] else { continue };
        let checked = conn
            .request("POST", req.kind.path(), req.body.as_bytes(), false)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                let prefix = expected::check_reply(r.status, &r.body, want)?;
                warm.replies[i] = r.body;
                warm.prefixes[i] = prefix;
                Ok(())
            });
        tally.check(checked.map_err(|e| format!("warm-up {:?}: {e}", req.kind)));
    }
    // Closing the warm-up connection frees its server worker at once
    // instead of after the keep-alive idle window.
    drop(conn);
    Ok((warm, t0.elapsed().as_secs_f64()))
}

/// A served workload's end-to-end metrics; traced, also the window's
/// traffic and the still-running server.
fn serve(
    bin: &Path,
    inp: &Inputs,
    spec: &ServeSpec,
    s: &Settings,
    tally: &mut Tally,
) -> (Vec<Value>, Option<layers::Traffic>) {
    let order = distinct(spec.cycle);
    let mut want: Vec<Option<Expected>> = vec![None; inp.reqs.len()];
    for &i in &order {
        match expected::task(&inp.reqs[i], &inp.orders_rel, &inp.ledger_rel) {
            Ok(e) => want[i] = Some(e),
            Err(e) => tally.check(Err(e)),
        }
    }
    let args = inp.serve_args(spec.workers, spec.cache);
    let mut setup = Vec::new();
    let mut kept: Option<Warm> = None;
    for _ in 0..SETUPS {
        // One server at a time: the previous one is killed first.
        kept = None;
        match set_up(bin, &args, inp, &order, &want, tally) {
            Ok((warm, secs)) => {
                setup.push(secs);
                kept = Some(warm);
            }
            Err(e) => tally.check(Err(e)),
        }
    }
    let Some(Warm {
        server,
        replies,
        prefixes,
    }) = kept
    else {
        return (Vec::new(), None);
    };

    let before = s.trace.then(|| scrape(server.addr, tally));
    let check = |i: usize, body: &[u8]| {
        if spec.exact_replay {
            body == replies[i]
        } else {
            expected::matches_prefix(body, &prefixes[i], i == WRITE)
        }
    };
    let win = window(server.addr, spec, &inp.reqs, &check, s);
    for e in &win.errors {
        tally.problem(e.clone());
    }
    let good: Vec<&Sample> = win.samples.iter().filter(|x| x.ok).collect();
    tally.attempted += win.samples.len() as u64;
    tally.failed += (win.samples.len() - good.len()) as u64;
    let after = s.trace.then(|| scrape(server.addr, tally));
    let peak_rss_mb = server.peak_rss_mb();

    let ms: Vec<f64> = good.iter().map(|x| x.ms).collect();
    let key: Vec<f64> = good
        .iter()
        .filter(|x| x.what == spec.key)
        .map(|x| x.ms)
        .collect();
    let values = vec![
        Value::new("setup_s", median_of(&setup), setup.len()),
        Value::new("ops_per_s", Some(ms.len() as f64 / win.elapsed), ms.len()),
        Value::new("p50_ms", median_of(&ms), ms.len()),
        Value::new("key_op_p50_ms", median_of(&key), key.len()),
        Value::new("peak_rss_mb", peak_rss_mb, 1),
    ];
    let traffic = match (before, after) {
        (Some(before), Some(after)) => Some(layers::Traffic {
            before,
            after,
            client_mean_ms: ms.iter().sum::<f64>() / ms.len().max(1) as f64,
            requests: win.samples.len(),
            server,
        }),
        _ => None,
    };
    (values, traffic)
}

/// One timed request.
struct Sample {
    /// Request index.
    what: usize,
    /// From send to the last body byte, reconnects included.
    ms: f64,
    /// 200, and the body passed its check.
    ok: bool,
}

/// What the two connections saw in one window.
struct Window {
    samples: Vec<Sample>,
    /// From the first connection's start to the last one's finish.
    elapsed: f64,
    errors: Vec<String>,
}

/// Two closed-loop keep-alive connections, each on its own thread,
/// walking `spec.cycle` until `window` ends; a request started before
/// the end is allowed to finish. Each connection reorders the unpinned
/// part of every cycle from its own seeded stream, so how the two
/// connections' heavy requests overlap varies cycle by cycle and
/// averages out within a run instead of depending on where their phases
/// happened to lock.
fn window(
    addr: SocketAddr,
    spec: &ServeSpec,
    reqs: &[Request],
    check: &(dyn Fn(usize, &[u8]) -> bool + Sync),
    s: &Settings,
) -> Window {
    let barrier = Barrier::new(2);
    let client = |t: usize| {
        let mut conn = Conn::new(addr);
        let mut rng = inputs::SplitMix64::new(s.seed, 16 + t as u64);
        let mut order = spec.cycle.to_vec();
        let (mut samples, mut errors) = (Vec::new(), Vec::new());
        barrier.wait();
        let start = Instant::now();
        let mut pos = 0;
        while start.elapsed() < s.window {
            if pos == 0 {
                inputs::shuffle(&mut rng, &mut order[spec.pinned..]);
            }
            let i = order[pos];
            pos = (pos + 1) % order.len();
            let req = &reqs[i];
            let t0 = Instant::now();
            let reply = conn.request("POST", req.kind.path(), req.body.as_bytes(), false);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let ok = match reply {
                Ok(r) if r.status == 200 && check(i, &r.body) => true,
                Ok(r) => {
                    errors.push(format!(
                        "{:?}: HTTP {}, reply not as checked",
                        req.kind, r.status
                    ));
                    false
                }
                Err(e) => {
                    errors.push(format!("{:?}: {e}", req.kind));
                    false
                }
            };
            errors.truncate(3);
            samples.push(Sample { what: i, ms, ok });
        }
        (samples, start, Instant::now(), errors)
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| client(1));
        let mine = client(0);
        (mine, other.join())
    });
    let mut out = Window {
        samples: a.0,
        elapsed: 0.0,
        errors: a.3,
    };
    let (mut start, mut end) = (a.1, a.2);
    match b {
        Ok((samples, s, e, errors)) => {
            out.samples.extend(samples);
            out.errors.extend(errors);
            start = start.min(s);
            end = end.max(e);
        }
        Err(_) => out.errors.push("load thread panicked".into()),
    }
    out.elapsed = end.duration_since(start).as_secs_f64();
    out
}

/// `GET /metrics` on a fresh connection that closes behind it, so the
/// scrape never holds a server worker.
pub fn scrape(addr: SocketAddr, tally: &mut Tally) -> String {
    match Conn::new(addr).request("GET", "/metrics", b"", true) {
        Ok(r) if r.status == 200 => String::from_utf8_lossy(&r.body).into_owned(),
        Ok(r) => {
            tally.problem(format!("/metrics answered HTTP {}", r.status));
            String::new()
        }
        Err(e) => {
            tally.problem(format!("/metrics: {e}"));
            String::new()
        }
    }
}
