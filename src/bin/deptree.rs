//! `deptree` — command-line data-dependency profiler, cleaner and server.
//!
//! ```text
//! deptree profile <file.csv> [--types c,t,n,...] [--max-lhs K] [--error E]
//!                            [--timeout-ms MS] [--max-nodes N] [--threads T] [--lossy]
//!                            [--trace-out spans.jsonl]
//! deptree detect  <file.csv> --rule "<lhs> -> <rhs>" [--types ...] [--lossy]
//! deptree repair  <file.csv> --rule "<lhs> -> <rhs>" [--types ...] [--out repaired.csv]
//!                            [--timeout-ms MS] [--max-nodes N] [--threads T] [--lossy]
//!                            [--trace-out spans.jsonl]
//! deptree serve   --data name=path[:types] [--data ...] [--addr HOST:PORT]
//!                            [--workers N] [--queue-depth N] [--max-conns N]
//!                            [--default-timeout-ms MS] [--max-timeout-ms MS]
//!                            [--drain-grace-ms MS] [--threads T] [--lossy]
//!                            [--max-requests-per-conn N] [--keepalive-idle-ms MS]
//!                            [--response-cache-bytes N]
//! deptree query   <discover|validate|detect|repair|dedup|datasets|metrics|reload>
//!                            --addr HOST:PORT
//!                            [--dataset NAME] [--rule "..."] [--keys a,b] [--max-lhs K]
//!                            [--error E] [--timeout-ms MS] [--max-nodes N] [--max-rows N]
//!                            [--retries N] [--max-attempts N] [--seed S] [--out FILE]
//!                            [--repeat N]
//! deptree gateway --data name=path[:types] [--data ...] [--workers N] [--replicas N]
//!                            [--addr HOST:PORT] [--worker-bin PATH]
//!                            [--respawn-base-ms MS] [--respawn-max-ms MS]
//!                            [--quarantine-after K] [--quarantine-cooldown-ms MS]
//!                            [--probe-interval-ms MS] [--default-timeout-ms MS]
//!                            [--max-timeout-ms MS] [--drain-grace-ms MS]
//!                            [--child-grace-ms MS] [--max-conns N] [--queue-depth N]
//!                            [--threads T] [--lossy]
//! deptree tree
//! ```
//!
//! Column types: `c` categorical, `t` text, `n` numeric (default: all
//! categorical). `profile` runs approximate-FD, soft-FD, OD and DC
//! discovery and prints a report; `detect`/`repair` work with one FD-style
//! rule. `serve` exposes the same tasks over HTTP against preloaded
//! datasets (see DESIGN.md §10); `query` is the matching retry client.
//! `gateway` supervises a fleet of `serve` workers — crash respawn with
//! backoff, crash-loop quarantine, digest placement of whole datasets,
//! and byte-identical proxying with failover (DESIGN.md §12); it rejects
//! any flag it does not read.
//!
//! ## Budgets, cancellation and exit codes
//!
//! `--timeout-ms` and `--max-nodes` bound the search. When a budget runs
//! out — or Ctrl-C arrives mid-search — the partial (still sound) results
//! are printed and the process exits with a distinct status so scripts
//! can tell "done" from "truncated". Exit codes: 0 success, 1 usage,
//! 2 I/O, 3 parse, 4 relation, 5 config, 6 budget exhausted,
//! 7 cancelled, 8 unsupported. A second Ctrl-C force-exits (130).
//!
//! ## Parallelism
//!
//! `--threads T` runs the discovery searches on `T` worker threads
//! (default: the `DEPTREE_THREADS` environment variable, else 1). Results
//! are identical at every thread count — parallelism changes wall-clock
//! time, never output.

use deptree::core::engine::obs::Tracer;
use deptree::core::engine::{signal, Budget, BudgetKind, CancelToken, Exec};
use deptree::core::DeptreeError;
use deptree::relation::{parse_csv, parse_csv_lossy, to_csv, Relation, ValueType};
use deptree::serve::protocol::budget_from_wire;
use deptree::serve::{tasks, ClientConfig, DatasetSpec, GatewayConfig, Json, ServeConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Print a line to stdout; if the reader has gone away (`deptree … |
/// head` closes the pipe), stop quietly instead of panicking on EPIPE —
/// the consumer asked for no more output.
macro_rules! say {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    };
}

/// Print a line to stderr, ignoring a closed stream: when stderr is gone
/// there is nobody left to warn, and dying over it would be worse.
macro_rules! esay {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stderr(), $($arg)*);
    };
}

/// Print an already-rendered (newline-terminated) report to stdout with
/// the same EPIPE policy as [`say!`].
fn emit(text: &str) {
    if write!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            esay!("error: {msg}");
            esay!();
            esay!("usage:");
            esay!("  deptree profile <file.csv> [--types c,t,n,...] [--max-lhs K] [--error E]");
            esay!("                             [--timeout-ms MS] [--max-nodes N] [--threads T]");
            esay!("                             [--lossy] [--trace-out spans.jsonl]");
            esay!("  deptree detect  <file.csv> --rule \"a, b -> c\" [--types ...] [--lossy]");
            esay!("  deptree repair  <file.csv> --rule \"a, b -> c\" [--types ...] [--out FILE]");
            esay!("                             [--timeout-ms MS] [--max-nodes N] [--threads T]");
            esay!("                             [--lossy] [--trace-out spans.jsonl]");
            esay!("  deptree serve   --data name=path[:types] [--addr HOST:PORT] [--workers N]");
            esay!("                             [--queue-depth N] [--max-conns N] [--threads T]");
            esay!("                             [--default-timeout-ms MS] [--max-timeout-ms MS]");
            esay!("                             [--drain-grace-ms MS] [--lossy]");
            esay!(
                "                             [--max-requests-per-conn N] [--keepalive-idle-ms MS]"
            );
            esay!("                             [--response-cache-bytes N]");
            esay!(
                "  deptree query   <discover|validate|detect|repair|dedup|datasets|metrics|reload>"
            );
            esay!(
                "                             --addr HOST:PORT [--dataset NAME] [--rule \"...\"]"
            );
            esay!("                             [--keys a,b] [--timeout-ms MS] [--retries N]");
            esay!("                             [--max-attempts N] [--repeat N]");
            esay!("  deptree gateway --data name=path[:types] [--workers N] [--replicas N]");
            esay!("                             [--addr HOST:PORT] [--worker-bin PATH]");
            esay!("                             [--respawn-base-ms MS] [--respawn-max-ms MS]");
            esay!(
                "                             [--quarantine-after K] [--quarantine-cooldown-ms MS]"
            );
            esay!(
                "                             [--probe-interval-ms MS] [--default-timeout-ms MS]"
            );
            esay!("                             [--max-timeout-ms MS] [--drain-grace-ms MS]");
            esay!("                             [--child-grace-ms MS] [--max-conns N]");
            esay!("                             [--queue-depth N] [--threads T] [--lossy]");
            esay!("  deptree tree");
            ExitCode::FAILURE
        }
        Err(CliError::Structured(e)) => {
            esay!("error: {e}");
            ExitCode::from(e.exit_code())
        }
        Err(CliError::Exit(code, msg)) => {
            esay!("error: {msg}");
            ExitCode::from(code)
        }
    }
}

/// CLI failures: malformed invocations keep the classic exit status 1 and
/// usage text; library failures carry a [`DeptreeError`] whose class
/// decides the exit status; remote failures already arrive as an exit
/// code + message from the protocol's error table.
enum CliError {
    Usage(String),
    Structured(DeptreeError),
    Exit(u8, String),
}

impl From<DeptreeError> for CliError {
    fn from(e: DeptreeError) -> Self {
        CliError::Structured(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("profile") => profile(&args[1..]),
        Some("detect") => detect(&args[1..]),
        Some("repair") => repair_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("gateway") => gateway_cmd(&args[1..]),
        Some("query") => query_cmd(&args[1..]),
        Some("tree") => {
            let art = deptree::core::familytree::ExtensionGraph::survey().to_ascii();
            // The payload carries its own trailing newline; ignore EPIPE.
            let _ = write!(std::io::stdout(), "{art}");
            Ok(())
        }
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
        None => Err(usage("missing command")),
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse an optional integer-valued flag.
fn num_flag(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    match flag(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| usage(format!("bad {name}"))),
    }
}

/// Build the execution budget from `--timeout-ms` / `--max-nodes`.
fn budget(args: &[String]) -> Result<Budget, CliError> {
    let mut b = Budget::default();
    if let Some(ms) = num_flag(args, "--timeout-ms")? {
        b = b.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = num_flag(args, "--max-nodes")? {
        b = b.with_max_nodes(n);
    }
    Ok(b)
}

/// Worker-thread count: `--threads` wins, else the `DEPTREE_THREADS`
/// environment default (else 1). Zero is clamped up to one worker.
fn threads(args: &[String]) -> Result<usize, CliError> {
    match flag(args, "--threads") {
        Some(t) => {
            let t: usize = t.parse().map_err(|_| usage("bad --threads"))?;
            Ok(t.max(1))
        }
        None => Ok(deptree::core::engine::default_threads()),
    }
}

/// An `Exec` whose budget is also released by Ctrl-C: the first signal
/// cancels the token (the search winds down to its sound partial, the
/// process exits 7), a second force-exits.
fn interruptible_exec(args: &[String]) -> Result<Exec, CliError> {
    let token = CancelToken::new();
    signal::cancel_on_signal(token.clone());
    Ok(Exec::with_cancel(budget(args)?, token).with_threads(threads(args)?))
}

/// Attach a tracer to `exec` when `--trace-out <path>` is given. The
/// returned handle flushes the recorded spans as JSONL after the run.
fn with_trace(args: &[String], exec: Exec) -> (Exec, Option<(Arc<Tracer>, String)>) {
    match flag(args, "--trace-out") {
        Some(path) => {
            let tracer = Arc::new(Tracer::new());
            let exec = exec.with_tracer(Arc::clone(&tracer));
            (exec, Some((tracer, path)))
        }
        None => (exec, None),
    }
}

/// Write the spans collected by [`with_trace`] to the requested file.
/// Tracing is observation-only: a failed flush is an I/O error, but the
/// report already printed is complete and correct.
fn flush_trace(trace: Option<(Arc<Tracer>, String)>) -> Result<(), CliError> {
    if let Some((tracer, path)) = trace {
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| DeptreeError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        esay!("wrote {} trace spans to {path}", tracer.spans().len());
    }
    Ok(())
}

/// Parse a `--types` spec (`c,t,n,...`) into column types.
fn parse_types(spec: &str) -> Result<Vec<ValueType>, CliError> {
    spec.split(',')
        .map(|t| match t.trim() {
            "c" => Ok(ValueType::Categorical),
            "t" => Ok(ValueType::Text),
            "n" => Ok(ValueType::Numeric),
            other => Err(usage(format!("unknown type `{other}` (use c, t or n)"))),
        })
        .collect()
}

/// Load one CSV file with an optional type spec; `lossy` downgrades cell
/// errors to stderr warnings.
fn load_csv_file(path: &str, types_spec: Option<&str>, lossy: bool) -> Result<Relation, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| DeptreeError::Io {
        path: path.to_owned(),
        message: e.to_string(),
    })?;
    let header_cols = text
        .lines()
        .next()
        .ok_or_else(|| DeptreeError::Parse(format!("{path}: empty file")))?
        .split(',')
        .count();
    let types = match types_spec {
        Some(spec) => parse_types(spec)?,
        None => vec![ValueType::Categorical; header_cols],
    };
    if lossy {
        let out = parse_csv_lossy(&text, &types).map_err(DeptreeError::from)?;
        for issue in &out.issues {
            esay!("warning: {path}: {issue}");
        }
        Ok(out.relation)
    } else {
        Ok(parse_csv(&text, &types).map_err(DeptreeError::from)?)
    }
}

fn load(args: &[String]) -> Result<Relation, CliError> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--") && a.ends_with(".csv"))
        .ok_or_else(|| usage("no input CSV given"))?;
    load_csv_file(
        path,
        flag(args, "--types").as_deref(),
        args.iter().any(|a| a == "--lossy"),
    )
}

/// After printing partial results, surface the truncation as the exit
/// status (code 6, or 7 when cancelled) so callers can distinguish
/// complete from partial runs.
fn check_complete(exhausted: Option<BudgetKind>) -> Result<(), CliError> {
    match exhausted {
        None => Ok(()),
        Some(BudgetKind::Cancelled) => {
            esay!("note: cancelled — results above are sound but partial");
            Err(DeptreeError::Cancelled.into())
        }
        Some(kind) => {
            esay!("note: {kind} exhausted — results above are sound but partial");
            Err(DeptreeError::BudgetExhausted(kind).into())
        }
    }
}

fn profile(args: &[String]) -> Result<(), CliError> {
    let r = load(args)?;
    let opts = tasks::ProfileOpts {
        max_lhs: num_flag(args, "--max-lhs")?.unwrap_or(2) as usize,
        error: flag(args, "--error")
            .map(|v| v.parse().map_err(|_| usage("bad --error")))
            .transpose()?
            .unwrap_or(0.0),
    };
    let (exec, trace) = with_trace(args, interruptible_exec(args)?);
    let report = tasks::profile(&r, &opts, &exec);
    emit(&report.text);
    drop(exec);
    flush_trace(trace)?;
    check_complete(report.exhausted)
}

/// The `--rule` flag (shared by detect/repair/validate-style commands).
fn rule_flag(args: &[String]) -> Result<String, CliError> {
    flag(args, "--rule").ok_or_else(|| usage("missing --rule \"lhs -> rhs\""))
}

fn detect(args: &[String]) -> Result<(), CliError> {
    let r = load(args)?;
    let report = tasks::detect(&r, &rule_flag(args)?)?;
    emit(&report.text);
    Ok(())
}

fn repair_cmd(args: &[String]) -> Result<(), CliError> {
    let r = load(args)?;
    let rule = rule_flag(args)?;
    let (exec, trace) = with_trace(args, interruptible_exec(args)?);
    let (report, repaired) = tasks::repair(&r, &rule, &exec)?;
    emit(&report.text);
    drop(exec);
    flush_trace(trace)?;
    let out = flag(args, "--out").unwrap_or_else(|| "repaired.csv".into());
    std::fs::write(&out, to_csv(&repaired)).map_err(|e| DeptreeError::Io {
        path: out.clone(),
        message: e.to_string(),
    })?;
    say!("wrote {out}");
    check_complete(report.exhausted)
}

/// Parse one `--data name=path[:types]` spec. The `:types` suffix is
/// only treated as a type list when it looks like one (`c`/`t`/`n`,
/// comma-separated), so paths containing `:` keep working.
fn parse_data_spec(spec: &str) -> Result<(String, String, Option<String>), CliError> {
    let Some((name, rest)) = spec.split_once('=') else {
        return Err(usage(format!(
            "bad --data `{spec}` (want name=path[:types])"
        )));
    };
    if name.is_empty() {
        return Err(usage(format!("bad --data `{spec}`: empty dataset name")));
    }
    if let Some((path, types)) = rest.rsplit_once(':') {
        let is_types = !types.is_empty() && types.split(',').all(|t| matches!(t, "c" | "t" | "n"));
        if is_types {
            return Ok((name.to_owned(), path.to_owned(), Some(types.to_owned())));
        }
    }
    Ok((name.to_owned(), rest.to_owned(), None))
}

/// All occurrences of a repeatable flag.
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// `deptree serve`: preload datasets, run the daemon, drain gracefully on
/// SIGINT/SIGTERM and exit 0.
fn serve_cmd(args: &[String]) -> Result<(), CliError> {
    let specs = flag_all(args, "--data");
    if specs.is_empty() {
        return Err(usage("serve needs at least one --data name=path[:types]"));
    }
    let lossy = args.iter().any(|a| a == "--lossy");
    let mut datasets = Vec::new();
    for spec in &specs {
        let (name, path, types) = parse_data_spec(spec)?;
        let r = load_csv_file(&path, types.as_deref(), lossy)?;
        esay!(
            "loaded `{name}`: {} rows × {} columns",
            r.n_rows(),
            r.n_attrs()
        );
        datasets.push((name, r));
    }

    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        datasets,
        max_connections: num_flag(args, "--max-conns")?
            .map_or(defaults.max_connections, |n| n as usize),
        queue_depth: num_flag(args, "--queue-depth")?.map_or(defaults.queue_depth, |n| n as usize),
        workers: num_flag(args, "--workers")?.map_or(defaults.workers, |n| n as usize),
        read_timeout: num_flag(args, "--read-timeout-ms")?
            .map_or(defaults.read_timeout, Duration::from_millis),
        frame_timeout: num_flag(args, "--frame-timeout-ms")?
            .map_or(defaults.frame_timeout, Duration::from_millis),
        write_timeout: num_flag(args, "--write-timeout-ms")?
            .map_or(defaults.write_timeout, Duration::from_millis),
        default_deadline: num_flag(args, "--default-timeout-ms")?
            .map_or(defaults.default_deadline, Duration::from_millis),
        max_deadline: num_flag(args, "--max-timeout-ms")?
            .map_or(defaults.max_deadline, Duration::from_millis),
        drain_grace: num_flag(args, "--drain-grace-ms")?
            .map_or(defaults.drain_grace, Duration::from_millis),
        threads: threads(args)?,
        limits: defaults.limits,
        max_requests_per_conn: num_flag(args, "--max-requests-per-conn")?
            .map_or(defaults.max_requests_per_conn, |n| (n as usize).max(1)),
        keepalive_idle: num_flag(args, "--keepalive-idle-ms")?
            .map_or(defaults.keepalive_idle, Duration::from_millis),
        // The CLI default turns the response cache ON (the library
        // default is off so embedded tests opt in): production traffic
        // is read-heavy and the cache is invalidation-safe by design.
        response_cache_bytes: num_flag(args, "--response-cache-bytes")?
            .map_or(64 << 20, |n| n as usize),
    };

    // Install the signal handler *before* announcing the listener: a
    // supervisor that reacts to "listening on" with an immediate SIGTERM
    // must find the counting handler in place, not the default one.
    signal::install();
    let handle = deptree::serve::spawn(config).map_err(CliError::from)?;
    say!("listening on {}", handle.addr());

    // First signal → graceful drain; second → force exit. The handler
    // only counts; this loop acts.
    while signal::received() == 0 {
        std::thread::sleep(Duration::from_millis(25));
    }
    esay!(
        "signal received — draining (in-flight: {})",
        handle.drain_state().inflight()
    );
    let force = std::thread::Builder::new()
        .name("deptree-force-exit".to_owned())
        .spawn(|| loop {
            if signal::received() >= 2 {
                // The contract a supervisor can script against: a second
                // SIGTERM mid-drain abandons in-flight work, says so on
                // stderr, and exits 130 — never 0, never a hang.
                esay!("forced shutdown during drain");
                std::process::exit(130);
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    drop(force);
    handle.drain();
    handle.join();
    esay!("drained; exiting");
    Ok(())
}

/// `deptree gateway`: supervise a fleet of `deptree serve` workers and
/// front them with health-probed respawn and byte-identical proxying to
/// each dataset's holders (DESIGN.md §12).
fn gateway_cmd(args: &[String]) -> Result<(), CliError> {
    check_gateway_flags(args)?;
    let specs = flag_all(args, "--data");
    if specs.is_empty() {
        return Err(usage("gateway needs at least one --data name=path[:types]"));
    }
    let lossy = args.iter().any(|a| a == "--lossy");
    let mut datasets = Vec::new();
    for spec in &specs {
        let (name, path, types) = parse_data_spec(spec)?;
        datasets.push(DatasetSpec { name, path, types });
    }

    let d = GatewayConfig::default();
    let mut listen = d.listen.clone();
    listen.addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    if let Some(n) = num_flag(args, "--max-conns")? {
        listen.max_connections = n as usize;
    }
    if let Some(n) = num_flag(args, "--queue-depth")? {
        listen.queue_depth = n as usize;
    }
    if let Some(ms) = num_flag(args, "--drain-grace-ms")? {
        listen.drain_grace = Duration::from_millis(ms);
    }
    let config = GatewayConfig {
        worker_bin: flag(args, "--worker-bin")
            .map(std::path::PathBuf::from)
            .unwrap_or(d.worker_bin),
        workers: num_flag(args, "--workers")?.map_or(d.workers, |n| (n as usize).max(1)),
        replicas: num_flag(args, "--replicas")?.map_or(d.replicas, |n| n as usize),
        datasets,
        lossy,
        worker_threads: threads(args)?,
        default_deadline: num_flag(args, "--default-timeout-ms")?
            .map_or(d.default_deadline, Duration::from_millis),
        max_deadline: num_flag(args, "--max-timeout-ms")?
            .map_or(d.max_deadline, Duration::from_millis),
        respawn_base: num_flag(args, "--respawn-base-ms")?
            .map_or(d.respawn_base, Duration::from_millis),
        respawn_max: num_flag(args, "--respawn-max-ms")?
            .map_or(d.respawn_max, Duration::from_millis),
        quarantine_after: num_flag(args, "--quarantine-after")?
            .map_or(d.quarantine_after, |n| (n as u32).max(1)),
        quarantine_cooldown: num_flag(args, "--quarantine-cooldown-ms")?
            .map_or(d.quarantine_cooldown, Duration::from_millis),
        probe_interval: num_flag(args, "--probe-interval-ms")?
            .map_or(d.probe_interval, Duration::from_millis),
        child_grace: num_flag(args, "--child-grace-ms")?
            .map_or(d.child_grace, Duration::from_millis),
        listen,
    };

    // Signal handler before the announcement, same contract as `serve`:
    // a supervisor may SIGTERM us the instant it sees "listening on".
    // SIGHUP is counted separately and mapped to a rolling restart.
    signal::install();
    signal::install_hup();
    let handle = deptree::serve::spawn_gateway(config).map_err(CliError::from)?;
    say!("listening on {}", handle.addr());

    let mut hups_seen = 0;
    while signal::received() == 0 {
        let hups = signal::hup_received();
        if hups > hups_seen {
            hups_seen = hups;
            if handle.request_reload() {
                esay!("SIGHUP — rolling restart started");
            } else {
                esay!("SIGHUP ignored — a rolling restart is already in progress");
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    esay!(
        "signal received — draining (in-flight: {})",
        handle.drain_state().inflight()
    );
    // The force path cannot wait for the drain: pass the worker pids in,
    // SIGTERM them directly, and exit 130. Workers drain themselves.
    let worker_pids: Vec<u32> = handle.worker_pids().into_iter().flatten().collect();
    let force = std::thread::Builder::new()
        .name("deptree-force-exit".to_owned())
        .spawn(move || loop {
            if signal::received() >= 2 {
                esay!("forced shutdown during drain");
                for pid in &worker_pids {
                    let _ = signal::send(*pid, signal::SIGTERM);
                }
                std::process::exit(130);
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    drop(force);
    handle.drain_and_join();
    esay!("drained; exiting");
    Ok(())
}

/// Every flag `deptree gateway` reads that takes a value; `--lossy` is
/// the one that takes none.
const GATEWAY_VALUE_FLAGS: [&str; 17] = [
    "--data",
    "--workers",
    "--replicas",
    "--addr",
    "--worker-bin",
    "--respawn-base-ms",
    "--respawn-max-ms",
    "--quarantine-after",
    "--quarantine-cooldown-ms",
    "--probe-interval-ms",
    "--default-timeout-ms",
    "--max-timeout-ms",
    "--drain-grace-ms",
    "--child-grace-ms",
    "--max-conns",
    "--queue-depth",
    "--threads",
];

/// A flag the gateway does not read is a usage error, not a silent
/// default: a misspelt or retired flag must not start another deployment.
fn check_gateway_flags(args: &[String]) -> Result<(), CliError> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--lossy" {
            continue;
        }
        if arg == "--shard" {
            return Err(usage(
                "--shard is gone: every dataset is served whole; use --replicas N for extra copies",
            ));
        }
        if !GATEWAY_VALUE_FLAGS.contains(&arg.as_str()) {
            return Err(usage(format!("unknown gateway argument `{arg}`")));
        }
        if rest.next().is_none() {
            return Err(usage(format!("{arg} needs a value")));
        }
    }
    Ok(())
}

/// `deptree query`: one request to a running `deptree serve`, with retry
/// and jittered backoff for retryable failures.
fn query_cmd(args: &[String]) -> Result<(), CliError> {
    let Some(task) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err(usage(
            "query needs a task: discover|validate|detect|repair|dedup|datasets|metrics|reload",
        ));
    };
    let addr = flag(args, "--addr").ok_or_else(|| usage("missing --addr HOST:PORT"))?;
    let defaults = ClientConfig::default();
    // `--max-attempts` is the total request cap (attempts = retries + 1)
    // and wins over `--retries`; the DEPTREE_QUERY_MAX_ATTEMPTS
    // environment variable sits between the two, so a CI harness can
    // tighten every invocation without editing each call site.
    let max_attempts = match num_flag(args, "--max-attempts")? {
        Some(0) => return Err(usage("bad --max-attempts (must be at least 1)")),
        Some(n) => Some(n),
        None => std::env::var("DEPTREE_QUERY_MAX_ATTEMPTS")
            .ok()
            .map(|v| match v.parse::<u64>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(usage(
                    "bad DEPTREE_QUERY_MAX_ATTEMPTS (must be an integer >= 1)",
                )),
            })
            .transpose()?,
    };
    let retries = match max_attempts {
        Some(n) => (n - 1).min(u32::MAX as u64) as u32,
        None => num_flag(args, "--retries")?.map_or(defaults.retries, |n| n as u32),
    };
    let config = ClientConfig {
        addr,
        retries,
        seed: num_flag(args, "--seed")?.unwrap_or(defaults.seed),
        ..defaults
    };

    if task == "reload" {
        // Kick a gateway's rolling restart; progress shows up in
        // /healthz (`reloading`) and the per-worker restart counters.
        let resp = deptree::serve::query(&config, "POST", "/admin/reload", None)
            .map_err(|e| CliError::Exit(e.code.exit_code(), e.to_string()))?;
        say!(
            "rolling restart started ({} worker(s))",
            resp.body.u64_field("workers").unwrap_or(0)
        );
        return Ok(());
    }

    if task == "metrics" {
        // `/metrics` is Prometheus text, not JSON — fetch and print raw
        // so scrapers and CI can grep it without an HTTP client.
        let (status, text) = deptree::serve::fetch_text(&config, "/metrics")
            .map_err(|e| CliError::Exit(e.code.exit_code(), e.to_string()))?;
        if status != 200 {
            return Err(CliError::Exit(
                DeptreeError::Unsupported(String::new()).exit_code(),
                format!("/metrics answered HTTP {status}"),
            ));
        }
        emit(&text);
        return Ok(());
    }

    let (method, path, body) = match task.as_str() {
        "datasets" => ("GET", "/v1/datasets".to_owned(), None),
        "discover" | "validate" | "detect" | "repair" | "dedup" => {
            let dataset = flag(args, "--dataset").ok_or_else(|| usage("missing --dataset"))?;
            let mut body = Json::obj().set("dataset", dataset.as_str());
            match task.as_str() {
                "validate" | "detect" | "repair" => {
                    body = body.set("rule", rule_flag(args)?.as_str());
                }
                "dedup" => {
                    let keys = flag(args, "--keys")
                        .ok_or_else(|| usage("missing --keys a,b for dedup"))?;
                    let keys: Vec<Json> = keys.split(',').map(|k| Json::from(k.trim())).collect();
                    body = body.set("keys", keys);
                }
                _ => {
                    if let Some(k) = num_flag(args, "--max-lhs")? {
                        body = body.set("max_lhs", k);
                    }
                    if let Some(e) = flag(args, "--error") {
                        let e: f64 = e.parse().map_err(|_| usage("bad --error"))?;
                        body = body.set("error", e);
                    }
                }
            }
            if let Some(ms) = num_flag(args, "--timeout-ms")? {
                body = body.set("timeout_ms", ms);
            }
            if let Some(n) = num_flag(args, "--max-nodes")? {
                body = body.set("max_nodes", n);
            }
            if let Some(n) = num_flag(args, "--max-rows")? {
                body = body.set("max_rows", n);
            }
            ("POST", format!("/v1/{task}"), Some(body))
        }
        other => {
            return Err(usage(format!(
                "unknown query task `{other}` (use discover|validate|detect|repair|dedup|datasets|metrics|reload)"
            )))
        }
    };

    // `--repeat N` re-issues the same request N times over one pooled
    // keep-alive connection (a cache/latency probe); the last response
    // is the one rendered. N = 1 is the plain single-shot path.
    let repeat = match num_flag(args, "--repeat")? {
        Some(0) => return Err(usage("bad --repeat (must be at least 1)")),
        Some(n) => n,
        None => 1,
    };
    let pool = deptree::serve::ConnPool::new();
    let mut resp = deptree::serve::query_pooled(&pool, &config, method, &path, body.as_ref())
        .map_err(|e| CliError::Exit(e.code.exit_code(), e.to_string()))?;
    for _ in 1..repeat {
        resp = deptree::serve::query_pooled(&pool, &config, method, &path, body.as_ref())
            .map_err(|e| CliError::Exit(e.code.exit_code(), e.to_string()))?;
    }

    if task == "datasets" {
        for d in resp
            .body
            .get("datasets")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            say!(
                "{}: {} rows × {} columns",
                d.str_field("name").unwrap_or("?"),
                d.u64_field("rows").unwrap_or(0),
                d.u64_field("columns").unwrap_or(0)
            );
        }
        return Ok(());
    }

    if let Some(report) = resp.body.str_field("report") {
        emit(report);
    }
    if let Some(csv) = resp.body.str_field("csv") {
        // Repair defaults its output file like the local command does —
        // silently dropping the repaired CSV would be data loss.
        let out =
            flag(args, "--out").or_else(|| (task == "repair").then(|| "repaired.csv".to_owned()));
        if let Some(out) = out {
            std::fs::write(&out, csv).map_err(|e| DeptreeError::Io {
                path: out.clone(),
                message: e.to_string(),
            })?;
            say!("wrote {out}");
        }
    }
    if resp.body.bool_field("partial") == Some(true) {
        let kind = resp
            .body
            .str_field("exhausted")
            .and_then(budget_from_wire)
            .unwrap_or(BudgetKind::Deadline);
        return check_complete(Some(kind));
    }
    Ok(())
}
