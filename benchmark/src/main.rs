//! `benchmark`: the deptree benchmark's command line.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is its JSON result
//! benchmark run [--seed N] [--workload W]... [--seconds S] [--smoke] [--out FILE]
//!     end-to-end metrics of each workload (default: all), checked;
//!     --out appends one result record per workload
//! benchmark trace [--seed N] [--workload W]... [--seconds S] [--smoke] [--spans FILE] [--out FILE]
//!     the traced run: per-layer metrics and span self times
//! benchmark compare A B
//!     A (parent) against B (change): files or directories of records
//! ```

use deptree_benchmark::inputs::{FULL, SMOKE};
use deptree_benchmark::report::{self, Meta, RunInfo};
use deptree_benchmark::workloads::{self, Settings, Workload};
use deptree_benchmark::{layers, proc, RUN_SECONDS, SMOKE_SECONDS};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1
  benchmark run [--seed N] [--workload W]... [--seconds S] [--smoke] [--out FILE]
  benchmark trace [--seed N] [--workload W]... [--seconds S] [--smoke] [--spans FILE] [--out FILE]
  benchmark compare A B
workloads: profile_cli serve_uncached serve_cached serve_read_write";

/// Parsed options shared by the run modes.
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => o.seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?),
            "--spans" => o.spans = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => Err("compare takes two paths".into()),
        },
        Some("run") => parse(&args[1..]).and_then(|o| runs(o, false)),
        Some("trace") => parse(&args[1..]).and_then(|mut o| {
            o.trace = true;
            runs(o, false)
        }),
        Some(_) => parse(&args).and_then(|o| match o.workloads.len() {
            1 => runs(o, true),
            _ => Err("name exactly one --workload".into()),
        }),
        None => Err("missing arguments".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run each selected workload once; `Ok(true)` when every run passed.
/// A one-workload run (`single`) prints its JSON result as the last
/// stdout line.
fn runs(o: Opts, single: bool) -> Result<bool, String> {
    let bin = proc::build_deptree()?;
    let meta = Meta::collect(&proc::repo_root());
    let seconds = o
        .seconds
        .unwrap_or(if o.smoke { SMOKE_SECONDS } else { RUN_SECONDS });
    let settings = Settings {
        seed: o.seed,
        window: Duration::from_secs(seconds),
        sizes: if o.smoke { SMOKE } else { FULL },
        trace: o.trace,
    };
    let selected = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads
    };
    let mut all_ok = true;
    let mut spans = Vec::new();
    for w in selected {
        let outcome = workloads::run(w, &bin, &settings);
        let info = RunInfo {
            workload: w,
            seed: o.seed,
            window_s: seconds as f64,
            smoke: o.smoke,
            traced: o.trace,
        };
        report::print_run(&outcome, &info, &meta);
        if o.trace && !single {
            println!("  span self time (ms), largest first:");
            for (name, ms) in layers::self_times(&outcome.spans).iter().take(12) {
                println!("    {name:<34} {ms:>10.3}");
            }
        }
        all_ok &= report::correct(&outcome);
        if let Some(out) = &o.out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(out)
                .map_err(|e| format!("{out}: {e}"))?;
            writeln!(f, "{}", report::record(&outcome, &info, &meta))
                .map_err(|e| format!("{out}: {e}"))?;
        }
        spans.extend(outcome.spans.iter().cloned().map(|mut s| {
            s.op = format!("{}/{}", w.name(), s.op);
            s
        }));
        if single {
            println!("{}", report::result_line(&outcome));
        }
    }
    if let Some(path) = &o.spans {
        std::fs::write(path, layers::spans_jsonl(&spans)).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {} spans to {path}", spans.len());
    }
    Ok(all_ok)
}
