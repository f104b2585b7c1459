//! Result records, the human report, and `compare`.

use crate::metrics;
use crate::stats::{self, Verdict};
use crate::workloads::{Outcome, Value, Workload};
use deptree::serve::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Where and how a run was made.
#[derive(Debug, Clone)]
pub struct Meta {
    /// `git rev-parse HEAD` of the checkout, or `unknown`.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Available hardware threads.
    pub nproc: usize,
}

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

impl Meta {
    /// Collect the metadata once per process.
    pub fn collect(root: &Path) -> Meta {
        Meta {
            commit: first_line(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(["rev-parse", "HEAD"]),
            )
            .unwrap_or_else(|| "unknown".into()),
            rustc: first_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// How one run was configured, for its record.
#[derive(Debug, Clone, Copy)]
pub struct RunInfo {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Window length in seconds.
    pub window_s: f64,
    /// Tiny inputs.
    pub smoke: bool,
    /// Per-layer (traced) metrics.
    pub traced: bool,
}

/// Whether a run passed: every check held.
pub fn correct(o: &Outcome) -> bool {
    o.tally.failed == 0 && o.tally.problems.is_empty()
}

fn unit(name: &str) -> &'static str {
    metrics::def(name).map_or("", |d| d.unit)
}

/// One JSON object per metric; `n` only when asked for.
fn metrics_json(values: &[Value], with_n: bool) -> String {
    let fields: Vec<String> = values
        .iter()
        .filter_map(|v| {
            let value = v.value?;
            let n = if with_n {
                format!(",\"n\":{}", v.n)
            } else {
                String::new()
            };
            Some(format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"{n}}}",
                v.name,
                unit(v.name)
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The single-line result a one-workload run prints last,
/// where every metric must have a value.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct(o) && o.values.iter().all(|v| v.value.is_some()),
        o.tally.attempted.max(1),
        o.tally.failed,
        metrics_json(&o.values, false)
    )
}

/// A full result record (one JSON line) for `compare`.
pub fn record(o: &Outcome, info: &RunInfo, meta: &Meta) -> String {
    let (threads, workers) = info.workload.threads_workers();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"window_s\":{},\"smoke\":{},\"traced\":{},\"commit\":{},\"nproc\":{},\"threads\":{threads},\"workers\":{workers},\"rustc\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        info.workload.name(),
        info.seed,
        info.window_s,
        info.smoke,
        info.traced,
        crate::inputs::json_string(&meta.commit),
        meta.nproc,
        crate::inputs::json_string(&meta.rustc),
        correct(o),
        o.tally.attempted,
        o.tally.failed,
        metrics_json(&o.values, true)
    )
}

/// The human report of one run.
pub fn print_run(o: &Outcome, info: &RunInfo, meta: &Meta) {
    let (threads, workers) = info.workload.threads_workers();
    println!(
        "== {} (seed {}, window {} s{}{}) commit {} · nproc {} · threads {threads} · workers {workers} · {}",
        info.workload.name(),
        info.seed,
        info.window_s,
        if info.smoke { ", smoke" } else { "" },
        if info.traced { ", traced" } else { "" },
        meta.commit,
        meta.nproc,
        meta.rustc
    );
    for v in &o.values {
        let value = v.value.map_or("n/a".to_owned(), |x| format!("{x:.4}"));
        println!(
            "  {:<32} {:>14} {:<6} n={}",
            v.name,
            value,
            unit(v.name),
            v.n
        );
    }
    println!(
        "  checked {} · failed {} · correct {}",
        o.tally.attempted,
        o.tally.failed,
        correct(o)
    );
    for p in &o.tally.problems {
        eprintln!("  problem: {p}");
    }
}

/// Metric samples of one side of a comparison:
/// workload → metric → values in file order.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read every result record under `path` (a file, or a directory of
/// files). Lines that are not records are skipped. Incorrect records are
/// counted, not used.
fn load(path: &Path) -> Result<(Side, usize), String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut side = Side::new();
    let mut incorrect = 0;
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let Ok(rec) = Json::parse(line) else { continue };
            let (Some(workload), Some(Json::Obj(fields))) =
                (rec.str_field("workload"), rec.get("metrics"))
            else {
                continue;
            };
            if rec.bool_field("correct") != Some(true) {
                incorrect += 1;
                continue;
            }
            let per = side.entry(workload.to_owned()).or_default();
            for (name, m) in fields {
                if let Some(v) = m.f64_field("value") {
                    per.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    if side.is_empty() {
        return Err(format!("{}: no correct result records", path.display()));
    }
    Ok((side, incorrect))
}

/// `compare A B`: A is the parent, B the change. Prints one row per
/// workload and metric; returns whether every end-to-end verdict is
/// within bound or improved and no record was incorrect.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (pa, bad_a) = load(a)?;
    let (pb, bad_b) = load(b)?;
    let mut clean = bad_a == 0 && bad_b == 0;
    if !clean {
        println!("incorrect records: {bad_a} in A, {bad_b} in B (excluded)");
    }
    println!(
        "{:<18} {:<30} {:>12} {:>23} {:>12} {:>23} {:>8}  verdict",
        "workload", "metric", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "Δ"
    );
    for (workload, ma) in &pa {
        let Some(mb) = pb.get(workload) else {
            println!("{workload:<18} missing from B");
            clean = false;
            continue;
        };
        for (name, va) in ma {
            let Some(vb) = mb.get(name) else { continue };
            let (am, bm) = (stats::median(va), stats::median(vb));
            let ((a1, a3), (b1, b3)) = (stats::quartiles(va), stats::quartiles(vb));
            let delta = if am != 0.0 {
                (bm - am) / am.abs() * 100.0
            } else {
                0.0
            };
            // Per-layer metrics carry no bound, so they get no verdict.
            let verdict = match metrics::def(name).and_then(|d| Some((d.better, d.bound?))) {
                Some((better, bound)) => {
                    let v = stats::verdict(va, vb, better, bound);
                    clean &= matches!(v, Verdict::WithinBound | Verdict::Improved);
                    v.label()
                }
                None => "-",
            };
            println!(
                "{workload:<18} {name:<30} {am:>12.4} {:>23} {bm:>12.4} {:>23} {delta:>7.1}%  {verdict}",
                format!("[{a1:.3}, {a3:.3}] {}", va.len()),
                format!("[{b1:.3}, {b3:.3}] {}", vb.len()),
            );
        }
    }
    Ok(clean)
}
