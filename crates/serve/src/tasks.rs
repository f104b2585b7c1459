//! The service tasks, shared verbatim between `deptree` (CLI) and
//! `deptree serve` (daemon).
//!
//! Each task renders a plain-text report. The CLI prints it to stdout;
//! the server ships it in the `report` field of the response body. There
//! is exactly one rendering code path, which is what makes the
//! fault-injection suite's byte-identity check (`server report ==
//! CLI stdout`, at any thread count) meaningful rather than aspirational.
//!
//! All bounded work ticks one shared [`Exec`] per request, so a deadline
//! or drain-cancellation covers the whole task (every phase of `profile`
//! included) and the report carries the sound partial plus an honest
//! `exhausted` cause.

use deptree_core::engine::{BudgetKind, Exec};
use deptree_core::{Dependency, DeptreeError, Fd, Md};
use deptree_discovery::{cords, dc, od, tane};
use deptree_metrics::Metric;
use deptree_quality::{dedup, repair};
use deptree_relation::{AttrId, AttrSet, Relation, ValueType};
use std::fmt::Write as _;

/// A rendered task: the report text plus why it stopped, if early.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// The full plain-text report (newline-terminated lines).
    pub text: String,
    /// `Some(kind)` when a budget/cancellation truncated the work.
    pub exhausted: Option<BudgetKind>,
    /// Machine-readable FD rules discovered (discovery tasks only; the
    /// `"a, b -> c"` form accepted by `Fd::parse`). Served discover
    /// replies carry this full list as `fds`, so a client can parse the
    /// rules back losslessly — unlike the truncated-for-humans listing
    /// inside `text`.
    pub fds: Vec<String>,
}

/// Options for [`profile`].
#[derive(Debug, Clone)]
pub struct ProfileOpts {
    /// Maximum LHS size for the TANE lattice.
    pub max_lhs: usize,
    /// g3 error bound; 0.0 means exact FDs.
    pub error: f64,
}

impl Default for ProfileOpts {
    fn default() -> Self {
        ProfileOpts {
            max_lhs: 2,
            error: 0.0,
        }
    }
}

macro_rules! line {
    ($buf:expr) => {
        let _ = writeln!($buf);
    };
    ($buf:expr, $($arg:tt)*) => {
        let _ = writeln!($buf, $($arg)*);
    };
}

/// The discovery profile: approximate/exact FDs (TANE), soft FDs
/// (CORDS), and — when the schema has numeric columns — order
/// dependencies and denial constraints. One `exec` spans all phases.
pub fn profile(r: &Relation, opts: &ProfileOpts, exec: &Exec) -> TaskReport {
    let mut buf = String::new();
    let mut exhausted: Option<BudgetKind> = None;

    line!(buf, "{} rows × {} columns", r.n_rows(), r.n_attrs());
    line!(buf);

    let kind = if opts.error > 0.0 {
        "approximate FDs"
    } else {
        "exact FDs"
    };
    let mut span = exec.span("profile.tane");
    let t = tane::discover_bounded(
        r,
        &tane::TaneConfig {
            max_lhs: opts.max_lhs,
            max_error: opts.error,
        },
        exec,
    );
    span.attr("fds", t.result.fds.len() as u64);
    drop(span);
    exhausted = exhausted.or(t.exhausted);
    // The machine-readable list is never truncated: a client reading
    // `fds` sees everything TANE verified.
    let fds: Vec<String> = t.result.fds.iter().map(|fd| fd.rule().to_owned()).collect();
    line!(
        buf,
        "== {kind} (TANE, max LHS {}) — {} found{} ==",
        opts.max_lhs,
        t.result.fds.len(),
        if t.complete { "" } else { ", search truncated" }
    );
    for fd in t.result.fds.iter().take(25) {
        line!(buf, "  {fd}");
    }
    if t.result.fds.len() > 25 {
        line!(buf, "  … and {} more", t.result.fds.len() - 25);
    }

    let mut span = exec.span("profile.cords");
    let c = cords::discover(
        r,
        &cords::CordsConfig {
            min_strength: 0.8,
            ..Default::default()
        },
    );
    span.attr("sfds", c.sfds.len() as u64);
    drop(span);
    line!(
        buf,
        "\n== soft FDs (CORDS, strength ≥ 0.8 on {}-row sample) — {} found ==",
        c.sampled_rows,
        c.sfds.len()
    );
    let mut span = exec.span("profile.sfd_strength");
    let shown = c.sfds.iter().take(10);
    span.attr("sfds", shown.len() as u64);
    for sfd in shown {
        line!(buf, "  {sfd} (strength {:.2})", sfd.strength(r));
    }
    drop(span);

    let numeric = r
        .schema()
        .iter()
        .filter(|(_, a)| a.ty == ValueType::Numeric)
        .count();
    if numeric >= 2 {
        let mut span = exec.span("profile.od");
        let ods = od::discover_bounded(r, &od::OdConfig::default(), exec);
        span.attr("ods", ods.result.len() as u64);
        drop(span);
        exhausted = exhausted.or(ods.exhausted);
        line!(
            buf,
            "\n== order dependencies — {} found{} ==",
            ods.result.len(),
            if ods.complete {
                ""
            } else {
                ", search truncated"
            }
        );
        for o in ods.result.iter().take(10) {
            line!(buf, "  {o}");
        }
        if r.n_rows() <= 500 {
            let mut span = exec.span("profile.fastdc");
            let d = dc::discover_bounded(r, &dc::DcConfig::default(), exec);
            span.attr("dcs", d.result.dcs.len() as u64);
            drop(span);
            exhausted = exhausted.or(d.exhausted);
            line!(
                buf,
                "\n== denial constraints (FASTDC) — {} found{} ==",
                d.result.dcs.len(),
                if d.complete { "" } else { ", search truncated" }
            );
            for rule in d.result.dcs.iter().take(10) {
                line!(buf, "  {rule}");
            }
        } else {
            line!(
                buf,
                "\n(skipping FASTDC: {} rows > 500; sample the file)",
                r.n_rows()
            );
        }
    }
    TaskReport {
        text: buf,
        exhausted,
        fds,
    }
}

/// Parse an FD-style rule (`"a, b -> c"`) against the schema.
pub fn parse_rule(r: &Relation, rule: &str) -> Result<Fd, DeptreeError> {
    Fd::parse(r.schema(), rule).ok_or_else(|| {
        DeptreeError::Parse(format!("cannot parse rule `{rule}` against the header"))
    })
}

/// Does the rule hold, and how badly does it fail (g3)?
pub fn validate(r: &Relation, rule: &str) -> Result<TaskReport, DeptreeError> {
    let fd = parse_rule(r, rule)?;
    let mut buf = String::new();
    line!(buf, "{fd}: holds = {}, g3 = {:.4}", fd.holds(r), fd.g3(r));
    Ok(TaskReport {
        text: buf,
        exhausted: None,
        fds: Vec::new(),
    })
}

/// Violation witnesses of one FD-style rule.
pub fn detect(r: &Relation, rule: &str) -> Result<TaskReport, DeptreeError> {
    let fd = parse_rule(r, rule)?;
    let violations = fd.violations(r);
    let mut buf = String::new();
    line!(
        buf,
        "{fd}: {} violation witness(es), g3 = {:.4}",
        violations.len(),
        fd.g3(r)
    );
    for v in violations.iter().take(50) {
        let rows: Vec<String> = v.rows.iter().map(|row| format!("#{}", row + 1)).collect();
        line!(buf, "  rows {}", rows.join(" / "));
    }
    if violations.len() > 50 {
        line!(buf, "  … and {} more", violations.len() - 50);
    }
    Ok(TaskReport {
        text: buf,
        exhausted: None,
        fds: Vec::new(),
    })
}

/// Equivalence-class repair of one FD-style rule. Returns the report and
/// the repaired relation (the CLI writes it to `--out`; the server ships
/// it as CSV).
pub fn repair(
    r: &Relation,
    rule: &str,
    exec: &Exec,
) -> Result<(TaskReport, Relation), DeptreeError> {
    let fd = parse_rule(r, rule)?;
    let mut span = exec.span("repair.fds");
    let outcome = repair::repair_fds_bounded(r, std::slice::from_ref(&fd), 10, exec);
    let result = outcome.result;
    span.attr("iterations", result.iterations as u64);
    span.attr("changes", result.changes.len() as u64);
    drop(span);
    let mut buf = String::new();
    line!(
        buf,
        "repaired in {} iteration(s), {} cell(s) changed; rule now holds: {}",
        result.iterations,
        result.changes.len(),
        fd.holds(&result.relation)
    );
    Ok((
        TaskReport {
            text: buf,
            exhausted: outcome.exhausted,
            fds: Vec::new(),
        },
        result.relation,
    ))
}

/// Exact-duplicate clustering on the named key columns: rows equal on
/// every key are merged into one cluster (an all-equality MD).
pub fn dedup(r: &Relation, keys: &[String], exec: &Exec) -> Result<TaskReport, DeptreeError> {
    if keys.is_empty() {
        return Err(DeptreeError::InvalidConfig(
            "dedup needs at least one key column".into(),
        ));
    }
    let schema = r.schema();
    let mut lhs: Vec<(AttrId, Metric, f64)> = Vec::new();
    let mut key_set = AttrSet::empty();
    for key in keys {
        let Some((id, _)) = schema.iter().find(|(_, a)| a.name == *key) else {
            return Err(DeptreeError::InvalidConfig(format!(
                "unknown key column `{key}`"
            )));
        };
        lhs.push((id, Metric::Equality, 0.0));
        key_set = key_set.insert(id);
    }
    let rhs: AttrSet = schema
        .ids()
        .filter(|a| !key_set.contains(*a))
        .fold(AttrSet::empty(), |s, a| s.insert(a));
    if rhs.is_empty() {
        return Err(DeptreeError::InvalidConfig(
            "dedup keys must leave at least one non-key column".into(),
        ));
    }
    let md = Md::new(schema, lhs, rhs);
    let mut span = exec.span("dedup.cluster");
    let outcome = dedup::cluster_bounded(r, std::slice::from_ref(&md), exec);
    let clustering = outcome.result;
    span.attr("clusters", clustering.n_clusters as u64);
    drop(span);
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (row, &rep) in clustering.cluster.iter().enumerate() {
        groups.entry(rep).or_default().push(row);
    }
    let dup_groups: Vec<&Vec<usize>> = groups.values().filter(|g| g.len() > 1).collect();
    let mut buf = String::new();
    line!(
        buf,
        "== dedup on ({}) — {} rows → {} cluster(s), {} duplicate group(s){} ==",
        keys.join(", "),
        r.n_rows(),
        clustering.n_clusters,
        dup_groups.len(),
        if outcome.complete {
            ""
        } else {
            ", clustering truncated"
        }
    );
    for group in dup_groups.iter().take(20) {
        let rows: Vec<String> = group.iter().map(|row| format!("#{}", row + 1)).collect();
        line!(buf, "  rows {}", rows.join(" / "));
    }
    if dup_groups.len() > 20 {
        line!(buf, "  … and {} more group(s)", dup_groups.len() - 20);
    }
    Ok(TaskReport {
        text: buf,
        exhausted: outcome.exhausted,
        fds: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::engine::Budget;
    use deptree_relation::examples::hotels_r1;

    #[test]
    fn profile_reports_hotels() {
        let r = hotels_r1();
        let report = profile(&r, &ProfileOpts::default(), &Exec::unbounded());
        assert!(report.text.contains("rows × "));
        assert!(report.text.contains("exact FDs"));
        assert!(report.exhausted.is_none());
    }

    #[test]
    fn profile_is_deterministic_across_thread_counts() {
        let r = hotels_r1();
        let one = profile(
            &r,
            &ProfileOpts::default(),
            &Exec::unbounded().with_threads(1),
        );
        let eight = profile(
            &r,
            &ProfileOpts::default(),
            &Exec::unbounded().with_threads(8),
        );
        assert_eq!(one.text, eight.text);
    }

    #[test]
    fn detect_and_validate_agree_on_g3() {
        let r = hotels_r1();
        let d = detect(&r, "address -> region").unwrap();
        let v = validate(&r, "address -> region").unwrap();
        assert!(d.text.contains("g3 = 0.2500"), "{}", d.text);
        assert!(v.text.contains("g3 = 0.2500"), "{}", v.text);
        assert!(v.text.contains("holds = false"));
    }

    #[test]
    fn bad_rule_is_a_parse_error() {
        let r = hotels_r1();
        assert!(matches!(
            detect(&r, "no_such -> col"),
            Err(DeptreeError::Parse(_))
        ));
    }

    #[test]
    fn dedup_finds_exact_duplicates() {
        let r = hotels_r1();
        // Cluster on address: the two West Lake Rd. tuples merge.
        let report = dedup(&r, &["address".into()], &Exec::unbounded()).unwrap();
        assert!(report.text.contains("duplicate group"), "{}", report.text);
    }

    #[test]
    fn dedup_rejects_unknown_and_empty_keys() {
        let r = hotels_r1();
        assert!(dedup(&r, &[], &Exec::unbounded()).is_err());
        assert!(dedup(&r, &["nope".into()], &Exec::unbounded()).is_err());
    }

    #[test]
    fn profile_under_node_budget_reports_exhaustion() {
        let r = hotels_r1();
        let exec = Exec::new(Budget::new().with_max_nodes(1));
        let report = profile(&r, &ProfileOpts::default(), &exec);
        assert_eq!(report.exhausted, Some(BudgetKind::Nodes));
        assert!(report.text.contains("search truncated"));
    }
}
