//! Output checks. Expected results are computed in-process, at one
//! thread, with `parse_csv` plus `tasks::*` over the same CSV text the
//! program is given; every reply and every CLI stdout is held to them.

use crate::inputs::{Kind, Request, Table, DEDUP_KEYS, LEDGER_MAX_LHS, ORDERS_MAX_LHS};
use deptree::core::engine::Exec;
use deptree::relation::{parse_csv, to_csv, Relation, ValueType};
use deptree::serve::{tasks, Json};

/// Parse a generated table the way `deptree` does for `--types`.
pub fn parse(table: &Table) -> Result<Relation, String> {
    let types: Vec<ValueType> = table
        .types
        .split(',')
        .map(|t| match t {
            "n" => ValueType::Numeric,
            "t" => ValueType::Text,
            _ => ValueType::Categorical,
        })
        .collect();
    parse_csv(&table.csv, &types).map_err(|e| format!("{}.csv: {e}", table.name))
}

/// A serial, unbounded execution context.
pub fn serial() -> Exec {
    Exec::unbounded().with_threads(1)
}

/// The profile report `deptree profile --max-lhs K` must print.
pub fn profile_text(r: &Relation, max_lhs: usize) -> String {
    let opts = tasks::ProfileOpts {
        max_lhs,
        error: 0.0,
    };
    tasks::profile(r, &opts, &serial()).text
}

/// What one served request must answer.
#[derive(Debug, Clone)]
pub enum Expected {
    /// A task reply: its `report`, plus `fds` (discover) or `csv` (repair).
    Task {
        /// The `report` field.
        report: String,
        /// The `fds` field of a discover reply.
        fds: Option<Vec<String>>,
        /// The `csv` field of a repair reply.
        csv: Option<String>,
    },
    /// The write: `orders` replaced by a table of this shape.
    Write {
        /// Rows loaded.
        rows: usize,
        /// Columns loaded.
        columns: usize,
    },
}

/// Run one served request's task in-process.
pub fn task(req: &Request, orders: &Relation, ledger: &Relation) -> Result<Expected, String> {
    let plain = |r: tasks::TaskReport| Expected::Task {
        report: r.text,
        fds: None,
        csv: None,
    };
    let opts = |max_lhs| tasks::ProfileOpts {
        max_lhs,
        error: 0.0,
    };
    let err = |e: deptree::core::DeptreeError| format!("in-process {:?}: {e}", req.kind);
    Ok(match req.kind {
        Kind::DiscoverOrders | Kind::DiscoverLedger => {
            let (r, k) = if req.kind == Kind::DiscoverOrders {
                (orders, ORDERS_MAX_LHS)
            } else {
                (ledger, LEDGER_MAX_LHS)
            };
            let report = tasks::profile(r, &opts(k), &serial());
            Expected::Task {
                report: report.text,
                fds: Some(report.fds),
                csv: None,
            }
        }
        Kind::Validate => plain(tasks::validate(orders, req.rule).map_err(err)?),
        Kind::Detect => plain(tasks::detect(orders, req.rule).map_err(err)?),
        Kind::Dedup => {
            let keys: Vec<String> = DEDUP_KEYS.iter().map(|k| (*k).to_owned()).collect();
            plain(tasks::dedup(orders, &keys, &serial()).map_err(err)?)
        }
        Kind::Repair => {
            let (report, repaired) = tasks::repair(orders, req.rule, &serial()).map_err(err)?;
            Expected::Task {
                report: report.text,
                fds: None,
                csv: Some(to_csv(&repaired)),
            }
        }
        Kind::Write => Expected::Write {
            rows: orders.n_rows(),
            columns: orders.n_attrs(),
        },
    })
}

/// Everything after a task reply's checked fields: the `stats` object,
/// whose elapsed time differs on every computation.
const STATS: &[u8] = b",\"stats\":";

/// Check one reply in full against its expected result. On success,
/// returns the reply's checked prefix: every byte before `stats` for a
/// task reply, all of it for the write. Later replies to the same
/// request are checked by comparing that prefix, which is cheap.
pub fn check_reply(status: u16, body: &[u8], want: &Expected) -> Result<Vec<u8>, String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {}", String::from_utf8_lossy(body)));
    }
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_owned())?;
    let got = Json::parse(text).map_err(|e| e.to_string())?;
    match want {
        Expected::Task { report, fds, csv } => {
            if got.bool_field("partial") != Some(false) {
                return Err("reply is partial".into());
            }
            if got.str_field("report") != Some(report.as_str()) {
                return Err("report differs from the in-process report".into());
            }
            if let Some(fds) = fds {
                let served: Option<Vec<&str>> = got
                    .get("fds")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_str).collect());
                if served != Some(fds.iter().map(String::as_str).collect()) {
                    return Err("fds differ from the in-process FD list".into());
                }
            }
            if let Some(csv) = csv {
                if got.str_field("csv") != Some(csv.as_str()) {
                    return Err("repaired csv differs from the in-process repair".into());
                }
            }
            let at = body
                .windows(STATS.len())
                .rposition(|w| w == STATS)
                .ok_or("reply has no stats")?;
            Ok(body[..at].to_vec())
        }
        Expected::Write { rows, columns } => {
            let ok = got.str_field("loaded") == Some("orders")
                && got.u64_field("rows") == Some(*rows as u64)
                && got.u64_field("columns") == Some(*columns as u64)
                && got.bool_field("replaced") == Some(true);
            if ok {
                Ok(body.to_vec())
            } else {
                Err(format!("unexpected write reply: {text}"))
            }
        }
    }
}

/// The cheap per-reply check used inside the timed window: the reply
/// repeats a fully checked prefix, followed by `stats` for task replies.
pub fn matches_prefix(body: &[u8], prefix: &[u8], write: bool) -> bool {
    if write {
        return body == prefix;
    }
    body.len() > prefix.len()
        && body[..prefix.len()] == *prefix
        && body[prefix.len()..].starts_with(STATS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reply_matches_its_checked_prefix_whatever_its_stats() {
        let want = Expected::Task {
            report: "r\n".into(),
            fds: None,
            csv: None,
        };
        let first = br#"{"task":"detect","report":"r\n","partial":false,"stats":{"elapsed_ms":3}}"#;
        let prefix = check_reply(200, first, &want).expect("the reply is as expected");
        let later = br#"{"task":"detect","report":"r\n","partial":false,"stats":{"elapsed_ms":9}}"#;
        assert!(matches_prefix(later, &prefix, false));
        let wrong = br#"{"task":"detect","report":"R\n","partial":false,"stats":{"elapsed_ms":9}}"#;
        assert!(!matches_prefix(wrong, &prefix, false));
        assert!(
            !matches_prefix(&prefix, &prefix, false),
            "stats must follow"
        );
    }

    #[test]
    fn partial_and_wrong_replies_fail_the_full_check() {
        let want = Expected::Task {
            report: "r\n".into(),
            fds: None,
            csv: None,
        };
        let partial = br#"{"report":"r\n","partial":true,"stats":{}}"#;
        assert!(check_reply(200, partial, &want).is_err());
        let other = br#"{"report":"x\n","partial":false,"stats":{}}"#;
        assert!(check_reply(200, other, &want).is_err());
        assert!(check_reply(503, b"{}", &want).is_err());
    }
}
