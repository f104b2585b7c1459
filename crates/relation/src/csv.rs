//! Minimal CSV reading/writing for datasets and experiment output.
//!
//! Supports the common subset: comma separation, double-quote quoting with
//! `""` escapes, a header row. Typed parsing: numeric columns parse to
//! `Int`/`Float`, empty cells become `Null`.

use crate::column::Column;
use crate::relation::{Relation, RelationError};
use crate::schema::{Schema, ValueType};
use std::borrow::Cow;
use std::fmt;

/// Errors raised by [`parse_csv`].
#[derive(Debug)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// A data row's field count didn't match the header.
    Relation(RelationError),
    /// Header arity and type-list arity differ.
    TypeArity {
        /// Number of header columns.
        header: usize,
        /// Number of supplied types.
        types: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "CSV input has no header row"),
            CsvError::Relation(e) => write!(f, "{e}"),
            CsvError::TypeArity { header, types } => {
                write!(
                    f,
                    "header has {header} columns but {types} types were given"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<RelationError> for CsvError {
    fn from(e: RelationError) -> Self {
        CsvError::Relation(e)
    }
}

/// Split one CSV line into fields, borrowing from the input wherever
/// possible: a field only costs an allocation when it contains a quote
/// (and therefore needs unescaping). Unquoted fields — the overwhelmingly
/// common case — are zero-copy slices, which lets the relation's
/// dictionary interner probe them without ever building a `String` for a
/// repeated cell.
///
/// Semantics are identical to the historical per-field-`String` splitter:
/// `"` toggles quoting anywhere in a field, `""` inside quotes escapes a
/// literal quote, and commas inside quotes do not split.
fn split_line(line: &str) -> Vec<Cow<'_, str>> {
    let mut fields: Vec<Cow<'_, str>> = Vec::new();
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    // Current field: starts at `start`; `owned` buffers it once a quote
    // forces unescaping, with `seg` marking the verbatim run not yet
    // copied into the buffer.
    let mut start = 0usize;
    let mut seg = 0usize;
    let mut owned: Option<String> = None;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let buf = owned.get_or_insert_with(String::new);
                buf.push_str(&line[seg..i]);
                if in_quotes && bytes.get(i + 1) == Some(&b'"') {
                    buf.push('"');
                    i += 1;
                } else {
                    in_quotes = !in_quotes;
                }
                seg = i + 1;
            }
            b',' if !in_quotes => {
                match owned.take() {
                    Some(mut buf) => {
                        buf.push_str(&line[seg..i]);
                        fields.push(Cow::Owned(buf));
                    }
                    None => fields.push(Cow::Borrowed(&line[start..i])),
                }
                start = i + 1;
                seg = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    match owned {
        Some(mut buf) => {
            buf.push_str(&line[seg..]);
            fields.push(Cow::Owned(buf));
        }
        None => fields.push(Cow::Borrowed(&line[start..])),
    }
    fields
}

/// Parse CSV text into a relation. The first row is the header; `types`
/// assigns a [`ValueType`] to each column in order.
///
/// # Errors
/// Fails on a missing header, ragged rows, or a type list whose length
/// doesn't match the header.
pub fn parse_csv(text: &str, types: &[ValueType]) -> Result<Relation, CsvError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or(CsvError::MissingHeader)?;
    let names = split_line(header);
    if names.len() != types.len() {
        return Err(CsvError::TypeArity {
            header: names.len(),
            types: types.len(),
        });
    }
    let schema = Schema::from_attrs(
        names
            .into_iter()
            .map(Cow::into_owned)
            .zip(types.iter().copied()),
    );
    let mut rel = Relation::empty(schema)?;
    for line in lines {
        let fields = split_line(line);
        // Cells intern through each column's dictionary: repeated values
        // cost no allocation, and ragged rows surface as arity errors.
        rel.push_row_texts(&fields)?;
    }
    Ok(rel)
}

/// A non-fatal problem encountered by [`parse_csv_lossy`], pinned to its
/// 1-based data-row number (the header is row 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseIssue {
    /// The row had a different field count than the header; it was
    /// dropped.
    RaggedRow {
        /// 1-based data-row number.
        row: usize,
        /// Fields the header promised.
        expected: usize,
        /// Fields the row carried.
        got: usize,
    },
    /// A byte-order mark preceded the header and was stripped.
    ByteOrderMark,
}

impl fmt::Display for ParseIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseIssue::RaggedRow { row, expected, got } => {
                write!(
                    f,
                    "row {row}: expected {expected} fields, got {got}; row dropped"
                )
            }
            ParseIssue::ByteOrderMark => write!(f, "leading byte-order mark stripped"),
        }
    }
}

/// The result of a lossy parse: the rows that survived plus a report of
/// everything that was repaired or dropped along the way.
#[derive(Debug)]
pub struct LossyCsv {
    /// The relation built from the well-formed rows.
    pub relation: Relation,
    /// Per-row problems, in input order. Empty iff the input was clean.
    pub issues: Vec<ParseIssue>,
}

/// Parse real-world CSV, degrading instead of failing: a UTF-8 byte-order
/// mark is stripped, CRLF line endings are accepted, and ragged data rows
/// are dropped and reported as [`ParseIssue`]s rather than aborting the
/// parse. Structural errors that leave nothing to salvage (no header, a
/// type list that doesn't match the header) still fail.
///
/// The strict [`parse_csv`] remains the default entry point; use this one
/// when partial ingestion with a defect report is preferable to rejection.
///
/// # Errors
/// Fails only on a missing header or a header/type-list arity mismatch.
pub fn parse_csv_lossy(text: &str, types: &[ValueType]) -> Result<LossyCsv, CsvError> {
    let mut issues = Vec::new();
    let text = match text.strip_prefix('\u{feff}') {
        Some(rest) => {
            issues.push(ParseIssue::ByteOrderMark);
            rest
        }
        None => text,
    };
    // `str::lines` already tolerates CRLF, but quoted fields may retain a
    // stray trailing `\r`; trim it per line before splitting.
    let mut lines = text
        .lines()
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or(CsvError::MissingHeader)?;
    let names = split_line(header);
    if names.len() != types.len() {
        return Err(CsvError::TypeArity {
            header: names.len(),
            types: types.len(),
        });
    }
    let schema = Schema::from_attrs(
        names
            .into_iter()
            .map(Cow::into_owned)
            .zip(types.iter().copied()),
    );
    let mut rel = Relation::empty(schema)?;
    for (i, line) in lines.enumerate() {
        let fields = split_line(line);
        if fields.len() != types.len() {
            issues.push(ParseIssue::RaggedRow {
                row: i + 1,
                expected: types.len(),
                got: fields.len(),
            });
            continue;
        }
        rel.push_row_texts(&fields)?;
    }
    Ok(LossyCsv {
        relation: rel,
        issues,
    })
}

fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serialize a relation to CSV text (header + rows).
///
/// Each dictionary entry is rendered and quoted at most once, on its
/// first use; cells are then appended by code. Entries no row uses any
/// more (orphaned by [`Relation::set_value`]) are never rendered.
pub fn to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<String> = rel.schema().iter().map(|(_, a)| quote(&a.name)).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    let cols: Vec<&Column> = rel.schema().ids().map(|a| rel.col(a)).collect();
    let mut rendered: Vec<Vec<Option<String>>> =
        cols.iter().map(|c| vec![None; c.dict().len()]).collect();
    for row in 0..rel.n_rows() {
        for (i, (col, cells)) in cols.iter().zip(&mut rendered).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let code = col.code(row);
            let cell =
                cells[code as usize].get_or_insert_with(|| quote(&col.dict_value(code).render()));
            out.push_str(cell);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn round_trip() {
        let text = "name,city,price\nHyatt,\"Jackson, MS\",230\nRegis,Boston,319.5\n";
        let rel = parse_csv(
            text,
            &[ValueType::Text, ValueType::Text, ValueType::Numeric],
        )
        .unwrap();
        assert_eq!(rel.n_rows(), 2);
        assert_eq!(
            rel.value(0, rel.schema().id("city")),
            &Value::str("Jackson, MS")
        );
        assert_eq!(rel.value(0, rel.schema().id("price")), &Value::int(230));
        assert_eq!(rel.value(1, rel.schema().id("price")), &Value::float(319.5));
        let text2 = to_csv(&rel);
        let rel2 = parse_csv(
            &text2,
            &[ValueType::Text, ValueType::Text, ValueType::Numeric],
        )
        .unwrap();
        assert_eq!(rel, rel2);
    }

    #[test]
    fn empty_cells_become_null() {
        let rel = parse_csv("a,b\nx,\n,y\n", &[ValueType::Text, ValueType::Text]).unwrap();
        assert!(rel.value(0, crate::AttrId(1)).is_null());
        assert!(rel.value(1, crate::AttrId(0)).is_null());
    }

    #[test]
    fn escaped_quotes() {
        let rel = parse_csv("a\n\"say \"\"hi\"\"\"\n", &[ValueType::Text]).unwrap();
        assert_eq!(rel.value(0, crate::AttrId(0)), &Value::str("say \"hi\""));
    }

    #[test]
    fn ragged_row_rejected() {
        let err = parse_csv("a,b\nx\n", &[ValueType::Text, ValueType::Text]).unwrap_err();
        assert!(matches!(err, CsvError::Relation(_)));
    }

    #[test]
    fn type_arity_checked() {
        let err = parse_csv("a,b\nx,y\n", &[ValueType::Text]).unwrap_err();
        assert!(matches!(err, CsvError::TypeArity { .. }));
    }

    #[test]
    fn lossy_strips_bom_and_crlf() {
        let text = "\u{feff}a,b\r\nx,y\r\n1,2\r\n";
        let out = parse_csv_lossy(text, &[ValueType::Text, ValueType::Text]).unwrap();
        assert_eq!(out.relation.n_rows(), 2);
        assert_eq!(out.relation.schema().name(crate::AttrId(0)), "a");
        assert_eq!(out.issues, vec![ParseIssue::ByteOrderMark]);
        assert_eq!(out.relation.value(0, crate::AttrId(0)), &Value::str("x"));
    }

    #[test]
    fn lossy_drops_and_reports_ragged_rows() {
        let text = "a,b\nx,y\nonly-one\np,q,extra\nz,w\n";
        let out = parse_csv_lossy(text, &[ValueType::Text, ValueType::Text]).unwrap();
        assert_eq!(out.relation.n_rows(), 2);
        assert_eq!(
            out.issues,
            vec![
                ParseIssue::RaggedRow {
                    row: 2,
                    expected: 2,
                    got: 1
                },
                ParseIssue::RaggedRow {
                    row: 3,
                    expected: 2,
                    got: 3
                },
            ]
        );
        // The strict parser rejects the same input outright.
        assert!(parse_csv(text, &[ValueType::Text, ValueType::Text]).is_err());
    }

    #[test]
    fn lossy_matches_strict_on_clean_input() {
        let text = "name,price\nHyatt,230\nRegis,319.5\n";
        let types = [ValueType::Text, ValueType::Numeric];
        let strict = parse_csv(text, &types).unwrap();
        let lossy = parse_csv_lossy(text, &types).unwrap();
        assert_eq!(strict, lossy.relation);
        assert!(lossy.issues.is_empty());
    }

    #[test]
    fn lossy_still_fails_without_salvageable_structure() {
        assert!(matches!(
            parse_csv_lossy("", &[ValueType::Text]),
            Err(CsvError::MissingHeader)
        ));
        assert!(matches!(
            parse_csv_lossy("a,b\nx,y\n", &[ValueType::Text]),
            Err(CsvError::TypeArity { .. })
        ));
    }
}
