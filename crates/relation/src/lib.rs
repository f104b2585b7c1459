//! Relational substrate for the `deptree` workspace.
//!
//! This crate provides the data model every other crate builds on:
//!
//! * [`Value`] — a dynamically typed cell value (null / integer / float /
//!   string) with a total order and hashing, so values can live in keys of
//!   hash maps and be sorted without caveats;
//! * [`Schema`] / [`Attribute`] / [`AttrId`] — named, typed columns;
//! * [`AttrSet`] — a compact bitset over attribute ids, the currency of
//!   lattice-based discovery algorithms (TANE, CTANE, FASTOD, …);
//! * [`Relation`] — a column-oriented instance with grouping, projection and
//!   distinct-counting helpers;
//! * [`StrippedPartition`] — equivalence-class partitions with the product
//!   operation, the core data structure of partition-based discovery, and
//!   the [`Splitter`] that splits one partition's classes by another's,
//!   the core of violation detection and repair;
//! * [`examples`] — the running example instances of the survey (Tables 1,
//!   5, 6 and 7), reproduced verbatim so that every worked computation in
//!   the paper can be checked as a unit test.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod attrset;
pub mod column;
mod csv;
pub mod examples;
pub mod pairgen;
mod partition;
mod relation;
mod schema;
mod value;

pub use attrset::AttrSet;
pub use column::{Column, ColumnIndex};
pub use csv::{parse_csv, parse_csv_lossy, to_csv, CsvError, LossyCsv, ParseIssue};
pub use partition::{ProductScratch, Splitter, StrippedPartition, SubGroup};
pub use relation::{Relation, RelationBuilder, RelationError};
pub use schema::{AttrId, Attribute, Schema, ValueType};
pub use value::{Value, F64};
