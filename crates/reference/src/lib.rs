//! Reference implementations of the deptree kernels, for differential tests
//! and benchmark baselines only.
//!
//! Each function here computes the same answer as a shipped kernel by the
//! most direct route available: grouping and ordering on [`Value`]s instead
//! of dictionary codes, scanning every row pair instead of enumerating
//! blocked candidates, evaluating every predicate per pair instead of per
//! distinct-tuple class. The shipped crates keep exactly one implementation
//! of each operation; the tests hold them equal to these.
//!
//! | module | reference for |
//! |---|---|
//! | [`relation`] | `Relation::{group_by, distinct_count, sorted_rows}`, `StrippedPartition::{from_column, from_attrs}`, `PartitionCache` products |
//! | [`pairgen`] | `PairIndex::build_attr` |
//! | [`od`] | the sorted single-atom check inside `Od::holds` |
//! | [`md`] | `Md::{matching_pairs, support_confidence}`, `discovery::md::discover` |
//! | [`ned`] | `Ned::support_confidence` |
//! | [`dd`] | `Dd::support_confidence`, `discovery::dd::discover` |
//! | [`dc`] | `discovery::dc::evidence_sets_blocked` |
//! | [`dedup`] | `quality::dedup::cluster` |
//!
//! Only the public API of the shipped crates is used. Where a reference
//! differs from the shipped path only in how candidates are scored (MD and
//! DD discovery, dedup clustering), it calls the shipped crate's public
//! pure helpers for everything else rather than copying them.
//!
//! [`Value`]: deptree_relation::Value

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dc;
pub mod dd;
pub mod dedup;
pub mod md;
pub mod ned;
pub mod od;
pub mod pairgen;
pub mod relation;
