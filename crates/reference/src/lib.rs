//! Reference implementations of the deptree kernels, for differential tests
//! and benchmark baselines only.
//!
//! Each function here computes the same answer as a shipped kernel by the
//! most direct route available: grouping and ordering on [`Value`]s instead
//! of dictionary codes, copying each group out of the relation instead of
//! splitting partitions, scanning every row pair instead of enumerating
//! blocked candidates, evaluating every predicate per pair instead of per
//! distinct-tuple class. The shipped crates keep exactly one implementation
//! of each operation; the tests hold them equal to these.
//!
//! | module | reference for |
//! |---|---|
//! | [`relation`] | `StrippedPartition::into_groups` (the one grouping kernel: groups in first-row order, code equality), `Relation::{distinct_count, sorted_rows}`, `StrippedPartition::{from_column, from_attrs, product_with_attr}` (TANE's level products) |
//! | [`fd`] | `Fd::{violations, g3}`, `Nud::{max_fanout, violations}`, `Pfd::probability`, `quality::repair::repair_fds`, `quality::cqa::consistent_answers_fd` |
//! | [`mvd`] | `Mvd::{spurious_tuples, join_size, violations, missing_tuples}`, `Fhd::spurious_tuples`, `quality::fairness::{saturate, prune}` |
//! | [`cfd`] | `Cfd::{holds, violations}`, `ECfd::violations`, CTANE |
//! | [`mfd`] | `Mfd::{holds, violations}`, `discovery::mfd::{minimal_delta, approx_verify}` |
//! | [`pairgen`] | `PairIndex::build_attr` |
//! | [`od`] | the sorted single-atom check inside `Od::holds` |
//! | [`md`] | `Md::{matching_pairs, support_confidence}`, `discovery::md::discover` |
//! | [`ned`] | `Ned::support_confidence` |
//! | [`dd`] | `Dd::support_confidence`, `discovery::dd::discover` |
//! | [`dc`] | `discovery::dc::evidence_sets_blocked` |
//! | [`cover`] | `discovery::cover::minimal_hitting_sets_bounded` |
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

pub mod cfd;
pub mod cover;
pub mod dc;
pub mod dd;
pub mod dedup;
pub mod fd;
pub mod md;
pub mod mfd;
pub mod mvd;
pub mod ned;
pub mod od;
pub mod pairgen;
pub mod relation;
