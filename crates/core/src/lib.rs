//! # deptree-core — the data-dependency family tree
//!
//! This crate implements every dependency notation surveyed in *"Data
//! Dependencies Extended for Variety and Veracity: A Family Tree"* (Song,
//! Gao, Huang & Wang), organized exactly as the survey organizes them:
//!
//! * [`categorical`] — equality-based notations and their statistical /
//!   conditional extensions (§2): FDs, SFDs, PFDs, AFDs, NUDs, CFDs,
//!   eCFDs, MVDs, FHDs, AMVDs;
//! * [`heterogeneous`] — similarity-based notations for data with variety
//!   (§3): MFDs, NEDs, DDs, CDDs, CDs, PACs, FFDs, MDs, CMDs;
//! * [`numerical`] — order-based notations (§4): OFDs, ODs, DCs, SDs,
//!   CSDs;
//! * [`familytree`] — the survey's own contribution: the extension graph
//!   of Fig. 1, the timeline of Fig. 2 and the discovery-complexity
//!   landscape of Fig. 3, as queryable data with empirical verification
//!   hooks;
//! * [`uncertain`] — the §5.1 future direction: horizontal (possible-
//!   worlds) and vertical (or-set) readings of FDs over uncertain
//!   relations;
//! * [`engine`] — the resilient execution engine: resource [`Budget`]s,
//!   cooperative cancellation and the anytime [`Outcome`] contract that
//!   every bounded discovery/quality entry point upholds;
//! * [`error`] — the structured [`DeptreeError`] surfaced by fallible
//!   library entry points in place of panics.
//!
//! Every notation implements the [`Dependency`] trait (satisfaction +
//! violation detection) and, where the survey draws an arrow in Fig. 1,
//! provides an `embed`/`from_*` conversion from its special case whose
//! semantics-preservation is tested property-style.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod categorical;
mod dep;
pub mod engine;
pub mod error;
pub mod familytree;
pub mod heterogeneous;
pub mod numerical;
pub mod op;
pub mod pairs;
pub mod uncertain;

pub use dep::{DepKind, Dependency, Violation};
pub use engine::{Budget, BudgetKind, CancelToken, EngineStats, Exec, Outcome};
pub use error::DeptreeError;
pub use op::CmpOp;

pub use categorical::{
    Afd, Amvd, Cfd, CfdTableau, ECfd, Fd, Fhd, Mvd, Nud, Pattern, PatternCell, PatternOp, Pfd, Sfd,
};
pub use heterogeneous::{
    Cd, Cdd, Cmd, Condition, Dd, DiffAtom, Ffd, Md, Mfd, Ned, NedAtom, Pac, SimFn,
};
pub use numerical::{
    Csd, CsdRow, Dc, Direction, Interval, Od, Ofd, Operand, Predicate, Sd, SingleAtomVerdicts,
};
