//! The deptree benchmark: one offline command that measures what users
//! of `deptree` see — a CLI `profile`, and served requests under three
//! traffic mixes — end to end with tracing off, and layer by layer in a
//! separate traced run. See `README.md` for the workloads, the metrics
//! and how to run, trace and compare.

pub mod expected;
pub mod http;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod proc;
pub mod report;
pub mod stats;
pub mod workloads;

/// Seconds one run measures by default; `BENCHMARK.json`'s
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Window of `run --smoke`.
pub const SMOKE_SECONDS: u64 = 2;
