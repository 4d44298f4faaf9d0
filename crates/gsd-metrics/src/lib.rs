//! Trace analytics and performance-trajectory tooling for GraphSD.
//!
//! This crate turns the raw observability substrate (`gsd-trace` events,
//! `RunStats` accounting) into tracked, comparable artifacts:
//!
//! * [`report`] — the one fold over the trace stream
//!   ([`TraceReport::apply`]): per-run phase breakdowns, I/O-size
//!   histograms, prefetch analysis, hottest sub-blocks and scheduler
//!   decision explanations, plus the daemon and mutation sections. `gsd
//!   report` folds a JSONL file, `gsd_bench::LiveReport` a live process;
//! * [`bench`] — the schema-versioned `BENCH_*.json` report emitted by
//!   the counters gate, with validation and a deterministic-counter
//!   baseline comparison for CI gating;
//! * [`rss`] — peak resident-set-size sampling (Linux `VmHWM`).
//!
//! Everything here is strictly *observational*: folding a run live must
//! leave its results and accounted I/O bit-identical to an unobserved run
//! (enforced by `tests/metrics_neutrality.rs` at the workspace root).

#![forbid(unsafe_code)]
// Hot-path crate: errors propagate as typed `Result`s; a panic mid-run can
// leave partially-flushed vertex state behind (retired GSD001 — DESIGN.md §11).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod bench;
pub mod report;
pub mod rss;

pub use bench::{median, BenchEntry, BenchReport, BENCH_SCHEMA_VERSION};
pub use report::TraceReport;
