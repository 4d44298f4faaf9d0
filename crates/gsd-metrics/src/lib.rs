//! Metrics exposition and performance-trajectory tooling for GraphSD.
//!
//! This crate turns the raw observability substrate (`gsd-trace` events,
//! `CounterRegistry` histograms, `RunStats` accounting) into tracked,
//! comparable artifacts:
//!
//! * [`registry`] — a labeled metrics registry (counters, gauges and
//!   log₂ histograms with p50/p95/p99) that aggregates trace events;
//! * [`expo`] — Prometheus text-format and JSON exposition of a registry
//!   snapshot, plus a strict text-format validator;
//! * [`bridge`] — [`MetricsSink`](bridge::MetricsSink), a `TraceSink`
//!   that feeds the registry from a live run and periodically writes
//!   snapshot files (`--metrics-out`);
//! * [`bench`] — the schema-versioned `BENCH_*.json` report emitted by
//!   the wall-time benchmark harness, with validation and a
//!   deterministic-counter baseline comparison for CI gating;
//! * [`report`] — post-processing of a JSONL trace into per-phase time
//!   breakdowns, I/O-size histograms, prefetch analysis, hottest
//!   sub-blocks and scheduler decision explanations (`gsd report`);
//! * [`rss`] — peak resident-set-size sampling (Linux `VmHWM`).
//!
//! Everything here is strictly *observational*: attaching a
//! [`MetricsSink`](bridge::MetricsSink) to a run must leave results and
//! accounted I/O bit-identical to a run without one (enforced by
//! `tests/metrics_neutrality.rs` at the workspace root).

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
pub mod bridge;
pub mod expo;
pub mod registry;
pub mod report;
pub mod rss;

pub use bench::{median, BenchEntry, BenchReport, BENCH_SCHEMA_VERSION};
pub use bridge::MetricsSink;
pub use expo::ExpoFormat;
pub use registry::{MetricsRegistry, MetricsSnapshot, SeriesKey};
pub use report::TraceReport;
