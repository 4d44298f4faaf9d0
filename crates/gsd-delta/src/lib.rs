//! Streaming graph mutations for GraphSD grids.
//!
//! `gsd-delta` turns a static preprocessed grid into a mutable one
//! without giving up any of the system's invariants:
//!
//! * [`batch`] — the mutation batch model and the `gsd ingest` text
//!   format (`+ src dst [w]` / `- src dst`).
//! * [`ingest`] — commits a batch as one atomic *epoch*: one delta
//!   segment (append-only, checksummed, LSM-style), then a meta reseal
//!   that names it — the commit point. Readers see either the whole
//!   epoch or none of it.
//! * [`compact`] — folds live segments back into base sub-blocks, one
//!   grid row at a time, through the preprocessor's own row layout.
//! * [`incremental`] — warm-starts a converged vertex program across a
//!   batch, seeding the frontier from the mutation's footprint, with a
//!   proof obligation (monotone frontier programs only) that makes the
//!   result bit-identical to a from-scratch run.
//!
//! The read path lives in `gsd-graph`: [`gsd_graph::DeltaOverlay`] is
//! loaded by `GridGraph::open`, so every engine, the prefetch pipeline,
//! and the serve daemon observe base + delta as one logical grid with no
//! code changes of their own.

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
#![warn(missing_docs)]

pub mod batch;
pub mod compact;
pub mod incremental;
pub mod ingest;

pub use batch::MutationBatch;
pub use compact::{compact, CompactReport};
pub use incremental::{incremental_run, IncrementalReport, SeededProgram};
pub use ingest::{ingest, IngestReport};
