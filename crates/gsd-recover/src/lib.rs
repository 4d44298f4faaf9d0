//! Fault tolerance for GraphSD: iteration-granular checkpointing, crash
//! recovery, and deterministic fault injection.
//!
//! GraphSD's BSP semantics give a clean recovery point: between driver-loop
//! iterations the complete system state is the committed vertex values plus
//! the frontier/accumulator bitmaps (see DESIGN.md §13). This crate turns
//! that observation into three cooperating pieces:
//!
//! * **Checkpointing** — [`CheckpointStore`] serializes a
//!   [`CheckpointData`] (values, accumulator, frontiers, cumulative
//!   [`gsd_runtime::RunStats`], engine-specific extras) into a versioned,
//!   per-section CRC32-checksummed snapshot and commits it with
//!   write-temp + [`gsd_io::Storage::sync`] + atomic rename; a JSON
//!   [`Manifest`] recording graph fingerprint, algorithm id, config hash
//!   and iteration number is the commit point. Stale checkpoints are
//!   garbage-collected by a keep-last-K retention policy.
//! * **Recovery** — engines accept a [`RecoveryConfig`] and resume from
//!   the latest manifest whose fingerprints match, producing
//!   bit-identical final values to an uninterrupted run.
//! * **Fault injection + retry** — [`FaultyStorage`] injects
//!   deterministic, seed-driven transient and permanent I/O errors over
//!   any [`gsd_io::Storage`]; [`RetryingStorage`] retries the retryable
//!   kinds with bounded exponential backoff, distinguishing them from
//!   fatal errors, and emits `IoRetry`/`IoGaveUp` trace events and
//!   counters.

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
#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod manifest;
pub mod retry;
pub mod snapshot;
pub mod store;

pub use config::RecoveryConfig;
pub use fault::{corrupt_object, CorruptionMode, FaultConfig, FaultTarget, FaultyStorage};
pub use manifest::{Manifest, ManifestTag, MANIFEST_VERSION};
pub use retry::{RetryPolicy, RetryingStorage};
pub use snapshot::CheckpointData;
pub use store::{graph_fingerprint, CheckpointStore};
