//! Iteration-granular checkpointing and crash recovery for the driver.
//!
//! GraphSD's BSP semantics give a clean recovery point: between driver-loop
//! iterations the complete system state is the committed vertex values plus
//! the frontier/accumulator bitmaps (see DESIGN.md §13). This module lives
//! next to its one caller, [`crate::driver`]:
//!
//! * **Checkpointing** — [`CheckpointStore`] serializes a
//!   [`CheckpointData`] (values, accumulator, frontiers, cumulative
//!   [`gsd_runtime::RunStats`], engine-specific extras) into a versioned,
//!   per-section CRC32-checksummed snapshot and commits it with
//!   write-temp + [`gsd_io::Storage::sync`] + atomic rename; a JSON
//!   manifest recording graph fingerprint, algorithm id, config hash
//!   and iteration number is the commit point. Stale checkpoints are
//!   garbage-collected by a keep-last-K retention policy.
//! * **Recovery** — engines accept a [`RecoveryConfig`] and resume from
//!   the latest manifest whose fingerprints match, producing
//!   bit-identical final values to an uninterrupted run.
//!
//! The fault-injection and retry `Storage` decorators that exercise this
//! path (`FaultyStorage`, `RetryingStorage`) need only keys and bytes and
//! live in `gsd-integrity`.

mod config;
mod manifest;
mod snapshot;
mod store;

pub use config::RecoveryConfig;
pub use manifest::ManifestTag;
pub use snapshot::CheckpointData;
pub use store::{graph_fingerprint, CheckpointStore};
