//! Iteration-granular checkpointing and crash recovery for the driver.
//!
//! GraphSD's BSP semantics give a clean recovery point: between driver-loop
//! iterations the complete system state is the committed vertex values plus
//! the frontier/accumulator bitmaps (see DESIGN.md §13). This module lives
//! next to its one caller, [`crate::driver`]:
//!
//! * **Checkpointing** — [`CheckpointStore`] serializes a
//!   [`CheckpointData`] (values, accumulator, frontiers, cumulative
//!   [`gsd_runtime::RunStats`], engine-specific extras) together with
//!   the run's identity ([`ManifestTag`]: engine, algorithm, graph
//!   fingerprint, config hash, …) into one object with one trailing
//!   CRC32. The object commits itself: an atomic `Storage::create`, then
//!   one [`gsd_io::Storage::sync`]; only then are all but the newest two
//!   checkpoints deleted.
//! * **Recovery** — engines accept a [`RecoveryConfig`] and resume from
//!   the newest snapshot that decodes for their identity, producing
//!   bit-identical final values to an uninterrupted run.
//!
//! The crash injector that exercises this path (`FaultyStorage`, which
//! hard-fails the N-th data operation) needs only keys and bytes and
//! lives in `gsd-integrity`.

mod config;
mod snapshot;
mod store;

pub use config::RecoveryConfig;
pub use snapshot::{CheckpointData, ManifestTag};
pub use store::{graph_fingerprint, CheckpointStore};
