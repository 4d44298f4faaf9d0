//! Grid integrity layer for GraphSD.
//!
//! Out-of-core engines re-read the same grid objects from disk many times
//! per run, so a single flipped bit or truncated block is amplified into
//! silently wrong vertex values. This crate provides the pieces that make
//! the on-disk grid *checkable*:
//!
//! - [`crc32`] / [`fnv64`]: the workspace's hand-rolled checksums (the
//!   checkpoint snapshot format uses them too).
//! - [`IntegritySection`]: the checksummed per-object manifest embedded in
//!   a grid's `meta.json`.
//! - [`ObjectEntry::check`] / [`ObjectEntry::check_stored`]: the one
//!   length + CRC32 comparison of an object with its entry.
//! - [`GridVerifier`]: verify-on-read for engine decode paths when the
//!   [`VerifyPolicy`] is `Full`; a mismatch fails the read with a
//!   [`CorruptionError`].
//! - [`scrub_objects`]: offline whole-grid verification (the storage-level
//!   half of `gsd scrub`; re-deriving payloads lives in `gsd-graph`, which
//!   owns the format).
//! - [`FaultyStorage`]: the [`gsd_io::Storage`] decorator the crash paths
//!   are tested with — it hard-fails the N-th data operation — plus
//!   [`corrupt_object`], which plants at-rest rot. They need only keys,
//!   bytes and [`fnv64`], so they sit here rather than with the
//!   checkpoint store in `gsd-core`.
//!
//! The crate deliberately sits *below* `gsd-graph`: it knows about keys,
//! bytes, and checksums, never about edges or blocks, so both the grid
//! format and the checkpoint store can build on it without a cycle.

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

mod error;
mod fault;
mod hash;
mod manifest;
mod scrub;
mod verifier;
mod verify;

pub use error::{CorruptionError, CorruptionKind};
pub use fault::{corrupt_object, CorruptionMode, FaultyStorage};
pub use hash::{crc32, fnv64};
pub use manifest::{IntegritySection, ObjectEntry};
pub use scrub::{scrub_objects, ObjectReport, ScrubReport};
pub use verifier::{GridVerifier, VerifyCounters};
pub use verify::{CorruptionResponse, VerifyPolicy};
