//! # gsd-io — out-of-core storage substrate for GraphSD
//!
//! This crate provides the storage layer that every engine in the GraphSD
//! reproduction (the GraphSD engine itself and the HUS-Graph-like /
//! Lumos-like baselines) performs its disk I/O through:
//!
//! * [`Storage`] — a keyed block-store trait with positioned reads/writes.
//!   Three backends are provided:
//!   * [`MemStorage`] — in-memory, for unit tests;
//!   * [`FileStorage`] — a directory of real files accessed with positioned
//!     I/O (`pread`/`pwrite`), for genuine out-of-core runs;
//!   * [`SimDisk`] — an in-memory backend that *prices* every request with a
//!     configurable [`DiskModel`] (sequential/random bandwidths plus seek
//!     latency) and accumulates a virtual clock. This reproduces the paper's
//!     experimental regime — two HDDs with the page cache disabled — on any
//!     machine, while measuring exactly the bytes each engine requests.
//! * [`IoStats`] — lock-free I/O accounting (sequential vs random bytes and
//!   operations, written bytes, simulated nanoseconds) shared by all
//!   backends. Every figure of the paper that reports I/O traffic or I/O
//!   time is ultimately a read-out of these counters.
//! * [`DiskModel`] / [`IoCostModel`] — the four-bandwidth disk description
//!   (`B_sr`, `B_sw`, `B_rr`, `B_rw` in the paper's Table 2) and the I/O
//!   cost formulas `C_s` (full I/O model) and `C_r` (on-demand I/O model)
//!   from §4.1 of the paper, used by GraphSD's state-aware I/O scheduler.
//!   The paper feeds the four bandwidths from an `fio` run; here every
//!   run uses a [`DiskModel`] preset (`hdd`, `ssd`, `nvme`).

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
// Ids, offsets and sizes never wrap silently: narrow through `try_from`
// or `gsd_graph::narrow` instead of `as` (retired GSD006 — DESIGN.md §11).
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod model;
pub mod stats;
pub mod storage;
pub mod tempdir;

pub use model::{CostBreakdown, DiskModel, IoCostModel, OnDemandCostInputs};
pub use stats::{IoStats, IoStatsSnapshot};
pub use storage::{FileStorage, MemStorage, SharedStorage, SimDisk, Storage};
pub use tempdir::TempDir;

/// Crate-wide result type; all storage errors are `std::io::Error`.
pub type Result<T> = std::io::Result<T>;
