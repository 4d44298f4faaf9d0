//! # gsd-baselines — the comparison systems of the paper's evaluation
//!
//! Re-implementations, on the same storage and runtime substrates as
//! GraphSD, of the systems §5 compares against (plus one classic):
//!
//! * [`HusGraphEngine`] — HUS-Graph-like (Xu et al., TPDS'20): a **hybrid
//!   update strategy** that switches between row-oriented selective loading
//!   (active edges only) and column-oriented full streaming based on a
//!   coarse active-volume threshold. Active-vertex aware, but **no
//!   cross-iteration computation**. Its on-disk format keeps **two sorted
//!   copies** of the edges (row- and column-oriented), which is why its
//!   preprocessing is the slowest in Figure 8.
//! * [`LumosEngine`] — Lumos-like (Vora, ATC'19): full sequential streaming
//!   each round with **dependency-driven future-value computation**
//!   (cross-iteration propagation on `i ≤ j` sub-blocks, second pass over
//!   secondary partitions), but **no active-vertex awareness** — every
//!   block is read even when the frontier is tiny. Its format is one
//!   unsorted copy without per-vertex indexes: the cheapest preprocessing
//!   in Figure 8.
//! * [`GridStreamEngine`] — GridGraph-like: plain full streaming of the
//!   2-D grid every iteration. Neither optimization; the sanity baseline.
//!
//! All three run the exact BSP semantics of the
//! [`gsd_runtime::ReferenceEngine`]; they differ from GraphSD only in
//! *which bytes they read* — which is precisely what the paper measures.
//!
//! That "only" is structural, not a convention: each engine here is a
//! [`gsd_core::driver::Policy`] over the same [`gsd_core::driver`] the
//! GraphSD engine runs — one copy of value-file streaming, prefetch,
//! checkpoint/resume, accounting and trace events — and contributes
//! nothing but its choice of passes per round (GridGraph: stream all;
//! Lumos: stream all with cross-iteration scatter, then the secondary
//! sub-blocks; HUS-Graph: volume threshold → its own ROP run planner plus
//! a selective pass, or a stream pass over its column copy).

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

pub mod gridstream;
pub mod hus;
pub mod lumos;

pub use gridstream::GridStreamEngine;
pub use hus::{build_hus_format, write_hus_format, HusFormat, HusGraphEngine};
pub use lumos::{build_lumos_format, LumosEngine};
