//! # gsd-graph — graph substrate for GraphSD
//!
//! Everything below the processing engines: the in-memory graph model,
//! synthetic graph generators standing in for the paper's datasets,
//! edge-list parsers, and — centrally — the paper's **2-D grid
//! representation** (§3.2): `P` vertex intervals, `P×P` sub-blocks where
//! sub-block `(i,j)` holds the edges from interval `i` to interval `j`
//! sorted by source vertex, plus a per-row offset index enabling
//! selective reads of a single vertex's edge list.
//!
//! The [`preprocess`] module implements the paper's preprocessing phase
//! (load → partition → sort → write, with a timing breakdown used by the
//! Figure 8 experiment), [`layout`] is the one place that decides what a
//! grid row looks like on disk, and [`grid`] provides the read-side handle
//! engines consume.

// Ids, offsets and sizes never wrap silently: narrow through `try_from`
// or the `narrow` helpers instead of `as` (retired GSD006 — DESIGN.md §11).
#![deny(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod csr;
pub mod delta;
pub mod format;
pub mod generators;
pub mod graph;
pub mod grid;
pub mod integrity;
pub mod layout;
pub mod narrow;
pub mod parsers;
pub mod partition;
pub mod preprocess;
pub mod rng;
pub mod types;

pub use csr::Csr;
pub use delta::{DeltaOp, DeltaOverlay};
pub use format::{block_edges_key, DeltaSection, GridMeta, DEGREES_KEY, FORMAT_VERSION, META_KEY};
pub use generators::{GeneratorConfig, GraphKind};
pub use graph::{Graph, GraphBuilder};
pub use grid::{cluster_vertex_spans, GridGraph, SubBlock};
pub use gsd_integrity::{CorruptionResponse, VerifyCounters, VerifyPolicy};
pub use integrity::{repair_grid, scrub_grid, RepairOutcome};
pub use layout::BlockOrder;
pub use parsers::{parse_edge_list, write_edge_list};
pub use partition::Intervals;
pub use preprocess::{preprocess, preprocess_text, PreprocessConfig, PreprocessReport};
pub use types::{Edge, EdgeCodec, VertexId};
