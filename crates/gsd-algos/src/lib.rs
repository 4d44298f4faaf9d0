//! # gsd-algos — evaluation algorithms for the GraphSD runtime
//!
//! The four algorithms of the paper's evaluation (§5.1) expressed as
//! [`gsd_runtime::VertexProgram`]s, plus BFS and small auxiliary programs
//! used by tests:
//!
//! * [`PageRank`] — dense PR, 5 iterations in the paper's setup; every
//!   vertex stays active, so GraphSD schedules the full I/O model / FCIU.
//! * [`PageRankDelta`] — PR-D: vertices activate only when their
//!   accumulated rank change exceeds a threshold; frontiers shrink fast.
//! * [`ConnectedComponents`] — min-label propagation.
//! * [`Sssp`] — single-source shortest paths over weighted edges.
//! * [`Bfs`] — breadth-first depth labeling.
//!
//! The [`naive`] module provides independent dense/in-memory oracles
//! (power-iteration PR, Dijkstra, union-find) the programs are validated
//! against.

#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod naive;
pub mod pagerank;
pub mod pagerank_delta;
pub mod ppr;
pub mod sssp;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use pagerank::PageRank;
pub use pagerank_delta::PageRankDelta;
pub use ppr::Ppr;
pub use sssp::Sssp;
