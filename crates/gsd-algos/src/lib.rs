//! # gsd-algos — evaluation algorithms for the GraphSD runtime
//!
//! The four algorithms of the paper's evaluation (§5.1) expressed as
//! [`gsd_runtime::VertexProgram`]s, plus the two bounded traversals the
//! `gsd serve` daemon runs:
//!
//! * [`PageRank`] — dense PR, 5 iterations in the paper's setup; every
//!   vertex stays active, so GraphSD schedules the full I/O model / FCIU.
//! * [`PageRankDelta`] — PR-D: vertices activate only when their
//!   accumulated rank change exceeds a threshold; frontiers shrink fast.
//! * [`ConnectedComponents`] — min-label propagation.
//! * [`Sssp`] — single-source shortest paths over weighted edges.
//! * [`Bfs`] — breadth-first depth labeling; limited to `k` rounds it is
//!   the daemon's `khop` query.
//! * [`Ppr`] — personalized PageRank from a seed set, truncated at a round
//!   count; the daemon's `ppr` query.
//!
//! [`with_program`] is the one name → program table (`gsd ingest
//! --recompute`, the daemon's `run`).
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

use gsd_runtime::VertexProgram;

/// What a caller of [`with_program`] does with the resolved program —
/// a generic closure, which Rust spells as a trait.
pub trait ProgramVisitor {
    /// The visit's result.
    type Output;
    /// Called once with the program `name` resolved to.
    fn visit<P: VertexProgram>(self, program: &P) -> Self::Output;
}

/// Resolves `name` to its analytic program in the paper's configuration
/// (`source` roots SSSP and BFS) and hands it to `visitor`; an unknown
/// name is an error listing the five it knows.
pub fn with_program<V: ProgramVisitor>(
    name: &str,
    source: u32,
    visitor: V,
) -> Result<V::Output, String> {
    Ok(match name {
        "pagerank" => visitor.visit(&PageRank::paper()),
        "pagerank-delta" => visitor.visit(&PageRankDelta::paper()),
        "cc" => visitor.visit(&ConnectedComponents),
        "sssp" => visitor.visit(&Sssp::new(source)),
        "bfs" => visitor.visit(&Bfs::new(source)),
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (pagerank|pagerank-delta|cc|sssp|bfs)"
            ))
        }
    })
}
