//! # graphsd — facade crate
//!
//! Re-exports the public API of the GraphSD reproduction (ICPP'22):
//! storage substrate, graph substrate, vertex-program runtime, the GraphSD
//! engine, the baseline engines and the evaluation algorithms.
//!
//! ## Quickstart
//!
//! ```
//! use graphsd::algos::PageRank;
//! use graphsd::core::{GraphSdConfig, GraphSdEngine};
//! use graphsd::graph::{preprocess, GeneratorConfig, GraphKind, GridGraph, PreprocessConfig};
//! use graphsd::io::{DiskModel, SharedStorage, SimDisk};
//! use graphsd::runtime::{Engine, RunOptions};
//! use std::sync::Arc;
//!
//! // A small power-law graph, preprocessed into the on-disk grid format
//! // (here on a simulated disk; use `FileStorage` for real files).
//! let graph = GeneratorConfig::new(GraphKind::RMat, 1_000, 8_000, 42).generate();
//! let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
//! preprocess(&graph, storage.as_ref(), &PreprocessConfig::graphsd("").with_intervals(4))?;
//!
//! // Run PageRank out-of-core with the full GraphSD update strategy.
//! let grid = GridGraph::open(storage)?;
//! let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full())?;
//! let result = engine.run(&PageRank::paper(), &RunOptions::default())?;
//! assert_eq!(result.values.len(), 1_000);
//! assert!(result.stats.io.read_bytes() > 0);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! See the workspace `README.md` for more and `DESIGN.md` for the system
//! inventory.

#![warn(missing_docs)]

pub use gsd_algos as algos;
pub use gsd_baselines as baselines;
pub use gsd_bench as bench;
pub use gsd_core as core;
pub use gsd_core::pipeline;
pub use gsd_delta as delta;
pub use gsd_graph as graph;
pub use gsd_integrity as integrity;
pub use gsd_io as io;
pub use gsd_runtime as runtime;
pub use gsd_serve as serve;
pub use gsd_trace as trace;

/// Checkpoint/resume (`gsd_core::checkpoint`) and the crash and
/// corruption injectors (`gsd_integrity`), under one path.
pub mod recover {
    pub use gsd_core::checkpoint::*;
    pub use gsd_integrity::{corrupt_object, CorruptionMode, FaultyStorage};
}

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use gsd_core::{GraphSdConfig, GraphSdEngine, PipelineConfig, RecoveryConfig};
    pub use gsd_graph::{Graph, GraphBuilder, VerifyPolicy, VertexId};
    pub use gsd_io::{DiskModel, FileStorage, MemStorage, SimDisk, Storage};
    pub use gsd_runtime::{Engine, RunOptions, RunResult, VertexProgram};
}
