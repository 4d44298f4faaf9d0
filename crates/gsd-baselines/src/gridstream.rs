//! GridGraph-like baseline: stream every sub-block, every iteration.
//!
//! The 2-D grid layout eliminates random accesses (Table 1's first
//! column), but the engine is oblivious to vertex state and dependencies:
//! each BSP iteration reads all `P × P` sub-blocks front to back, scatters
//! from frontier sources, and applies per destination interval. That is
//! GraphSD with selective loading, the sub-block buffer and
//! cross-iteration propagation switched off ([`GraphSdConfig::gridgraph`]).

use gsd_core::{GraphSdConfig, GraphSdEngine};
use gsd_graph::GridGraph;

/// Plain full-streaming engine over a grid graph: a name for
/// [`GraphSdConfig::gridgraph`].
pub struct GridStreamEngine;

impl GridStreamEngine {
    /// Opens GraphSD as GridGraph over a preprocessed grid (any layout
    /// works; no indexes are needed), with synchronous reads and no
    /// checkpoints.
    #[expect(
        clippy::new_ret_no_self,
        reason = "GridGraph is a GraphSD configuration; the name stays for callers that construct it by name"
    )]
    pub fn new(grid: GridGraph) -> std::io::Result<GraphSdEngine> {
        GraphSdEngine::new(grid, GraphSdConfig::gridgraph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_algos::{ConnectedComponents, PageRank};
    use gsd_graph::{preprocess, GeneratorConfig, GraphKind, PreprocessConfig};
    use gsd_io::{DiskModel, SharedStorage, SimDisk};
    use gsd_runtime::{Engine, ReferenceEngine, RunOptions};
    use std::sync::Arc;

    #[test]
    fn matches_reference_on_cc() {
        let g = GeneratorConfig::new(GraphKind::RMat, 400, 2500, 3)
            .generate()
            .symmetrized();
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
        let mut engine = GridStreamEngine::new(GridGraph::open(storage).unwrap()).unwrap();
        let got = engine
            .run(&ConnectedComponents, &RunOptions::default())
            .unwrap()
            .values;
        let want = ReferenceEngine::new(&g)
            .run(&ConnectedComponents, &RunOptions::default())
            .unwrap()
            .values;
        assert_eq!(got, want);
    }

    #[test]
    fn reads_whole_graph_every_iteration() {
        let g = GeneratorConfig::new(GraphKind::RMat, 300, 3000, 5).generate();
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(2),
        )
        .unwrap();
        let mut engine = GridStreamEngine::new(GridGraph::open(storage).unwrap()).unwrap();
        let result = engine
            .run(&PageRank::with_iterations(3), &RunOptions::default())
            .unwrap();
        let edge_bytes = engine.grid().meta().total_edge_bytes();
        // Each of the 3 iterations must read at least the full edge set.
        assert!(result.stats.io.read_bytes() >= 3 * edge_bytes);
        assert_eq!(result.stats.iterations, 3);
    }
}
