//! GridGraph-like baseline: stream every sub-block, every iteration.
//!
//! The 2-D grid layout eliminates random accesses (Table 1's first
//! column), but the engine is oblivious to vertex state and dependencies:
//! each BSP iteration reads all `P × P` sub-blocks front to back, scatters
//! from frontier sources, and applies per destination interval. As a
//! policy over the shared driver that is one line — a stream round
//! without cross-iteration propagation.

use gsd_core::driver::{self, Driver, Frame};
use gsd_graph::GridGraph;
use gsd_runtime::{Capabilities, Engine, RunOptions, RunResult, VertexProgram};
use gsd_trace::TraceSink;
use std::sync::Arc;

/// Plain full-streaming engine over a grid graph.
pub struct GridStreamEngine {
    grid: GridGraph,
    degrees: Arc<Vec<u32>>,
    trace: Arc<dyn TraceSink>,
}

impl GridStreamEngine {
    /// Opens the engine over a preprocessed grid (any layout works; no
    /// indexes are needed).
    pub fn new(grid: GridGraph) -> std::io::Result<Self> {
        let degrees = Arc::new(grid.load_out_degrees()?);
        Ok(GridStreamEngine {
            grid,
            degrees,
            trace: gsd_trace::null_sink(),
        })
    }

    /// Routes the engine's trace events to `trace`. The default is a
    /// disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }
}

impl Engine for GridStreamEngine {
    fn name(&self) -> &'static str {
        "gridstream"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: false,
            future_value_computation: false,
        }
    }

    fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        options: &RunOptions,
    ) -> std::io::Result<RunResult<P::Value>> {
        let frame = Frame {
            engine: self.name(),
            grid: &self.grid,
            also_verified: &[],
            degrees: &self.degrees,
            trace: &self.trace,
            prefetch: None,
            checkpoint: None,
            config_hash: 0,
        };
        let mut policy = |d: &mut Driver<'_, P>| d.stream_round(&self.grid, false, false, &mut ());
        driver::run(frame, program, options, &mut policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_algos::{ConnectedComponents, PageRank};
    use gsd_graph::{preprocess, GeneratorConfig, GraphKind, PreprocessConfig};
    use gsd_io::{DiskModel, SharedStorage, SimDisk};
    use gsd_runtime::ReferenceEngine;

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
