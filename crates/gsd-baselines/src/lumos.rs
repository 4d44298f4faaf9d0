//! Lumos-like baseline (Vora, USENIX ATC'19): dependency-driven
//! future-value computation **without** active-vertex awareness.
//!
//! Like GraphSD's FCIU, a full destination-major sweep commits iteration
//! `t` while propagating `val_t` values along `i ≤ j` sub-blocks into
//! iteration `t + 1`'s accumulators; the second pass reads only the
//! lower-triangle secondary partitions. Unlike GraphSD it never loads
//! selectively — every block is read even when almost no vertex is active
//! (the inactive-edge traffic the paper's Figure 7 attributes to Lumos) —
//! and its on-disk format is a single **unsorted** copy without per-vertex
//! indexes, giving it the cheapest preprocessing in Figure 8.
//!
//! As a policy over the shared driver, Lumos is the stream round with
//! cross-iteration propagation — the same two passes GraphSD's FCIU
//! runs, with no scheduler in front and no sub-block buffer between them.

use gsd_core::driver::{self, Driver, Frame};
use gsd_core::PipelineConfig;
use gsd_core::RecoveryConfig;
use gsd_graph::{preprocess, Graph, GridGraph, PreprocessConfig, PreprocessReport};
use gsd_io::Storage;
use gsd_runtime::{Capabilities, Engine, RunOptions, RunResult, VertexProgram};
use gsd_trace::TraceSink;
use std::sync::Arc;

/// Builds the Lumos on-disk layout (unsorted, unindexed grid) under
/// `prefix` and returns its handle plus the preprocessing breakdown.
pub fn build_lumos_format(
    graph: &Graph,
    storage: &std::sync::Arc<dyn Storage>,
    prefix: &str,
    p: Option<u32>,
) -> std::io::Result<(GridGraph, PreprocessReport)> {
    let mut config = PreprocessConfig::lumos(prefix);
    config.num_intervals = p;
    config.degree_balanced = true;
    let (_, report) = preprocess(graph, storage.as_ref(), &config)?;
    let grid = GridGraph::open_with_prefix(storage.clone(), prefix)?;
    Ok((grid, report))
}

/// The Lumos-like engine.
pub struct LumosEngine {
    grid: GridGraph,
    degrees: Arc<Vec<u32>>,
    trace: Arc<dyn TraceSink>,
    prefetch: Option<PipelineConfig>,
    checkpoint: Option<RecoveryConfig>,
}

impl LumosEngine {
    /// Opens the engine over any grid layout (indexes are ignored), with
    /// synchronous reads and no checkpoints, matching the GraphSD
    /// engine's default.
    pub fn new(grid: GridGraph) -> std::io::Result<Self> {
        let degrees = Arc::new(grid.load_out_degrees()?);
        Ok(LumosEngine {
            grid,
            degrees,
            trace: gsd_trace::null_sink(),
            prefetch: None,
            checkpoint: None,
        })
    }

    /// Routes the engine's trace events to `trace`. The default is a
    /// disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Overrides the prefetch pipeline sizing (`None` forces fully
    /// synchronous reads). Results are bit-identical either way.
    pub fn set_prefetch(&mut self, prefetch: Option<PipelineConfig>) {
        self.prefetch = prefetch;
    }

    /// Overrides the checkpoint/recovery options (`None` runs
    /// unprotected, the default). Like prefetching, checkpointing is
    /// result-neutral: resumed runs commit bit-identical values and I/O
    /// accounting.
    pub fn set_checkpoint(&mut self, checkpoint: Option<RecoveryConfig>) {
        self.checkpoint = checkpoint;
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }
}

impl Engine for LumosEngine {
    fn name(&self) -> &'static str {
        "lumos"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: false,
            future_value_computation: true,
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
            prefetch: self.prefetch,
            checkpoint: self.checkpoint.as_ref(),
            // Baselines have no result-relevant configuration.
            config_hash: 0,
        };
        // State-oblivious: every non-empty block streams, every round.
        let mut policy = |d: &mut Driver<'_, P>| d.stream_round(&self.grid, true, false, &mut ());
        driver::run(frame, program, options, &mut policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
    use gsd_graph::{GeneratorConfig, GraphKind};
    use gsd_io::{DiskModel, SharedStorage, SimDisk};
    use gsd_runtime::ReferenceEngine;
    use std::time::Duration;

    fn setup(g: &Graph, p: u32) -> LumosEngine {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (grid, report) = build_lumos_format(g, &storage, "", Some(p)).unwrap();
        assert_eq!(report.sort, Duration::ZERO, "Lumos does not sort");
        LumosEngine::new(grid).unwrap()
    }

    #[test]
    fn matches_reference_on_cc() {
        let g = GeneratorConfig::new(GraphKind::RMat, 500, 3000, 7)
            .generate()
            .symmetrized();
        let mut engine = setup(&g, 4);
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
    fn matches_reference_on_sssp() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 300, 2400, 9)
            .weighted()
            .generate();
        let mut engine = setup(&g, 3);
        let got = engine
            .run(&Sssp::new(0), &RunOptions::default())
            .unwrap()
            .values;
        let want = ReferenceEngine::new(&g)
            .run(&Sssp::new(0), &RunOptions::default())
            .unwrap()
            .values;
        for (a, b) in got.iter().zip(want.iter()) {
            if b.is_infinite() {
                assert!(a.is_infinite());
            } else {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matches_reference_on_pagerank() {
        let g = GeneratorConfig::new(GraphKind::RMat, 400, 3200, 11).generate();
        let mut engine = setup(&g, 4);
        let got = engine
            .run(&PageRank::paper(), &RunOptions::default())
            .unwrap()
            .values;
        let want = ReferenceEngine::new(&g)
            .run(&PageRank::paper(), &RunOptions::default())
            .unwrap()
            .values;
        for (v, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3 * b.max(1.0), "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn cross_iteration_fires_and_saves_traffic() {
        let g = GeneratorConfig::new(GraphKind::RMat, 800, 9600, 13).generate();
        let mut engine = setup(&g, 4);
        let result = engine
            .run(&PageRank::with_iterations(6), &RunOptions::default())
            .unwrap();
        assert!(result.stats.cross_iter_edges > 0);
        // 6 iterations as 3 FCIU-style rounds: each round reads P^2 + lower
        // triangle instead of 2 P^2 blocks, so total reads must be clearly
        // below 6 full sweeps.
        let full6 = 6 * engine.grid().meta().total_edge_bytes();
        assert!(result.stats.io.read_bytes() < full6);
    }

    #[test]
    fn reads_inactive_edges_on_tiny_frontiers() {
        // BFS: Lumos still streams the full lower triangle each round.
        let g = GeneratorConfig::new(GraphKind::WebLocality, 1000, 8000, 15).generate();
        let mut engine = setup(&g, 4);
        let result = engine.run(&Bfs::new(0), &RunOptions::default()).unwrap();
        let edge_bytes = engine.grid().meta().total_edge_bytes();
        // Per committed iteration it reads at least ~half the edge set
        // (full sweep then secondary), far more than the frontier needs.
        assert!(
            result.stats.io.read_bytes() as f64
                >= 0.5 * edge_bytes as f64 * result.stats.iterations as f64
        );
    }
}
