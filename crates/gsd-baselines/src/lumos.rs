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
//! Lumos is therefore GraphSD with selective loading and the sub-block
//! buffer switched off ([`GraphSdConfig::lumos`]): the stream round with
//! cross-iteration propagation — the same two passes GraphSD's FCIU runs,
//! with no scheduler in front and no buffer between them.

use gsd_core::{GraphSdConfig, GraphSdEngine};
use gsd_graph::{preprocess, Graph, GridGraph, PreprocessConfig, PreprocessReport};
use gsd_io::Storage;

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

/// The Lumos-like engine: a name for [`GraphSdConfig::lumos`].
pub struct LumosEngine;

impl LumosEngine {
    /// Opens GraphSD as Lumos over any grid layout (indexes are ignored),
    /// with synchronous reads and no checkpoints.
    #[expect(
        clippy::new_ret_no_self,
        reason = "Lumos is a GraphSD configuration; the name stays for callers that construct it by name"
    )]
    pub fn new(grid: GridGraph) -> std::io::Result<GraphSdEngine> {
        GraphSdEngine::new(grid, GraphSdConfig::lumos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
    use gsd_graph::{GeneratorConfig, GraphKind};
    use gsd_io::{DiskModel, SharedStorage, SimDisk};
    use gsd_runtime::{Engine, ReferenceEngine, RunOptions};
    use std::sync::Arc;
    use std::time::Duration;

    fn setup(g: &Graph, p: u32) -> GraphSdEngine {
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
