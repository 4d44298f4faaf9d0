//! The prefetch pipeline's determinism contract, end to end: with the
//! pipeline on or off, every engine must produce bit-identical values,
//! the same iteration count and model choices, and — on the simulated
//! disk — byte-for-byte identical I/O accounting per iteration (request
//! order is preserved per storage key, so `SimDisk`'s seq/rand
//! classification and virtual clock cannot move).
//!
//! Shapes mirror the e1–e10 experiment regimes: FCIU-heavy dense runs
//! (PR), SCIU-heavy tiny-frontier runs (BFS on a web-locality graph),
//! convergence algorithms (CC, SSSP) and the §5.4 ablation configs.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank, PageRankDelta, Sssp};
use graphsd::baselines::{build_lumos_format, LumosEngine};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, FileStorage, SharedStorage, SimDisk, TempDir};
use graphsd::runtime::{Engine, RunOptions, RunResult, VertexProgram};
use std::sync::Arc;

/// Everything a run produces except wall-clock durations (which differ
/// between any two runs): committed values, iteration count, run-level
/// and per-iteration I/O accounting, buffer and cross-iteration counters.
fn fingerprint<V: Clone + PartialEq + std::fmt::Debug>(
    r: &RunResult<V>,
) -> impl PartialEq + std::fmt::Debug {
    (
        r.values.clone(),
        r.stats.iterations,
        r.stats.io,
        r.stats.buffer_hits,
        r.stats.buffer_hit_bytes,
        r.stats.cross_iter_edges,
        r.stats
            .per_iteration
            .iter()
            .map(|it| (it.iteration, it.model, it.frontier, it.io))
            .collect::<Vec<_>>(),
    )
}

fn graphsd_engine(graph: &Graph, p: u32, config: GraphSdConfig) -> GraphSdEngine {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    GraphSdEngine::new(GridGraph::open(storage).unwrap(), config).unwrap()
}

/// Runs `program` under `config` with the pipeline off and with two
/// pipeline sizings, asserting identical fingerprints and that the
/// pipeline actually engaged.
fn assert_equivalent<P: VertexProgram>(graph: &Graph, p: u32, config: GraphSdConfig, program: &P)
where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let opts = RunOptions::default();
    let mut sync_engine = graphsd_engine(graph, p, config.clone().without_prefetch());
    let sync = sync_engine.run(program, &opts).unwrap();
    assert_eq!(
        sync.stats.prefetch_hits + sync.stats.prefetch_misses,
        0,
        "synchronous run must not touch the pipeline"
    );

    for sizing in [PipelineConfig::with_depth(2), PipelineConfig::with_depth(4)] {
        let mut piped_engine = graphsd_engine(graph, p, config.clone().with_prefetch(sizing));
        let piped = piped_engine.run(program, &opts).unwrap();
        assert_eq!(
            fingerprint(&sync),
            fingerprint(&piped),
            "prefetch {sizing:?} must not change the run"
        );
        if piped.stats.io.read_bytes() > 0 {
            assert!(
                piped.stats.prefetch_hits + piped.stats.prefetch_misses > 0,
                "a run that read bytes must have consumed scheduled requests"
            );
        }
    }
}

#[test]
fn pagerank_is_identical_with_prefetch_on_and_off() {
    // FCIU-dominated: every iteration has a full frontier.
    let g = GeneratorConfig::new(GraphKind::RMat, 1200, 12_000, 21).generate();
    assert_equivalent(&g, 4, GraphSdConfig::full(), &PageRank::paper());
}

#[test]
fn pagerank_delta_is_identical_with_prefetch_on_and_off() {
    // Shrinking frontier: the scheduler flips between FCIU and SCIU.
    let g = GeneratorConfig::new(GraphKind::RMat, 1000, 10_000, 23).generate();
    assert_equivalent(&g, 4, GraphSdConfig::full(), &PageRankDelta::paper());
}

#[test]
fn bfs_on_web_graph_is_identical_with_prefetch_on_and_off() {
    // Tiny frontiers on a locality-rich graph: the SCIU path and its
    // coalesced edge-run requests.
    let g = GeneratorConfig::new(GraphKind::WebLocality, 2000, 20_000, 5).generate();
    assert_equivalent(&g, 4, GraphSdConfig::full(), &Bfs::new(0));
}

#[test]
fn cc_on_symmetrized_graph_is_identical_with_prefetch_on_and_off() {
    let g = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 27)
        .generate()
        .symmetrized();
    assert_equivalent(&g, 3, GraphSdConfig::full(), &ConnectedComponents);
}

#[test]
fn sssp_on_weighted_graph_is_identical_with_prefetch_on_and_off() {
    let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 600, 4800, 29)
        .weighted()
        .generate();
    assert_equivalent(&g, 3, GraphSdConfig::full(), &Sssp::new(0));
}

#[test]
fn ablation_configs_are_identical_with_prefetch_on_and_off() {
    // b3 pins FCIU (buffer interplay: residents are excluded from the
    // schedule), b4 pins SCIU (run requests only), no-buffer streams
    // every secondary block through the pipeline twice per round.
    let g = GeneratorConfig::new(GraphKind::RMat, 900, 9000, 31).generate();
    let budget = 1u64 << 20; // comfortably above one sub-block
    for config in [
        GraphSdConfig::b3_always_full().with_memory_budget(budget),
        GraphSdConfig::b4_always_on_demand(),
        GraphSdConfig::without_buffering(),
    ] {
        assert_equivalent(&g, 4, config, &PageRank::with_iterations(4));
    }
}

/// Preprocesses `graph` into `dir` once and builds an engine over real
/// files for each run.
fn file_engine(dir: &TempDir, config: GraphSdConfig) -> GraphSdEngine {
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    GraphSdEngine::new(GridGraph::open(storage).unwrap(), config).unwrap()
}

#[test]
fn filestorage_values_identical_with_prefetch_on_and_off() {
    // Real positioned reads against real files: same contract as SimDisk
    // for values and iteration structure (I/O *durations* differ, so the
    // comparison drops the io snapshots).
    let g = GeneratorConfig::new(GraphKind::RMat, 1500, 15_000, 35).generate();
    let dir = TempDir::new("gsd-prefetch-eq").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    preprocess(
        &g,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(4),
    )
    .unwrap();
    drop(storage);

    let opts = RunOptions::default();
    for program in [PageRank::paper(), PageRank::with_iterations(3)] {
        let sync = file_engine(&dir, GraphSdConfig::full().without_prefetch())
            .run(&program, &opts)
            .unwrap();
        let piped = file_engine(
            &dir,
            GraphSdConfig::full().with_prefetch(PipelineConfig::with_depth(2)),
        )
        .run(&program, &opts)
        .unwrap();
        assert_eq!(sync.values, piped.values);
        assert_eq!(sync.stats.iterations, piped.stats.iterations);
        assert_eq!(
            sync.stats.io.read_bytes(),
            piped.stats.io.read_bytes(),
            "prefetch must not read more (or fewer) bytes"
        );
        assert!(piped.stats.prefetch_hits + piped.stats.prefetch_misses > 0);
    }
}

#[test]
fn lumos_is_identical_with_prefetch_on_and_off() {
    let g = GeneratorConfig::new(GraphKind::RMat, 1000, 8000, 33).generate();
    let build = || {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (grid, _) = build_lumos_format(&g, &storage, "", Some(4)).unwrap();
        LumosEngine::new(grid).unwrap()
    };
    let opts = RunOptions::default();
    let program = PageRank::with_iterations(5);

    let mut sync_engine = build();
    sync_engine.set_prefetch(None);
    let sync = sync_engine.run(&program, &opts).unwrap();
    assert_eq!(sync.stats.prefetch_hits + sync.stats.prefetch_misses, 0);

    let mut piped_engine = build();
    piped_engine.set_prefetch(Some(PipelineConfig::with_depth(3)));
    let piped = piped_engine.run(&program, &opts).unwrap();
    assert_eq!(fingerprint(&sync), fingerprint(&piped));
    assert!(piped.stats.prefetch_hits + piped.stats.prefetch_misses > 0);
}
