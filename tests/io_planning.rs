//! Request planning, end to end: what the two pass primitives ask the
//! disk for is derived from the frontier and the device model, and none
//! of it may change what is computed.
//!
//! * the bridging planner ([`coalesce_runs`]) keeps exactly the wanted
//!   ranges, bridges exactly the gaps cheaper than a seek, and with no
//!   gap allowed is the adjacent-only coalescer it replaced;
//! * under the three device presets, prefetch off and on, GraphSD commits
//!   the reference values bit for bit, and a device with dearer seeks is
//!   never asked more often;
//! * a full pass that skips sub-blocks without a live source reads less,
//!   in fewer requests, and commits the same run — also across a kill
//!   and a resume.

use graphsd::algos::{Bfs, ConnectedComponents, Sssp};
use graphsd::core::driver::{coalesce_runs, SelectiveRun};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig, RecoveryConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk};
use graphsd::runtime::{
    Engine, IoAccessModel, ReferenceEngine, RunOptions, RunResult, VertexProgram,
};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Ascending, disjoint edge ranges — some empty, some adjacent — the way
/// a sorted sub-block's index yields them for ascending vertices.
fn ranges_strategy() -> impl Strategy<Value = Vec<Range<u32>>> {
    proptest::collection::vec((0u32..40, 0u32..30), 0..40).prop_map(|steps| {
        let mut at = 0u32;
        steps
            .into_iter()
            .map(|(gap, len)| {
                // A third of the gaps are zero: adjacent ranges.
                at += if gap % 3 == 0 { 0 } else { gap };
                let range = at..at + len;
                at += len;
                range
            })
            .collect()
    })
}

/// The coalescer `coalesce_runs` replaced: adjacent non-empty ranges
/// merge, everything else is a request of its own.
fn adjacent_only(ranges: &[Range<u32>]) -> Vec<Range<u32>> {
    let mut runs: Vec<Range<u32>> = Vec::new();
    for r in ranges.iter().filter(|r| !r.is_empty()) {
        match runs.last_mut() {
            Some(run) if run.end == r.start => run.end = r.end,
            _ => runs.push(r.clone()),
        }
    }
    runs
}

proptest! {
    #[test]
    fn bridged_requests_keep_the_wanted_ranges(ranges in ranges_strategy(), max_gap in 0u32..64) {
        let mut runs: Vec<SelectiveRun> = Vec::new();
        coalesce_runs(3, 5, ranges.iter().cloned(), max_gap, &mut runs);

        // What is kept is what was wanted, in order.
        let kept: Vec<Range<u32>> = runs.iter().flat_map(|r| r.keep.iter().cloned()).collect();
        prop_assert_eq!(&kept, &adjacent_only(&ranges));

        for run in &runs {
            prop_assert_eq!((run.i, run.j), (3, 5));
            // Each request covers its kept ranges, end to end.
            prop_assert_eq!(run.keep.first().map(|k| k.start), Some(run.edges.start));
            prop_assert_eq!(run.keep.last().map(|k| k.end), Some(run.edges.end));
            // A bridged gap is never dearer than the seek it replaces.
            for pair in run.keep.windows(2) {
                prop_assert!(pair[0].end < pair[1].start);
                prop_assert!(pair[1].start - pair[0].end <= max_gap);
            }
        }
        // A gap left between two requests is.
        for pair in runs.windows(2) {
            prop_assert!(pair[1].edges.start - pair[0].edges.end > max_gap);
        }

        if max_gap == 0 {
            let requests: Vec<Range<u32>> = runs.iter().map(|r| r.edges.clone()).collect();
            prop_assert_eq!(requests, adjacent_only(&ranges));
            prop_assert!(runs.iter().all(|r| r.keep == [r.edges.clone()]));
        }
    }
}

const P: u32 = 6;

fn engine_on(graph: &Graph, disk: DiskModel, config: GraphSdConfig) -> GraphSdEngine {
    GraphSdEngine::new(GridGraph::open(sim_grid(graph, disk)).unwrap(), config).unwrap()
}

fn sim_grid(graph: &Graph, disk: DiskModel) -> SharedStorage {
    let storage: SharedStorage = Arc::new(SimDisk::new(disk));
    let config = PreprocessConfig::graphsd("").with_intervals(P);
    preprocess(graph, storage.as_ref(), &config).unwrap();
    storage
}

fn road_grid() -> Graph {
    GeneratorConfig::new(GraphKind::Grid2d, 1600, 0, 41)
        .weighted()
        .generate()
}

/// `program` on `graph` under each device preset, synchronous and
/// prefetched: the reference's values, equal accounting in both modes,
/// and no more seeks asked of the disk that charges most for them.
fn assert_planned_runs_match_reference<A: VertexProgram>(graph: &Graph, program: &A)
where
    A::Value: PartialEq + std::fmt::Debug,
{
    let opts = RunOptions::default();
    let want = ReferenceEngine::new(graph).run(program, &opts).unwrap();
    let rand_read_ops = |disk: DiskModel| {
        let mut sync = engine_on(graph, disk, GraphSdConfig::full().without_prefetch());
        let piped_config = GraphSdConfig::full().with_prefetch(PipelineConfig::with_depth(2));
        let mut piped = engine_on(graph, disk, piped_config);
        let sync = sync.run(program, &opts).unwrap();
        let piped = piped.run(program, &opts).unwrap();
        let name = program.name();
        assert_eq!(sync.values, want.values, "{name}: synchronous values");
        assert_eq!(piped.values, want.values, "{name}: prefetched values");
        assert_eq!(sync.stats.io, piped.stats.io, "{name}: accounting");
        sync.stats.io.rand_read_ops
    };
    let (hdd, ssd, nvme) = (
        rand_read_ops(DiskModel::hdd()),
        rand_read_ops(DiskModel::ssd()),
        rand_read_ops(DiskModel::nvme()),
    );
    assert!(hdd <= nvme, "hdd {hdd} requests, ssd {ssd}, nvme {nvme}");
}

#[test]
fn every_device_preset_commits_the_reference_values() {
    let grid = road_grid();
    assert_planned_runs_match_reference(&grid, &Sssp::new(820));
    assert_planned_runs_match_reference(&grid, &Bfs::new(820));
    let rmat = GeneratorConfig::new(GraphKind::RMat, 900, 7200, 43)
        .generate()
        .symmetrized();
    assert_planned_runs_match_reference(&rmat, &ConnectedComponents);
}

/// The §5.4 `b3` shape (full model pinned) with selective loading on or
/// off — the only difference between the two is which sub-blocks a full
/// pass reads.
fn always_full(enable_selective: bool) -> GraphSdConfig {
    GraphSdConfig {
        enable_selective,
        force_model: Some(IoAccessModel::Full),
        ..GraphSdConfig::full()
    }
}

fn answer<V: Clone>(r: &RunResult<V>) -> (Vec<V>, u32, u64) {
    (
        r.values.clone(),
        r.stats.iterations,
        r.stats.cross_iter_edges,
    )
}

#[test]
fn a_full_pass_skips_sub_blocks_without_a_live_source() {
    let graph = road_grid();
    let program = Sssp::new(820);
    let opts = RunOptions::default();
    let run = |selective| {
        engine_on(&graph, DiskModel::hdd(), always_full(selective))
            .run(&program, &opts)
            .unwrap()
    };
    let (skipping, sweeping) = (run(true), run(false));
    assert_eq!(answer(&skipping), answer(&sweeping));
    let (less, more) = (skipping.stats.io, sweeping.stats.io);
    assert!(
        less.read_bytes() < more.read_bytes(),
        "{less:?} vs {more:?}"
    );
    assert!(
        less.seq_read_ops + less.rand_read_ops < more.seq_read_ops + more.rand_read_ops,
        "{less:?} vs {more:?}"
    );
}

#[test]
fn a_resumed_skipping_run_reports_the_uninterrupted_accounting() {
    let graph = road_grid();
    let program = Sssp::new(820);
    let opts = RunOptions::default();
    let want = engine_on(&graph, DiskModel::hdd(), always_full(true))
        .run(&program, &opts)
        .unwrap();

    let storage = sim_grid(&graph, DiskModel::hdd());
    let open = |recovery| {
        let config = always_full(true).with_checkpoint(recovery);
        GraphSdEngine::new(GridGraph::open(storage.clone()).unwrap(), config).unwrap()
    };
    let halt = RecoveryConfig::every(1).with_halt_after(want.stats.iterations / 2);
    let err = open(halt).run(&program, &opts).expect_err("halt_after");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    let resumed = open(RecoveryConfig::every(1)).run(&program, &opts).unwrap();
    assert_eq!(answer(&resumed), answer(&want));
    assert_eq!(resumed.stats.io, want.stats.io);
}
