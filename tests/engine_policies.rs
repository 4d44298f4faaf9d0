//! The baselines are the GraphSD engine with capability bits switched
//! off (Table 1, §5.4): Lumos is GraphSD without selective loading and
//! without the sub-block buffer, GridGraph is that without
//! cross-iteration propagation as well. Pinned here bit for bit —
//! committed values, iteration structure, run-level and per-iteration
//! I/O accounting, cross-iteration counters — so a Fig. 5/7 comparison or
//! a b1–b4 ablation compares techniques and nothing else.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use graphsd::baselines::{build_lumos_format, GridStreamEngine, LumosEngine};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk};
use graphsd::runtime::{Engine, RunOptions, RunResult, VertexProgram};
use std::sync::Arc;

const P: u32 = 4;

fn fingerprint<V: Clone + PartialEq + std::fmt::Debug>(
    r: &RunResult<V>,
) -> impl PartialEq + std::fmt::Debug {
    (
        r.values.clone(),
        r.stats.iterations,
        r.stats.io,
        r.stats.cross_iter_edges,
        r.stats
            .per_iteration
            .iter()
            .map(|it| {
                (
                    it.iteration,
                    it.model,
                    it.frontier,
                    it.io,
                    it.cross_iteration,
                )
            })
            .collect::<Vec<_>>(),
    )
}

fn sim_disk() -> SharedStorage {
    Arc::new(SimDisk::new(DiskModel::hdd()))
}

/// Each engine gets its own freshly preprocessed disk, so both arms start
/// from the same cursor state.
fn lumos_layout(graph: &Graph) -> GridGraph {
    build_lumos_format(graph, &sim_disk(), "", Some(P))
        .unwrap()
        .0
}

fn graphsd_layout(graph: &Graph) -> GridGraph {
    let storage = sim_disk();
    let config = PreprocessConfig::graphsd("").with_intervals(P);
    preprocess(graph, storage.as_ref(), &config).unwrap();
    GridGraph::open(storage).unwrap()
}

fn assert_policies_match<A: VertexProgram>(graph: &Graph, program: &A)
where
    A::Value: Clone + PartialEq + std::fmt::Debug,
{
    let opts = RunOptions::default();
    let name = program.name();
    for prefetch in [None, Some(PipelineConfig::with_depth(2))] {
        let stripped = GraphSdConfig {
            enable_selective: false,
            enable_buffering: false,
            prefetch,
            checkpoint: None,
            ..GraphSdConfig::full()
        };

        let mut lumos = LumosEngine::new(lumos_layout(graph)).unwrap();
        lumos.set_prefetch(prefetch);
        lumos.set_checkpoint(None);
        let mut as_lumos = GraphSdEngine::new(lumos_layout(graph), stripped.clone()).unwrap();
        assert_eq!(
            fingerprint(&lumos.run(program, &opts).unwrap()),
            fingerprint(&as_lumos.run(program, &opts).unwrap()),
            "{name}, prefetch {prefetch:?}: Lumos is GraphSD minus selective loading and buffering"
        );

        let no_cross = GraphSdConfig {
            enable_cross_iter: false,
            ..stripped
        };
        let mut gridstream = GridStreamEngine::new(graphsd_layout(graph)).unwrap();
        let mut as_gridstream = GraphSdEngine::new(graphsd_layout(graph), no_cross).unwrap();
        assert_eq!(
            fingerprint(&gridstream.run(program, &opts).unwrap()),
            fingerprint(&as_gridstream.run(program, &opts).unwrap()),
            "{name}, prefetch {prefetch:?}: GridGraph is Lumos minus cross-iteration propagation"
        );
    }
}

#[test]
fn baselines_are_graphsd_with_capabilities_switched_off() {
    let rmat = GeneratorConfig::new(GraphKind::RMat, 900, 9000, 17).generate();
    assert_policies_match(&rmat, &PageRank::paper());
    assert_policies_match(&rmat, &Bfs::new(0));
    assert_policies_match(&rmat.symmetrized(), &ConnectedComponents);
    let weighted = GeneratorConfig::new(GraphKind::ErdosRenyi, 500, 4000, 19)
        .weighted()
        .generate();
    assert_policies_match(&weighted, &Sssp::new(0));
}
