//! Vertex state stays resident, and an iteration pays for what its
//! frontier touches.
//!
//! * A run keeps its values in memory between checkpoints. The paper's
//!   per-iteration value traffic (`|V|·N` in and out) is priced by the
//!   scheduler's cost model, not performed, so a run without checkpoints
//!   writes nothing and leaves storage exactly as preprocessing wrote it.
//! * Rotation copies into the array the next `apply` writes only the
//!   cells `apply` changed. SCIU takes out of the next frontier the
//!   vertices whose next-iteration scatter it already performed (the
//!   "pre-served" vertices), and their changed cells must be copied too.
//!   Forcing SCIU with cross-iteration (`b4`) on programs whose frontier
//!   vertices change again (CC, SSSP) drives that path; the committed
//!   values must equal the reference executor's bit for bit.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use graphsd::baselines::{
    build_hus_format, build_lumos_format, GridStreamEngine, HusGraphEngine, LumosEngine,
};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{MemStorage, SharedStorage};
use graphsd::runtime::{
    value_fingerprint, Engine, ReferenceEngine, RunOptions, Value, VertexProgram,
};
use std::sync::Arc;

const P: u32 = 4;

/// Runs PageRank (every vertex active, full passes) and BFS (a sparse
/// frontier, on-demand passes where the engine has them) and asserts
/// that neither wrote a byte or left an object behind.
fn assert_writes_nothing<E: Engine>(label: &str, storage: &SharedStorage, engine: &mut E) {
    let preprocessed = storage.list_keys();
    let pagerank = engine
        .run(&PageRank::with_iterations(5), &RunOptions::default())
        .unwrap();
    let bfs = engine.run(&Bfs::new(0), &RunOptions::default()).unwrap();
    for (algo, stats) in [("pagerank", pagerank.stats), ("bfs", bfs.stats)] {
        assert!(stats.io.read_bytes() > 0, "{label} {algo}: the run read");
        assert_eq!(stats.io.write_bytes, 0, "{label} {algo}: bytes written");
    }
    assert_eq!(
        storage.list_keys(),
        preprocessed,
        "{label}: a run must leave the preprocess output as it was"
    );
}

fn graphsd_grid(graph: &Graph) -> (SharedStorage, GridGraph) {
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(P),
    )
    .unwrap();
    let grid = GridGraph::open(storage.clone()).unwrap();
    (storage, grid)
}

/// GraphSD and Lumos run with the prefetch pipeline off and on;
/// HUS-Graph and GridGraph have no pipeline and always read
/// synchronously.
#[test]
fn an_unprotected_run_writes_nothing_on_any_engine() {
    let graph = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 3).generate();
    for prefetch in [None, Some(PipelineConfig::with_depth(2))] {
        let (storage, grid) = graphsd_grid(&graph);
        let config = match prefetch {
            Some(sizing) => GraphSdConfig::full().with_prefetch(sizing),
            None => GraphSdConfig::full().without_prefetch(),
        };
        let mut engine = GraphSdEngine::new(grid, config).unwrap();
        assert_writes_nothing(&format!("graphsd {prefetch:?}"), &storage, &mut engine);

        let storage: SharedStorage = Arc::new(MemStorage::new());
        let grid = build_lumos_format(&graph, &storage, "", Some(P)).unwrap().0;
        let mut engine = LumosEngine::new(grid).unwrap();
        engine.set_prefetch(prefetch);
        assert_writes_nothing(&format!("lumos {prefetch:?}"), &storage, &mut engine);
    }

    let storage: SharedStorage = Arc::new(MemStorage::new());
    let format = build_hus_format(&graph, &storage, "", Some(P)).unwrap().0;
    let mut engine = HusGraphEngine::new(format).unwrap();
    assert_writes_nothing("hus-graph", &storage, &mut engine);

    let (storage, grid) = graphsd_grid(&graph);
    let mut engine = GridStreamEngine::new(grid).unwrap();
    assert_writes_nothing("gridgraph", &storage, &mut engine);
}

/// Runs `program` under always-on-demand GraphSD with cross-iteration
/// updates, prefetch off and on, and compares the committed values with
/// the reference executor's bit for bit. Returns the edges SCIU served
/// ahead: a selective pass loads only frontier vertices' edges and
/// scatters ahead only from the vertices `apply` changed, so a non-zero
/// count means some frontier vertex changed again and was pre-served.
fn sciu_matches_reference<P: VertexProgram>(graph: &Graph, program: &P) -> u64 {
    let want = ReferenceEngine::new(graph)
        .run(program, &RunOptions::default())
        .unwrap();
    let mut served = Vec::new();
    for prefetch in [None, Some(PipelineConfig::with_depth(2))] {
        let config = match prefetch {
            Some(sizing) => GraphSdConfig::b4_always_on_demand().with_prefetch(sizing),
            None => GraphSdConfig::b4_always_on_demand().without_prefetch(),
        };
        let mut engine = GraphSdEngine::new(graphsd_grid(graph).1, config).unwrap();
        let got = engine.run(program, &RunOptions::default()).unwrap();
        let bits = |values: &[P::Value]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.values),
            bits(&want.values),
            "{} {prefetch:?}: committed values differ from the reference",
            program.name()
        );
        assert_eq!(
            value_fingerprint(&got.values),
            value_fingerprint(&want.values)
        );
        served.push(got.stats.cross_iter_edges);
    }
    assert_eq!(served[0], served[1], "prefetch must not change SCIU");
    served[0]
}

#[test]
fn sciu_pre_served_vertices_commit_the_reference_values() {
    // CC on a symmetrized R-MAT graph: labels keep falling while their
    // vertices are active, so SCIU pre-serves vertices.
    let social = GeneratorConfig::new(GraphKind::RMat, 600, 3600, 11)
        .generate()
        .symmetrized();
    let served = sciu_matches_reference(&social, &ConnectedComponents);
    assert!(served > 0, "cc: no vertex was pre-served");

    // SSSP on a weighted graph: a longer path found first is improved
    // while its endpoint is active.
    let weighted = GeneratorConfig::new(GraphKind::RMat, 600, 4800, 13)
        .weighted()
        .generate();
    let served = sciu_matches_reference(&weighted, &Sssp::new(0));
    assert!(served > 0, "sssp: no vertex was pre-served");

    // BFS changes each vertex once, when it is first reached, so no
    // frontier vertex changes again and SCIU pre-serves nothing: the copy
    // of `out` alone must carry it.
    let web = GeneratorConfig::new(GraphKind::WebLocality, 800, 6400, 17).generate();
    assert_eq!(sciu_matches_reference(&web, &Bfs::new(0)), 0);
}
