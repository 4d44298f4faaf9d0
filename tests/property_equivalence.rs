//! Property-based correctness: on arbitrary random graphs, every
//! out-of-core engine commits the same results as the in-memory BSP
//! oracle, for every program — exactly (min-combine programs) or within
//! float tolerance (sum programs). This is the repo's strongest guarantee
//! that SCIU/FCIU cross-iteration propagation is an I/O optimization and
//! never a semantic change. The prefetch pipeline is one more generated
//! input (off, or depth 2) on the engines that have one.

use gsd_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use gsd_baselines::{
    build_hus_format, build_lumos_format, GridStreamEngine, HusGraphEngine, LumosEngine,
};
use gsd_core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use gsd_graph::{preprocess, Edge, Graph, GridGraph, PreprocessConfig};
use gsd_io::{DiskModel, SharedStorage, SimDisk};
use gsd_runtime::{Engine, ReferenceEngine, RunOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// Arbitrary graph: up to 120 vertices, up to 600 edges, random weights.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u32..120, 0usize..600).prop_flat_map(|(n, m)| {
        proptest::collection::vec((0u32..n, 0u32..n, 1u32..=16), m).prop_map(move |edges| {
            let list: Vec<Edge> = edges
                .into_iter()
                .map(|(s, d, w)| Edge::weighted(s, d, w as f32 / 16.0))
                .collect();
            Graph::from_edges(n, list, true)
        })
    })
}

/// Prefetch off, or the double-buffered pipeline.
fn arb_prefetch() -> impl Strategy<Value = Option<PipelineConfig>> {
    any::<bool>().prop_map(|on| on.then(|| PipelineConfig::with_depth(2)))
}

/// The full system under a generated prefetch setting.
fn full_with(prefetch: Option<PipelineConfig>) -> GraphSdConfig {
    GraphSdConfig {
        prefetch,
        ..GraphSdConfig::full()
    }
}

fn grid_of(graph: &Graph, p: u32) -> GridGraph {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::ssd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    GridGraph::open(storage).unwrap()
}

fn run_all_engines_u32<P: gsd_runtime::VertexProgram<Value = u32>>(
    graph: &Graph,
    p: u32,
    prefetch: Option<PipelineConfig>,
    program: &P,
) -> Vec<(String, Vec<u32>)> {
    let mut results = Vec::new();
    for (label, config) in [
        ("graphsd", GraphSdConfig::full()),
        ("graphsd-b1", GraphSdConfig::b1_no_cross_iteration()),
        ("graphsd-b4", GraphSdConfig::b4_always_on_demand()),
    ] {
        let config = GraphSdConfig { prefetch, ..config };
        let mut engine = GraphSdEngine::new(grid_of(graph, p), config).unwrap();
        results.push((
            label.to_string(),
            engine.run(program, &RunOptions::default()).unwrap().values,
        ));
    }
    {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::ssd()));
        let (format, _) = build_hus_format(graph, &storage, "", Some(p)).unwrap();
        let mut engine = HusGraphEngine::new(format).unwrap();
        results.push((
            "hus".to_string(),
            engine.run(program, &RunOptions::default()).unwrap().values,
        ));
    }
    {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::ssd()));
        let (grid, _) = build_lumos_format(graph, &storage, "", Some(p)).unwrap();
        let mut engine = LumosEngine::new(grid).unwrap();
        engine.set_prefetch(prefetch);
        results.push((
            "lumos".to_string(),
            engine.run(program, &RunOptions::default()).unwrap().values,
        ));
    }
    {
        let mut engine = GridStreamEngine::new(grid_of(graph, p)).unwrap();
        results.push((
            "gridstream".to_string(),
            engine.run(program, &RunOptions::default()).unwrap().values,
        ));
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cc_identical_across_all_engines(
        graph in arb_graph(),
        p in 1u32..6,
        prefetch in arb_prefetch(),
    ) {
        let want = ReferenceEngine::new(&graph)
            .run(&ConnectedComponents, &RunOptions::default())
            .unwrap()
            .values;
        for (label, got) in run_all_engines_u32(&graph, p, prefetch, &ConnectedComponents) {
            prop_assert_eq!(&got, &want, "engine {}", label);
        }
    }

    #[test]
    fn bfs_identical_across_all_engines(
        graph in arb_graph(),
        p in 1u32..6,
        src in 0u32..120,
        prefetch in arb_prefetch(),
    ) {
        let src = src % graph.num_vertices();
        let want = ReferenceEngine::new(&graph)
            .run(&Bfs::new(src), &RunOptions::default())
            .unwrap()
            .values;
        for (label, got) in run_all_engines_u32(&graph, p, prefetch, &Bfs::new(src)) {
            prop_assert_eq!(&got, &want, "engine {}", label);
        }
    }

    #[test]
    fn sssp_matches_reference_within_epsilon(
        graph in arb_graph(),
        p in 1u32..6,
        prefetch in arb_prefetch(),
    ) {
        let want = ReferenceEngine::new(&graph)
            .run(&Sssp::new(0), &RunOptions::default())
            .unwrap()
            .values;
        let mut engine = GraphSdEngine::new(grid_of(&graph, p), full_with(prefetch)).unwrap();
        let got = engine.run(&Sssp::new(0), &RunOptions::default()).unwrap().values;
        for (v, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            if b.is_infinite() {
                prop_assert!(a.is_infinite(), "vertex {}: {} vs inf", v, a);
            } else {
                prop_assert!((a - b).abs() < 1e-4, "vertex {}: {} vs {}", v, a, b);
            }
        }
    }

    #[test]
    fn pagerank_close_across_engines(
        graph in arb_graph(),
        p in 1u32..6,
        prefetch in arb_prefetch(),
    ) {
        let pr = PageRank::with_iterations(4);
        let want = ReferenceEngine::new(&graph)
            .run(&pr, &RunOptions::default())
            .unwrap()
            .values;
        let mut engine = GraphSdEngine::new(grid_of(&graph, p), full_with(prefetch)).unwrap();
        let got = engine.run(&pr, &RunOptions::default()).unwrap().values;
        for (v, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0), "vertex {}: {} vs {}", v, a, b);
        }
    }

    #[test]
    fn partition_roundtrip_preserves_every_edge(graph in arb_graph(), p in 1u32..8) {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::nvme()));
        let (meta, _) = preprocess(
            &graph,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(p),
        ).unwrap();
        let grid = GridGraph::open(storage).unwrap();
        let mut recovered: Vec<(u32, u32, u32)> = Vec::new();
        for i in 0..meta.p {
            for j in 0..meta.p {
                let mut edges = Vec::new();
                grid.read_block_into(i, j, &mut Vec::new(), &mut edges).unwrap();
                for e in edges {
                    recovered.push((e.src, e.dst, (e.weight * 16.0) as u32));
                }
            }
        }
        let mut expected: Vec<(u32, u32, u32)> = graph
            .edges()
            .iter()
            .map(|e| (e.src, e.dst, (e.weight * 16.0) as u32))
            .collect();
        recovered.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(recovered, expected);
    }

    #[test]
    fn degree_balanced_partition_covers_everything(graph in arb_graph(), p in 1u32..8) {
        let degrees = graph.out_degrees();
        let iv = gsd_graph::Intervals::degree_balanced(&degrees, p);
        prop_assert_eq!(iv.count(), p);
        prop_assert_eq!(iv.num_vertices(), graph.num_vertices());
        for v in 0..graph.num_vertices() {
            let i = iv.interval_of(v);
            prop_assert!(iv.range(i).contains(&v));
        }
    }
}
