//! Table 1's four systems are two engines: GraphSD, whose configurations
//! include Lumos and GridGraph (capability bits switched off), and
//! HUS-Graph. Pinned here by identity — the engine name each of the nine
//! systems reports through the one harness path, and the bits the
//! baselines' constructors carry — so a system keeps its name in traces,
//! checkpoints and bench reports after becoming a configuration.

use graphsd::baselines::{build_lumos_format, GridStreamEngine, LumosEngine};
use graphsd::bench::runner::run_cell;
use graphsd::bench::{Algo, RunSettings, SystemKind};
use graphsd::core::GraphSdConfig;
use graphsd::graph::{preprocess, GeneratorConfig, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk};
use graphsd::runtime::Engine;
use std::sync::Arc;

const P: u32 = 4;

fn sim_disk() -> SharedStorage {
    Arc::new(SimDisk::new(DiskModel::hdd()))
}

#[test]
fn baselines_are_graphsd_with_capabilities_switched_off() {
    let graph = GeneratorConfig::new(GraphKind::RMat, 900, 9000, 17).generate();
    let table = [
        (SystemKind::GraphSd, "graphsd"),
        (SystemKind::GraphSdB1, "graphsd"),
        (SystemKind::GraphSdB2, "graphsd"),
        (SystemKind::GraphSdB3, "graphsd"),
        (SystemKind::GraphSdB4, "graphsd"),
        (SystemKind::GraphSdNoBuffer, "graphsd"),
        (SystemKind::HusGraph, "hus-graph"),
        (SystemKind::Lumos, "lumos"),
        (SystemKind::GridStream, "gridstream"),
    ];
    assert_eq!(table.map(|(kind, _)| kind), SystemKind::ALL);
    for (kind, engine) in table {
        let settings = RunSettings::default();
        let outcome = run_cell(kind, &graph, Algo::Pr, 0, sim_disk(), P, &settings).unwrap();
        assert_eq!(outcome.stats.engine, engine, "{}", kind.label());
    }

    // The constructors the baselines keep by name build those presets.
    let bits = |c: &GraphSdConfig| {
        (
            c.enable_selective,
            c.enable_buffering,
            c.enable_cross_iter,
            c.force_model,
            c.prefetch,
            c.checkpoint.is_some(),
        )
    };

    let (lumos_grid, _) = build_lumos_format(&graph, &sim_disk(), "", Some(P)).unwrap();
    let lumos = LumosEngine::new(lumos_grid).unwrap();
    assert_eq!(
        bits(lumos.config()),
        (false, false, true, None, None, false)
    );
    assert_eq!(
        lumos.config().semantic_hash(),
        GraphSdConfig::lumos().semantic_hash()
    );
    assert_eq!(lumos.name(), "lumos");

    let storage = sim_disk();
    let config = PreprocessConfig::graphsd("").with_intervals(P);
    preprocess(&graph, storage.as_ref(), &config).unwrap();
    let grid = GridStreamEngine::new(GridGraph::open(storage).unwrap()).unwrap();
    assert_eq!(
        bits(grid.config()),
        (false, false, false, None, None, false)
    );
    assert_eq!(
        grid.config().semantic_hash(),
        GraphSdConfig::gridgraph().semantic_hash()
    );
    assert_eq!(grid.name(), "gridstream");
}
