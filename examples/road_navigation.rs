//! Navigation-style workload: single-source shortest paths on a weighted
//! grid (road-network-like) graph — the paper's motivating SSSP use case
//! ("commonly used for navigation and traffic planning"). Shows the
//! distance field, the engine's shrinking wavefront, and the moment the
//! scheduler flips from the full to the on-demand I/O model.
//!
//! ```text
//! cargo run --release --example road_navigation
//! ```

use graphsd::algos::Sssp;
use graphsd::core::{GraphSdConfig, GraphSdEngine};
use graphsd::graph::{generators, preprocess, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk};
use graphsd::runtime::{Engine, IoAccessModel, RunOptions};
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // A 300x300 road grid with random segment travel times.
    let side = 300u32;
    let mut rng = graphsd::graph::rng::Xoshiro256::seed_from_u64(99);
    let roads = generators::randomize_weights(generators::grid2d(side), &mut rng);
    println!(
        "road network: {} intersections, {} road segments",
        roads.num_vertices(),
        roads.num_edges()
    );

    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::ssd()));
    preprocess(
        &roads,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(12),
    )?;
    let grid = GridGraph::open(storage)?;
    let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full())?;

    // Route from the north-west corner.
    let depot = 0u32;
    let result = engine.run(&Sssp::new(depot), &RunOptions::default())?;

    let at = |r: u32, c: u32| result.values[(r * side + c) as usize];
    println!("\ntravel times from the depot (corner 0):");
    for (label, r, c) in [
        ("adjacent block", 0, 1),
        ("city center", side / 2, side / 2),
        ("far corner", side - 1, side - 1),
    ] {
        println!("  {label:<16} ({r:>3},{c:>3})  {:>8.2}", at(r, c));
    }

    // Where did the scheduler switch models?
    let flip = result
        .stats
        .per_iteration
        .iter()
        .find(|it| it.model == IoAccessModel::OnDemand);
    println!(
        "\nwavefront ran {} BSP iterations; on-demand I/O first chosen at iteration {}",
        result.stats.iterations,
        flip.map(|it| it.iteration.to_string())
            .unwrap_or_else(|| "never".into())
    );
    let widest = result
        .stats
        .per_iteration
        .iter()
        .map(|it| it.frontier)
        .max()
        .unwrap_or(0);
    println!(
        "widest wavefront {widest} intersections; total I/O {} MiB; {} edge relaxations pre-served across iterations",
        result.stats.io.total_traffic() >> 20,
        result.stats.cross_iter_edges
    );
    Ok(())
}
