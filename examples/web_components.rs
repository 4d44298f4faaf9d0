//! Web-graph mining: connected components on a host-structured crawl
//! stand-in, run on all three implemented systems (GraphSD, HUS-Graph-like,
//! Lumos-like) over identical simulated disks — a miniature of the paper's
//! Figure 5/7 comparison you can read end to end.
//!
//! ```text
//! cargo run --release --example web_components
//! ```

use graphsd::algos::ConnectedComponents;
use graphsd::baselines::{build_hus_format, build_lumos_format, HusGraphEngine, LumosEngine};
use graphsd::core::{GraphSdConfig, GraphSdEngine};
use graphsd::graph::{preprocess, GeneratorConfig, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk};
use graphsd::runtime::{Engine, RunOptions, RunStats};
use std::collections::BTreeMap;
use std::sync::Arc;

fn crawl() -> graphsd::graph::Graph {
    GeneratorConfig::new(GraphKind::WebLocality, 60_000, 800_000, 3)
        .generate()
        .symmetrized()
}

fn report(label: &str, stats: &RunStats) {
    println!(
        "  {label:<10} {:>3} iterations  read {:>7} KiB  written {:>6} KiB  io-time {:>8.1} ms",
        stats.iterations,
        stats.io.read_bytes() / 1024,
        stats.io.write_bytes / 1024,
        stats.io_time.as_secs_f64() * 1e3,
    );
}

fn main() -> std::io::Result<()> {
    let graph = crawl();
    println!(
        "crawl stand-in: {} pages, {} links (symmetrized)\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // --- GraphSD ---
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        &graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(16),
    )?;
    let mut gsd = GraphSdEngine::new(GridGraph::open(storage)?, GraphSdConfig::full())?;
    let gsd_result = gsd.run(&ConnectedComponents, &RunOptions::default())?;

    // --- HUS-Graph-like ---
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    let (hus_format, _) = build_hus_format(&graph, &storage, "", Some(16))?;
    let mut hus = HusGraphEngine::new(hus_format)?;
    let hus_result = hus.run(&ConnectedComponents, &RunOptions::default())?;

    // --- Lumos-like ---
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    let (lumos_grid, _) = build_lumos_format(&graph, &storage, "", Some(16))?;
    let mut lumos = LumosEngine::new(lumos_grid)?;
    let lumos_result = lumos.run(&ConnectedComponents, &RunOptions::default())?;

    println!("system comparison (identical simulated HDDs):");
    report("GraphSD", &gsd_result.stats);
    report("HUS-Graph", &hus_result.stats);
    report("Lumos", &lumos_result.stats);

    assert_eq!(gsd_result.values, hus_result.values);
    assert_eq!(gsd_result.values, lumos_result.values);

    // Component census from GraphSD's labels.
    let mut sizes: BTreeMap<u32, u32> = BTreeMap::new();
    for &label in &gsd_result.values {
        *sizes.entry(label).or_default() += 1;
    }
    let mut census: Vec<(u32, u32)> = sizes.into_iter().collect();
    census.sort_by_key(|&(_, size)| std::cmp::Reverse(size));
    println!("\n{} components; largest:", census.len());
    for (label, size) in census.iter().take(5) {
        println!("  component rooted at page {label:>6}: {size} pages");
    }
    println!("\nall three systems computed identical components ✓");
    Ok(())
}
