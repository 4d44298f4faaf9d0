//! The counters gate behind `gsd bench`: every engine × algorithm ×
//! dataset cell run once on real files, reported as a `BENCH_*.json`.
//!
//! [`BenchReport::compare_deterministic`] holds each cell's iterations,
//! bytes read, read requests, bytes written and prefetch events equal to
//! `ci/bench_baseline.json` (CI over all cells, `tests/bench_gate.rs`
//! over the `twitter_sim` ones). Nothing here reads a clock — tiny cells
//! run for milliseconds; wall time, phase times and RSS are measured by
//! the repository-root `benchmark/` package.
//!
//! Each cell is [`run_cell`] over a self-deleting temp directory of
//! [`gsd_io::FileStorage`] files instead of the paper tables' simulated
//! disk: the format is written into the directory, the engine opened once
//! over those files, and the run's counters recorded.

use crate::bench::{BenchEntry, BenchReport, BENCH_SCHEMA_VERSION};
use crate::datasets::{Dataset, Datasets, Scale};
use crate::runner::{paper_p, run_cell, Algo, SystemKind};
use crate::settings::RunSettings;
use gsd_io::{FileStorage, TempDir};
use std::sync::Arc;

/// Which cells [`run_wall`] runs.
#[derive(Debug, Clone)]
pub struct WallOptions {
    /// Dataset scale.
    pub scale: Scale,
    /// Systems to run.
    pub systems: Vec<SystemKind>,
    /// Algorithms to run.
    pub algos: Vec<Algo>,
    /// Dataset names to run; empty means all five stand-ins.
    pub datasets: Vec<String>,
}

impl Default for WallOptions {
    fn default() -> Self {
        WallOptions {
            scale: Scale::Tiny,
            systems: vec![
                SystemKind::GraphSd,
                SystemKind::HusGraph,
                SystemKind::Lumos,
                SystemKind::GridStream,
            ],
            algos: Algo::all().to_vec(),
            datasets: Vec::new(),
        }
    }
}

/// Runs the whole matrix of `opts` under `settings` and assembles the
/// report. A dataset name that is not one of the five stand-ins fails
/// before any cell runs.
pub fn run_wall(opts: &WallOptions, settings: &RunSettings) -> std::io::Result<BenchReport> {
    let datasets = Datasets::load(opts.scale);
    for name in &opts.datasets {
        datasets.get(name)?;
    }
    let mut entries = Vec::new();
    for ds in datasets.all() {
        if !opts.datasets.is_empty() && !opts.datasets.iter().any(|n| n == ds.name) {
            continue;
        }
        for &kind in &opts.systems {
            for &algo in &opts.algos {
                entries.push(bench_cell(kind, ds, algo, settings)?);
            }
        }
    }
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        scale: opts.scale.name().to_string(),
        prefetch: settings.prefetch.is_some(),
        entries,
    })
}

/// Runs one `(system, dataset, algorithm)` cell.
fn bench_cell(
    kind: SystemKind,
    dataset: &Dataset,
    algo: Algo,
    settings: &RunSettings,
) -> std::io::Result<BenchEntry> {
    let graph = algo.input(dataset);
    let dir = TempDir::new("gsd-wallbench")?;
    let files = Arc::new(FileStorage::open(dir.path())?);
    let root = dataset.root();
    let stats = run_cell(kind, graph, algo, root, files, paper_p(graph), settings)?.stats;
    Ok(BenchEntry {
        system: kind.label().to_string(),
        algorithm: algo.label().to_string(),
        dataset: dataset.name.to_string(),
        iterations: stats.iterations,
        bytes_read: stats.io.read_bytes(),
        read_ops: stats.io.seq_read_ops + stats.io.rand_read_ops,
        bytes_written: stats.io.write_bytes,
        prefetch_events: stats.prefetch_hits + stats.prefetch_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `gsd bench` runs under when given no flags.
    fn pipelined() -> RunSettings {
        RunSettings {
            prefetch: Some(gsd_core::PipelineConfig::default()),
            ..RunSettings::default()
        }
    }

    fn tiny_opts() -> WallOptions {
        WallOptions {
            scale: Scale::Tiny,
            systems: vec![SystemKind::GraphSd],
            algos: vec![Algo::Pr],
            datasets: vec!["twitter_sim".to_string()],
        }
    }

    #[test]
    fn wall_report_is_schema_valid_and_self_consistent() {
        let report = run_wall(&tiny_opts(), &pipelined()).unwrap();
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        assert_eq!(e.system, "GraphSD");
        assert_eq!(e.algorithm, "PR");
        assert_eq!(e.dataset, "twitter_sim");
        assert_eq!(e.iterations, 5, "paper PageRank runs 5 iterations");
        assert!(e.bytes_read > 0, "an out-of-core run must read bytes");
        assert!(e.prefetch_events > 0, "the default settings prefetch");
        // Round-trip through the schema validator.
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn deterministic_counters_stable_across_harness_invocations() {
        let a = run_wall(&tiny_opts(), &pipelined()).unwrap();
        let b = run_wall(&tiny_opts(), &pipelined()).unwrap();
        assert_eq!(b.compare_deterministic(&a), Ok(1));
    }

    #[test]
    fn prefetch_off_reports_zero_pipeline_activity() {
        let report = run_wall(&tiny_opts(), &RunSettings::default()).unwrap();
        assert!(!report.prefetch);
        assert_eq!(report.entries[0].prefetch_events, 0);
    }

    #[test]
    fn all_four_engines_produce_entries_on_one_cell() {
        let opts = WallOptions {
            systems: vec![
                SystemKind::GraphSd,
                SystemKind::HusGraph,
                SystemKind::Lumos,
                SystemKind::GridStream,
            ],
            ..tiny_opts()
        };
        let report = run_wall(&opts, &pipelined()).unwrap();
        let systems: Vec<&str> = report.entries.iter().map(|e| e.system.as_str()).collect();
        assert_eq!(systems, vec!["GraphSD", "HUS-Graph", "Lumos", "GridGraph"]);
        for e in &report.entries {
            assert_eq!(e.iterations, 5, "{}", e.system);
            assert!(e.bytes_read > 0, "{}", e.system);
        }
    }
}
