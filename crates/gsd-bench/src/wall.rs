//! The counters gate behind `gsd bench`: every engine × algorithm ×
//! dataset cell on real files, reported as `BENCH_<label>.json`.
//!
//! What gates is timing-free: [`BenchReport::compare_deterministic`]
//! holds each cell's iterations, bytes read, bytes written and prefetch
//! hits + misses equal to `ci/bench_baseline.json` (CI over all cells,
//! `tests/bench_gate.rs` over the `twitter_sim` ones). The wall times,
//! phase times and RSS in the same report are informational — tiny cells
//! run for milliseconds; the repository-root `benchmark/` package is the
//! clock.
//!
//! Unlike [`crate::runner`], which prices runs on the simulated disk's
//! virtual clock, the cells run on [`gsd_io::FileStorage`] in a
//! self-deleting temp directory:
//!
//! * each `(system, algorithm, dataset)` cell preprocesses its on-disk
//!   format **once**, then rebuilds the engine from the files for every
//!   repeat (state from a previous repeat never leaks);
//! * `warmup` untimed repeats warm the page cache and allocator before
//!   `repeats` timed ones;
//! * the reported breakdown comes from the **median** repeat (upper
//!   median for even counts), so one descheduled run cannot skew it.
//!
//! Every timed repeat emits a [`TraceEvent::BenchRepeat`] into the
//! settings' sink, so a `--trace` of a bench run records the raw samples
//! next to the per-iteration events.

use crate::datasets::{Dataset, Datasets, Scale};
use crate::runner::{paper_budget, paper_p, prepare_format, reopen_engine, Algo, SystemKind};
use crate::settings::RunSettings;
use gsd_io::{FileStorage, SharedStorage, TempDir};
use gsd_metrics::{median, BenchEntry, BenchReport, BENCH_SCHEMA_VERSION};
use gsd_runtime::RunStats;
use gsd_trace::{Stopwatch, TraceEvent};
use std::sync::Arc;

/// Which cells [`run_wall`] measures, and how often.
#[derive(Debug, Clone)]
pub struct WallOptions {
    /// Report label — the `<label>` in `BENCH_<label>.json`.
    pub label: String,
    /// Untimed warmup repeats per cell.
    pub warmup: u32,
    /// Timed repeats per cell (the median one is reported).
    pub repeats: u32,
    /// Dataset scale.
    pub scale: Scale,
    /// Systems to measure.
    pub systems: Vec<SystemKind>,
    /// Algorithms to measure.
    pub algos: Vec<Algo>,
    /// Dataset names to measure; empty means all five stand-ins.
    pub datasets: Vec<String>,
}

impl Default for WallOptions {
    fn default() -> Self {
        WallOptions {
            label: "local".to_string(),
            warmup: 1,
            repeats: 3,
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

/// Scale name as recorded in the report (`"tiny"`, `"small"`,
/// `"medium"`).
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Medium => "medium",
    }
}

/// Runs the whole matrix of `opts` under `settings` and assembles the
/// report.
pub fn run_wall(opts: &WallOptions, settings: &RunSettings) -> std::io::Result<BenchReport> {
    let repeats = opts.repeats.max(1);
    let datasets = Datasets::load(opts.scale);
    let mut entries = Vec::new();
    for ds in datasets.all() {
        if !opts.datasets.is_empty() && !opts.datasets.iter().any(|n| n == ds.name) {
            continue;
        }
        for &kind in &opts.systems {
            for &algo in &opts.algos {
                entries.push(bench_cell(kind, ds, algo, opts.warmup, repeats, settings)?);
            }
        }
    }
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        label: opts.label.clone(),
        scale: scale_name(opts.scale).to_string(),
        warmup: opts.warmup,
        repeats,
        prefetch: settings.prefetch.is_some(),
        entries,
    })
}

/// Measures one `(system, dataset, algorithm)` cell.
fn bench_cell(
    kind: SystemKind,
    dataset: &Dataset,
    algo: Algo,
    warmup: u32,
    repeats: u32,
    settings: &RunSettings,
) -> std::io::Result<BenchEntry> {
    let graph = algo.input(dataset);
    let root = dataset.root();
    let dir = TempDir::new("gsd-wallbench")?;
    let open = || -> std::io::Result<SharedStorage> {
        Ok(settings.storage(Arc::new(FileStorage::open(dir.path())?)))
    };
    prepare_format(kind, graph, &open()?, paper_p(graph))?;

    let budget = paper_budget(graph);
    let sink = &settings.sink;

    let run_once = || -> std::io::Result<(u64, RunStats)> {
        let mut engine = reopen_engine(kind, open()?, budget, settings)?;
        let watch = Stopwatch::start();
        let (stats, _) = engine.run_algo(algo, root)?;
        Ok((watch.elapsed().as_micros() as u64, stats))
    };

    for _ in 0..warmup {
        run_once()?;
    }

    let mut samples: Vec<(u64, RunStats)> = Vec::with_capacity(repeats as usize);
    for repeat in 0..repeats {
        let (wall_us, stats) = run_once()?;
        if sink.enabled() {
            sink.emit(&TraceEvent::BenchRepeat {
                system: kind.label(),
                algorithm: algo.label().to_string(),
                repeat,
                wall_us,
            });
        }
        samples.push((wall_us, stats));
    }

    // The engines are deterministic: any drift in the replayed-work
    // counters between repeats is a correctness bug, not noise.
    for (wall, stats) in &samples[1..] {
        let (_, first) = &samples[0];
        if stats.iterations != first.iterations
            || stats.io.read_bytes() != first.io.read_bytes()
            || stats.io.write_bytes != first.io.write_bytes
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}/{}/{}: repeats disagree on deterministic counters \
                     (iterations {} vs {}, read {} vs {}, written {} vs {}; wall {wall}us)",
                    kind.label(),
                    algo.label(),
                    dataset.name,
                    stats.iterations,
                    first.iterations,
                    stats.io.read_bytes(),
                    first.io.read_bytes(),
                    stats.io.write_bytes,
                    first.io.write_bytes,
                ),
            ));
        }
    }

    let walls: Vec<u64> = samples.iter().map(|(w, _)| *w).collect();
    let wall_us_median = median(&walls);
    let (_, stats) = samples
        .iter()
        .find(|(w, _)| *w == wall_us_median)
        .unwrap_or(&samples[0]);

    let io_wait_us: u64 = stats
        .per_iteration
        .iter()
        .map(|it| it.io_wait_time.as_micros() as u64)
        .sum();
    let prefetch_total = stats.prefetch_hits + stats.prefetch_misses;
    Ok(BenchEntry {
        system: kind.label().to_string(),
        algorithm: algo.label().to_string(),
        dataset: dataset.name.to_string(),
        iterations: stats.iterations,
        wall_us: walls,
        wall_us_median,
        io_wait_us,
        compute_us: stats.compute_time.as_micros() as u64,
        stall_us: stats.prefetch_stall_time.as_micros() as u64,
        scheduler_us: stats.scheduler_time.as_micros() as u64,
        bytes_read: stats.io.read_bytes(),
        read_ops: stats.io.seq_read_ops + stats.io.rand_read_ops,
        bytes_written: stats.io.write_bytes,
        prefetch_hits: stats.prefetch_hits,
        prefetch_misses: stats.prefetch_misses,
        prefetch_hit_rate: if prefetch_total == 0 {
            0.0
        } else {
            stats.prefetch_hits as f64 / prefetch_total as f64
        },
        peak_rss_bytes: gsd_metrics::rss::peak_rss_bytes().unwrap_or(0),
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
            label: "unit".to_string(),
            warmup: 0,
            repeats: 2,
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
        assert_eq!(e.wall_us.len(), 2);
        assert!(e.bytes_read > 0, "an out-of-core run must read bytes");
        // Round-trip through the schema validator.
        let back = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(report.file_name(), "BENCH_unit.json");
    }

    #[test]
    fn deterministic_counters_stable_across_harness_invocations() {
        let a = run_wall(&tiny_opts(), &pipelined()).unwrap();
        let b = run_wall(&tiny_opts(), &pipelined()).unwrap();
        assert_eq!(b.compare_deterministic(&a), Ok(1));
    }

    #[test]
    fn prefetch_off_reports_zero_pipeline_activity() {
        let opts = WallOptions {
            repeats: 1,
            ..tiny_opts()
        };
        let report = run_wall(&opts, &RunSettings::default()).unwrap();
        assert!(!report.prefetch);
        let e = &report.entries[0];
        assert_eq!(e.prefetch_hits + e.prefetch_misses, 0);
        assert_eq!(e.prefetch_hit_rate, 0.0);
        assert_eq!(e.stall_us, 0);
    }

    #[test]
    fn all_four_engines_produce_entries_on_one_cell() {
        let opts = WallOptions {
            repeats: 1,
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
