//! One harness per table/figure of the paper's evaluation section.
//!
//! Every experiment returns a structured result (consumed by the shape
//! tests in `tests/experiment_shapes.rs`) whose `Display` renders the rows
//! the paper reports. Absolute numbers differ from the paper — the
//! substrate is a simulated HDD and the datasets are scaled stand-ins —
//! but each experiment's header states the paper's claim so the shape can
//! be compared at a glance.

use crate::datasets::{Dataset, Datasets};
use crate::runner::{
    open_engine, paper_p, prepare_format, run_cell, run_system, scaled_disk_for, scaled_disk_from,
    Algo, SystemKind,
};
use crate::settings::RunSettings;
use crate::table::{mib, ratio, secs, Table};
use gsd_io::{DiskModel, MemStorage, SharedStorage, SimDisk};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: optimization support matrix of the implemented engines.
pub struct Table1 {
    /// (system, eliminates-random, avoids-inactive, future-value).
    pub rows: Vec<(&'static str, bool, bool, bool)>,
}

/// Runs the `table1` experiment: asks each engine, opened on a small grid.
pub fn table1(ds: &Datasets) -> std::io::Result<Table1> {
    let d = ds.get("twitter_sim")?;
    let mut rows = Vec::new();
    for (kind, name) in [
        (SystemKind::GridStream, "GridGraph (ours)"),
        (SystemKind::HusGraph, "HUS-Graph (ours)"),
        (SystemKind::Lumos, "Lumos (ours)"),
        (SystemKind::GraphSd, "GraphSD"),
    ] {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let opened = prepare_format(kind, d.directed(), storage.as_ref(), 4)
            .and_then(|_| open_engine(kind, storage, &RunSettings::default()));
        let c = opened
            .map_err(|e| std::io::Error::new(e.kind(), format!("table1: {name}: {e}")))?
            .capabilities();
        rows.push((
            name,
            c.eliminates_random_accesses,
            c.avoids_inactive_data,
            c.future_value_computation,
        ));
    }
    Ok(Table1 { rows })
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Table 1: optimizations per system (✓/✗) ==")?;
        writeln!(
            f,
            "paper: only GraphSD has all three (avoiding inactive data AND future-value computation)\n"
        )?;
        let mut t = Table::new(vec![
            "System",
            "EliminatesRandomAccesses",
            "AvoidsInactiveData",
            "FutureValueComputation",
        ]);
        let mark = |b: bool| if b { "yes" } else { "no" };
        for &(name, a, b, c) in &self.rows {
            t.push(vec![name, mark(a), mark(b), mark(c)]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------------

/// Table 3: the dataset inventory (stand-ins).
pub struct Table3 {
    /// (stand-in, paper name, |V|, |E|, type).
    pub rows: Vec<(String, String, u32, u64, String)>,
}

/// Runs the `table3` experiment.
pub fn table3(ds: &Datasets) -> Table3 {
    Table3 {
        rows: ds
            .all()
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.paper_name.to_owned(),
                    d.vertices,
                    d.edges,
                    d.kind_desc.to_owned(),
                )
            })
            .collect(),
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Table 3: datasets (scaled stand-ins) ==\n")?;
        let mut t = Table::new(vec![
            "Dataset",
            "Stands in for",
            "Vertices",
            "Edges",
            "Type",
        ]);
        for (name, paper, v, e, kind) in &self.rows {
            t.push(vec![
                name.clone(),
                paper.clone(),
                v.to_string(),
                e.to_string(),
                kind.clone(),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Table 4 — GraphSD absolute execution time
// ---------------------------------------------------------------------------

/// Table 4: GraphSD execution time per dataset × algorithm.
pub struct Table4 {
    /// (dataset, PR, PR-D, CC, SSSP) execution times.
    pub rows: Vec<(String, [Duration; 4])>,
}

/// Runs the `table4` experiment.
pub fn table4(ds: &Datasets, settings: &RunSettings) -> std::io::Result<Table4> {
    let mut rows = Vec::new();
    for d in ds.all() {
        let mut times = [Duration::ZERO; 4];
        for (k, algo) in Algo::all().into_iter().enumerate() {
            times[k] = run_system(SystemKind::GraphSd, d, algo, settings)?.execution_time();
        }
        rows.push((d.name.to_owned(), times));
    }
    Ok(Table4 { rows })
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Table 4: GraphSD execution time (seconds, modeled) =="
        )?;
        writeln!(
            f,
            "paper shape: SSSP slowest, PR/PR-D cheapest; time grows with dataset size\n"
        )?;
        let mut t = Table::new(vec!["Dataset", "PR", "PR-D", "CC", "SSSP"]);
        for (name, times) in &self.rows {
            t.push(vec![
                name.clone(),
                secs(times[0]),
                secs(times[1]),
                secs(times[2]),
                secs(times[3]),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Figure 5 — overall execution time vs HUS-Graph and Lumos
// ---------------------------------------------------------------------------

/// One Figure 5 cell: the three systems on one dataset × algorithm.
pub struct Fig5Row {
    /// Dataset stand-in name.
    pub dataset: String,
    /// Algorithm label.
    pub algo: &'static str,
    /// Execution times: GraphSD, HUS-Graph, Lumos.
    pub times: [Duration; 3],
}

impl Fig5Row {
    /// HUS-Graph time / GraphSD time.
    pub fn speedup_vs_hus(&self) -> f64 {
        speedup(&self.times, 1)
    }

    /// Lumos time / GraphSD time.
    pub fn speedup_vs_lumos(&self) -> f64 {
        speedup(&self.times, 2)
    }
}

/// System `k`'s time over GraphSD's, of [`SystemKind::main_three`] times.
fn speedup(times: &[Duration; 3], k: usize) -> f64 {
    times[k].as_secs_f64() / times[0].as_secs_f64().max(1e-12)
}

/// Figure 5 result.
pub struct Fig5 {
    /// All dataset × algorithm cells.
    pub rows: Vec<Fig5Row>,
}

impl Fig5 {
    /// Geometric-mean speedups (vs HUS-Graph, vs Lumos).
    pub fn mean_speedups(&self) -> (f64, f64) {
        (
            geomean(self.rows.iter().map(|r| r.speedup_vs_hus())),
            geomean(self.rows.iter().map(|r| r.speedup_vs_lumos())),
        )
    }

    /// Max speedups (vs HUS-Graph, vs Lumos).
    pub fn max_speedups(&self) -> (f64, f64) {
        (
            self.rows
                .iter()
                .map(|r| r.speedup_vs_hus())
                .fold(0.0, f64::max),
            self.rows
                .iter()
                .map(|r| r.speedup_vs_lumos())
                .fold(0.0, f64::max),
        )
    }
}

/// Runs the `fig5` experiment over `datasets` (pass `ds.all()` for the
/// full figure).
pub fn fig5(datasets: &[Dataset], settings: &RunSettings) -> std::io::Result<Fig5> {
    let mut rows = Vec::new();
    for d in datasets {
        for algo in Algo::all() {
            let mut times = [Duration::ZERO; 3];
            for (k, kind) in SystemKind::main_three().into_iter().enumerate() {
                times[k] = run_system(kind, d, algo, settings)?.execution_time();
            }
            rows.push(Fig5Row {
                dataset: d.name.to_owned(),
                algo: algo.label(),
                times,
            });
        }
    }
    Ok(Fig5 { rows })
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 5: overall execution time, normalized to GraphSD = 1.00 =="
        )?;
        writeln!(
            f,
            "paper: GraphSD wins everywhere; avg 1.7x vs HUS-Graph / 2.7x vs Lumos (up to 2.7x / 3.9x)\n"
        )?;
        let mut t = Table::new(vec!["Dataset", "Algo", "GraphSD(s)", "HUS-Graph", "Lumos"]);
        for r in &self.rows {
            t.push(vec![
                r.dataset.clone(),
                r.algo.to_owned(),
                secs(r.times[0]),
                format!("{:.2}", r.speedup_vs_hus()),
                format!("{:.2}", r.speedup_vs_lumos()),
            ]);
        }
        write!(f, "{t}")?;
        let (gh, gl) = self.mean_speedups();
        let (mh, ml) = self.max_speedups();
        writeln!(
            f,
            "\ngeomean speedup: {gh:.2}x vs HUS-Graph, {gl:.2}x vs Lumos (max {mh:.2}x / {ml:.2}x)"
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — runtime breakdown
// ---------------------------------------------------------------------------

/// One Figure 6 bar: a system's runtime split on one algorithm.
pub struct Fig6Row {
    /// Algorithm label.
    pub algo: &'static str,
    /// System label.
    pub system: &'static str,
    /// Disk I/O time.
    pub io_time: Duration,
    /// Vertex update (compute) time.
    pub compute_time: Duration,
    /// I/O share of execution time.
    pub io_fraction: f64,
    /// Prefetch-pipeline hits (scheduled reads served ahead of the ask).
    pub prefetch_hits: u64,
    /// Prefetch-pipeline misses (takes that waited on a reader).
    pub prefetch_misses: u64,
    /// Wall time the engine blocked on scheduled reads.
    pub prefetch_stall_time: Duration,
}

/// Figure 6 result (on the Twitter2010 stand-in).
pub struct Fig6 {
    /// All bars.
    pub rows: Vec<Fig6Row>,
}

/// Runs the `fig6` experiment.
pub fn fig6(d: &Dataset, settings: &RunSettings) -> std::io::Result<Fig6> {
    let mut rows = Vec::new();
    for algo in Algo::all() {
        for kind in SystemKind::main_three() {
            let outcome = run_system(kind, d, algo, settings)?;
            rows.push(Fig6Row {
                algo: algo.label(),
                system: kind.label(),
                io_time: outcome.stats.io_time,
                compute_time: outcome.stats.compute_time,
                io_fraction: outcome.stats.io_fraction(),
                prefetch_hits: outcome.stats.prefetch_hits,
                prefetch_misses: outcome.stats.prefetch_misses,
                prefetch_stall_time: outcome.stats.prefetch_stall_time,
            });
        }
    }
    Ok(Fig6 { rows })
}

impl Fig6 {
    /// Total I/O time of `system` across the four algorithms.
    pub fn total_io(&self, system: &str) -> Duration {
        self.rows
            .iter()
            .filter(|r| r.system == system)
            .map(|r| r.io_time)
            .sum()
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Figure 6: runtime breakdown on twitter_sim ==")?;
        writeln!(
            f,
            "paper: I/O dominates (56-91%); GraphSD's I/O time is 73% of HUS-Graph's and 49% of Lumos's\n"
        )?;
        let mut t = Table::new(vec![
            "Algo",
            "System",
            "IO(s)",
            "Update(s)",
            "IO-share",
            "pf-hit",
            "pf-miss",
            "stall(s)",
        ]);
        for r in &self.rows {
            t.push(vec![
                r.algo.to_owned(),
                r.system.to_owned(),
                secs(r.io_time),
                secs(r.compute_time),
                format!("{:.0}%", r.io_fraction * 100.0),
                r.prefetch_hits.to_string(),
                r.prefetch_misses.to_string(),
                secs(r.prefetch_stall_time),
            ]);
        }
        write!(f, "{t}")?;
        let gs = self.total_io("GraphSD").as_secs_f64();
        let hg = self.total_io("HUS-Graph").as_secs_f64();
        let lu = self.total_io("Lumos").as_secs_f64();
        writeln!(
            f,
            "\nGraphSD I/O time = {:.0}% of HUS-Graph, {:.0}% of Lumos",
            100.0 * gs / hg.max(1e-12),
            100.0 * gs / lu.max(1e-12)
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — I/O traffic
// ---------------------------------------------------------------------------

/// One Figure 7 bar: a system's I/O traffic on one dataset × algorithm.
pub struct Fig7Row {
    /// Dataset stand-in name.
    pub dataset: String,
    /// Algorithm label.
    pub algo: &'static str,
    /// System label.
    pub system: &'static str,
    /// Total traffic (read + written bytes).
    pub traffic: u64,
}

/// Figure 7 result (twitter_sim and uk_sim in the paper).
pub struct Fig7 {
    /// All bars.
    pub rows: Vec<Fig7Row>,
}

/// Runs the `fig7` experiment.
pub fn fig7(datasets: &[&Dataset], settings: &RunSettings) -> std::io::Result<Fig7> {
    let mut rows = Vec::new();
    for d in datasets {
        for algo in Algo::all() {
            for kind in SystemKind::main_three() {
                let outcome = run_system(kind, d, algo, settings)?;
                rows.push(Fig7Row {
                    dataset: d.name.to_owned(),
                    algo: algo.label(),
                    system: kind.label(),
                    traffic: outcome.stats.io.total_traffic(),
                });
            }
        }
    }
    Ok(Fig7 { rows })
}

impl Fig7 {
    /// Total traffic of `system` across all cells.
    pub fn total(&self, system: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.system == system)
            .map(|r| r.traffic)
            .sum()
    }

    /// Traffic of `(dataset, algo, system)`.
    pub fn traffic_of(&self, dataset: &str, algo: &str, system: &str) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.algo == algo && r.system == system)
            .map(|r| r.traffic)
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Figure 7: I/O traffic (MiB) ==")?;
        writeln!(
            f,
            "paper: GraphSD moves 1.6x less than HUS-Graph and 5.5x less than Lumos;\n\
             HUS-Graph worst on PR (no cross-iteration), Lumos worst on the frontier algorithms\n"
        )?;
        let mut t = Table::new(vec!["Dataset", "Algo", "GraphSD", "HUS-Graph", "Lumos"]);
        let mut cells: std::collections::BTreeMap<(String, &str), [u64; 3]> = Default::default();
        for r in &self.rows {
            let slot = match r.system {
                "GraphSD" => 0,
                "HUS-Graph" => 1,
                _ => 2,
            };
            cells.entry((r.dataset.clone(), r.algo)).or_default()[slot] = r.traffic;
        }
        for ((dataset, algo), traffics) in &cells {
            t.push(vec![
                dataset.clone(),
                (*algo).to_owned(),
                mib(traffics[0]),
                mib(traffics[1]),
                mib(traffics[2]),
            ]);
        }
        write!(f, "{t}")?;
        let gs = self.total("GraphSD") as f64;
        writeln!(
            f,
            "\ntraffic vs GraphSD: HUS-Graph {}, Lumos {}",
            ratio(self.total("HUS-Graph") as f64, gs),
            ratio(self.total("Lumos") as f64, gs)
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — preprocessing time
// ---------------------------------------------------------------------------

/// One Figure 8 bar.
pub struct Fig8Row {
    /// Dataset stand-in name.
    pub dataset: String,
    /// System label.
    pub system: &'static str,
    /// Modeled preprocessing time.
    pub time: Duration,
    /// Bytes the format occupies on disk.
    pub bytes: u64,
}

/// Figure 8 result.
pub struct Fig8 {
    /// All bars.
    pub rows: Vec<Fig8Row>,
}

/// Runs the `fig8` experiment.
pub fn fig8(ds: &Datasets, settings: &RunSettings) -> std::io::Result<Fig8> {
    let mut rows = Vec::new();
    for d in ds.all() {
        for kind in SystemKind::main_three() {
            // Preprocessing is algorithm-independent; PR's input (the plain
            // directed graph) is the canonical one.
            let outcome = run_system(kind, d, Algo::Pr, settings)?;
            rows.push(Fig8Row {
                dataset: d.name.to_owned(),
                system: kind.label(),
                time: outcome.preprocess.total_time(),
                bytes: outcome.preprocess.report.bytes_written,
            });
        }
    }
    Ok(Fig8 { rows })
}

impl Fig8 {
    /// Preprocessing time of `(dataset, system)`.
    pub fn time_of(&self, dataset: &str, system: &str) -> Option<Duration> {
        self.rows
            .iter()
            .find(|r| r.dataset == dataset && r.system == system)
            .map(|r| r.time)
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Figure 8: preprocessing time (seconds, modeled) ==")?;
        writeln!(
            f,
            "paper: HUS-Graph slowest (two sorted copies, ~1.4x GraphSD, ~1.8x Lumos); Lumos cheapest (one unsorted copy)\n"
        )?;
        let mut t = Table::new(vec!["Dataset", "System", "Time(s)", "Format(MiB)"]);
        for r in &self.rows {
            t.push(vec![
                r.dataset.clone(),
                r.system.to_owned(),
                secs(r.time),
                mib(r.bytes),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — update-strategy ablation
// ---------------------------------------------------------------------------

/// One Figure 9 bar.
pub struct Fig9Row {
    /// Algorithm label.
    pub algo: &'static str,
    /// System label (GraphSD / GraphSD-b1 / GraphSD-b2).
    pub system: &'static str,
    /// Execution time.
    pub time: Duration,
    /// I/O traffic.
    pub traffic: u64,
}

/// Figure 9 result (on the Twitter2010 stand-in).
pub struct Fig9 {
    /// All bars.
    pub rows: Vec<Fig9Row>,
}

/// Runs the `fig9` experiment.
pub fn fig9(d: &Dataset, settings: &RunSettings) -> std::io::Result<Fig9> {
    let mut rows = Vec::new();
    for algo in Algo::all() {
        for kind in [
            SystemKind::GraphSd,
            SystemKind::GraphSdB1,
            SystemKind::GraphSdB2,
        ] {
            let outcome = run_system(kind, d, algo, settings)?;
            rows.push(Fig9Row {
                algo: algo.label(),
                system: kind.label(),
                time: outcome.execution_time(),
                traffic: outcome.stats.io.total_traffic(),
            });
        }
    }
    Ok(Fig9 { rows })
}

impl Fig9 {
    /// Sums across algorithms for one system: (time, traffic).
    pub fn totals(&self, system: &str) -> (Duration, u64) {
        self.rows
            .iter()
            .filter(|r| r.system == system)
            .fold((Duration::ZERO, 0), |(t, b), r| (t + r.time, b + r.traffic))
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 9: effect of the update strategy, twitter_sim =="
        )?;
        writeln!(
            f,
            "paper: full GraphSD beats b1 (no cross-iteration) by 1.7x and b2 (no selective) by 2.8x;\n\
             I/O traffic 1.6x / 5.4x lower; b2 is worse than b1\n"
        )?;
        let mut t = Table::new(vec!["Algo", "System", "Time(s)", "Traffic(MiB)"]);
        for r in &self.rows {
            t.push(vec![
                r.algo.to_owned(),
                r.system.to_owned(),
                secs(r.time),
                mib(r.traffic),
            ]);
        }
        write!(f, "{t}")?;
        let (t0, b0) = self.totals("GraphSD");
        let (t1, b1) = self.totals("GraphSD-b1");
        let (t2, b2) = self.totals("GraphSD-b2");
        writeln!(
            f,
            "\nvs GraphSD: b1 time {}, traffic {}; b2 time {}, traffic {}",
            ratio(t1.as_secs_f64(), t0.as_secs_f64()),
            ratio(b1 as f64, b0 as f64),
            ratio(t2.as_secs_f64(), t0.as_secs_f64()),
            ratio(b2 as f64, b0 as f64),
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 10 — per-iteration scheduling
// ---------------------------------------------------------------------------

/// Figure 10 result: per-iteration execution time of CC under the three
/// scheduling policies.
pub struct Fig10 {
    /// Per-iteration times of the adaptive scheduler.
    pub adaptive: Vec<Duration>,
    /// Per-iteration times of always-full (b3).
    pub full: Vec<Duration>,
    /// Per-iteration times of always-on-demand (b4).
    pub on_demand: Vec<Duration>,
    /// The model the adaptive scheduler picked per iteration.
    pub chosen: Vec<gsd_runtime::IoAccessModel>,
    /// Total priced I/O times (adaptive, full, on-demand): `SimDisk`'s
    /// virtual clock, which repeats exactly, while the per-iteration
    /// times above add measured compute.
    pub io_totals: (Duration, Duration, Duration),
}

/// Runs the `fig10` experiment (CC on the UKUnion stand-in in the paper).
pub fn fig10(d: &Dataset, settings: &RunSettings) -> std::io::Result<Fig10> {
    let per_iter = |kind| -> std::io::Result<(Vec<Duration>, Vec<_>, Duration)> {
        let stats = run_system(kind, d, Algo::Cc, settings)?.stats;
        let iterations = stats.per_iteration.iter();
        let io = iterations.clone().map(|s| s.io_time).sum();
        let (times, models) = iterations
            .map(|s| (s.io_time + s.compute_time, s.model))
            .unzip();
        Ok((times, models, io))
    };
    let (adaptive, chosen, adaptive_io) = per_iter(SystemKind::GraphSd)?;
    let (full, _, full_io) = per_iter(SystemKind::GraphSdB3)?;
    let (on_demand, _, on_demand_io) = per_iter(SystemKind::GraphSdB4)?;
    Ok(Fig10 {
        adaptive,
        full,
        on_demand,
        chosen,
        io_totals: (adaptive_io, full_io, on_demand_io),
    })
}

impl Fig10 {
    /// Total times (adaptive, full, on-demand).
    pub fn totals(&self) -> (Duration, Duration, Duration) {
        (
            self.adaptive.iter().sum(),
            self.full.iter().sum(),
            self.on_demand.iter().sum(),
        )
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 10: per-iteration time of CC, adaptive vs fixed I/O models =="
        )?;
        writeln!(
            f,
            "paper: the adaptive scheduler tracks the better of full (b3) and on-demand (b4) in every iteration\n"
        )?;
        let mut t = Table::new(vec![
            "Iter",
            "Adaptive(s)",
            "Full/b3(s)",
            "OnDemand/b4(s)",
            "Chose",
        ]);
        let n = self
            .adaptive
            .len()
            .max(self.full.len())
            .max(self.on_demand.len());
        let get =
            |v: &Vec<Duration>, k: usize| v.get(k).map(|d| secs(*d)).unwrap_or_else(|| "-".into());
        for k in 0..n {
            t.push(vec![
                (k + 1).to_string(),
                get(&self.adaptive, k),
                get(&self.full, k),
                get(&self.on_demand, k),
                self.chosen
                    .get(k)
                    .map(|m| format!("{m:?}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        write!(f, "{t}")?;
        let (a, b, c) = self.totals();
        writeln!(
            f,
            "\ntotals: adaptive {} | always-full {} | always-on-demand {}",
            secs(a),
            secs(b),
            secs(c)
        )
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — scheduler overhead vs saved I/O time
// ---------------------------------------------------------------------------

/// One Figure 11 row.
pub struct Fig11Row {
    /// Algorithm label.
    pub algo: &'static str,
    /// Benefit-evaluation compute time of the adaptive run.
    pub overhead: Duration,
    /// I/O time saved versus always-full (b3) — the static policy of
    /// prior full-streaming systems the scheduler improves on.
    pub saved_vs_full: Duration,
    /// I/O time saved versus always-on-demand (b4).
    pub saved_vs_on_demand: Duration,
}

/// Figure 11 result (Twitter2010 stand-in).
pub struct Fig11 {
    /// All rows.
    pub rows: Vec<Fig11Row>,
}

/// Runs the `fig11` experiment.
pub fn fig11(d: &Dataset, settings: &RunSettings) -> std::io::Result<Fig11> {
    let mut rows = Vec::new();
    for algo in Algo::all() {
        let adaptive = run_system(SystemKind::GraphSd, d, algo, settings)?;
        let fixed_full = run_system(SystemKind::GraphSdB3, d, algo, settings)?;
        let fixed_od = run_system(SystemKind::GraphSdB4, d, algo, settings)?;
        rows.push(Fig11Row {
            algo: algo.label(),
            overhead: adaptive.stats.scheduler_time,
            saved_vs_full: fixed_full
                .stats
                .io_time
                .saturating_sub(adaptive.stats.io_time),
            saved_vs_on_demand: fixed_od
                .stats
                .io_time
                .saturating_sub(adaptive.stats.io_time),
        });
    }
    Ok(Fig11 { rows })
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 11: scheduler overhead vs reduced I/O time, twitter_sim =="
        )?;
        writeln!(
            f,
            "paper: overhead is negligible (e.g. PR-D: 3.4s evaluation vs 158s I/O saved)\n"
        )?;
        let mut t = Table::new(vec![
            "Algo",
            "Evaluation overhead(ms)",
            "Saved vs always-full(ms)",
            "Saved vs always-on-demand(ms)",
        ]);
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        for r in &self.rows {
            t.push(vec![
                r.algo.to_owned(),
                ms(r.overhead),
                ms(r.saved_vs_full),
                ms(r.saved_vs_on_demand),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — buffering effect
// ---------------------------------------------------------------------------

/// One Figure 12 pair.
pub struct Fig12Row {
    /// Dataset stand-in name.
    pub dataset: String,
    /// Algorithm label.
    pub algo: &'static str,
    /// Execution time with the sub-block buffer.
    pub with_buffer: Duration,
    /// Execution time without it.
    pub without_buffer: Duration,
    /// Priced I/O time (SimDisk's virtual clock) with the buffer.
    pub with_buffer_io: Duration,
    /// Priced I/O time without it.
    pub without_buffer_io: Duration,
    /// Bytes served from the buffer.
    pub buffer_hit_bytes: u64,
}

impl Fig12Row {
    /// Relative improvement from buffering.
    pub fn improvement(&self) -> f64 {
        improvement(self.with_buffer, self.without_buffer)
    }

    /// Relative improvement of the priced I/O time alone: deterministic,
    /// since it leaves out wall-clock compute.
    pub fn io_improvement(&self) -> f64 {
        improvement(self.with_buffer_io, self.without_buffer_io)
    }
}

/// `1 − with / without`.
fn improvement(with: Duration, without: Duration) -> f64 {
    1.0 - with.as_secs_f64() / without.as_secs_f64().max(1e-12)
}

/// Figure 12 result (UKUnion stand-in).
pub struct Fig12 {
    /// All pairs.
    pub rows: Vec<Fig12Row>,
}

/// Runs the `fig12` experiment over one or more datasets (the paper uses
/// UKUnion; we add an R-MAT dataset because the web stand-in's edge mass
/// is nearly all diagonal, leaving almost no secondary blocks to buffer).
pub fn fig12(datasets: &[&Dataset], settings: &RunSettings) -> std::io::Result<Fig12> {
    let mut rows = Vec::new();
    for d in datasets {
        for algo in Algo::all() {
            let with_buffer = run_system(SystemKind::GraphSd, d, algo, settings)?;
            let without = run_system(SystemKind::GraphSdNoBuffer, d, algo, settings)?;
            rows.push(Fig12Row {
                dataset: d.name.to_owned(),
                algo: algo.label(),
                with_buffer: with_buffer.execution_time(),
                without_buffer: without.execution_time(),
                with_buffer_io: with_buffer.stats.io_time,
                without_buffer_io: without.stats.io_time,
                buffer_hit_bytes: with_buffer.stats.buffer_hit_bytes,
            });
        }
    }
    Ok(Fig12 { rows })
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== Figure 12: effect of the sub-block buffering scheme, ukunion_sim =="
        )?;
        writeln!(f, "paper: buffering improves execution time by up to 21%\n")?;
        let mut t = Table::new(vec![
            "Dataset",
            "Algo",
            "With buffer(s)",
            "Without(s)",
            "Improvement",
            "Buffer hits(MiB)",
        ]);
        for r in &self.rows {
            t.push(vec![
                r.dataset.clone(),
                r.algo.to_owned(),
                secs(r.with_buffer),
                secs(r.without_buffer),
                format!("{:.1}%", r.improvement() * 100.0),
                mib(r.buffer_hit_bytes),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Extension: storage-device sensitivity (the paper's future-work direction)
// ---------------------------------------------------------------------------

/// One storage-sweep row.
pub struct ExtStorageRow {
    /// Device label.
    pub device: &'static str,
    /// Algorithm label.
    pub algo: &'static str,
    /// Execution times: GraphSD, HUS-Graph, Lumos.
    pub times: [Duration; 3],
}

/// Extension experiment: the same comparison on progressively faster
/// storage (HDD -> SATA SSD -> NVMe).
pub struct ExtStorage {
    /// All rows.
    pub rows: Vec<ExtStorageRow>,
}

/// Runs the `ext_storage` extension: PR-D and SSSP on the UK2007 stand-in
/// across three device classes. The paper's conclusion names faster
/// storage (Optane PMM) as future work; this measures how the update
/// strategy's advantage responds as random access gets cheaper.
pub fn ext_storage(d: &Dataset, settings: &RunSettings) -> std::io::Result<ExtStorage> {
    let mut rows = Vec::new();
    for (device, model) in [
        ("hdd", DiskModel::hdd()),
        ("ssd", DiskModel::ssd()),
        ("nvme", DiskModel::nvme()),
    ] {
        for algo in [Algo::PrD, Algo::Sssp] {
            let g = algo.input(d);
            let mut times = [Duration::ZERO; 3];
            for (k, kind) in SystemKind::main_three().into_iter().enumerate() {
                let p = paper_p(g);
                let disk = Arc::new(SimDisk::new(scaled_disk_from(model, g, p)));
                let outcome = run_cell(kind, g, algo, d.root(), disk, p, settings)?;
                times[k] = outcome.execution_time();
            }
            rows.push(ExtStorageRow {
                device,
                algo: algo.label(),
                times,
            });
        }
    }
    Ok(ExtStorage { rows })
}

impl fmt::Display for ExtStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Extension: storage-device sensitivity (uk_sim) ==")?;
        writeln!(
            f,
            "paper future work: exploit faster storage. Finding: GraphSD's margin over Lumos\n\
             persists on SSD but narrows on NVMe, and on NVMe the contiguous-layout selective\n\
             design (HUS-Graph's CSR row copy) can overtake the grid layout: cheap random access\n\
             erases the seek economics the 2-D grid is built around.\n"
        )?;
        let mut t = Table::new(vec!["Device", "Algo", "GraphSD(s)", "HUS-Graph", "Lumos"]);
        for r in &self.rows {
            t.push(vec![
                r.device.to_owned(),
                r.algo.to_owned(),
                secs(r.times[0]),
                format!("{:.2}", speedup(&r.times, 1)),
                format!("{:.2}", speedup(&r.times, 2)),
            ]);
        }
        write!(f, "{t}")
    }
}

// ---------------------------------------------------------------------------
// Extension: interval-count (P) sensitivity
// ---------------------------------------------------------------------------

/// One P-sweep row.
pub struct ExtPsweepRow {
    /// Interval count.
    pub p: u32,
    /// GraphSD execution time for PR (dense) and SSSP (frontier-driven).
    pub pr_time: Duration,
    /// SSSP execution time.
    pub sssp_time: Duration,
    /// SSSP I/O traffic.
    pub sssp_traffic: u64,
}

/// Extension experiment: how the grid's interval count `P` trades seek
/// count against selectivity.
pub struct ExtPsweep {
    /// All rows, ascending in `P`.
    pub rows: Vec<ExtPsweepRow>,
}

/// Runs the `ext_psweep` extension on the UK2007 stand-in: the paper fixes
/// `P` via the 5 % memory-budget rule (P = 20); this sweep shows the design
/// space around that point. Small `P` = fewer, larger blocks (cheap
/// streaming, coarse selectivity); large `P` = finer selective reads but
/// more per-block requests.
pub fn ext_psweep(d: &Dataset, settings: &RunSettings) -> std::io::Result<ExtPsweep> {
    let run = |algo: Algo, p: u32| {
        let g = algo.input(d);
        let disk = Arc::new(SimDisk::new(scaled_disk_for(g, p)));
        run_cell(SystemKind::GraphSd, g, algo, d.root(), disk, p, settings)
    };
    let mut rows = Vec::new();
    for p in [4u32, 10, 20, 40] {
        let pr = run(Algo::Pr, p)?;
        let sssp = run(Algo::Sssp, p)?;
        rows.push(ExtPsweepRow {
            p,
            pr_time: pr.execution_time(),
            sssp_time: sssp.execution_time(),
            sssp_traffic: sssp.stats.io.total_traffic(),
        });
    }
    Ok(ExtPsweep { rows })
}

impl fmt::Display for ExtPsweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Extension: interval-count (P) sensitivity, uk_sim ==")?;
        writeln!(
            f,
            "design-choice ablation: the paper's 5% budget rule implies P = 20; the sweep shows the\n\
             seek-count vs selectivity trade around that point\n"
        )?;
        let mut t = Table::new(vec!["P", "PR time(s)", "SSSP time(s)", "SSSP traffic(MiB)"]);
        for r in &self.rows {
            t.push(vec![
                r.p.to_string(),
                secs(r.pr_time),
                secs(r.sssp_time),
                mib(r.sssp_traffic),
            ]);
        }
        write!(f, "{t}")
    }
}

/// How an experiment renders its output from the datasets and settings.
pub type Runner = fn(&Datasets, &RunSettings) -> std::io::Result<String>;

/// Every experiment, in paper order (plus extensions): its id and its
/// runner. [`ids`] and [`run_by_id`] both read this one registry.
pub const EXPERIMENTS: [(&str, Runner); 13] = [
    ("table1", |ds, _| Ok(table1(ds)?.to_string())),
    ("table3", |ds, _| Ok(table3(ds).to_string())),
    ("table4", |ds, s| Ok(table4(ds, s)?.to_string())),
    ("fig5", |ds, s| Ok(fig5(ds.all(), s)?.to_string())),
    ("fig6", |ds, s| on(fig6, ds.get("twitter_sim")?, s)),
    ("fig7", |ds, s| {
        let targets = [ds.get("twitter_sim")?, ds.get("uk_sim")?];
        Ok(fig7(&targets, s)?.to_string())
    }),
    ("fig8", |ds, s| Ok(fig8(ds, s)?.to_string())),
    ("fig9", |ds, s| on(fig9, ds.get("twitter_sim")?, s)),
    ("fig10", |ds, s| on(fig10, ds.get("ukunion_sim")?, s)),
    ("fig11", |ds, s| on(fig11, ds.get("twitter_sim")?, s)),
    ("fig12", |ds, s| {
        let targets = [ds.get("ukunion_sim")?, ds.get("kron_sim")?];
        Ok(fig12(&targets, s)?.to_string())
    }),
    ("ext_storage", |ds, s| on(ext_storage, ds.get("uk_sim")?, s)),
    ("ext_psweep", |ds, s| on(ext_psweep, ds.get("uk_sim")?, s)),
];

/// Renders a one-dataset experiment.
fn on<T: fmt::Display>(
    experiment: fn(&Dataset, &RunSettings) -> std::io::Result<T>,
    d: &Dataset,
    settings: &RunSettings,
) -> std::io::Result<String> {
    Ok(experiment(d, settings)?.to_string())
}

/// All experiment ids, in registry order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id)
}

/// The runner of experiment `id`; an unknown id is an `InvalidInput`
/// error that lists the known ones.
pub fn runner(id: &str) -> std::io::Result<Runner> {
    match EXPERIMENTS.iter().find(|(known, _)| *known == id) {
        Some((_, run)) => Ok(*run),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "unknown experiment id {id:?} (known: {})",
                ids().collect::<Vec<_>>().join(" ")
            ),
        )),
    }
}

/// Runs one experiment by id under `settings` and returns its rendered
/// output.
pub fn run_by_id(id: &str, ds: &Datasets, settings: &RunSettings) -> std::io::Result<String> {
    runner(id)?(ds, settings)
}
