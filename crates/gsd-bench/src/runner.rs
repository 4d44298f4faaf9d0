//! Cross-system run machinery: prepare a system's on-disk format on a
//! fresh simulated disk, run one of the paper's four algorithms, and
//! collect timing / traffic / preprocessing outcomes.

use crate::datasets::Dataset;
use crate::settings::RunSettings;
use gsd_algos::{ConnectedComponents, PageRank, PageRankDelta, Sssp};
use gsd_baselines::HusFormat;
use gsd_baselines::{
    build_hus_format, build_lumos_format, GridStreamEngine, HusGraphEngine, LumosEngine,
};
use gsd_core::{GraphSdConfig, GraphSdEngine, GridSession, SchedulerDecision};
use gsd_graph::{
    preprocess, CorruptionResponse, EdgeCodec, Graph, GridGraph, PreprocessConfig, PreprocessReport,
};
use gsd_io::{DiskModel, SharedStorage, SimDisk};
use gsd_runtime::{Engine, RunOptions, RunStats, VertexProgram};
use std::sync::Arc;
use std::time::Duration;

/// Which system (or GraphSD ablation) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Full GraphSD.
    GraphSd,
    /// GraphSD-b1: no cross-iteration update (§5.4).
    GraphSdB1,
    /// GraphSD-b2: no selective update (§5.4).
    GraphSdB2,
    /// GraphSD-b3: full I/O model always (§5.4).
    GraphSdB3,
    /// GraphSD-b4: on-demand I/O model always (§5.4).
    GraphSdB4,
    /// GraphSD without the sub-block buffer (Figure 12).
    GraphSdNoBuffer,
    /// HUS-Graph-like baseline.
    HusGraph,
    /// Lumos-like baseline.
    Lumos,
    /// GridGraph-like plain streaming baseline.
    GridStream,
}

impl SystemKind {
    /// Display label (matches the paper's figure legends).
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::GraphSd => "GraphSD",
            SystemKind::GraphSdB1 => "GraphSD-b1",
            SystemKind::GraphSdB2 => "GraphSD-b2",
            SystemKind::GraphSdB3 => "GraphSD-b3",
            SystemKind::GraphSdB4 => "GraphSD-b4",
            SystemKind::GraphSdNoBuffer => "GraphSD-nobuf",
            SystemKind::HusGraph => "HUS-Graph",
            SystemKind::Lumos => "Lumos",
            SystemKind::GridStream => "GridGraph",
        }
    }

    /// The three systems of Figures 5–8.
    pub fn main_three() -> [SystemKind; 3] {
        [SystemKind::GraphSd, SystemKind::HusGraph, SystemKind::Lumos]
    }
}

/// The paper's four evaluation algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// PageRank, 5 iterations.
    Pr,
    /// PageRank-Delta, 20 iterations.
    PrD,
    /// Connected Components to convergence (on the symmetrized graph).
    Cc,
    /// SSSP to convergence (weighted graph, hub root).
    Sssp,
}

impl Algo {
    /// All four, in the paper's column order.
    pub fn all() -> [Algo; 4] {
        [Algo::Pr, Algo::PrD, Algo::Cc, Algo::Sssp]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::Pr => "PR",
            Algo::PrD => "PR-D",
            Algo::Cc => "CC",
            Algo::Sssp => "SSSP",
        }
    }

    /// The graph variant this algorithm runs on.
    pub fn input<'a>(&self, dataset: &'a Dataset) -> &'a Graph {
        match self {
            Algo::Cc => dataset.symmetric(),
            Algo::Sssp => dataset.weighted(),
            Algo::Pr | Algo::PrD => dataset.directed(),
        }
    }
}

/// Preprocessing outcome of one system on one input.
#[derive(Debug, Clone, Copy)]
pub struct PreprocessOutcome {
    /// Wall-clock breakdown (load / partition / sort / write).
    pub report: PreprocessReport,
    /// Simulated device time of the preprocessing writes.
    pub sim_write_time: Duration,
}

impl PreprocessOutcome {
    /// Modeled preprocessing time: the compute phases (wall) plus the
    /// simulated time of writing the format to disk. This is the quantity
    /// Figure 8 compares.
    pub fn total_time(&self) -> Duration {
        self.report.load + self.report.partition + self.report.sort + self.sim_write_time
    }
}

/// Everything one `(system, dataset, algorithm)` run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// System label.
    pub system: &'static str,
    /// Run statistics (times, traffic, per-iteration detail).
    pub stats: RunStats,
    /// Preprocessing outcome for this system's format.
    pub preprocess: PreprocessOutcome,
    /// Scheduler decisions (GraphSD variants only; empty otherwise).
    pub decisions: Vec<SchedulerDecision>,
}

impl RunOutcome {
    /// Modeled execution time (I/O + compute + scheduler overhead).
    pub fn execution_time(&self) -> Duration {
        self.stats.execution_time()
    }
}

/// The interval count the paper's setup implies: the 5 % memory budget
/// must hold one edge block (grid row), i.e. `P = 20`, clamped for tiny
/// inputs.
pub fn paper_p(graph: &Graph) -> u32 {
    20u32.min(graph.num_vertices().max(1)).max(1)
}

/// Frontier fraction at which the on-demand and full I/O models should
/// break even (see [`scaled_disk_for`]).
const CROSSOVER_FRACTION: f64 = 0.10;

/// Builds the simulated disk for a graph of this size.
///
/// Scaling argument: experiments run on graphs ~10⁴–10⁵× smaller than the
/// paper's, but a real HDD's 8 ms seek does not shrink with them — with it,
/// *every* configuration is seek-bound and the on-demand model can never
/// win, which is not the regime two 500 GB HDDs with multi-GB datasets are
/// in. We therefore keep the HDD's bandwidths and scale the seek latency so
/// that the quantity that actually drives the paper's scheduler — the
/// ratio between "one seek per active vertex" and "stream the whole edge
/// set" — places the on-demand/full crossover at a meaningful frontier
/// fraction ([`CROSSOVER_FRACTION`] of `|V|`). The model's `rand_read_bps`
/// is derived consistently as the effective bandwidth of reading one
/// average vertex's edge list, so the scheduler's `C_r` estimates match
/// what the simulator charges.
/// Bandwidth slowdown that restores the paper's I/O-dominated regime
/// (56-91 % of execution time in disk I/O, Figure 6): our graphs are 10^4 x
/// smaller than the paper's but the CPU is not 10^4 x slower, so unscaled
/// bandwidths would make runs compute-bound and mask the I/O differences
/// the paper measures. The slowdown is virtual-clock accounting only.
const BANDWIDTH_SLOWDOWN: f64 = 8.0;

/// Builds the simulated disk the experiments run on: the HDD preset scaled
/// to the graph's size (see [`scaled_disk_from`] for the argument).
pub fn scaled_disk_for(graph: &Graph) -> DiskModel {
    scaled_disk_from(DiskModel::hdd(), graph)
}

/// [`scaled_disk_for`] generalized over the base device — used by the
/// storage-sensitivity extension experiment (the paper's future-work
/// direction: how do the gains change on faster devices?). The seek/sweep
/// crossover scaling is applied relative to the base device's own
/// seek-to-bandwidth ratio, so an SSD/NVMe keeps its proportionally
/// cheaper random access.
pub fn scaled_disk_from(base: DiskModel, graph: &Graph) -> DiskModel {
    let seq_read_bps = base.seq_read_bps / BANDWIDTH_SLOWDOWN;
    let seq_write_bps = base.seq_write_bps / BANDWIDTH_SLOWDOWN;
    let edge_bytes =
        (graph.num_edges() * EdgeCodec::new(graph.is_weighted()).edge_bytes() as u64) as f64;
    let v = graph.num_vertices().max(1) as f64;
    let sweep_secs = edge_bytes / seq_read_bps;
    // Faster devices keep their proportionally cheaper seeks: the HDD maps
    // to the canonical crossover fraction, an SSD/NVMe to a larger one.
    let seek_ratio = base.seek_latency.as_secs_f64() / DiskModel::hdd().seek_latency.as_secs_f64();
    let seek_secs = (seek_ratio * sweep_secs / (CROSSOVER_FRACTION * v)).clamp(1e-9, 8e-3);
    let avg_vertex_bytes = (edge_bytes / v).max(1.0);
    let rand_read_bps = avg_vertex_bytes / (seek_secs + avg_vertex_bytes / seq_read_bps);
    DiskModel {
        seq_read_bps,
        seq_write_bps,
        seek_latency: Duration::from_secs_f64(seek_secs),
        rand_read_bps,
        rand_write_bps: rand_read_bps * 0.8,
        ..base
    }
}

/// The engine config of a GraphSD variant under `settings`.
fn graphsd_config_of(kind: SystemKind, budget: u64, settings: &RunSettings) -> GraphSdConfig {
    let ablation = match kind {
        SystemKind::GraphSdB1 => GraphSdConfig::b1_no_cross_iteration(),
        SystemKind::GraphSdB2 => GraphSdConfig::b2_no_selective(),
        SystemKind::GraphSdB3 => GraphSdConfig::b3_always_full(),
        SystemKind::GraphSdB4 => GraphSdConfig::b4_always_on_demand(),
        SystemKind::GraphSdNoBuffer => GraphSdConfig::without_buffering(),
        SystemKind::GraphSd | SystemKind::HusGraph | SystemKind::Lumos | SystemKind::GridStream => {
            GraphSdConfig::full()
        }
    };
    settings.graphsd_config(ablation).with_memory_budget(budget)
}

/// Runs `algo` on `dataset` under `kind`, building the system's on-disk
/// format on a fresh simulated HDD (the paper's two-HDD, no-page-cache
/// setup) with the 5 % memory budget, under `settings`.
pub fn run_system(
    kind: SystemKind,
    dataset: &Dataset,
    algo: Algo,
    settings: &RunSettings,
) -> std::io::Result<RunOutcome> {
    let graph = algo.input(dataset);
    run_system_on(kind, graph, algo, dataset.root(), settings)
}

/// Like [`run_system`], with an explicit interval count instead of the
/// paper's P = 20 (the `ext_psweep` design-choice ablation).
pub fn run_system_with_p(
    kind: SystemKind,
    dataset: &Dataset,
    algo: Algo,
    p: u32,
    settings: &RunSettings,
) -> std::io::Result<RunOutcome> {
    let graph = algo.input(dataset);
    let disk = scaled_disk_for(graph);
    run_with_disk_p(kind, graph, algo, dataset.root(), disk, p, settings)
}

/// Like [`run_system`], with an explicit base storage device.
pub fn run_system_on_device(
    kind: SystemKind,
    dataset: &Dataset,
    algo: Algo,
    base_disk: DiskModel,
    settings: &RunSettings,
) -> std::io::Result<RunOutcome> {
    let graph = algo.input(dataset);
    let disk = scaled_disk_from(base_disk, graph);
    run_with_disk_p(
        kind,
        graph,
        algo,
        dataset.root(),
        disk,
        paper_p(graph),
        settings,
    )
}

/// Like [`run_system`], on an explicit graph (used by the shape tests).
pub fn run_system_on(
    kind: SystemKind,
    graph: &Graph,
    algo: Algo,
    root: u32,
    settings: &RunSettings,
) -> std::io::Result<RunOutcome> {
    let disk = scaled_disk_for(graph);
    run_with_disk_p(kind, graph, algo, root, disk, paper_p(graph), settings)
}

fn run_with_disk_p(
    kind: SystemKind,
    graph: &Graph,
    algo: Algo,
    root: u32,
    disk: DiskModel,
    p: u32,
    settings: &RunSettings,
) -> std::io::Result<RunOutcome> {
    // With faults set, any experiment doubles as a fault-tolerance
    // exercise: preprocessing and the run both go through the injector.
    let storage = settings.storage(Arc::new(SimDisk::new(disk)));
    let edge_bytes = graph.num_edges() * EdgeCodec::new(graph.is_weighted()).edge_bytes() as u64;
    let budget = (edge_bytes / 20).max(1);

    // --- preprocessing (the system's own format) ---
    // All systems use degree-balanced intervals so power-law hubs do not
    // blow up single grid rows (every published system balances its
    // partitions one way or another).
    let gsd_pre = PreprocessConfig {
        degree_balanced: true,
        ..PreprocessConfig::graphsd("")
    }
    .with_intervals(p);
    let sim_before = storage.stats().sim_time();
    let (report, mut engine): (PreprocessReport, AnyEngine) = match kind {
        SystemKind::HusGraph => {
            let (mut format, report) = build_hus_format(graph, &storage, "", Some(p))?;
            format.row.set_verification(settings.verify);
            format.col.set_verification(settings.verify);
            (report, AnyEngine::Hus(HusGraphEngine::new(format)?))
        }
        SystemKind::Lumos => {
            let (mut grid, report) = build_lumos_format(graph, &storage, "", Some(p))?;
            grid.set_verification(settings.verify);
            (report, AnyEngine::Lumos(LumosEngine::new(grid)?))
        }
        SystemKind::GridStream => {
            let (_, report) = preprocess(graph, storage.as_ref(), &gsd_pre)?;
            let mut grid = GridGraph::open(storage.clone())?;
            grid.set_verification(settings.verify);
            (report, AnyEngine::Grid(GridStreamEngine::new(grid)?))
        }
        SystemKind::GraphSd
        | SystemKind::GraphSdB1
        | SystemKind::GraphSdB2
        | SystemKind::GraphSdB3
        | SystemKind::GraphSdB4
        | SystemKind::GraphSdNoBuffer => {
            let (_, report) = preprocess(graph, storage.as_ref(), &gsd_pre)?;
            let mut grid = GridGraph::open(storage.clone())?;
            grid.set_verification(settings.verify);
            let config = graphsd_config_of(kind, budget, settings);
            (report, AnyEngine::Gsd(GraphSdEngine::new(grid, config)?))
        }
    };
    engine.configure(settings);
    let sim_write_time = storage.stats().sim_time().saturating_sub(sim_before);
    let preprocess_outcome = PreprocessOutcome {
        report,
        sim_write_time,
    };

    // --- run ---
    let (stats, decisions) = engine.run_algo(algo, root)?;

    Ok(RunOutcome {
        system: kind.label(),
        stats,
        preprocess: preprocess_outcome,
        decisions,
    })
}

/// Type-erased engine wrapper.
pub(crate) enum AnyEngine {
    Gsd(GraphSdEngine),
    Hus(HusGraphEngine),
    Lumos(LumosEngine),
    Grid(GridStreamEngine),
}

impl AnyEngine {
    /// Hands the engine what of `settings` it takes after construction:
    /// the trace sink, and for the baselines the prefetch sizing and
    /// checkpoint cadence (a GraphSD engine got those in its config).
    fn configure(&mut self, settings: &RunSettings) {
        let sink = settings.sink.clone();
        match self {
            AnyEngine::Gsd(e) => e.set_trace(sink),
            AnyEngine::Hus(e) => {
                e.set_trace(sink);
                e.set_checkpoint(settings.checkpoint.clone());
            }
            AnyEngine::Lumos(e) => {
                e.set_trace(sink);
                e.set_prefetch(settings.prefetch);
                e.set_checkpoint(settings.checkpoint.clone());
            }
            AnyEngine::Grid(e) => e.set_trace(sink),
        }
    }

    fn run_program<P: VertexProgram>(
        &mut self,
        program: &P,
    ) -> std::io::Result<(RunStats, Vec<SchedulerDecision>)> {
        let options = RunOptions::default();
        match self {
            AnyEngine::Gsd(e) => {
                let r = e.run(program, &options)?;
                Ok((r.stats, e.last_decisions().to_vec()))
            }
            AnyEngine::Hus(e) => Ok((e.run(program, &options)?.stats, Vec::new())),
            AnyEngine::Lumos(e) => Ok((e.run(program, &options)?.stats, Vec::new())),
            AnyEngine::Grid(e) => Ok((e.run(program, &options)?.stats, Vec::new())),
        }
    }

    /// Runs one of the paper's four algorithms on the engine.
    pub(crate) fn run_algo(
        &mut self,
        algo: Algo,
        root: u32,
    ) -> std::io::Result<(RunStats, Vec<SchedulerDecision>)> {
        match algo {
            Algo::Pr => self.run_program(&PageRank::paper()),
            Algo::PrD => self.run_program(&PageRankDelta::paper()),
            Algo::Cc => self.run_program(&ConnectedComponents),
            Algo::Sssp => self.run_program(&Sssp::new(root)),
        }
    }
}

/// The paper's 5 % memory budget for a graph: one twentieth of its edge
/// bytes.
pub(crate) fn paper_budget(graph: &Graph) -> u64 {
    let edge_bytes = graph.num_edges() * EdgeCodec::new(graph.is_weighted()).edge_bytes() as u64;
    (edge_bytes / 20).max(1)
}

/// Preprocesses `kind`'s on-disk format for `graph` into `storage`
/// (under the empty prefix) without building an engine, so wall-time
/// benchmarks can pay the preprocessing cost once and reopen the format
/// per repeat with [`reopen_engine`].
pub(crate) fn prepare_format(
    kind: SystemKind,
    graph: &Graph,
    storage: &SharedStorage,
    p: u32,
) -> std::io::Result<PreprocessReport> {
    match kind {
        SystemKind::HusGraph => {
            let (_, report) = build_hus_format(graph, storage, "", Some(p))?;
            Ok(report)
        }
        SystemKind::Lumos => {
            let (_, report) = build_lumos_format(graph, storage, "", Some(p))?;
            Ok(report)
        }
        SystemKind::GraphSd
        | SystemKind::GraphSdB1
        | SystemKind::GraphSdB2
        | SystemKind::GraphSdB3
        | SystemKind::GraphSdB4
        | SystemKind::GraphSdNoBuffer
        | SystemKind::GridStream => {
            let config = PreprocessConfig {
                degree_balanced: true,
                ..PreprocessConfig::graphsd("")
            }
            .with_intervals(p);
            let (_, report) = preprocess(graph, storage.as_ref(), &config)?;
            Ok(report)
        }
    }
}

/// Opens `kind`'s engine over a format previously written by
/// [`prepare_format`] into `storage`, under `settings`.
pub(crate) fn reopen_engine(
    kind: SystemKind,
    storage: SharedStorage,
    budget: u64,
    settings: &RunSettings,
) -> std::io::Result<AnyEngine> {
    let mut engine = match kind {
        SystemKind::HusGraph => {
            let mut row = GridGraph::open_with_prefix(storage.clone(), "row/")?;
            let mut col = GridGraph::open_with_prefix(storage, "col/")?;
            row.set_verification(settings.verify);
            col.set_verification(settings.verify);
            AnyEngine::Hus(HusGraphEngine::new(HusFormat { row, col })?)
        }
        SystemKind::Lumos => {
            let mut grid = GridGraph::open(storage)?;
            grid.set_verification(settings.verify);
            AnyEngine::Lumos(LumosEngine::new(grid)?)
        }
        SystemKind::GridStream => {
            let mut grid = GridGraph::open(storage)?;
            grid.set_verification(settings.verify);
            AnyEngine::Grid(GridStreamEngine::new(grid)?)
        }
        SystemKind::GraphSd
        | SystemKind::GraphSdB1
        | SystemKind::GraphSdB2
        | SystemKind::GraphSdB3
        | SystemKind::GraphSdB4
        | SystemKind::GraphSdNoBuffer => {
            // GraphSD variants go through the same open-once session the
            // `run` CLI and the serve daemon use.
            let session =
                GridSession::open(storage, settings.verify, CorruptionResponse::FailFast)?;
            AnyEngine::Gsd(session.engine(graphsd_config_of(kind, budget, settings))?)
        }
    };
    engine.configure(settings);
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Datasets, Scale};

    #[test]
    fn run_system_produces_stats_for_all_main_systems() {
        let ds = Datasets::load(Scale::Tiny);
        let d = ds.get("twitter_sim").unwrap();
        for kind in SystemKind::main_three() {
            let outcome = run_system(kind, d, Algo::Pr, &RunSettings::default()).unwrap();
            assert_eq!(outcome.stats.iterations, 5, "{}", kind.label());
            assert!(outcome.stats.io.total_traffic() > 0);
            assert!(outcome.execution_time() > Duration::ZERO);
            assert!(outcome.preprocess.total_time() > Duration::ZERO);
        }
    }

    #[test]
    fn decisions_only_for_graphsd() {
        let ds = Datasets::load(Scale::Tiny);
        let d = ds.get("uk_sim").unwrap();
        let gsd = run_system(SystemKind::GraphSd, d, Algo::Sssp, &RunSettings::default()).unwrap();
        assert!(!gsd.decisions.is_empty());
        let hus = run_system(SystemKind::HusGraph, d, Algo::Sssp, &RunSettings::default()).unwrap();
        assert!(hus.decisions.is_empty());
    }

    #[test]
    fn algo_inputs_pick_the_right_variant() {
        let ds = Datasets::load(Scale::Tiny);
        let d = ds.get("sk_sim").unwrap();
        assert!(Algo::Sssp.input(d).is_weighted());
        assert!(!Algo::Pr.input(d).is_weighted());
        assert!(Algo::Cc.input(d).num_edges() >= d.edges);
    }

    #[test]
    fn paper_p_is_twenty_for_real_inputs() {
        let ds = Datasets::load(Scale::Tiny);
        assert_eq!(paper_p(ds.get("twitter_sim").unwrap().directed()), 20);
    }
}
