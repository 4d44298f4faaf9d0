//! The observability pipeline's neutrality and exactness contracts,
//! end to end across all four engines:
//!
//! 1. **Neutrality** — attaching the live fold ([`LiveReport`], or any
//!    trace sink) must leave committed values and accounted I/O
//!    bit-identical to a run with the default disabled sink, with the
//!    prefetch pipeline on or off.
//! 2. **Replay exactness** — `gsd report` replaying a JSONL trace of a
//!    run must reproduce the run's `RunStats` counters exactly
//!    ([`RunSection::matches_run_stats`]).
//! 3. **Live == replayed** — the [`RunSection`] the fold accumulated
//!    while the run emitted equals, field for field, the one it replays
//!    from that run's JSONL.

use graphsd::algos::{ConnectedComponents, PageRank, PageRankDelta, Sssp};
use graphsd::baselines::{
    build_hus_format, build_lumos_format, GridStreamEngine, HusGraphEngine, LumosEngine,
};
use graphsd::bench::report::RunSection;
use graphsd::bench::LiveReport;
use graphsd::bench::TraceReport;
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk, TempDir};
use graphsd::runtime::{Engine, RunOptions, RunResult, RunStats, VertexProgram};
use graphsd::trace::{FanoutSink, JsonlWriter, TraceSink};
use std::sync::Arc;

fn graph() -> Graph {
    GeneratorConfig::new(GraphKind::RMat, 1000, 9000, 77).generate()
}

/// Everything a run produces except wall-clock durations: committed
/// values, iteration structure, and the full I/O accounting.
fn fingerprint<V: Clone + PartialEq + std::fmt::Debug>(
    r: &RunResult<V>,
) -> impl PartialEq + std::fmt::Debug {
    (
        r.values.clone(),
        r.stats.iterations,
        r.stats.io,
        r.stats.buffer_hits,
        r.stats.buffer_hit_bytes,
        r.stats.cross_iter_edges,
        r.stats
            .per_iteration
            .iter()
            .map(|it| (it.iteration, it.model, it.frontier, it.io))
            .collect::<Vec<_>>(),
    )
}

/// Builds each of the four engines over a fresh simulated disk and runs
/// `program`, routing events to `sink` when given.
fn run_engine<P: VertexProgram>(
    which: &str,
    g: &Graph,
    prefetch: bool,
    sink: Option<Arc<dyn TraceSink>>,
    program: &P,
) -> RunResult<P::Value> {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    let opts = RunOptions::default();
    let pipeline = prefetch.then(|| PipelineConfig::with_depth(2));
    match which {
        "graphsd" => {
            preprocess(
                g,
                storage.as_ref(),
                &PreprocessConfig::graphsd("").with_intervals(4),
            )
            .unwrap();
            let config = match &pipeline {
                Some(p) => GraphSdConfig::full().with_prefetch(*p),
                None => GraphSdConfig::full().without_prefetch(),
            };
            let mut e = GraphSdEngine::new(GridGraph::open(storage).unwrap(), config).unwrap();
            if let Some(s) = sink {
                e.set_trace(s);
            }
            e.run(program, &opts).unwrap()
        }
        "hus" => {
            let (format, _) = build_hus_format(g, &storage, "", Some(4)).unwrap();
            let mut e = HusGraphEngine::new(format).unwrap();
            if let Some(s) = sink {
                e.set_trace(s);
            }
            e.run(program, &opts).unwrap()
        }
        "lumos" => {
            let (grid, _) = build_lumos_format(g, &storage, "", Some(4)).unwrap();
            let mut e = LumosEngine::new(grid).unwrap();
            e.set_prefetch(pipeline);
            if let Some(s) = sink {
                e.set_trace(s);
            }
            e.run(program, &opts).unwrap()
        }
        "gridstream" => {
            preprocess(
                g,
                storage.as_ref(),
                &PreprocessConfig::graphsd("").with_intervals(4),
            )
            .unwrap();
            let mut e = GridStreamEngine::new(GridGraph::open(storage).unwrap()).unwrap();
            if let Some(s) = sink {
                e.set_trace(s);
            }
            e.run(program, &opts).unwrap()
        }
        other => panic!("unknown engine {other}"),
    }
}

const ENGINES: [&str; 4] = ["graphsd", "hus", "lumos", "gridstream"];

#[test]
fn metrics_sink_is_neutral_across_engines_and_prefetch_modes() {
    let g = graph();
    for which in ENGINES {
        for prefetch in [false, true] {
            let bare = run_engine(which, &g, prefetch, None, &PageRank::paper());
            let sink = Arc::new(LiveReport::default());
            let observed = run_engine(
                which,
                &g,
                prefetch,
                Some(sink.clone() as Arc<dyn TraceSink>),
                &PageRank::paper(),
            );
            assert_eq!(
                fingerprint(&bare),
                fingerprint(&observed),
                "{which} prefetch={prefetch}: the live fold must not perturb the run"
            );
            assert!(
                sink.lock().total_events > 0,
                "{which}: the sink must actually have folded events"
            );
        }
    }
}

/// `live` with its two float fields as the JSONL prints them — the one
/// place a live section may legitimately differ from a replayed one.
fn as_printed(mut live: RunSection) -> RunSection {
    let printed =
        |f: f64| serde_json::from_str::<f64>(&serde_json::to_string(&f).unwrap()).unwrap();
    for d in &mut live.decisions {
        d.cost_full = printed(d.cost_full);
        d.cost_on_demand = printed(d.cost_on_demand);
    }
    live
}

/// Traces a run to a JSONL file while folding it live, and replays the
/// file; the replayed counters must equal the run's `RunStats` exactly,
/// and the live fold must equal the replayed one.
fn trace_and_replay<P: VertexProgram>(
    which: &str,
    g: &Graph,
    prefetch: bool,
    program: &P,
) -> (RunStats, TraceReport)
where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let dir = TempDir::new("gsd-metrics-e2e").unwrap();
    let path = dir.path().join("trace.jsonl");
    let live = Arc::new(LiveReport::default());
    let sink: Arc<dyn TraceSink> = Arc::new(FanoutSink::new(vec![
        Arc::new(JsonlWriter::create(&path).unwrap()),
        live.clone(),
    ]));
    let result = run_engine(which, g, prefetch, Some(sink.clone()), program);
    sink.flush();
    let report = TraceReport::from_path(&path).unwrap();
    let mut live = live.lock().clone();
    live.runs = live.runs.into_iter().map(as_printed).collect();
    assert_eq!(
        live, report,
        "{which} prefetch={prefetch}: live fold != replayed fold"
    );
    (result.stats, report)
}

#[test]
fn report_replay_reproduces_run_stats_for_all_engines() {
    let g = graph();
    for which in ENGINES {
        for prefetch in [false, true] {
            let (stats, report) = trace_and_replay(which, &g, prefetch, &PageRank::paper());
            assert_eq!(report.parse_errors, 0, "{which}");
            assert_eq!(report.runs.len(), 1, "{which}");
            report.runs[0]
                .matches_run_stats(&stats)
                .unwrap_or_else(|e| panic!("{which} prefetch={prefetch}: replay mismatch: {e}"));
        }
    }
}

#[test]
fn report_replay_handles_convergence_and_sciu_workloads() {
    // PageRank-Delta shrinks the frontier (SCIU passes appear in the
    // trace); CC and SSSP run to convergence. All three must replay
    // exactly on the full GraphSD engine.
    let g = graph();
    let (stats, report) = trace_and_replay("graphsd", &g, true, &PageRankDelta::paper());
    report.runs[0].matches_run_stats(&stats).unwrap();

    let sym = g.symmetrized();
    let (stats, report) = trace_and_replay("graphsd", &sym, false, &ConnectedComponents);
    report.runs[0].matches_run_stats(&stats).unwrap();

    let weighted = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 13)
        .weighted()
        .generate();
    let (stats, report) = trace_and_replay("graphsd", &weighted, true, &Sssp::new(0));
    report.runs[0].matches_run_stats(&stats).unwrap();
}
