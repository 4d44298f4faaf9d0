//! Cross-layer trace invariants: the events an engine emits must agree
//! with the statistics it reports, and tracing must never perturb the
//! traced run.

use gsd_algos::{Bfs, PageRank};
use gsd_core::{GraphSdConfig, GraphSdEngine, SubBlockBuffer};
use gsd_graph::{preprocess, Edge, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use gsd_io::{DiskModel, SharedStorage, SimDisk};
use gsd_runtime::{Engine, RunOptions, RunResult};
use gsd_trace::{RingRecorder, TraceEvent};
use std::sync::Arc;

fn engine(graph: &Graph, p: u32, config: GraphSdConfig) -> GraphSdEngine {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    GraphSdEngine::new(GridGraph::open(storage).unwrap(), config).unwrap()
}

fn web_graph() -> Graph {
    GeneratorConfig::new(GraphKind::WebLocality, 2000, 20_000, 5).generate()
}

#[test]
fn one_scheduler_decision_event_per_invocation() {
    let g = web_graph();
    let mut e = engine(&g, 4, GraphSdConfig::full());
    let ring = Arc::new(RingRecorder::new(1 << 17));
    e.set_trace(ring.clone());
    e.run(&Bfs::new(0), &RunOptions::default()).unwrap();
    // The unforced engine consults the scheduler at least once, and every
    // consultation produces exactly one event and one recorded decision.
    assert!(!e.last_decisions().is_empty());
    assert_eq!(
        ring.count_kind("scheduler_decision"),
        e.last_decisions().len()
    );
    assert_eq!(ring.dropped(), 0, "ring must be large enough for the run");
}

#[test]
fn phase_timers_sum_within_compute_time() {
    let g = web_graph();
    let mut e = engine(&g, 4, GraphSdConfig::full());
    let result = e.run(&PageRank::paper(), &RunOptions::default()).unwrap();
    assert!(!result.stats.per_iteration.is_empty());
    for it in &result.stats.per_iteration {
        // scatter/apply spans are nested inside the compute span, so their
        // sum can never exceed it.
        assert!(
            it.scatter_time + it.apply_time <= it.compute_time,
            "iteration {}: scatter {:?} + apply {:?} > compute {:?}",
            it.iteration,
            it.scatter_time,
            it.apply_time,
            it.compute_time
        );
    }
}

#[test]
fn buffer_hit_events_match_run_counters() {
    // Force the full model so FCIU runs and the sub-block buffer serves
    // the second pass's secondary blocks.
    let g = GeneratorConfig::new(GraphKind::RMat, 1000, 12_000, 9).generate();
    // A budget comfortably above one sub-block, so offers are accepted
    // (the default 5 % of this tiny graph is below block granularity).
    let config = GraphSdConfig::b3_always_full().with_memory_budget(1 << 20);
    let mut e = engine(&g, 4, config);
    let ring = Arc::new(RingRecorder::new(1 << 17));
    e.set_trace(ring.clone());
    let result = e
        .run(&PageRank::with_iterations(4), &RunOptions::default())
        .unwrap();
    assert!(
        result.stats.buffer_hits > 0,
        "FCIU run should hit the buffer"
    );
    assert_eq!(
        ring.count_kind("buffer_hit") as u64,
        result.stats.buffer_hits
    );
    assert_eq!(ring.dropped(), 0);
}

#[test]
fn buffer_eviction_events_match_counter() {
    let ring = Arc::new(RingRecorder::new(64));
    let mut b = SubBlockBuffer::new(300);
    b.set_trace(ring.clone());
    let block = |n: usize| Arc::new(vec![Edge::new(0, 1); n]);
    assert!(b.offer(1, 0, block(1), 100, 1));
    assert!(b.offer(2, 0, block(1), 100, 2));
    assert!(b.offer(3, 0, block(1), 100, 3));
    // 250 bytes fit only after all three residents are evicted.
    assert!(b.offer(4, 0, block(1), 250, 10));
    assert_eq!(b.evictions, 3);
    assert_eq!(ring.count_kind("buffer_eviction") as u64, b.evictions);
    b.get(4, 0).unwrap();
    assert_eq!(ring.count_kind("buffer_hit") as u64, b.hits);
    // Event payloads carry the victims' coordinates and sizes.
    let evicted: Vec<(u32, u32, u64)> = ring
        .events()
        .iter()
        .filter_map(|ev| {
            let TraceEvent::BufferEviction { i, j, bytes } = ev else {
                return None;
            };
            Some((*i, *j, *bytes))
        })
        .collect();
    assert_eq!(evicted, vec![(1, 0, 100), (2, 0, 100), (3, 0, 100)]);
}

/// The deterministic portion of a run's outcome (everything except
/// wall-clock durations, which vary between any two runs).
fn deterministic_fingerprint(r: &RunResult<f32>) -> impl PartialEq + std::fmt::Debug {
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

#[test]
fn tracing_does_not_perturb_the_run() {
    let g = web_graph();
    // Untraced (default NullSink), explicit NullSink, and a live recorder
    // must all produce identical deterministic outcomes.
    let mut untraced = engine(&g, 4, GraphSdConfig::full());
    let base = untraced
        .run(&PageRank::paper(), &RunOptions::default())
        .unwrap();

    let mut nulled = engine(&g, 4, GraphSdConfig::full());
    nulled.set_trace(gsd_trace::null_sink());
    let with_null = nulled
        .run(&PageRank::paper(), &RunOptions::default())
        .unwrap();

    let mut recorded = engine(&g, 4, GraphSdConfig::full());
    let ring = Arc::new(RingRecorder::new(1 << 17));
    recorded.set_trace(ring.clone());
    let with_ring = recorded
        .run(&PageRank::paper(), &RunOptions::default())
        .unwrap();

    assert_eq!(
        deterministic_fingerprint(&base),
        deterministic_fingerprint(&with_null)
    );
    assert_eq!(
        deterministic_fingerprint(&base),
        deterministic_fingerprint(&with_ring)
    );
    // And the recorder actually saw the run.
    assert_eq!(
        ring.count_kind("iteration_end") as u32,
        with_ring.stats.iterations
    );
    assert_eq!(ring.count_kind("run_start"), 1);
    assert_eq!(ring.count_kind("run_end"), 1);
}
