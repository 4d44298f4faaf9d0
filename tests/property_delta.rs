//! Property: streaming mutations are indistinguishable from
//! re-preprocessing. For arbitrary random base graphs and arbitrary
//! sequences of insert/delete batches — with or without interleaved
//! compaction — the mutated grid must be *semantically* identical to a
//! grid preprocessed from scratch over the final edge list (identical
//! analytic results, bit for bit), and after the final compaction it
//! must be *physically* identical too (every edge and index object
//! byte-for-byte equal, on the same pinned interval boundaries). On top
//! of that, warm-starting a converged min-combine program across each
//! batch ([`graphsd::delta::incremental_run`]) must reach exactly the
//! fixpoint a from-scratch run reaches. Every engine that reads through
//! the overlay does so under a generated prefetch setting; the
//! from-scratch references always read synchronously. One fixed
//! `ingest` + `compact` additionally pins replay exactness: the trace of
//! the two, folded by `gsd report`'s fold, equals their own reports.

use graphsd::algos::{Bfs, ConnectedComponents, Sssp};
use graphsd::bench::report::EpochRow;
use graphsd::bench::TraceReport;
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::delta::{compact, incremental_run, ingest, MutationBatch};
use graphsd::graph::{preprocess, Edge, Graph, GridGraph, PreprocessConfig};
use graphsd::io::{MemStorage, SharedStorage};
use graphsd::runtime::{value_fingerprint as fingerprint, Engine, RunOptions, VertexProgram};
use graphsd::trace::RingRecorder;
use proptest::prelude::*;
use std::sync::Arc;

/// One generated mutation op: `Ok` inserts, `Err` deletes every copy.
type Op = Result<(u32, u32, u32), (u32, u32)>;

/// A base graph, batches of ops with a "compact afterwards" switch each,
/// and the config the engines over the mutated grid run with.
type Scenario = (Graph, Vec<(Vec<Op>, bool)>, GraphSdConfig);

/// Arbitrary scenario: a base graph, 1–3 batches of ops over its vertex
/// space, a per-batch "compact afterwards" switch, and prefetch off or at
/// depth 2 for the runs through the overlay.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (4u32..60, 1usize..200).prop_flat_map(|(n, m)| {
        let base =
            proptest::collection::vec((0u32..n, 0u32..n, 1u32..=16), m).prop_map(move |edges| {
                let list: Vec<Edge> = edges
                    .into_iter()
                    .map(|(s, d, w)| Edge::weighted(s, d, w as f32 / 16.0))
                    .collect();
                Graph::from_edges(n, list, true)
            });
        let op = prop_oneof![
            (0u32..n, 0u32..n, 1u32..=16).prop_map(Ok),
            (0u32..n, 0u32..n).prop_map(Err),
        ];
        let batches =
            proptest::collection::vec((proptest::collection::vec(op, 1..20), any::<bool>()), 1..4);
        let config = any::<bool>().prop_map(|on| GraphSdConfig {
            prefetch: on.then(|| PipelineConfig::with_depth(2)),
            ..GraphSdConfig::full()
        });
        (base, batches, config)
    })
}

fn to_batch(ops: &[Op]) -> MutationBatch {
    let mut batch = MutationBatch::new();
    for op in ops {
        match *op {
            Ok((s, d, w)) => {
                batch.insert(s, d, w as f32 / 16.0);
            }
            Err((s, d)) => {
                batch.delete(s, d);
            }
        }
    }
    batch
}

/// The oracle: ingest semantics applied to a plain edge list (insert
/// appends one copy, delete removes every copy of the pair).
fn apply_ops(edges: &mut Vec<Edge>, ops: &[Op]) {
    for op in ops {
        match *op {
            Ok((s, d, w)) => edges.push(Edge::weighted(s, d, w as f32 / 16.0)),
            Err((s, d)) => edges.retain(|e| !(e.src == s && e.dst == d)),
        }
    }
}

fn fresh_grid(graph: &Graph, p: u32) -> (SharedStorage, GridGraph) {
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    let grid = GridGraph::open(storage.clone()).unwrap();
    (storage, grid)
}

fn values_under<P: VertexProgram>(
    grid: GridGraph,
    program: &P,
    config: &GraphSdConfig,
) -> Vec<P::Value> {
    let mut engine = GraphSdEngine::new(grid, config.clone()).unwrap();
    engine.run(program, &RunOptions::default()).unwrap().values
}

fn scratch_values<P: VertexProgram>(grid: GridGraph, program: &P) -> Vec<P::Value> {
    values_under(grid, program, &GraphSdConfig::full())
}

/// Every non-delta object of the mutated, fully-compacted grid must be
/// byte-identical to the same key in a from-scratch preprocess of the
/// final edge list over the same boundaries. (`meta.json` is excluded —
/// it legitimately differs by the delta epoch — `delta/` must be empty,
/// and `runtime/` is engine scratch from the analytic runs above, not
/// part of the grid format.)
fn assert_payloads_match(mutated: &SharedStorage, final_graph: &Graph, boundaries: Vec<u32>) {
    let delta: Vec<String> = mutated
        .list_keys()
        .into_iter()
        .filter(|k| k.starts_with("delta/"))
        .collect();
    assert!(delta.is_empty(), "compaction left {delta:?}");
    let reference: SharedStorage = Arc::new(MemStorage::new());
    let config = PreprocessConfig {
        boundaries: Some(boundaries),
        ..PreprocessConfig::graphsd("")
    };
    preprocess(final_graph, reference.as_ref(), &config).unwrap();
    let payload_keys = |s: &SharedStorage| -> Vec<String> {
        let mut keys: Vec<String> = s
            .list_keys()
            .into_iter()
            .filter(|k| k != "meta.json" && !k.starts_with("delta/") && !k.starts_with("runtime/"))
            .collect();
        keys.sort();
        keys
    };
    let keys = payload_keys(mutated);
    assert_eq!(keys, payload_keys(&reference), "object inventory");
    for key in keys {
        assert_eq!(
            mutated.read_all(&key).unwrap(),
            reference.read_all(&key).unwrap(),
            "payload bytes of {key:?}"
        );
    }
}

/// The tentpole equivalence: arbitrary batch sequences, optionally
/// compacted mid-stream, end bit-identical to re-preprocessing — in
/// analytics (BFS/CC/SSSP value fingerprints through the overlay)
/// and on disk (after the final compaction).
fn check_stream((base, batches, config): Scenario) -> Result<(), TestCaseError> {
    let n = base.num_vertices();
    let p = 3u32.min(n);
    let (storage, grid) = fresh_grid(&base, p);
    let boundaries = grid.meta().boundaries.clone();
    drop(grid);

    let mut mirror = base.edges().to_vec();
    for (ops, compact_after) in &batches {
        ingest(
            storage.as_ref(),
            "",
            &to_batch(ops),
            graphsd::trace::null_sink().as_ref(),
        )
        .unwrap();
        apply_ops(&mut mirror, ops);
        if *compact_after {
            compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
        }
    }
    let final_graph = Graph::from_edges(n, mirror, true);

    // Analytic equivalence through the overlay (whatever mix of
    // segments and compacted base the switches left behind).
    let scratch = fresh_grid(&final_graph, p).1;
    let merged = GridGraph::open(storage.clone()).unwrap();
    prop_assert_eq!(merged.num_edges(), final_graph.num_edges());
    prop_assert_eq!(
        fingerprint(&values_under(
            GridGraph::open(storage.clone()).unwrap(),
            &Bfs::new(0),
            &config
        )),
        fingerprint(&scratch_values(fresh_grid(&final_graph, p).1, &Bfs::new(0)))
    );
    prop_assert_eq!(
        fingerprint(&values_under(merged, &ConnectedComponents, &config)),
        fingerprint(&scratch_values(scratch, &ConnectedComponents))
    );

    // Physical equivalence once every segment is folded.
    compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
    assert_payloads_match(&storage, &final_graph, boundaries);
    Ok(())
}

/// Warm-started recompute reaches the from-scratch fixpoint for
/// every min-combine program, across every batch of the stream.
fn check_incremental((base, batches, config): Scenario) -> Result<(), TestCaseError> {
    let n = base.num_vertices();
    let p = 3u32.min(n);
    let (storage, grid) = fresh_grid(&base, p);
    let source = n / 2;
    let bfs = Bfs::new(source);
    let sssp = Sssp::new(source);
    let mut warm_bfs = scratch_values(grid, &bfs);
    let mut warm_sssp = scratch_values(GridGraph::open(storage.clone()).unwrap(), &sssp);

    let mut mirror = base.edges().to_vec();
    for (ops, compact_after) in &batches {
        let batch = to_batch(ops);
        ingest(
            storage.as_ref(),
            "",
            &batch,
            graphsd::trace::null_sink().as_ref(),
        )
        .unwrap();
        apply_ops(&mut mirror, ops);

        let (bfs_run, bfs_report) = incremental_run(
            GridGraph::open(storage.clone()).unwrap(),
            &bfs,
            warm_bfs,
            &batch,
            config.clone(),
            graphsd::trace::null_sink(),
        )
        .unwrap();
        prop_assert!(!bfs_report.full_fallback, "BFS is incremental-safe");
        let (sssp_run, _) = incremental_run(
            GridGraph::open(storage.clone()).unwrap(),
            &sssp,
            warm_sssp,
            &batch,
            config.clone(),
            graphsd::trace::null_sink(),
        )
        .unwrap();

        let final_graph = Graph::from_edges(n, mirror.clone(), true);
        let scratch_bfs = scratch_values(fresh_grid(&final_graph, p).1, &bfs);
        let scratch_sssp = scratch_values(fresh_grid(&final_graph, p).1, &sssp);
        prop_assert_eq!(fingerprint(&bfs_run.values), fingerprint(&scratch_bfs));
        prop_assert_eq!(fingerprint(&sssp_run.values), fingerprint(&scratch_sssp));

        if *compact_after {
            compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
        }
        warm_bfs = bfs_run.values;
        warm_sssp = sssp_run.values;
    }
    Ok(())
}

/// The patch-at-read path: a row-index span read through the overlay
/// (base span from storage, merged sub-blocks' columns overwritten)
/// equals the same span of a grid preprocessed from scratch over the
/// merged edge list. Batches compact as their switch says, except the
/// last, so the grid read here always has live segments.
fn check_row_index_spans(
    (base, batches, _): Scenario,
    (lo_pick, hi_pick): (u32, u32),
) -> Result<(), TestCaseError> {
    let n = base.num_vertices();
    let p = 3u32.min(n);
    let (storage, grid) = fresh_grid(&base, p);
    let boundaries = grid.meta().boundaries.clone();
    drop(grid);

    let mut mirror = base.edges().to_vec();
    for (k, (ops, compact_after)) in batches.iter().enumerate() {
        ingest(
            storage.as_ref(),
            "",
            &to_batch(ops),
            graphsd::trace::null_sink().as_ref(),
        )
        .unwrap();
        apply_ops(&mut mirror, ops);
        if *compact_after && k + 1 < batches.len() {
            compact(&storage, "", graphsd::trace::null_sink().as_ref()).unwrap();
        }
    }
    let reference: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        &Graph::from_edges(n, mirror, true),
        reference.as_ref(),
        &PreprocessConfig::graphsd("").with_boundaries(boundaries),
    )
    .unwrap();

    let merged = GridGraph::open(storage).unwrap();
    let scratch = GridGraph::open(reference).unwrap();
    for i in 0..p {
        let range = merged.intervals().range(i);
        if range.is_empty() {
            continue;
        }
        let lo = range.start + lo_pick % (range.end - range.start);
        let hi = lo + hi_pick % (range.end - lo);
        prop_assert_eq!(
            merged.read_row_index_span(i, lo, hi).unwrap(),
            scratch.read_row_index_span(i, lo, hi).unwrap(),
            "row {} span {}..={}",
            i,
            lo,
            hi
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn row_index_spans_through_the_overlay_equal_repreprocessing(
        scenario in arb_scenario(),
        picks in (any::<u32>(), any::<u32>()),
    ) {
        check_row_index_spans(scenario, picks)?;
    }

    #[test]
    fn mutation_stream_equals_repreprocessing(scenario in arb_scenario()) {
        check_stream(scenario)?;
    }

    #[test]
    fn incremental_recompute_reaches_scratch_fixpoint(scenario in arb_scenario()) {
        check_incremental(scenario)?;
    }
}

/// The mutation analogue of `RunSection::matches_run_stats`: what an
/// `ingest --trace` / `compact --trace` file replays to is what the two
/// commands reported, with nothing left unattributed.
#[test]
fn an_ingest_and_a_compaction_replay_as_their_own_reports() {
    let edges = (0..40u32).map(|v| Edge::weighted(v, (v * 7 + 1) % 40, 1.0));
    let base = Graph::from_edges(40, edges.collect(), true);
    let (storage, grid) = fresh_grid(&base, 3);
    drop(grid);
    let ops: Vec<Op> = vec![
        Ok((0, 39, 16)),
        Ok((17, 2, 8)),
        Err((1, 8)),
        Ok((30, 31, 4)),
    ];
    let recorder = RingRecorder::new(64);
    let ingested = ingest(storage.as_ref(), "", &to_batch(&ops), &recorder).unwrap();
    let compacted = compact(&storage, "", &recorder).unwrap().unwrap();

    let mut jsonl = Vec::new();
    for e in recorder.events() {
        jsonl.extend_from_slice(serde_json::to_string(&e).unwrap().as_bytes());
        jsonl.push(b'\n');
    }
    let report = TraceReport::from_reader(jsonl.as_slice()).unwrap();
    assert_eq!(
        (
            report.parse_errors,
            report.unattributed,
            report.total_events
        ),
        (0, 0, 3),
        "delta_applied, compaction_started, compaction_finished"
    );
    assert_eq!(
        report.mutations.epochs,
        [EpochRow {
            epoch: ingested.epoch,
            inserts: ingested.inserts,
            deletes: ingested.deletes,
            segments: ingested.segments,
            bytes: ingested.segment_bytes,
        }]
    );
    assert_eq!((ingested.inserts, ingested.deletes), (3, 1));
    let m = &report.mutations;
    assert_eq!(
        (m.compactions, m.segments_folded, m.blocks_rewritten),
        (
            1,
            (compacted.segments_folded, ingested.segment_bytes),
            (compacted.objects_rewritten, compacted.bytes_rewritten)
        )
    );
}
