//! The fault-tolerance contract of `gsd_core::checkpoint` and of the
//! delta write paths, end to end:
//!
//! * **Result neutrality** — running with checkpointing enabled changes
//!   no observable of an uninterrupted run: values, iteration structure
//!   and I/O accounting are bit-identical (checkpoint traffic is
//!   excluded from `stats.io`).
//! * **Crash/resume equivalence** — a run killed at an iteration
//!   boundary (via `RecoveryConfig::halt_after`, which aborts at the
//!   exact checkpoint commit point) and resumed by a fresh engine over
//!   the same storage finishes with the *full* fingerprint of an
//!   uninterrupted run — per-iteration I/O included — across engines,
//!   algorithms, graph shapes, kill points and prefetch on/off.
//! * **Hard kills** — a mid-run kill (`FaultyStorage`'s `kill_at_op`)
//!   recovers through checkpoints with identical values, and a kill at
//!   *every* data op of an `ingest` or a `compact` leaves either the
//!   graph a reader may see or a structured error, never a different
//!   graph.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use graphsd::baselines::{
    build_hus_format, build_lumos_format, HusFormat, HusGraphEngine, LumosEngine,
};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig, RecoveryConfig};
use graphsd::delta::{compact, ingest, MutationBatch};
use graphsd::graph::{
    preprocess, scrub_grid, GeneratorConfig, Graph, GraphKind, GridGraph, GridMeta,
    PreprocessConfig, VerifyPolicy, META_KEY,
};
use graphsd::io::{DiskModel, FileStorage, MemStorage, SharedStorage, SimDisk, TempDir};
use graphsd::recover::{
    graph_fingerprint, CheckpointData, CheckpointStore, FaultyStorage, ManifestTag,
};
use graphsd::runtime::{Engine, RunOptions, RunResult, VertexProgram};
use graphsd::trace::{RingRecorder, TraceEvent};
use std::io::ErrorKind;
use std::sync::Arc;

/// Everything a run produces except wall-clock durations: committed
/// values, iteration count, run-level and per-iteration I/O accounting,
/// buffer and cross-iteration counters (mirrors the prefetch
/// equivalence suite), plus the verify-on-read counters.
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
        (r.stats.verify_bytes, r.stats.corrupt_blocks),
        r.stats
            .per_iteration
            .iter()
            .map(|it| (it.iteration, it.model, it.frontier, it.io))
            .collect::<Vec<_>>(),
    )
}

/// Fresh simulated disk with the graph preprocessed into the GraphSD
/// grid format.
fn sim_grid(graph: &Graph, p: u32) -> SharedStorage {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    storage
}

/// Opens the grid under `prefix` with verify-on-read set to `verify`.
fn open_grid(storage: &SharedStorage, prefix: &str, verify: VerifyPolicy) -> GridGraph {
    let mut grid = GridGraph::open_with_prefix(storage.clone(), prefix).unwrap();
    grid.set_verification(verify);
    grid
}

fn graphsd_on(storage: &SharedStorage, config: GraphSdConfig) -> GraphSdEngine {
    graphsd_verified(storage, config, VerifyPolicy::Off)
}

fn graphsd_verified(
    storage: &SharedStorage,
    config: GraphSdConfig,
    verify: VerifyPolicy,
) -> GraphSdEngine {
    GraphSdEngine::new(open_grid(storage, "", verify), config).unwrap()
}

/// Kills a run at every reachable checkpoint boundary `>= k` for
/// k ∈ {1, mid, last}, resumes each on the same storage, and asserts the
/// resumed run's full fingerprint equals `want`.
fn assert_crash_resume_matches<P: VertexProgram>(
    graph: &Graph,
    p: u32,
    config: &GraphSdConfig,
    verify: VerifyPolicy,
    program: &P,
    want: &RunResult<P::Value>,
) where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let opts = RunOptions::default();
    let total = want.stats.iterations;
    for k in [1, (total / 2).max(1), total] {
        let storage = sim_grid(graph, p);
        let crash_cfg = config
            .clone()
            .with_checkpoint(RecoveryConfig::every(1).with_halt_after(k));
        let err = graphsd_verified(&storage, crash_cfg, verify)
            .run(program, &opts)
            .expect_err("halt_after must abort the run");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::Interrupted,
            "simulated crash is reported as Interrupted"
        );

        let resume_cfg = config.clone().with_checkpoint(RecoveryConfig::every(1));
        let resumed = graphsd_verified(&storage, resume_cfg, verify)
            .run(program, &opts)
            .unwrap();
        assert_eq!(
            fingerprint(want),
            fingerprint(&resumed),
            "resume after crash at iteration >= {k} (of {total}) must be bit-identical"
        );
    }
}

#[test]
fn checkpointing_is_result_neutral_for_graphsd() {
    let g = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 21).generate();
    let opts = RunOptions::default();
    let base = graphsd_on(&sim_grid(&g, 4), GraphSdConfig::full().without_checkpoint())
        .run(&PageRank::paper(), &opts)
        .unwrap();
    for every in [1, 2] {
        let ckpt = graphsd_on(
            &sim_grid(&g, 4),
            GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(every)),
        )
        .run(&PageRank::paper(), &opts)
        .unwrap();
        assert_eq!(
            fingerprint(&base),
            fingerprint(&ckpt),
            "checkpointing every {every} must not change the run"
        );
    }
}

#[test]
fn crash_resume_pagerank_rmat() {
    // FCIU-heavy: full frontiers, two committed iterations per round.
    let g = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 23).generate();
    let cfg = GraphSdConfig::full();
    // Verified too: PageRank reads whole sub-blocks, which `Full` checks on
    // every read. (Ranged SCIU reads verify an object once per process,
    // so a resumed run legitimately re-verifies what the killed one had.)
    for verify in [VerifyPolicy::Off, VerifyPolicy::Full] {
        let want = graphsd_verified(
            &sim_grid(&g, 4),
            cfg.clone().with_checkpoint(RecoveryConfig::every(1)),
            verify,
        )
        .run(&PageRank::paper(), &RunOptions::default())
        .unwrap();
        assert_eq!(want.stats.verify_bytes > 0, verify == VerifyPolicy::Full);
        assert_crash_resume_matches(&g, 4, &cfg, verify, &PageRank::paper(), &want);
    }
}

#[test]
fn crash_resume_bfs_web_locality() {
    // SCIU-heavy: tiny frontiers on a locality-rich graph.
    let g = GeneratorConfig::new(GraphKind::WebLocality, 1000, 8000, 5).generate();
    let cfg = GraphSdConfig::full();
    let want = graphsd_on(
        &sim_grid(&g, 4),
        cfg.clone().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&Bfs::new(0), &RunOptions::default())
    .unwrap();
    assert!(want.stats.iterations > 2, "graph must need several levels");
    assert_crash_resume_matches(&g, 4, &cfg, VerifyPolicy::Off, &Bfs::new(0), &want);
}

#[test]
fn crash_resume_cc_symmetrized() {
    let g = GeneratorConfig::new(GraphKind::RMat, 500, 3000, 27)
        .generate()
        .symmetrized();
    let cfg = GraphSdConfig::full();
    let want = graphsd_on(
        &sim_grid(&g, 3),
        cfg.clone().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&ConnectedComponents, &RunOptions::default())
    .unwrap();
    assert_crash_resume_matches(&g, 3, &cfg, VerifyPolicy::Off, &ConnectedComponents, &want);
}

#[test]
fn crash_resume_sssp_weighted() {
    let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 400, 3200, 29)
        .weighted()
        .generate();
    let cfg = GraphSdConfig::full();
    let want = graphsd_on(
        &sim_grid(&g, 3),
        cfg.clone().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&Sssp::new(0), &RunOptions::default())
    .unwrap();
    assert_crash_resume_matches(&g, 3, &cfg, VerifyPolicy::Off, &Sssp::new(0), &want);
}

#[test]
fn crash_resume_with_prefetch_enabled() {
    // The pipeline and the recovery layer compose: a prefetching run
    // killed at a boundary resumes bit-identically, and matches the
    // synchronous runs too (prefetch is itself result-neutral).
    let g = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 23).generate();
    let cfg = GraphSdConfig::full().with_prefetch(PipelineConfig::with_depth(2));
    let want = graphsd_on(
        &sim_grid(&g, 4),
        cfg.clone().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&PageRank::paper(), &RunOptions::default())
    .unwrap();
    assert_crash_resume_matches(&g, 4, &cfg, VerifyPolicy::Off, &PageRank::paper(), &want);

    let sync = graphsd_on(
        &sim_grid(&g, 4),
        GraphSdConfig::full()
            .without_prefetch()
            .with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&PageRank::paper(), &RunOptions::default())
    .unwrap();
    assert_eq!(sync.values, want.values);
    assert_eq!(sync.stats.iterations, want.stats.iterations);
}

#[test]
fn cold_start_with_resume_enabled_finds_nothing_and_runs_clean() {
    // k = 0 case: no checkpoint exists yet, resume is a no-op.
    let g = GeneratorConfig::new(GraphKind::RMat, 600, 4200, 31).generate();
    let opts = RunOptions::default();
    let base = graphsd_on(&sim_grid(&g, 3), GraphSdConfig::full().without_checkpoint())
        .run(&PageRank::paper(), &opts)
        .unwrap();
    let cold = graphsd_on(
        &sim_grid(&g, 3),
        GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&PageRank::paper(), &opts)
    .unwrap();
    assert_eq!(fingerprint(&base), fingerprint(&cold));
}

#[test]
fn cadence_and_retention_shape_the_checkpoint_set() {
    let g = GeneratorConfig::new(GraphKind::RMat, 600, 4200, 33).generate();
    let opts = RunOptions::default();
    // Runs PageRank checkpointing every `every` iterations; returns the
    // checkpoints committed and the keys left under the prefix.
    let run = |every: u32| {
        let storage = sim_grid(&g, 3);
        let recorder = Arc::new(RingRecorder::new(4096));
        let mut engine = graphsd_on(
            &storage,
            GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(every)),
        );
        engine.set_trace(recorder.clone());
        engine.run(&PageRank::paper(), &opts).unwrap();
        let written = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CkptWritten { .. }))
            .count();
        let kept: Vec<String> = storage
            .list_keys()
            .into_iter()
            .filter(|k| k.starts_with("ckpt/"))
            .collect();
        (written, kept)
    };

    let ((dense_n, dense_kept), (sparse_n, sparse_kept)) = (run(1), run(4));
    assert!(dense_n > 2);
    assert!(
        sparse_n < dense_n,
        "every=4 must commit fewer checkpoints than every=1 ({sparse_n} vs {dense_n})"
    );

    // Retention: only the newest two snapshots survive GC, and a
    // checkpoint is nothing but its snapshot.
    for kept in [dense_kept, sparse_kept] {
        assert!((1..=2).contains(&kept.len()), "{kept:?}");
        assert!(
            kept.iter()
                .all(|k| k.starts_with("ckpt/snap_") && k.ends_with(".bin")),
            "{kept:?}"
        );
    }
}

#[test]
fn a_crc_valid_snapshot_that_does_not_fit_the_graph_is_not_restored() {
    let g = GeneratorConfig::new(GraphKind::RMat, 600, 4200, 45).generate();
    let opts = RunOptions::default();
    let program = PageRank::paper();
    let config = GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(1));
    let want = graphsd_on(&sim_grid(&g, 3), config.clone())
        .run(&program, &opts)
        .unwrap();
    // A disk holding the valid checkpoint of a run killed at iteration 1,
    // and a store that writes further snapshots under the same identity.
    let killed_after_first_checkpoint = || {
        let storage = sim_grid(&g, 3);
        graphsd_on(
            &storage,
            config
                .clone()
                .with_checkpoint(RecoveryConfig::every(1).with_halt_after(1)),
        )
        .run(&program, &opts)
        .expect_err("halt_after must abort");
        let tag = ManifestTag {
            engine: "graphsd".into(),
            algorithm: program.name().into(),
            value_bytes: program.value_bytes(),
            num_vertices: open_grid(&storage, "", VerifyPolicy::Off).num_vertices(),
            graph_fingerprint: graph_fingerprint(storage.as_ref(), "").unwrap(),
            config_hash: config.semantic_hash(),
        };
        let store = CheckpointStore::new(storage.clone(), "ckpt", 2, tag);
        let valid = store.latest().unwrap().expect("the killed run committed");
        (storage, store, valid)
    };

    // Newer and CRC-valid, but its frontier names a vertex past |V|:
    // resume skips it for the older checkpoint and finishes the run.
    let (storage, mut store, valid) = killed_after_first_checkpoint();
    let n = valid.values.len() as u32;
    store
        .write(&CheckpointData {
            iteration: valid.iteration + 1,
            frontier: vec![n],
            ..valid
        })
        .unwrap();
    let resumed = graphsd_on(&storage, config.clone())
        .run(&program, &opts)
        .unwrap();
    assert_eq!(fingerprint(&want), fingerprint(&resumed));

    // Right shape, but GraphSD's payload names a resident sub-block
    // outside the 3×3 grid: the restore refuses it.
    let (storage, mut store, valid) = killed_after_first_checkpoint();
    let extra =
        br#"{"decisions":[],"buffer_evictions":0,"residents":[{"i":3,"j":0,"bytes":1,"priority":1}]}"#;
    store
        .write(&CheckpointData {
            iteration: valid.iteration + 1,
            extra: extra.to_vec(),
            ..valid
        })
        .unwrap();
    let err = graphsd_on(&storage, config)
        .run(&program, &opts)
        .expect_err("an out-of-grid resident block is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("outside the 3x3 grid"), "{err}");
}

#[test]
fn hard_kill_mid_run_recovers_through_checkpoints() {
    // `kill_at_op` fails an operation *inside* an iteration — unlike
    // `halt_after` the crash point is not a clean boundary, so only the
    // semantic observables (values, iteration count) are compared.
    let g = GeneratorConfig::new(GraphKind::RMat, 600, 4200, 37).generate();
    let opts = RunOptions::default();
    let base = graphsd_on(&sim_grid(&g, 3), GraphSdConfig::full().without_checkpoint())
        .run(&PageRank::paper(), &opts)
        .unwrap();

    let sim: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    // Count the ops a clean preprocess+run needs, then kill ~70% in.
    let probe = Arc::new(FaultyStorage::new(sim.clone(), None));
    let probe_storage: SharedStorage = probe.clone();
    preprocess(
        &g,
        probe_storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(3),
    )
    .unwrap();
    graphsd_on(&probe_storage, GraphSdConfig::full().without_checkpoint())
        .run(&PageRank::paper(), &opts)
        .unwrap();
    let total_ops = probe.ops_seen();
    assert!(total_ops > 10);

    // Fresh disk; crash the protected run partway, then resume.
    let sim: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    let killer: SharedStorage = Arc::new(FaultyStorage::new(sim.clone(), Some(total_ops * 7 / 10)));
    preprocess(
        &g,
        killer.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(3),
    )
    .unwrap();
    graphsd_on(
        &killer,
        GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&PageRank::paper(), &opts)
    .expect_err("hard kill must abort the run");

    // Resume on the bare disk (the faulty wrapper is gone, as after a
    // process restart).
    let resumed = graphsd_on(
        &sim,
        GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&PageRank::paper(), &opts)
    .unwrap();
    assert_eq!(base.values, resumed.values);
    assert_eq!(base.stats.iterations, resumed.stats.iterations);
}

/// A fresh in-memory grid of `graph` at `p` intervals with `batches`
/// ingested, one epoch each.
fn mutated_grid(graph: &Graph, p: u32, batches: &[MutationBatch]) -> SharedStorage {
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    let sink = graphsd::trace::null_sink();
    for batch in batches {
        ingest(storage.as_ref(), "", batch, sink.as_ref()).unwrap();
    }
    storage
}

/// The logical edge multiset a fresh, unverified open of the grid reads
/// (base merged with any live delta overlay), sorted.
fn logical_edges(storage: &SharedStorage) -> std::io::Result<Vec<(u32, u32)>> {
    let grid = GridGraph::open(storage.clone())?;
    let (mut scratch, mut block, mut edges) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..grid.p() {
        for j in 0..grid.p() {
            grid.read_block_into(i, j, &mut scratch, &mut block)?;
            edges.extend(block.iter().map(|e| (e.src, e.dst)));
        }
    }
    edges.sort_unstable();
    Ok(edges)
}

/// A batch touching every sub-block of a `p`-interval grid of `graph`:
/// first deletes of `deletes` base edges whose pair occurs once, then two
/// inserts per sub-block, from vertices `shift` and `shift + 1` of
/// interval `i` to vertex `shift` of interval `j`. No sub-block shrinks.
fn batch_over_every_block(
    graph: &Graph,
    p: u32,
    shift: u32,
    deletes: std::ops::Range<usize>,
) -> MutationBatch {
    let intervals = GridGraph::open(mutated_grid(graph, p, &[]))
        .unwrap()
        .intervals()
        .clone();
    let pairs: Vec<(u32, u32)> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
    let single =
        |&&(src, dst): &&(u32, u32)| pairs.iter().filter(|&&pair| pair == (src, dst)).count() == 1;
    let mut batch = MutationBatch::new();
    for &(src, dst) in pairs
        .iter()
        .filter(single)
        .take(deletes.end)
        .skip(deletes.start)
    {
        batch.delete(src, dst);
    }
    for i in 0..p {
        for j in 0..p {
            let (src, dst) = (intervals.range(i).start, intervals.range(j).start);
            batch.insert(src + shift, dst + shift, 1.0);
            batch.insert(src + shift + 1, dst + shift, 1.0);
        }
    }
    batch
}

/// Accepts what a reader got after a kill when it is the graph it must
/// see or one of the structured errors a torn write leaves behind (a
/// checksum mismatch, or an overlay whose merged counts disagree with
/// the meta's delta section — both `InvalidData`); otherwise says what
/// it got.
fn judge(read: std::io::Result<Vec<(u32, u32)>>, want: &[(u32, u32)]) -> Result<(), String> {
    match read {
        Ok(edges) if edges == want => Ok(()),
        Ok(_) => Err("a different graph".into()),
        Err(err) if err.kind() == ErrorKind::InvalidData => Ok(()),
        Err(err) => Err(format!("an unstructured error: {err}")),
    }
}

/// The `delta/` keys of a grid the meta does not name, and how many
/// `delta/` keys it holds.
fn unnamed_segments(storage: &SharedStorage) -> (Vec<String>, usize) {
    let meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
    let named: Vec<String> = meta
        .delta
        .map(|delta| delta.segments.into_iter().map(|e| e.key).collect())
        .unwrap_or_default();
    let delta: Vec<String> = storage
        .list_keys()
        .into_iter()
        .filter(|k| k.starts_with("delta/"))
        .collect();
    let total = delta.len();
    (
        delta.into_iter().filter(|k| !named.contains(k)).collect(),
        total,
    )
}

/// Kills every data op (`create`, `read_at`, `sync`) of one
/// `ingest` in turn, on a fresh copy of the grid each time. Ingest
/// deletes nothing: a kill leaves at most the new epoch's segment
/// unnamed, and the re-run names it.
#[test]
fn every_ingest_crash_leaves_the_old_or_the_new_epoch() {
    let g = GeneratorConfig::new(GraphKind::RMat, 200, 1200, 53).generate();
    let prior = [batch_over_every_block(&g, 3, 0, 0..2)];
    let batch = batch_over_every_block(&g, 3, 2, 2..4);
    let sink = graphsd::trace::null_sink();

    let storage = mutated_grid(&g, 3, &prior);
    let old = logical_edges(&storage).unwrap();
    let probe = FaultyStorage::new(storage.clone(), None);
    ingest(&probe, "", &batch, sink.as_ref()).unwrap();
    let new = logical_edges(&storage).unwrap();
    assert_ne!(old, new, "the batch changes the graph");
    let total = probe.ops_seen();
    assert!(total > 10, "{total} ops");

    for k in 1..=total {
        let storage = mutated_grid(&g, 3, &prior);
        let killer = FaultyStorage::new(storage.clone(), Some(k));
        ingest(&killer, "", &batch, sink.as_ref())
            .expect_err("every op of an ingest is on its error path");
        let edges = logical_edges(&storage).unwrap();
        assert!(
            edges == old || edges == new,
            "kill at op {k}/{total}: neither the old nor the new epoch"
        );
        let (_, scrub) = scrub_grid(storage.as_ref(), "").unwrap();
        assert!(scrub.is_clean(), "kill at op {k}/{total}: {scrub:?}");
        let (unnamed, _) = unnamed_segments(&storage);
        assert!(unnamed.len() <= 1, "kill at op {k}/{total}: {unnamed:?}");
        ingest(storage.as_ref(), "", &batch, sink.as_ref())
            .unwrap_or_else(|e| panic!("kill at op {k}/{total}: the re-run fails: {e}"));
        // A kill at the last sync lands after the commit, so the re-run
        // commits one more epoch: either way, one segment per epoch.
        let (unnamed, held) = unnamed_segments(&storage);
        assert!(unnamed.is_empty(), "kill at op {k}/{total}: {unnamed:?}");
        let epochs = GridGraph::open(storage.clone()).unwrap().delta_epoch();
        assert_eq!(held as u64, epochs, "kill at op {k}/{total}: one per epoch");
    }
}

/// Kills every data op of one `compact` in turn, on a fresh copy of the
/// grid each time, and reads the result twice: through an unverified
/// `open`, and through a following `ingest` and `open`. Each must give
/// the graph a reader must see or an `InvalidData` error. `delete` is not
/// a faultable op: compaction deletes the folded segments only after the
/// resealed meta is durable, as cleanup.
#[test]
fn every_compaction_crash_leaves_the_same_graph_or_a_structured_error() {
    let g = GeneratorConfig::new(GraphKind::RMat, 200, 1200, 53).generate();
    let prior = [
        batch_over_every_block(&g, 3, 0, 0..2),
        batch_over_every_block(&g, 3, 2, 2..4),
    ];
    let follow_up = batch_over_every_block(&g, 3, 4, 4..6);
    let sink = graphsd::trace::null_sink();

    // A clean compaction, probed for its op count; then the follow-up
    // ingest gives the graph every later reader must see.
    let storage = mutated_grid(&g, 3, &prior);
    let want = logical_edges(&storage).unwrap();
    let probe = Arc::new(FaultyStorage::new(storage.clone(), None));
    let probed: SharedStorage = probe.clone();
    compact(&probed, "", sink.as_ref()).unwrap().unwrap();
    assert_eq!(logical_edges(&storage).unwrap(), want);
    let total = probe.ops_seen();
    assert!(total > 10, "{total} ops");
    ingest(storage.as_ref(), "", &follow_up, sink.as_ref()).unwrap();
    let want_next = logical_edges(&storage).unwrap();

    let mut violations = Vec::new();
    for k in 1..=total {
        let storage = mutated_grid(&g, 3, &prior);
        let killer: SharedStorage = Arc::new(FaultyStorage::new(storage.clone(), Some(k)));
        compact(&killer, "", sink.as_ref())
            .expect_err("every op of a compaction is on its error path");
        let open = judge(logical_edges(&storage), &want);
        let next = judge(
            ingest(storage.as_ref(), "", &follow_up, sink.as_ref())
                .and_then(|_| logical_edges(&storage)),
            &want_next,
        );
        for (reader, verdict) in [("open", open), ("a following ingest", next)] {
            if let Err(why) = verdict {
                violations.push(format!("kill at op {k}/{total}: {reader} gives {why}"));
            }
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}

#[test]
fn crash_resume_on_real_files() {
    // FileStorage: wall-clock I/O differs between runs, so the contract
    // is semantic equality (values + iteration structure).
    let g = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 39).generate();
    let opts = RunOptions::default();
    let dir = TempDir::new("gsd-crash-resume").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    preprocess(
        &g,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(4),
    )
    .unwrap();

    let base = graphsd_on(&storage, GraphSdConfig::full().without_checkpoint())
        .run(&PageRank::paper(), &opts)
        .unwrap();
    graphsd_on(
        &storage,
        GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(1).with_halt_after(2)),
    )
    .run(&PageRank::paper(), &opts)
    .expect_err("halt_after must abort");
    let resumed = graphsd_on(
        &storage,
        GraphSdConfig::full().with_checkpoint(RecoveryConfig::every(1)),
    )
    .run(&PageRank::paper(), &opts)
    .unwrap();
    assert_eq!(base.values, resumed.values);
    assert_eq!(base.stats.iterations, resumed.stats.iterations);
}

#[test]
fn crash_resume_lumos() {
    let g = GeneratorConfig::new(GraphKind::RMat, 800, 6400, 41).generate();
    let opts = RunOptions::default();
    let program = PageRank::paper();
    let lumos_storage = || -> SharedStorage {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        build_lumos_format(&g, &storage, "", Some(4)).unwrap();
        storage
    };

    for verify in [VerifyPolicy::Off, VerifyPolicy::Full] {
        let build = |storage: &SharedStorage, recovery: Option<RecoveryConfig>| {
            let mut e = LumosEngine::new(open_grid(storage, "", verify)).unwrap();
            e.set_prefetch(None);
            e.set_checkpoint(recovery);
            e
        };

        let clean = lumos_storage();
        let want = build(&clean, Some(RecoveryConfig::every(1)))
            .run(&program, &opts)
            .unwrap();
        assert_eq!(want.stats.verify_bytes > 0, verify == VerifyPolicy::Full);
        let unprotected = build(&lumos_storage(), None).run(&program, &opts).unwrap();
        assert_eq!(
            fingerprint(&unprotected),
            fingerprint(&want),
            "checkpointing must be result-neutral for Lumos"
        );

        for k in [1, want.stats.iterations] {
            let storage = lumos_storage();
            build(&storage, Some(RecoveryConfig::every(1).with_halt_after(k)))
                .run(&program, &opts)
                .expect_err("halt_after must abort");
            let resumed = build(&storage, Some(RecoveryConfig::every(1)))
                .run(&program, &opts)
                .unwrap();
            assert_eq!(
                fingerprint(&want),
                fingerprint(&resumed),
                "Lumos resume after crash at boundary >= {k} ({verify:?})"
            );
        }
    }
}

#[test]
fn crash_resume_hus() {
    let g = GeneratorConfig::new(GraphKind::RMat, 500, 3000, 43)
        .generate()
        .symmetrized();
    let opts = RunOptions::default();
    // Preprocess once per disk; engines (re)open the existing format, as
    // a restarted process would.
    let hus_storage = || -> SharedStorage {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        build_hus_format(&g, &storage, "", Some(3)).unwrap();
        storage
    };

    for verify in [VerifyPolicy::Off, VerifyPolicy::Full] {
        let build = |storage: &SharedStorage, recovery: Option<RecoveryConfig>| {
            let format = HusFormat {
                row: open_grid(storage, "row/", verify),
                col: open_grid(storage, "col/", verify),
            };
            let mut e = HusGraphEngine::new(format).unwrap();
            e.set_checkpoint(recovery);
            e
        };

        let clean = hus_storage();
        let want = build(&clean, Some(RecoveryConfig::every(1)))
            .run(&ConnectedComponents, &opts)
            .unwrap();
        assert_eq!(want.stats.verify_bytes > 0, verify == VerifyPolicy::Full);
        let unprotected = build(&hus_storage(), None)
            .run(&ConnectedComponents, &opts)
            .unwrap();
        assert_eq!(
            fingerprint(&unprotected),
            fingerprint(&want),
            "checkpointing must be result-neutral for HUS"
        );

        for k in [1, (want.stats.iterations / 2).max(1), want.stats.iterations] {
            let storage = hus_storage();
            build(&storage, Some(RecoveryConfig::every(1).with_halt_after(k)))
                .run(&ConnectedComponents, &opts)
                .expect_err("halt_after must abort");
            let resumed = build(&storage, Some(RecoveryConfig::every(1)))
                .run(&ConnectedComponents, &opts)
                .unwrap();
            assert_eq!(
                fingerprint(&want),
                fingerprint(&resumed),
                "HUS resume after crash at boundary >= {k} ({verify:?})"
            );
        }
    }
}
