//! The fault-tolerance contract of `gsd_core::checkpoint` and the
//! `gsd_integrity` storage decorators, end to end:
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
//! * **Fault absorption** — deterministic transient I/O faults injected
//!   under the bounded-retry layer leave results untouched; only the
//!   `retried_ops` counter and `IoRetry` trace events appear. A mid-run
//!   hard kill (`kill_at_op`) recovers through checkpoints with
//!   identical values.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use graphsd::baselines::{
    build_hus_format, build_lumos_format, HusFormat, HusGraphEngine, LumosEngine,
};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig, RecoveryConfig};
use graphsd::graph::{
    preprocess, CorruptionResponse, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig,
    VerifyPolicy,
};
use graphsd::io::{DiskModel, FileStorage, SharedStorage, SimDisk, TempDir};
use graphsd::recover::{
    graph_fingerprint, CheckpointData, CheckpointStore, FaultConfig, FaultyStorage, ManifestTag,
    RetryPolicy, RetryingStorage,
};
use graphsd::runtime::{Engine, RunOptions, RunResult, VertexProgram};
use graphsd::trace::{RingRecorder, TraceEvent};
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
        (
            r.stats.verify_bytes,
            r.stats.corrupt_blocks,
            r.stats.repaired_blocks,
        ),
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
    grid.set_verification(verify, CorruptionResponse::FailFast)
        .unwrap();
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
fn transient_faults_are_absorbed_without_changing_results() {
    let g = GeneratorConfig::new(GraphKind::RMat, 600, 4200, 35).generate();
    let opts = RunOptions::default();
    let base = graphsd_on(&sim_grid(&g, 3), GraphSdConfig::full().without_checkpoint())
        .run(&PageRank::paper(), &opts)
        .unwrap();

    let run_faulty = || {
        let sim: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let faulty: SharedStorage =
            Arc::new(FaultyStorage::new(sim, FaultConfig::transient(42, 0.02)));
        let recorder = Arc::new(RingRecorder::new(4096));
        let mut retrying = RetryingStorage::new(faulty, RetryPolicy::default());
        retrying.set_trace(recorder.clone());
        let storage: SharedStorage = Arc::new(retrying);
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
        let r = graphsd_on(&storage, GraphSdConfig::full().without_checkpoint())
            .run(&PageRank::paper(), &opts)
            .unwrap();
        (r, recorder, storage)
    };

    let (faulty_a, recorder, storage) = run_faulty();
    assert_eq!(base.values, faulty_a.values);
    assert_eq!(base.stats.iterations, faulty_a.stats.iterations);
    // `stats.io` is a run-window delta, so it only shows retries drawn
    // during the run itself; the lifetime counters (preprocess included)
    // are where a 2% rate over thousands of ops is guaranteed to land.
    let lifetime = storage.stats().snapshot();
    assert!(
        lifetime.retried_ops > 0,
        "a 2% transient rate over thousands of ops must trigger retries"
    );
    assert_eq!(lifetime.gave_up_ops, 0);
    assert_eq!(faulty_a.stats.io.gave_up_ops, 0);
    let retries = recorder
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::IoRetry { .. }))
        .count();
    assert!(retries > 0, "retries must be visible in the trace");
    // Aside from the retry counter, accounting is untouched: failed
    // attempts never reach the inner disk.
    let mut normalized = faulty_a.stats.io;
    normalized.retried_ops = 0;
    assert_eq!(base.stats.io, normalized);

    // Deterministic in the seed: a second faulty run is identical.
    let (faulty_b, _, _) = run_faulty();
    assert_eq!(fingerprint(&faulty_a), fingerprint(&faulty_b));
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
    let probe = Arc::new(FaultyStorage::new(
        sim.clone(),
        FaultConfig::transient(1, 0.0),
    ));
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
    let killer: SharedStorage = Arc::new(FaultyStorage::new(
        sim.clone(),
        FaultConfig::transient(1, 0.0).with_kill_at_op(total_ops * 7 / 10),
    ));
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
