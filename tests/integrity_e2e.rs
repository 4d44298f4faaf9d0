//! End-to-end contract of grid integrity, across engines:
//!
//! 1. **Clean-data neutrality** — on an uncorrupted grid, turning
//!    verification on changes neither the committed values
//!    nor one byte of accounted I/O, with the prefetch pipeline on or
//!    off; verification totals land in their own `RunStats` fields.
//! 2. **Detection** — seeded at-rest corruption (bit flip, truncation,
//!    zero fill) planted in any grid object surfaces as a structured
//!    corruption error naming the object, never a panic and never a
//!    silently wrong result.
//! 3. **Scrub/repair** — the offline pass finds the same corruption and
//!    restores the exact original bytes from the source edge list.
//! 4. **One format version** — a grid written by an older tree is
//!    refused at open with the way out.
//! 5. **Nothing built on bad bytes** — `ingest` checks every base object
//!    it merges against the sealed meta, so a corrupt one fails the batch
//!    before an epoch is written; opening a mutated grid checks every
//!    delta segment the same way, and refuses a segment whose records do
//!    not fit the grid even when its bytes match.

use graphsd::algos::{Bfs, PageRank};
use graphsd::baselines::{
    build_hus_format, build_lumos_format, GridStreamEngine, HusGraphEngine, LumosEngine,
};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::delta::{compact, ingest, MutationBatch};
use graphsd::graph::delta::{encode_segment, segment_key};
use graphsd::graph::{
    block_edges_key, preprocess, repair_grid, scrub_grid, DeltaOp, DeltaSection, Edge,
    GeneratorConfig, Graph, GraphKind, GridGraph, GridMeta, PreprocessConfig, VerifyPolicy,
    DEGREES_KEY, META_KEY,
};
use graphsd::integrity::{CorruptionError, IntegritySection, ObjectEntry};
use graphsd::io::{DiskModel, MemStorage, SharedStorage, SimDisk};
use graphsd::recover::{corrupt_object, CorruptionMode};
use graphsd::runtime::{Engine, RunOptions, RunResult};
use std::sync::Arc;

fn test_graph() -> Graph {
    GeneratorConfig::new(GraphKind::RMat, 800, 8000, 11).generate()
}

fn grid_on_fresh_disk(graph: &Graph, p: u32) -> (SharedStorage, GridGraph) {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    let grid = GridGraph::open(storage.clone()).unwrap();
    (storage, grid)
}

/// Everything a run commits except wall-clock durations: values,
/// iteration structure, and the full accounted I/O breakdown. Identical
/// fingerprints mean verification was invisible to the science.
fn fingerprint<V: Clone + PartialEq + std::fmt::Debug>(
    r: &RunResult<V>,
) -> impl PartialEq + std::fmt::Debug {
    (
        r.values.clone(),
        r.stats.iterations,
        r.stats.io,
        r.stats
            .per_iteration
            .iter()
            .map(|it| (it.iteration, it.frontier, it.io))
            .collect::<Vec<_>>(),
    )
}

/// The first non-empty sub-block's edges object — always read by every
/// engine, so corrupting it is guaranteed to be noticed at `Full`.
fn busiest_block_key(meta: &GridMeta) -> String {
    for i in 0..meta.p {
        for j in 0..meta.p {
            if meta.block_edge_count(i, j) > 0 {
                return block_edges_key("", i, j);
            }
        }
    }
    panic!("grid has no edges");
}

#[test]
fn graphsd_is_neutral_under_verification_with_prefetch_on_and_off() {
    let g = test_graph();
    let opts = RunOptions::default();
    for pipeline in [None, Some(PipelineConfig::with_depth(2))] {
        let config = match &pipeline {
            None => GraphSdConfig::full().without_prefetch(),
            Some(sizing) => GraphSdConfig::full().with_prefetch(*sizing),
        };
        let (_, grid) = grid_on_fresh_disk(&g, 4);
        let baseline = GraphSdEngine::new(grid, config.clone())
            .unwrap()
            .run(&PageRank::paper(), &opts)
            .unwrap();
        assert_eq!(baseline.stats.verify_bytes, 0, "off means off");

        let (_, mut grid) = grid_on_fresh_disk(&g, 4);
        grid.set_verification(VerifyPolicy::Full);
        let verified = GraphSdEngine::new(grid, config.clone())
            .unwrap()
            .run(&PageRank::paper(), &opts)
            .unwrap();
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&verified),
            "verification with prefetch={} must not perturb the run",
            pipeline.is_some()
        );
        assert!(verified.stats.verify_bytes > 0, "verified");
        assert_eq!(verified.stats.corrupt_blocks, 0);
    }
}

#[test]
fn sciu_heavy_bfs_is_neutral_under_verification() {
    // Tiny frontiers exercise the partial-read paths (index spans and
    // edge runs), whose verification rides an unaccounted side read.
    let g = GeneratorConfig::new(GraphKind::WebLocality, 1500, 15_000, 7).generate();
    let opts = RunOptions::default();
    let (_, grid) = grid_on_fresh_disk(&g, 4);
    let baseline = GraphSdEngine::new(grid, GraphSdConfig::full())
        .unwrap()
        .run(&Bfs::new(0), &opts)
        .unwrap();
    let (_, mut grid) = grid_on_fresh_disk(&g, 4);
    grid.set_verification(VerifyPolicy::Full);
    let verified = GraphSdEngine::new(grid, GraphSdConfig::full())
        .unwrap()
        .run(&Bfs::new(0), &opts)
        .unwrap();
    assert_eq!(fingerprint(&baseline), fingerprint(&verified));
    assert!(verified.stats.verify_bytes > 0);
}

#[test]
fn baseline_engines_are_neutral_under_full_verification() {
    let g = test_graph();
    let opts = RunOptions::default();
    let program = PageRank::with_iterations(4);

    // Lumos.
    let build_lumos = |verify: bool| {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (mut grid, _) = build_lumos_format(&g, &storage, "", Some(4)).unwrap();
        if verify {
            grid.set_verification(VerifyPolicy::Full);
        }
        LumosEngine::new(grid).unwrap()
    };
    let plain = build_lumos(false).run(&program, &opts).unwrap();
    let verified = build_lumos(true).run(&program, &opts).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&verified), "lumos");
    assert!(verified.stats.verify_bytes > 0);
    assert_eq!(verified.stats.corrupt_blocks, 0);

    // HUS-Graph: both on-disk copies carry their own manifests.
    let build_hus = |verify: bool| {
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        let (mut format, _) = build_hus_format(&g, &storage, "", Some(4)).unwrap();
        if verify {
            for grid in [&mut format.row, &mut format.col] {
                grid.set_verification(VerifyPolicy::Full);
            }
        }
        HusGraphEngine::new(format).unwrap()
    };
    let plain = build_hus(false).run(&program, &opts).unwrap();
    let verified = build_hus(true).run(&program, &opts).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&verified), "hus");
    assert!(verified.stats.verify_bytes > 0);

    // Plain grid streaming.
    let build_stream = |verify: bool| {
        let (_, mut grid) = grid_on_fresh_disk(&g, 4);
        if verify {
            grid.set_verification(VerifyPolicy::Full);
        }
        GridStreamEngine::new(grid).unwrap()
    };
    let plain = build_stream(false).run(&program, &opts).unwrap();
    let verified = build_stream(true).run(&program, &opts).unwrap();
    assert_eq!(fingerprint(&plain), fingerprint(&verified), "gridstream");
    assert!(verified.stats.verify_bytes > 0);
}

#[test]
fn every_at_rest_corruption_mode_fails_fast_with_a_structured_error() {
    let g = test_graph();
    for mode in [
        CorruptionMode::BitFlip,
        CorruptionMode::Truncate,
        CorruptionMode::ZeroFill,
    ] {
        let (storage, mut grid) = grid_on_fresh_disk(&g, 4);
        let key = busiest_block_key(grid.meta());
        corrupt_object(storage.as_ref(), &key, mode, 97).unwrap();
        grid.set_verification(VerifyPolicy::Full);
        let err = GraphSdEngine::new(grid, GraphSdConfig::full())
            .unwrap()
            .run(&PageRank::paper(), &RunOptions::default())
            .unwrap_err();
        let c = CorruptionError::from_io(&err)
            .unwrap_or_else(|| panic!("{mode}: expected a structured corruption error, got {err}"));
        assert_eq!(c.key, key, "{mode}: error names the rotten object");
    }
}

#[test]
fn corrupt_degrees_are_caught_at_engine_construction() {
    // The engine loads out-degrees before the first iteration; the
    // verifier guards that read too.
    let g = test_graph();
    let (storage, mut grid) = grid_on_fresh_disk(&g, 3);
    corrupt_object(storage.as_ref(), DEGREES_KEY, CorruptionMode::BitFlip, 5).unwrap();
    grid.set_verification(VerifyPolicy::Full);
    let err = match GraphSdEngine::new(grid, GraphSdConfig::full()) {
        Err(err) => err,
        Ok(_) => panic!("constructing over corrupt degrees must fail"),
    };
    assert!(CorruptionError::is_corruption(&err), "{err}");
}

#[test]
fn a_corrupt_object_fails_the_run_then_scrub_repair_restores_it() {
    let g = test_graph();
    let opts = RunOptions::default();
    let (_, grid) = grid_on_fresh_disk(&g, 4);
    let clean = GraphSdEngine::new(grid, GraphSdConfig::full())
        .unwrap()
        .run(&PageRank::paper(), &opts)
        .unwrap();

    let (storage, mut grid) = grid_on_fresh_disk(&g, 4);
    let key = busiest_block_key(grid.meta());
    corrupt_object(storage.as_ref(), &key, CorruptionMode::ZeroFill, 31).unwrap();
    grid.set_verification(VerifyPolicy::Full);
    let err = GraphSdEngine::new(grid, GraphSdConfig::full())
        .unwrap()
        .run(&PageRank::paper(), &opts)
        .unwrap_err();
    assert!(CorruptionError::is_corruption(&err));

    // Offline: scrub finds exactly that object, repair restores it from
    // the source edge list, and a fully verified run then succeeds.
    let (_, report) = scrub_grid(storage.as_ref(), "").unwrap();
    let corrupt: Vec<&str> = report.corrupt().map(|o| o.key.as_str()).collect();
    assert_eq!(corrupt, vec![key.as_str()]);
    let outcome = repair_grid(storage.as_ref(), "", &g).unwrap();
    assert_eq!(outcome.rewritten, vec![key.clone()]);
    assert!(outcome.after.is_clean());

    let mut grid = GridGraph::open(storage).unwrap();
    grid.set_verification(VerifyPolicy::Full);
    let healed = GraphSdEngine::new(grid, GraphSdConfig::full())
        .unwrap()
        .run(&PageRank::paper(), &opts)
        .unwrap();
    assert_eq!(clean.values, healed.values);
}

#[test]
fn v1_grids_are_rejected_at_open() {
    // Downgrade the metadata to format v1: no integrity section, no
    // self-check — what a pre-checksum preprocessor wrote.
    let (storage, grid) = grid_on_fresh_disk(&test_graph(), 4);
    drop(grid);
    let now = String::from_utf8(storage.read_all(META_KEY).unwrap()).unwrap();
    let body = &now[..now.find(",\n  \"integrity\"").unwrap()];
    let current = format!("\"version\": {}", graphsd::graph::FORMAT_VERSION);
    let v1 = format!("{body}\n}}").replacen(&current, "\"version\": 1", 1);
    storage.create(META_KEY, v1.as_bytes()).unwrap();

    let Err(err) = GridGraph::open(storage) else {
        panic!("a v1 grid must not open");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("unsupported grid format version 1"), "{msg}");
    assert!(msg.contains("re-run `gsd preprocess`"), "{msg}");
}

#[test]
fn scrub_repair_roundtrip_covers_every_corruption_mode() {
    let g = test_graph();
    for (seed, mode) in [
        (41u64, CorruptionMode::BitFlip),
        (43, CorruptionMode::Truncate),
        (47, CorruptionMode::ZeroFill),
    ] {
        let (storage, grid) = grid_on_fresh_disk(&g, 3);
        let key = busiest_block_key(grid.meta());
        let original = storage.read_all(&key).unwrap();
        corrupt_object(storage.as_ref(), &key, mode, seed).unwrap();
        assert_ne!(storage.read_all(&key).unwrap(), original);

        let (_, report) = scrub_grid(storage.as_ref(), "").unwrap();
        assert!(!report.is_clean(), "{mode}: scrub must notice");
        let outcome = repair_grid(storage.as_ref(), "", &g).unwrap();
        assert_eq!(outcome.rewritten, vec![key.clone()], "{mode}");
        assert_eq!(
            storage.read_all(&key).unwrap(),
            original,
            "{mode}: repair restores the exact original bytes"
        );
    }
}

#[test]
fn ingest_over_a_corrupt_base_object_fails_and_commits_nothing() {
    let g = test_graph();
    let (storage, grid) = grid_on_fresh_disk(&g, 4);
    let block = busiest_block_key(grid.meta());
    // A batch whose only op lands in that sub-block.
    let (i, j) = (0..4u32)
        .flat_map(|i| (0..4u32).map(move |j| (i, j)))
        .find(|&(i, j)| block_edges_key("", i, j) == block)
        .unwrap();
    let intervals = grid.meta().intervals();
    let mut batch = MutationBatch::new();
    batch.insert(intervals.range(i).start, intervals.range(j).start, 1.0);
    drop(grid);

    let sink = graphsd::trace::null_sink();
    {
        let (storage, _) = grid_on_fresh_disk(&g, 4);
        let meta_before = storage.read_all(META_KEY).unwrap();
        corrupt_object(storage.as_ref(), &block, CorruptionMode::BitFlip, 13).unwrap();
        let err = ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&block), "{err}");
        assert_eq!(
            storage.read_all(META_KEY).unwrap(),
            meta_before,
            "the sealed meta names no new epoch"
        );
        assert!(
            storage.list_keys().iter().all(|k| !k.starts_with("delta/")),
            "no segment written"
        );
        assert_eq!(GridGraph::open(storage).unwrap().delta_epoch(), 0);
    }
    // Ingest never reads the degree table: the degree patch is derived
    // at open, and merged over the table when a reader loads it — which
    // checks the table first.
    {
        let (storage, _) = grid_on_fresh_disk(&g, 4);
        corrupt_object(storage.as_ref(), DEGREES_KEY, CorruptionMode::BitFlip, 13).unwrap();
        ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
        let err = GridGraph::open(storage)
            .unwrap()
            .load_out_degrees()
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(DEGREES_KEY), "{err}");
    }
    // The same batch over the clean grid commits epoch 1.
    assert_eq!(
        ingest(storage.as_ref(), "", &batch, sink.as_ref())
            .unwrap()
            .epoch,
        1
    );
}

#[test]
fn a_corrupt_delta_segment_fails_open_with_a_structured_error() {
    let g = test_graph();
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        &g,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(4),
    )
    .unwrap();
    let mut batch = MutationBatch::new();
    batch.insert(0, 1, 1.0);
    let sink = graphsd::trace::null_sink();
    ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
    let segment = storage
        .list_keys()
        .into_iter()
        .find(|k| k.starts_with("delta/seg_"))
        .expect("the batch wrote one segment");
    corrupt_object(storage.as_ref(), &segment, CorruptionMode::BitFlip, 3).unwrap();

    let Err(err) = GridGraph::open(storage) else {
        panic!("a mutated grid with a corrupt segment must not open");
    };
    let c = CorruptionError::from_io(&err)
        .unwrap_or_else(|| panic!("expected a structured corruption error, got {err}"));
    assert_eq!(c.key, segment);
}

/// Names `segments` — `(key epoch, payload)` — in a resealed meta of the
/// grid in `storage` at `epoch`, with merged counts `merged`: what a
/// buggy writer could commit, each object matching its entry.
fn commit_segments(
    storage: &SharedStorage,
    epoch: u64,
    segments: &[(u64, Vec<u8>)],
    merged: &[u64],
) {
    let mut meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
    let mut entries = Vec::new();
    for (key_epoch, payload) in segments {
        let key = segment_key("", *key_epoch);
        storage.create(&key, payload).unwrap();
        entries.push(ObjectEntry::of(key, payload));
    }
    meta.delta = Some(DeltaSection {
        epoch,
        segments: entries,
        merged_block_edge_counts: merged.to_vec(),
    });
    meta.seal();
    storage.create(META_KEY, &meta.to_bytes()).unwrap();
}

/// A segment is untrusted input even when its bytes match its entry in
/// the sealed meta. Each hostile case is an `InvalidData` error — never a
/// panic — on `open` and on `ingest`; a merged degree that leaves `u32`
/// can only be seen where a degree is formed (a degree load, and the
/// compaction that rewrites the table), since ingest never reads one.
#[test]
fn hostile_segments_are_invalid_data_on_open_and_ingest() {
    let g = test_graph();
    let n = g.num_vertices();
    let insert = |src, dst| DeltaOp::Insert(Edge::new(src, dst));
    let patched = |at: usize, byte: u8| {
        let mut bytes = encode_segment(1, &[insert(0, 1)]);
        bytes[at] = byte;
        bytes
    };
    type Case = (&'static str, u64, Vec<(u64, Vec<u8>)>);
    let cases: Vec<Case> = vec![
        (
            "vertex >= |V|",
            1,
            vec![(1, encode_segment(1, &[insert(0, n)]))],
        ),
        ("unknown op tag", 1, vec![(1, patched(20, 7))]),
        ("count disagrees with length", 1, vec![(1, patched(16, 2))]),
        (
            "epochs not strictly increasing",
            2,
            vec![
                (2, encode_segment(2, &[insert(0, 1)])),
                (1, encode_segment(1, &[insert(0, 2)])),
            ],
        ),
        (
            "epoch beyond the meta's",
            1,
            vec![(3, encode_segment(3, &[insert(0, 1)]))],
        ),
    ];
    let sink = graphsd::trace::null_sink();
    let mut batch = MutationBatch::new();
    batch.insert(1, 2, 1.0);
    let is_invalid = |what: &str, step: &str, got: std::io::Result<()>| match got {
        Err(err) => assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "{what}: {step}: {err}"
        ),
        Ok(()) => panic!("{what}: {step} accepted a hostile segment"),
    };
    for (what, epoch, segments) in cases {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
        let base = GridGraph::open(storage.clone())
            .unwrap()
            .meta()
            .block_edge_counts
            .clone();
        commit_segments(&storage, epoch, &segments, &base);
        is_invalid(what, "open", GridGraph::open(storage.clone()).map(drop));
        is_invalid(
            what,
            "ingest",
            ingest(storage.as_ref(), "", &batch, sink.as_ref()).map(drop),
        );
    }

    // A degree table that says vertex 0 already has u32::MAX out-edges,
    // resealed so its checksum holds, under one more insert from 0.
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        &g,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(3),
    )
    .unwrap();
    let mut meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
    let mut degrees = storage.read_all(DEGREES_KEY).unwrap();
    degrees[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    storage.create(DEGREES_KEY, &degrees).unwrap();
    let mut objects = meta.integrity.objects.clone();
    objects.retain(|e| e.key != DEGREES_KEY);
    objects.push(ObjectEntry::of(DEGREES_KEY, &degrees));
    meta.integrity = IntegritySection::new(objects);
    meta.seal();
    storage.create(META_KEY, &meta.to_bytes()).unwrap();
    let mut merged = meta.block_edge_counts.clone();
    let intervals = meta.intervals();
    merged[(intervals.interval_of(0) * meta.p + intervals.interval_of(1)) as usize] += 1;
    commit_segments(
        &storage,
        1,
        &[(1, encode_segment(1, &[insert(0, 1)]))],
        &merged,
    );
    let what = "merged degree leaves u32";
    let grid = GridGraph::open(storage.clone()).unwrap();
    is_invalid(what, "degree load", grid.load_out_degrees().map(drop));
    is_invalid(
        what,
        "compact",
        compact(&storage, "", sink.as_ref()).map(drop),
    );
}
