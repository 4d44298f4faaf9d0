//! One writer, one index: what a grid consists of on disk, that the
//! three programs that produce rows — `preprocess`, `repair_grid` and
//! `compact` — produce the same ones, what `ingest` and `compact` write
//! and sync, that the counting layout writes the bytes the order's
//! definition does, that the grid's JSON metadata round-trips at sizes
//! far past the benchmark's, that a record's id width follows its
//! widest interval, and that a row index stores the columns of its
//! non-empty blocks at the offset width they take, fresh, through a
//! delta overlay and after compaction.

use graphsd::algos::{Bfs, PageRank};
use graphsd::core::{GraphSdConfig, GraphSdEngine};
use graphsd::delta::{compact, ingest, MutationBatch};
use graphsd::graph::delta::{encode_segment, merge_block, merged_count, segment_key, DeltaOp};
use graphsd::graph::format::row_index_key;
use graphsd::graph::grid::RowIndexSpan;
use graphsd::graph::layout::{bucket_edges, index_column, row_index_object, row_keys, row_objects};
use graphsd::graph::rng::Xoshiro256;
use graphsd::graph::{
    block_edges_key, preprocess, repair_grid, BlockOrder, DeltaSection, Edge, EdgeCodec,
    GeneratorConfig, Graph, GraphKind, GridGraph, GridMeta, Intervals, PreprocessConfig,
    DEGREES_KEY, FORMAT_VERSION, META_KEY,
};
use graphsd::integrity::{IntegritySection, ObjectEntry};
use graphsd::io::{IoStats, MemStorage, SharedStorage, Storage};
use graphsd::runtime::{Engine, ReferenceEngine, RunOptions};
use graphsd::trace::Counter;
use std::collections::BTreeMap;
use std::sync::Arc;

const P: u32 = 4;
const ORDERS: [BlockOrder; 3] = [
    BlockOrder::Unsorted,
    BlockOrder::BySource,
    BlockOrder::ByDest,
];

fn graph() -> Graph {
    GeneratorConfig::new(GraphKind::RMat, 400, 4000, 17).generate()
}

fn grid_in(order: BlockOrder, prefix: &str) -> SharedStorage {
    let storage: SharedStorage = Arc::new(MemStorage::new());
    let config = PreprocessConfig {
        order,
        ..PreprocessConfig::graphsd(prefix).with_intervals(P)
    };
    preprocess(&graph(), storage.as_ref(), &config).unwrap();
    storage
}

fn contents(storage: &SharedStorage) -> BTreeMap<String, Vec<u8>> {
    storage
        .list_keys()
        .into_iter()
        .map(|key| {
            let bytes = storage.read_all(&key).unwrap();
            (key, bytes)
        })
        .collect()
}

/// A fresh grid holds `P²` edge objects, `P` row indexes where the order
/// has them, the degree table and the meta — and the meta's integrity
/// section names exactly the first three classes.
#[test]
fn a_fresh_grid_is_exactly_its_inventory() {
    for order in ORDERS {
        let storage = grid_in(order, "");
        let keys = storage.list_keys();
        let indexes = if order == BlockOrder::BySource { P } else { 0 };
        assert_eq!(
            keys.len() as u32,
            P * P + indexes + 2,
            "{order:?}: {keys:?}"
        );
        let meta = GridGraph::open(storage).unwrap().meta().clone();
        let named: Vec<&str> = meta
            .integrity
            .objects
            .iter()
            .map(|o| o.key.as_str())
            .collect();
        let on_disk: Vec<&str> = keys
            .iter()
            .map(String::as_str)
            .filter(|key| *key != META_KEY)
            .collect();
        assert_eq!(named, on_disk, "{order:?}");
    }
}

/// Losing every object of one row and a bit of a block in another is
/// repaired to the bytes `preprocess` wrote, in every order.
#[test]
fn repair_restores_a_lost_row_and_a_flipped_block_in_every_order() {
    for order in ORDERS {
        let storage = grid_in(order, "g/");
        let pristine = contents(&storage);
        let lost = row_keys(1, P, order);
        for key in &lost {
            storage.delete(&format!("g/{key}")).unwrap();
        }
        let flipped = row_keys(3, P, order)
            .into_iter()
            .map(|key| format!("g/{key}"))
            .find(|key| key.ends_with(".edges") && !pristine[key].is_empty())
            .unwrap();
        let mut rotted = pristine[&flipped].clone();
        rotted[3] = 0x40;
        storage.create(&flipped, &rotted).unwrap();

        let outcome = repair_grid(storage.as_ref(), "g/", &graph()).unwrap();
        assert!(outcome.after.is_clean(), "{order:?}");
        assert_eq!(outcome.rewritten.len(), lost.len() + 1, "{order:?}");
        assert_eq!(contents(&storage), pristine, "{order:?}");
    }
}

/// Forwards every op to `inner` and counts the syncs.
struct SyncCounting {
    inner: SharedStorage,
    syncs: Counter,
}

impl Storage for SyncCounting {
    fn create(&self, key: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.create(key, data)
    }
    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_at(key, offset, buf)
    }
    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_unaccounted(key, offset, buf)
    }
    fn len(&self, key: &str) -> std::io::Result<u64> {
        self.inner.len(key)
    }
    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }
    fn delete(&self, key: &str) -> std::io::Result<()> {
        self.inner.delete(key)
    }
    fn list_keys(&self) -> Vec<String> {
        self.inner.list_keys()
    }
    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }
    fn sync(&self) -> std::io::Result<()> {
        self.syncs.add(1);
        self.inner.sync()
    }
}

fn sync_counting(inner: SharedStorage) -> Arc<SyncCounting> {
    Arc::new(SyncCounting {
        inner,
        syncs: Counter::new(),
    })
}

/// One ingest writes two objects — the batch's segment and the resealed
/// meta — and syncs twice, however many sub-blocks the batch touches:
/// here all `P²`. The grid then holds one `delta/` object per live epoch.
#[test]
fn an_ingest_writes_two_objects_and_syncs_twice() {
    let storage = grid_in(BlockOrder::BySource, "");
    let intervals = GridGraph::open(storage.clone())
        .unwrap()
        .intervals()
        .clone();
    let mut batch = MutationBatch::new();
    for i in 0..P {
        for j in 0..P {
            batch.insert(intervals.range(i).start, intervals.range(j).start, 1.0);
        }
    }
    let counting = sync_counting(storage.clone());
    let sink = graphsd::trace::null_sink();
    for epoch in 1..=2u64 {
        let io_before = storage.stats().snapshot();
        let syncs_before = counting.syncs.get();
        let report = ingest(counting.as_ref(), "", &batch, sink.as_ref()).unwrap();
        let io = storage.stats().snapshot().since(&io_before);
        assert_eq!(report.segments, 1);
        assert_eq!(io.write_ops, 2, "epoch {epoch}");
        assert_eq!(counting.syncs.get() - syncs_before, 2, "epoch {epoch}");
        let overlay = GridGraph::open(storage.clone()).unwrap();
        assert_eq!(overlay.overlay().unwrap().block_count() as u32, P * P);
        let delta: Vec<String> = storage
            .list_keys()
            .into_iter()
            .filter(|k| k.starts_with("delta/"))
            .collect();
        let want: Vec<String> = (1..=epoch).map(|e| segment_key("", e)).collect();
        assert_eq!(delta, want, "one segment per live epoch");
    }
}

/// A batch confined to two rows: compaction rewrites the merged edge
/// objects, those two rows' indexes and the degree table, creates
/// nothing else but the resealed meta, syncs twice and leaves `delta/`
/// empty.
#[test]
fn compaction_rewrites_only_the_rows_a_batch_touched() {
    let storage = grid_in(BlockOrder::BySource, "");
    let intervals = GridGraph::open(storage.clone())
        .unwrap()
        .intervals()
        .clone();
    let first = |i: u32| intervals.range(i).start;
    let mut batch = MutationBatch::new();
    batch
        .insert(first(0), first(2), 1.0) // sub-block (0, 2)
        .insert(first(0) + 1, first(0), 1.0) // sub-block (0, 0)
        .insert(first(2), first(3), 1.0); // sub-block (2, 3)
    let sink = graphsd::trace::null_sink();
    ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();

    let before = contents(&storage);
    let io_before = storage.stats().snapshot();
    let counting = sync_counting(storage.clone());
    let counted: SharedStorage = counting.clone();
    let report = compact(&counted, "", sink.as_ref()).unwrap().unwrap();
    let io = storage.stats().snapshot().since(&io_before);

    // 3 merged edge objects + 2 row indexes + degrees.bin.
    assert_eq!(report.objects_rewritten, 6);
    let after = contents(&storage);
    assert_eq!(io.write_ops, report.objects_rewritten + 1);
    assert_eq!(
        io.write_bytes,
        report.bytes_rewritten + after[META_KEY].len() as u64
    );
    assert_eq!(counting.syncs.get(), 2);
    assert!(after.keys().all(|k| !k.starts_with("delta/")));
    for i in [1, 3] {
        for key in row_keys(i, P, BlockOrder::BySource) {
            assert_eq!(after[&key], before[&key], "{key} of untouched row {i}");
        }
    }
}

/// A multigraph over intervals `{0}`, `1..30`, `30..64`: duplicate
/// `(src, dst)` pairs under different weights, self-loops, vertex 40
/// owning most of row 2, and nothing from interval 1 into interval 0.
fn hostile_edges(seed: u64) -> (Vec<Edge>, Intervals) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let weights = [0.5f32, 1.0, -2.0, 0.0, -0.0];
    let mut edges = Vec::new();
    for _ in 0..600 {
        let src = if rng.gen_range(0..10) < 4 {
            40
        } else {
            rng.gen_range(0..64)
        };
        // A narrow destination range makes repeated pairs the norm.
        let dst = match rng.gen_range(0..4) {
            0 => src,
            1 => rng.gen_range(28..34),
            _ => rng.gen_range(0..64),
        };
        if (1..30).contains(&src) && dst == 0 {
            continue;
        }
        let weight = weights[rng.gen_range(0..5) as usize];
        edges.push(Edge::weighted(src, dst, weight));
    }
    (edges, Intervals::from_boundaries(vec![0, 1, 30, 64]))
}

/// The four record layouts: `(id_bytes, weighted)`.
const LAYOUTS: [(usize, bool); 4] = [(2, false), (2, true), (4, false), (4, true)];

/// Row `i` by definition: a comparison sort on the order's full key, the
/// record's fields written out (each id as its `id_bytes`-wide offset
/// from its interval's start), and an index counted edge by edge.
fn reference_row(
    i: u32,
    blocks: &[Vec<Edge>],
    order: BlockOrder,
    intervals: &Intervals,
    (id_bytes, weighted): (usize, bool),
) -> Vec<(String, Vec<u8>)> {
    let p = blocks.len();
    let mut payloads = Vec::new();
    let mut sorted_blocks = Vec::new();
    for (j, block) in (0..).zip(blocks) {
        let (src_base, dst_base) = (intervals.range(i).start, intervals.range(j).start);
        let mut sorted = block.clone();
        match order {
            BlockOrder::Unsorted => {}
            BlockOrder::BySource => sorted.sort_by_key(|e| (e.src, e.dst, e.weight.to_bits())),
            BlockOrder::ByDest => sorted.sort_by_key(|e| (e.dst, e.src, e.weight.to_bits())),
        }
        let mut bytes = Vec::new();
        for e in &sorted {
            bytes.extend_from_slice(&(e.src - src_base).to_le_bytes()[..id_bytes]);
            bytes.extend_from_slice(&(e.dst - dst_base).to_le_bytes()[..id_bytes]);
            if weighted {
                bytes.extend_from_slice(&e.weight.to_bits().to_le_bytes());
            }
        }
        payloads.push(bytes);
        sorted_blocks.push(sorted);
    }
    if order == BlockOrder::BySource {
        // Vertex-major: for each vertex of the interval and then its end,
        // per column of a non-empty sub-block, the edges of that sub-block
        // from smaller sources, 2 bytes wide unless a block of the row
        // holds more than 65 535 edges.
        let mut index = Vec::new();
        let range = intervals.range(i);
        let width = if sorted_blocks.iter().all(|b| b.len() <= 65_535) {
            2
        } else {
            4
        };
        for v in range.start..=range.end {
            for block in sorted_blocks.iter().filter(|b| !b.is_empty()) {
                let before = block.iter().filter(|e| e.src < v).count() as u32;
                index.extend_from_slice(&before.to_le_bytes()[..width]);
            }
        }
        payloads.push(index);
    }
    row_keys(i, p as u32, order)
        .into_iter()
        .zip(payloads)
        .collect()
}

/// `bucket_edges` keeps input order inside every bucket (the `Unsorted`
/// layout is that order), and `row_objects` lays each row out to the bytes
/// of the definition, index included, in every order and every record
/// layout.
#[test]
fn rows_are_byte_identical_to_a_comparison_sorted_reference() {
    for seed in 0..8 {
        let (edges, intervals) = hostile_edges(seed);
        let p = intervals.count();
        let blocks = bucket_edges(&edges, &intervals);
        for (at, block) in blocks.iter().enumerate() {
            let (i, j) = (at as u32 / p, at as u32 % p);
            let in_input_order: Vec<Edge> = edges
                .iter()
                .filter(|e| intervals.interval_of(e.src) == i && intervals.interval_of(e.dst) == j)
                .copied()
                .collect();
            assert_eq!(*block, in_input_order, "seed {seed}: bucket ({i}, {j})");
        }
        assert!(blocks[p as usize].is_empty(), "sub-block (1, 0) is empty");
        assert!(
            blocks[2 * p as usize..]
                .iter()
                .any(|b| { b.iter().filter(|e| e.src == 40).count() * 2 > b.len() }),
            "seed {seed}: vertex 40 owns most of a sub-block"
        );

        for order in ORDERS {
            for layout in LAYOUTS {
                let mut laid_out = blocks.clone();
                let codec = EdgeCodec::new(layout.1).with_id_bytes(layout.0);
                for (i, row) in (0..p).zip(laid_out.chunks_mut(p as usize)) {
                    let want = reference_row(
                        i,
                        &blocks[(i * p) as usize..][..p as usize],
                        order,
                        &intervals,
                        layout,
                    );
                    let got = row_objects(i, row, order, &intervals, codec);
                    assert_eq!(
                        got.objects, want,
                        "seed {seed} {order:?} layout {layout:?}: row {i}"
                    );
                }
            }
        }
    }
}

/// Ops over sub-block `(i, j)` of `intervals` that hit every case of the
/// merge's net-effect rule: duplicate inserts of one pair, a delete then
/// a reinsert, an insert then a delete, a delete of a pair the block
/// does not hold, and plain inserts and deletes, half of them on pairs
/// `block` holds.
fn hostile_ops(
    rng: &mut Xoshiro256,
    block: &[Edge],
    intervals: &Intervals,
    (i, j): (u32, u32),
) -> Vec<DeltaOp> {
    let weights = [0.5f32, 1.0, -2.0, 0.0, -0.0];
    let (rows, cols) = (intervals.range(i), intervals.range(j));
    let pair = |rng: &mut Xoshiro256| {
        if !block.is_empty() && rng.gen_range(0..2) == 0 {
            let e = block[rng.gen_range(0..block.len() as u32) as usize];
            (e.src, e.dst)
        } else {
            (
                rng.gen_range(rows.start..rows.end),
                rng.gen_range(cols.start..cols.end),
            )
        }
    };
    let mut ops = Vec::new();
    for _ in 0..16 {
        let (src, dst) = pair(rng);
        let insert = |rng: &mut Xoshiro256| {
            let weight = weights[rng.gen_range(0..5) as usize];
            DeltaOp::Insert(Edge::weighted(src, dst, weight))
        };
        let delete = DeltaOp::Delete { src, dst };
        match rng.gen_range(0..5) {
            0 => ops.extend([insert(rng), insert(rng)]),
            1 => ops.extend([delete, insert(rng)]),
            2 => ops.extend([insert(rng), delete]),
            3 => ops.push(insert(rng)),
            _ => ops.push(delete),
        }
    }
    let held = |src: u32, dst: u32| block.iter().any(|e| (e.src, e.dst) == (src, dst));
    if let Some((src, dst)) = (rows.start..rows.end)
        .flat_map(|src| (cols.start..cols.end).map(move |dst| (src, dst)))
        .find(|&(src, dst)| !held(src, dst))
    {
        ops.insert(ops.len() / 2, DeltaOp::Delete { src, dst });
    }
    ops
}

/// A merged sub-block is the bytes of the definition: `merge_block` over
/// a canonically ordered block's payload equals the ops applied one by
/// one to the block's edges and laid out by `reference_row`, index
/// included, in both sorted orders and every record layout; the out-degree
/// changes it counts are the ones the naive replay makes; and the count
/// `ingest` records, `merged_count`, is the merged payload's length.
#[test]
fn merged_blocks_are_byte_identical_to_a_comparison_sorted_reference() {
    for seed in 0..8 {
        let (edges, intervals) = hostile_edges(seed);
        let p = intervals.count();
        let blocks = bucket_edges(&edges, &intervals);
        for order in [BlockOrder::BySource, BlockOrder::ByDest] {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            for i in 0..p {
                let row = &blocks[(i * p) as usize..][..p as usize];
                let (mut naive_row, mut merged_row, mut columns) = (
                    Vec::new(),
                    [(); 4].map(|()| Vec::new()),
                    [(); 4].map(|()| Vec::new()),
                );
                for (j, block) in (0..p).zip(row) {
                    let ops = hostile_ops(&mut rng, block, &intervals, (i, j));
                    let mut naive = block.clone();
                    let mut naive_degrees = BTreeMap::<u32, i64>::new();
                    for op in &ops {
                        let before = naive.len() as i64;
                        match *op {
                            DeltaOp::Insert(e) => naive.push(e),
                            DeltaOp::Delete { src, dst } => {
                                naive.retain(|e| (e.src, e.dst) != (src, dst));
                            }
                        }
                        *naive_degrees.entry(op.src()).or_default() += naive.len() as i64 - before;
                    }
                    let mut base = block.clone();
                    base.sort_by_key(|e| order.key(e));
                    for (at, layout) in LAYOUTS.into_iter().enumerate() {
                        let codec = EdgeCodec::new(layout.1)
                            .with_id_bytes(layout.0)
                            .at(intervals.range(i).start, intervals.range(j).start);
                        let base = codec.encode_all(&base);
                        let mut degrees = BTreeMap::new();
                        let (merged, offsets) = merge_block(
                            &base,
                            &ops,
                            order,
                            codec,
                            intervals.range(i),
                            &mut degrees,
                        );
                        assert_eq!(
                            degrees, naive_degrees,
                            "seed {seed} {order:?}: degree changes of ({i}, {j})"
                        );
                        assert_eq!(
                            merged_count(&base, &ops, order, codec),
                            (merged.len() / codec.edge_bytes()) as u64,
                            "seed {seed} {order:?} layout {layout:?}: ingest's count of ({i}, {j})"
                        );
                        merged_row[at].push(merged);
                        columns[at].push(offsets);
                    }
                    naive_row.push(naive);
                }
                for (at, layout) in LAYOUTS.into_iter().enumerate() {
                    let (merged_row, columns) = (&merged_row[at], &columns[at]);
                    let mut payloads: Vec<Vec<u8>> = merged_row.clone();
                    if order.has_row_index() {
                        payloads.push(row_index_object(i, columns).1);
                    }
                    let got: Vec<(String, Vec<u8>)> =
                        row_keys(i, p, order).into_iter().zip(payloads).collect();
                    let want = reference_row(i, &naive_row, order, &intervals, layout);
                    assert_eq!(
                        got, want,
                        "seed {seed} {order:?} layout {layout:?}: row {i}"
                    );
                }
            }
        }
    }
}

/// A meta that names delta segments over an unsorted (Lumos-layout) grid
/// is refused at open: its blocks have no canonical order to merge ops
/// into. `ingest` never commits one, so only a forged meta can.
#[test]
fn an_unsorted_grid_naming_delta_segments_is_refused_at_open() {
    let storage = grid_in(BlockOrder::Unsorted, "");
    let mut meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
    let payload = encode_segment(1, &[DeltaOp::Delete { src: 0, dst: 1 }]);
    storage.create(&segment_key("", 1), &payload).unwrap();
    meta.delta = Some(DeltaSection {
        epoch: 1,
        segments: vec![ObjectEntry::of(segment_key("", 1), &payload)],
        merged_block_edge_counts: meta.block_edge_counts.clone(),
    });
    meta.seal();
    storage.create(META_KEY, &meta.to_bytes()).unwrap();
    let err = GridGraph::open(storage).err().expect("the open fails");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("unsorted grid"), "{err}");
}

/// The one JSON object every open of a grid parses, at sizes far past
/// the benchmark's: a P = 64 meta (4 161 integrity entries) whose delta
/// section names 20 000 live segments and P² merged counts. It comes
/// back equal. A parser that is quadratic in the document (one UTF-8
/// validation of the rest of the input per string character) takes
/// minutes here in a debug build.
#[test]
fn large_metadata_roundtrips() {
    let p = 64u32;
    let blocks = (p * p) as u64;
    let counts: Vec<u64> = (0..blocks).map(|b| b % 7).collect();
    let num_vertices = p * 1000;
    let mut objects = vec![ObjectEntry::of(DEGREES_KEY, b"degrees")];
    for i in 0..p {
        objects.push(ObjectEntry::of(row_index_key("", i), &i.to_le_bytes()));
        for j in 0..p {
            objects.push(ObjectEntry::of(block_edges_key("", i, j), &j.to_le_bytes()));
        }
    }
    let mut meta = GridMeta {
        version: FORMAT_VERSION,
        num_vertices,
        num_edges: counts.iter().sum(),
        p,
        weighted: true,
        id_bytes: 2,
        order: BlockOrder::BySource,
        boundaries: (0..=p).map(|k| k * 1000).collect(),
        block_edge_counts: counts.clone(),
        integrity: IntegritySection::new(objects),
        delta: Some(DeltaSection {
            epoch: 20_000,
            segments: (1..=20_000u64)
                .map(|epoch| ObjectEntry::of(segment_key("", epoch), &epoch.to_le_bytes()))
                .collect(),
            merged_block_edge_counts: counts.iter().map(|c| c + 1).collect(),
        }),
    };
    meta.seal();
    assert_eq!(meta.integrity.len(), 64 * 64 + 64 + 1);
    let back = GridMeta::from_bytes(&meta.to_bytes()).unwrap();
    assert_eq!(back.delta.as_ref().unwrap().segments.len(), 20_000);
    assert_eq!(back, meta);
}

/// BFS and PageRank over `storage`'s grid against the in-memory oracle
/// on `graph`: BFS bit for bit, PageRank to the tolerance the engines
/// share (their fold orders differ).
fn assert_runs_match(storage: &SharedStorage, graph: &Graph, when: &str) {
    let runs = |grid: GridGraph| {
        let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full()).unwrap();
        let bfs = engine.run(&Bfs::new(0), &RunOptions::default()).unwrap();
        let pr = engine.run(&PageRank::with_iterations(3), &RunOptions::default());
        (bfs.values, pr.unwrap().values)
    };
    let (bfs, pr) = runs(GridGraph::open(storage.clone()).unwrap());
    let mut oracle = ReferenceEngine::new(graph);
    let want_bfs = oracle.run(&Bfs::new(0), &RunOptions::default()).unwrap();
    let want_pr = oracle.run(&PageRank::with_iterations(3), &RunOptions::default());
    assert_eq!(bfs, want_bfs.values, "{when}: BFS");
    for (v, (a, b)) in pr.iter().zip(&want_pr.unwrap().values).enumerate() {
        assert!(
            (a - b).abs() <= 1e-3 * b.abs().max(1.0),
            "{when}: PageRank of {v}: {a} vs {b}"
        );
    }
}

/// A grid whose widest interval holds more than 65 536 vertices stores
/// 4-byte offsets, and reads back the answers of the in-memory oracle:
/// fresh, through a delta overlay, and after compaction.
#[test]
fn a_grid_with_an_interval_past_65_536_vertices_stores_4_byte_ids() {
    let n = 140_000;
    let base = GeneratorConfig::new(GraphKind::ErdosRenyi, n, 200_000, 3).generate();
    let storage: SharedStorage = Arc::new(MemStorage::new());
    let config = PreprocessConfig::graphsd("").with_intervals(2);
    let (meta, _) = preprocess(&base, storage.as_ref(), &config).unwrap();
    assert!(meta.boundaries.windows(2).any(|w| w[1] - w[0] > 65_536));
    assert_eq!((meta.id_bytes, meta.codec().edge_bytes()), (4, 8));
    assert_runs_match(&storage, &base, "fresh");

    // Ops in every sub-block, at both ends of each interval.
    let mid = meta.boundaries[1];
    let mut batch = MutationBatch::new();
    let mut edges = base.edges().to_vec();
    for (src, dst) in [
        (0, n - 1),
        (n - 1, 0),
        (mid - 1, mid),
        (mid, mid - 1),
        (0, 1),
    ] {
        batch.insert(src, dst, 1.0);
        edges.push(Edge::new(src, dst));
    }
    for e in base.edges().iter().step_by(997).take(40) {
        batch.delete(e.src, e.dst);
        edges.retain(|kept| (kept.src, kept.dst) != (e.src, e.dst));
    }
    let mutated = Graph::from_edges(n, edges, false);
    let sink = graphsd::trace::null_sink();
    ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
    assert!(GridGraph::open(storage.clone())
        .unwrap()
        .overlay()
        .is_some());
    assert_runs_match(&storage, &mutated, "overlay");

    compact(&storage, "", sink.as_ref()).unwrap().unwrap();
    let grid = GridGraph::open(storage.clone()).unwrap();
    assert!(grid.overlay().is_none());
    assert_eq!(grid.meta().id_bytes, 4);
    assert_runs_match(&storage, &mutated, "compacted");
}

/// A meta recording an id width its boundaries do not take — sealed, so
/// only the shape check can catch it — is refused at open as invalid
/// data; so is a format-6 meta, which records no width.
#[test]
fn a_meta_whose_id_width_does_not_fit_its_boundaries_is_refused_at_open() {
    for (forged, version) in [(4, FORMAT_VERSION), (3, FORMAT_VERSION), (2, 6)] {
        let storage = grid_in(BlockOrder::BySource, "");
        let mut meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
        assert_eq!(meta.id_bytes, 2);
        meta.id_bytes = forged;
        meta.version = version;
        meta.seal();
        storage.create(META_KEY, &meta.to_bytes()).unwrap();
        let err = GridGraph::open(storage).err().expect("the open fails");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let why = if version == 6 {
            "unsupported grid format version 6"
        } else {
            "ids do not fit"
        };
        assert!(err.to_string().contains(why), "{err}");
    }
}

/// The two grids the row-index rule is read on: a weighted road grid at
/// P = 20, whose rows hold two or three of their twenty sub-blocks, and
/// a P = 1 grid whose one sub-block holds more than 65 535 edges.
fn index_rule_grids() -> Vec<(&'static str, SharedStorage)> {
    let road = GeneratorConfig::new(GraphKind::Grid2d, 10_000, 0, 1)
        .weighted()
        .generate();
    let dense = GeneratorConfig::new(GraphKind::RMat, 20_000, 70_000, 5).generate();
    [("road", road, 20), ("one block", dense, 1)]
        .into_iter()
        .map(|(name, graph, p)| {
            let storage: SharedStorage = Arc::new(MemStorage::new());
            let config = PreprocessConfig::graphsd("").with_intervals(p);
            preprocess(&graph, storage.as_ref(), &config).unwrap();
            (name, storage)
        })
        .collect()
}

/// Row `i` of `grid`'s index by definition: sub-block `(i, j)`'s column
/// counted from its payload, `index_column`, for every `j` (an empty
/// block's column is all zeros), laid out dense and vertex-major over
/// `rows` rows from vertex `first`.
fn dense_reference(grid: &GridGraph, i: u32, first: u32, rows: usize) -> RowIndexSpan {
    let p = grid.p();
    let range = grid.intervals().range(i);
    let mut scratch = Vec::new();
    let columns: Vec<Vec<u32>> = (0..p)
        .map(|j| {
            let payload = grid.read_block_payload(i, j, &mut scratch).unwrap();
            index_column(payload, grid.block_codec(i, j), range.clone())
        })
        .collect();
    let skip = (first - range.start) as usize;
    let offsets = (skip..skip + rows)
        .flat_map(|k| columns.iter().map(move |column| column[k]))
        .collect();
    RowIndexSpan {
        start_vertex: first,
        p,
        offsets,
    }
}

/// Every span of every row of `grid` this test reads — the whole row,
/// its first and last vertex, and seeded random spans — equals the dense
/// reference.
fn assert_spans_match_the_reference(grid: &GridGraph, seed: u64, what: &str) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for i in 0..grid.p() {
        let range = grid.intervals().range(i);
        let last = range.end - 1;
        let mut spans = vec![
            (range.start, last),
            (range.start, range.start),
            (last, last),
        ];
        for _ in 0..8 {
            let lo = rng.gen_range(range.clone());
            spans.push((lo, rng.gen_range(lo..range.end)));
        }
        for (lo, hi) in spans {
            let rows = (hi - lo + 2) as usize;
            assert_eq!(
                grid.read_row_index_span(i, lo, hi).unwrap(),
                dense_reference(grid, i, lo, rows),
                "{what}: row {i} span {lo}..={hi}"
            );
        }
    }
}

/// The row-index rule on disk: row `i`'s object is `(len_i + 1) · L_i ·
/// w_i` bytes, where `L_i` counts its non-empty sub-blocks and `w_i` is 2
/// unless one of them holds more than 65 535 edges; and every span read
/// through it equals the dense index counted from the block payloads,
/// empty blocks included.
#[test]
fn a_row_index_stores_the_columns_of_non_empty_blocks_at_the_width_they_take() {
    for (name, storage) in index_rule_grids() {
        let grid = GridGraph::open(storage.clone()).unwrap();
        let meta = grid.meta();
        let mut widths = Vec::new();
        for i in 0..grid.p() {
            let counts: Vec<u64> = (0..grid.p()).map(|j| meta.block_edge_count(i, j)).collect();
            let live = counts.iter().filter(|&&c| c > 0).count();
            let width = if counts.iter().all(|&c| c <= 65_535) {
                2
            } else {
                4
            };
            let rows = grid.intervals().range(i).len() + 1;
            let stored = storage.read_all(&row_index_key("", i)).unwrap();
            assert_eq!(stored.len(), rows * live * width, "{name}: row {i}");
            assert_eq!(grid.row_index_layout(i).bytes_per_vertex(), live * width);
            widths.push((live, width));
        }
        match name {
            "road" => assert!(widths.iter().all(|&(live, w)| live <= 3 && w == 2)),
            _ => assert_eq!(widths, [(1, 4)], "{name}: {} edges", meta.num_edges),
        }
        assert_spans_match_the_reference(&grid, 11, name);
    }
}

/// A format-7 meta is refused by its version, and a meta whose sealed
/// sub-block counts lay out a row index other than the one its manifest
/// records (one edge moved from a live block into an empty one of the
/// same row) is refused before anything is read by the wrong layout:
/// both `InvalidData` at open.
#[test]
fn a_v7_meta_and_counts_that_disagree_with_the_row_index_are_refused_at_open() {
    let (_, storage) = index_rule_grids().swap_remove(0);
    let pristine = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
    let mut v7 = pristine.clone();
    v7.version = 7;
    let mut forged = pristine.clone();
    let row: Vec<u64> = forged.block_edge_counts[..forged.p as usize].to_vec();
    let live = row.iter().position(|&c| c > 1).unwrap();
    let empty = row.iter().position(|&c| c == 0).unwrap();
    forged.block_edge_counts[live] -= 1;
    forged.block_edge_counts[empty] += 1;
    for (mut meta, why) in [
        (v7, "unsupported grid format version 7"),
        (forged, "row index blocks/r_0.ridx"),
    ] {
        meta.seal();
        storage.create(META_KEY, &meta.to_bytes()).unwrap();
        let err = GridGraph::open(storage.clone())
            .err()
            .expect("the open fails");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(why), "{err}");
    }
}

/// Two batches move a row's index layout: the first inserts into the
/// base-empty sub-block (0, 1), which gains a column, and the second
/// takes sub-block (0, 0) from 65 000 edges past 65 535, which widens row
/// 0's offsets to 4 bytes. Spans read through the overlay equal those of
/// the merged edge list preprocessed from scratch after each batch, and
/// the compacted row index is byte-identical to the re-preprocessed one.
#[test]
fn a_delta_that_fills_an_empty_block_and_widens_a_row_compacts_to_the_reprocessed_index() {
    let n = 2_000u32;
    let boundaries = vec![0, 1_000, n];
    // (0, 0): 65 000 distinct pairs, each source to 65 destinations from
    // itself on; (1, 1): a ring; (1, 0): a hundred edges; (0, 1): empty.
    let mut edges: Vec<Edge> = (0..65_000u32)
        .map(|k| Edge::new(k % 1_000, (k / 1_000 + k % 1_000) % 1_000))
        .collect();
    edges.extend((0..1_000).map(|v| Edge::new(1_000 + v, 1_000 + (v + 1) % 1_000)));
    edges.extend((0..100).map(|v| Edge::new(1_000 + v, v)));
    let config = PreprocessConfig::graphsd("").with_boundaries(boundaries);
    let storage: SharedStorage = Arc::new(MemStorage::new());
    preprocess(
        &Graph::from_edges(n, edges.clone(), false),
        storage.as_ref(),
        &config,
    )
    .unwrap();
    let layout = |grid: &GridGraph| {
        let layout = grid.row_index_layout(0);
        (layout.columns.clone(), layout.width)
    };
    assert_eq!(
        layout(&GridGraph::open(storage.clone()).unwrap()),
        (vec![0], 2)
    );

    let mut fill = MutationBatch::new();
    for (src, dst) in [(3, 1_500), (3, 1_501), (999, 1_999)] {
        fill.insert(src, dst, 1.0);
    }
    // Destinations 900–999 lie outside every base source's 65.
    let mut widen = MutationBatch::new();
    for src in 0..600u32 {
        widen.insert(src, 900 + src % 100, 1.0);
    }
    let sink = graphsd::trace::null_sink();
    let mut reference = storage.clone();
    for (batch, added) in [
        (&fill, vec![(3, 1_500), (3, 1_501), (999, 1_999)]),
        (&widen, (0..600).map(|s| (s, 900 + s % 100)).collect()),
    ] {
        ingest(storage.as_ref(), "", batch, sink.as_ref()).unwrap();
        edges.extend(added.into_iter().map(|(s, d)| Edge::new(s, d)));
        reference = Arc::new(MemStorage::new());
        let merged = Graph::from_edges(n, edges.clone(), false);
        preprocess(&merged, reference.as_ref(), &config).unwrap();
        let through = GridGraph::open(storage.clone()).unwrap();
        let scratch = GridGraph::open(reference.clone()).unwrap();
        assert!(through.overlay().is_some());
        for i in 0..2 {
            let range = through.intervals().range(i);
            for (lo, hi) in [(range.start, range.end - 1), (3, 3), (990, 999)] {
                if range.contains(&lo) {
                    assert_eq!(
                        through.read_row_index_span(i, lo, hi).unwrap(),
                        scratch.read_row_index_span(i, lo, hi).unwrap(),
                        "row {i} span {lo}..={hi}"
                    );
                }
            }
        }
    }
    let scratch = GridGraph::open(reference.clone()).unwrap();
    assert_eq!(layout(&scratch), (vec![0, 1], 4));

    compact(&storage, "", sink.as_ref()).unwrap().unwrap();
    let compacted = GridGraph::open(storage.clone()).unwrap();
    assert_eq!(layout(&compacted), (vec![0, 1], 4));
    for i in 0..2 {
        let key = row_index_key("", i);
        assert_eq!(
            storage.read_all(&key).unwrap(),
            reference.read_all(&key).unwrap(),
            "{key}"
        );
    }
    assert_spans_match_the_reference(&compacted, 5, "compacted");
}
