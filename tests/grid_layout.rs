//! One writer, one index: what a grid consists of on disk, that the
//! three programs that produce rows — `preprocess`, `repair_grid` and
//! `compact` — produce the same ones, that the counting layout writes
//! the bytes the order's definition does, and that the grid's JSON
//! metadata round-trips at sizes far past the benchmark's.

use graphsd::delta::{compact, ingest, MutationBatch};
use graphsd::graph::delta::{manifest_key, segment_key, DeltaManifest};
use graphsd::graph::format::row_index_key;
use graphsd::graph::layout::{bucket_edges, row_keys, row_objects};
use graphsd::graph::rng::Xoshiro256;
use graphsd::graph::{
    block_edges_key, preprocess, repair_grid, BlockOrder, DeltaSection, Edge, EdgeCodec,
    GeneratorConfig, Graph, GraphKind, GridGraph, GridMeta, Intervals, PreprocessConfig,
    DEGREES_KEY, FORMAT_VERSION, META_KEY,
};
use graphsd::integrity::{IntegritySection, ObjectEntry};
use graphsd::io::{MemStorage, SharedStorage};
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
        storage.write_at(&flipped, 3, &[0x40]).unwrap();

        let outcome = repair_grid(storage.as_ref(), "g/", &graph()).unwrap();
        assert!(outcome.after.is_clean(), "{order:?}");
        assert_eq!(outcome.rewritten.len(), lost.len() + 1, "{order:?}");
        assert_eq!(contents(&storage), pristine, "{order:?}");
    }
}

/// A batch confined to two rows: compaction rewrites the merged edge
/// objects, those two rows' indexes and the degree table, and creates
/// nothing else but the emptied manifest and the resealed meta.
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
    let report = compact(&storage, "", sink.as_ref()).unwrap().unwrap();
    let io = storage.stats().snapshot().since(&io_before);

    // 3 merged edge objects + 2 row indexes + degrees.bin.
    assert_eq!(report.objects_rewritten, 6);
    let after = contents(&storage);
    let commit = after[&manifest_key("", report.epoch)].len() + after[META_KEY].len();
    assert_eq!(io.write_ops, report.objects_rewritten + 2);
    assert_eq!(io.write_bytes, report.bytes_rewritten + commit as u64);
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

/// Row `i` by definition: a comparison sort on the order's full key, the
/// codec's field order written out, and an index counted edge by edge.
fn reference_row(
    i: u32,
    blocks: &[Vec<Edge>],
    order: BlockOrder,
    intervals: &Intervals,
    weighted: bool,
) -> Vec<(String, Vec<u8>)> {
    let p = blocks.len();
    let mut payloads = Vec::new();
    let mut sorted_blocks = Vec::new();
    for block in blocks {
        let mut sorted = block.clone();
        match order {
            BlockOrder::Unsorted => {}
            BlockOrder::BySource => sorted.sort_by_key(|e| (e.src, e.dst, e.weight.to_bits())),
            BlockOrder::ByDest => sorted.sort_by_key(|e| (e.dst, e.src, e.weight.to_bits())),
        }
        let mut bytes = Vec::new();
        for e in &sorted {
            bytes.extend_from_slice(&e.src.to_le_bytes());
            bytes.extend_from_slice(&e.dst.to_le_bytes());
            if weighted {
                bytes.extend_from_slice(&e.weight.to_bits().to_le_bytes());
            }
        }
        payloads.push(bytes);
        sorted_blocks.push(sorted);
    }
    if order == BlockOrder::BySource {
        // Vertex-major: for each vertex of the interval and then its end,
        // per column, the edges of that sub-block from smaller sources.
        let mut index = Vec::new();
        let range = intervals.range(i);
        for v in range.start..=range.end {
            for block in &sorted_blocks {
                let before = block.iter().filter(|e| e.src < v).count() as u32;
                index.extend_from_slice(&before.to_le_bytes());
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
/// of the definition, index included, in every order and both codecs.
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
            for weighted in [false, true] {
                let mut laid_out = blocks.clone();
                for (i, row) in (0..p).zip(laid_out.chunks_mut(p as usize)) {
                    let want = reference_row(
                        i,
                        &blocks[(i * p) as usize..][..p as usize],
                        order,
                        &intervals,
                        weighted,
                    );
                    let got = row_objects(i, row, order, &intervals, EdgeCodec::new(weighted));
                    assert_eq!(
                        got.objects, want,
                        "seed {seed} {order:?} weighted {weighted}: row {i}"
                    );
                }
            }
        }
    }
}

/// The two JSON objects every open of a mutated grid parses, at sizes far
/// past the benchmark's: a P = 64 meta (4 161 integrity entries) and a
/// manifest naming 20 000 live segments. Both come back equal. A parser
/// that is quadratic in the document (one UTF-8 validation of the rest
/// of the input per string character) takes minutes here in a debug
/// build.
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
        order: BlockOrder::BySource,
        boundaries: (0..=p).map(|k| k * 1000).collect(),
        block_edge_counts: counts.clone(),
        integrity: IntegritySection::new(objects),
        delta: Some(DeltaSection { epoch: 5 }),
    };
    meta.seal();
    assert_eq!(meta.integrity.len(), 64 * 64 + 64 + 1);
    assert_eq!(GridMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);

    let segments = (0..20_000u64)
        .map(|k| {
            let (epoch, b) = (1 + k / blocks, (k % blocks) as u32);
            ObjectEntry::of(segment_key("", epoch, b / p, b % p), &k.to_le_bytes())
        })
        .collect();
    let degree_vertices: Vec<u32> = (0..num_vertices).step_by(3).collect();
    let manifest = DeltaManifest {
        epoch: 5,
        segments: IntegritySection::new(segments),
        merged_num_edges: counts.iter().sum(),
        merged_block_edge_counts: counts,
        degree_values: degree_vertices.iter().map(|v| v % 11).collect(),
        degree_vertices,
    };
    let back = DeltaManifest::from_bytes(&manifest.to_bytes(), 5, p).unwrap();
    assert_eq!(back.segments.len(), 20_000);
    assert_eq!(back, manifest);
}
