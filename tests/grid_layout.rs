//! One writer, one index: what a grid consists of on disk, and that the
//! three programs that produce rows — `preprocess`, `repair_grid` and
//! `compact` — produce the same ones.

use graphsd::delta::{compact, ingest, MutationBatch};
use graphsd::graph::delta::manifest_key;
use graphsd::graph::layout::row_keys;
use graphsd::graph::{
    preprocess, repair_grid, BlockOrder, GeneratorConfig, Graph, GraphKind, GridGraph,
    PreprocessConfig, META_KEY,
};
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
