//! Compaction: folding live delta segments into rewritten base sub-blocks.
//!
//! Only rows that hold a merged sub-block change, so the pass walks those
//! rows one at a time. Each merged sub-block's overlay payload already is
//! the bytes a from-scratch preprocess of the merged edge list would
//! write for it (`merge_block` produces canonical order), so it is
//! written as it stands: nothing is decoded, sorted or re-encoded. The
//! row index is laid out by [`gsd_graph::layout::row_index_object`], the
//! function `preprocess` writes every row index with, from the overlay's
//! columns; on a `BySource` grid an untouched sub-block of a touched row
//! is read (verified against the meta) only to count its column. An
//! untouched sub-block is not rewritten and not checksummed again; a
//! merged one, the row index and the degree table are rewritten only
//! when their bytes changed.
//!
//! Write order: the changed payloads, sync, the resealed meta (same
//! epoch, no segments, the merged counts as its base counts), sync —
//! then the folded segments are deleted, as cleanup. Like `repair_grid`,
//! the payload write-back is in-place maintenance, not a crash-atomic
//! commit, but every torn state is *detectable*: a crash among the
//! payloads leaves rewritten payloads next to the old meta, and the
//! overlay loader checks every base object it merges (sub-blocks and
//! the degree table) against that meta and fails with a corruption
//! error. A crash after the meta leaves only unnamed segments behind.
//!
//! Run `gsd scrub` after a suspect interruption.
//!
//! The epoch survives compaction on purpose: checkpoints are pinned to
//! the meta bytes, and the meta changes here anyway (new counts, new
//! checksums), so warm state from before the pass is conservatively
//! invalidated either way.

use gsd_graph::format::DeltaSection;
use gsd_graph::layout::{degrees_object, index_column, row_index_object};
use gsd_graph::{block_edges_key, GridGraph, VerifyPolicy, META_KEY};
use gsd_integrity::{fnv64, IntegritySection, ObjectEntry};
use gsd_io::SharedStorage;
use gsd_trace::{TraceEvent, TraceSink};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// What one compaction pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Epoch of the grid (unchanged by compaction).
    pub epoch: u64,
    /// Live segments folded and deleted.
    pub segments_folded: u64,
    /// Base objects whose bytes changed and were rewritten.
    pub objects_rewritten: u64,
    /// Bytes of rewritten objects.
    pub bytes_rewritten: u64,
    /// FNV-1a over the key, length and checksum of every object of the
    /// compacted grid (the resealed meta's integrity entries) — equal to
    /// the same hash over a from-scratch preprocess of the merged edge
    /// list.
    pub fingerprint: u64,
}

/// Folds every live delta segment of the grid under `prefix` into
/// rewritten base sub-blocks. Returns `None` when the grid has no live
/// segments (nothing to do — including grids that were never mutated).
pub fn compact(
    storage: &SharedStorage,
    prefix: &str,
    trace: &dyn TraceSink,
) -> std::io::Result<Option<CompactReport>> {
    // The overlay-merged view: the handle's meta is the sealed one with
    // its counts patched to the merged shape.
    let mut grid = GridGraph::open_with_prefix(storage.clone(), prefix)?;
    let Some(overlay) = grid.overlay().cloned() else {
        return Ok(None);
    };
    // Untouched sub-blocks of a touched row give the row index their
    // columns, so they are checked against the meta as they arrive.
    grid.set_verification(VerifyPolicy::Full);
    let mut new_meta = grid.meta().clone();
    let epoch = grid.delta_epoch();
    let folded = new_meta
        .delta
        .take()
        .map(|delta| delta.segments)
        .unwrap_or_default();
    trace.emit(&TraceEvent::CompactionStarted {
        epoch,
        segments: folded.len() as u64,
        bytes: folded.iter().map(|entry| entry.len).sum(),
    });

    // The merged degree table, formed before anything is written.
    let degrees = degrees_object(&grid.load_out_degrees()?);

    // --- write-back: changed payloads first, row by row ---
    let mut entries: BTreeMap<String, ObjectEntry> = new_meta
        .integrity
        .objects
        .iter()
        .map(|entry| (entry.key.clone(), entry.clone()))
        .collect();
    let mut objects_rewritten = 0u64;
    let mut bytes_rewritten = 0u64;
    let mut replace = |rel: String, payload: &[u8]| {
        let entry = ObjectEntry::of(rel.as_str(), payload);
        if entries.get(&rel) != Some(&entry) {
            storage.create(&format!("{prefix}{rel}"), payload)?;
            objects_rewritten += 1;
            bytes_rewritten += payload.len() as u64;
            entries.insert(rel, entry);
        }
        std::io::Result::Ok(())
    };
    let (order, codec) = (new_meta.order, grid.codec());
    let mut scratch = Vec::new();
    for i in overlay.merged_rows() {
        let mut columns: Vec<Cow<[u32]>> = Vec::new();
        for j in 0..grid.p() {
            match overlay.block(i, j) {
                Some(block) => {
                    replace(block_edges_key("", i, j), &block.bytes)?;
                    columns.push(Cow::Borrowed(&block.offsets));
                }
                None if order.has_row_index() => {
                    let payload = grid.read_block_payload(i, j, &mut scratch)?;
                    let sources = grid.intervals().range(i);
                    columns.push(Cow::Owned(index_column(payload, codec, sources)));
                }
                None => {}
            }
        }
        if order.has_row_index() {
            let (rel, index) = row_index_object(i, &columns);
            replace(rel, &index)?;
        }
    }
    replace(degrees.0, &degrees.1)?;
    storage.sync()?;

    // --- the resealed meta: merged counts become base counts ---
    new_meta.delta = Some(DeltaSection {
        epoch,
        segments: Vec::new(),
        merged_block_edge_counts: new_meta.block_edge_counts.clone(),
    });
    new_meta.integrity = IntegritySection::new(entries.into_values().collect());
    new_meta.seal();
    storage.create(&format!("{prefix}{META_KEY}"), &new_meta.to_bytes())?;
    storage.sync()?;

    // --- cleanup: the folded segments are now unreferenced ---
    for entry in &folded {
        storage.delete(&format!("{prefix}{}", entry.key))?;
    }

    trace.emit(&TraceEvent::CompactionFinished {
        epoch,
        blocks_rewritten: objects_rewritten,
        bytes: bytes_rewritten,
    });
    Ok(Some(CompactReport {
        epoch,
        segments_folded: folded.len() as u64,
        objects_rewritten,
        bytes_rewritten,
        fingerprint: fnv64(&new_meta.integrity.canonical_bytes()),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MutationBatch;
    use crate::ingest::ingest;
    use gsd_graph::preprocess::{preprocess, PreprocessConfig};
    use gsd_graph::{GeneratorConfig, Graph, GraphKind};
    use gsd_io::{MemStorage, Storage};
    use std::sync::Arc;

    fn setup(p: u32) -> (Graph, SharedStorage) {
        let g = GeneratorConfig::new(GraphKind::RMat, 120, 600, 9).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(p),
        )
        .unwrap();
        (g, storage)
    }

    #[test]
    fn compact_folds_segments_and_matches_full_preprocess() {
        let (g, storage) = setup(3);
        let sink = gsd_trace::null_sink();
        let mut batch = MutationBatch::new();
        batch.insert(0, 7, 1.0).delete(2, 1).insert(5, 5, 1.0);
        ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();

        let report = compact(&storage, "", sink.as_ref()).unwrap().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(report.segments_folded >= 1);
        assert!(report.objects_rewritten >= 1);

        // Segments are gone; the grid opens with no overlay.
        assert!(storage.list_keys().iter().all(|k| !k.ends_with(".ops")));
        let grid = GridGraph::open(storage.clone()).unwrap();
        assert!(grid.overlay().is_none());
        assert_eq!(grid.delta_epoch(), 1);

        // The compacted grid equals a from-scratch preprocess of the
        // merged edge list, byte for byte on every data object.
        let mut edges = g.edges().to_vec();
        edges.retain(|e| !(e.src == 2 && e.dst == 1));
        edges.push(gsd_graph::Edge::new(0, 7));
        edges.push(gsd_graph::Edge::new(5, 5));
        let merged = Graph::from_edges(g.num_vertices(), edges, false);
        let mem = MemStorage::new();
        let boundaries = grid.meta().boundaries.clone();
        preprocess(
            &merged,
            &mem,
            &PreprocessConfig {
                boundaries: Some(boundaries),
                ..PreprocessConfig::graphsd("")
            },
        )
        .unwrap();
        for key in mem.list_keys() {
            if key == META_KEY {
                continue;
            }
            assert_eq!(
                storage.read_all(&key).unwrap(),
                mem.read_all(&key).unwrap(),
                "object {key:?} differs from a from-scratch preprocess"
            );
        }

        // Scrub passes on the compacted grid.
        let (_, scrub) = gsd_graph::scrub_grid(storage.as_ref(), "").unwrap();
        assert!(scrub.is_clean(), "{scrub:?}");
    }

    #[test]
    fn compact_without_segments_is_none() {
        let (_, storage) = setup(2);
        let sink = gsd_trace::null_sink();
        assert!(compact(&storage, "", sink.as_ref()).unwrap().is_none());
        // After ingest + compact, a second compact is also a no-op.
        let mut batch = MutationBatch::new();
        batch.insert(0, 1, 1.0);
        ingest(storage.as_ref(), "", &batch, sink.as_ref()).unwrap();
        assert!(compact(&storage, "", sink.as_ref()).unwrap().is_some());
        assert!(compact(&storage, "", sink.as_ref()).unwrap().is_none());
    }
}
