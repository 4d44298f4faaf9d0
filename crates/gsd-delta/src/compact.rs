//! Compaction: folding live delta segments into rewritten base sub-blocks.
//!
//! Only rows that hold a merged sub-block change, so the pass walks those
//! rows one at a time: it reads the row's `P` sub-blocks through the
//! overlay (merged where segments apply, verified base bytes elsewhere)
//! and lays the row out again with [`gsd_graph::layout::row_objects`] —
//! the function `preprocess` writes every row with. There is one
//! implementation of the layout, so a compacted row *is* what a
//! from-scratch preprocess of the merged edge list would write for it;
//! nothing is derived twice and compared. Objects whose bytes did not
//! change (an untouched sub-block of a touched row) are not rewritten.
//!
//! Like `repair_grid`, the write-back is in-place maintenance, not a
//! crash-atomic commit, but every torn state is *detectable*. The write
//! order is payloads, the resealed meta (epoch unchanged), the emptied
//! manifest, then segment deletion:
//!
//! - a crash among the payloads leaves rewritten payloads next to the old
//!   meta; the overlay loader checks every base payload it merges against
//!   the meta and fails with a corruption error;
//! - a crash after the meta leaves the old manifest over the compacted
//!   payloads, so its ops replay onto payloads they were folded into.
//!   That is the identity, or it grows a block (an insert not followed by
//!   a delete of its pair lands twice), which the loader's and `ingest`'s
//!   merged-count check reports.
//!
//! Run `gsd scrub` after a suspect interruption.
//!
//! The epoch survives compaction on purpose: checkpoints are pinned to
//! the meta bytes, and the meta changes here anyway (new counts, new
//! checksums), so warm state from before the pass is conservatively
//! invalidated either way.

use gsd_graph::delta::{manifest_key, read_manifest, DeltaManifest};
use gsd_graph::format::GridMeta;
use gsd_graph::layout::{degrees_object, row_objects};
use gsd_graph::{Edge, GridGraph, VerifyPolicy, META_KEY};
use gsd_integrity::{fnv64, IntegritySection, ObjectEntry};
use gsd_io::SharedStorage;
use gsd_trace::{TraceEvent, TraceSink};
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
    // The overlay-merged view (meta patched to merged counts)...
    let mut grid = GridGraph::open_with_prefix(storage.clone(), prefix)?;
    let Some(merged_rows) = grid.overlay().map(|overlay| overlay.merged_rows()) else {
        return Ok(None);
    };
    // Base sub-blocks of a touched row are laid out again from what is
    // read here, so they are checked against the manifest as they arrive.
    grid.set_verification(VerifyPolicy::Full);
    // ...and the raw on-disk meta (base counts, the state being replaced).
    let disk_meta = GridMeta::from_bytes(&storage.read_all(&format!("{prefix}{META_KEY}"))?)?;
    let manifest = read_manifest(storage.as_ref(), prefix, &disk_meta)?;
    let epoch = manifest.epoch;
    trace.emit(&TraceEvent::CompactionStarted {
        epoch,
        segments: manifest.segments.len() as u64,
        bytes: manifest.segments.total_bytes(),
    });

    // --- write-back: changed payloads first, row by row ---
    let mut entries: BTreeMap<String, ObjectEntry> = disk_meta
        .integrity
        .objects
        .iter()
        .map(|entry| (entry.key.clone(), entry.clone()))
        .collect();
    let mut objects_rewritten = 0u64;
    let mut bytes_rewritten = 0u64;
    let mut replace = |(rel, payload): (String, Vec<u8>)| {
        let entry = ObjectEntry::of(rel.as_str(), &payload);
        if entries.get(&rel) != Some(&entry) {
            storage.create(&format!("{prefix}{rel}"), &payload)?;
            objects_rewritten += 1;
            bytes_rewritten += payload.len() as u64;
            entries.insert(rel, entry);
        }
        std::io::Result::Ok(())
    };
    let mut scratch = Vec::new();
    for i in merged_rows {
        let mut row: Vec<Vec<Edge>> = vec![Vec::new(); grid.p() as usize];
        for (j, block) in (0..).zip(&mut row) {
            grid.read_block_into(i, j, &mut scratch, block)?;
        }
        row_objects(i, &mut row, disk_meta.order, grid.intervals(), grid.codec())
            .objects
            .into_iter()
            .try_for_each(&mut replace)?;
    }
    replace(degrees_object(&grid.load_out_degrees()?))?;
    storage.sync()?;

    // --- the resealed meta: new counts, fresh checksums, same epoch ---
    let merged = grid.meta();
    let mut new_meta = disk_meta;
    new_meta.num_edges = merged.num_edges;
    new_meta.block_edge_counts = merged.block_edge_counts.clone();
    new_meta.integrity = IntegritySection::new(entries.into_values().collect());
    new_meta.seal();
    storage.create(&format!("{prefix}{META_KEY}"), &new_meta.to_bytes())?;
    storage.sync()?;

    // --- the emptied manifest: merged now equals base ---
    let empty = DeltaManifest::empty(epoch, merged.num_edges, merged.block_edge_counts.clone());
    storage.create(&manifest_key(prefix, epoch), &empty.to_bytes())?;
    storage.sync()?;

    // --- cleanup: the folded segments are now unreferenced ---
    for entry in &manifest.segments.objects {
        storage.delete(&format!("{prefix}{}", entry.key))?;
    }

    trace.emit(&TraceEvent::CompactionFinished {
        epoch,
        blocks_rewritten: objects_rewritten,
        bytes: bytes_rewritten,
    });
    Ok(Some(CompactReport {
        epoch,
        segments_folded: manifest.segments.len() as u64,
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
