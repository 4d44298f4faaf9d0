//! Compaction: folding live delta segments into rewritten base sub-blocks.
//!
//! The merged edge list (read through the overlay) is re-derived into
//! fresh base payloads with [`gsd_graph::integrity::rebuild_payloads`]
//! and — before anything is written — **fingerprint-checked against a
//! full re-preprocess** of the same edge list into scratch memory
//! storage, pinned to the grid's existing interval boundaries. Byte
//! inequality anywhere aborts the pass with the grid untouched.
//!
//! Like `repair_grid`, the write-back is in-place maintenance, not a
//! crash-atomic commit: a crash mid-pass can leave rewritten payloads
//! next to a meta that still references the segments. That state is
//! *detectable* (the overlay loader verifies every base payload it
//! merges and fails loudly on mismatch) and the write order minimizes
//! the window — payloads first, then the emptied manifest, then the
//! resealed meta (epoch unchanged), then segment deletion. Run `gsd
//! scrub` after a suspect interruption.
//!
//! The epoch survives compaction on purpose: checkpoints are pinned to
//! the meta bytes, and the meta changes here anyway (new counts, new
//! checksums), so warm state from before the pass is conservatively
//! invalidated either way.

use gsd_graph::delta::{manifest_key, read_manifest, DeltaManifest};
use gsd_graph::format::GridMeta;
use gsd_graph::integrity::rebuild_payloads;
use gsd_graph::preprocess::{preprocess, PreprocessConfig};
use gsd_graph::{Graph, GridGraph, META_KEY};
use gsd_integrity::{fnv64, IntegritySection, ObjectEntry};
use gsd_io::{MemStorage, SharedStorage, Storage};
use gsd_trace::{TraceEvent, TraceSink};

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

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
    /// FNV-1a fingerprint over every (key, payload) of the rebuilt grid —
    /// equal by construction to the fingerprint of a full re-preprocess
    /// of the merged edge list.
    pub fingerprint: u64,
}

/// Deterministic fingerprint of a rebuilt object set: FNV-1a over
/// key/len/payload in key order.
fn payloads_fingerprint<'a>(objects: impl Iterator<Item = (&'a String, &'a Vec<u8>)>) -> u64 {
    let mut bytes = Vec::new();
    for (key, payload) in objects {
        bytes.extend_from_slice(key.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
    }
    fnv64(&bytes)
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
    let grid = GridGraph::open_with_prefix(storage.clone(), prefix)?;
    if grid.overlay().is_none() {
        return Ok(None);
    }
    // ...and the raw on-disk meta (base counts, the state being replaced).
    let disk_meta = GridMeta::from_bytes(&storage.read_all(&format!("{prefix}{META_KEY}"))?)?;
    let manifest = read_manifest(storage.as_ref(), prefix, &disk_meta)?;
    let epoch = manifest.epoch;
    trace.emit(&TraceEvent::CompactionStarted {
        epoch,
        segments: manifest.segments.len() as u64,
        bytes: manifest.segments.total_bytes(),
    });

    // Collect the merged edge list through the overlay read path.
    let p = grid.p();
    let mut edges = Vec::with_capacity(grid.num_edges() as usize);
    let mut scratch = Vec::new();
    let mut block = Vec::new();
    for i in 0..p {
        for j in 0..p {
            grid.read_block_into(i, j, &mut scratch, &mut block)?;
            edges.extend_from_slice(&block);
        }
    }
    let graph = Graph::from_edges(grid.num_vertices(), edges, disk_meta.weighted);

    // Target meta: merged counts become the new base; epoch unchanged.
    let mut new_meta = disk_meta.clone();
    new_meta.num_edges = grid.meta().num_edges;
    new_meta.block_edge_counts = grid.meta().block_edge_counts.clone();
    let rebuilt = rebuild_payloads(&graph, &new_meta)?;

    // Fingerprint check: a full re-preprocess of the merged edge list,
    // pinned to the same boundaries and layout flags, must produce the
    // same bytes for every object. Nothing is written until it does.
    let mem = MemStorage::new();
    let scratch_config = PreprocessConfig {
        key_prefix: String::new(),
        num_intervals: None,
        memory_budget_bytes: None,
        degree_balanced: false,
        boundaries: Some(disk_meta.boundaries.clone()),
        sort_blocks: disk_meta.sorted,
        build_index: disk_meta.indexed,
        sort_by_dst: disk_meta.dst_sorted,
    };
    let (scratch_meta, _) = preprocess(&graph, &mem, &scratch_config)?;
    if scratch_meta.block_edge_counts != new_meta.block_edge_counts {
        return Err(invalid(
            "compaction produced different per-block edge counts than re-preprocessing",
        ));
    }
    for (key, payload) in &rebuilt {
        let fresh = mem.read_all(key)?;
        if &fresh != payload {
            return Err(invalid(format!(
                "compaction of {key:?} is not byte-identical to re-preprocessing \
                 the merged edge list; aborting with the grid untouched"
            )));
        }
    }
    let fingerprint = payloads_fingerprint(rebuilt.iter());

    // --- write-back: changed payloads first ---
    let base_section = &disk_meta.integrity;
    let mut objects_rewritten = 0u64;
    let mut bytes_rewritten = 0u64;
    let mut entries = Vec::with_capacity(rebuilt.len());
    for (key, payload) in &rebuilt {
        let entry = ObjectEntry::of(key, payload);
        if base_section.lookup(key) != Some(&entry) {
            storage.create(&format!("{prefix}{key}"), payload)?;
            objects_rewritten += 1;
            bytes_rewritten += payload.len() as u64;
        }
        entries.push(entry);
    }
    storage.sync()?;

    // --- the emptied manifest: merged now equals base ---
    let empty = DeltaManifest::empty(
        epoch,
        new_meta.num_edges,
        new_meta.block_edge_counts.clone(),
    );
    storage.create(&manifest_key(prefix, epoch), &empty.to_bytes())?;
    storage.sync()?;

    // --- the resealed meta: new counts, fresh checksums, same epoch ---
    new_meta.integrity = IntegritySection::new(entries);
    new_meta.seal();
    storage.create(&format!("{prefix}{META_KEY}"), &new_meta.to_bytes())?;
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
        fingerprint,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::MutationBatch;
    use crate::ingest::ingest;
    use gsd_graph::{GeneratorConfig, GraphKind};
    use gsd_io::Storage;
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
