//! Ingest: committing a [`MutationBatch`] as one delta epoch.
//!
//! Write protocol — two objects and two syncs, however many sub-blocks
//! the batch touches (the sealed meta is the commit point, so a crash at
//! any earlier step leaves the previous epoch fully intact). Everything
//! the merge reads — live segments and touched base payloads — is
//! checked against its checksum first, so a corrupt object fails the
//! batch before step 1 writes anything:
//!
//! 1. the batch's one segment object, `delta/seg_<epoch>.ops`
//!    (`Storage::create` = write-temp + rename), then
//!    [`gsd_io::Storage::sync`] — durable before anything names it; a
//!    crash here leaves one orphan segment the committed meta never
//!    names, which the re-run overwrites;
//! 2. the resealed `meta.json`, whose delta section names the new
//!    segment and the new merged counts, then sync — the commit point.
//!
//! There is no cleanup step. The on-disk meta keeps **base** counts
//! (`num_edges`, `block_edge_counts` describe the base payloads,
//! preserving the objects-match-meta invariant scrub checks); the delta
//! section carries the merged counts, and [`gsd_graph::GridGraph`]
//! patches its in-memory meta at open.

use crate::batch::MutationBatch;
use gsd_graph::delta::{
    apply_ops, check_merged_count, encode_segment, group_ops, read_base_block, read_live_ops,
    segment_key, BlockOps, DeltaOp,
};
use gsd_graph::format::{DeltaSection, GridMeta};
use gsd_graph::{BlockOrder, META_KEY};
use gsd_integrity::ObjectEntry;
use gsd_io::Storage;
use gsd_trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;

/// What one committed ingest did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// The epoch the batch committed (unchanged for an empty batch).
    pub epoch: u64,
    /// Insert ops in the batch.
    pub inserts: u64,
    /// Delete ops in the batch.
    pub deletes: u64,
    /// Segment objects written (1, or 0 for an empty batch).
    pub segments: u64,
    /// Total segment bytes written.
    pub segment_bytes: u64,
    /// `|E|` of the merged graph after the batch.
    pub merged_num_edges: u64,
}

/// Commits `batch` against the grid under `prefix` as one new epoch.
///
/// Requirements: a sorted grid (the merge path relies on the canonical
/// sub-block order; Lumos-layout unsorted grids are rejected) and every
/// op inside the existing vertex universe (mutations never grow `|V|`).
///
/// An empty batch is a no-op that reports the current epoch.
pub fn ingest(
    storage: &dyn Storage,
    prefix: &str,
    batch: &MutationBatch,
    trace: &dyn TraceSink,
) -> std::io::Result<IngestReport> {
    let meta_bytes = storage.read_all(&format!("{prefix}{META_KEY}"))?;
    let mut meta = GridMeta::from_bytes(&meta_bytes)?;
    if meta.order == BlockOrder::Unsorted {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "delta ingest requires a sorted grid format (unsorted Lumos-layout grids \
             have no canonical sub-block order to merge into)",
        ));
    }

    // Normalize ops: weights collapse to 1 on unweighted grids (their
    // codec stores none). Grouping them per sub-block ((src, dst)
    // determines exactly one) checks every vertex exists.
    let mut ops = batch.ops.clone();
    if !meta.weighted {
        for op in &mut ops {
            if let DeltaOp::Insert(e) = op {
                e.weight = 1.0;
            }
        }
    }
    let mut new_ops = BlockOps::new();
    group_ops(&meta, &ops, &mut new_ops)?;

    // The section this batch extends (for a grid never mutated: epoch 0,
    // no segments, the base counts).
    let DeltaSection {
        epoch: prior_epoch,
        mut segments,
        merged_block_edge_counts: mut merged_counts,
    } = meta.delta.clone().unwrap_or_else(|| DeltaSection {
        epoch: 0,
        segments: Vec::new(),
        merged_block_edge_counts: meta.block_edge_counts.clone(),
    });
    if batch.is_empty() {
        return Ok(IngestReport {
            epoch: prior_epoch,
            inserts: 0,
            deletes: 0,
            segments: 0,
            segment_bytes: 0,
            merged_num_edges: merged_counts.iter().sum(),
        });
    }
    let epoch = prior_epoch + 1;

    // Merge each touched block to derive the new merged counts.
    let prior_ops = read_live_ops(storage, prefix, &meta)?;
    let p = meta.p;
    // Ingest forms no degree: the merge counts the changes, and they go.
    let mut degrees = BTreeMap::new();
    for (&(i, j), block_ops) in &new_ops {
        let mut edges = read_base_block(storage, prefix, &meta, i, j)?;
        if let Some(prior) = prior_ops.get(&(i, j)) {
            apply_ops(&mut edges, prior, &mut degrees);
        }
        let slot = (i * p + j) as usize;
        check_merged_count(i, j, edges.len() as u64, merged_counts[slot])?;
        apply_ops(&mut edges, block_ops, &mut degrees);
        merged_counts[slot] = edges.len() as u64;
    }

    // --- step 1: the segment, durable before anything names it ---
    let rel = segment_key("", epoch);
    let payload = encode_segment(epoch, &ops);
    storage.create(&format!("{prefix}{rel}"), &payload)?;
    storage.sync()?;
    segments.push(ObjectEntry::of(rel, &payload));

    // --- step 2: the resealed meta — the commit point ---
    let merged_num_edges = merged_counts.iter().sum();
    meta.delta = Some(DeltaSection {
        epoch,
        segments,
        merged_block_edge_counts: merged_counts,
    });
    meta.seal();
    storage.create(&format!("{prefix}{META_KEY}"), &meta.to_bytes())?;
    storage.sync()?;

    let segment_bytes = payload.len() as u64;
    trace.emit(&TraceEvent::DeltaApplied {
        epoch,
        inserts: batch.inserts(),
        deletes: batch.deletes(),
        segments: 1,
        bytes: segment_bytes,
    });

    Ok(IngestReport {
        epoch,
        inserts: batch.inserts(),
        deletes: batch.deletes(),
        segments: 1,
        segment_bytes,
        merged_num_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::preprocess::{preprocess, PreprocessConfig};
    use gsd_graph::{GeneratorConfig, GraphKind, GridGraph};
    use gsd_io::{MemStorage, SharedStorage};
    use std::sync::Arc;

    fn setup(p: u32) -> (gsd_graph::Graph, SharedStorage) {
        let g = GeneratorConfig::new(GraphKind::RMat, 120, 600, 7).generate();
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
    fn ingest_commits_delta_section_and_merged_view() {
        let (g, storage) = setup(3);
        let mut batch = MutationBatch::new();
        batch.insert(0, 5, 1.0).insert(0, 5, 1.0).delete(1, 0);
        let report = ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.inserts, 2);
        assert_eq!(report.deletes, 1);
        assert!(report.segments >= 1);

        let grid = GridGraph::open(storage.clone()).unwrap();
        assert_eq!(grid.delta_epoch(), 1);
        // Two copies of (0,5) added; every copy of (1,0) removed.
        let copies_10 = g
            .edges()
            .iter()
            .filter(|e| e.src == 1 && e.dst == 0)
            .count() as u64;
        assert_eq!(
            grid.num_edges(),
            g.num_edges() + 2 - copies_10,
            "merged |E| patched at open"
        );
        let degrees = grid.load_out_degrees().unwrap();
        assert_eq!(degrees[0], g.out_degrees()[0] + 2);
        assert_eq!(degrees[1], g.out_degrees()[1] - copies_10 as u32,);
    }

    #[test]
    fn successive_epochs_stack() {
        let (_, storage) = setup(2);
        let mut b1 = MutationBatch::new();
        b1.insert(3, 4, 1.0);
        let mut b2 = MutationBatch::new();
        b2.delete(3, 4);
        let sink = gsd_trace::null_sink();
        let r1 = ingest(storage.as_ref(), "", &b1, sink.as_ref()).unwrap();
        let r2 = ingest(storage.as_ref(), "", &b2, sink.as_ref()).unwrap();
        assert_eq!((r1.epoch, r2.epoch), (1, 2));
        let grid = GridGraph::open(storage.clone()).unwrap();
        assert_eq!(grid.delta_epoch(), 2);
        // The delete removed the epoch-1 insert AND any base copies.
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for i in 0..2 {
            for j in 0..2 {
                grid.read_block_into(i, j, &mut scratch, &mut out).unwrap();
                assert!(
                    !out.iter().any(|e| e.src == 3 && e.dst == 4),
                    "copy of (3,4) survived in block ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (g, storage) = setup(2);
        let before = storage.read_all(META_KEY).unwrap();
        let report = ingest(
            storage.as_ref(),
            "",
            &MutationBatch::new(),
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.merged_num_edges, g.num_edges());
        assert_eq!(storage.read_all(META_KEY).unwrap(), before);
    }

    #[test]
    fn out_of_range_vertex_is_rejected() {
        let (_, storage) = setup(2);
        let mut batch = MutationBatch::new();
        batch.insert(0, 100_000, 1.0);
        let err = ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("grow the vertex set"), "{err}");
    }

    #[test]
    fn unsorted_grid_is_rejected() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 50, 100, 1).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::lumos("").with_intervals(2),
        )
        .unwrap();
        let mut batch = MutationBatch::new();
        batch.insert(0, 1, 1.0);
        let err = ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported);
    }

    #[test]
    fn ingest_rekeys_checkpoint_identity() {
        // The checkpoint store pins checkpoints to the fingerprint of the meta
        // bytes. The epoch lives in the resealed meta, so every ingest
        // (and compaction, which reseals counts and checksums) produces
        // a new identity and warm checkpoints cannot resume across a
        // mutation.
        let (_, storage) = setup(2);
        let fp0 = gsd_core::checkpoint::graph_fingerprint(storage.as_ref(), "").unwrap();
        let mut batch = MutationBatch::new();
        batch.insert(0, 9, 1.0);
        ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        let fp1 = gsd_core::checkpoint::graph_fingerprint(storage.as_ref(), "").unwrap();
        assert_ne!(fp0, fp1, "epoch 1 must re-key checkpoint identity");
        let mut b2 = MutationBatch::new();
        b2.delete(0, 9);
        ingest(storage.as_ref(), "", &b2, gsd_trace::null_sink().as_ref()).unwrap();
        let fp2 = gsd_core::checkpoint::graph_fingerprint(storage.as_ref(), "").unwrap();
        assert_ne!(fp1, fp2, "epoch 2 must re-key again");
    }

    #[test]
    fn scrub_covers_live_segments() {
        let (_, storage) = setup(2);
        let mut batch = MutationBatch::new();
        batch.insert(1, 2, 1.0).delete(0, 1);
        let report = ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        let (_, scrub) = gsd_graph::scrub_grid(storage.as_ref(), "").unwrap();
        assert!(scrub.is_clean(), "{scrub:?}");
        let segment_keys: Vec<&str> = scrub
            .objects
            .iter()
            .map(|o| o.key.as_str())
            .filter(|k| k.ends_with(".ops"))
            .collect();
        assert_eq!(segment_keys.len() as u64, report.segments);

        // A flipped bit in a segment is caught by the same pass.
        let mut rotted = storage.read_all(segment_keys[0]).unwrap();
        rotted[22] = 0xFF;
        storage.create(segment_keys[0], &rotted).unwrap();
        let (_, scrub) = gsd_graph::scrub_grid(storage.as_ref(), "").unwrap();
        assert_eq!(scrub.counts().1, 1);
        assert!(scrub.corrupt().next().unwrap().key.ends_with(".ops"));
    }

    #[test]
    fn weights_collapse_on_unweighted_grids() {
        let (_, storage) = setup(2);
        let mut batch = MutationBatch::new();
        batch.insert(2, 3, 42.0);
        ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        let grid = GridGraph::open(storage).unwrap();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        let intervals = grid.intervals().clone();
        let (i, j) = (intervals.interval_of(2), intervals.interval_of(3));
        grid.read_block_into(i, j, &mut scratch, &mut out).unwrap();
        let inserted = out.iter().find(|e| e.src == 2 && e.dst == 3).unwrap();
        assert_eq!(inserted.weight, 1.0);
    }
}
