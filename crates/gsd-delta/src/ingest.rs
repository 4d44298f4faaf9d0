//! Ingest: committing a [`MutationBatch`] as one delta epoch.
//!
//! Before anything is written, ingest derives the merged edge count of
//! each sub-block the batch touches — the delta section's
//! `merged_block_edge_counts` — from the block's base payload and its
//! ops alone: [`merged_count`] applies the overlay merge's net-effect
//! rule by binary search over the encoded base records, without
//! building the merged edge list or its index column. Everything it
//! reads is checked first: the live segments against their entries,
//! each touched base payload against the sealed meta
//! ([`read_base_block`]), and the prior ops' count against the count the
//! section records ([`check_merged_count`]), so a corrupt object or a
//! forged section fails the batch before step 1 writes anything.
//!
//! Write protocol — two objects and two syncs, however many sub-blocks
//! the batch touches (the sealed meta is the commit point, so a crash at
//! any earlier step leaves the previous epoch fully intact):
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
    check_merged_count, encode_segment, group_ops, merged_count, read_base_block, read_live_ops,
    segment_key, BlockOps, DeltaOp,
};
use gsd_graph::format::{DeltaSection, GridMeta};
use gsd_graph::{BlockOrder, META_KEY};
use gsd_integrity::ObjectEntry;
use gsd_io::Storage;
use gsd_trace::{TraceEvent, TraceSink};

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

    // Count each touched block's new merged edges from its checked base
    // payload: the prior ops must give the count the section records,
    // and the prior ops followed by the batch's give the new one.
    let prior_ops = read_live_ops(storage, prefix, &meta)?;
    let (p, codec) = (meta.p, meta.codec());
    for (&(i, j), block_ops) in &new_ops {
        let base = read_base_block(storage, prefix, &meta, i, j)?;
        let prior = prior_ops.get(&(i, j)).map_or(&[][..], Vec::as_slice);
        let slot = (i * p + j) as usize;
        let count = |ops: &[DeltaOp]| merged_count(&base, ops, meta.order, codec);
        check_merged_count(i, j, count(prior), merged_counts[slot])?;
        merged_counts[slot] = count(&[prior, block_ops].concat());
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
    use std::collections::BTreeMap;
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
        // Merged or not, a block's undecoded payload is as long as the
        // patched meta says and decodes to what `read_block_into` reads.
        let (mut buf, mut scratch, mut edges) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..3 {
            for j in 0..3 {
                let payload = grid.read_block_payload(i, j, &mut buf).unwrap();
                assert_eq!(payload.len() as u64, grid.meta().block_bytes(i, j));
                grid.read_block_into(i, j, &mut scratch, &mut edges)
                    .unwrap();
                assert_eq!(grid.codec().decode_all(payload), edges);
            }
        }
        assert!(grid.overlay().is_some_and(|o| o.block(0, 0).is_some()));
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

    /// Epoch 2 deletes pairs epoch 1 inserted (one with base copies, one
    /// without) and re-inserts them, while a third pair epoch 1 inserted
    /// into the same block survives: the counts ingest records from the
    /// base payloads equal the blocks an open merges.
    #[test]
    fn cross_epoch_counts_match_the_merged_blocks() {
        let (g, storage) = setup(3);
        let e = g.edges()[0];
        let meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
        let column = meta.intervals().range(meta.intervals().interval_of(e.dst));
        let mut absent = column
            .map(|dst| (e.src, dst))
            .filter(|&(src, dst)| !g.edges().iter().any(|x| (x.src, x.dst) == (src, dst)));
        let (fresh, kept) = (absent.next().unwrap(), absent.next().unwrap());
        let sink = gsd_trace::null_sink();
        let mut b1 = MutationBatch::new();
        b1.insert(e.src, e.dst, 1.0)
            .insert(fresh.0, fresh.1, 1.0)
            .insert(kept.0, kept.1, 1.0);
        let mut b2 = MutationBatch::new();
        b2.delete(e.src, e.dst)
            .delete(fresh.0, fresh.1)
            .insert(e.src, e.dst, 1.0)
            .insert(fresh.0, fresh.1, 1.0);
        ingest(storage.as_ref(), "", &b1, sink.as_ref()).unwrap();
        let report = ingest(storage.as_ref(), "", &b2, sink.as_ref()).unwrap();

        let meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
        let recorded = meta.delta.unwrap().merged_block_edge_counts;
        assert_eq!(report.merged_num_edges, recorded.iter().sum::<u64>());
        let grid = GridGraph::open(storage.clone()).unwrap();
        let (mut scratch, mut edges) = (Vec::new(), Vec::new());
        for i in 0..3 {
            for j in 0..3 {
                grid.read_block_into(i, j, &mut scratch, &mut edges)
                    .unwrap();
                assert_eq!(
                    edges.len() as u64,
                    recorded[(i * 3 + j) as usize],
                    "({i}, {j})"
                );
                for pair in [(e.src, e.dst), fresh, kept] {
                    let copies = edges.iter().filter(|x| (x.src, x.dst) == pair).count();
                    assert!(copies <= 1, "{pair:?} holds {copies} copies in ({i}, {j})");
                }
            }
        }
        assert_eq!(grid.num_edges(), report.merged_num_edges);
        assert!(grid.overlay().is_some_and(|o| o.block_count() >= 1));
    }

    /// A meta whose delta section records a wrong merged count for a
    /// block the batch touches is refused, and nothing is written.
    #[test]
    fn a_forged_prior_count_is_refused_before_anything_is_written() {
        let (_, storage) = setup(2);
        let sink = gsd_trace::null_sink();
        let mut b1 = MutationBatch::new();
        b1.insert(0, 1, 1.0);
        ingest(storage.as_ref(), "", &b1, sink.as_ref()).unwrap();
        let mut meta = GridMeta::from_bytes(&storage.read_all(META_KEY).unwrap()).unwrap();
        let intervals = meta.intervals();
        let slot = (intervals.interval_of(0) * 2 + intervals.interval_of(1)) as usize;
        if let Some(delta) = meta.delta.as_mut() {
            delta.merged_block_edge_counts[slot] += 1;
        }
        meta.seal();
        storage.create(META_KEY, &meta.to_bytes()).unwrap();

        let contents = |storage: &SharedStorage| -> BTreeMap<String, Vec<u8>> {
            let keys = storage.list_keys();
            keys.into_iter()
                .map(|key| (key.clone(), storage.read_all(&key).unwrap()))
                .collect()
        };
        let before = contents(&storage);
        let writes = storage.stats().snapshot().write_ops;
        let mut b2 = MutationBatch::new();
        b2.insert(0, 1, 1.0);
        let err = ingest(storage.as_ref(), "", &b2, sink.as_ref()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("delta section records"), "{err}");
        assert_eq!(storage.stats().snapshot().write_ops, writes);
        assert_eq!(contents(&storage), before);
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
