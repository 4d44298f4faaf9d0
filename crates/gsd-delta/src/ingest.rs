//! Ingest: committing a [`MutationBatch`] as one delta epoch.
//!
//! Write protocol (the sealed meta is the commit point — a crash at any
//! earlier step leaves the previous epoch fully intact). Everything the
//! merge reads — live segments, touched base payloads, `degrees.bin` — is
//! checked against its checksum first, so a corrupt object fails the
//! batch before step 1 writes anything:
//!
//! 1. one segment object per touched sub-block (`Storage::create` =
//!    write-temp + rename), then [`gsd_io::Storage::sync`] — segments are
//!    durable before anything references them;
//! 2. the cumulative [`DeltaManifest`] under its **epoch-keyed** name
//!    (`delta/manifest_<epoch>.json`), then sync — a crash here leaves an
//!    orphan manifest the committed meta never names;
//! 3. the resealed `meta.json` carrying the new epoch in its delta
//!    section, then sync — the commit point;
//! 4. the previous epoch's manifest is deleted (cleanup, not
//!    correctness).
//!
//! The on-disk meta keeps **base** counts (`num_edges`,
//! `block_edge_counts` describe the base payloads, preserving the
//! objects-match-meta invariant scrub checks); the manifest carries the
//! merged shape, and [`gsd_graph::GridGraph`] patches its in-memory meta
//! at open.

use crate::batch::MutationBatch;
use gsd_graph::delta::{
    apply_ops, check_base_object, check_merged_count, encode_segment, manifest_key,
    read_base_block, read_live_ops, read_manifest, segment_key, DeltaManifest, DeltaOp,
};
use gsd_graph::format::{decode_u32s, DeltaSection, GridMeta};
use gsd_graph::{BlockOrder, Edge, DEGREES_KEY, META_KEY};
use gsd_integrity::{IntegritySection, ObjectEntry};
use gsd_io::Storage;
use gsd_trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// What one committed ingest did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// The epoch the batch committed (unchanged for an empty batch).
    pub epoch: u64,
    /// Insert ops in the batch.
    pub inserts: u64,
    /// Delete ops in the batch.
    pub deletes: u64,
    /// Segment objects written.
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

    // Normalize and validate ops: weights collapse to 1 on unweighted
    // grids (their codec stores none), and every vertex must exist.
    let mut ops = batch.ops.clone();
    if !meta.weighted {
        for op in &mut ops {
            if let DeltaOp::Insert(e) = op {
                e.weight = 1.0;
            }
        }
    }
    for op in &ops {
        let (src, dst) = (op.src(), op.dst());
        if src >= meta.num_vertices || dst >= meta.num_vertices {
            return Err(invalid(format!(
                "mutation touches vertex {} but the grid has {} vertices \
                 (delta batches cannot grow the vertex set)",
                src.max(dst),
                meta.num_vertices
            )));
        }
    }

    // Prior merged state: live segments + merged counts + degree patch
    // (for a grid never mutated: none, the base counts, none).
    let prior = match meta.delta {
        Some(_) => read_manifest(storage, prefix, &meta)?,
        None => DeltaManifest::empty(0, meta.num_edges, meta.block_edge_counts.clone()),
    };
    if batch.is_empty() {
        return Ok(IngestReport {
            epoch: prior.epoch,
            inserts: 0,
            deletes: 0,
            segments: 0,
            segment_bytes: 0,
            merged_num_edges: prior.merged_num_edges,
        });
    }

    let intervals = meta.intervals();
    let p = meta.p;
    let epoch = prior.epoch + 1;

    // Group the batch per sub-block ((src, dst) determines exactly one).
    let mut new_ops: BTreeMap<(u32, u32), Vec<DeltaOp>> = BTreeMap::new();
    for op in &ops {
        let i = intervals.interval_of(op.src());
        let j = intervals.interval_of(op.dst());
        new_ops.entry((i, j)).or_default().push(*op);
    }

    let prior_ops = read_live_ops(storage, prefix, &prior, p)?;

    // Merge each touched block to derive the new merged counts and the
    // out-degree diff of the batch.
    let degrees_bytes = storage.read_all(&format!("{prefix}{DEGREES_KEY}"))?;
    check_base_object(&meta, prefix, DEGREES_KEY, &degrees_bytes)?;
    let base_degrees = decode_u32s(&degrees_bytes)?;
    let mut merged_counts = prior.merged_block_edge_counts;
    // Absolute merged out-degrees: prior patch extended by this batch.
    let mut degrees: BTreeMap<u32, u32> = prior
        .degree_vertices
        .into_iter()
        .zip(prior.degree_values)
        .collect();
    for i in 0..p {
        let mut row = new_ops.range((i, 0)..(i + 1, 0)).peekable();
        if row.peek().is_none() {
            continue;
        }
        // Every source of a row-`i` sub-block lies in interval `i`: its
        // out-degree changes are counted in an array over that interval.
        let sources = intervals.range(i);
        let mut diff = vec![0i64; sources.len()];
        let mut count = |edges: &[Edge], by: i64| -> std::io::Result<()> {
            for e in edges {
                let slot = e
                    .src
                    .checked_sub(sources.start)
                    .and_then(|k| diff.get_mut(k as usize))
                    .ok_or_else(|| {
                        invalid(format!(
                            "row {i} holds an edge from vertex {} outside its interval",
                            e.src
                        ))
                    })?;
                *slot += by;
            }
            Ok(())
        };
        for (&(_, j), block_ops) in row {
            let mut edges = read_base_block(storage, prefix, &meta, i, j)?;
            if let Some(prior) = prior_ops.get(&(i, j)) {
                apply_ops(&mut edges, prior);
            }
            let slot = (i * p + j) as usize;
            check_merged_count(i, j, edges.len(), merged_counts[slot])?;
            count(&edges, -1)?;
            apply_ops(&mut edges, block_ops);
            count(&edges, 1)?;
            merged_counts[slot] = edges.len() as u64;
        }
        for (v, change) in sources.zip(diff).filter(|&(_, change)| change != 0) {
            let current = degrees.get(&v).copied().unwrap_or(base_degrees[v as usize]);
            let merged = i64::from(current) + change;
            let merged = u32::try_from(merged).map_err(|_| {
                invalid(format!("merged out-degree of vertex {v} would be {merged}"))
            })?;
            degrees.insert(v, merged);
        }
    }

    // --- step 1: segments, durable before anything references them ---
    let mut entries = prior.segments.objects;
    let mut segment_bytes = 0u64;
    let mut segments_written = 0u64;
    for (&(i, j), block_ops) in &new_ops {
        let rel = segment_key("", epoch, i, j);
        let payload = encode_segment(epoch, i, j, block_ops);
        storage.create(&format!("{prefix}{rel}"), &payload)?;
        segment_bytes += payload.len() as u64;
        segments_written += 1;
        entries.push(ObjectEntry::of(rel, &payload));
    }
    storage.sync()?;

    // --- step 2: the cumulative manifest under its epoch-keyed name ---
    let merged_num_edges = merged_counts.iter().sum();
    let manifest = DeltaManifest {
        epoch,
        segments: IntegritySection::new(entries),
        merged_num_edges,
        merged_block_edge_counts: merged_counts,
        degree_vertices: degrees.keys().copied().collect(),
        degree_values: degrees.values().copied().collect(),
    };
    storage.create(&manifest_key(prefix, epoch), &manifest.to_bytes())?;
    storage.sync()?;

    // --- step 3: the resealed meta — the commit point ---
    meta.delta = Some(DeltaSection { epoch });
    meta.seal();
    storage.create(&format!("{prefix}{META_KEY}"), &meta.to_bytes())?;
    storage.sync()?;

    // --- step 4: cleanup; the old manifest is now unreferenced ---
    if prior.epoch > 0 {
        storage.delete(&manifest_key(prefix, prior.epoch))?;
    }

    trace.emit(&TraceEvent::DeltaApplied {
        epoch,
        inserts: batch.inserts(),
        deletes: batch.deletes(),
        segments: segments_written,
        bytes: segment_bytes,
    });

    Ok(IngestReport {
        epoch,
        inserts: batch.inserts(),
        deletes: batch.deletes(),
        segments: segments_written,
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
        storage.write_at(segment_keys[0], 22, &[0xFF]).unwrap();
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
