//! Delta sub-block segments: streaming mutations layered over a base grid.
//!
//! A preprocessed grid is immutable; mutations arrive as **append-only
//! delta segments** (LSM-style). One ingested batch = one *epoch*: for
//! every sub-block `(i, j)` the batch touches, the writer appends one
//! segment object holding that block's insert/delete records, then
//! commits a cumulative [`DeltaManifest`] and finally rewrites the sealed
//! `meta.json` with the new epoch (see [`crate::format::DeltaSection`]). The meta is the commit point: a
//! crash mid-ingest leaves orphaned segment objects that no committed
//! manifest references, never a half-applied batch.
//!
//! ```text
//! <prefix>delta/seg_<epoch>_<i>_<j>.ops   — one block's ops of one epoch
//! <prefix>delta/manifest_<epoch>.json     — cumulative DeltaManifest
//! ```
//!
//! # The merging read path
//!
//! [`GridGraph::open`](crate::grid::GridGraph) on a meta with a delta
//! section loads a [`DeltaOverlay`]: every touched sub-block is
//! materialized in memory as its **merged** form — base edges with
//! deletes removed and inserts merged into canonical sort position —
//! together with its recomputed per-vertex offsets. Block and edge-run
//! reads of a merged sub-block are served from the overlay; a row-index
//! read fetches the base span as on any grid and replaces the columns of
//! merged sub-blocks with the overlay's offsets. So every engine, the
//! prefetch pipeline and the serve daemon see base+delta as one logical
//! grid without any code of their own, and untouched blocks read from
//! storage unchanged.
//!
//! Because sub-blocks are sorted by a canonical total order (see
//! [`BlockOrder::sort`](crate::layout::BlockOrder::sort)), the merged
//! payload is **byte-identical** to what a full re-preprocess of the
//! merged edge list would write — what makes compaction a row-by-row
//! rewrite, and the reason analytic results on base+delta match a
//! from-scratch grid bit for bit.
//!
//! # Mutation semantics
//!
//! An insert appends one copy of the edge (the grid is a multiset of
//! edges, as preprocessing preserves duplicates); a delete removes
//! **every** copy of its `(src, dst)` pair. Ops within a batch and
//! across epochs apply in order. Mutations never grow the vertex set.
//!
//! # Integrity
//!
//! Each segment is covered by an `ObjectEntry` (length + CRC32) in the
//! manifest's [`IntegritySection`]; the manifest's entry list is guarded
//! by its section CRC and pinned to the sealed meta through the epoch.
//! Overlay loading and `ingest` check every segment and every base
//! payload they merge ([`read_base_block`]) with `ObjectEntry::check`, so
//! a mismatch is a `CorruptionError` naming the object, and `scrub`
//! extends to segments (see [`crate::integrity`]).

use crate::format::{block_edges_key, GridMeta, FORMAT_VERSION, META_KEY};
use crate::types::{Edge, VertexId};
use gsd_integrity::{CorruptionError, IntegritySection};
use gsd_io::Storage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Magic prefix of a delta segment payload.
pub const SEGMENT_MAGIC: &[u8; 4] = b"GSDS";

/// Key of the delta segment holding sub-block `(i, j)`'s ops of `epoch`.
pub fn segment_key(prefix: &str, epoch: u64, i: u32, j: u32) -> String {
    format!("{prefix}delta/seg_{epoch:08}_{i}_{j}.ops")
}

/// Key of the cumulative delta manifest committed at `epoch`.
pub fn manifest_key(prefix: &str, epoch: u64) -> String {
    format!("{prefix}delta/manifest_{epoch:08}.json")
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// One edge mutation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Append one copy of the edge.
    Insert(Edge),
    /// Remove every copy of the `(src, dst)` pair.
    Delete {
        /// Source vertex of the removed pair.
        src: VertexId,
        /// Destination vertex of the removed pair.
        dst: VertexId,
    },
}

impl DeltaOp {
    /// Source vertex the op touches.
    pub fn src(&self) -> VertexId {
        match self {
            DeltaOp::Insert(e) => e.src,
            DeltaOp::Delete { src, .. } => *src,
        }
    }

    /// Destination vertex the op touches.
    pub fn dst(&self) -> VertexId {
        match self {
            DeltaOp::Insert(e) => e.dst,
            DeltaOp::Delete { dst, .. } => *dst,
        }
    }
}

/// Decoded header of one segment payload (whose version, once decoded, is
/// [`FORMAT_VERSION`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Epoch the segment belongs to.
    pub epoch: u64,
    /// Source interval of the sub-block.
    pub i: u32,
    /// Destination interval of the sub-block.
    pub j: u32,
}

/// Encodes one segment payload: magic, header, then 13 bytes per record
/// (`op:u8, src:u32, dst:u32, weight-bits:u32`, all little-endian; weight
/// bits are zero for deletes). The encoding is byte-deterministic, so a
/// segment's manifest CRC is reproducible from its ops.
pub fn encode_segment(epoch: u64, i: u32, j: u32, ops: &[DeltaOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + ops.len() * 13);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&i.to_le_bytes());
    out.extend_from_slice(&j.to_le_bytes());
    out.extend_from_slice(&crate::narrow::from_usize(ops.len(), "segment op count").to_le_bytes());
    for op in ops {
        match op {
            DeltaOp::Insert(e) => {
                out.push(0);
                out.extend_from_slice(&e.src.to_le_bytes());
                out.extend_from_slice(&e.dst.to_le_bytes());
                out.extend_from_slice(&e.weight.to_bits().to_le_bytes());
            }
            DeltaOp::Delete { src, dst } => {
                out.push(1);
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    out
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize, what: &str) -> std::io::Result<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| invalid(format!("truncated delta segment ({what})")))?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn take_u32(bytes: &[u8], pos: &mut usize, what: &str) -> std::io::Result<u32> {
    let b = take(bytes, pos, 4, what)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
}

/// Decodes one segment payload, validating magic, version and record
/// count. Total: corrupt input is an `InvalidData` error, never a panic.
pub fn decode_segment(bytes: &[u8]) -> std::io::Result<(SegmentHeader, Vec<DeltaOp>)> {
    let mut pos = 0usize;
    if take(bytes, &mut pos, 4, "magic")? != SEGMENT_MAGIC {
        return Err(invalid("delta segment magic mismatch"));
    }
    let version = take_u32(bytes, &mut pos, "version")?;
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported delta segment version {version} (supported: {FORMAT_VERSION})"
        )));
    }
    let epoch = u64::from_le_bytes(
        take(bytes, &mut pos, 8, "epoch")?
            .try_into()
            .expect("8-byte slice"),
    );
    let i = take_u32(bytes, &mut pos, "row")?;
    let j = take_u32(bytes, &mut pos, "column")?;
    let count = take_u32(bytes, &mut pos, "count")? as usize;
    if bytes.len() - pos != count * 13 {
        return Err(invalid(format!(
            "delta segment body is {} bytes but {count} records need {}",
            bytes.len() - pos,
            count * 13
        )));
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = take(bytes, &mut pos, 1, "op tag")?[0];
        let src = take_u32(bytes, &mut pos, "src")?;
        let dst = take_u32(bytes, &mut pos, "dst")?;
        let wbits = take_u32(bytes, &mut pos, "weight")?;
        ops.push(match tag {
            0 => DeltaOp::Insert(Edge::weighted(src, dst, f32::from_bits(wbits))),
            1 => DeltaOp::Delete { src, dst },
            t => return Err(invalid(format!("unknown delta op tag {t}"))),
        });
    }
    Ok((SegmentHeader { epoch, i, j }, ops))
}

/// The cumulative delta manifest: every live segment with its checksum,
/// plus the **merged** shape of the grid (edge totals, per-block counts,
/// changed out-degrees) so readers derive the logical graph without
/// replaying ops at open just to count.
///
/// The manifest key carries its epoch
/// ([`manifest_key`]) and the sealed meta names the same epoch, so a
/// torn ingest (manifest written, meta not) leaves the previous
/// epoch's manifest authoritative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaManifest {
    /// Epoch this manifest commits (== `meta.delta.epoch`).
    pub epoch: u64,
    /// Checksums of every live segment (prefix-relative keys). Empty
    /// right after a compaction.
    pub segments: IntegritySection,
    /// `|E|` of the merged (base + delta) graph.
    pub merged_num_edges: u64,
    /// Merged per-sub-block edge counts, row-major (`P × P` entries).
    pub merged_block_edge_counts: Vec<u64>,
    /// Vertices whose merged out-degree differs from `degrees.bin`
    /// (ascending).
    pub degree_vertices: Vec<u32>,
    /// Merged absolute out-degrees, parallel to `degree_vertices`.
    pub degree_values: Vec<u32>,
}

impl DeltaManifest {
    /// A manifest with no live segments: merged equals base.
    pub fn empty(epoch: u64, num_edges: u64, block_edge_counts: Vec<u64>) -> Self {
        DeltaManifest {
            epoch,
            segments: IntegritySection::new(Vec::new()),
            merged_num_edges: num_edges,
            merged_block_edge_counts: block_edge_counts,
            degree_vertices: Vec::new(),
            degree_values: Vec::new(),
        }
    }

    /// Serializes to JSON bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec_pretty(self).expect("DeltaManifest serializes")
    }

    /// Parses a manifest and validates it against the `epoch` and grid
    /// size `p` of the sealed meta that names it (whose format version is
    /// the manifest's too).
    pub fn from_bytes(bytes: &[u8], epoch: u64, p: u32) -> std::io::Result<Self> {
        let manifest: DeltaManifest = serde_json::from_slice(bytes)
            .map_err(|e| invalid(format!("delta manifest failed to parse: {e}")))?;
        if manifest.epoch != epoch {
            return Err(invalid(format!(
                "delta manifest epoch {} does not match the sealed meta epoch {epoch}",
                manifest.epoch
            )));
        }
        manifest
            .segments
            .verify_section(&manifest_key("", manifest.epoch))
            .map_err(|e| e.into_io())?;
        if manifest.merged_block_edge_counts.len() != (p * p) as usize
            || manifest.merged_block_edge_counts.iter().sum::<u64>() != manifest.merged_num_edges
            || manifest.degree_vertices.len() != manifest.degree_values.len()
        {
            return Err(invalid("inconsistent delta manifest"));
        }
        Ok(manifest)
    }
}

/// Reads and validates the manifest committed by `meta` (which must carry
/// a delta section).
pub fn read_manifest(
    storage: &dyn Storage,
    prefix: &str,
    meta: &GridMeta,
) -> std::io::Result<DeltaManifest> {
    let section = meta
        .delta
        .as_ref()
        .ok_or_else(|| invalid("grid has no delta section"))?;
    let bytes = storage.read_all(&manifest_key(prefix, section.epoch))?;
    DeltaManifest::from_bytes(&bytes, section.epoch, meta.p)
}

/// One merged (base + delta) sub-block held in memory by the overlay.
#[derive(Debug, Clone)]
pub struct OverlayBlock {
    /// Encoded merged edge payload — byte-identical to what a full
    /// re-preprocess of the merged edge list would write for this block.
    pub bytes: Vec<u8>,
    /// Merged per-source CSR offsets — this sub-block's column of its
    /// row's index (empty on formats without one).
    pub offsets: Vec<u32>,
}

/// In-memory merge of all live delta segments over their base sub-blocks.
///
/// Immutable once loaded and shared behind an `Arc`, so cloned
/// [`GridGraph`](crate::grid::GridGraph) handles (engine + pipeline
/// workers) read it concurrently without locks.
#[derive(Debug, Default)]
pub struct DeltaOverlay {
    blocks: BTreeMap<(u32, u32), OverlayBlock>,
    /// Sparse merged out-degree patch over `degrees.bin`.
    degrees: BTreeMap<u32, u32>,
    /// Bytes held across merged payloads + indexes (for cost accounting).
    resident_bytes: u64,
}

impl DeltaOverlay {
    /// The merged sub-block `(i, j)`, if this overlay materializes it.
    pub fn block(&self, i: u32, j: u32) -> Option<&OverlayBlock> {
        self.blocks.get(&(i, j))
    }

    /// The merged sub-blocks of row `i` as `(j, block)`, by column.
    pub fn row_blocks(&self, i: u32) -> impl Iterator<Item = (u32, &OverlayBlock)> {
        self.blocks
            .range((i, 0)..=(i, u32::MAX))
            .map(|(&(_, j), block)| (j, block))
    }

    /// The rows holding at least one merged sub-block, ascending.
    pub fn merged_rows(&self) -> Vec<u32> {
        let mut rows: Vec<u32> = self.blocks.keys().map(|&(i, _)| i).collect();
        rows.dedup();
        rows
    }

    /// Applies the merged out-degree patch to a freshly loaded base
    /// degree table.
    pub fn patch_degrees(&self, degrees: &mut [u32]) {
        for (&v, &d) in &self.degrees {
            degrees[v as usize] = d;
        }
    }

    /// Number of merged sub-blocks resident in memory.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of merged payloads and indexes resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

/// Applies `ops` in order to `edges`: an insert appends one copy, a delete
/// removes every copy of its pair. The result is in no particular order.
pub fn apply_ops(edges: &mut Vec<Edge>, ops: &[DeltaOp]) {
    for op in ops {
        match op {
            DeltaOp::Insert(e) => edges.push(*e),
            DeltaOp::Delete { src, dst } => edges.retain(|e| e.src != *src || e.dst != *dst),
        }
    }
}

/// Checks `payload`, just read from the base object `rel_key` of the grid
/// under `prefix`, against the sealed meta's integrity entry: what every
/// merge of delta ops into a base object stands on.
pub fn check_base_object(
    meta: &GridMeta,
    prefix: &str,
    rel_key: &str,
    payload: &[u8],
) -> std::io::Result<()> {
    let key = format!("{prefix}{rel_key}");
    let checked = match meta.integrity.lookup(rel_key) {
        Some(entry) => entry.check(&key, payload),
        None => Err(CorruptionError::manifest(
            format!("{prefix}{META_KEY}"),
            format!("no integrity entry for base object {rel_key:?}"),
        )),
    };
    checked.map_err(CorruptionError::into_io)
}

/// Reads base sub-block `(i, j)` of the grid `meta` (the sealed, on-disk
/// meta) describes, checks it with [`check_base_object`] and decodes it —
/// the one way both the overlay loader and `ingest` get the edges they
/// replay ops over. One whole-object read; the check runs on its bytes,
/// so an object of the wrong length is a corruption error, not a short
/// read.
pub fn read_base_block(
    storage: &dyn Storage,
    prefix: &str,
    meta: &GridMeta,
    i: u32,
    j: u32,
) -> std::io::Result<Vec<Edge>> {
    let payload = storage.read_all(&block_edges_key(prefix, i, j))?;
    check_base_object(meta, prefix, &block_edges_key("", i, j), &payload)?;
    Ok(meta.codec().decode_all(&payload))
}

/// Fails unless sub-block `(i, j)`, merged with its live ops, holds the
/// `want` edges the delta manifest records — the check that catches
/// ops replayed over payloads they were already folded into.
pub fn check_merged_count(i: u32, j: u32, merged: usize, want: u64) -> std::io::Result<()> {
    if merged as u64 != want {
        return Err(invalid(format!(
            "sub-block ({i}, {j}) merges to {merged} edges but the delta manifest records {want}"
        )));
    }
    Ok(())
}

/// Reads, verifies and decodes every live segment `manifest` names and
/// groups the ops per sub-block of a `P × P` grid, in epoch order
/// (manifest entries are key-sorted; the zero-padded epoch in the key
/// makes that epoch order).
pub fn read_live_ops(
    storage: &dyn Storage,
    prefix: &str,
    manifest: &DeltaManifest,
    p: u32,
) -> std::io::Result<BTreeMap<(u32, u32), Vec<DeltaOp>>> {
    let mut per_block: BTreeMap<(u32, u32), Vec<DeltaOp>> = BTreeMap::new();
    for entry in &manifest.segments.objects {
        let key = format!("{prefix}{}", entry.key);
        let payload = storage.read_all(&key)?;
        entry
            .check(&key, &payload)
            .map_err(CorruptionError::into_io)?;
        let (header, ops) = decode_segment(&payload)?;
        if header.i >= p || header.j >= p || header.epoch > manifest.epoch {
            return Err(invalid(format!(
                "delta segment {:?} names sub-block ({}, {}) epoch {} outside the grid",
                entry.key, header.i, header.j, header.epoch
            )));
        }
        per_block
            .entry((header.i, header.j))
            .or_default()
            .extend(ops);
    }
    Ok(per_block)
}

/// Loads the delta overlay named by `meta` and patches the in-memory meta
/// to the **merged** shape (`num_edges`, `block_edge_counts`), so every
/// consumer of [`GridMeta`] — engines skipping empty blocks, the
/// scheduler's `C_r`/`C_s` cost model pricing `|E|·(M+W)` — sees base and
/// delta as one graph. The on-disk meta keeps base counts; only the
/// handle's copy is patched.
///
/// Returns `None` (and leaves the meta untouched) when the grid carries
/// no delta section or no live segments.
pub(crate) fn load_overlay(
    storage: &dyn Storage,
    prefix: &str,
    meta: &mut GridMeta,
) -> std::io::Result<Option<DeltaOverlay>> {
    if meta.delta.is_none() {
        return Ok(None);
    }
    let manifest = read_manifest(storage, prefix, meta)?;
    if manifest.segments.is_empty() {
        // Compacted (or degenerate) state: merged equals base.
        return Ok(None);
    }
    let codec = meta.codec();
    let intervals = meta.intervals();
    let p = meta.p;

    let per_block = read_live_ops(storage, prefix, &manifest, p)?;

    let mut overlay = DeltaOverlay::default();
    let mut scratch_counts = meta.block_edge_counts.clone();
    for (&(i, j), ops) in &per_block {
        let mut merged = read_base_block(storage, prefix, meta, i, j)?;
        apply_ops(&mut merged, ops);
        // Canonical order again, so the payload and its index column are
        // the bytes a re-preprocess of the merged edge list would write.
        let offsets = meta.order.sort(i, j, &intervals, &mut merged);
        let want = manifest.merged_block_edge_counts[(i * p + j) as usize];
        check_merged_count(i, j, merged.len(), want)?;
        let bytes = codec.encode_all(&merged);
        let index_bytes = (offsets.len() * 4) as u64;
        overlay.resident_bytes += bytes.len() as u64 + index_bytes;
        scratch_counts[(i * p + j) as usize] = want;
        overlay
            .blocks
            .insert((i, j), OverlayBlock { bytes, offsets });
    }

    for (&v, &d) in manifest.degree_vertices.iter().zip(&manifest.degree_values) {
        if v >= meta.num_vertices {
            return Err(invalid(format!(
                "delta manifest patches out-degree of vertex {v} beyond |V| = {}",
                meta.num_vertices
            )));
        }
        overlay.degrees.insert(v, d);
    }

    // Patch the in-memory meta to the merged shape.
    meta.num_edges = manifest.merged_num_edges;
    meta.block_edge_counts = scratch_counts;
    Ok(Some(overlay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockOrder;
    use crate::partition::Intervals;
    use gsd_integrity::ObjectEntry;

    /// Merges as `load_overlay` does, into the only sub-block of an
    /// 8-vertex, one-interval grid.
    fn merge(base: &[Edge], ops: &[DeltaOp]) -> Vec<Edge> {
        let mut edges = base.to_vec();
        apply_ops(&mut edges, ops);
        BlockOrder::BySource.sort(0, 0, &Intervals::uniform(8, 1), &mut edges);
        edges
    }

    #[test]
    fn segment_roundtrip() {
        let ops = vec![
            DeltaOp::Insert(Edge::weighted(3, 9, 0.5)),
            DeltaOp::Delete { src: 1, dst: 2 },
            DeltaOp::Insert(Edge::new(0, 7)),
        ];
        let bytes = encode_segment(5, 1, 2, &ops);
        let (header, back) = decode_segment(&bytes).unwrap();
        assert_eq!(
            header,
            SegmentHeader {
                epoch: 5,
                i: 1,
                j: 2
            }
        );
        assert_eq!(back, ops);
    }

    #[test]
    fn segment_decode_rejects_corruption() {
        let bytes = encode_segment(1, 0, 0, &[DeltaOp::Delete { src: 1, dst: 2 }]);
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF; // magic
        assert!(decode_segment(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 99; // version
        assert!(decode_segment(&bad).is_err());
        let mut bad = bytes;
        bad[24] = 7; // op tag
        assert!(decode_segment(&bad).is_err());
    }

    #[test]
    fn merge_applies_ops_in_order() {
        let base = vec![Edge::new(0, 1), Edge::new(0, 3), Edge::new(2, 1)];
        // Delete (0,3), insert (0,2), then insert and delete (4,4): net
        // effect is the delete wins over the earlier insert.
        let ops = vec![
            DeltaOp::Delete { src: 0, dst: 3 },
            DeltaOp::Insert(Edge::new(0, 2)),
            DeltaOp::Insert(Edge::new(4, 4)),
            DeltaOp::Delete { src: 4, dst: 4 },
        ];
        let merged = merge(&base, &ops);
        assert_eq!(
            merged,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 1)]
        );
    }

    #[test]
    fn merge_delete_removes_every_copy_and_reinsert_restores() {
        let base = vec![Edge::new(5, 6), Edge::new(5, 6)];
        let merged = merge(&base, &[DeltaOp::Delete { src: 5, dst: 6 }]);
        assert!(merged.is_empty());
        let merged = merge(
            &base,
            &[
                DeltaOp::Delete { src: 5, dst: 6 },
                DeltaOp::Insert(Edge::new(5, 6)),
            ],
        );
        assert_eq!(merged, vec![Edge::new(5, 6)]);
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        let manifest = DeltaManifest {
            epoch: 2,
            segments: IntegritySection::new(vec![ObjectEntry::of(
                segment_key("", 2, 0, 0),
                b"payload",
            )]),
            merged_num_edges: 5,
            merged_block_edge_counts: vec![5],
            degree_vertices: vec![3],
            degree_values: vec![2],
        };
        let back = DeltaManifest::from_bytes(&manifest.to_bytes(), 2, 1).unwrap();
        assert_eq!(back, manifest);

        // Epoch mismatch against the sealed meta: refused.
        let mut stale = manifest.clone();
        stale.epoch = 1;
        let err = DeltaManifest::from_bytes(&stale.to_bytes(), 2, 1).unwrap_err();
        assert!(err.to_string().contains("epoch"), "{err}");

        // Merged counts that do not sum: refused.
        let mut bad = manifest;
        bad.merged_num_edges = 99;
        assert!(DeltaManifest::from_bytes(&bad.to_bytes(), 2, 1).is_err());
    }

    #[test]
    fn keys_sort_by_epoch() {
        // The zero-padded epoch makes lexicographic key order == epoch
        // order, which the overlay relies on to replay ops in sequence.
        assert!(segment_key("", 2, 0, 0) < segment_key("", 10, 0, 0));
        assert!(manifest_key("", 9,) < manifest_key("", 11));
    }
}
