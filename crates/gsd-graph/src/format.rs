//! The on-disk 2-D grid format: metadata, key naming and binary encodings.
//!
//! Layout under a key prefix (several formats can share one store):
//!
//! ```text
//! <prefix>meta.json               — GridMeta (JSON)
//! <prefix>degrees.bin             — out-degree per vertex, u32 LE
//! <prefix>blocks/b_<i>_<j>.edges  — sub-block (i,j) edge records, in the meta's BlockOrder
//! <prefix>blocks/r_<i>.ridx       — row i's vertex-major index, non-empty columns (BySource only)
//! <prefix>delta/seg_<epoch>.ops   — one mutation batch's ops (crate::delta)
//! ```
//!
//! The row index realizes the paper's `index(i, j)` structure: column `j`
//! of row `i`'s index holds, for each vertex of interval `i`, its first
//! edge (by index, not byte) within sub-block `(i, j)`, so one vertex's
//! edge list in a sub-block is a single contiguous byte range — the
//! property GraphSD's on-demand I/O model relies on — and one request
//! resolves it in every sub-block of the row. Which objects a row
//! consists of is decided in one place, [`crate::layout`].
//!
//! An edge record stores interval-relative ids: `src − start(i)`, then
//! `dst − start(j)`, each [`GridMeta::id_bytes`] wide (2 when every
//! interval holds at most 65 536 vertices, else 4: [`id_bytes_for`]),
//! then the `f32` weight on a weighted grid ([`crate::types::EdgeCodec`]).
//!
//! # Format version
//!
//! One [`FORMAT_VERSION`] (8) names the layout, the row index
//! ([`RowIndexLayout`]) and the record above, the
//! `integrity` section of `meta.json` (one CRC32 + length per data object
//! and a whole-meta self-check CRC, see
//! [`gsd_integrity::IntegritySection`]), its delta section and the delta
//! segment encoding. Readers refuse any other
//! value at open — re-run `gsd preprocess`; there is no migrator. A
//! mutated grid is one whose meta carries a [`DeltaSection`].

use crate::layout::BlockOrder;
use crate::partition::Intervals;
use gsd_integrity::{crc32, CorruptionError, IntegritySection, ObjectEntry};
use serde::{Deserialize, Serialize, Value};

/// Key of the metadata object.
pub const META_KEY: &str = "meta.json";
/// Key of the out-degree table.
pub const DEGREES_KEY: &str = "degrees.bin";

/// Key of sub-block `(i, j)`'s edge payload under `prefix`.
pub fn block_edges_key(prefix: &str, i: u32, j: u32) -> String {
    format!("{prefix}blocks/b_{i}_{j}.edges")
}

/// Key of row `i`'s combined vertex-major index under `prefix`.
///
/// Layout: for each vertex `v` of interval `i` (plus one terminator row),
/// one little-endian offset per column `j` the row's
/// [`RowIndexLayout`] stores, ascending — the edge offset of `v`'s first
/// edge inside sub-block `(i, j)`. A column is stored when sub-block
/// `(i, j)` holds an edge, and every offset is 2 bytes wide when every
/// block of the row holds at most 65 535 edges, 4 otherwise; an
/// unstored column reads as zero. One span read of rows `lo ..= hi+1`
/// resolves the edge ranges of vertices `lo..=hi` in **every** block of the
/// row, so a selective reader pays a single index request per active
/// cluster instead of one per sub-block.
pub fn row_index_key(prefix: &str, i: u32) -> String {
    format!("{prefix}blocks/r_{i}.ridx")
}

/// The class of a grid object, by its prefix-relative key: what `gsd info`
/// and `gsd scrub` count objects by.
pub fn object_class(rel_key: &str) -> &'static str {
    match rel_key {
        DEGREES_KEY => "degrees",
        key if key.ends_with(".edges") => "edges",
        key if key.ends_with(".ridx") => "row index",
        key if key.starts_with("delta/") => "delta segments",
        _ => "other",
    }
}

/// Serialized description of a preprocessed grid graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridMeta {
    /// Format version (bumped on incompatible changes).
    pub version: u32,
    /// Number of vertices `|V|`.
    pub num_vertices: u32,
    /// Number of edges `|E|`.
    pub num_edges: u64,
    /// Number of intervals `P`.
    pub p: u32,
    /// Whether edges carry 4-byte weights on disk.
    pub weighted: bool,
    /// Bytes per stored id, 2 or 4: [`id_bytes_for`] of the boundaries
    /// (see [`crate::types::EdgeCodec`] for the record layout).
    pub id_bytes: u32,
    /// How each sub-block's edges are ordered; rows carry a row index
    /// exactly when this is [`BlockOrder::BySource`].
    pub order: BlockOrder,
    /// Interval boundaries (`P + 1` entries).
    pub boundaries: Vec<u32>,
    /// Edge count of each sub-block, row-major: entry `i * P + j` is
    /// sub-block `(i, j)`. Lets engines skip empty blocks without I/O.
    pub block_edge_counts: Vec<u64>,
    /// Per-object checksum manifest.
    pub integrity: IntegritySection,
    /// `null` until the grid accepts its first mutation batch.
    pub delta: Option<DeltaSection>,
}

/// The format version: written into every meta and delta segment, and
/// the only value readers accept.
pub const FORMAT_VERSION: u32 = 8;

/// Widest interval a 2-byte id can address: its offsets run 0..=65 535.
const NARROW_INTERVAL: u32 = 1 << 16;

/// The id width of a grid with interval `boundaries`: 2 bytes when every
/// interval holds at most 65 536 vertices, 4 otherwise. The one rule;
/// preprocessing records its result and open refuses any other value.
pub fn id_bytes_for(boundaries: &[u32]) -> u32 {
    let widest = boundaries.windows(2).map(|w| w[1] - w[0]).max();
    if widest.unwrap_or(0) <= NARROW_INTERVAL {
        2
    } else {
        4
    }
}

/// Most edges a sub-block may hold for its row-index offsets to be
/// 2 bytes wide: its offsets then run 0..=65 535.
const NARROW_BLOCK: u64 = u16::MAX as u64;

/// How row `i`'s index object stores its columns: the one rule, a pure
/// function of the row's sealed sub-block edge counts (so it needs no
/// meta field of its own). A column `j` is stored exactly when sub-block
/// `(i, j)` holds an edge; every stored offset is [`Self::width`] bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIndexLayout {
    /// The stored columns, ascending.
    pub columns: Vec<u32>,
    /// Bytes per stored offset: 2 when every sub-block of the row holds
    /// at most 65 535 edges, 4 otherwise.
    pub width: usize,
}

impl RowIndexLayout {
    /// The layout of a row whose `P` sub-blocks hold `counts` edges, by
    /// column.
    pub fn of(counts: &[u64]) -> Self {
        let columns = (0u32..).zip(counts).filter(|&(_, &c)| c > 0);
        let width = if counts.iter().all(|&c| c <= NARROW_BLOCK) {
            2
        } else {
            4
        };
        RowIndexLayout {
            columns: columns.map(|(j, _)| j).collect(),
            width,
        }
    }

    /// Bytes one vertex's index row takes (`L_i · w_i`).
    pub fn bytes_per_vertex(&self) -> usize {
        self.columns.len() * self.width
    }

    /// Expands stored index rows into dense `P`-wide rows: `dense` holds
    /// one row of `P` offsets per stored row of `bytes`, and each stored
    /// column is written into its place. The other columns are left as
    /// they are (zero in a fresh buffer: an unstored sub-block is empty).
    pub fn expand(&self, bytes: &[u8], p: usize, dense: &mut [u32]) {
        let stored = self.bytes_per_vertex();
        if stored == 0 {
            return;
        }
        for (row, entries) in dense.chunks_exact_mut(p).zip(bytes.chunks_exact(stored)) {
            for (&j, entry) in self.columns.iter().zip(entries.chunks_exact(self.width)) {
                row[j as usize] = match *entry {
                    [a, b] => u32::from(u16::from_le_bytes([a, b])),
                    [a, b, c, d] => u32::from_le_bytes([a, b, c, d]),
                    _ => 0, // chunks of a width of 2 or 4
                };
            }
        }
    }
}

/// The `delta` section of a mutated grid's meta — the only record that
/// names a delta segment: how many mutation batches the grid has
/// absorbed, the segments of the ones not yet compacted, and the merged
/// (base + delta) shape they give the grid.
///
/// The epoch is part of the serialized meta, so every ingest changes the
/// meta bytes — and with them `gsd_core::checkpoint::graph_fingerprint`, which
/// pins checkpoints to one graph state. A checkpoint taken
/// before a mutation batch can therefore never be resumed against the
/// mutated graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSection {
    /// Mutation epoch: number of ingested batches (0 = freshly
    /// preprocessed; compaction folds segments but keeps the epoch).
    pub epoch: u64,
    /// Length and CRC32 of every live segment (`delta/seg_<epoch>.ops`,
    /// prefix-relative), in epoch order. Empty after a compaction.
    pub segments: Vec<ObjectEntry>,
    /// Merged per-sub-block edge counts, row-major (`P × P` entries).
    /// The meta's own `block_edge_counts` stay the **base** counts.
    pub merged_block_edge_counts: Vec<u64>,
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn unparsable(e: impl std::fmt::Display) -> std::io::Error {
    invalid(format!("grid metadata failed to parse: {e}"))
}

impl GridMeta {
    /// The interval partition.
    pub fn intervals(&self) -> Intervals {
        Intervals::from_boundaries(self.boundaries.clone())
    }

    /// The edge codec for this graph, at base 0 (it decodes the stored,
    /// interval-relative ids).
    pub fn codec(&self) -> crate::types::EdgeCodec {
        crate::types::EdgeCodec::new(self.weighted).with_id_bytes(self.id_bytes as usize)
    }

    /// The codec sub-block `(i, j)` is read and written with: the grid's,
    /// based at the starts of intervals `i` and `j`.
    pub fn block_codec(&self, i: u32, j: u32) -> crate::types::EdgeCodec {
        let start = |k: u32| self.boundaries[k as usize];
        self.codec().at(start(i), start(j))
    }

    /// Edge count of sub-block `(i, j)`.
    pub fn block_edge_count(&self, i: u32, j: u32) -> u64 {
        self.block_edge_counts[(i * self.p + j) as usize]
    }

    /// Byte size of sub-block `(i, j)`'s edge payload.
    pub fn block_bytes(&self, i: u32, j: u32) -> u64 {
        self.block_edge_count(i, j) * self.codec().edge_bytes() as u64
    }

    /// Total bytes of all edge payloads (`|E| · (M + W)`).
    pub fn total_edge_bytes(&self) -> u64 {
        self.num_edges * self.codec().edge_bytes() as u64
    }

    /// Bytes of one vertex-value array with `n`-byte values (`|V| · N`).
    pub fn vertex_value_bytes(&self, n: u64) -> u64 {
        self.num_vertices as u64 * n
    }

    /// Serializes to JSON bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec_pretty(self).expect("GridMeta serializes")
    }

    /// Seals the integrity self-check: records the CRC32 of this meta
    /// serialized with `meta_crc` zeroed. Must be the last mutation before
    /// [`Self::to_bytes`].
    pub fn seal(&mut self) {
        self.integrity.meta_crc = 0;
        self.integrity.meta_crc = crc32(&self.to_bytes());
    }

    /// Self-checks a sealed meta: the integrity section must be internally
    /// consistent and `meta_crc` must match the meta's own serialization
    /// with that field zeroed.
    pub fn verify_self(&self) -> Result<(), CorruptionError> {
        self.integrity.verify_section(META_KEY)?;
        let mut unsealed = self.clone();
        unsealed.integrity.meta_crc = 0;
        let actual = crc32(&unsealed.to_bytes());
        if actual != self.integrity.meta_crc {
            return Err(CorruptionError::manifest(
                META_KEY,
                format!(
                    "meta self-check crc mismatch (recorded {:#010x}, computed {actual:#010x})",
                    self.integrity.meta_crc
                ),
            ));
        }
        Ok(())
    }

    /// The shape invariants every reader indexes by: a meta that passes
    /// can be handed to [`Intervals::from_boundaries`] and
    /// [`Self::block_edge_count`] without a panic, whatever wrote it.
    fn check_shape(&self) -> Result<(), String> {
        let blocks = match self.p.checked_mul(self.p) {
            Some(blocks) if self.p >= 1 => blocks as usize,
            _ => return Err(format!("{p}x{p} is not a grid", p = self.p)),
        };
        if self.boundaries.len() != self.p as usize + 1 {
            return Err(format!(
                "{} boundaries for {} intervals",
                self.boundaries.len(),
                self.p
            ));
        }
        if self.boundaries[0] != 0
            || self.boundaries.last() != Some(&self.num_vertices)
            || self.boundaries.windows(2).any(|w| w[0] > w[1])
        {
            return Err(format!(
                "boundaries do not rise from 0 to {} vertices",
                self.num_vertices
            ));
        }
        let fits = id_bytes_for(&self.boundaries);
        if self.id_bytes != fits {
            return Err(format!(
                "{}-byte ids do not fit intervals of these boundaries, which take {fits}-byte ids",
                self.id_bytes
            ));
        }
        let counted = self
            .block_edge_counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c));
        if self.block_edge_counts.len() != blocks || counted != Some(self.num_edges) {
            return Err(format!(
                "{} sub-block edge counts do not add up to {} edges in {blocks} sub-blocks",
                self.block_edge_counts.len(),
                self.num_edges
            ));
        }
        if let Some(delta) = &self.delta {
            let merged = delta
                .merged_block_edge_counts
                .iter()
                .try_fold(0u64, |sum, &c| sum.checked_add(c));
            if delta.merged_block_edge_counts.len() != blocks || merged.is_none() {
                return Err(format!(
                    "{} merged sub-block edge counts for {blocks} sub-blocks",
                    delta.merged_block_edge_counts.len()
                ));
            }
        }
        Ok(())
    }

    /// Parses from JSON bytes, checking the format version (checked
    /// before anything else is decoded, so an old meta is refused by its
    /// version rather than by the first field it lacks) and validating
    /// shape invariants plus the integrity self-check.
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        if bytes.is_empty() {
            return Err(invalid("grid metadata is empty"));
        }
        let value: Value = serde_json::from_slice(bytes).map_err(unparsable)?;
        let version = serde::value_field(&value, "version")
            .and_then(u32::from_value)
            .map_err(unparsable)?;
        if version != FORMAT_VERSION {
            return Err(invalid(format!(
                "unsupported grid format version {version} (supported: {FORMAT_VERSION}; \
                 re-run `gsd preprocess`)"
            )));
        }
        let meta = GridMeta::from_value(&value).map_err(unparsable)?;
        meta.check_shape()
            .map_err(|why| invalid(format!("inconsistent grid metadata: {why}")))?;
        meta.verify_self().map_err(CorruptionError::into_io)?;
        Ok(meta)
    }
}

/// Encodes a `u32` slice little-endian (degree tables and row indexes).
pub fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a little-endian `u32` buffer. Ragged input (a length that is
/// not a multiple of 4 — a truncated index or degree table) is a
/// structured `InvalidData` error, never a panic: storage contents are
/// untrusted input.
pub fn decode_u32s(bytes: &[u8]) -> std::io::Result<Vec<u32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(invalid(format!(
            "corrupt u32 buffer: {} bytes is not a whole number of u32s",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_integrity::ObjectEntry;

    /// A sealed meta with a small manifest.
    fn sealed_meta() -> GridMeta {
        let mut m = GridMeta {
            version: FORMAT_VERSION,
            num_vertices: 10,
            num_edges: 6,
            p: 2,
            weighted: false,
            id_bytes: 2,
            order: BlockOrder::BySource,
            boundaries: vec![0, 5, 10],
            block_edge_counts: vec![1, 2, 3, 0],
            integrity: IntegritySection::new(vec![
                ObjectEntry::of("degrees.bin", b"degrees"),
                ObjectEntry::of("blocks/b_0_0.edges", b"edges"),
            ]),
            delta: None,
        };
        m.seal();
        m
    }

    #[test]
    fn any_other_version_is_refused_with_the_way_out() {
        for version in [1, 2, 3, 4, 5, 6, 7, FORMAT_VERSION + 1, 999] {
            let mut old = sealed_meta();
            old.version = version;
            old.seal();
            let err = GridMeta::from_bytes(&old.to_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unsupported grid format version {version}")),
                "{msg}"
            );
            assert!(msg.contains("re-run `gsd preprocess`"), "{msg}");
        }
        // The version is read before anything else is decoded: a meta as
        // an old writer produced it is refused by its version, not by the
        // first field it lacks.
        let v1 = br#"{"version": 1, "num_vertices": 10, "num_edges": 6, "p": 2,
            "weighted": false, "indexed": true, "sorted": true,
            "boundaries": [0, 5, 10], "block_edge_counts": [1, 2, 3, 0]}"#;
        let msg = GridMeta::from_bytes(v1).unwrap_err().to_string();
        assert!(msg.contains("unsupported grid format version 1"), "{msg}");
    }

    #[test]
    fn meta_roundtrips_through_json() {
        let m = sealed_meta();
        let m2 = GridMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m2.integrity.len(), 2);
    }

    #[test]
    fn empty_and_garbage_bytes_are_descriptive_errors() {
        let err = GridMeta::from_bytes(b"").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty"), "{err}");

        let err = GridMeta::from_bytes(b"not json at all").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("failed to parse"), "{err}");

        // Valid JSON, wrong shape: names the missing field.
        let stub = format!("{{\"version\": {FORMAT_VERSION}}}");
        let err = GridMeta::from_bytes(stub.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("num_vertices"), "{err}");
    }

    /// A sealed mutated meta: a delta section at some epoch, naming one
    /// live segment.
    fn mutated_meta(epoch: u64) -> GridMeta {
        let mut m = sealed_meta();
        m.delta = Some(DeltaSection {
            epoch,
            segments: vec![ObjectEntry::of(
                crate::delta::segment_key("", epoch),
                b"ops",
            )],
            merged_block_edge_counts: vec![1, 2, 4, 0],
        });
        m.seal();
        m
    }

    #[test]
    fn mutated_meta_roundtrips_through_json() {
        let m = mutated_meta(3);
        let m2 = GridMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m2.delta.unwrap().epoch, 3);

        // Merged counts for a different number of sub-blocks: refused.
        let mut bad = mutated_meta(3);
        if let Some(delta) = &mut bad.delta {
            delta.merged_block_edge_counts.pop();
        }
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("merged sub-block"), "{err}");
    }

    #[test]
    fn epoch_changes_the_meta_bytes() {
        // The checkpoint identity fingerprint is FNV over these bytes:
        // two epochs of the same grid must never serialize identically.
        assert_ne!(mutated_meta(1).to_bytes(), mutated_meta(2).to_bytes());
    }

    #[test]
    fn a_meta_without_its_integrity_section_is_refused() {
        let json = String::from_utf8(sealed_meta().to_bytes()).unwrap();
        let stripped = json.replacen("\"integrity\"", "\"integrety\"", 1);
        let err = GridMeta::from_bytes(stripped.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("missing field `integrity`"),
            "{err}"
        );
    }

    #[test]
    fn meta_validation_rejects_inconsistencies() {
        let mut bad = sealed_meta();
        bad.block_edge_counts[0] = 99; // sum != num_edges
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");

        let mut bad = sealed_meta();
        bad.boundaries = vec![0, 5]; // wrong length
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");
    }

    /// Correctly re-sealed metas whose shape the readers would index out
    /// of or assert on: each is a structured error at open, not a panic
    /// in `Intervals::from_boundaries` or `block_edge_count`. (A fourth
    /// bad shape the three layout booleans allowed — an index without a
    /// sort — is not representable as a `BlockOrder`.)
    #[test]
    fn hostile_resealed_metas_are_structured_errors_at_open() {
        use gsd_io::{MemStorage, SharedStorage};
        type Corrupt = fn(&mut GridMeta);
        let hostile: [(&str, Corrupt); 5] = [
            ("p = 0", |m| {
                m.p = 0;
                m.boundaries = vec![m.num_vertices];
                m.block_edge_counts = Vec::new();
                m.num_edges = 0;
            }),
            ("p * p wraps u32", |m| {
                m.p = 65_536;
                m.boundaries = vec![m.num_vertices; 65_537];
                m.boundaries[0] = 0;
                m.block_edge_counts = Vec::new();
                m.num_edges = 0;
            }),
            ("boundaries[0] != 0", |m| m.boundaries = vec![3, 5, 10]),
            ("non-monotone boundaries", |m| {
                m.boundaries = vec![0, 12, 10]
            }),
            ("edge counts overflow u64", |m| {
                m.block_edge_counts = vec![u64::MAX, 7, 0, 0];
            }),
        ];
        for (what, corrupt) in hostile {
            let mut meta = sealed_meta();
            corrupt(&mut meta);
            meta.seal();
            let storage: SharedStorage = std::sync::Arc::new(MemStorage::new());
            storage.create(META_KEY, &meta.to_bytes()).unwrap();
            let err = match crate::grid::GridGraph::open(storage) {
                Ok(_) => panic!("{what}: opened"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(
                err.to_string().contains("inconsistent grid metadata: "),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn self_check_catches_post_seal_tampering() {
        // A field changed after sealing (shape still valid): meta crc.
        let mut bad = sealed_meta();
        bad.order = BlockOrder::Unsorted;
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("meta self-check"), "{err}");

        // An integrity entry or a segment entry changed: the same meta
        // crc, which covers every byte of both lists.
        let mut bad = sealed_meta();
        bad.integrity.objects[0].crc ^= 1;
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("meta self-check"), "{err}");
        let mut bad = mutated_meta(2);
        if let Some(delta) = &mut bad.delta {
            delta.segments[0].len += 1;
        }
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("meta self-check"), "{err}");

        // Resealing legitimizes the change again.
        let mut ok = sealed_meta();
        ok.order = BlockOrder::Unsorted;
        ok.seal();
        GridMeta::from_bytes(&ok.to_bytes()).unwrap();
    }

    #[test]
    fn block_accessors() {
        let m = sealed_meta();
        assert_eq!(m.block_edge_count(0, 1), 2);
        assert_eq!(m.block_edge_count(1, 0), 3);
        // 2-byte ids: 4-byte unweighted records.
        assert_eq!(m.block_bytes(1, 0), 12);
        assert_eq!(m.total_edge_bytes(), 24);
        assert_eq!(m.vertex_value_bytes(4), 40);
        assert_eq!(m.block_codec(1, 0), m.codec().at(5, 0));
    }

    #[test]
    fn the_id_width_follows_the_widest_interval() {
        assert_eq!(id_bytes_for(&[0, 65_536, 100_000]), 2);
        assert_eq!(id_bytes_for(&[0, 65_537]), 4);
        assert_eq!(id_bytes_for(&[0, 0]), 2);
        // A meta recording any other width is refused as inconsistent.
        for forged in [0, 1, 3, 4, 8] {
            let mut m = sealed_meta();
            m.id_bytes = forged;
            m.seal();
            let err = GridMeta::from_bytes(&m.to_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("ids do not fit"), "{err}");
        }
    }

    /// The rule: a column per non-empty block, 2-byte offsets up to
    /// 65 535 edges in every block of the row; expansion puts each stored
    /// column in its place and leaves the rest zero.
    #[test]
    fn a_row_index_layout_stores_non_empty_columns_at_the_width_they_take() {
        let narrow = RowIndexLayout::of(&[0, 3, 0, 65_535]);
        assert_eq!((narrow.columns.as_slice(), narrow.width), (&[1, 3][..], 2));
        assert_eq!(narrow.bytes_per_vertex(), 4);
        let wide = RowIndexLayout::of(&[65_536, 0]);
        assert_eq!((wide.columns.as_slice(), wide.width), (&[0][..], 4));
        assert_eq!(RowIndexLayout::of(&[0, 0]).bytes_per_vertex(), 0);

        let stored = [1, 0, 0xff, 0xff, 2, 0, 0, 1];
        let mut dense = vec![0u32; 8];
        narrow.expand(&stored, 4, &mut dense);
        assert_eq!(dense, [0, 1, 0, 65_535, 0, 2, 0, 256]);
        let mut dense = vec![0u32; 2];
        wide.expand(&[0, 0, 1, 0], 2, &mut dense);
        assert_eq!(dense, [65_536, 0]);
    }

    #[test]
    fn key_naming() {
        assert_eq!(block_edges_key("", 3, 7), "blocks/b_3_7.edges");
        assert_eq!(row_index_key("gsd/", 0), "gsd/blocks/r_0.ridx");
        assert_eq!(object_class(&block_edges_key("", 3, 7)), "edges");
        assert_eq!(object_class(&row_index_key("", 0)), "row index");
        assert_eq!(object_class(DEGREES_KEY), "degrees");
    }

    #[test]
    fn u32_codec_roundtrip() {
        let vals = vec![0u32, 1, 42, u32::MAX];
        assert_eq!(decode_u32s(&encode_u32s(&vals)).unwrap(), vals);
    }

    #[test]
    fn u32_decode_rejects_ragged() {
        let err = decode_u32s(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("whole number of u32s"), "{err}");
        assert_eq!(decode_u32s(&[]).unwrap(), Vec::<u32>::new());
    }
}
