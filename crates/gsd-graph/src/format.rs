//! The on-disk 2-D grid format: metadata, key naming and binary encodings.
//!
//! Layout under a key prefix (several formats can share one store):
//!
//! ```text
//! <prefix>meta.json               — GridMeta (JSON)
//! <prefix>degrees.bin             — out-degree per vertex, u32 LE
//! <prefix>blocks/b_<i>_<j>.edges  — sub-block (i,j) edges, sorted by (src,dst)
//! <prefix>blocks/b_<i>_<j>.idx    — CSR offsets per source vertex, u32 LE
//! ```
//!
//! The `.idx` file realizes the paper's `index(i, j)` structure: entry `k`
//! is the first edge (by index, not byte) of vertex `range(i).start + k`
//! within the sub-block, so one vertex's edge list is a single contiguous
//! byte range — the property GraphSD's on-demand I/O model relies on.
//!
//! # Format versions
//!
//! * **v1** — the original layout above, no checksums. Nothing writes
//!   it any more and readers reject it at open: re-run `gsd preprocess`.
//! * **v2** — identical data objects plus an `integrity` section in
//!   `meta.json`: one CRC32 + length per data object, a CRC over the
//!   entry list itself, and a whole-meta self-check CRC (see
//!   [`gsd_integrity::IntegritySection`]). The preprocessor writes v2.
//! * **v3** — never written by anything; readers reject it as any other
//!   unsupported version.
//! * **v4** — a v2 grid that has accepted streaming mutations: the meta
//!   additionally carries a [`DeltaSection`] naming the delta segment
//!   encoding version and the current mutation epoch, and the store
//!   holds `delta/` objects (segments + manifest) layered over the base
//!   sub-blocks. See `crate::delta`.

use crate::partition::Intervals;
use gsd_integrity::{crc32, CorruptionError, IntegritySection};
use serde::{Deserialize, Serialize, Value};

/// Key of the metadata object.
pub const META_KEY: &str = "meta.json";
/// Key of the out-degree table.
pub const DEGREES_KEY: &str = "degrees.bin";

/// Key of sub-block `(i, j)`'s edge payload under `prefix`.
pub fn block_edges_key(prefix: &str, i: u32, j: u32) -> String {
    format!("{prefix}blocks/b_{i}_{j}.edges")
}

/// Key of sub-block `(i, j)`'s per-vertex index under `prefix`.
pub fn block_index_key(prefix: &str, i: u32, j: u32) -> String {
    format!("{prefix}blocks/b_{i}_{j}.idx")
}

/// Key of row `i`'s combined vertex-major index under `prefix`.
///
/// Layout: for each vertex `v` of interval `i` (plus one terminator row),
/// `P` little-endian `u32`s — entry `j` is the edge offset of `v`'s first
/// edge inside sub-block `(i, j)`. One span read of rows `lo ..= hi+1`
/// resolves the edge ranges of vertices `lo..=hi` in **every** block of the
/// row, so a selective reader pays a single index request per active
/// cluster instead of one per sub-block.
pub fn row_index_key(prefix: &str, i: u32) -> String {
    format!("{prefix}blocks/r_{i}.ridx")
}

/// Serialized description of a preprocessed grid graph.
#[derive(Debug, Clone, PartialEq)]
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
    /// Whether per-vertex `.idx` files were written (GraphSD and HUS need
    /// them; the Lumos-like format does not sort and has no index).
    pub indexed: bool,
    /// Whether each sub-block's edges are sorted by `(src, dst)`.
    pub sorted: bool,
    /// Whether blocks are sorted/indexed by destination instead of source
    /// (the HUS-Graph column copy).
    pub dst_sorted: bool,
    /// Interval boundaries (`P + 1` entries).
    pub boundaries: Vec<u32>,
    /// Edge count of each sub-block, row-major: entry `i * P + j` is
    /// sub-block `(i, j)`. Lets engines skip empty blocks without I/O.
    pub block_edge_counts: Vec<u64>,
    /// Per-object checksum manifest.
    pub integrity: IntegritySection,
    /// Delta-segment negotiation (format v4; `None` below v4).
    pub delta: Option<DeltaSection>,
}

/// Current format version (written by the preprocessor).
pub const FORMAT_VERSION: u32 = 2;
/// Meta version of delta-enabled grids: v2 plus a [`DeltaSection`].
/// Written the first time a grid accepts a mutation batch.
pub const DELTA_META_FORMAT_VERSION: u32 = 4;
/// Version of the delta segment *encoding* under `delta/`. Independent
/// of the meta version and negotiated via [`DeltaSection::version`], so
/// the segment layout can evolve without burning meta version numbers.
pub const DELTA_FORMAT_VERSION: u32 = 1;

/// The `delta` section of a v4 meta: which segment encoding the `delta/`
/// objects use and how many mutation batches the grid has absorbed.
///
/// The epoch is part of the serialized meta, so every ingest changes the
/// meta bytes — and with them `gsd_core::checkpoint::graph_fingerprint`, which
/// pins checkpoint manifests to one graph state. A checkpoint taken
/// before a mutation batch can therefore never be resumed against the
/// mutated graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSection {
    /// Delta segment encoding version ([`DELTA_FORMAT_VERSION`]).
    pub version: u32,
    /// Mutation epoch: number of ingested batches (0 = freshly
    /// preprocessed; compaction folds segments but keeps the epoch).
    pub epoch: u64,
}

// Hand-written (de)serialization: the `delta` field is omitted when
// absent, so a v2 meta's bytes — which `meta_crc`, `graph_fingerprint`
// and checkpoint identity hash — carry no `delta` key. (The derived impl
// would write and require every field.)
impl Serialize for GridMeta {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("version".to_string(), self.version.to_value()),
            ("num_vertices".to_string(), self.num_vertices.to_value()),
            ("num_edges".to_string(), self.num_edges.to_value()),
            ("p".to_string(), self.p.to_value()),
            ("weighted".to_string(), self.weighted.to_value()),
            ("indexed".to_string(), self.indexed.to_value()),
            ("sorted".to_string(), self.sorted.to_value()),
            ("dst_sorted".to_string(), self.dst_sorted.to_value()),
            ("boundaries".to_string(), self.boundaries.to_value()),
            (
                "block_edge_counts".to_string(),
                self.block_edge_counts.to_value(),
            ),
            ("integrity".to_string(), self.integrity.to_value()),
        ];
        if let Some(delta) = &self.delta {
            fields.push(("delta".to_string(), delta.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for GridMeta {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let field = |name| serde::value_field(v, name);
        Ok(GridMeta {
            version: u32::from_value(field("version")?)?,
            num_vertices: u32::from_value(field("num_vertices")?)?,
            num_edges: u64::from_value(field("num_edges")?)?,
            p: u32::from_value(field("p")?)?,
            weighted: bool::from_value(field("weighted")?)?,
            indexed: bool::from_value(field("indexed")?)?,
            sorted: bool::from_value(field("sorted")?)?,
            dst_sorted: bool::from_value(field("dst_sorted")?)?,
            boundaries: Vec::<u32>::from_value(field("boundaries")?)?,
            block_edge_counts: Vec::<u64>::from_value(field("block_edge_counts")?)?,
            integrity: IntegritySection::from_value(field("integrity")?)?,
            delta: match v.get("delta") {
                Some(value) => Option::<DeltaSection>::from_value(value)?,
                None => None,
            },
        })
    }
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

    /// The edge codec for this graph.
    pub fn codec(&self) -> crate::types::EdgeCodec {
        crate::types::EdgeCodec::new(self.weighted)
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

    /// Parses from JSON bytes, negotiating the format version (checked
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
        if version != FORMAT_VERSION && version != DELTA_META_FORMAT_VERSION {
            return Err(invalid(format!(
                "unsupported grid format version {version} (supported: {FORMAT_VERSION} \
                 and {DELTA_META_FORMAT_VERSION}; re-run `gsd preprocess`)"
            )));
        }
        let meta = GridMeta::from_value(&value).map_err(unparsable)?;
        match meta.version {
            FORMAT_VERSION => {
                if meta.delta.is_some() {
                    return Err(invalid("format v2 metadata must not carry a delta section"));
                }
            }
            _ => {
                let Some(delta) = &meta.delta else {
                    return Err(invalid("format v4 metadata is missing its delta section"));
                };
                if delta.version != DELTA_FORMAT_VERSION {
                    return Err(invalid(format!(
                        "unsupported delta segment version {} (supported: {DELTA_FORMAT_VERSION})",
                        delta.version
                    )));
                }
            }
        }
        if meta.boundaries.len() != meta.p as usize + 1
            || meta.block_edge_counts.len() != (meta.p * meta.p) as usize
            || meta.boundaries.last().copied() != Some(meta.num_vertices)
            || meta.block_edge_counts.iter().sum::<u64>() != meta.num_edges
        {
            return Err(invalid("inconsistent grid metadata"));
        }
        meta.verify_self().map_err(CorruptionError::into_io)?;
        Ok(meta)
    }
}

/// Encodes a `u32` slice little-endian (degree tables and `.idx` files).
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

    /// A sealed v2 meta with a small manifest.
    fn meta_v2() -> GridMeta {
        let mut m = GridMeta {
            version: FORMAT_VERSION,
            num_vertices: 10,
            num_edges: 6,
            p: 2,
            weighted: false,
            indexed: true,
            sorted: true,
            dst_sorted: false,
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

    /// A v1 meta as its writers produced it (no integrity section) is
    /// refused by its version, with the way out, not by the field it lacks.
    #[test]
    fn v1_meta_is_rejected_at_open() {
        let v1 = br#"{"version": 1, "num_vertices": 10, "num_edges": 6, "p": 2,
            "weighted": false, "indexed": true, "sorted": true, "dst_sorted": false,
            "boundaries": [0, 5, 10], "block_edge_counts": [1, 2, 3, 0]}"#;
        let err = GridMeta::from_bytes(v1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("unsupported grid format version 1"), "{msg}");
        assert!(msg.contains("re-run `gsd preprocess`"), "{msg}");
    }

    #[test]
    fn v2_meta_roundtrips_through_json() {
        let m = meta_v2();
        let m2 = GridMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m2.integrity.len(), 2);
        let json = String::from_utf8(m.to_bytes()).unwrap();
        assert!(!json.contains("delta"), "{json}");
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
        let err = GridMeta::from_bytes(b"{\"version\": 2}").unwrap_err();
        assert!(err.to_string().contains("num_vertices"), "{err}");
    }

    #[test]
    fn unknown_version_names_the_supported_range() {
        let mut bad = meta_v2();
        bad.version = 999;
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err
            .to_string()
            .contains("unsupported grid format version 999"));
        assert!(err.to_string().contains("2 and 4"), "{err}");
    }

    /// A sealed v4 meta: v2 plus a delta section at some epoch.
    fn meta_v4(epoch: u64) -> GridMeta {
        let mut m = meta_v2();
        m.version = DELTA_META_FORMAT_VERSION;
        m.delta = Some(DeltaSection {
            version: DELTA_FORMAT_VERSION,
            epoch,
        });
        m.seal();
        m
    }

    #[test]
    fn v4_meta_roundtrips_through_json() {
        let m = meta_v4(3);
        let m2 = GridMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m2.delta.unwrap().epoch, 3);
    }

    #[test]
    fn v3_has_no_writer_and_is_rejected_as_unsupported() {
        let mut bad = meta_v2();
        bad.version = 3;
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported grid format version 3"),
            "{err}"
        );
    }

    #[test]
    fn v4_negotiation_requires_delta_and_integrity() {
        // v4 without a delta section: refused.
        let mut bad = meta_v2();
        bad.version = DELTA_META_FORMAT_VERSION;
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing its delta"), "{err}");

        // v4 with an unknown segment encoding: refused by version number.
        let mut bad = meta_v4(1);
        bad.delta.as_mut().unwrap().version = 9;
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported delta segment version 9"),
            "{err}"
        );

        // v2 carrying a delta section: a v2 writer cannot have produced it.
        let mut bad = meta_v4(1);
        bad.version = FORMAT_VERSION;
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("v2"), "{err}");
    }

    #[test]
    fn epoch_changes_the_meta_bytes() {
        // The checkpoint identity fingerprint is FNV over these bytes:
        // two epochs of the same grid must never serialize identically.
        assert_ne!(meta_v4(1).to_bytes(), meta_v4(2).to_bytes());
    }

    #[test]
    fn a_supported_version_without_its_integrity_section_is_refused() {
        let json = String::from_utf8(meta_v2().to_bytes()).unwrap();
        let stripped = json.replacen("\"integrity\"", "\"integrety\"", 1);
        let err = GridMeta::from_bytes(stripped.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("missing field `integrity`"),
            "{err}"
        );
    }

    #[test]
    fn meta_validation_rejects_inconsistencies() {
        let mut bad = meta_v2();
        bad.block_edge_counts[0] = 99; // sum != num_edges
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");

        let mut bad = meta_v2();
        bad.boundaries = vec![0, 5]; // wrong length
        bad.seal();
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("inconsistent"), "{err}");
    }

    #[test]
    fn self_check_catches_post_seal_tampering() {
        // A field changed after sealing (shape still valid): meta crc.
        let mut bad = meta_v2();
        bad.sorted = false;
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("meta self-check"), "{err}");

        // A manifest entry changed: section crc.
        let mut bad = meta_v2();
        bad.integrity.objects[0].crc ^= 1;
        let err = GridMeta::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("section crc"), "{err}");

        // Resealing legitimizes the change again.
        let mut ok = meta_v2();
        ok.sorted = false;
        ok.seal();
        GridMeta::from_bytes(&ok.to_bytes()).unwrap();
    }

    #[test]
    fn block_accessors() {
        let m = meta_v2();
        assert_eq!(m.block_edge_count(0, 1), 2);
        assert_eq!(m.block_edge_count(1, 0), 3);
        assert_eq!(m.block_bytes(1, 0), 24);
        assert_eq!(m.total_edge_bytes(), 48);
        assert_eq!(m.vertex_value_bytes(4), 40);
    }

    #[test]
    fn key_naming() {
        assert_eq!(block_edges_key("", 3, 7), "blocks/b_3_7.edges");
        assert_eq!(block_index_key("gsd/", 0, 0), "gsd/blocks/b_0_0.idx");
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
