//! The checkpoint manifest — the commit point of the checkpoint protocol.
//!
//! A snapshot is not a checkpoint until its manifest exists: the store
//! writes the snapshot object, syncs, then writes the manifest (both
//! through `Storage::create`'s write-temp + atomic rename), so a crash at
//! any point leaves either a complete checkpoint or none. On recovery the
//! manifest's identity fields are re-validated against the running
//! engine, and the snapshot's size and whole-object CRC32 against the
//! stored blob, before any state is restored.

use serde::{Deserialize, Serialize};

/// Manifest format version; bump on incompatible layout changes.
pub(super) const MANIFEST_VERSION: u32 = 1;

/// Identity of the run a checkpoint belongs to. A checkpoint is only
/// eligible for resume when every field matches the resuming engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestTag {
    /// Engine name (`"graphsd"`, `"lumos"`, `"hus-graph"`).
    pub engine: String,
    /// Algorithm id as reported by `VertexProgram::name`.
    pub algorithm: String,
    /// Bytes per serialized vertex value.
    pub value_bytes: u64,
    /// Number of vertices.
    pub num_vertices: u32,
    /// FNV-1a/64 of the grid's `meta.json` (see
    /// [`super::graph_fingerprint`]) — pins the checkpoint to one
    /// preprocessed graph.
    pub graph_fingerprint: u64,
    /// Hash of the semantically relevant engine configuration. Knobs that
    /// are contractually result-neutral (prefetch, checkpoint cadence)
    /// must not be folded in.
    pub config_hash: u64,
}

/// One committed checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(super) struct Manifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Which run this checkpoint belongs to.
    pub tag: ManifestTag,
    /// Last committed iteration the snapshot captures.
    pub iteration: u32,
    /// Storage key of the snapshot object.
    pub snapshot_key: String,
    /// Size of the snapshot object in bytes.
    pub snapshot_bytes: u64,
    /// CRC32 of the entire snapshot object.
    pub snapshot_crc: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let m = Manifest {
            version: MANIFEST_VERSION,
            tag: ManifestTag {
                engine: "graphsd".into(),
                algorithm: "pagerank".into(),
                value_bytes: 8,
                num_vertices: 1000,
                graph_fingerprint: 0xdead_beef,
                config_hash: 42,
            },
            iteration: 7,
            snapshot_key: "ckpt/snap_0000000007.bin".into(),
            snapshot_bytes: 1234,
            snapshot_crc: 0x0102_0304,
        };
        let json = serde_json::to_vec(&m).unwrap();
        let back: Manifest = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, m);
    }
}
