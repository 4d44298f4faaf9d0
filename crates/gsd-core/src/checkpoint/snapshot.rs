//! The checkpoint object: one blob that validates itself.
//!
//! ```text
//! magic      "GSDSNAP2"
//! tag        len: u64 | ManifestTag (JSON)
//! iteration  u32
//! values     len: u64 | one u64 per vertex
//! accum      len: u64 | one u64 per vertex
//! frontier   len: u64 | u32 vertex ids
//! touched    len: u64 | u32 vertex ids
//! stats      len: u64 | RunStats (JSON)
//! extra      len: u64 | engine payload (opaque)
//! crc32      u32 over every byte before it
//! ```
//!
//! Integers are little-endian and the sections come in this fixed order.
//! The one trailing CRC32 detects a torn write or bit rot anywhere in the
//! object. The tag pins the object to one run, and decode checks every
//! section against the tag's vertex count, so a snapshot that decodes is
//! safe to restore. Vertex values and accumulators are stored as the
//! `u64` bit patterns of `gsd_runtime::Value::to_bits`, which is what
//! makes resumed runs *bit-identical* — no float round-trips through
//! text.

use gsd_integrity::crc32;
use gsd_runtime::RunStats;
use serde::{Deserialize, Serialize};
use std::io::{Error, ErrorKind};

const MAGIC: &[u8; 8] = b"GSDSNAP2";

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

/// Complete engine state at one committed iteration boundary.
///
/// `values`/`accum` hold `Value::to_bits` bit patterns; `frontier` and
/// `touched` are sorted member lists of the corresponding bitmaps. The
/// `extra` section is an engine-private payload (GraphSD stores its
/// scheduler-decision log and sub-block buffer residency there) that the
/// format carries opaquely.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Last committed iteration this state reflects.
    pub iteration: u32,
    /// Committed vertex values (`val_t`), one bit pattern per vertex.
    pub values: Vec<u64>,
    /// Pre-seeded next-iteration accumulator (cross-iteration updates).
    pub accum: Vec<u64>,
    /// Active-vertex frontier for the next iteration.
    pub frontier: Vec<u32>,
    /// Vertices with pre-seeded accumulator contributions awaiting their
    /// apply barrier.
    pub touched: Vec<u32>,
    /// Cumulative run statistics up to (and including) `iteration`,
    /// with checkpoint traffic already excluded from `stats.io`.
    pub stats: RunStats,
    /// Opaque engine-specific state (serialized by the engine).
    pub extra: Vec<u8>,
}

fn corrupt(what: &str) -> Error {
    Error::new(ErrorKind::InvalidData, format!("corrupt snapshot: {what}"))
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_words<T: Copy, const N: usize>(out: &mut Vec<u8>, words: &[T], le: fn(T) -> [u8; N]) {
    out.extend_from_slice(&((words.len() * N) as u64).to_le_bytes());
    for &w in words {
        out.extend_from_slice(&le(w));
    }
}

fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(bytes);
    out
}

fn json<T: Deserialize>(bytes: &[u8], section: &str) -> std::io::Result<T> {
    serde_json::from_slice(bytes).map_err(|e| corrupt(&format!("{section}: {e}")))
}

/// One bit pattern per vertex of a graph of `n` vertices.
fn per_vertex(bytes: &[u8], n: u32, section: &str) -> std::io::Result<Vec<u64>> {
    if bytes.len() != n as usize * 8 {
        return Err(corrupt(&format!("{section} does not hold {n} values")));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(array(c)))
        .collect())
}

/// Vertex ids, each below `n`: a restore inserts them into bitmaps of
/// `n` bits.
fn vertex_ids(bytes: &[u8], n: u32, section: &str) -> std::io::Result<Vec<u32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(corrupt(&format!("{section} has a misaligned length")));
    }
    let ids: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(array(c)))
        .collect();
    if let Some(v) = ids.iter().find(|&&v| v >= n) {
        return Err(corrupt(&format!(
            "{section} holds vertex {v} of a graph of {n}"
        )));
    }
    Ok(ids)
}

/// A cursor over a snapshot's body.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(corrupt("truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// The next `len: u64 | bytes` section.
    fn section(&mut self) -> std::io::Result<&'a [u8]> {
        let len = u64::from_le_bytes(array(self.take(8)?));
        self.take(usize::try_from(len).map_err(|_| corrupt("section length overflow"))?)
    }
}

impl CheckpointData {
    /// Serializes the snapshot of the run `tag` to its binary form.
    pub(super) fn encode(&self, tag: &ManifestTag) -> Vec<u8> {
        let tag = serde_json::to_vec(tag).unwrap_or_default();
        let stats = serde_json::to_vec(&self.stats).unwrap_or_default();
        let words = 8 * (self.values.len() + self.accum.len())
            + 4 * (self.frontier.len() + self.touched.len());
        let mut out = Vec::with_capacity(80 + tag.len() + words + stats.len() + self.extra.len());
        out.extend_from_slice(MAGIC);
        put_bytes(&mut out, &tag);
        out.extend_from_slice(&self.iteration.to_le_bytes());
        put_words(&mut out, &self.values, u64::to_le_bytes);
        put_words(&mut out, &self.accum, u64::to_le_bytes);
        put_words(&mut out, &self.frontier, u32::to_le_bytes);
        put_words(&mut out, &self.touched, u32::to_le_bytes);
        put_bytes(&mut out, &stats);
        put_bytes(&mut out, &self.extra);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a binary snapshot and checks it belongs to the run `tag`:
    /// CRC, magic, tag, and every section's length and ids against
    /// `tag.num_vertices`. Any mismatch is `ErrorKind::InvalidData`.
    pub(super) fn decode(blob: &[u8], tag: &ManifestTag) -> std::io::Result<Self> {
        let body = blob
            .len()
            .checked_sub(4)
            .ok_or_else(|| corrupt("truncated"))?;
        let (body, crc) = blob.split_at(body);
        if crc32(body).to_le_bytes() != crc {
            return Err(corrupt("crc mismatch"));
        }
        let mut r = Reader(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if json::<ManifestTag>(r.section()?, "tag")? != *tag {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "snapshot belongs to another run",
            ));
        }
        let n = tag.num_vertices;
        let data = CheckpointData {
            iteration: u32::from_le_bytes(array(r.take(4)?)),
            values: per_vertex(r.section()?, n, "values")?,
            accum: per_vertex(r.section()?, n, "accum")?,
            frontier: vertex_ids(r.section()?, n, "frontier")?,
            touched: vertex_ids(r.section()?, n, "touched")?,
            stats: json(r.section()?, "stats")?,
            extra: r.section()?.to_vec(),
        };
        if !r.0.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> ManifestTag {
        ManifestTag {
            engine: "graphsd".into(),
            algorithm: "pagerank".into(),
            value_bytes: 8,
            num_vertices: 3,
            graph_fingerprint: 0xdead_beef,
            config_hash: 42,
        }
    }

    fn sample() -> CheckpointData {
        let mut stats = RunStats::new("graphsd", "pagerank");
        stats.iterations = 3;
        stats.cross_iter_edges = 17;
        CheckpointData {
            iteration: 3,
            values: vec![0, u64::MAX, 0x0123_4567_89ab_cdef],
            accum: vec![1, 2, 3],
            frontier: vec![0, 2],
            touched: vec![1],
            stats,
            extra: b"{\"decisions\":[]}".to_vec(),
        }
    }

    #[test]
    fn roundtrips() {
        let data = sample();
        let blob = data.encode(&tag());
        let back = CheckpointData::decode(&blob, &tag()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn empty_state_roundtrips() {
        let data = CheckpointData {
            iteration: 0,
            values: vec![],
            accum: vec![],
            frontier: vec![],
            touched: vec![],
            stats: RunStats::new("x", "y"),
            extra: vec![],
        };
        let empty = ManifestTag {
            num_vertices: 0,
            ..tag()
        };
        let back = CheckpointData::decode(&data.encode(&empty), &empty).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn any_flipped_bit_is_detected() {
        let blob = sample().encode(&tag());
        // Flip one bit in every byte position; decode must never silently
        // succeed with different content.
        for pos in 0..blob.len() {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            match CheckpointData::decode(&bad, &tag()) {
                Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "pos {pos}"),
                Ok(decoded) => assert_eq!(decoded, sample(), "pos {pos}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let blob = sample().encode(&tag());
        for cut in 0..blob.len() {
            assert!(
                CheckpointData::decode(&blob[..cut], &tag()).is_err(),
                "truncated at {cut}"
            );
        }
    }

    #[test]
    fn another_runs_snapshot_is_rejected() {
        let blob = sample().encode(&tag());
        let mut other = tag();
        other.config_hash ^= 1;
        let err = CheckpointData::decode(&blob, &other).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn state_that_does_not_fit_the_graph_is_rejected() {
        // CRC-valid, right tag, wrong shape: decode is the only gate
        // between these and the restore's bitmap and array indexing.
        let mut short = sample();
        short.values.pop();
        let mut outside = sample();
        outside.frontier.push(3);
        let mut touched = sample();
        touched.touched = vec![u32::MAX];
        for bad in [short, outside, touched] {
            let err = CheckpointData::decode(&bad.encode(&tag()), &tag()).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{bad:?}");
        }
    }
}
