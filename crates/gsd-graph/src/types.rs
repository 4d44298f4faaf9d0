//! Core scalar types: vertex ids, edges and their on-disk byte codec.

/// Vertex identifier. `u32` suffices for the scaled-down stand-in datasets
/// (≤ 2^32 vertices) and halves edge bytes versus `u64`, exactly as the
/// published out-of-core systems do.
pub type VertexId = u32;

/// A directed edge, optionally weighted. Unweighted graphs carry
/// `weight == 1.0` in memory and omit the weight on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (1.0 for unweighted graphs).
    pub weight: f32,
}

impl Edge {
    /// An unweighted edge (weight 1.0).
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// A weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Edge { src, dst, weight }
    }
}

/// Byte codec for edges inside sub-block files.
///
/// Layout is little-endian `src:u32, dst:u32[, weight:f32]`. In the paper's
/// notation the edge structure size is `M = 8` and the weight size is
/// `W = 4` (0 when unweighted); the cost model reads both from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCodec {
    weighted: bool,
}

impl EdgeCodec {
    /// Codec for unweighted (8-byte) edges.
    pub fn unweighted() -> Self {
        EdgeCodec { weighted: false }
    }

    /// Codec for weighted (12-byte) edges.
    pub fn weighted() -> Self {
        EdgeCodec { weighted: true }
    }

    /// Codec selected by a boolean flag.
    pub fn new(weighted: bool) -> Self {
        EdgeCodec { weighted }
    }

    /// Whether edges carry a weight on disk.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Bytes one encoded edge occupies (`M + W`).
    pub fn edge_bytes(&self) -> usize {
        if self.weighted {
            12
        } else {
            8
        }
    }

    /// Encodes a whole slice of edges.
    pub fn encode_all(&self, edges: &[Edge]) -> Vec<u8> {
        // Constant chunk sizes, as in `decode_all_into`: one allocation
        // and no capacity check per field.
        let mut out = vec![0u8; edges.len() * self.edge_bytes()];
        if self.weighted {
            for (c, e) in out.chunks_exact_mut(12).zip(edges) {
                c[0..4].copy_from_slice(&e.src.to_le_bytes());
                c[4..8].copy_from_slice(&e.dst.to_le_bytes());
                c[8..12].copy_from_slice(&e.weight.to_le_bytes());
            }
        } else {
            for (c, e) in out.chunks_exact_mut(8).zip(edges) {
                c[0..4].copy_from_slice(&e.src.to_le_bytes());
                c[4..8].copy_from_slice(&e.dst.to_le_bytes());
            }
        }
        out
    }

    /// Decodes the edge starting at `bytes` (must hold at least
    /// [`Self::edge_bytes`] bytes).
    pub fn decode(&self, bytes: &[u8]) -> Edge {
        let src = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let dst = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let weight = if self.weighted {
            f32::from_le_bytes(bytes[8..12].try_into().unwrap())
        } else {
            1.0
        };
        Edge { src, dst, weight }
    }

    /// Decodes a whole buffer of edges; panics if `bytes` is not a multiple
    /// of the edge size.
    pub fn decode_all(&self, bytes: &[u8]) -> Vec<Edge> {
        let mut out = Vec::new();
        self.decode_all_into(bytes, &mut out);
        out
    }

    /// Decodes into a caller-provided buffer (cleared first), avoiding an
    /// allocation on hot paths.
    pub fn decode_all_into(&self, bytes: &[u8], out: &mut Vec<Edge>) {
        let sz = self.edge_bytes();
        assert_eq!(bytes.len() % sz, 0, "buffer is not a whole number of edges");
        out.clear();
        // Constant chunk sizes let the compiler drop the per-field bounds
        // checks; `extend` reserves once from the exact length.
        let word =
            |c: &[u8], at: usize| u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]]);
        if self.weighted {
            out.extend(bytes.chunks_exact(12).map(|c| Edge {
                src: word(c, 0),
                dst: word(c, 4),
                weight: f32::from_bits(word(c, 8)),
            }));
        } else {
            out.extend(bytes.chunks_exact(8).map(|c| Edge {
                src: word(c, 0),
                dst: word(c, 4),
                weight: 1.0,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_roundtrip() {
        let codec = EdgeCodec::unweighted();
        let edges = vec![Edge::new(0, 1), Edge::new(7, 3), Edge::new(u32::MAX, 0)];
        let bytes = codec.encode_all(&edges);
        assert_eq!(bytes.len(), 24);
        assert_eq!(codec.decode_all(&bytes), edges);
    }

    #[test]
    fn weighted_roundtrip() {
        let codec = EdgeCodec::weighted();
        let edges = vec![Edge::weighted(1, 2, 0.5), Edge::weighted(3, 4, -7.25)];
        let bytes = codec.encode_all(&edges);
        assert_eq!(bytes.len(), 24);
        assert_eq!(codec.decode_all(&bytes), edges);
    }

    #[test]
    fn unweighted_decode_fills_unit_weight() {
        let codec = EdgeCodec::unweighted();
        let bytes = codec.encode_all(&[Edge::weighted(5, 6, 9.0)]);
        let decoded = codec.decode(&bytes);
        assert_eq!(decoded.weight, 1.0);
        assert_eq!((decoded.src, decoded.dst), (5, 6));
    }

    #[test]
    fn decode_all_into_reuses_buffer() {
        let codec = EdgeCodec::unweighted();
        let bytes = codec.encode_all(&[Edge::new(1, 2), Edge::new(3, 4)]);
        let mut buf = vec![Edge::new(9, 9); 100];
        codec.decode_all_into(&bytes, &mut buf);
        assert_eq!(buf, vec![Edge::new(1, 2), Edge::new(3, 4)]);
    }

    #[test]
    #[should_panic(expected = "whole number of edges")]
    fn decode_all_rejects_ragged_buffer() {
        EdgeCodec::unweighted().decode_all(&[0u8; 9]);
    }

    #[test]
    fn edge_sizes_match_paper_notation() {
        assert_eq!(EdgeCodec::unweighted().edge_bytes(), 8); // M
        assert_eq!(EdgeCodec::weighted().edge_bytes(), 12); // M + W
    }
}
