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

/// Byte codec for the edge records of one sub-block.
///
/// Sub-block `(i, j)` holds only sources of interval `i` and destinations
/// of interval `j`, so a record stores each id as its offset from its
/// interval's start: little-endian `src − start(i)`, then
/// `dst − start(j)`, each `id_bytes` wide, then the `f32` weight on a
/// weighted grid. A grid's ids are 2 bytes wide when every interval holds
/// at most 65 536 vertices and 4 otherwise
/// ([`crate::format::id_bytes_for`]). In the paper's notation the edge
/// structure size is `M = 2 · id_bytes` and the weight size is `W = 4`
/// (0 when unweighted); the cost model reads both from here.
///
/// A codec carries the two interval starts it adds back on decode (and
/// subtracts on encode): a grid's own codec has base 0 and
/// [`Self::at`] gives a block's. Every encode and decode runs one generic
/// record view, [`Records`], compiled once per layout; [`with_layout!`]
/// is the one dispatch from a codec to it.
///
/// [`with_layout!`]: crate::with_layout
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeCodec {
    weighted: bool,
    id_bytes: usize,
    src_base: u32,
    dst_base: u32,
}

impl EdgeCodec {
    /// Codec for unweighted edges with 4-byte ids at base 0.
    pub fn unweighted() -> Self {
        EdgeCodec::new(false)
    }

    /// Codec for weighted edges with 4-byte ids at base 0.
    pub fn weighted() -> Self {
        EdgeCodec::new(true)
    }

    /// Codec with 4-byte ids at base 0, weighted or not: the widest
    /// record, whose bytes are the absolute `src:u32, dst:u32[, weight]`.
    pub fn new(weighted: bool) -> Self {
        EdgeCodec {
            weighted,
            id_bytes: 4,
            src_base: 0,
            dst_base: 0,
        }
    }

    /// This codec with `id_bytes`-wide ids (2 or 4; panics otherwise).
    pub fn with_id_bytes(self, id_bytes: usize) -> Self {
        assert!(
            id_bytes == 2 || id_bytes == 4,
            "edge ids are 2 or 4 bytes, not {id_bytes}"
        );
        EdgeCodec { id_bytes, ..self }
    }

    /// The codec of a block whose sources start at `src_base` and whose
    /// destinations start at `dst_base`.
    pub fn at(self, src_base: u32, dst_base: u32) -> Self {
        EdgeCodec {
            src_base,
            dst_base,
            ..self
        }
    }

    /// Whether edges carry a weight on disk.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Bytes one stored id occupies (2 or 4).
    pub fn id_bytes(&self) -> usize {
        self.id_bytes
    }

    /// Bytes one encoded edge occupies (`M + W`).
    pub fn edge_bytes(&self) -> usize {
        2 * self.id_bytes + if self.weighted { 4 } else { 0 }
    }

    /// Encodes a whole slice of edges, each of which must fall in this
    /// codec's block (panics otherwise).
    pub fn encode_all(&self, edges: &[Edge]) -> Vec<u8> {
        crate::with_layout!(*self, <ID, WEIGHTED> => Records::<ID, WEIGHTED>::encode(*self, edges))
    }

    /// Decodes the edge starting at `bytes` (must hold at least
    /// [`Self::edge_bytes`] bytes).
    pub fn decode(&self, bytes: &[u8]) -> Edge {
        let record = &bytes[..self.edge_bytes()];
        crate::with_layout!(*self, <ID, WEIGHTED> => Records::<ID, WEIGHTED>::new(record, *self).edge(0))
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
        out.clear();
        self.decode_append(bytes, out);
    }

    /// Decodes a whole buffer of edges onto the end of `out`.
    pub fn decode_append(&self, bytes: &[u8], out: &mut Vec<Edge>) {
        // `extend` reserves once from the exact length.
        crate::with_layout!(*self, <ID, WEIGHTED> => out.extend(Records::<ID, WEIGHTED>::new(bytes, *self).iter()));
    }
}

/// Runs `$body` with `$id` and `$weighted` bound, as local constants, to
/// `$codec`'s record layout (id width and weightedness): the one dispatch
/// from a codec, chosen at run time, to the [`Records`] loop compiled for
/// its layout, e.g.
/// `with_layout!(codec, <ID, W> => Records::<ID, W>::new(bytes, codec).len())`.
///
/// [`Records`]: crate::types::Records
#[macro_export]
macro_rules! with_layout {
    ($codec:expr, <$id:ident, $weighted:ident> => $body:expr) => {{
        let codec: $crate::types::EdgeCodec = $codec;
        match (codec.id_bytes(), codec.is_weighted()) {
            (2, false) => {
                const $id: usize = 2;
                const $weighted: bool = false;
                $body
            }
            (2, true) => {
                const $id: usize = 2;
                const $weighted: bool = true;
                $body
            }
            (_, false) => {
                const $id: usize = 4;
                const $weighted: bool = false;
                $body
            }
            (_, true) => {
                const $id: usize = 4;
                const $weighted: bool = true;
                $body
            }
        }
    }};
}

/// A block payload as records of one layout — `ID`-byte ids (2 or 4),
/// then a weight if `WEIGHTED` — with the block's two interval starts
/// added back on read: the one record view every encode, decode and
/// encoded scatter goes through. The layout is a constant, so each record
/// sits at a fixed offset and each field read needs no bounds check.
#[derive(Debug, Clone, Copy)]
pub struct Records<'a, const ID: usize, const WEIGHTED: bool> {
    bytes: &'a [u8],
    src_base: u32,
    dst_base: u32,
}

impl<'a, const ID: usize, const WEIGHTED: bool> Records<'a, ID, WEIGHTED> {
    /// Bytes per record (`M + W`).
    pub const SIZE: usize = 2 * ID + if WEIGHTED { 4 } else { 0 };

    /// `bytes` as records of `codec`, whose layout must be this one.
    /// Panics if `bytes` is not a whole number of records.
    pub fn new(bytes: &'a [u8], codec: EdgeCodec) -> Self {
        const { assert!(ID == 2 || ID == 4, "edge ids are 2 or 4 bytes") };
        assert_eq!(
            (codec.id_bytes, codec.weighted),
            (ID, WEIGHTED),
            "codec of another record layout"
        );
        assert_eq!(
            bytes.len() % Self::SIZE,
            0,
            "buffer is not a whole number of edges"
        );
        Records {
            bytes,
            src_base: codec.src_base,
            dst_base: codec.dst_base,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.bytes.len() / Self::SIZE
    }

    /// Whether the payload holds no record.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Source of record `k`.
    #[inline]
    pub fn src(&self, k: usize) -> u32 {
        self.src_base + id::<ID>(&self.bytes[k * Self::SIZE..][..ID])
    }

    /// Record `k`.
    #[inline]
    pub fn edge(&self, k: usize) -> Edge {
        self.decode(&self.bytes[k * Self::SIZE..][..Self::SIZE])
    }

    /// Every record, in order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + 'a {
        let view = *self;
        self.bytes
            .chunks_exact(Self::SIZE)
            .map(move |record| view.decode(record))
    }

    #[inline]
    fn decode(&self, record: &[u8]) -> Edge {
        let weight = if WEIGHTED {
            let w = &record[2 * ID..2 * ID + 4];
            f32::from_le_bytes([w[0], w[1], w[2], w[3]])
        } else {
            1.0
        };
        Edge {
            src: self.src_base + id::<ID>(&record[..ID]),
            dst: self.dst_base + id::<ID>(&record[ID..2 * ID]),
            weight,
        }
    }

    /// `edges` as records of `codec` (whose layout must be this one).
    fn encode(codec: EdgeCodec, edges: &[Edge]) -> Vec<u8> {
        // Constant chunk sizes: one allocation and no capacity check per
        // field.
        let mut out = vec![0u8; edges.len() * Self::SIZE];
        for (record, e) in out.chunks_exact_mut(Self::SIZE).zip(edges) {
            record[..ID].copy_from_slice(&offset::<ID>(e.src, codec.src_base)[..ID]);
            record[ID..2 * ID].copy_from_slice(&offset::<ID>(e.dst, codec.dst_base)[..ID]);
            if WEIGHTED {
                record[2 * ID..].copy_from_slice(&e.weight.to_le_bytes());
            }
        }
        out
    }
}

/// The `ID`-byte little-endian id in `bytes`.
#[inline]
fn id<const ID: usize>(bytes: &[u8]) -> u32 {
    if ID == 2 {
        u32::from(u16::from_le_bytes([bytes[0], bytes[1]]))
    } else {
        u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

/// The first `ID` little-endian bytes of `v − base`; panics unless that
/// offset exists and fits in them, since a record must never wrap to
/// another vertex.
#[inline]
fn offset<const ID: usize>(v: VertexId, base: u32) -> [u8; 4] {
    match v.checked_sub(base) {
        Some(off) if ID == 4 || off <= u32::from(u16::MAX) => off.to_le_bytes(),
        _ => panic!("vertex {v} is outside its block's {ID}-byte id range from {base}"),
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
        assert_eq!(EdgeCodec::unweighted().with_id_bytes(2).edge_bytes(), 4);
        assert_eq!(EdgeCodec::weighted().with_id_bytes(2).edge_bytes(), 8);
    }

    #[test]
    fn a_block_codec_stores_offsets_from_its_interval_starts() {
        for (id_bytes, weighted) in [(2, false), (2, true), (4, false), (4, true)] {
            let codec = EdgeCodec::new(weighted)
                .with_id_bytes(id_bytes)
                .at(70_000, 200_000);
            let w = if weighted { 2.5 } else { 1.0 };
            let edges = vec![
                Edge::weighted(70_000, 200_000, w),
                Edge::weighted(70_000 + 65_535, 200_001, w),
            ];
            let bytes = codec.encode_all(&edges);
            assert_eq!(bytes.len(), 2 * codec.edge_bytes());
            assert_eq!(bytes[..id_bytes], vec![0u8; id_bytes][..]);
            assert_eq!(codec.decode_all(&bytes), edges);
            assert_eq!(codec.decode(&bytes[codec.edge_bytes()..]), edges[1]);
            // Base 0 reads the stored offsets.
            let relative = codec.at(0, 0).decode(&bytes[codec.edge_bytes()..]);
            assert_eq!((relative.src, relative.dst), (65_535, 1));
        }
    }

    #[test]
    #[should_panic(expected = "outside its block")]
    fn a_narrow_codec_refuses_an_id_past_its_range() {
        let codec = EdgeCodec::unweighted().with_id_bytes(2).at(10, 0);
        codec.encode_all(&[Edge::new(10 + 65_536, 0)]);
    }

    #[test]
    #[should_panic(expected = "outside its block")]
    fn a_codec_refuses_an_id_below_its_base() {
        EdgeCodec::unweighted()
            .at(10, 0)
            .encode_all(&[Edge::new(9, 0)]);
    }

    #[test]
    fn the_four_layouts_share_one_view() {
        for (id_bytes, weighted) in [(2, false), (2, true), (4, false), (4, true)] {
            let codec = EdgeCodec::new(weighted).with_id_bytes(id_bytes).at(5, 9);
            let bytes = codec.encode_all(&[Edge::new(5, 9), Edge::new(8, 11)]);
            let (len, src) = crate::with_layout!(codec, <ID, W> => {
                let records = Records::<ID, W>::new(&bytes, codec);
                (records.len(), records.src(1))
            });
            assert_eq!((len, src), (2, 8));
        }
    }
}
