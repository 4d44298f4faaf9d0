//! The serve wire protocol: length-prefixed binary frames.
//!
//! Every message travels as one frame: a little-endian `u32` payload
//! length followed by the payload. The payload starts with a one-byte
//! message tag; all integers are little-endian fixed-width, floats
//! travel as their IEEE-754 bit patterns (`f32::to_bits`), vectors as a
//! `u32` count followed by the elements, strings as a `u16` byte length
//! followed by UTF-8. There is no varint, no padding and no optional
//! field: identical messages encode to identical bytes, which is what
//! lets the end-to-end tests compare concurrent and serial executions
//! byte-for-byte.
//!
//! The protocol is said once. Each field type implements [`Wire`]
//! (`put` and `get`), and one `wire_messages!` table per direction gives
//! every variant its tag, its fields in wire order and, for requests,
//! its op label; `encode`, `decode` and [`Request::op`] are generated
//! from the table. Decoding is total: a truncated payload, an unknown
//! tag or op code, a vector count the remaining bytes cannot hold, or
//! trailing bytes are an `InvalidData` error, never a panic, so a
//! malformed client cannot take the daemon down.

use gsd_graph::{DeltaOp, Edge};
use std::io::{Error, ErrorKind, Read, Result, Write};

/// Hard ceiling on one frame's payload (64 MiB). A length prefix beyond
/// this is treated as a protocol error rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// First frame a client must send: protocol magic + version. The server
/// answers any other opening frame with [`Response::Error`] and closes.
pub const HANDSHAKE: &[u8; 8] = b"GSDSRV01";

fn invalid(message: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, message.into())
}

fn truncated() -> Error {
    invalid("truncated frame payload")
}

/// One field type of the wire format: how a value is written and read
/// back. `get` consumes the value's bytes from the front of `r`.
trait Wire: Sized {
    /// The fewest bytes one value occupies; bounds a vector's claimed
    /// element count by the bytes left.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>) -> Result<()>;
    fn get(r: &mut &[u8]) -> Result<Self>;
}

macro_rules! wire_ints {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) -> Result<()> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
            fn get(r: &mut &[u8]) -> Result<Self> {
                let (bytes, rest) = r.split_first_chunk().ok_or_else(truncated)?;
                *r = rest;
                Ok(<$t>::from_le_bytes(*bytes))
            }
        }
    )+};
}

wire_ints!(u8, u16, u32, u64);

impl Wire for String {
    const MIN_BYTES: usize = 2;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        let len =
            u16::try_from(self.len()).map_err(|_| invalid("string field longer than 64 KiB"))?;
        len.put(out)?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get(r: &mut &[u8]) -> Result<Self> {
        let len = usize::from(u16::get(r)?);
        let (bytes, rest) = r.split_at_checked(len).ok_or_else(truncated)?;
        *r = rest;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("string field is not UTF-8"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        let count =
            u32::try_from(self.len()).map_err(|_| invalid("vector longer than u32::MAX"))?;
        count.put(out)?;
        self.iter().try_for_each(|x| x.put(out))
    }
    fn get(r: &mut &[u8]) -> Result<Self> {
        let count = u32::get(r)? as usize;
        // Checked before allocating: every element must still fit.
        if count > r.len() / T::MIN_BYTES {
            return Err(truncated());
        }
        (0..count).map(|_| T::get(r)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        self.0.put(out)?;
        self.1.put(out)
    }
    fn get(r: &mut &[u8]) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A mutation op is 13 bytes: op code (0 insert, 1 delete), source,
/// destination, and the insert weight's `f32` bits (0 for a delete, whose
/// weight bits are read and ignored).
impl Wire for DeltaOp {
    const MIN_BYTES: usize = 13;
    fn put(&self, out: &mut Vec<u8>) -> Result<()> {
        let (code, weight_bits) = match self {
            DeltaOp::Insert(e) => (0u8, e.weight.to_bits()),
            DeltaOp::Delete { .. } => (1, 0),
        };
        code.put(out)?;
        self.src().put(out)?;
        self.dst().put(out)?;
        weight_bits.put(out)
    }
    fn get(r: &mut &[u8]) -> Result<Self> {
        let code = u8::get(r)?;
        if code > 1 {
            return Err(invalid(format!("unknown mutation op code {code}")));
        }
        let (src, dst, weight_bits) = (u32::get(r)?, u32::get(r)?, u32::get(r)?);
        Ok(match code {
            0 => DeltaOp::Insert(Edge::weighted(src, dst, f32::from_bits(weight_bits))),
            _ => DeltaOp::Delete { src, dst },
        })
    }
}

/// Declares a struct whose wire form is its fields in declaration order.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty ),+
        }

        impl Wire for $name {
            const MIN_BYTES: usize = 0 $( + <$ty as Wire>::MIN_BYTES )+;
            fn put(&self, out: &mut Vec<u8>) -> Result<()> {
                $( self.$field.put(out)?; )+
                Ok(())
            }
            fn get(r: &mut &[u8]) -> Result<Self> {
                Ok($name { $( $field: Wire::get(r)? ),+ })
            }
        }
    };
}

/// Declares a message enum and derives its wire format from the one
/// table: `Variant = tag`, `Variant(name: Type) = tag` or
/// `Variant { field: Type, .. } = tag`, fields in wire order, each
/// optionally followed by `=> "op"` (all variants or none) to generate
/// `op()`. `encode` writes the tag, then each field's [`Wire::put`];
/// `decode` reads them back and rejects trailing bytes.
macro_rules! wire_messages {
    (@op $name:ident $( $variant:ident => $op:literal ),+) => {
        impl $name {
            /// Short operation label for accounting and trace events.
            pub fn op(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $op, )+
                }
            }
        }
    };
    (@op $name:ident $( $variant:ident ),+) => {};
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $( ($body:ident: $bty:ty) )?
                $( { $( $(#[$fmeta:meta])* $field:ident: $fty:ty ),+ $(,)? } )?
                = $tag:literal $(=> $op:literal)?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ($bty) )? $( { $( $(#[$fmeta])* $field: $fty ),+ } )?
            ),+
        }

        impl $name {
            /// Encodes the payload (without the frame length prefix).
            pub fn encode(&self) -> Result<Vec<u8>> {
                let mut out = Vec::new();
                match self {
                    $(
                        $name::$variant $( ($body) )? $( { $( $field ),+ } )? => {
                            out.push($tag);
                            $( $body.put(&mut out)?; )?
                            $( $( $field.put(&mut out)?; )+ )?
                        }
                    )+
                }
                Ok(out)
            }

            /// Decodes a payload. Total: every malformed input is an
            /// `InvalidData` error.
            pub fn decode(mut buf: &[u8]) -> Result<$name> {
                let r = &mut buf;
                let message = match u8::get(r)? {
                    $(
                        $tag => $name::$variant
                            $( (<$bty as Wire>::get(r)?) )?
                            $( { $( $field: Wire::get(r)? ),+ } )?,
                    )+
                    tag => {
                        let kind = stringify!($name).to_lowercase();
                        return Err(invalid(format!("unknown {kind} tag {tag}")));
                    }
                };
                if !r.is_empty() {
                    return Err(invalid("trailing bytes after message payload"));
                }
                Ok(message)
            }
        }

        wire_messages!(@op $name $( $variant $(=> $op)? ),+);
    };
}

wire_messages! {
    /// A client-to-server message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Liveness probe.
        Ping = 1 => "ping",
        /// Server-wide counters snapshot.
        Stats = 2 => "stats",
        /// Out-degree of one vertex.
        Degree {
            /// Vertex to look up.
            v: u32,
        } = 3 => "degree",
        /// Sorted out-neighbor list of one vertex.
        Neighbors {
            /// Vertex to look up.
            v: u32,
        } = 4 => "neighbors",
        /// Bounded breadth-first traversal: depths of every vertex within
        /// `k` hops of `source`.
        KHop {
            /// Traversal root.
            source: u32,
            /// Hop bound.
            k: u32,
        } = 5 => "khop",
        /// Personalized PageRank from a seed set, truncated at `iterations`
        /// propagation rounds.
        Ppr {
            /// Seed vertices (order does not matter; duplicates are merged).
            seeds: Vec<u32>,
            /// Damping factor as IEEE-754 bits (`f32::to_bits`).
            alpha_bits: u32,
            /// Propagation rounds — the traversal bound.
            iterations: u32,
        } = 6 => "ppr",
        /// Full analytic run of a named algorithm over the whole graph.
        Run {
            /// Algorithm name (`pagerank`, `pagerank-delta`, `cc`, `sssp`,
            /// `bfs`).
            algo: String,
            /// Source vertex for the rooted algorithms; ignored otherwise.
            source: u32,
            /// Iteration override; 0 means the algorithm's own default.
            iterations: u32,
        } = 7 => "run",
        /// Graceful shutdown: the server answers [`Response::ShuttingDown`],
        /// drains nothing further and exits.
        Shutdown = 8 => "shutdown",
        /// Commit a mutation batch against the served grid as one delta
        /// epoch. The daemon applies it between queries, so every query
        /// observes a whole epoch or none of it.
        Mutate {
            /// Ops in application order.
            ops: Vec<DeltaOp>,
        } = 9 => "mutate",
        /// Fold the served grid's live delta segments into its base
        /// sub-blocks.
        Compact = 10 => "compact",
    }
}

wire_struct! {
    /// The server-wide counter snapshot carried by [`Response::Stats`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsBody {
        /// Vertices in the served grid.
        pub vertices: u64,
        /// Edges in the served grid.
        pub edges: u64,
        /// Partition count P of the P×P grid.
        pub p: u64,
        /// Queries accepted since start (admin ops included).
        pub queries: u64,
        /// Sub-block cache hits charged to queries.
        pub cache_hits: u64,
        /// Sub-block cache misses charged to queries.
        pub cache_misses: u64,
        /// Bytes currently resident in the sub-block cache.
        pub cache_bytes: u64,
        /// Entries currently resident in the sub-block cache.
        pub cache_entries: u64,
        /// Bytes read from storage on behalf of queries.
        pub bytes_read: u64,
        /// Sub-blocks read from storage on behalf of queries.
        pub blocks_read: u64,
        /// Scatter passes executed by the batching scheduler.
        pub batch_passes: u64,
        /// Traversal queries that shared a pass with at least one other.
        pub batched_queries: u64,
    }
}

wire_messages! {
    /// A server-to-client message.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Answer to [`Request::Ping`].
        Pong = 1,
        /// Answer to [`Request::Stats`].
        Stats(body: StatsBody) = 2,
        /// Answer to [`Request::Degree`].
        Degree {
            /// Out-degree of the requested vertex.
            degree: u32,
        } = 3,
        /// Answer to [`Request::Neighbors`]: ascending, deduplicated.
        Neighbors {
            /// Sorted out-neighbors.
            neighbors: Vec<u32>,
        } = 4,
        /// Answer to [`Request::KHop`]: `(vertex, depth)` for every reached
        /// vertex, ascending by vertex.
        Depths {
            /// Reached vertices and their hop depths.
            depths: Vec<(u32, u32)>,
        } = 5,
        /// Answer to [`Request::Ppr`]: `(vertex, rank_bits)` for every
        /// vertex holding mass, ascending by vertex. Ranks travel as f32
        /// bits so equality is exact.
        Scores {
            /// Vertices with non-zero rank and the rank's IEEE-754 bits.
            scores: Vec<(u32, u32)>,
        } = 6,
        /// Answer to [`Request::Run`].
        RunSummary {
            /// Algorithm that ran.
            algorithm: String,
            /// BSP iterations executed.
            iterations: u32,
            /// FNV-1a fingerprint over the committed value bits.
            fingerprint: u64,
            /// Bytes the run read from storage.
            bytes_read: u64,
        } = 7,
        /// Any failure; the connection stays usable.
        Error {
            /// Human-readable diagnostic.
            message: String,
        } = 8,
        /// Answer to [`Request::Shutdown`].
        ShuttingDown = 9,
        /// Answer to [`Request::Mutate`].
        Mutated {
            /// The epoch the batch committed.
            epoch: u64,
            /// `|E|` of the merged grid after the batch.
            merged_edges: u64,
            /// Delta segment objects written.
            segments: u64,
        } = 10,
        /// Answer to [`Request::Compact`]. All-zero counters mean there were
        /// no live segments and the pass was a no-op.
        Compacted {
            /// The grid's delta epoch (unchanged by compaction).
            epoch: u64,
            /// Segments folded and deleted.
            segments_folded: u64,
            /// Base objects rewritten.
            objects_rewritten: u64,
            /// Fingerprint of the rebuilt object set (zero for a no-op).
            fingerprint: u64,
        } = 11,
    }
}

/// Writes one frame: `u32` little-endian payload length, then the
/// payload, then a flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            invalid(format!(
                "frame payload of {} bytes exceeds the cap",
                payload.len()
            ))
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. A length prefix beyond [`MAX_FRAME_BYTES`]
/// is rejected, and the buffer grows only with the bytes that arrive: a
/// prefix followed by a stall or an early EOF reserves nothing up front.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(Error::new(
            ErrorKind::UnexpectedEof,
            format!("frame ended after {} of {len} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Stats,
            Request::Degree { v: 7 },
            Request::Neighbors { v: u32::MAX },
            Request::KHop { source: 3, k: 2 },
            Request::Ppr {
                seeds: vec![1, 5, 9],
                alpha_bits: 0.85f32.to_bits(),
                iterations: 4,
            },
            Request::Run {
                algo: "pagerank".to_string(),
                source: 0,
                iterations: 5,
            },
            Request::Mutate {
                ops: vec![
                    DeltaOp::Insert(Edge::weighted(1, 2, 1.5)),
                    DeltaOp::Delete { src: 3, dst: 4 },
                ],
            },
            Request::Compact,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let bytes = req.encode().unwrap();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
            // The trace decoder only knows the ops of this closed set.
            assert!(gsd_trace::labels::QUERY_OPS.contains(&req.op()), "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let stats = StatsBody {
            vertices: 1,
            batched_queries: 12,
            ..StatsBody::default()
        };
        for resp in [
            Response::Stats(stats),
            Response::Depths {
                depths: vec![(0, 0), (3, 1)],
            },
            Response::RunSummary {
                algorithm: "cc".to_string(),
                iterations: 9,
                fingerprint: 0xdead_beef,
                bytes_read: 1 << 20,
            },
        ] {
            let bytes = resp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn bad_counts_op_codes_and_strings_are_rejected() {
        // Tag 6 (Ppr) with a seed count claiming 1 billion entries in a
        // 9-byte payload: refused before anything is allocated.
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&1_000_000_000u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Request::decode(&bytes).is_err());
        // A mutation op code other than 0 or 1.
        let mut bytes = vec![9u8, 1, 0, 0, 0, 2];
        bytes.extend_from_slice(&[0; 12]);
        let err = Request::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("op code 2"), "{err}");
        // A string that is not UTF-8.
        let err = Response::decode(&[8, 1, 0, 0xff]).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
        let err = Request::decode(&[42]).unwrap_err();
        assert_eq!(err.to_string(), "unknown request tag 42");
    }

    #[test]
    fn frames_round_trip_and_oversize_lengths_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");

        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut cursor = &huge[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn a_frame_that_ends_early_is_an_unexpected_eof() {
        // A prefix claiming the largest legal frame, then 3 bytes, then EOF.
        let mut buf = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut cursor = &buf[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
    }
}
