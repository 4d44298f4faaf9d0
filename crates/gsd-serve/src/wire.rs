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
//! The codec is hand-rolled (the vendored serde stand-in cannot derive
//! data-carrying enums) and total: [`Request::decode`] /
//! [`Response::decode`] reject truncated, oversized or unknown-tag
//! payloads with `InvalidData` instead of panicking, so a malformed
//! client cannot take the daemon down.

use std::io::{Error, ErrorKind, Read, Result, Write};

/// Hard ceiling on one frame's payload (64 MiB). A length prefix beyond
/// this is treated as a protocol error rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// First frame a client must send: protocol magic + version. The server
/// answers any other opening frame with [`Response::Error`] and closes.
pub const HANDSHAKE: &[u8; 8] = b"GSDSRV01";

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server-wide counters snapshot.
    Stats,
    /// Out-degree of one vertex.
    Degree {
        /// Vertex to look up.
        v: u32,
    },
    /// Sorted out-neighbor list of one vertex.
    Neighbors {
        /// Vertex to look up.
        v: u32,
    },
    /// Bounded breadth-first traversal: depths of every vertex within
    /// `k` hops of `source`.
    KHop {
        /// Traversal root.
        source: u32,
        /// Hop bound.
        k: u32,
    },
    /// Personalized PageRank from a seed set, truncated at `iterations`
    /// propagation rounds.
    Ppr {
        /// Seed vertices (order does not matter; duplicates are merged).
        seeds: Vec<u32>,
        /// Damping factor as IEEE-754 bits (`f32::to_bits`).
        alpha_bits: u32,
        /// Propagation rounds — the traversal bound.
        iterations: u32,
    },
    /// Full analytic run of a named algorithm over the whole graph.
    Run {
        /// Algorithm name (`pagerank`, `pagerank-delta`, `cc`, `sssp`,
        /// `bfs`).
        algo: String,
        /// Source vertex for the rooted algorithms; ignored otherwise.
        source: u32,
        /// Iteration override; 0 means the algorithm's own default.
        iterations: u32,
    },
    /// Commit a mutation batch against the served grid as one delta
    /// epoch. The daemon applies it between queries, so every query
    /// observes a whole epoch or none of it.
    Mutate {
        /// Ops in application order.
        ops: Vec<MutateOp>,
    },
    /// Fold the served grid's live delta segments into its base
    /// sub-blocks.
    Compact,
    /// Graceful shutdown: the server answers [`Response::ShuttingDown`],
    /// drains nothing further and exits.
    Shutdown,
}

/// One wire-encoded mutation op. Weights travel as IEEE-754 bits
/// (`f32::to_bits`) so encoding is exact and the message type stays `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateOp {
    /// 0 = insert, 1 = delete (every copy of the pair).
    pub op: u8,
    /// Edge source.
    pub src: u32,
    /// Edge destination.
    pub dst: u32,
    /// Insert weight bits; zero for deletes.
    pub weight_bits: u32,
}

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

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`].
    Stats(StatsBody),
    /// Answer to [`Request::Degree`].
    Degree {
        /// Out-degree of the requested vertex.
        degree: u32,
    },
    /// Answer to [`Request::Neighbors`]: ascending, deduplicated.
    Neighbors {
        /// Sorted out-neighbors.
        neighbors: Vec<u32>,
    },
    /// Answer to [`Request::KHop`]: `(vertex, depth)` for every reached
    /// vertex, ascending by vertex.
    Depths {
        /// Reached vertices and their hop depths.
        depths: Vec<(u32, u32)>,
    },
    /// Answer to [`Request::Ppr`]: `(vertex, rank_bits)` for every
    /// vertex holding mass, ascending by vertex. Ranks travel as f32
    /// bits so equality is exact.
    Scores {
        /// Vertices with non-zero rank and the rank's IEEE-754 bits.
        scores: Vec<(u32, u32)>,
    },
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
    },
    /// Any failure; the connection stays usable.
    Error {
        /// Human-readable diagnostic.
        message: String,
    },
    /// Answer to [`Request::Shutdown`].
    ShuttingDown,
    /// Answer to [`Request::Mutate`].
    Mutated {
        /// The epoch the batch committed.
        epoch: u64,
        /// `|E|` of the merged grid after the batch.
        merged_edges: u64,
        /// Delta segment objects written.
        segments: u64,
    },
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
    },
}

fn truncated() -> Error {
    Error::new(ErrorKind::InvalidData, "truncated frame payload")
}

/// Little-endian payload reader over a decoded frame.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::new(ErrorKind::InvalidData, "string field is not UTF-8"))
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>> {
        let count = self.u32()? as usize;
        // 4 bytes per element must still fit in the frame we hold.
        if count > self.buf.len().saturating_sub(self.pos) / 4 {
            return Err(truncated());
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn pair_vec(&mut self) -> Result<Vec<(u32, u32)>> {
        let count = self.u32()? as usize;
        if count > self.buf.len().saturating_sub(self.pos) / 8 {
            return Err(truncated());
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let a = self.u32()?;
            let b = self.u32()?;
            out.push((a, b));
        }
        Ok(out)
    }

    fn finish(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::new(
                ErrorKind::InvalidData,
                "trailing bytes after message payload",
            ))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<()> {
    let len = u16::try_from(s.len())
        .map_err(|_| Error::new(ErrorKind::InvalidData, "string field longer than 64 KiB"))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_u32_vec(out: &mut Vec<u8>, xs: &[u32]) -> Result<()> {
    let len = u32::try_from(xs.len())
        .map_err(|_| Error::new(ErrorKind::InvalidData, "vector longer than u32::MAX"))?;
    put_u32(out, len);
    for x in xs {
        put_u32(out, *x);
    }
    Ok(())
}

fn put_pair_vec(out: &mut Vec<u8>, xs: &[(u32, u32)]) -> Result<()> {
    let len = u32::try_from(xs.len())
        .map_err(|_| Error::new(ErrorKind::InvalidData, "vector longer than u32::MAX"))?;
    put_u32(out, len);
    for (a, b) in xs {
        put_u32(out, *a);
        put_u32(out, *b);
    }
    Ok(())
}

impl Request {
    /// Encodes the request payload (without the frame length prefix).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(1),
            Request::Stats => out.push(2),
            Request::Degree { v } => {
                out.push(3);
                put_u32(&mut out, *v);
            }
            Request::Neighbors { v } => {
                out.push(4);
                put_u32(&mut out, *v);
            }
            Request::KHop { source, k } => {
                out.push(5);
                put_u32(&mut out, *source);
                put_u32(&mut out, *k);
            }
            Request::Ppr {
                seeds,
                alpha_bits,
                iterations,
            } => {
                out.push(6);
                put_u32_vec(&mut out, seeds)?;
                put_u32(&mut out, *alpha_bits);
                put_u32(&mut out, *iterations);
            }
            Request::Run {
                algo,
                source,
                iterations,
            } => {
                out.push(7);
                put_string(&mut out, algo)?;
                put_u32(&mut out, *source);
                put_u32(&mut out, *iterations);
            }
            Request::Shutdown => out.push(8),
            Request::Mutate { ops } => {
                out.push(9);
                let len = u32::try_from(ops.len()).map_err(|_| {
                    Error::new(ErrorKind::InvalidData, "batch longer than u32::MAX ops")
                })?;
                put_u32(&mut out, len);
                for op in ops {
                    out.push(op.op);
                    put_u32(&mut out, op.src);
                    put_u32(&mut out, op.dst);
                    put_u32(&mut out, op.weight_bits);
                }
            }
            Request::Compact => out.push(10),
        }
        Ok(out)
    }

    /// Decodes a request payload. Total: every malformed input is an
    /// `InvalidData` error.
    pub fn decode(buf: &[u8]) -> Result<Request> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            1 => Request::Ping,
            2 => Request::Stats,
            3 => Request::Degree { v: r.u32()? },
            4 => Request::Neighbors { v: r.u32()? },
            5 => Request::KHop {
                source: r.u32()?,
                k: r.u32()?,
            },
            6 => Request::Ppr {
                seeds: r.u32_vec()?,
                alpha_bits: r.u32()?,
                iterations: r.u32()?,
            },
            7 => Request::Run {
                algo: r.string()?,
                source: r.u32()?,
                iterations: r.u32()?,
            },
            8 => Request::Shutdown,
            9 => {
                let count = r.u32()? as usize;
                // 13 bytes per op must still fit in the frame we hold.
                if count > r.buf.len().saturating_sub(r.pos) / 13 {
                    return Err(truncated());
                }
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    let op = r.u8()?;
                    if op > 1 {
                        return Err(Error::new(
                            ErrorKind::InvalidData,
                            format!("unknown mutation op code {op}"),
                        ));
                    }
                    ops.push(MutateOp {
                        op,
                        src: r.u32()?,
                        dst: r.u32()?,
                        weight_bits: r.u32()?,
                    });
                }
                Request::Mutate { ops }
            }
            10 => Request::Compact,
            tag => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("unknown request tag {tag}"),
                ))
            }
        };
        r.finish()?;
        Ok(req)
    }

    /// Short operation label for accounting and trace events.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Degree { .. } => "degree",
            Request::Neighbors { .. } => "neighbors",
            Request::KHop { .. } => "khop",
            Request::Ppr { .. } => "ppr",
            Request::Run { .. } => "run",
            Request::Shutdown => "shutdown",
            Request::Mutate { .. } => "mutate",
            Request::Compact => "compact",
        }
    }
}

impl Response {
    /// Encodes the response payload (without the frame length prefix).
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(1),
            Response::Stats(s) => {
                out.push(2);
                for field in [
                    s.vertices,
                    s.edges,
                    s.p,
                    s.queries,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_bytes,
                    s.cache_entries,
                    s.bytes_read,
                    s.blocks_read,
                    s.batch_passes,
                    s.batched_queries,
                ] {
                    put_u64(&mut out, field);
                }
            }
            Response::Degree { degree } => {
                out.push(3);
                put_u32(&mut out, *degree);
            }
            Response::Neighbors { neighbors } => {
                out.push(4);
                put_u32_vec(&mut out, neighbors)?;
            }
            Response::Depths { depths } => {
                out.push(5);
                put_pair_vec(&mut out, depths)?;
            }
            Response::Scores { scores } => {
                out.push(6);
                put_pair_vec(&mut out, scores)?;
            }
            Response::RunSummary {
                algorithm,
                iterations,
                fingerprint,
                bytes_read,
            } => {
                out.push(7);
                put_string(&mut out, algorithm)?;
                put_u32(&mut out, *iterations);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *bytes_read);
            }
            Response::Error { message } => {
                out.push(8);
                put_string(&mut out, message)?;
            }
            Response::ShuttingDown => out.push(9),
            Response::Mutated {
                epoch,
                merged_edges,
                segments,
            } => {
                out.push(10);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *merged_edges);
                put_u64(&mut out, *segments);
            }
            Response::Compacted {
                epoch,
                segments_folded,
                objects_rewritten,
                fingerprint,
            } => {
                out.push(11);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *segments_folded);
                put_u64(&mut out, *objects_rewritten);
                put_u64(&mut out, *fingerprint);
            }
        }
        Ok(out)
    }

    /// Decodes a response payload.
    pub fn decode(buf: &[u8]) -> Result<Response> {
        let mut r = Reader::new(buf);
        let resp = match r.u8()? {
            1 => Response::Pong,
            2 => Response::Stats(StatsBody {
                vertices: r.u64()?,
                edges: r.u64()?,
                p: r.u64()?,
                queries: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                cache_bytes: r.u64()?,
                cache_entries: r.u64()?,
                bytes_read: r.u64()?,
                blocks_read: r.u64()?,
                batch_passes: r.u64()?,
                batched_queries: r.u64()?,
            }),
            3 => Response::Degree { degree: r.u32()? },
            4 => Response::Neighbors {
                neighbors: r.u32_vec()?,
            },
            5 => Response::Depths {
                depths: r.pair_vec()?,
            },
            6 => Response::Scores {
                scores: r.pair_vec()?,
            },
            7 => Response::RunSummary {
                algorithm: r.string()?,
                iterations: r.u32()?,
                fingerprint: r.u64()?,
                bytes_read: r.u64()?,
            },
            8 => Response::Error {
                message: r.string()?,
            },
            9 => Response::ShuttingDown,
            10 => Response::Mutated {
                epoch: r.u64()?,
                merged_edges: r.u64()?,
                segments: r.u64()?,
            },
            11 => Response::Compacted {
                epoch: r.u64()?,
                segments_folded: r.u64()?,
                objects_rewritten: r.u64()?,
                fingerprint: r.u64()?,
            },
            tag => {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("unknown response tag {tag}"),
                ))
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Writes one frame: `u32` little-endian payload length, then the
/// payload, then a flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            Error::new(
                ErrorKind::InvalidData,
                format!("frame payload of {} bytes exceeds the cap", payload.len()),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Rejects length prefixes beyond
/// [`MAX_FRAME_BYTES`] before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
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
                    MutateOp {
                        op: 0,
                        src: 1,
                        dst: 2,
                        weight_bits: 1.5f32.to_bits(),
                    },
                    MutateOp {
                        op: 1,
                        src: 3,
                        dst: 4,
                        weight_bits: 0,
                    },
                ],
            },
            Request::Compact,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Pong,
            Response::Stats(StatsBody {
                vertices: 1,
                edges: 2,
                p: 3,
                queries: 4,
                cache_hits: 5,
                cache_misses: 6,
                cache_bytes: 7,
                cache_entries: 8,
                bytes_read: 9,
                blocks_read: 10,
                batch_passes: 11,
                batched_queries: 12,
            }),
            Response::Degree { degree: 42 },
            Response::Neighbors {
                neighbors: vec![0, 1, 2],
            },
            Response::Depths {
                depths: vec![(0, 0), (3, 1)],
            },
            Response::Scores {
                scores: vec![(2, 0.5f32.to_bits())],
            },
            Response::RunSummary {
                algorithm: "cc".to_string(),
                iterations: 9,
                fingerprint: 0xdead_beef,
                bytes_read: 1 << 20,
            },
            Response::Error {
                message: "no such vertex".to_string(),
            },
            Response::ShuttingDown,
            Response::Mutated {
                epoch: 3,
                merged_edges: 1234,
                segments: 2,
            },
            Response::Compacted {
                epoch: 3,
                segments_folded: 2,
                objects_rewritten: 5,
                fingerprint: 0xfeed_f00d,
            },
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
        for resp in all_responses() {
            let bytes = resp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn identical_messages_encode_identically() {
        let a = Request::KHop { source: 3, k: 2 }.encode().unwrap();
        let b = Request::KHop { source: 3, k: 2 }.encode().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_and_unknown_payloads_are_errors_not_panics() {
        for req in all_requests() {
            let bytes = req.encode().unwrap();
            for cut in 0..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "{req:?} cut {cut}");
            }
        }
        assert!(Request::decode(&[99]).is_err(), "unknown tag");
        assert!(Response::decode(&[99]).is_err(), "unknown tag");
        // Trailing garbage is rejected too.
        let mut bytes = Request::Ping.encode().unwrap();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn absurd_vector_count_is_rejected_without_allocating() {
        // Tag 6 (Ppr) with a seed count claiming 1 billion entries in a
        // 9-byte payload.
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&1_000_000_000u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(Request::decode(&bytes).is_err());
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
}
