//! The one writer of the grid layout: which objects a grid row consists
//! of, under which keys, in which bytes.
//!
//! [`preprocess`](crate::preprocess) loops [`row_objects`] over every
//! row and [`repair_grid`](crate::integrity::repair_grid) calls it for
//! the rows that hold a corrupt object. Because nothing else decides a
//! key or encodes a payload, a repaired row is byte-identical to what a
//! from-scratch preprocess of the same edges writes. Compaction
//! (`gsd-delta`) writes the overlay's merged payloads, which are that
//! layout already, and lays their row's index out with the same
//! [`row_index_object`] from [`index_column`]s.

use crate::format::{block_edges_key, encode_u32s, row_index_key, RowIndexLayout, DEGREES_KEY};
use crate::partition::Intervals;
use crate::types::{Edge, EdgeCodec, Records};
use gsd_trace::Stopwatch;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How the edges inside each sub-block are ordered — the one value that
/// tells the three layouts in use apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockOrder {
    /// Input order, no index (the Lumos-like layout).
    Unsorted,
    /// Sorted by `(src, dst)`, with one vertex-major index per row (the
    /// GraphSD layout and HUS-Graph's row copy).
    BySource,
    /// Sorted by `(dst, src)`, no index (HUS-Graph's column copy, which
    /// is only ever streamed).
    ByDest,
}

impl BlockOrder {
    /// The canonical key of an edge record under this order:
    /// `(primary, secondary, weight bits)`, with the primary key `src` for
    /// `BySource` and `dst` for `ByDest`. The weight-bits tiebreak makes
    /// it a *total* order on edge records: a block sorted by it depends
    /// only on its edge multiset, never on input order or sort stability,
    /// which is what lets a delta merge reproduce the bytes a full
    /// re-preprocess of the merged edge list would write. `Unsorted`
    /// blocks keep input order and carry no delta; their key is
    /// `BySource`'s.
    #[inline]
    pub fn key(self, e: &Edge) -> (u32, u32, u32) {
        match self {
            BlockOrder::BySource | BlockOrder::Unsorted => (e.src, e.dst, e.weight.to_bits()),
            BlockOrder::ByDest => (e.dst, e.src, e.weight.to_bits()),
        }
    }

    /// Sorts sub-block `(i, j)` into this order's [`key`](Self::key) and
    /// returns its column of row `i`'s index (empty where the order has
    /// none).
    pub fn sort(self, i: u32, j: u32, intervals: &Intervals, edges: &mut Vec<Edge>) -> Vec<u32> {
        // Each arm passes a key its order is constant in, so each sort is
        // compiled for its own order.
        match self {
            BlockOrder::Unsorted => Vec::new(),
            BlockOrder::BySource => {
                counting_sort(edges, intervals.range(i), |e| BlockOrder::BySource.key(e))
            }
            BlockOrder::ByDest => {
                counting_sort(edges, intervals.range(j), |e| BlockOrder::ByDest.key(e));
                Vec::new()
            }
        }
    }

    /// Whether rows carry a row index (see
    /// [`row_index_key`](crate::format::row_index_key)).
    pub fn has_row_index(self) -> bool {
        self == BlockOrder::BySource
    }
}

/// Sorts `edges` by `key` in time linear in `edges.len() + range.len()`
/// and returns the CSR offsets (edge indexes, not bytes) of the key's
/// first field over `range`, which must contain it: count, prefix-sum,
/// scatter, then order the edges that share a first field by the rest
/// of the key — the only comparisons made.
fn counting_sort(
    edges: &mut Vec<Edge>,
    range: std::ops::Range<u32>,
    key: impl Fn(&Edge) -> (u32, u32, u32),
) -> Vec<u32> {
    let len = range.len();
    let slot = |e: &Edge| (key(e).0 - range.start) as usize;
    // `offsets[k + 1]` is key `k`'s write cursor: it starts where the
    // key's run starts and ends where the next one does, so once every
    // edge is placed `offsets[..=len]` are the run starts.
    let mut offsets = vec![0u32; len + 2];
    for e in edges.iter() {
        offsets[slot(e) + 2] += 1;
    }
    for k in 2..len + 2 {
        offsets[k] += offsets[k - 1];
    }
    let mut sorted = edges.clone();
    for e in edges.iter() {
        let cursor = &mut offsets[slot(e) + 1];
        sorted[*cursor as usize] = *e;
        *cursor += 1;
    }
    offsets.truncate(len + 1);
    for run in offsets.windows(2) {
        let run = &mut sorted[run[0] as usize..run[1] as usize];
        if run.len() > 1 {
            run.sort_unstable_by_key(|e| {
                let (_, secondary, weight) = key(e);
                (secondary, weight)
            });
        }
    }
    *edges = sorted;
    offsets
}

/// Buckets `edges` into the `P × P` sub-blocks of `intervals`, row-major
/// (`blocks[i * P + j]` is sub-block `(i, j)`, so row `i` is the `i`-th
/// chunk of `P`), each in input order and allocated once.
pub fn bucket_edges(edges: &[Edge], intervals: &Intervals) -> Vec<Vec<Edge>> {
    let p = intervals.count() as usize;
    let mut interval_of = Vec::with_capacity(intervals.num_vertices() as usize);
    for i in 0..intervals.count() {
        interval_of.extend(intervals.range(i).map(|_| i));
    }
    let block_of =
        |e: &Edge| interval_of[e.src as usize] as usize * p + interval_of[e.dst as usize] as usize;
    let mut counts = vec![0usize; p * p];
    for e in edges {
        counts[block_of(e)] += 1;
    }
    let mut blocks: Vec<Vec<Edge>> = counts.into_iter().map(Vec::with_capacity).collect();
    for e in edges {
        blocks[block_of(e)].push(*e);
    }
    blocks
}

/// Prefix-relative keys of row `i`'s objects, in the order
/// [`row_objects`] returns them: the `P` edge payloads by column, then
/// the row index if `order` has one.
pub fn row_keys(i: u32, p: u32, order: BlockOrder) -> Vec<String> {
    let mut keys: Vec<String> = (0..p).map(|j| block_edges_key("", i, j)).collect();
    if order.has_row_index() {
        keys.push(row_index_key("", i));
    }
    keys
}

/// The objects of one grid row, ready to be written.
#[derive(Debug)]
pub struct RowObjects {
    /// `(prefix-relative key, payload)`, keyed as [`row_keys`] lists.
    pub objects: Vec<(String, Vec<u8>)>,
    /// Time spent sorting and indexing (zero for [`BlockOrder::Unsorted`]).
    pub sort: Duration,
}

/// Lays out row `i` from its `P` sub-blocks (`blocks[j]` holds the edges
/// of sub-block `(i, j)`, in any order): sorts each block in place into
/// `order`, which yields its column of the row index where the order has
/// one, and encodes it with the grid's `codec` based at the starts of
/// intervals `i` and `j`.
pub fn row_objects(
    i: u32,
    blocks: &mut [Vec<Edge>],
    order: BlockOrder,
    intervals: &Intervals,
    codec: EdgeCodec,
) -> RowObjects {
    let t = Stopwatch::start();
    let columns: Vec<Vec<u32>> = (0..)
        .zip(blocks.iter_mut())
        .map(|(j, block)| order.sort(i, j, intervals, block))
        .collect();
    let sort = if order == BlockOrder::Unsorted {
        Duration::ZERO
    } else {
        t.elapsed()
    };
    let src_base = intervals.range(i).start;
    let mut payloads: Vec<Vec<u8>> = (0..)
        .zip(blocks.iter())
        .map(|(j, b)| codec.at(src_base, intervals.range(j).start).encode_all(b))
        .collect();
    if order.has_row_index() {
        payloads.push(row_index_object(i, &columns).1);
    }
    let p = crate::narrow::from_usize(blocks.len(), "interval count");
    RowObjects {
        objects: row_keys(i, p, order).into_iter().zip(payloads).collect(),
        sort,
    }
}

/// Row `i`'s index object from its `P` columns: `columns[j]` holds
/// sub-block `(i, j)`'s per-source edge offsets over interval `i`
/// (`len_i + 1` entries, the last one the block's edge count), and the
/// object interleaves the columns its [`RowIndexLayout`] stores
/// vertex-major, at that layout's width, as [`row_index_key`] lays it
/// out. The layout is the rule's, from the counts the columns end on.
pub fn row_index_object(i: u32, columns: &[impl AsRef<[u32]>]) -> (String, Vec<u8>) {
    let rows = columns.first().map_or(0, |column| column.as_ref().len());
    let counts: Vec<u64> = columns
        .iter()
        .map(|column| column.as_ref().last().map_or(0, |&end| u64::from(end)))
        .collect();
    let layout = RowIndexLayout::of(&counts);
    let mut bytes = Vec::with_capacity(rows * layout.bytes_per_vertex());
    for k in 0..rows {
        for &j in &layout.columns {
            // Fits the width: a 2-byte row's offsets are at most 65 535.
            let offset = columns[j as usize].as_ref()[k].to_le_bytes();
            bytes.extend_from_slice(&offset[..layout.width]);
        }
    }
    (row_index_key("", i), bytes)
}

/// The row-index column of a source-sorted block payload of `codec`
/// records (the block's codec): the offset of each source's first record
/// over `sources`, which must hold every record's source, then the record
/// count. The walk stores one past each record's index in the entry after
/// its source's, so each such entry ends one past the source's last
/// record, and a running maximum carries those ends over the sources
/// without records. No store depends on the one before it.
pub fn index_column(payload: &[u8], codec: EdgeCodec, sources: std::ops::Range<u32>) -> Vec<u32> {
    let mut offsets = vec![0u32; sources.len() + 1];
    crate::with_layout!(codec, <ID, WEIGHTED> => {
        let records = Records::<ID, WEIGHTED>::new(payload, codec);
        for (k, end) in (0..records.len()).zip(1..) {
            offsets[(records.src(k) - sources.start) as usize + 1] = end;
        }
    });
    for k in 1..offsets.len() {
        offsets[k] = offsets[k].max(offsets[k - 1]);
    }
    offsets
}

/// The out-degree table as `(prefix-relative key, payload)`.
pub fn degrees_object(degrees: &[u32]) -> (String, Vec<u8>) {
    (DEGREES_KEY.to_string(), encode_u32s(degrees))
}
