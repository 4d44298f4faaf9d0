//! The one writer of the grid layout: which objects a grid row consists
//! of, under which keys, in which bytes.
//!
//! [`preprocess`](crate::preprocess) loops [`row_objects`] over every
//! row, [`repair_grid`](crate::integrity::repair_grid) calls it for the
//! rows that hold a corrupt object and compaction (`gsd-delta`) for the
//! rows that hold a merged sub-block. Because nothing else decides a key
//! or encodes a payload, a repaired or compacted row is byte-identical to
//! what a from-scratch preprocess of the same edges writes.

use crate::format::{block_edges_key, encode_u32s, row_index_key, DEGREES_KEY};
use crate::partition::Intervals;
use crate::types::{Edge, EdgeCodec};
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
    /// Sorts one sub-block into this order. The weight-bits tiebreak
    /// makes it a *canonical total order* on edge records: the sorted
    /// payload depends only on the edge multiset, never on input order or
    /// sort stability, which is what lets a delta merge reproduce the
    /// bytes a full re-preprocess of the merged edge list would write.
    pub fn sort(self, edges: &mut [Edge]) {
        match self {
            BlockOrder::Unsorted => {}
            BlockOrder::BySource => {
                edges.sort_unstable_by_key(|e| (e.src, e.dst, e.weight.to_bits()))
            }
            BlockOrder::ByDest => {
                edges.sort_unstable_by_key(|e| (e.dst, e.src, e.weight.to_bits()))
            }
        }
    }

    /// Whether rows carry a row index (see
    /// [`row_index_key`](crate::format::row_index_key)).
    pub fn has_row_index(self) -> bool {
        self == BlockOrder::BySource
    }
}

/// Buckets `edges` into the `P × P` sub-blocks of `intervals`, row-major
/// (`blocks[i * P + j]` is sub-block `(i, j)`, so row `i` is the `i`-th
/// chunk of `P`), each in input order.
pub fn bucket_edges(edges: &[Edge], intervals: &Intervals) -> Vec<Vec<Edge>> {
    let p = intervals.count();
    let mut blocks: Vec<Vec<Edge>> = vec![Vec::new(); (p * p) as usize];
    for e in edges {
        let i = intervals.interval_of(e.src);
        let j = intervals.interval_of(e.dst);
        blocks[(i * p + j) as usize].push(*e);
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
    /// Time spent sorting (zero for [`BlockOrder::Unsorted`]).
    pub sort: Duration,
}

/// Lays out row `i` from its `P` sub-blocks (`blocks[j]` holds the edges
/// of sub-block `(i, j)`, in any order): sorts each block in place into
/// `order`, encodes it, and builds the row index where the order has one.
pub fn row_objects(
    i: u32,
    blocks: &mut [Vec<Edge>],
    order: BlockOrder,
    intervals: &Intervals,
    codec: EdgeCodec,
) -> RowObjects {
    let p = blocks.len();
    let mut sort = Duration::ZERO;
    if order != BlockOrder::Unsorted {
        let t = Stopwatch::start();
        for block in blocks.iter_mut() {
            order.sort(block);
        }
        sort = t.elapsed();
    }
    let mut payloads: Vec<Vec<u8>> = blocks.iter().map(|b| codec.encode_all(b)).collect();
    if order.has_row_index() {
        // Vertex-major: `(len_i + 1) × P` offsets, filled column by column.
        let range = intervals.range(i);
        let mut row_index = vec![0u32; (range.len() + 1) * p];
        for (j, block) in blocks.iter().enumerate() {
            for (k, off) in build_index(block, range.clone()).into_iter().enumerate() {
                row_index[k * p + j] = off;
            }
        }
        payloads.push(encode_u32s(&row_index));
    }
    let keys = row_keys(i, crate::narrow::from_usize(p, "interval count"), order);
    RowObjects {
        objects: keys.into_iter().zip(payloads).collect(),
        sort,
    }
}

/// The out-degree table as `(prefix-relative key, payload)`.
pub fn degrees_object(degrees: &[u32]) -> (String, Vec<u8>) {
    (DEGREES_KEY.to_string(), encode_u32s(degrees))
}

/// CSR offsets (edge indexes, not bytes) over the source vertices of
/// `range` for a source-sorted sub-block: column `j` of row `i`'s index
/// is `build_index(block (i, j), range(i))`.
pub(crate) fn build_index(block: &[Edge], range: std::ops::Range<u32>) -> Vec<u32> {
    let len = range.len();
    let mut offsets = vec![0u32; len + 1];
    for e in block {
        debug_assert!(range.contains(&e.src), "edge source outside its interval");
        offsets[(e.src - range.start) as usize + 1] += 1;
    }
    for k in 0..len {
        offsets[k + 1] += offsets[k];
    }
    debug_assert_eq!(offsets[len] as usize, block.len());
    offsets
}
