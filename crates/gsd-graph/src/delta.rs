//! Delta segments: streaming mutations layered over a base grid.
//!
//! A preprocessed grid is immutable; mutations arrive as **append-only
//! delta segments** (LSM-style). One ingested batch = one *epoch* = one
//! segment object holding the batch's ops in batch order. The sealed
//! `meta.json` is the only record that names a segment: its
//! [`DeltaSection`](crate::format::DeltaSection) lists every live
//! segment's length and CRC32 and the merged per-sub-block edge counts,
//! and resealing it is the commit point. A crash mid-ingest leaves at most one orphaned segment the
//! committed meta does not name, never a half-applied batch.
//!
//! ```text
//! <prefix>delta/seg_<epoch>.ops   — one batch's ops, in batch order
//! ```
//!
//! # The merging read path
//!
//! [`GridGraph::open`](crate::grid::GridGraph) on a meta naming live
//! segments loads a [`DeltaOverlay`]: it reads every segment whole, groups
//! the ops by the sub-block `(interval_of(src), interval_of(dst))` they
//! fall in — epoch order, then batch order — and materializes each
//! touched sub-block in memory in its **merged** form (base edges with
//! deletes removed and inserts merged into canonical sort position)
//! together with its recomputed per-vertex offsets. [`merge_block`] is
//! that merge: one walk over the encoded base records, which are already
//! in canonical order, so nothing is decoded into edges, re-encoded or
//! sorted again but the block's surviving inserts. `ingest` counts the
//! merged block with [`merged_count`], which applies the same net-effect
//! rule without building it. The out-degree patch is derived by the
//! same merge (it counts what each op adds or removes against its
//! source); nothing stores degrees. Block and
//! edge-run reads of a merged sub-block are served from the overlay; a
//! row-index read fetches the base span as on any grid and replaces the
//! columns of merged sub-blocks with the overlay's offsets. So every
//! engine, the prefetch pipeline and the serve daemon see base+delta as
//! one logical grid without any code of their own, and untouched blocks
//! read from storage unchanged.
//!
//! Because sub-blocks are sorted by a canonical total order (see
//! [`BlockOrder::key`]), the merged
//! payload is **byte-identical** to what a full re-preprocess of the
//! merged edge list would write — what makes compaction a row-by-row
//! rewrite, and the reason analytic results on base+delta match a
//! from-scratch grid bit for bit.
//!
//! # Mutation semantics
//!
//! An insert appends one copy of the edge (the grid is a multiset of
//! edges, as preprocessing preserves duplicates); a delete removes
//! **every** copy of its `(src, dst)` pair. Ops within a batch and
//! across epochs apply in order. Mutations never grow the vertex set.
//!
//! # Integrity
//!
//! Each segment is covered by an `ObjectEntry` (length + CRC32) in the
//! sealed meta's delta section, which the meta's own CRC covers. Overlay
//! loading and `ingest` check every segment and every base payload they
//! merge ([`read_base_block`]) with `ObjectEntry::check`, so a mismatch
//! is a `CorruptionError` naming the object, and `scrub` extends to
//! segments (see [`crate::integrity`]). A segment whose bytes match its
//! entry is still untrusted input: [`read_live_ops`] refuses a record
//! naming a vertex outside the grid and epochs out of order, and the
//! decoder refuses unknown tags and counts that disagree with the length.

use crate::format::{block_edges_key, GridMeta, FORMAT_VERSION, META_KEY};
use crate::layout::{index_column, BlockOrder};
use crate::types::{Edge, EdgeCodec, VertexId};
use gsd_integrity::CorruptionError;
use gsd_io::Storage;
use std::collections::BTreeMap;
use std::ops::Range;

/// Magic prefix of a delta segment payload.
pub const SEGMENT_MAGIC: &[u8; 4] = b"GSDS";

/// Key of the delta segment holding the ops of `epoch`.
pub fn segment_key(prefix: &str, epoch: u64) -> String {
    format!("{prefix}delta/seg_{epoch:08}.ops")
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// One edge mutation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// Append one copy of the edge.
    Insert(Edge),
    /// Remove every copy of the `(src, dst)` pair.
    Delete {
        /// Source vertex of the removed pair.
        src: VertexId,
        /// Destination vertex of the removed pair.
        dst: VertexId,
    },
}

impl DeltaOp {
    /// Source vertex the op touches.
    pub fn src(&self) -> VertexId {
        match self {
            DeltaOp::Insert(e) => e.src,
            DeltaOp::Delete { src, .. } => *src,
        }
    }

    /// Destination vertex the op touches.
    pub fn dst(&self) -> VertexId {
        match self {
            DeltaOp::Insert(e) => e.dst,
            DeltaOp::Delete { dst, .. } => *dst,
        }
    }
}

/// Encodes one segment payload: magic, [`FORMAT_VERSION`], epoch and
/// record count, then 13 bytes per record (`op:u8, src:u32, dst:u32,
/// weight-bits:u32`, all little-endian; weight bits are zero for
/// deletes). The encoding is byte-deterministic, so a segment's CRC is
/// reproducible from its ops.
pub fn encode_segment(epoch: u64, ops: &[DeltaOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + ops.len() * 13);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&crate::narrow::from_usize(ops.len(), "segment op count").to_le_bytes());
    for op in ops {
        match op {
            DeltaOp::Insert(e) => {
                out.push(0);
                out.extend_from_slice(&e.src.to_le_bytes());
                out.extend_from_slice(&e.dst.to_le_bytes());
                out.extend_from_slice(&e.weight.to_bits().to_le_bytes());
            }
            DeltaOp::Delete { src, dst } => {
                out.push(1);
                out.extend_from_slice(&src.to_le_bytes());
                out.extend_from_slice(&dst.to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    out
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize, what: &str) -> std::io::Result<&'a [u8]> {
    let end = pos
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| invalid(format!("truncated delta segment ({what})")))?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn take_u32(bytes: &[u8], pos: &mut usize, what: &str) -> std::io::Result<u32> {
    let b = take(bytes, pos, 4, what)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
}

/// Decodes one segment payload into its epoch and ops, validating magic,
/// version, record count and op tags. Total: corrupt input is an
/// `InvalidData` error, never a panic.
pub fn decode_segment(bytes: &[u8]) -> std::io::Result<(u64, Vec<DeltaOp>)> {
    let mut pos = 0usize;
    if take(bytes, &mut pos, 4, "magic")? != SEGMENT_MAGIC {
        return Err(invalid("delta segment magic mismatch"));
    }
    let version = take_u32(bytes, &mut pos, "version")?;
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported delta segment version {version} (supported: {FORMAT_VERSION})"
        )));
    }
    let epoch = u64::from_le_bytes(
        take(bytes, &mut pos, 8, "epoch")?
            .try_into()
            .expect("8-byte slice"),
    );
    let count = take_u32(bytes, &mut pos, "count")? as usize;
    if bytes.len() - pos != count * 13 {
        return Err(invalid(format!(
            "delta segment body is {} bytes but {count} records need {}",
            bytes.len() - pos,
            count * 13
        )));
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = take(bytes, &mut pos, 1, "op tag")?[0];
        let src = take_u32(bytes, &mut pos, "src")?;
        let dst = take_u32(bytes, &mut pos, "dst")?;
        let wbits = take_u32(bytes, &mut pos, "weight")?;
        ops.push(match tag {
            0 => DeltaOp::Insert(Edge::weighted(src, dst, f32::from_bits(wbits))),
            1 => DeltaOp::Delete { src, dst },
            t => return Err(invalid(format!("unknown delta op tag {t}"))),
        });
    }
    Ok((epoch, ops))
}

/// Ops grouped per sub-block `(i, j)`, each list in apply order.
pub type BlockOps = BTreeMap<(u32, u32), Vec<DeltaOp>>;

/// Appends `ops`, in order, to the sub-block of `meta`'s grid each falls
/// in. An op naming a vertex outside the grid is an `InvalidData` error:
/// mutations never grow the vertex set.
pub fn group_ops(
    meta: &GridMeta,
    ops: &[DeltaOp],
    per_block: &mut BlockOps,
) -> std::io::Result<()> {
    let intervals = meta.intervals();
    for op in ops {
        let v = op.src().max(op.dst());
        if v >= meta.num_vertices {
            return Err(invalid(format!(
                "mutation touches vertex {v} but the grid has {} vertices \
                 (delta batches cannot grow the vertex set)",
                meta.num_vertices
            )));
        }
        let block = (
            intervals.interval_of(op.src()),
            intervals.interval_of(op.dst()),
        );
        per_block.entry(block).or_default().push(*op);
    }
    Ok(())
}

/// Reads, verifies and decodes every live segment the sealed `meta`
/// names and groups the ops per sub-block ([`group_ops`]), in epoch
/// order. Segment epochs must rise strictly and stay within the meta's
/// epoch; a grid with no delta section has no live ops.
pub fn read_live_ops(
    storage: &dyn Storage,
    prefix: &str,
    meta: &GridMeta,
) -> std::io::Result<BlockOps> {
    let mut per_block = BlockOps::new();
    let Some(delta) = &meta.delta else {
        return Ok(per_block);
    };
    let mut last = 0u64;
    for entry in &delta.segments {
        let key = format!("{prefix}{}", entry.key);
        let payload = storage.read_all(&key)?;
        entry
            .check(&key, &payload)
            .map_err(CorruptionError::into_io)?;
        let (epoch, ops) = decode_segment(&payload)?;
        if epoch <= last || epoch > delta.epoch {
            return Err(invalid(format!(
                "delta segment {key:?} holds epoch {epoch} after epoch {last}; \
                 live epochs must rise strictly up to the meta's {}",
                delta.epoch
            )));
        }
        last = epoch;
        group_ops(meta, &ops, &mut per_block)?;
    }
    Ok(per_block)
}

/// One merged (base + delta) sub-block held in memory by the overlay.
#[derive(Debug, Clone)]
pub struct OverlayBlock {
    /// Encoded merged edge payload — byte-identical to what a full
    /// re-preprocess of the merged edge list would write for this block.
    pub bytes: Vec<u8>,
    /// Merged per-source CSR offsets — this sub-block's column of its
    /// row's index (empty on formats without one).
    pub offsets: Vec<u32>,
}

/// In-memory merge of all live delta segments over their base sub-blocks.
///
/// Immutable once loaded and shared behind an `Arc`, so cloned
/// [`GridGraph`](crate::grid::GridGraph) handles (engine + pipeline
/// workers) read it concurrently without locks.
#[derive(Debug, Default)]
pub struct DeltaOverlay {
    blocks: BTreeMap<(u32, u32), OverlayBlock>,
    /// Out-degree change per source vertex, derived by the merge.
    degrees: BTreeMap<u32, i64>,
    /// Bytes held across merged payloads + indexes (for cost accounting).
    resident_bytes: u64,
}

impl DeltaOverlay {
    /// The merged sub-block `(i, j)`, if this overlay materializes it.
    pub fn block(&self, i: u32, j: u32) -> Option<&OverlayBlock> {
        self.blocks.get(&(i, j))
    }

    /// The merged sub-blocks of row `i` as `(j, block)`, by column.
    pub fn row_blocks(&self, i: u32) -> impl Iterator<Item = (u32, &OverlayBlock)> {
        self.blocks
            .range((i, 0)..=(i, u32::MAX))
            .map(|(&(_, j), block)| (j, block))
    }

    /// The rows holding at least one merged sub-block, ascending.
    pub fn merged_rows(&self) -> Vec<u32> {
        let mut rows: Vec<u32> = self.blocks.keys().map(|&(i, _)| i).collect();
        rows.dedup();
        rows
    }

    /// Applies the derived out-degree changes to a freshly loaded base
    /// degree table. A merged degree outside `u32` (or a vertex past the
    /// table) is an `InvalidData` error: the table disagrees with the
    /// blocks the changes were counted against.
    pub fn patch_degrees(&self, degrees: &mut [u32]) -> std::io::Result<()> {
        for (&v, &change) in &self.degrees {
            let merged = degrees
                .get(v as usize)
                .map(|&base| i64::from(base) + change)
                .and_then(|merged| u32::try_from(merged).ok())
                .ok_or_else(|| {
                    invalid(format!(
                        "merged out-degree of vertex {v} leaves u32 (change {change})"
                    ))
                })?;
            degrees[v as usize] = merged;
        }
        Ok(())
    }

    /// Number of merged sub-blocks resident in memory.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of merged payloads and indexes resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

/// A block payload as its codec's fixed-width records, keyed by `order`
/// ([`BlockOrder::key`]); a base payload is sorted by that key.
struct Records<'a> {
    bytes: &'a [u8],
    codec: EdgeCodec,
    order: BlockOrder,
}

impl Records<'_> {
    fn len(&self) -> usize {
        self.bytes.len() / self.codec.edge_bytes()
    }

    /// The bytes of records `range`.
    fn slice(&self, range: Range<usize>) -> &[u8] {
        let w = self.codec.edge_bytes();
        &self.bytes[range.start * w..range.end * w]
    }

    fn key(&self, k: usize) -> (u32, u32, u32) {
        self.order.key(&self.codec.decode(self.slice(k..k + 1)))
    }

    /// The first record of `range` whose key fails `below`, which holds
    /// on a prefix of it (binary search).
    fn partition_point(
        &self,
        range: Range<usize>,
        below: impl Fn((u32, u32, u32)) -> bool,
    ) -> usize {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(self.key(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// What a sub-block's ops, in batch order, do to its base: the one
/// statement of the net-effect rule that both [`merged_count`] and
/// [`merge_block`] apply. Only the net effect per `(src, dst)` pair
/// matters: a delete drops the pair's base copies and every earlier
/// insert of it, and an insert adds one copy unless a later delete of
/// its pair cancels it.
struct NetEffect {
    order: BlockOrder,
    /// Each deleted pair (the key's first two fields, whose copies are
    /// one run of the base), in key order: its last delete's position in
    /// the ops and its run of base records.
    deleted: BTreeMap<(u32, u32), (usize, Range<usize>)>,
}

impl NetEffect {
    fn of(base: &Records, ops: &[DeltaOp]) -> Self {
        let order = base.order;
        let mut deleted = BTreeMap::new();
        for (at, op) in ops.iter().enumerate() {
            if let DeltaOp::Delete { src, dst } = *op {
                deleted.insert(pair_of(order, &Edge::new(src, dst)), (at, 0..0));
            }
        }
        let mut from = 0;
        for (&pair, (_, run)) in &mut deleted {
            let lo = base.partition_point(from..base.len(), |(a, b, _)| (a, b) < pair);
            let hi = base.partition_point(lo..base.len(), |(a, b, _)| (a, b) == pair);
            *run = lo..hi;
            from = hi;
        }
        NetEffect { order, deleted }
    }

    /// The change op `at` makes to the block's edge count (and its
    /// source's out-degree): +1 for a surviving insert, minus the base
    /// copies for a pair's last delete, nothing for an op a later delete
    /// cancels.
    fn change(&self, at: usize, op: &DeltaOp) -> i64 {
        match *op {
            DeltaOp::Insert(e) => match self.deleted.get(&pair_of(self.order, &e)) {
                Some(&(last, _)) if last > at => 0,
                _ => 1,
            },
            DeltaOp::Delete { src, dst } => {
                match self.deleted.get(&pair_of(self.order, &Edge::new(src, dst))) {
                    Some((last, run)) if *last == at => -(run.len() as i64),
                    _ => 0,
                }
            }
        }
    }

    /// The runs of a `len`-record base that survive: the gaps between
    /// deleted runs, in order.
    fn kept_runs(&self, len: usize) -> Vec<Range<usize>> {
        let mut keep = Vec::with_capacity(self.deleted.len() + 1);
        let mut from = 0;
        for (_, run) in self.deleted.values() {
            keep.push(from..run.start);
            from = run.end;
        }
        keep.push(from..len);
        keep
    }
}

/// The pair an edge's key names: its first two fields.
fn pair_of(order: BlockOrder, e: &Edge) -> (u32, u32) {
    let (a, b, _) = order.key(e);
    (a, b)
}

/// The number of edges sub-block payload `base` — checked, of `codec`
/// records in `order`'s canonical order — holds once its live `ops` are
/// merged in batch order: the length of [`merge_block`]'s payload, in
/// records, derived from the same net-effect rule by binary search over
/// the base records alone. What `ingest` records as a block's merged
/// count; it builds no edge list and no index column.
pub fn merged_count(base: &[u8], ops: &[DeltaOp], order: BlockOrder, codec: EdgeCodec) -> u64 {
    let base = Records {
        bytes: base,
        codec,
        order,
    };
    let net = NetEffect::of(&base, ops);
    let change: i64 = ops
        .iter()
        .enumerate()
        .map(|(at, op)| net.change(at, op))
        .sum();
    (base.len() as i64 + change) as u64
}

/// Merges a sub-block's live `ops`, in batch order, into its checked base
/// payload `base` (`codec` records in `order`'s canonical order,
/// [`BlockOrder::key`]) and returns the merged payload in the same order
/// with its column of its row's index over the row's `sources` (empty
/// where `order` has none) — the bytes a re-preprocess of the merged
/// edge list would write. Nothing is decoded into edges or re-encoded
/// but the surviving inserts.
///
/// The net-effect rule ([`merged_count`] applies the same one) picks the
/// surviving inserts, which are sorted alone; binary search over the
/// base records finds each deleted pair's run and where each insert
/// lands, and one walk copies the bytes of the base runs between those
/// cut points. Each op's source gets an entry in `degrees`, to which the
/// op's net change to its out-degree is added: +1 for a surviving
/// insert, minus the base copies for a pair's last delete, nothing for
/// an op a later delete cancels.
pub fn merge_block(
    base: &[u8],
    ops: &[DeltaOp],
    order: BlockOrder,
    codec: EdgeCodec,
    sources: Range<u32>,
    degrees: &mut BTreeMap<u32, i64>,
) -> (Vec<u8>, Vec<u32>) {
    let base = Records {
        bytes: base,
        codec,
        order,
    };
    let net = NetEffect::of(&base, ops);
    let mut inserts = Vec::new();
    for (at, op) in ops.iter().enumerate() {
        let change = net.change(at, op);
        if let (DeltaOp::Insert(e), 1) = (op, change) {
            inserts.push(*e);
        }
        *degrees.entry(op.src()).or_insert(0) += change;
    }
    inserts.sort_unstable_by_key(|e| order.key(e));
    let inserted = Records {
        bytes: &codec.encode_all(&inserts),
        codec,
        order,
    };

    let mut merged = Vec::with_capacity(base.bytes.len() + inserted.bytes.len());
    let mut next = 0;
    for run in net.kept_runs(base.len()) {
        let mut at = run.start;
        while let Some(e) = inserts.get(next) {
            let key = order.key(e);
            let cut = base.partition_point(at..run.end, |k| k <= key);
            if cut == run.end {
                break;
            }
            merged.extend_from_slice(base.slice(at..cut));
            merged.extend_from_slice(inserted.slice(next..next + 1));
            next += 1;
            at = cut;
        }
        merged.extend_from_slice(base.slice(at..run.end));
    }
    merged.extend_from_slice(inserted.slice(next..inserts.len()));

    let offsets = if order.has_row_index() {
        index_column(&merged, codec, sources)
    } else {
        Vec::new()
    };
    (merged, offsets)
}

/// Checks `payload`, just read from the base object `rel_key` of the grid
/// under `prefix`, against the sealed meta's integrity entry: what every
/// merge of delta ops into a base object stands on.
pub fn check_base_object(
    meta: &GridMeta,
    prefix: &str,
    rel_key: &str,
    payload: &[u8],
) -> std::io::Result<()> {
    let key = format!("{prefix}{rel_key}");
    let checked = match meta.integrity.lookup(rel_key) {
        Some(entry) => entry.check(&key, payload),
        None => Err(CorruptionError::manifest(
            format!("{prefix}{META_KEY}"),
            format!("no integrity entry for base object {rel_key:?}"),
        )),
    };
    checked.map_err(CorruptionError::into_io)
}

/// Reads base sub-block `(i, j)` of the grid `meta` (the sealed, on-disk
/// meta) describes and checks it with [`check_base_object`]: the one way
/// both the overlay loader and `ingest` get the payload they merge or
/// count ops over. It stays encoded — [`merge_block`] and
/// [`merged_count`] work on the records. One whole-object read; the
/// check runs on its bytes, so an object of the wrong length is a
/// corruption error, not a short read.
pub fn read_base_block(
    storage: &dyn Storage,
    prefix: &str,
    meta: &GridMeta,
    i: u32,
    j: u32,
) -> std::io::Result<Vec<u8>> {
    let payload = storage.read_all(&block_edges_key(prefix, i, j))?;
    check_base_object(meta, prefix, &block_edges_key("", i, j), &payload)?;
    Ok(payload)
}

/// Fails unless sub-block `(i, j)`, merged with its live ops, holds the
/// `want` edges the meta's delta section records — the check that
/// catches ops replayed over payloads they were already folded into.
pub fn check_merged_count(i: u32, j: u32, merged: u64, want: u64) -> std::io::Result<()> {
    if merged != want {
        return Err(invalid(format!(
            "sub-block ({i}, {j}) merges to {merged} edges but the delta section records {want}"
        )));
    }
    Ok(())
}

/// Loads the delta overlay named by `meta` and patches the in-memory meta
/// to the **merged** shape (`num_edges`, `block_edge_counts`), so every
/// consumer of [`GridMeta`] — engines skipping empty blocks, the
/// scheduler's `C_r`/`C_s` cost model pricing `|E|·(M+W)` — sees base and
/// delta as one graph. The on-disk meta keeps base counts; only the
/// handle's copy is patched.
///
/// Returns `None` (and leaves the meta untouched) when the grid names no
/// live segments.
pub(crate) fn load_overlay(
    storage: &dyn Storage,
    prefix: &str,
    meta: &mut GridMeta,
) -> std::io::Result<Option<DeltaOverlay>> {
    let Some(delta) = meta.delta.as_ref().filter(|d| !d.segments.is_empty()) else {
        return Ok(None);
    };
    if meta.order == BlockOrder::Unsorted {
        return Err(invalid(
            "an unsorted grid names delta segments, but its blocks have no canonical order to merge into",
        ));
    }
    let merged_counts = delta.merged_block_edge_counts.clone();
    let per_block = read_live_ops(storage, prefix, meta)?;
    let codec = meta.codec();
    let intervals = meta.intervals();
    let p = meta.p;

    let mut overlay = DeltaOverlay::default();
    for (i, j) in (0..p).flat_map(|i| (0..p).map(move |j| (i, j))) {
        let want = merged_counts[(i * p + j) as usize];
        let Some(ops) = per_block.get(&(i, j)) else {
            // No live op falls here: merged must equal base.
            check_merged_count(i, j, meta.block_edge_count(i, j), want)?;
            continue;
        };
        let (bytes, offsets) = merge_block(
            &read_base_block(storage, prefix, meta, i, j)?,
            ops,
            meta.order,
            codec,
            intervals.range(i),
            &mut overlay.degrees,
        );
        check_merged_count(i, j, (bytes.len() / codec.edge_bytes()) as u64, want)?;
        let index_bytes = (offsets.len() * 4) as u64;
        overlay.resident_bytes += bytes.len() as u64 + index_bytes;
        overlay
            .blocks
            .insert((i, j), OverlayBlock { bytes, offsets });
    }
    overlay.degrees.retain(|_, change| *change != 0);

    // Patch the in-memory meta to the merged shape.
    meta.num_edges = merged_counts.iter().sum();
    meta.block_edge_counts = merged_counts;
    Ok(Some(overlay))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Merges as `load_overlay` does, into the only sub-block of an
    /// 8-vertex, one-interval grid; returns the edges and the degree
    /// changes, and checks that the count agrees.
    fn merge(base: &[Edge], ops: &[DeltaOp]) -> (Vec<Edge>, BTreeMap<u32, i64>) {
        let (codec, order) = (EdgeCodec::unweighted(), BlockOrder::BySource);
        let base = codec.encode_all(base);
        let mut degrees = BTreeMap::new();
        let (bytes, offsets) = merge_block(&base, ops, order, codec, 0..8, &mut degrees);
        assert_eq!(offsets.len(), 9);
        assert_eq!(
            merged_count(&base, ops, order, codec),
            bytes.len() as u64 / 8
        );
        (codec.decode_all(&bytes), degrees)
    }

    #[test]
    fn segment_roundtrip() {
        let ops = vec![
            DeltaOp::Insert(Edge::weighted(3, 9, 0.5)),
            DeltaOp::Delete { src: 1, dst: 2 },
            DeltaOp::Insert(Edge::new(0, 7)),
        ];
        let bytes = encode_segment(5, &ops);
        assert_eq!(bytes.len(), 20 + 3 * 13);
        assert_eq!(decode_segment(&bytes).unwrap(), (5, ops));
    }

    #[test]
    fn segment_decode_rejects_corruption() {
        let bytes = encode_segment(1, &[DeltaOp::Delete { src: 1, dst: 2 }]);
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF; // magic
        assert!(decode_segment(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 99; // version
        assert!(decode_segment(&bad).is_err());
        let mut bad = bytes;
        bad[20] = 7; // op tag
        assert!(decode_segment(&bad).is_err());
    }

    #[test]
    fn merge_applies_ops_in_order() {
        let base = vec![Edge::new(0, 1), Edge::new(0, 3), Edge::new(2, 1)];
        // Delete (0,3), insert (0,2), then insert and delete (4,4): net
        // effect is the delete wins over the earlier insert.
        let ops = vec![
            DeltaOp::Delete { src: 0, dst: 3 },
            DeltaOp::Insert(Edge::new(0, 2)),
            DeltaOp::Insert(Edge::new(4, 4)),
            DeltaOp::Delete { src: 4, dst: 4 },
        ];
        let (merged, degrees) = merge(&base, &ops);
        assert_eq!(
            merged,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(2, 1)]
        );
        assert_eq!(degrees, BTreeMap::from([(0, 0), (4, 0)]));
    }

    #[test]
    fn merge_delete_removes_every_copy_and_reinsert_restores() {
        let base = vec![Edge::new(5, 6), Edge::new(5, 6)];
        let (merged, degrees) = merge(&base, &[DeltaOp::Delete { src: 5, dst: 6 }]);
        assert!(merged.is_empty());
        assert_eq!(degrees, BTreeMap::from([(5, -2)]));
        let (merged, degrees) = merge(
            &base,
            &[
                DeltaOp::Delete { src: 5, dst: 6 },
                DeltaOp::Insert(Edge::new(5, 6)),
            ],
        );
        assert_eq!(merged, vec![Edge::new(5, 6)]);
        assert_eq!(degrees, BTreeMap::from([(5, -1)]));
    }

    #[test]
    fn keys_sort_by_epoch() {
        // The zero-padded epoch makes lexicographic key order == epoch
        // order.
        assert!(segment_key("", 2) < segment_key("", 10));
        assert_eq!(segment_key("g/", 3), "g/delta/seg_00000003.ops");
    }
}
