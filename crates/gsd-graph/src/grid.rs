//! Read-side handle over a preprocessed grid graph: whole-block streaming,
//! per-vertex selective reads via the row index, and run coalescing for
//! the on-demand I/O model.

use crate::delta::DeltaOverlay;
use crate::format::{block_edges_key, decode_u32s, row_index_key, GridMeta, DEGREES_KEY, META_KEY};
use crate::partition::Intervals;
use crate::types::{Edge, EdgeCodec, VertexId};
use gsd_integrity::{GridVerifier, VerifyPolicy};
use gsd_io::SharedStorage;
use std::sync::Arc;

/// Groups a sorted vertex list into clusters whose internal gaps are at
/// most `max_gap` ids. Selective readers issue one index-span request per
/// cluster: bridging a gap of `g` vertices costs `g` extra index rows of
/// `4·P` bytes each, so `max_gap` should be
/// [`gsd_io::DiskModel::bridge_gap`] of the row size — the point where
/// bridging stops beating a seek.
pub fn cluster_vertex_spans(sorted: &[VertexId], max_gap: u32) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut start = 0usize;
    for k in 1..sorted.len() {
        debug_assert!(sorted[k] > sorted[k - 1], "list must be strictly sorted");
        if sorted[k] - sorted[k - 1] > max_gap {
            spans.push(start..k);
            start = k;
        }
    }
    if !sorted.is_empty() {
        spans.push(start..sorted.len());
    }
    spans
}

/// The first `len` bytes of `scratch`, growing it only when it is too
/// short: every byte handed out is about to be overwritten by a read, so
/// zeroing it again per request would be wasted work.
fn grown_to(scratch: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if scratch.len() < len {
        scratch.resize(len, 0);
    }
    &mut scratch[..len]
}

/// A span of row `i`'s vertex-major index: resolves the edge range of any
/// covered vertex in **every** sub-block of the row from a single storage
/// request (see [`crate::format::row_index_key`]). Column `j` is the
/// paper's `index(i, j)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowIndexSpan {
    /// First covered vertex.
    pub start_vertex: VertexId,
    /// Interval count `P` (row stride).
    pub p: u32,
    /// `(covered + 1) × P` offsets, vertex-major.
    pub offsets: Vec<u32>,
}

impl RowIndexSpan {
    /// Edge-index range of vertex `v`'s edges within sub-block `(i, j)`.
    pub fn edge_range(&self, v: VertexId, j: u32) -> std::ops::Range<u32> {
        let row = (v - self.start_vertex) as usize;
        let p = self.p as usize;
        let start = self.offsets[row * p + j as usize];
        let end = self.offsets[(row + 1) * p + j as usize];
        start..end
    }
}

/// Handle over a preprocessed grid graph stored behind a [`Storage`].
#[derive(Clone)]
pub struct GridGraph {
    storage: SharedStorage,
    prefix: String,
    meta: GridMeta,
    intervals: Intervals,
    codec: EdgeCodec,
    /// Verify-on-read hook (`Some` under `VerifyPolicy::Full`). Shared across
    /// cloned handles so pipeline workers and the engine pool one memo of
    /// already-verified objects and one set of counters.
    verifier: Option<Arc<GridVerifier>>,
    /// Merged delta sub-blocks (a mutated grid with live segments). Every read
    /// primitive consults the overlay first, so engines, the prefetch
    /// pipeline and the serve daemon see base+delta as one logical
    /// sub-block. `meta` is patched to the merged shape at open.
    overlay: Option<Arc<DeltaOverlay>>,
}

impl GridGraph {
    /// Opens the grid stored at the root of `storage`.
    pub fn open(storage: SharedStorage) -> std::io::Result<Self> {
        Self::open_with_prefix(storage, "")
    }

    /// Opens the grid stored under `prefix` in `storage`.
    pub fn open_with_prefix(storage: SharedStorage, prefix: &str) -> std::io::Result<Self> {
        let meta_bytes = storage.read_all(&format!("{prefix}{META_KEY}"))?;
        let mut meta = GridMeta::from_bytes(&meta_bytes)?;
        // A mutated grid: materialize the merged delta sub-blocks and patch the
        // in-memory meta to the merged shape. Every segment and every base
        // payload the merge touches is checksum-verified here, once, so
        // the overlay needs no verify-on-read of its own.
        let overlay =
            crate::delta::load_overlay(storage.as_ref(), prefix, &mut meta)?.map(Arc::new);
        let intervals = meta.intervals();
        let codec = meta.codec();
        Ok(GridGraph {
            storage,
            prefix: prefix.to_owned(),
            meta,
            intervals,
            codec,
            verifier: None,
            overlay,
        })
    }

    /// The merged delta overlay, if this grid has live delta segments.
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay>> {
        self.overlay.as_ref()
    }

    /// The committed delta epoch (0 for a grid that has never been
    /// mutated). Ingest bumps this; it is baked into the sealed meta and
    /// therefore into checkpoint identity fingerprints.
    pub fn delta_epoch(&self) -> u64 {
        self.meta.delta.as_ref().map(|d| d.epoch).unwrap_or(0)
    }

    /// Turns verify-on-read on (or off, with [`VerifyPolicy::Off`]) for
    /// this handle and everything cloned from it afterwards. A corrupt
    /// object then fails its read with a `CorruptionError`.
    pub fn set_verification(&mut self, policy: VerifyPolicy) {
        self.verifier = match policy {
            VerifyPolicy::Off => None,
            VerifyPolicy::Full => Some(Arc::new(GridVerifier::new(
                self.storage.clone(),
                self.prefix.clone(),
                self.meta.integrity.clone(),
            ))),
        };
    }

    /// The active verifier, if verification is on.
    pub fn verifier(&self) -> Option<&Arc<GridVerifier>> {
        self.verifier.as_ref()
    }

    /// Snapshot of the verifier's counters (all zero when verification is
    /// off). Engines diff two snapshots to fold per-run verification
    /// totals into `RunStats`.
    pub fn verify_counters(&self) -> gsd_integrity::VerifyCounters {
        self.verifier
            .as_ref()
            .map(|v| v.counters())
            .unwrap_or_default()
    }

    /// Routes the verifier's trace events to `sink` (no-op when
    /// verification is off). Engines call this alongside their own
    /// `set_trace`.
    pub fn set_verify_sink(&self, sink: Arc<dyn gsd_trace::TraceSink>) {
        if let Some(v) = &self.verifier {
            v.set_sink(sink);
        }
    }

    /// The grid metadata.
    pub fn meta(&self) -> &GridMeta {
        &self.meta
    }

    /// The key prefix this grid lives under.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The interval partition.
    pub fn intervals(&self) -> &Intervals {
        &self.intervals
    }

    /// The grid's edge codec, at base 0: its record size prices an edge,
    /// and it decodes the stored, interval-relative ids.
    pub fn codec(&self) -> EdgeCodec {
        self.codec
    }

    /// The codec sub-block `(i, j)` is read with: [`Self::codec`] based
    /// at the starts of intervals `i` and `j`, so it decodes absolute ids.
    pub fn block_codec(&self, i: u32, j: u32) -> EdgeCodec {
        self.meta.block_codec(i, j)
    }

    /// Interval count `P`.
    pub fn p(&self) -> u32 {
        self.meta.p
    }

    /// `|V|`.
    pub fn num_vertices(&self) -> u32 {
        self.meta.num_vertices
    }

    /// `|E|`.
    pub fn num_edges(&self) -> u64 {
        self.meta.num_edges
    }

    /// The underlying storage (for stats snapshots).
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// Storage key of sub-block `(i, j)`'s edges.
    pub fn edges_key(&self, i: u32, j: u32) -> String {
        block_edges_key(&self.prefix, i, j)
    }

    /// Streams sub-block `(i, j)` into caller-provided buffers (no
    /// allocation when capacities suffice): [`Self::read_block_payload`]
    /// into `scratch`, then one decode into `out`.
    pub fn read_block_into(
        &self,
        i: u32,
        j: u32,
        scratch: &mut Vec<u8>,
        out: &mut Vec<Edge>,
    ) -> std::io::Result<()> {
        let payload = self.read_block_payload(i, j, scratch)?;
        self.block_codec(i, j).decode_all_into(payload, out);
        Ok(())
    }

    /// Sub-block `(i, j)`'s payload as [`Self::block_codec`] records,
    /// undecoded: the overlay-merged bytes when a live delta touched the
    /// block (held in memory, so no copy), otherwise the verified stored
    /// bytes, read into the front of `buf` (grown, never shrunk) and
    /// returned as that prefix. Its length is [`GridMeta::block_bytes`]
    /// either way (the meta carries the merged shape). Empty blocks skip
    /// the I/O entirely (their emptiness is known from the metadata).
    ///
    /// [`GridMeta::block_bytes`]: crate::format::GridMeta::block_bytes
    pub fn read_block_payload<'a>(
        &'a self,
        i: u32,
        j: u32,
        buf: &'a mut Vec<u8>,
    ) -> std::io::Result<&'a [u8]> {
        if let Some(block) = self.overlay.as_ref().and_then(|o| o.block(i, j)) {
            return Ok(&block.bytes);
        }
        let bytes = crate::narrow::to_usize(self.meta.block_bytes(i, j), "block size");
        let out = grown_to(buf, bytes);
        if bytes == 0 {
            return Ok(out);
        }
        let key = self.edges_key(i, j);
        match &self.verifier {
            // Whole-object read: verified in place from the engine's own
            // accounted read — clean data costs zero extra I/O.
            Some(v) => v.read_whole_verified(&key, out)?,
            None => self.storage.read_at(&key, 0, out)?,
        }
        Ok(out)
    }

    /// Reads the rows of interval `i`'s row index covering vertices
    /// `lo..=hi` — a single request that resolves those vertices' edge
    /// ranges in every sub-block `(i, *)`. Requires a source-sorted
    /// format.
    pub fn read_row_index_span(
        &self,
        i: u32,
        lo: VertexId,
        hi: VertexId,
    ) -> std::io::Result<RowIndexSpan> {
        let range = self.intervals.range(i);
        debug_assert!(lo >= range.start && hi >= lo && hi < range.end);
        // Rows lo ..= hi+1 (the +1 fetches v=hi's end offsets).
        self.read_row_index_rows(i, lo, (hi - lo + 2) as usize)
    }

    /// Row `i`'s whole index, which holds sub-block `(i, j)`'s as column
    /// `j`. A thin wrapper kept for `benchmark/`'s
    /// `gsd-graph.index_read_us` probe, which asks per sub-block;
    /// everything else reads spans with [`Self::read_row_index_span`].
    pub fn read_index(&self, i: u32, _j: u32) -> std::io::Result<RowIndexSpan> {
        let range = self.intervals.range(i);
        self.read_row_index_rows(i, range.start, range.len() + 1)
    }

    /// `rows` rows of row `i`'s index starting at vertex `first`.
    fn read_row_index_rows(
        &self,
        i: u32,
        first: VertexId,
        rows: usize,
    ) -> std::io::Result<RowIndexSpan> {
        if !self.meta.order.has_row_index() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "row indexes require a source-sorted grid format",
            ));
        }
        let key = row_index_key(&self.prefix, i);
        if let Some(v) = &self.verifier {
            // Partial read: the whole object is side-checked (unaccounted)
            // on first touch, then trusted for the rest of the run.
            v.ensure_verified(&key)?;
        }
        let p = self.meta.p as usize;
        let first_row = (first - self.intervals.range(i).start) as usize;
        let mut bytes = vec![0u8; rows * p * 4];
        self.storage
            .read_at(&key, (first_row * p * 4) as u64, &mut bytes)?;
        let mut offsets = decode_u32s(&bytes)?;
        if let Some(overlay) = &self.overlay {
            // The stored index describes the base sub-blocks; a merged
            // sub-block's own offsets replace its column.
            for (j, block) in overlay.row_blocks(i) {
                let merged = &block.offsets[first_row..first_row + rows];
                for (k, &off) in merged.iter().enumerate() {
                    offsets[k * p + j as usize] = off;
                }
            }
        }
        Ok(RowIndexSpan {
            start_vertex: first,
            p: self.meta.p,
            offsets,
        })
    }

    /// Reads the contiguous edge run `edge_start..edge_start+edge_count`
    /// (edge indexes) of sub-block `(i, j)` and appends the decoded edges
    /// to `out`. This is the primitive of the on-demand I/O model: one
    /// coalesced run of active vertices becomes one storage request.
    pub fn read_edge_run(
        &self,
        i: u32,
        j: u32,
        edge_start: u32,
        edge_count: u32,
        scratch: &mut Vec<u8>,
        out: &mut Vec<Edge>,
    ) -> std::io::Result<()> {
        if edge_count == 0 {
            return Ok(());
        }
        let sz = self.codec.edge_bytes();
        let (lo, len) = (edge_start as usize * sz, edge_count as usize * sz);
        let bytes = match self.overlay.as_ref().and_then(|o| o.block(i, j)) {
            Some(block) => &block.bytes[lo..lo + len],
            None => {
                let key = self.edges_key(i, j);
                if let Some(v) = &self.verifier {
                    v.ensure_verified(&key)?;
                }
                let buf = grown_to(scratch, len);
                let offset = u64::from(edge_start) * sz as u64;
                self.storage.read_at(&key, offset, buf)?;
                buf
            }
        };
        self.block_codec(i, j).decode_append(bytes, out);
        Ok(())
    }

    /// Loads the out-degree table.
    pub fn load_out_degrees(&self) -> std::io::Result<Vec<u32>> {
        let key = format!("{}{}", self.prefix, DEGREES_KEY);
        let bytes = self.storage.read_all(&key)?;
        if let Some(v) = &self.verifier {
            v.verify_owned(&key, &bytes)?;
        }
        let mut degrees = decode_u32s(&bytes)?;
        if let Some(overlay) = &self.overlay {
            // The patch is a merge over the base table: like every merge,
            // it stands on the bytes the sealed meta records.
            crate::delta::check_base_object(&self.meta, &self.prefix, DEGREES_KEY, &bytes)?;
            overlay.patch_degrees(&mut degrees)?;
        }
        Ok(degrees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, GraphKind};
    use crate::graph::Graph;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use gsd_io::MemStorage;

    fn setup(p: u32) -> (Graph, GridGraph) {
        let g = GeneratorConfig::new(GraphKind::RMat, 200, 1000, 11).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(p),
        )
        .unwrap();
        let grid = GridGraph::open(storage).unwrap();
        (g, grid)
    }

    #[test]
    fn open_reads_meta() {
        let (g, grid) = setup(4);
        assert_eq!(grid.num_vertices(), g.num_vertices());
        assert_eq!(grid.num_edges(), g.num_edges());
        assert_eq!(grid.p(), 4);
    }

    #[test]
    fn read_all_blocks_recovers_every_edge() {
        let (g, grid) = setup(4);
        let mut total = 0u64;
        let mut all: Vec<(u32, u32)> = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let mut edges = Vec::new();
                grid.read_block_into(i, j, &mut Vec::new(), &mut edges)
                    .unwrap();
                total += edges.len() as u64;
                all.extend(edges.iter().map(|e| (e.src, e.dst)));
            }
        }
        assert_eq!(total, g.num_edges());
        let mut expect: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        all.sort_unstable();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }

    #[test]
    fn vertex_edges_match_graph() {
        let (g, grid) = setup(3);
        let intervals = grid.intervals().clone();
        // Adjacency from the raw graph, per (vertex, dst-interval).
        // BTreeMap keeps the removal walk below in deterministic
        // coordinate order (no hash containers, even in tests).
        let mut expect: std::collections::BTreeMap<(u32, u32), Vec<u32>> = Default::default();
        for e in g.edges() {
            expect
                .entry((e.src, intervals.interval_of(e.dst)))
                .or_default()
                .push(e.dst);
        }
        let mut scratch = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                let idx = grid.read_index(i, j).unwrap();
                for v in intervals.range(i) {
                    let mut out = Vec::new();
                    let run = idx.edge_range(v, j);
                    grid.read_edge_run(
                        i,
                        j,
                        run.start,
                        run.end - run.start,
                        &mut scratch,
                        &mut out,
                    )
                    .unwrap();
                    let mut got: Vec<u32> = out.iter().map(|e| e.dst).collect();
                    got.sort_unstable();
                    let mut want = expect.remove(&(v, j)).unwrap_or_default();
                    want.sort_unstable();
                    assert_eq!(got, want, "vertex {v} block ({i},{j})");
                }
            }
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn empty_block_read_skips_io() {
        // A graph with edges only inside interval 0.
        let mut b = crate::graph::GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 0).ensure_vertices(100);
        let g = b.build();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(2),
        )
        .unwrap();
        let grid = GridGraph::open(storage.clone()).unwrap();
        storage.stats().reset();
        let mut edges = Vec::new();
        grid.read_block_into(1, 1, &mut Vec::new(), &mut edges)
            .unwrap();
        assert!(edges.is_empty());
        assert_eq!(
            storage.stats().read_bytes(),
            0,
            "empty block must not touch storage"
        );
    }

    #[test]
    fn read_edge_run_appends() {
        let (_, grid) = setup(1);
        let total = u32::try_from(grid.meta().block_edge_count(0, 0)).unwrap();
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        grid.read_edge_run(0, 0, 0, total / 2, &mut scratch, &mut out)
            .unwrap();
        grid.read_edge_run(0, 0, total / 2, total - total / 2, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.len(), total as usize);
        let mut whole = Vec::new();
        grid.read_block_into(0, 0, &mut scratch, &mut whole)
            .unwrap();
        assert_eq!(out, whole);
    }

    #[test]
    fn cluster_spans_split_on_gaps() {
        use super::cluster_vertex_spans;
        let list = [1u32, 2, 3, 50, 51, 200];
        let spans = cluster_vertex_spans(&list, 10);
        assert_eq!(spans, vec![0..3, 3..5, 5..6]);
        let spans = cluster_vertex_spans(&list, 1000);
        assert_eq!(spans, vec![0..6]);
        assert!(cluster_vertex_spans(&[], 10).is_empty());
        assert_eq!(cluster_vertex_spans(&[7], 0), vec![0..1]);
    }

    #[test]
    fn row_index_span_matches_whole_index() {
        let (_, grid) = setup(3);
        let intervals = grid.intervals().clone();
        for i in 0..3 {
            let range = intervals.range(i);
            if range.is_empty() {
                continue;
            }
            let full = grid.read_index(i, 0).unwrap();
            let lo = range.start + (range.end - range.start) / 4;
            let hi = range.end - 1 - (range.end - range.start) / 4;
            let span = grid.read_row_index_span(i, lo, hi).unwrap();
            for j in 0..3 {
                for v in lo..=hi {
                    assert_eq!(
                        span.edge_range(v, j),
                        full.edge_range(v, j),
                        "v={v} block ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn row_index_span_is_one_request() {
        let (_, grid) = setup(4);
        let stats = grid.storage().stats();
        stats.reset();
        let lo = grid.intervals().range(0).start;
        let _ = grid.read_row_index_span(0, lo, lo + 5).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.seq_read_ops + s.rand_read_ops, 1);
        assert_eq!(s.read_bytes(), 7 * 4 * 4); // 7 rows x P=4 x 4 bytes
    }

    #[test]
    fn row_index_on_by_dest_format_errors() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 100, 400, 2).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let config = PreprocessConfig {
            order: crate::layout::BlockOrder::ByDest,
            ..PreprocessConfig::graphsd("")
        }
        .with_intervals(2);
        preprocess(&g, storage.as_ref(), &config).unwrap();
        let grid = GridGraph::open(storage).unwrap();
        assert!(grid.read_row_index_span(0, 0, 1).is_err());
    }

    #[test]
    fn index_on_unindexed_format_errors() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 50, 100, 1).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::lumos("").with_intervals(2),
        )
        .unwrap();
        let grid = GridGraph::open(storage).unwrap();
        assert!(grid.read_index(0, 0).is_err());
    }

    #[test]
    fn degrees_roundtrip() {
        let (g, grid) = setup(2);
        assert_eq!(grid.load_out_degrees().unwrap(), g.out_degrees());
    }

    #[test]
    fn open_missing_meta_errors() {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        assert!(GridGraph::open(storage).is_err());
    }

    #[test]
    fn prefixed_grids_coexist() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 50, 100, 1).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("a/").with_intervals(2),
        )
        .unwrap();
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::lumos("b/").with_intervals(3),
        )
        .unwrap();
        let a = GridGraph::open_with_prefix(storage.clone(), "a/").unwrap();
        let b = GridGraph::open_with_prefix(storage, "b/").unwrap();
        assert_eq!(a.p(), 2);
        assert_eq!(b.p(), 3);
        assert_eq!(a.num_edges(), b.num_edges());
    }
}
