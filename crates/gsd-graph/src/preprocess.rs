//! The preprocessing phase (§3.2, evaluated in §5.3 / Figure 8): partition
//! the edge set into the `P × P` grid, sort each sub-block, build the
//! per-vertex indexes and write everything to storage.
//!
//! The same routine, with feature flags, also builds the baseline formats:
//! the Lumos-like layout disables sorting and indexing (its preprocessing
//! is the cheapest, as in Figure 8) and the HUS-Graph-like layout runs the
//! routine twice (row copy + destination-sorted column copy — the most
//! expensive preprocessing, as in Figure 8).

use crate::format::{
    block_edges_key, block_index_key, encode_u32s, row_index_key, GridMeta, DEGREES_KEY,
    FORMAT_VERSION, META_KEY,
};
use crate::graph::Graph;
use crate::partition::Intervals;
use crate::types::{Edge, EdgeCodec};
use gsd_integrity::{IntegritySection, ObjectEntry};
use gsd_io::Storage;
use gsd_trace::Stopwatch;
use std::io::BufRead;
use std::time::Duration;

/// Preprocessing options.
#[derive(Debug, Clone)]
pub struct PreprocessConfig {
    /// Key prefix for all written objects (lets several formats share one
    /// store, e.g. `"gsd/"`, `"hus_row/"`, `"lumos/"`).
    pub key_prefix: String,
    /// Fixed interval count `P`; `None` derives it from the memory budget.
    pub num_intervals: Option<u32>,
    /// Memory budget in bytes (the paper uses 5 % of the graph size).
    /// With `num_intervals: None`, `P` is chosen as the smallest value for
    /// which one edge block (one grid row, `|E|·(M+W)/P` bytes on average)
    /// fits in the budget.
    pub memory_budget_bytes: Option<u64>,
    /// Balance intervals by degree mass instead of vertex count.
    pub degree_balanced: bool,
    /// Explicit interval boundaries (`P + 1` entries, overriding
    /// `num_intervals`/`degree_balanced`). Compaction passes the mutated
    /// grid's existing boundaries here so its fingerprint check
    /// re-preprocesses into the *same* partition.
    pub boundaries: Option<Vec<u32>>,
    /// Sort each sub-block (required for indexes; Lumos-like disables it).
    pub sort_blocks: bool,
    /// Write per-vertex `.idx` files (requires `sort_blocks`).
    pub build_index: bool,
    /// Sort/index by destination instead of source (HUS column copy).
    pub sort_by_dst: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            key_prefix: String::new(),
            num_intervals: None,
            memory_budget_bytes: None,
            degree_balanced: false,
            boundaries: None,
            sort_blocks: true,
            build_index: true,
            sort_by_dst: false,
        }
    }
}

impl PreprocessConfig {
    /// Standard GraphSD layout under `prefix`.
    pub fn graphsd(prefix: impl Into<String>) -> Self {
        PreprocessConfig {
            key_prefix: prefix.into(),
            ..Self::default()
        }
    }

    /// Lumos-like layout: unsorted blocks, no index.
    pub fn lumos(prefix: impl Into<String>) -> Self {
        PreprocessConfig {
            key_prefix: prefix.into(),
            sort_blocks: false,
            build_index: false,
            ..Self::default()
        }
    }

    /// Sets the interval count.
    pub fn with_intervals(mut self, p: u32) -> Self {
        self.num_intervals = Some(p);
        self
    }

    /// Sets the memory budget used for automatic `P` selection.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Pins the interval partition to explicit boundaries (`P + 1`
    /// ascending entries starting at 0 and ending at `|V|`).
    pub fn with_boundaries(mut self, boundaries: Vec<u32>) -> Self {
        self.boundaries = Some(boundaries);
        self
    }
}

/// Wall-clock breakdown of one preprocessing run (the quantities compared
/// in Figure 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct PreprocessReport {
    /// Chosen interval count `P`.
    pub p: u32,
    /// Time parsing the raw input (zero when given an in-memory graph).
    pub load: Duration,
    /// Time bucketing edges into sub-blocks.
    pub partition: Duration,
    /// Time sorting sub-blocks (zero when sorting is disabled).
    pub sort: Duration,
    /// Time encoding and writing everything to storage.
    pub write: Duration,
    /// Bytes written to storage.
    pub bytes_written: u64,
}

impl PreprocessReport {
    /// Total preprocessing wall time.
    pub fn total(&self) -> Duration {
        self.load + self.partition + self.sort + self.write
    }
}

fn choose_p(graph: &Graph, config: &PreprocessConfig) -> u32 {
    if let Some(b) = &config.boundaries {
        assert!(b.len() >= 2, "boundaries need at least 2 entries");
        return crate::narrow::from_usize(b.len() - 1, "interval count");
    }
    if let Some(p) = config.num_intervals {
        assert!(p >= 1, "P must be positive");
        return p;
    }
    let edge_bytes = graph.num_edges() * EdgeCodec::new(graph.is_weighted()).edge_bytes() as u64;
    let p = match config.memory_budget_bytes {
        // One grid row must fit in the budget: P >= edge_bytes / budget.
        Some(budget) if budget > 0 => edge_bytes.div_ceil(budget.max(1)),
        _ => 8,
    };
    crate::narrow::to_u32(p.clamp(1, 64), "interval count").min(graph.num_vertices().max(1))
}

/// Preprocesses an in-memory graph into the on-disk grid format.
pub fn preprocess(
    graph: &Graph,
    storage: &dyn Storage,
    config: &PreprocessConfig,
) -> std::io::Result<(GridMeta, PreprocessReport)> {
    assert!(
        config.sort_blocks || !config.build_index,
        "per-vertex indexes require sorted sub-blocks"
    );
    let mut report = PreprocessReport::default();
    let p = choose_p(graph, config);
    report.p = p;
    let codec = EdgeCodec::new(graph.is_weighted());

    // --- partition: bucket every edge into its (i, j) sub-block ---
    let t = Stopwatch::start();
    let intervals = if let Some(b) = &config.boundaries {
        Intervals::from_boundaries(b.clone())
    } else if config.degree_balanced {
        Intervals::degree_balanced(&graph.out_degrees(), p)
    } else {
        Intervals::uniform(graph.num_vertices(), p)
    };
    let mut blocks: Vec<Vec<Edge>> = vec![Vec::new(); (p * p) as usize];
    for e in graph.edges() {
        let i = intervals.interval_of(e.src);
        let j = intervals.interval_of(e.dst);
        blocks[(i * p + j) as usize].push(*e);
    }
    report.partition = t.elapsed();

    // --- sort each sub-block ---
    // The weight-bits tiebreak makes the order a *canonical total order*
    // on edge records: the sorted payload depends only on the edge
    // multiset, never on input order or sort stability. The delta merge
    // path (crate::delta) relies on this to reproduce base+delta blocks
    // byte-identical to a full re-preprocess of the merged edge list.
    if config.sort_blocks {
        let t = Stopwatch::start();
        let by_dst = config.sort_by_dst;
        for block in &mut blocks {
            if by_dst {
                block.sort_unstable_by_key(|e| (e.dst, e.src, e.weight.to_bits()));
            } else {
                block.sort_unstable_by_key(|e| (e.src, e.dst, e.weight.to_bits()));
            }
        }
        report.sort = t.elapsed();
    }

    // --- write blocks, indexes, degrees and meta ---
    let t = Stopwatch::start();
    let mut bytes_written = 0u64;
    let mut block_edge_counts = vec![0u64; (p * p) as usize];
    // Manifest entries use prefix-relative keys so the grid verifies the
    // same when mounted under a different prefix.
    let mut objects: Vec<ObjectEntry> = Vec::new();
    for i in 0..p {
        // Row-combined vertex-major index (source-sorted formats only):
        // `(len_i + 1) × P` offsets, filled column by column below.
        let row_len = intervals.len(i) as usize;
        let mut row_index = if config.build_index && !config.sort_by_dst {
            vec![0u32; (row_len + 1) * p as usize]
        } else {
            Vec::new()
        };
        for j in 0..p {
            let block = &blocks[(i * p + j) as usize];
            block_edge_counts[(i * p + j) as usize] = block.len() as u64;
            let payload = codec.encode_all(block);
            bytes_written += payload.len() as u64;
            objects.push(ObjectEntry::of(block_edges_key("", i, j), &payload));
            storage.create(&block_edges_key(&config.key_prefix, i, j), &payload)?;
            if config.build_index {
                let index_interval = if config.sort_by_dst { j } else { i };
                let offsets =
                    build_index(block, intervals.range(index_interval), config.sort_by_dst);
                if !config.sort_by_dst {
                    for (k, &off) in offsets.iter().enumerate() {
                        row_index[k * p as usize + j as usize] = off;
                    }
                }
                let payload = encode_u32s(&offsets);
                bytes_written += payload.len() as u64;
                objects.push(ObjectEntry::of(block_index_key("", i, j), &payload));
                storage.create(&block_index_key(&config.key_prefix, i, j), &payload)?;
            }
        }
        if !row_index.is_empty() {
            let payload = encode_u32s(&row_index);
            bytes_written += payload.len() as u64;
            objects.push(ObjectEntry::of(row_index_key("", i), &payload));
            storage.create(&row_index_key(&config.key_prefix, i), &payload)?;
        }
    }
    let degrees = encode_u32s(&graph.out_degrees());
    bytes_written += degrees.len() as u64;
    objects.push(ObjectEntry::of(DEGREES_KEY, &degrees));
    storage.create(&format!("{}{}", config.key_prefix, DEGREES_KEY), &degrees)?;

    let mut meta = GridMeta {
        version: FORMAT_VERSION,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        p,
        weighted: graph.is_weighted(),
        indexed: config.build_index,
        sorted: config.sort_blocks,
        dst_sorted: config.sort_by_dst,
        boundaries: intervals.boundaries().to_vec(),
        block_edge_counts,
        integrity: IntegritySection::new(objects),
        delta: None,
    };
    meta.seal();
    let meta_bytes = meta.to_bytes();
    bytes_written += meta_bytes.len() as u64;
    // Commit discipline: every data object is durable *before* the meta —
    // whose manifest vouches for them — becomes visible. A readable,
    // self-consistent meta therefore implies complete, checksummed data.
    storage.sync()?;
    storage.create(&format!("{}{}", config.key_prefix, META_KEY), &meta_bytes)?;
    storage.sync()?;
    report.write = t.elapsed();
    report.bytes_written = bytes_written;

    Ok((meta, report))
}

/// Preprocesses a raw text edge list, timing the parse as the "load" phase
/// of Figure 8.
pub fn preprocess_text<R: BufRead>(
    reader: R,
    storage: &dyn Storage,
    config: &PreprocessConfig,
) -> std::io::Result<(GridMeta, PreprocessReport)> {
    let t = Stopwatch::start();
    let graph = crate::parsers::parse_edge_list(reader)?;
    let load = t.elapsed();
    let (meta, mut report) = preprocess(&graph, storage, config)?;
    report.load = load;
    Ok((meta, report))
}

/// CSR offsets (edge indexes, not bytes) over the vertices of `range` for a
/// sub-block sorted by source (or destination when `by_dst`). Shared with
/// the repair path, which must rebuild byte-identical index payloads.
pub(crate) fn build_index(block: &[Edge], range: std::ops::Range<u32>, by_dst: bool) -> Vec<u32> {
    let len = (range.end - range.start) as usize;
    let mut offsets = vec![0u32; len + 1];
    for e in block {
        let v = if by_dst { e.dst } else { e.src };
        debug_assert!(range.contains(&v), "edge endpoint outside its interval");
        offsets[(v - range.start) as usize + 1] += 1;
    }
    for k in 0..len {
        offsets[k + 1] += offsets[k];
    }
    debug_assert_eq!(offsets[len] as usize, block.len());
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, GraphKind};
    use gsd_io::MemStorage;

    fn small_graph() -> Graph {
        GeneratorConfig::new(GraphKind::ErdosRenyi, 100, 500, 7).generate()
    }

    #[test]
    fn preprocess_writes_complete_grid() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig::graphsd("").with_intervals(4);
        let (meta, report) = preprocess(&g, &store, &config).unwrap();
        assert_eq!(meta.p, 4);
        assert_eq!(meta.num_edges, 500);
        assert_eq!(meta.block_edge_counts.iter().sum::<u64>(), 500);
        assert!(report.bytes_written > 0);
        // 16 edge files + 16 idx files + 4 row indexes + degrees + meta
        assert_eq!(store.list_keys().len(), 38);
    }

    #[test]
    fn all_edges_land_in_the_right_block_sorted() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig::graphsd("").with_intervals(3);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        let intervals = meta.intervals();
        let codec = meta.codec();
        let mut seen = 0u64;
        for i in 0..3 {
            for j in 0..3 {
                let bytes = store.read_all(&block_edges_key("", i, j)).unwrap();
                let edges = codec.decode_all(&bytes);
                assert_eq!(edges.len() as u64, meta.block_edge_count(i, j));
                seen += edges.len() as u64;
                for e in &edges {
                    assert_eq!(intervals.interval_of(e.src), i);
                    assert_eq!(intervals.interval_of(e.dst), j);
                }
                assert!(edges
                    .windows(2)
                    .all(|w| (w[0].src, w[0].dst) <= (w[1].src, w[1].dst)));
            }
        }
        assert_eq!(seen, 500);
    }

    #[test]
    fn index_locates_every_vertexs_edges() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig::graphsd("").with_intervals(2);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        let intervals = meta.intervals();
        let codec = meta.codec();
        for i in 0..2 {
            for j in 0..2 {
                let edges = codec.decode_all(&store.read_all(&block_edges_key("", i, j)).unwrap());
                let idx = crate::format::decode_u32s(
                    &store.read_all(&block_index_key("", i, j)).unwrap(),
                )
                .unwrap();
                let range = intervals.range(i);
                assert_eq!(idx.len() as u32, range.end - range.start + 1);
                for v in range.clone() {
                    let k = (v - range.start) as usize;
                    let slice = &edges[idx[k] as usize..idx[k + 1] as usize];
                    assert!(slice.iter().all(|e| e.src == v));
                }
                // Index covers all edges.
                assert_eq!(*idx.last().unwrap() as usize, edges.len());
            }
        }
    }

    #[test]
    fn lumos_layout_skips_sort_and_index() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig::lumos("lumos/").with_intervals(2);
        let (meta, report) = preprocess(&g, &store, &config).unwrap();
        assert!(!meta.indexed);
        assert!(!meta.sorted);
        assert_eq!(report.sort, Duration::ZERO);
        assert!(store.list_keys().iter().all(|k| !k.ends_with(".idx")));
    }

    #[test]
    fn dst_sorted_layout_indexes_destinations() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig {
            sort_by_dst: true,
            ..PreprocessConfig::graphsd("col/")
        }
        .with_intervals(2);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        let intervals = meta.intervals();
        let codec = meta.codec();
        for i in 0..2 {
            for j in 0..2 {
                let edges =
                    codec.decode_all(&store.read_all(&block_edges_key("col/", i, j)).unwrap());
                assert!(edges
                    .windows(2)
                    .all(|w| (w[0].dst, w[0].src) <= (w[1].dst, w[1].src)));
                let idx = crate::format::decode_u32s(
                    &store.read_all(&block_index_key("col/", i, j)).unwrap(),
                )
                .unwrap();
                let range = intervals.range(j);
                for v in range.clone() {
                    let k = (v - range.start) as usize;
                    assert!(edges[idx[k] as usize..idx[k + 1] as usize]
                        .iter()
                        .all(|e| e.dst == v));
                }
            }
        }
    }

    #[test]
    fn auto_p_respects_memory_budget() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 1000, 10_000, 1).generate();
        // 10k edges x 8B = 80kB; budget 10kB => P >= 8.
        let store = MemStorage::new();
        let config = PreprocessConfig::graphsd("").with_memory_budget(10_000);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        assert_eq!(meta.p, 8);
    }

    #[test]
    fn auto_p_caps_at_vertex_count() {
        let mut b = crate::graph::GraphBuilder::new();
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        let store = MemStorage::new();
        let config = PreprocessConfig::graphsd("").with_memory_budget(1);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        assert!(meta.p <= 3);
    }

    #[test]
    fn preprocess_text_times_the_parse() {
        let store = MemStorage::new();
        let (meta, report) = preprocess_text(
            "0 1\n1 2\n2 0\n".as_bytes(),
            &store,
            &PreprocessConfig::graphsd("").with_intervals(1),
        )
        .unwrap();
        assert_eq!(meta.num_edges, 3);
        assert!(report.load > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "indexes require sorted")]
    fn index_without_sort_panics() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig {
            sort_blocks: false,
            build_index: true,
            ..PreprocessConfig::default()
        };
        let _ = preprocess(&g, &store, &config);
    }

    #[test]
    fn weighted_graph_roundtrips_weights() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 50, 200, 3)
            .weighted()
            .generate();
        let store = MemStorage::new();
        let (meta, _) =
            preprocess(&g, &store, &PreprocessConfig::graphsd("").with_intervals(2)).unwrap();
        assert!(meta.weighted);
        let codec = meta.codec();
        let mut total = 0;
        for i in 0..2 {
            for j in 0..2 {
                let edges = codec.decode_all(&store.read_all(&block_edges_key("", i, j)).unwrap());
                assert!(edges.iter().all(|e| e.weight > 0.0));
                total += edges.len();
            }
        }
        assert_eq!(total, 200);
    }
}
