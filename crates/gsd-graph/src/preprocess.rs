//! The preprocessing phase (§3.2, evaluated in §5.3 / Figure 8): partition
//! the edge set into the `P × P` grid, then lay every row out (sort, encode,
//! index — [`crate::layout`]) and write it to storage.
//!
//! The same routine, with another [`BlockOrder`], also builds the baseline
//! formats: the Lumos-like layout neither sorts nor indexes (its
//! preprocessing is the cheapest, as in Figure 8) and the HUS-Graph-like
//! layout runs the routine twice (row copy + destination-sorted column
//! copy — the most expensive preprocessing, as in Figure 8).

use crate::format::{id_bytes_for, GridMeta, FORMAT_VERSION, META_KEY};
use crate::graph::Graph;
use crate::layout::{bucket_edges, degrees_object, row_objects, BlockOrder};
use crate::partition::Intervals;
use crate::types::EdgeCodec;
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
    /// `num_intervals`/`degree_balanced`), for laying a second edge list
    /// out in the partition of an existing grid.
    pub boundaries: Option<Vec<u32>>,
    /// Edge order inside each sub-block, and with it whether rows carry
    /// an index.
    pub order: BlockOrder,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            key_prefix: String::new(),
            num_intervals: None,
            memory_budget_bytes: None,
            degree_balanced: false,
            boundaries: None,
            order: BlockOrder::BySource,
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
            order: BlockOrder::Unsorted,
            ..Self::graphsd(prefix)
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
    /// Time sorting and indexing sub-blocks (zero when sorting is disabled).
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
    // Priced at the widest record: the id width follows from P.
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
    let mut report = PreprocessReport::default();
    let p = choose_p(graph, config);
    report.p = p;

    // --- partition: bucket every edge into its (i, j) sub-block ---
    let t = Stopwatch::start();
    let degrees = graph.out_degrees();
    let intervals = if let Some(b) = &config.boundaries {
        Intervals::from_boundaries(b.clone())
    } else if config.degree_balanced {
        Intervals::degree_balanced(&degrees, p)
    } else {
        Intervals::uniform(graph.num_vertices(), p)
    };
    let id_bytes = id_bytes_for(intervals.boundaries());
    let codec = EdgeCodec::new(graph.is_weighted()).with_id_bytes(id_bytes as usize);
    let mut blocks = bucket_edges(graph.edges(), &intervals);
    report.partition = t.elapsed();
    let block_edge_counts: Vec<u64> = blocks.iter().map(|b| b.len() as u64).collect();

    // --- lay out and write every row, then degrees and meta ---
    let t = Stopwatch::start();
    let mut bytes_written = 0u64;
    // Manifest entries use prefix-relative keys so the grid verifies the
    // same when mounted under a different prefix.
    let mut objects: Vec<ObjectEntry> = Vec::new();
    let mut write = |(rel, payload): (String, Vec<u8>)| {
        bytes_written += payload.len() as u64;
        storage.create(&format!("{}{rel}", config.key_prefix), &payload)?;
        objects.push(ObjectEntry::of(rel, &payload));
        std::io::Result::Ok(())
    };
    for (i, row) in (0..p).zip(blocks.chunks_mut(p as usize)) {
        let row = row_objects(i, row, config.order, &intervals, codec);
        report.sort += row.sort;
        row.objects.into_iter().try_for_each(&mut write)?;
    }
    write(degrees_object(&degrees))?;

    let mut meta = GridMeta {
        version: FORMAT_VERSION,
        num_vertices: graph.num_vertices(),
        num_edges: graph.num_edges(),
        p,
        weighted: graph.is_weighted(),
        id_bytes,
        order: config.order,
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
    report.write = t.elapsed().saturating_sub(report.sort);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{block_edges_key, row_index_key};
    use crate::generators::{GeneratorConfig, GraphKind};
    use gsd_io::{MemStorage, SharedStorage};
    use std::sync::Arc;

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
        // 16 edge files + 4 row indexes + degrees + meta
        assert_eq!(store.list_keys().len(), 22);
    }

    #[test]
    fn all_edges_land_in_the_right_block_sorted() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig::graphsd("").with_intervals(3);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        let intervals = meta.intervals();
        let mut seen = 0u64;
        for i in 0..3 {
            for j in 0..3 {
                let bytes = store.read_all(&block_edges_key("", i, j)).unwrap();
                let edges = meta.block_codec(i, j).decode_all(&bytes);
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
        let store: SharedStorage = Arc::new(MemStorage::new());
        let config = PreprocessConfig::graphsd("").with_intervals(2);
        let (meta, _) = preprocess(&g, store.as_ref(), &config).unwrap();
        let grid = crate::grid::GridGraph::open(store.clone()).unwrap();
        let intervals = meta.intervals();
        for i in 0..2 {
            let range = intervals.range(i);
            let index = grid.read_index(i, 0).unwrap();
            let stored = store.read_all(&row_index_key("", i)).unwrap();
            let layout = grid.row_index_layout(i);
            assert_eq!(stored.len(), (range.len() + 1) * layout.bytes_per_vertex());
            for j in 0..2 {
                let codec = meta.block_codec(i, j);
                let edges = codec.decode_all(&store.read_all(&block_edges_key("", i, j)).unwrap());
                for v in range.clone() {
                    let run = index.edge_range(v, j);
                    let slice = &edges[run.start as usize..run.end as usize];
                    assert!(slice.iter().all(|e| e.src == v));
                }
                // Index covers all edges.
                assert_eq!(index.edge_range(range.end - 1, j).end as usize, edges.len());
            }
        }
    }

    #[test]
    fn lumos_layout_skips_sort_and_index() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig::lumos("lumos/").with_intervals(2);
        let (meta, report) = preprocess(&g, &store, &config).unwrap();
        assert_eq!(meta.order, BlockOrder::Unsorted);
        assert_eq!(report.sort, Duration::ZERO);
        assert!(store.list_keys().iter().all(|k| !k.ends_with(".ridx")));
    }

    #[test]
    fn by_dest_layout_sorts_by_destination_and_has_no_index() {
        let g = small_graph();
        let store = MemStorage::new();
        let config = PreprocessConfig {
            order: BlockOrder::ByDest,
            ..PreprocessConfig::graphsd("col/")
        }
        .with_intervals(2);
        let (meta, _) = preprocess(&g, &store, &config).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let edges = meta
                    .block_codec(i, j)
                    .decode_all(&store.read_all(&block_edges_key("col/", i, j)).unwrap());
                assert!(edges
                    .windows(2)
                    .all(|w| (w[0].dst, w[0].src) <= (w[1].dst, w[1].src)));
            }
        }
        assert!(store.list_keys().iter().all(|k| !k.ends_with(".ridx")));
    }

    #[test]
    fn auto_p_respects_memory_budget() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 1000, 10_000, 1).generate();
        // 10k edges x 8B (priced at the widest record) = 80kB; budget
        // 10kB => P >= 8.
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
    fn weighted_graph_roundtrips_weights() {
        let g = GeneratorConfig::new(GraphKind::ErdosRenyi, 50, 200, 3)
            .weighted()
            .generate();
        let store = MemStorage::new();
        let (meta, _) =
            preprocess(&g, &store, &PreprocessConfig::graphsd("").with_intervals(2)).unwrap();
        assert!(meta.weighted);
        let mut total = 0;
        for i in 0..2 {
            for j in 0..2 {
                let bytes = store.read_all(&block_edges_key("", i, j)).unwrap();
                let edges = meta.block_codec(i, j).decode_all(&bytes);
                assert!(edges.iter().all(|e| e.weight > 0.0));
                total += edges.len();
            }
        }
        assert_eq!(total, 200);
    }
}
