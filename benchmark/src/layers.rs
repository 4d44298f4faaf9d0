//! Layer replays: a crate's public functions called directly on the
//! workload's own on-disk grid, one layer at a time, so each has a rate
//! of its own to set against the end-to-end run.

use crate::harness::{budget, engine_config, open_files, secs};
use crate::report::Metrics;
use crate::stats::median;
use graphsd::algos::PageRank;
use graphsd::core::{GridSession, PipelineConfig, Scheduler, SubBlockBuffer};
use graphsd::graph::{CorruptionResponse, Edge, GridGraph, GridMeta, VerifyPolicy};
use graphsd::integrity::crc32;
use graphsd::io::DiskModel;
use graphsd::pipeline::{PrefetchExecutor, PrefetchRequest};
use graphsd::runtime::kernels::{apply_range, scatter_edges};
use graphsd::runtime::{Frontier, ProgramContext, ValueArray};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Edges the kernel replays run over; enough to leave the caches.
const KERNEL_EDGES: usize = 2_000_000;
const REPS: usize = 3;

fn rate(units: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        units / seconds
    } else {
        0.0
    }
}

/// Median seconds of `REPS` calls of `f`.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| secs(&mut f).1).collect();
    median(&times)
}

/// Block coordinates in the row-major order the engines stream them.
fn coords(p: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..p).flat_map(move |i| (0..p).map(move |j| (i, j)))
}

/// `gsd-io`, `gsd-integrity`, `gsd-graph`, `gsd-runtime`, `gsd-core` and
/// `gsd-pipeline` replays over the grid in `dir`.
pub fn replay_grid(dir: &Path, meta: &GridMeta, m: &mut Metrics) -> std::io::Result<()> {
    let storage = open_files(dir)?;
    let grid = GridGraph::open(storage.clone())?;
    let (p, n, codec) = (grid.p(), grid.num_vertices(), grid.codec());

    // Every block_edges object once: raw read, then CRC, then decode.
    let (mut raw_s, mut crc_s, mut decode_s) = (0.0, 0.0, 0.0);
    let (mut raw_bytes, mut decoded_edges) = (0u64, 0u64);
    let mut blocks: Vec<(u32, u32, Arc<Vec<Edge>>)> = Vec::new();
    for (i, j) in coords(p) {
        let key = grid.edges_key(i, j);
        let len = if storage.exists(&key) {
            storage.len(&key)?
        } else {
            0
        };
        if len == 0 {
            continue;
        }
        let mut bytes = vec![0u8; len as usize];
        raw_s += secs(|| storage.read_at(&key, 0, &mut bytes)).1;
        crc_s += secs(|| black_box(crc32(black_box(&bytes)))).1;
        let mut edges = Vec::new();
        decode_s += secs(|| codec.decode_all_into(black_box(&bytes), &mut edges)).1;
        raw_bytes += len;
        decoded_edges += edges.len() as u64;
        blocks.push((i, j, Arc::new(edges)));
    }
    m.set(
        "gsd-io.raw_read_mb_per_s",
        rate(raw_bytes as f64 / 1e6, raw_s),
    );
    m.set(
        "gsd-integrity.crc_mb_per_s",
        rate(raw_bytes as f64 / 1e6, crc_s),
    );
    m.set(
        "gsd-graph.decode_medges_per_s",
        rate(decoded_edges as f64 / 1e6, decode_s),
    );

    // The same blocks through the grid's own read path (overlay-aware).
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    let mut read_edges = 0u64;
    let ((), read_s) = secs(|| {
        for (i, j) in coords(p) {
            if grid.read_block_into(i, j, &mut scratch, &mut out).is_ok() {
                read_edges += out.len() as u64;
            }
        }
    });
    m.set(
        "gsd-graph.block_read_medges_per_s",
        rate(read_edges as f64 / 1e6, read_s),
    );

    let indexed: Vec<(u32, u32)> = blocks.iter().map(|b| (b.0, b.1)).collect();
    let ((), index_s) = secs(|| {
        for &(i, j) in &indexed {
            black_box(grid.read_index(i, j).is_ok());
        }
    });
    m.set(
        "gsd-graph.index_read_us",
        rate(index_s * 1e6, indexed.len() as f64),
    );

    // Kernels, with PageRank as the program: dense (no filter), sparse
    // (1 % of the sources active), then apply over every vertex.
    let edges: Vec<Edge> = blocks
        .iter()
        .flat_map(|b| b.2.iter().copied())
        .take(KERNEL_EDGES)
        .collect();
    let degrees = Arc::new(grid.load_out_degrees()?);
    let ctx = ProgramContext::new(n, degrees.clone());
    let program = PageRank::paper();
    let values = ValueArray::new(n as usize, 1.0f32);
    let accum = ValueArray::new(n as usize, 0.0f32);
    let touched = Frontier::empty(n);
    let dense_s = median_secs(|| {
        black_box(scatter_edges(
            &program, &ctx, &edges, None, &values, &accum, &touched,
        ));
    });
    m.set(
        "gsd-runtime.scatter_dense_medges_per_s",
        rate(edges.len() as f64 / 1e6, dense_s),
    );
    let one_percent: Vec<u32> = (0..n).step_by(100).collect();
    let sparse = Frontier::from_seeds(n, &one_percent);
    let sparse_s = median_secs(|| {
        black_box(scatter_edges(
            &program,
            &ctx,
            &edges,
            Some(&sparse),
            &values,
            &accum,
            &touched,
        ));
    });
    m.set(
        "gsd-runtime.scatter_sparse_medges_per_s",
        rate(edges.len() as f64 / 1e6, sparse_s),
    );
    let next = Frontier::empty(n);
    let apply_s = median_secs(|| {
        black_box(apply_range(
            &program,
            &ctx,
            0..n,
            true,
            &touched,
            &accum,
            &values,
            &next,
        ));
    });
    m.set(
        "gsd-runtime.apply_mverts_per_s",
        rate(f64::from(n) / 1e6, apply_s),
    );
    // What the engine does between iterations besides swapping pointers.
    let rotate_s = median_secs(|| {
        accum.fill(0.0);
        touched.clear();
        black_box(Frontier::empty(n));
    });
    m.set("gsd-runtime.frontier_rotate_us", rotate_s * 1e6);

    // The priority buffer under the engine's budget: offer every decoded
    // block with its edge count as priority, then look each one up.
    let per_edge = codec.edge_bytes() as u64;
    let largest = blocks
        .iter()
        .map(|b| b.2.len() as u64 * per_edge)
        .max()
        .unwrap_or(0);
    let mut buffer = SubBlockBuffer::new(budget(meta).saturating_sub(largest));
    let ((), buffer_s) = secs(|| {
        for (i, j, block) in &blocks {
            let bytes = block.len() as u64 * per_edge;
            black_box(buffer.offer(*i, *j, block.clone(), bytes, block.len() as u64));
        }
        for (i, j, _) in &blocks {
            black_box(buffer.get(*i, *j));
        }
    });
    m.set(
        "gsd-core.buffer_offer_us",
        rate(buffer_s * 1e6, blocks.len() as f64),
    );

    // The benefit evaluation at a sparse and a dense frontier, sized the
    // way the engine sizes it.
    let hdd = DiskModel::hdd();
    let threshold =
        (f64::from(p) * hdd.seek_latency.as_secs_f64() * hdd.seq_read_bps).max(1.0) as u64;
    let mut scheduler = Scheduler::new(
        hdd,
        u64::from(n) * 4,
        meta.total_edge_bytes(),
        per_edge,
        threshold,
    );
    let half: Vec<u32> = (0..n).step_by(2).collect();
    let dense = Frontier::from_seeds(n, &half);
    let select_s = median_secs(|| {
        black_box(scheduler.select(1, &sparse, &degrees));
        black_box(scheduler.select(2, &dense, &degrees));
    });
    m.set("gsd-core.scheduler_select_us", select_s * 1e6 / 2.0);

    let open_s = median_secs(|| {
        let opened = open_files(dir)
            .and_then(|s| GridSession::open(s, VerifyPolicy::Off, CorruptionResponse::default()))
            .and_then(|session| session.engine(engine_config(meta, true)));
        black_box(opened.is_ok());
    });
    m.set("gsd-core.session_open_ms", open_s * 1e3);

    // Every block through the prefetch hand-off, to set against
    // `block_read_medges_per_s` (same reads, no hand-off).
    let mut pipeline = PrefetchExecutor::new(grid.clone(), PipelineConfig::with_depth(2))?;
    let mut taken_edges = 0u64;
    let (taken, take_s) = secs(|| -> std::io::Result<()> {
        pipeline.begin_schedule(
            coords(p)
                .map(|(i, j)| PrefetchRequest::Block { i, j })
                .collect(),
        );
        for _ in coords(p) {
            taken_edges += pipeline.take()?.edges.len() as u64;
        }
        Ok(())
    });
    taken?;
    m.set(
        "gsd-pipeline.take_medges_per_s",
        rate(taken_edges as f64 / 1e6, take_s),
    );
    Ok(())
}
