//! `mutate_cycle`: the write path and the hardened read path.
//!
//! One unit is one cycle on a pristine copy of the preprocessed grid:
//! for each batch, `ingest` it and continue BFS from the warm values
//! (`incremental_run`); then run PageRank over the resulting delta
//! overlay with every read verified, prefetch off and a checkpoint per
//! iteration; then `compact`. `run_s` is the time a caller waits for all
//! of it; the per-operation medians are per-layer numbers.
//!
//! The timed cycles run on a `MemStorage` copy of the grid. On real
//! files four fifths of a cycle are `fsync` (every `create` syncs its
//! file, every commit step walks the tree), and what an `fsync` costs on
//! a shared host is the host's business and varies by tens of percent
//! from run to run. The program's work — encoding,
//! checksums, overlay merge, checkpoint serialisation, the rebuild and
//! byte-compare of compaction — is the same on either store, and so is
//! the accounted traffic. The traced pass runs the cycle on real files,
//! untraced and traced, so what durability costs here is still reported
//! (`gsd-io.files_run_s`, `gsd-io.sync_busy_s`, `gsd-io.write_busy_s`).

use crate::env::with_peak_rss;
use crate::harness::{
    engine_config, fingerprint, io_metrics, open_files, pipeline_metrics, preparation_metrics,
    run_stats_metrics, secs, set_up, Ctx, Prepared,
};
use crate::inputs::{apply_batch, hub, mutation_batches};
use crate::report::Outcome;
use crate::spans::{CollectSink, SpanLog};
use crate::stats::{hdd_io_s, mb, median, quartiles, range};
use crate::timed_storage::TimedStorage;
use graphsd::algos::{Bfs, PageRank};
use graphsd::core::{GraphSdEngine, GridSession, RecoveryConfig};
use graphsd::delta::{compact, incremental_run, ingest, MutationBatch};
use graphsd::graph::{preprocess, scrub_grid, CorruptionResponse, Graph, GridGraph, VerifyPolicy};
use graphsd::io::{IoStatsSnapshot, MemStorage, SharedStorage, Storage};
use graphsd::recover::{CheckpointData, CheckpointStore, ManifestTag};
use graphsd::runtime::{Engine, ReferenceEngine, RunOptions, RunStats};
use graphsd::trace::{null_sink, TraceSink};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Fingerprints the cycle must reproduce, from oracles that never see
/// the delta machinery.
struct Oracle {
    /// BFS on the unmutated graph (the warm values' check).
    bfs_base: u64,
    /// BFS on the merged edge list after batch `k`.
    bfs_after: Vec<u64>,
    /// PageRank on the final merged edge list, re-preprocessed from
    /// scratch into the same interval boundaries.
    pagerank: u64,
}

fn oracle(
    graph: &Graph,
    batches: &[MutationBatch],
    root: u32,
    boundaries: &[u32],
) -> std::io::Result<Oracle> {
    let options = RunOptions::default();
    let bfs = |g: &Graph| {
        ReferenceEngine::new(g)
            .run(&Bfs::new(root), &options)
            .map(|r| fingerprint(&r.values))
    };
    let bfs_base = bfs(graph)?;
    let mut edges = graph.edges().to_vec();
    let mut bfs_after = Vec::new();
    for batch in batches {
        apply_batch(&mut edges, batch);
        bfs_after.push(bfs(&Graph::from_edges(
            graph.num_vertices(),
            edges.clone(),
            false,
        ))?);
    }
    let merged = Graph::from_edges(graph.num_vertices(), edges, false);
    let storage: SharedStorage = Arc::new(MemStorage::new());
    let config = crate::harness::preprocess_config().with_boundaries(boundaries.to_vec());
    let (meta, _) = preprocess(&merged, storage.as_ref(), &config)?;
    let mut engine = GraphSdEngine::new(GridGraph::open(storage)?, engine_config(&meta, false))?;
    let pagerank = fingerprint(&engine.run(&PageRank::paper(), &options)?.values);
    Ok(Oracle {
        bfs_base,
        bfs_after,
        pagerank,
    })
}

/// The grid under `dir`, object by object, in a fresh in-memory store.
fn load_into_memory(dir: &Path) -> std::io::Result<SharedStorage> {
    let files = open_files(dir)?;
    let memory = MemStorage::new();
    for key in files.list_keys() {
        memory.create(&key, &files.read_all(&key)?)?;
    }
    Ok(Arc::new(memory))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// What one cycle measured.
struct Cycle {
    ingest_s: Vec<f64>,
    recompute_s: Vec<f64>,
    verified_s: f64,
    compact_s: f64,
    /// Accounted traffic of the whole cycle.
    io: IoStatsSnapshot,
    /// Traffic of the compaction alone.
    compact_io: IoStatsSnapshot,
    segments: u64,
    segment_bytes: u64,
    rewritten_bytes: u64,
    resets: u64,
    recompute_runs: Vec<RunStats>,
    verified_run: RunStats,
}

impl Cycle {
    /// The time a caller waits for the cycle's operations.
    fn wall_s(&self) -> f64 {
        self.ingest_s.iter().sum::<f64>()
            + self.recompute_s.iter().sum::<f64>()
            + self.verified_s
            + self.compact_s
    }
}

struct Plan<'a> {
    prepared: &'a Prepared,
    batches: &'a [MutationBatch],
    root: u32,
    warm: &'a [u32],
    oracle: &'a Oracle,
}

/// The verified, checkpointed, synchronous PageRank of the cycle.
fn hardened_pagerank(
    storage: SharedStorage,
    plan: &Plan,
    verify: VerifyPolicy,
    sink: &Arc<dyn TraceSink>,
) -> std::io::Result<(RunStats, u64, f64)> {
    let started = Instant::now();
    let session = GridSession::open(storage, verify, CorruptionResponse::FailFast)?;
    // Every committed iteration is checkpointed; a cycle starts from a
    // pristine copy, so there is never an older checkpoint to resume.
    let config = engine_config(&plan.prepared.meta, false)
        .with_checkpoint(RecoveryConfig::every(1).without_resume());
    let mut engine = session.engine(config)?;
    engine.set_trace(sink.clone());
    let result = engine.run(&PageRank::paper(), &RunOptions::default())?;
    Ok((
        result.stats,
        fingerprint(&result.values),
        started.elapsed().as_secs_f64(),
    ))
}

/// Runs one cycle on `storage`, a pristine copy of the grid.
fn cycle(
    storage: SharedStorage,
    plan: &Plan,
    sink: &Arc<dyn TraceSink>,
    outcome: &mut Outcome,
) -> std::io::Result<Cycle> {
    let stats = storage.stats();
    let start_io = stats.snapshot();
    let program = Bfs::new(plan.root);
    let mut warm = plan.warm.to_vec();
    let (mut ingest_s, mut recompute_s, mut recompute_runs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut segments, mut segment_bytes, mut resets) = (0, 0, 0);
    for (k, batch) in plan.batches.iter().enumerate() {
        let (report, s) = secs(|| ingest(storage.as_ref(), "", batch, sink.as_ref()));
        let report = report?;
        ingest_s.push(s);
        segments += report.segments;
        segment_bytes += report.segment_bytes;
        outcome.check(
            report.inserts == batch.inserts() && report.deletes == batch.deletes(),
            || {
                format!(
                    "batch {k}: ingest reports {} inserts and {} deletes, the batch has {} and {}",
                    report.inserts,
                    report.deletes,
                    batch.inserts(),
                    batch.deletes()
                )
            },
        );

        let (continued, s) = secs(|| {
            let grid = GridGraph::open(storage.clone())?;
            incremental_run(
                grid,
                &program,
                warm,
                batch,
                engine_config(&plan.prepared.meta, true),
                sink.clone(),
            )
        });
        let (result, seeded) = continued?;
        recompute_s.push(s);
        let got = fingerprint(&result.values);
        outcome.check(got == plan.oracle.bfs_after[k] && !seeded.full_fallback, || {
            format!("batch {k}: incremental BFS committed {got:#x}, BFS on the merged edge list {:#x}", plan.oracle.bfs_after[k])
        });
        resets += seeded.resets;
        recompute_runs.push(result.stats);
        warm = result.values;
    }

    let (verified_run, got, verified_s) =
        hardened_pagerank(storage.clone(), plan, VerifyPolicy::Full, sink)?;
    outcome.check(got == plan.oracle.pagerank && verified_run.verify_bytes > 0 && verified_run.corrupt_blocks == 0, || {
        format!(
            "verified PageRank over the overlay committed {got:#x} ({} bytes verified), PageRank on the re-preprocessed merged edge list {:#x}",
            verified_run.verify_bytes, plan.oracle.pagerank
        )
    });

    let before = stats.snapshot();
    let (folded, compact_s) = secs(|| compact(&storage, "", sink.as_ref()));
    let folded = folded?;
    let compact_io = stats.snapshot().since(&before);
    let io = stats.snapshot().since(&start_io);
    outcome.check(
        folded
            .as_ref()
            .is_some_and(|f| f.segments_folded == segments),
        || {
            format!(
                "ingest wrote {segments} segments, compaction folded {:?}",
                folded.as_ref().map(|f| f.segments_folded)
            )
        },
    );
    let clean = scrub_grid(storage.as_ref(), "")?.1.is_clean();
    outcome.check(clean, || {
        "scrub after compaction found corrupt objects".to_string()
    });
    Ok(Cycle {
        ingest_s,
        recompute_s,
        verified_s,
        compact_s,
        io,
        compact_io,
        segments,
        segment_bytes,
        rewritten_bytes: folded.map_or(0, |f| f.bytes_rewritten),
        resets,
        recompute_runs,
        verified_run,
    })
}

fn batch_file(prep: &Path, k: usize) -> std::path::PathBuf {
    prep.join(format!("batch_{k}.txt"))
}

/// `batch` in the text format `MutationBatch::parse` reads.
fn batch_text(batch: &MutationBatch) -> String {
    use graphsd::graph::DeltaOp;
    batch
        .ops
        .iter()
        .map(|op| match op {
            DeltaOp::Insert(e) => format!("+ {} {}\n", e.src, e.dst),
            DeltaOp::Delete { src, dst } => format!("- {src} {dst}\n"),
        })
        .collect()
}

/// The preparing process: graph, pristine grid, the batches as files,
/// and the oracles' fingerprints.
pub fn prepare(ctx: &Ctx, prep: &Path) -> std::io::Result<()> {
    let (graph, generate_s) = secs(|| ctx.sizes.mutate.generate(ctx.seed, 3));
    let root = hub(&graph);
    let batches = mutation_batches(&graph, ctx.seed, ctx.sizes.batches, ctx.sizes.batch_ops);
    let (mut notes, meta) = set_up(ctx, &graph, prep, |storage, meta| {
        let session = GridSession::open(storage, VerifyPolicy::Full, CorruptionResponse::FailFast)?;
        session.engine(engine_config(meta, true)).map(drop)
    })?;
    let oracle = oracle(&graph, &batches, root, &meta.boundaries)?;
    notes.set("generate_s", generate_s);
    notes.set("root", root);
    notes.set("bfs_base", oracle.bfs_base);
    notes.set("pagerank", oracle.pagerank);
    for (k, batch) in batches.iter().enumerate() {
        std::fs::write(batch_file(prep, k), batch_text(batch))?;
        notes.set(&format!("bfs_after_{k}"), oracle.bfs_after[k]);
    }
    notes.write(prep)
}

pub fn measure(ctx: &Ctx, prep: &Path) -> std::io::Result<Outcome> {
    let workload = "mutate_cycle";
    let mut outcome = Outcome::new();
    let prepared = Prepared::load(prep)?;
    let notes = &prepared.notes;
    let root: u32 = notes.get("root")?;
    let setup_s = prepared.setup_s()?;
    let mut batches = Vec::new();
    let mut bfs_after = Vec::new();
    for k in 0..ctx.sizes.batches {
        batches.push(MutationBatch::parse(&std::fs::read_to_string(
            batch_file(prep, k),
        )?)?);
        bfs_after.push(notes.get(&format!("bfs_after_{k}"))?);
    }
    let oracle = Oracle {
        bfs_base: notes.get("bfs_base")?,
        bfs_after,
        pagerank: ctx.oracle(notes.get("pagerank")?),
    };

    // The converged state a service holds when the first batch arrives.
    let mut engine = GraphSdEngine::new(
        GridGraph::open(open_files(&prepared.dir)?)?,
        engine_config(&prepared.meta, true),
    )?;
    let warm = engine.run(&Bfs::new(root), &RunOptions::default())?.values;
    drop(engine);
    outcome.check(fingerprint(&warm) == oracle.bfs_base, || {
        "BFS on the pristine grid differs from the reference".to_string()
    });
    let plan = Plan {
        prepared: &prepared,
        batches: &batches,
        root,
        warm: &warm,
        oracle: &oracle,
    };

    let quiet: Arc<dyn TraceSink> = null_sink();
    let run_cycle = |outcome: &mut Outcome| -> std::io::Result<Cycle> {
        cycle(load_into_memory(&prepared.dir)?, &plan, &quiet, outcome)
    };
    run_cycle(&mut outcome)?;
    let cpu_before = crate::env::cpu_s();
    let mut window = ctx.window();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    while window.next() {
        let (cycle, peak_mb) = with_peak_rss(|| run_cycle(&mut outcome));
        let cycle = cycle?;
        peaks.push(peak_mb);
        if let Some(first) = cycles.first() {
            // Written bytes may differ by a few: checkpoints serialize the
            // run's own wall-clock timers as text.
            let same = cycle.io.read_bytes() == first.io.read_bytes()
                && cycle.io.rand_read_ops == first.io.rand_read_ops
                && cycle.io.write_ops == first.io.write_ops;
            outcome.check(same, || {
                format!(
                    "{workload}: cycles disagree on accounted I/O: {:?} vs {:?}",
                    cycle.io, first.io
                )
            });
        }
        cycles.push(cycle);
    }
    let cpu_s = (crate::env::cpu_s() - cpu_before) / cycles.len() as f64;
    let walls: Vec<f64> = cycles.iter().map(Cycle::wall_s).collect();
    let run_s = median(&walls);
    let io = cycles[0].io;
    let m = &mut outcome.metrics;
    m.set_end_to_end(
        setup_s,
        run_s,
        mb(io.read_bytes()),
        hdd_io_s(&io),
        median(&peaks),
    );
    let ingest: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.ingest_s.iter().copied())
        .collect();
    let recompute: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.recompute_s.iter().copied())
        .collect();
    let verified: Vec<f64> = cycles.iter().map(|c| c.verified_s).collect();
    let compacts: Vec<f64> = cycles.iter().map(|c| c.compact_s).collect();
    eprintln!(
        "{workload}: {} timed cycles, median {run_s:.4} s, quartiles {:.4?}, range {:.4?}; ingest p50 {:.2} ms ({} samples), recompute p50 {:.2} ms, verified run {:.4} s, compact {:.4} s; set-up {:.3} s",
        cycles.len(),
        quartiles(&walls),
        range(&walls),
        median(&ingest) * 1e3,
        ingest.len(),
        median(&recompute) * 1e3,
        median(&verified),
        median(&compacts),
        setup_s,
    );
    if !ctx.trace {
        return Ok(outcome);
    }

    // ---- the traced pass ----
    m.set("benchmark.units", cycles.len() as f64);
    m.set("benchmark.cpu_s", cpu_s);
    m.set("benchmark.untraced_run_s", run_s);
    m.set("gsd-delta.ingest_p50_ms", median(&ingest) * 1e3);
    m.set("gsd-delta.recompute_p50_ms", median(&recompute) * 1e3);
    m.set("gsd-delta.verified_run_s", median(&verified));
    m.set("gsd-delta.compact_s", median(&compacts));
    preparation_metrics(&mut outcome, &prepared)?;

    // The cycle on real files, `fsync` and all: once plain, once with
    // storage calls and events recorded.
    let work = ctx.temp_dir("files")?;
    copy_dir(&prepared.dir, work.path())?;
    let on_files = cycle(open_files(work.path())?, &plan, &quiet, &mut outcome)?;
    let log = Arc::new(SpanLog::new());
    let sink: Arc<dyn TraceSink> = Arc::new(CollectSink::new(log.clone()));
    log.next_run();
    let work = ctx.temp_dir("traced")?;
    copy_dir(&prepared.dir, work.path())?;
    let timed = Arc::new(TimedStorage::new(open_files(work.path())?, log.clone()));
    let traced = cycle(timed.clone(), &plan, &sink, &mut outcome)?;
    let mutated = MutatedGrid::measure(ctx, &plan, &mut outcome)?;
    outcome.check(
        traced.io.read_bytes() == io.read_bytes() && on_files.io.read_bytes() == io.read_bytes(),
        || "the cycles on real files read other bytes than the ones in memory".to_string(),
    );
    let m = &mut outcome.metrics;
    m.set("gsd-io.files_run_s", on_files.wall_s());
    m.set("benchmark.traced_run_s", traced.wall_s());
    m.set(
        "benchmark.trace_overhead_ratio",
        traced.wall_s() / on_files.wall_s(),
    );
    io_metrics(m, &timed, traced.io.rand_read_ops);
    let mut runs: Vec<&RunStats> = traced.recompute_runs.iter().collect();
    runs.push(&traced.verified_run);
    let engine_wall = traced.recompute_s.iter().sum::<f64>() + traced.verified_s;
    run_stats_metrics(m, &runs, engine_wall);
    pipeline_metrics(m, &runs);
    m.set(
        "gsd-integrity.verify_mb",
        mb(traced.verified_run.verify_bytes),
    );
    m.set(
        "gsd-integrity.verify_overhead_ratio",
        traced.verified_s / mutated.unverified_s,
    );
    m.set("gsd-integrity.scrub_s", mutated.scrub_s);
    m.set(
        "gsd-graph.overlay_read_medges_per_s",
        mutated.overlay_read_medges_per_s,
    );
    m.set("gsd-recover.ckpt_writes", log.count("ckpt_written") as f64);
    m.set("gsd-recover.ckpt_mb", mb(log.sum("ckpt_written")));
    m.set("gsd-recover.ckpt_write_ms", mutated.ckpt_write_ms);
    m.set("gsd-recover.ckpt_restore_ms", mutated.ckpt_restore_ms);
    m.set("gsd-delta.ingest_segments", traced.segments as f64);
    m.set(
        "gsd-delta.ingest_write_kb",
        traced.segment_bytes as f64 / 1e3,
    );
    m.set(
        "gsd-delta.compact_read_mb",
        mb(traced.compact_io.read_bytes()),
    );
    m.set("gsd-delta.compact_rewritten_mb", mb(traced.rewritten_bytes));
    m.set(
        "gsd-delta.write_amp",
        traced.compact_io.write_bytes as f64 / traced.segment_bytes.max(1) as f64,
    );
    m.set(
        "gsd-delta.recompute_iterations",
        traced
            .recompute_runs
            .iter()
            .map(|r| f64::from(r.iterations))
            .sum(),
    );
    m.set("gsd-delta.recompute_resets", traced.resets as f64);
    m.set(
        "gsd-delta.recompute_read_mb",
        traced
            .recompute_runs
            .iter()
            .map(|r| mb(r.io.read_bytes()))
            .sum(),
    );
    crate::layers::replay_grid(&prepared.dir, &prepared.meta, &mut outcome.metrics)?;
    log.write_json(
        &ctx.out_dir.join(format!("trace_{workload}.json")),
        &ctx.context_json(workload, Some(cycles.len())),
    )?;
    Ok(outcome)
}

/// Measurements on a grid that holds every batch as live delta
/// segments: the state between the last ingest and the compaction.
struct MutatedGrid {
    unverified_s: f64,
    scrub_s: f64,
    overlay_read_medges_per_s: f64,
    ckpt_write_ms: f64,
    ckpt_restore_ms: f64,
}

impl MutatedGrid {
    fn measure(ctx: &Ctx, plan: &Plan, outcome: &mut Outcome) -> std::io::Result<Self> {
        let quiet: Arc<dyn TraceSink> = null_sink();
        let work = ctx.temp_dir("mutated")?;
        copy_dir(&plan.prepared.dir, work.path())?;
        let storage = &open_files(work.path())?;
        for batch in plan.batches {
            ingest(storage.as_ref(), "", batch, quiet.as_ref())?;
        }
        // The same run without checksum verification: what `Full` costs.
        let (_, got, unverified_s) =
            hardened_pagerank(storage.clone(), plan, VerifyPolicy::Off, &quiet)?;
        outcome.check(got == plan.oracle.pagerank, || {
            "unverified PageRank over the overlay differs from the oracle".to_string()
        });
        let (scrub, scrub_s) = secs(|| scrub_grid(storage.as_ref(), ""));
        outcome.check(scrub?.1.is_clean(), || {
            "scrub of the mutated grid found corrupt objects".to_string()
        });

        // Every block through the overlay-merging read path.
        let grid = GridGraph::open(storage.clone())?;
        let (mut scratch, mut edges, mut read) = (Vec::new(), Vec::new(), 0u64);
        let (result, read_s) = secs(|| -> std::io::Result<()> {
            for i in 0..grid.p() {
                for j in 0..grid.p() {
                    grid.read_block_into(i, j, &mut scratch, &mut edges)?;
                    read += edges.len() as u64;
                }
            }
            Ok(())
        });
        result?;
        outcome.check(read == grid.num_edges(), || {
            format!(
                "the overlay read {read} edges, the merged grid has {}",
                grid.num_edges()
            )
        });

        // A snapshot the size of the verified run's, written and restored.
        let n = grid.num_vertices();
        let tag = ManifestTag {
            engine: "replay".to_string(),
            algorithm: "pagerank".to_string(),
            value_bytes: 4,
            num_vertices: n,
            graph_fingerprint: 0,
            config_hash: 0,
        };
        let mut store = CheckpointStore::new(storage.clone(), "replay_ckpt", 1, tag);
        let data = CheckpointData {
            iteration: 1,
            values: vec![1; n as usize],
            accum: vec![0; n as usize],
            frontier: (0..n).collect(),
            touched: Vec::new(),
            stats: RunStats::default(),
            extra: Vec::new(),
        };
        let (written, write_s) = secs(|| store.write(&data));
        written?;
        let (restored, restore_s) = secs(|| store.latest());
        outcome.check(
            restored?.is_some_and(|d| d.values.len() == n as usize),
            || "the replayed checkpoint did not restore".to_string(),
        );
        Ok(MutatedGrid {
            unverified_s,
            scrub_s,
            overlay_read_medges_per_s: if read_s > 0.0 {
                read as f64 / 1e6 / read_s
            } else {
                0.0
            },
            ckpt_write_ms: write_s * 1e3,
            ckpt_restore_ms: restore_s * 1e3,
        })
    }
}
