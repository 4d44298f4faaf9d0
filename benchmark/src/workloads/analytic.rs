//! `pr_stream` and `sssp_frontier`: one out-of-core analytic run per
//! unit, engine rebuilt from the files every time.

use crate::env::with_peak_rss;
use crate::harness::{
    engine_config, fingerprint, io_metrics, open_files, pipeline_metrics, prefetches,
    preparation_metrics, run_stats_metrics, secs, set_up, Ctx, Prepared,
};
use crate::inputs::{grid_centre, GraphSpec};
use crate::report::Outcome;
use crate::spans::{CollectSink, SpanLog};
use crate::stats::{hdd_io_s, mb, median, quartiles, range};
use crate::timed_storage::TimedStorage;
use graphsd::algos::{PageRank, Sssp};
use graphsd::baselines::{
    build_hus_format, build_lumos_format, GridStreamEngine, HusGraphEngine, LumosEngine,
};
use graphsd::core::{GridSession, PipelineConfig, SchedulerDecision};
use graphsd::graph::{CorruptionResponse, Graph, GridGraph, GridMeta, VerifyPolicy};
use graphsd::io::SharedStorage;
use graphsd::runtime::{
    Engine, IoAccessModel, ReferenceEngine, RunOptions, RunStats, VertexProgram,
};
use graphsd::trace::TraceSink;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn spec(ctx: &Ctx, workload: &str) -> (GraphSpec, u64) {
    if workload == "pr_stream" {
        (ctx.sizes.pr, 1)
    } else {
        (ctx.sizes.sssp, 2)
    }
}

/// The preparing process: generate the graph, set up, compute the
/// oracle, and (traced invocations) build the baselines' formats.
pub fn prepare(ctx: &Ctx, workload: &str, prep: &Path) -> std::io::Result<()> {
    let (spec, stream) = spec(ctx, workload);
    let (graph, generate_s) = secs(|| spec.generate(ctx.seed, stream));
    // SSSP starts in the middle of the road grid: four wavefronts that
    // average the seed's weight draws, where a corner start has one.
    let root = grid_centre(graph.num_vertices());
    // Set-up is what `gsd preprocess` plus the start of `gsd run` do:
    // build the grid, open the session, build an engine.
    let (mut notes, _) = set_up(ctx, &graph, prep, |storage, meta| {
        let session = GridSession::open(storage, VerifyPolicy::Off, CorruptionResponse::default())?;
        session
            .engine(engine_config(meta, prefetches(workload)))
            .map(drop)
    })?;
    notes.set("generate_s", generate_s);
    notes.set("root", root);

    // The oracle: the in-memory sequential executor on the same graph.
    let options = RunOptions::default();
    let (reference, reference_s) = secs(|| {
        let mut engine = ReferenceEngine::new(&graph);
        if workload == "pr_stream" {
            engine.run(&PageRank::paper(), &options)
        } else {
            engine.run(&Sssp::new(root), &options)
        }
    });
    let reference = reference?;
    notes.set("want", fingerprint(&reference.values));
    notes.set("want_iterations", reference.stats.iterations);
    notes.set("reference_s", reference_s);
    if ctx.trace {
        Baselines::build(&graph, prep, &reference.values)?;
    }
    notes.write(prep)
}

/// The measuring process: it never held the graph, so its memory is the
/// out-of-core run's own.
pub fn measure(ctx: &Ctx, workload: &str, prep: &Path) -> std::io::Result<Outcome> {
    let prepared = Prepared::load(prep)?;
    if workload == "pr_stream" {
        analytic(ctx, workload, prep, &prepared, &PageRank::paper())
    } else {
        analytic(
            ctx,
            workload,
            prep,
            &prepared,
            &Sssp::new(prepared.notes.get("root")?),
        )
    }
}

struct Sample {
    wall_s: f64,
    stats: RunStats,
    fingerprint: u64,
    decisions: Vec<SchedulerDecision>,
}

/// One unit: open the session on `storage`, build the engine, run to the
/// final values. A traced unit passes wrapped storage and a sink.
fn run_once<P: VertexProgram>(
    storage: SharedStorage,
    meta: &GridMeta,
    program: &P,
    prefetch: bool,
    sink: Option<Arc<dyn TraceSink>>,
) -> std::io::Result<Sample> {
    let started = Instant::now();
    let session = GridSession::open(storage, VerifyPolicy::Off, CorruptionResponse::default())?;
    let mut engine = session.engine(engine_config(meta, prefetch))?;
    if let Some(sink) = sink {
        engine.set_trace(sink);
    }
    let result = engine.run(program, &RunOptions::default())?;
    Ok(Sample {
        wall_s: started.elapsed().as_secs_f64(),
        fingerprint: fingerprint(&result.values),
        stats: result.stats,
        decisions: engine.last_decisions().to_vec(),
    })
}

fn analytic<P: VertexProgram<Value = f32>>(
    ctx: &Ctx,
    workload: &str,
    prep: &Path,
    prepared: &Prepared,
    program: &P,
) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::new();
    let (dir, meta) = (prepared.dir.as_path(), &prepared.meta);
    let want = ctx.oracle(prepared.notes.get("want")?);
    let want_iterations: u32 = prepared.notes.get("want_iterations")?;
    let setup_s = prepared.setup_s()?;
    let prefetch = prefetches(workload);

    // One discarded run warms the page cache and the allocator.
    let warm = run_once(open_files(dir)?, meta, program, prefetch, None)?;
    outcome.check(warm.fingerprint == want, || {
        format!(
            "{workload}: warm-up fingerprint {:#x} differs from the reference {want:#x}",
            warm.fingerprint
        )
    });

    let cpu_before = crate::env::cpu_s();
    let mut window = ctx.window();
    let mut samples: Vec<Sample> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    while window.next() {
        let (sample, peak_mb) =
            with_peak_rss(|| run_once(open_files(dir)?, meta, program, prefetch, None));
        let sample = sample?;
        peaks.push(peak_mb);
        outcome.check(sample.fingerprint == want && sample.stats.iterations == want_iterations, || {
            format!(
                "{workload}: run {} committed fingerprint {:#x} after {} iterations, the reference {want:#x} after {want_iterations}",
                samples.len(),
                sample.fingerprint,
                sample.stats.iterations
            )
        });
        // The engine is deterministic: timed runs of one input must agree
        // on the work they account.
        if let Some(first) = samples.first() {
            let same = sample.stats.io == first.stats.io
                && sample.stats.iterations == first.stats.iterations;
            outcome.check(same, || {
                format!(
                    "{workload}: runs disagree on accounted I/O: {:?} vs {:?}",
                    sample.stats.io, first.stats.io
                )
            });
        }
        samples.push(sample);
    }
    let cpu_s = (crate::env::cpu_s() - cpu_before) / samples.len() as f64;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let run_s = median(&walls);
    let io = samples[0].stats.io;

    let m = &mut outcome.metrics;
    m.set_end_to_end(
        setup_s,
        run_s,
        mb(io.read_bytes()),
        hdd_io_s(&io),
        median(&peaks),
    );
    eprintln!(
        "{workload}: {} timed runs, median {run_s:.4} s, quartiles {:.4?}, range {:.4?}, {} iterations, {:.1} MB read, peak RSS {:.1?} MB, set-up {setup_s:.3} s",
        samples.len(),
        quartiles(&walls),
        range(&walls),
        samples[0].stats.iterations,
        mb(io.read_bytes()),
        range(&peaks),
    );
    if !ctx.trace {
        return Ok(outcome);
    }

    // ---- the traced pass: per-layer numbers, never end-to-end ones ----
    m.set("benchmark.units", samples.len() as f64);
    m.set("benchmark.cpu_s", cpu_s);
    m.set("benchmark.untraced_run_s", run_s);
    m.set(
        "gsd-runtime.reference_run_s",
        prepared.notes.get("reference_s")?,
    );
    preparation_metrics(&mut outcome, prepared)?;

    let log = Arc::new(SpanLog::new());
    let timed = Arc::new(TimedStorage::new(open_files(dir)?, log.clone()));
    log.next_run();
    let sample = run_once(
        timed.clone(),
        meta,
        program,
        prefetch,
        Some(Arc::new(CollectSink::new(log.clone()))),
    )?;
    outcome.check(sample.fingerprint == want && sample.stats.io == io, || {
        format!("{workload}: the traced run differs from the untraced ones (fingerprint {:#x}, io {:?})", sample.fingerprint, sample.stats.io)
    });
    // The same run in the other pipeline mode.
    let flipped = run_once(open_files(dir)?, meta, program, !prefetch, None)?;
    outcome.check(flipped.fingerprint == want, || {
        format!(
            "{workload}: the run with prefetch {} differs from the reference",
            if prefetch { "off" } else { "on" }
        )
    });
    let stats = &sample.stats;
    let m = &mut outcome.metrics;
    m.set("benchmark.traced_run_s", sample.wall_s);
    m.set("benchmark.trace_overhead_ratio", sample.wall_s / run_s);
    io_metrics(m, &timed, stats.io.rand_read_ops);
    run_stats_metrics(m, &[stats], sample.wall_s);
    // The workload's own mode is the timed runs' median, the other mode
    // the one flipped run; the pipeline's counters come from whichever
    // of the two prefetched.
    let (prefetch_run_s, sync_run_s) = if prefetch {
        (run_s, flipped.wall_s)
    } else {
        (flipped.wall_s, run_s)
    };
    pipeline_metrics(m, &[if prefetch { stats } else { &flipped.stats }]);
    m.set("gsd-pipeline.prefetch_run_s", prefetch_run_s);
    m.set("gsd-pipeline.sync_run_s", sync_run_s);
    let on_demand = sample
        .decisions
        .iter()
        .filter(|d| d.model == IoAccessModel::OnDemand)
        .count();
    m.set("gsd-core.on_demand_iterations", on_demand as f64);
    m.set(
        "gsd-core.full_iterations",
        (sample.decisions.len() - on_demand) as f64,
    );

    Baselines::load(prep)?.run(dir, program, prefetch, &mut outcome)?;
    crate::layers::replay_grid(dir, meta, &mut outcome.metrics)?;
    log.write_json(
        &ctx.out_dir.join(format!("trace_{workload}.json")),
        &ctx.context_json(workload, Some(samples.len())),
    )?;
    Ok(outcome)
}

/// The baseline systems' own on-disk formats (`<prep>/lumos`,
/// `<prep>/hus`) and the reference values (`<prep>/reference.f32`),
/// built by the preparing process of a traced invocation and not counted
/// in `setup_s`. The GridGraph-like engine streams the GraphSD grid.
struct Baselines {
    lumos: PathBuf,
    hus: PathBuf,
    reference: Vec<f32>,
}

/// Whether `got` is the reference up to the order of float additions.
/// GraphSD must match the reference bit for bit; a baseline that streams
/// edges in another order (Lumos's blocks are unsorted) sums PageRank
/// contributions in another order and may differ in the last bits.
fn close_to(got: &[f32], reference: &[f32]) -> bool {
    got.len() == reference.len()
        && got
            .iter()
            .zip(reference)
            .all(|(a, b)| a == b || (a - b).abs() <= 1e-3 * b.abs().max(1.0))
}

impl Baselines {
    fn build(graph: &Graph, prep: &Path, reference: &[f32]) -> std::io::Result<()> {
        build_lumos_format(
            graph,
            &open_files(&prep.join("lumos"))?,
            "",
            Some(crate::harness::INTERVALS),
        )?;
        build_hus_format(
            graph,
            &open_files(&prep.join("hus"))?,
            "",
            Some(crate::harness::INTERVALS),
        )?;
        let bytes: Vec<u8> = reference.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(prep.join("reference.f32"), bytes)
    }

    fn load(prep: &Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(prep.join("reference.f32"))?;
        let reference = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Ok(Baselines {
            lumos: prep.join("lumos"),
            hus: prep.join("hus"),
            reference,
        })
    }

    /// One run of each baseline, after one discarded warm-up run. Lumos,
    /// the one baseline with a pipeline, prefetches where GraphSD does.
    fn run<P: VertexProgram<Value = f32>>(
        &self,
        grid_dir: &Path,
        program: &P,
        prefetch: bool,
        outcome: &mut Outcome,
    ) -> std::io::Result<()> {
        let options = RunOptions::default();
        let mut report = |name: &str,
                          run_metric: &'static str,
                          read_metric: &'static str,
                          run: &mut dyn FnMut() -> std::io::Result<(Vec<f32>, u64)>|
         -> std::io::Result<()> {
            run()?;
            let (result, wall_s) = secs(run);
            let (values, read_bytes) = result?;
            outcome.check(close_to(&values, &self.reference), || {
                format!("{name}'s values differ from the reference's")
            });
            outcome.metrics.set(run_metric, wall_s);
            outcome.metrics.set(read_metric, mb(read_bytes));
            Ok(())
        };
        report(
            "gridgraph",
            "gsd-baselines.gridgraph_run_s",
            "gsd-baselines.gridgraph_read_mb",
            &mut || {
                let mut engine = GridStreamEngine::new(GridGraph::open(open_files(grid_dir)?)?)?;
                let result = engine.run(program, &options)?;
                Ok((result.values, result.stats.io.read_bytes()))
            },
        )?;
        report(
            "lumos",
            "gsd-baselines.lumos_run_s",
            "gsd-baselines.lumos_read_mb",
            &mut || {
                let mut engine = LumosEngine::new(GridGraph::open(open_files(&self.lumos)?)?)?;
                engine.set_prefetch(prefetch.then(|| PipelineConfig::with_depth(2)));
                engine.set_checkpoint(None);
                let result = engine.run(program, &options)?;
                Ok((result.values, result.stats.io.read_bytes()))
            },
        )?;
        report(
            "hus",
            "gsd-baselines.hus_run_s",
            "gsd-baselines.hus_read_mb",
            &mut || {
                let storage = open_files(&self.hus)?;
                let format = graphsd::baselines::HusFormat {
                    row: GridGraph::open_with_prefix(storage.clone(), "row/")?,
                    col: GridGraph::open_with_prefix(storage, "col/")?,
                };
                let mut engine = HusGraphEngine::new(format)?;
                engine.set_checkpoint(None);
                let result = engine.run(program, &options)?;
                Ok((result.values, result.stats.io.read_bytes()))
            },
        )?;
        Ok(())
    }
}
