//! `gsd` — command-line front end for the GraphSD engine.
//!
//! ```text
//! gsd preprocess <edges.txt> <data-dir> [--intervals N] [--budget-mb M] [--degree-balanced]
//! gsd run <data-dir> <algorithm> [--source V] [--iterations N] [--ablation full|b1|b2|b3|b4|nobuf]
//!         [run flags]
//! gsd ingest <data-dir> <batch.txt> [--recompute <algorithm>] [--source V]
//!            [--trace FILE]
//! gsd compact <data-dir> [--trace FILE]
//! gsd bench [--out FILE] [--systems a,b] [--algos a,b] [--datasets a,b]
//!           [--baseline FILE] [run flags]
//! gsd bench --check FILE
//! gsd experiments [run flags] [ids...]
//! gsd report <trace.jsonl> [--top N]
//! gsd serve <data-dir> [--port N] [--cache-mb M] [run flags]
//! gsd query <host:port> <op> [args...] [--alpha A] [--iterations N] [--source V]
//! gsd scrub <data-dir> [--repair <edges.txt>]
//! gsd info <data-dir>
//! gsd generate <kind> <vertices> <edges> <out.txt> [--seed S] [--weighted] [--symmetrized]
//! ```
//!
//! Algorithms: `pagerank`, `pagerank-delta`, `cc`, `sssp`, `bfs`.
//! Graph kinds: `rmat`, `kronecker`, `erdos-renyi`, `web`, `grid`.
//! Run flags (one parser, `graphsd::bench::RunFlags`, shared by `run`,
//! `serve`, `bench` and `experiments`): `--prefetch-depth N` /
//! `--no-prefetch`, `--checkpoint-every N`, `--verify off|full` (a
//! corrupt object fails the run), `--scale tiny|small|medium` (`bench`
//! and `experiments` datasets), `--trace FILE`, `--verbose`. `bench` and
//! `experiments` prefetch at depth 2 unless told otherwise; `run` and
//! `serve` read synchronously unless given a depth. Nothing is read from the environment, and a flag the
//! verb does not read is a usage error.
//!
//! `run --ablation` and `bench --systems` read one table of system names,
//! `graphsd::bench::SystemKind`: a label (`GraphSD-b1`, `HUS-Graph`, …)
//! or short name (`full`, `b1`–`b4`, `nobuf`, `hus`, `grid`), any case.
//!
//! `bench` is the counters gate: it runs every (system, algorithm,
//! dataset) cell once on real files, writes a schema-versioned
//! `BENCH_<scale>.json` and, with `--baseline`, fails when iterations,
//! bytes moved, read requests or prefetch events differ from the
//! committed report (it reads no clock; `benchmark/` is the clock).
//! `experiments` prints the paper's tables and figures on the simulated
//! disk: ids `table1`, `table3`, `table4`, `fig5`–`fig12`, `ext_storage`,
//! `ext_psweep` (all by default).
//! `report` folds a JSONL trace — of a run, a bench, a daemon
//! or an `ingest`/`compact` — into per-phase breakdowns, I/O histograms,
//! hottest sub-blocks, scheduler decision explanations, per-op query and
//! cache tables and per-epoch mutation tables.
//!
//! `ingest` commits a mutation batch (`+ src dst [w]` / `- src dst`,
//! one op per line) against a preprocessed grid as one delta epoch;
//! `--recompute` then warm-starts the named algorithm from the batch's
//! footprint and prints the incremental value fingerprint. The warm
//! start needs a converged run, so `ingest` takes no `--iterations`.
//! `compact` folds the live delta segments back into the base
//! sub-blocks, one grid row at a time.
//!
//! `serve` opens the grid once and answers queries from many clients
//! until one sends `shutdown`; `query` is the matching client. Query
//! ops: `ping`, `stats`, `degree <v>`, `neighbors <v>`,
//! `khop <source> <k>`, `ppr <seed,seed,...>`,
//! `run <algorithm>`, `mutate <batch.txt>`, `compact`, `shutdown`.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the CLI's own inputs and outputs (edge lists, batches, reports, baselines) are user files, not graph data behind Storage"
)]

use graphsd::algos::{Bfs, ConnectedComponents, PageRank, PageRankDelta, ProgramVisitor, Sssp};
use graphsd::bench::wall::{run_wall, WallOptions};
use graphsd::bench::{
    experiments, out, stdout_write, trace_sink, Algo, BenchReport, Datasets, RunFlags, RunSettings,
    SystemKind, TraceReport,
};
use graphsd::core::{GraphSdConfig, GraphSdEngine, GridSession, PipelineConfig};
use graphsd::delta::MutationBatch;
use graphsd::graph::format::object_class;
use graphsd::graph::{
    parse_edge_list, preprocess_text, repair_grid, scrub_grid, write_edge_list, CorruptionResponse,
    GeneratorConfig, GraphKind, GridGraph, PreprocessConfig,
};
use graphsd::io::{FileStorage, SharedStorage};
use graphsd::runtime::{
    value_fingerprint, Engine, RunOptions, RunResult, RunStats, Value, VertexProgram,
};
use graphsd::serve::{serve_tcp, Request, Response, ServeCore, Server, TcpClient};
use graphsd::trace::TraceSink;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         gsd preprocess <edges.txt> <data-dir> [--intervals N] [--budget-mb M] [--degree-balanced]\n  \
         gsd run <data-dir> <pagerank|pagerank-delta|cc|sssp|bfs> [--source V] [--iterations N] [--ablation full|b1|b2|b3|b4|nobuf] [--top K] [run flags]\n  \
         gsd ingest <data-dir> <batch.txt> [--recompute <pagerank|pagerank-delta|cc|sssp|bfs>] [--source V] [--trace FILE]\n  \
         gsd compact <data-dir> [--trace FILE]\n  \
         gsd bench [--out FILE] [--systems a,b] [--algos a,b] [--datasets a,b] [--baseline FILE] [--scale tiny|small|medium] [run flags]\n  \
         gsd bench --check FILE\n  \
         gsd experiments [--scale tiny|small|medium] [run flags] [ids...]\n  \
         gsd serve <data-dir> [--port N] [--cache-mb M] [run flags]\n  \
         gsd query <host:port> <ping|stats|degree|neighbors|khop|ppr|run|mutate|compact|shutdown> [args...] [--alpha A] [--iterations N] [--source V]\n  \
         gsd report <trace.jsonl> [--top N]\n  \
         gsd scrub <data-dir> [--repair <edges.txt>]\n  \
         gsd info <data-dir>\n  \
         gsd generate <rmat|kronecker|erdos-renyi|web|grid> <vertices> <edges> <out.txt> [--seed S] [--weighted] [--symmetrized]\n\
         run flags: [--prefetch-depth N] [--no-prefetch] [--checkpoint-every N] [--verify off|full] [--trace FILE] [--verbose]"
    );
    ExitCode::from(2)
}

/// Minimal flag parser: positional args, `--flag value` pairs and
/// `--switch`es. A verb names the flags it reads and which of them are
/// switches; any other flag is an error, so a typo or a retired flag fails
/// the command instead of being ignored. A switch never takes the next
/// argument, and the last occurrence of a repeated flag wins.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

impl Args {
    fn parse(
        verb: &str,
        raw: &[String],
        values: &'static [&'static str],
        switches: &'static [&'static str],
    ) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            let value = if switches.contains(&name) {
                None
            } else if values.contains(&name) {
                it.next_if(|v| !v.starts_with("--")).cloned()
            } else {
                return Err(format!("unknown flag --{name} for {verb}"));
            };
            flags.push((name.to_owned(), value));
        }
        Ok(Args {
            positional,
            flags,
            values,
            switches,
        })
    }

    fn flag_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        debug_assert!(
            self.values.contains(&name),
            "--{name} is read but not declared"
        );
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{name} needs a value")),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        debug_assert!(
            self.switches.contains(&name),
            "--{name} is read but not declared a switch"
        );
        self.flags.iter().any(|(n, _)| n == name)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return usage();
    }
    let rest = &raw[1..];
    let result = match raw[0].as_str() {
        "preprocess" => cmd_preprocess(rest),
        "ingest" => cmd_ingest(rest),
        "compact" => cmd_compact(rest),
        "run" => cmd_run(rest),
        "bench" => cmd_bench(rest),
        "experiments" => cmd_experiments(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "report" => cmd_report(rest),
        "scrub" => cmd_scrub(rest),
        "info" => cmd_info(rest),
        "generate" => cmd_generate(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_preprocess(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        "preprocess",
        raw,
        &["intervals", "budget-mb"],
        &["degree-balanced"],
    )?;
    let [input, dir] = args.positional.as_slice() else {
        return Err("preprocess needs <edges.txt> <data-dir>".into());
    };
    let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let storage: SharedStorage =
        Arc::new(FileStorage::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let mut config = PreprocessConfig::graphsd("");
    config.num_intervals = args.flag_value("intervals")?;
    if let Some(mb) = args.flag_value::<u64>("budget-mb")? {
        config.memory_budget_bytes = Some(mb << 20);
    }
    config.degree_balanced = args.has("degree-balanced");
    let (meta, report) = preprocess_text(BufReader::new(file), storage.as_ref(), &config)
        .map_err(|e| e.to_string())?;
    out!(
        "preprocessed {} vertices / {} edges into a {p}x{p} grid at {dir}",
        meta.num_vertices,
        meta.num_edges,
        p = meta.p
    )?;
    out!(
        "  load {:.2}s  partition {:.2}s  sort {:.2}s  write {:.2}s  ({} MiB on disk)",
        report.load.as_secs_f64(),
        report.partition.as_secs_f64(),
        report.sort.as_secs_f64(),
        report.write.as_secs_f64(),
        report.bytes_written >> 20
    )?;
    Ok(())
}

/// The `--trace` sink of `ingest` and `compact`, which take no other run
/// flag.
fn ingest_sink(args: &Args) -> Result<Arc<dyn TraceSink>, String> {
    trace_sink(args.flag_value::<String>("trace")?.as_deref(), false)
}

/// Opens the grid at `dir`, verified as `settings` ask.
fn open_session(dir: &str, settings: &RunSettings) -> Result<GridSession, String> {
    let files = FileStorage::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    GridSession::open(
        Arc::new(files),
        settings.verify,
        CorruptionResponse::FailFast,
    )
    .map_err(|e| format!("{dir}: {e}"))
}

fn cmd_run(raw: &[String]) -> Result<(), String> {
    let flags = RunFlags::parse(raw, None)?;
    let args = Args::parse(
        "run",
        &flags.rest,
        &["ablation", "iterations", "source", "top"],
        &[],
    )?;
    let settings = &flags.settings;
    let [dir, algorithm] = args.positional.as_slice() else {
        return Err("run needs <data-dir> <algorithm>".into());
    };
    let session = open_session(dir, settings)?;
    let ablation = args.flag_value::<String>("ablation")?;
    let ablation = ablation.as_deref().unwrap_or("full");
    let config = SystemKind::parse(ablation)
        .and_then(|kind| kind.graphsd_config())
        .ok_or_else(|| format!("unknown ablation {ablation:?} (full|b1|b2|b3|b4|nobuf)"))?;
    let mut engine = session
        .engine(settings.graphsd_config(config))
        .map_err(|e| e.to_string())?;
    engine.set_trace(settings.sink.clone());

    let options = RunOptions {
        max_iterations: args.flag_value("iterations")?,
        iteration_cap: None,
    };
    let source: u32 = args.flag_value("source")?.unwrap_or(0);
    let top: usize = args.flag_value("top")?.unwrap_or(10);

    match algorithm.as_str() {
        "pagerank" => {
            let result = run(&mut engine, &PageRank::paper(), &options)?;
            print_top(&result, top, |rank: &f32| format!("{rank:.4}"), true)?;
        }
        "pagerank-delta" => {
            let result = run(&mut engine, &PageRankDelta::paper(), &options)?;
            print_top(
                &result,
                top,
                |(rank, _): &(f32, f32)| format!("{rank:.4}"),
                true,
            )?;
        }
        "cc" => {
            let result = run(&mut engine, &ConnectedComponents, &options)?;
            let mut labels = result.values.clone();
            labels.sort_unstable();
            labels.dedup();
            out!("{} components", labels.len())?;
        }
        "sssp" => {
            let result = run(&mut engine, &Sssp::new(source), &options)?;
            let reached = result.values.iter().filter(|d| d.is_finite()).count();
            out!("{reached} vertices reachable from {source}")?;
        }
        "bfs" => {
            let result = run(&mut engine, &Bfs::new(source), &options)?;
            let reached = result.values.iter().filter(|&&d| d != u32::MAX).count();
            out!("{reached} vertices reachable from {source}")?;
        }
        other => return Err(format!("unknown algorithm {other:?}")),
    }
    flags.settings.sink.flush();
    Ok(())
}

fn cmd_ingest(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("ingest", raw, &["recompute", "source", "trace"], &[])?;
    let [dir, batch_path] = args.positional.as_slice() else {
        return Err("ingest needs <data-dir> <batch.txt>".into());
    };
    let text = std::fs::read_to_string(batch_path).map_err(|e| format!("{batch_path}: {e}"))?;
    let batch = MutationBatch::parse(&text).map_err(|e| format!("{batch_path}: {e}"))?;
    let storage: SharedStorage =
        Arc::new(FileStorage::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let sink = ingest_sink(&args)?;
    match args.flag_value::<String>("recompute")?.as_deref() {
        None => {
            let report = graphsd::delta::ingest(storage.as_ref(), "", &batch, sink.as_ref())
                .map_err(|e| e.to_string())?;
            print_ingest(&report)?;
        }
        Some(algo) => {
            let source: u32 = args.flag_value("source")?.unwrap_or(0);
            graphsd::algos::with_program(
                algo,
                source,
                IngestRecompute {
                    storage,
                    batch: &batch,
                    sink: sink.clone(),
                },
            )??;
        }
    }
    sink.flush();
    Ok(())
}

fn print_ingest(report: &graphsd::delta::IngestReport) -> Result<(), String> {
    out!(
        "epoch {}: committed {} insert(s) / {} delete(s) as {} segment(s) ({} KiB); merged graph has {} edges",
        report.epoch,
        report.inserts,
        report.deletes,
        report.segments,
        report.segment_bytes >> 10,
        report.merged_num_edges,
    )
}

/// `ingest --recompute`: converge on the pre-batch grid (the warm state
/// a long-running service holds), commit the batch, then warm-start the
/// program from the batch's footprint on the merged grid.
struct IngestRecompute<'a> {
    storage: SharedStorage,
    batch: &'a MutationBatch,
    sink: Arc<dyn TraceSink>,
}

impl ProgramVisitor for IngestRecompute<'_> {
    type Output = Result<(), String>;

    fn visit<P: VertexProgram>(self, program: &P) -> Result<(), String> {
        let IngestRecompute {
            storage,
            batch,
            sink,
        } = self;
        let grid = GridGraph::open(storage.clone()).map_err(|e| e.to_string())?;
        let mut engine =
            GraphSdEngine::new(grid, GraphSdConfig::full()).map_err(|e| e.to_string())?;
        engine.set_trace(sink.clone());
        let warm = engine
            .run(program, &RunOptions::default())
            .map_err(|e| e.to_string())?;

        let report = graphsd::delta::ingest(storage.as_ref(), "", batch, sink.as_ref())
            .map_err(|e| e.to_string())?;
        print_ingest(&report)?;

        let grid = GridGraph::open(storage).map_err(|e| e.to_string())?;
        let (result, inc) = graphsd::delta::incremental_run(
            grid,
            program,
            warm.values,
            batch,
            GraphSdConfig::full(),
            sink,
        )
        .map_err(|e| e.to_string())?;
        print_stats(&result.stats)?;
        out!(
            "incremental recompute: {} seed(s), {} reset(s) ({} pulled), region pass read {} B in {} request(s){}; value fingerprint {:016x}",
            inc.seeds,
            inc.resets,
            inc.pulled,
            inc.region_io.read_bytes(),
            inc.region_io.seq_read_ops + inc.region_io.rand_read_ops,
            if inc.full_fallback {
                " (program is not incremental-safe; reran from scratch)"
            } else {
                ""
            },
            value_fingerprint(&result.values),
        )
    }
}

fn cmd_compact(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("compact", raw, &["trace"], &[])?;
    let [dir] = args.positional.as_slice() else {
        return Err("compact needs <data-dir>".into());
    };
    let storage: SharedStorage =
        Arc::new(FileStorage::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let sink = ingest_sink(&args)?;
    match graphsd::delta::compact(&storage, "", sink.as_ref()).map_err(|e| e.to_string())? {
        Some(r) => out!(
            "epoch {}: folded {} segment(s) into {} rewritten object(s) ({} KiB); grid fingerprint {:016x}",
            r.epoch,
            r.segments_folded,
            r.objects_rewritten,
            r.bytes_rewritten >> 10,
            r.fingerprint,
        )?,
        None => out!("{dir}: no live delta segments; nothing to compact")?,
    }
    sink.flush();
    Ok(())
}

fn cmd_serve(raw: &[String]) -> Result<(), String> {
    let flags = RunFlags::parse(raw, None)?;
    let args = Args::parse("serve", &flags.rest, &["port", "cache-mb"], &[])?;
    let settings = &flags.settings;
    let [dir] = args.positional.as_slice() else {
        return Err("serve needs <data-dir>".into());
    };
    let session = open_session(dir, settings)?;
    let cache_mb: u64 = args.flag_value("cache-mb")?.unwrap_or(64);
    let mut core = ServeCore::new(session, cache_mb << 20, settings.sink.clone())
        .map_err(|e| e.to_string())?;
    core.set_run_config(settings.graphsd_config(GraphSdConfig::default()));
    let port: u16 = args.flag_value("port")?.unwrap_or(0);
    let server = Server::start(core).map_err(|e| e.to_string())?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    serve_tcp(listener, server.client()).map_err(|e| e.to_string())?;
    out!("gsd-serve listening on {addr} ({dir}, cache {cache_mb} MiB)")?;
    // Blocks until a client sends `shutdown`; the executor hands its core
    // (and the final counters) back for the exit report.
    let core = server.join().map_err(|e| e.to_string())?;
    // The connection thread that relayed the shutdown is still flushing
    // its ShuttingDown frame; give detached connections a moment before
    // process exit tears them down mid-write.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let c = core.counters();
    let lookups = c.cache_hits + c.cache_misses;
    out!(
        "served {} queries: {} block reads ({} MiB), cache {}/{} hits ({:.1}%), {} batch passes covering {} batched traversals",
        c.queries,
        c.blocks_read,
        c.bytes_read >> 20,
        c.cache_hits,
        lookups,
        if lookups > 0 {
            100.0 * c.cache_hits as f64 / lookups as f64
        } else {
            0.0
        },
        c.batch_passes,
        c.batched_queries,
    )?;
    flags.settings.sink.flush();
    Ok(())
}

fn cmd_query(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("query", raw, &["alpha", "iterations", "source"], &[])?;
    let (addr, op, rest) = match args.positional.as_slice() {
        [addr, op, rest @ ..] => (addr, op.as_str(), rest),
        _ => return Err("query needs <host:port> <op> [args...]".into()),
    };
    let want = |n: usize, what: &str| -> Result<u32, String> {
        rest.get(n)
            .ok_or(format!("query {op} needs {what}"))?
            .parse::<u32>()
            .map_err(|_| format!("query {op}: bad {what} {:?}", rest[n]))
    };
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "degree" => Request::Degree {
            v: want(0, "<vertex>")?,
        },
        "neighbors" => Request::Neighbors {
            v: want(0, "<vertex>")?,
        },
        "khop" => Request::KHop {
            source: want(0, "<source>")?,
            k: want(1, "<k>")?,
        },
        "ppr" => {
            let spec = rest.first().ok_or("query ppr needs <seed,seed,...>")?;
            let mut seeds = parse_list(spec, |s| {
                s.parse::<u32>().map_err(|_| format!("bad seed {s:?}"))
            })?;
            seeds.sort_unstable();
            seeds.dedup();
            let alpha: f32 = args.flag_value("alpha")?.unwrap_or(0.85);
            Request::Ppr {
                seeds,
                alpha_bits: alpha.to_bits(),
                iterations: args.flag_value("iterations")?.unwrap_or(10),
            }
        }
        "run" => Request::Run {
            algo: rest.first().ok_or("query run needs <algorithm>")?.clone(),
            source: args.flag_value("source")?.unwrap_or(0),
            iterations: args.flag_value("iterations")?.unwrap_or(0),
        },
        "mutate" => {
            let path = rest.first().ok_or("query mutate needs <batch.txt>")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let batch = MutationBatch::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Request::Mutate { ops: batch.ops }
        }
        "compact" => Request::Compact,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown query op {other:?}")),
    };
    let mut client = TcpClient::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let response = client
        .request(&request)
        .map_err(|e| format!("{addr}: {e}"))?;
    render_response(&response)
}

fn render_response(response: &Response) -> Result<(), String> {
    match response {
            Response::Pong => out!("pong")?,
            Response::Stats(s) => {
                out!("graph      {} vertices / {} edges ({p}x{p} grid)",
                    s.vertices,
                    s.edges,
                    p = s.p
                )?;
                out!("queries    {}", s.queries)?;
                out!("cache      {} hits / {} misses, {} blocks resident ({} KiB)",
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_entries,
                    s.cache_bytes >> 10
                )?;
                out!("disk       {} block reads, {} KiB",
                    s.blocks_read,
                    s.bytes_read >> 10
                )?;
                out!("batching   {} passes over {} batched traversals",
                    s.batch_passes, s.batched_queries
                )?;
            }
            Response::Degree { degree } => out!("{degree}")?,
            Response::Neighbors { neighbors } => {
                let rendered: Vec<String> = neighbors.iter().map(u32::to_string).collect();
                out!("{} neighbor(s): {}",
                    neighbors.len(),
                    rendered.join(" ")
                )?;
            }
            Response::Depths { depths } => {
                out!("{} vertices reached:", depths.len())?;
                for (v, d) in depths {
                    out!("  {v:>10}  depth {d}")?;
                }
            }
            Response::Scores { scores } => {
                out!("{} vertices scored:", scores.len())?;
                for (v, bits) in scores {
                    out!("  {v:>10}  {:.6}", f32::from_bits(*bits))?;
                }
            }
            Response::RunSummary {
                algorithm,
                iterations,
                fingerprint,
                bytes_read,
            } => out!("{algorithm}: {iterations} iterations, {} MiB read, fingerprint {fingerprint:016x}",
                bytes_read >> 20
            )?,
            Response::Mutated {
                epoch,
                merged_edges,
                segments,
            } => out!("epoch {epoch} committed ({segments} segment(s)); merged graph has {merged_edges} edges"
            )?,
            Response::Compacted {
                epoch,
                segments_folded,
                objects_rewritten,
                fingerprint,
            } => {
                if *segments_folded == 0 {
                    out!("no live delta segments (epoch {epoch}); nothing to compact")?;
                } else {
                    out!("epoch {epoch}: folded {segments_folded} segment(s) into {objects_rewritten} rewritten object(s), fingerprint {fingerprint:016x}"
                    )?;
                }
            }
            Response::ShuttingDown => out!("server is shutting down")?,
            Response::Error { message } => return Err(message.clone()),
        }
    Ok(())
}

fn run<P: VertexProgram>(
    engine: &mut GraphSdEngine,
    program: &P,
    options: &RunOptions,
) -> Result<RunResult<P::Value>, String> {
    let result = engine.run(program, options).map_err(|e| e.to_string())?;
    print_stats(&result.stats)?;
    Ok(result)
}

fn print_stats(stats: &RunStats) -> Result<(), String> {
    out!(
        "{}: {} iterations, {} MiB read, {} MiB written, io {:.3}s, update {:.3}s, scheduler {:.4}s",
        stats.algorithm,
        stats.iterations,
        stats.io.read_bytes() >> 20,
        stats.io.write_bytes >> 20,
        stats.io_time.as_secs_f64(),
        stats.compute_time.as_secs_f64(),
        stats.scheduler_time.as_secs_f64(),
    )?;
    if stats.cross_iter_edges > 0 {
        out!(
            "  cross-iteration served {} edge updates; buffer hits {} ({} KiB)",
            stats.cross_iter_edges,
            stats.buffer_hits,
            stats.buffer_hit_bytes >> 10
        )?;
    }
    if stats.verify_bytes > 0 || stats.corrupt_blocks > 0 {
        out!(
            "  verified {} KiB; {} corrupt object(s) detected",
            stats.verify_bytes >> 10,
            stats.corrupt_blocks
        )?;
    }
    Ok(())
}

fn print_top<V: Value>(
    result: &RunResult<V>,
    top: usize,
    render: impl Fn(&V) -> String,
    descending_by_bits: bool,
) -> Result<(), String> {
    // Values are f32-backed for the rank programs; bit order matches value
    // order for non-negative floats.
    let mut ranked: Vec<(u32, &V)> = result
        .values
        .iter()
        .enumerate()
        .map(|(v, x)| (v as u32, x))
        .collect();
    if descending_by_bits {
        ranked.sort_by_key(|(_, x)| std::cmp::Reverse(x.to_bits()));
    }
    out!("top {top} vertices:")?;
    for (v, x) in ranked.into_iter().take(top) {
        out!("  {v:>10}  {}", render(x))?;
    }
    Ok(())
}

fn parse_list<T>(spec: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = spec
        .split(',')
        .filter(|s| !s.is_empty())
        .map(parse)
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("empty list {spec:?}"));
    }
    Ok(items)
}

fn cmd_bench(raw: &[String]) -> Result<(), String> {
    let flags = RunFlags::parse(raw, Some(PipelineConfig::default()))?;
    let args = Args::parse(
        "bench",
        &flags.rest,
        &["check", "systems", "algos", "datasets", "out", "baseline"],
        &[],
    )?;
    if let Some(path) = args.flag_value::<String>("check")? {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let report = BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        out!(
            "{path}: valid BENCH schema v{} — {} entries at scale {}",
            report.schema_version,
            report.entries.len(),
            report.scale
        )?;
        return Ok(());
    }
    let mut opts = WallOptions {
        scale: flags.scale,
        ..WallOptions::default()
    };
    if let Some(spec) = args.flag_value::<String>("systems")? {
        let labels: Vec<&str> = SystemKind::ALL.iter().map(SystemKind::label).collect();
        let unknown = |s: &str| format!("unknown system {s:?} ({})", labels.join("|"));
        opts.systems = parse_list(&spec, |s| SystemKind::parse(s).ok_or_else(|| unknown(s)))?;
    }
    if let Some(spec) = args.flag_value::<String>("algos")? {
        let unknown = |s: &str| format!("unknown algorithm {s:?} (pr|prd|cc|sssp)");
        opts.algos = parse_list(&spec, |s| Algo::parse(s).ok_or_else(|| unknown(s)))?;
    }
    if let Some(spec) = args.flag_value::<String>("datasets")? {
        opts.datasets = spec
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
    }

    let report = run_wall(&opts, &flags.settings).map_err(|e| e.to_string())?;
    flags.settings.sink.flush();
    for e in &report.entries {
        out!(
            "{:>12} {:>5} {:>12}  {:>3} iterations  read {:>11} B in {:>6} requests  {} prefetched",
            e.system,
            e.algorithm,
            e.dataset,
            e.iterations,
            e.bytes_read,
            e.read_ops,
            e.prefetch_events
        )?;
    }
    let out = args
        .flag_value::<String>("out")?
        .unwrap_or_else(|| format!("BENCH_{}.json", report.scale));
    std::fs::write(&out, report.to_json()).map_err(|e| format!("{out}: {e}"))?;
    out!("wrote {out} ({} entries)", report.entries.len())?;

    if let Some(path) = args.flag_value::<String>("baseline")? {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let base = BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let n = report.compare_deterministic(&base).map_err(|drifts| {
            format!(
                "deterministic counters drifted vs {path}:\n{drifts}\n\
                 if the change means to move them, regenerate the file with\n  \
                 gsd bench --scale {} --out {path}",
                base.scale
            )
        })?;
        out!("baseline {path}: {n} cell(s) match on deterministic counters")?;
    }
    Ok(())
}

/// Runs the requested experiments (all by default). An unknown id fails
/// before anything runs; a failed one does not stop the rest.
fn cmd_experiments(raw: &[String]) -> Result<(), String> {
    let flags = RunFlags::parse(raw, Some(PipelineConfig::default()))?;
    let args = Args::parse("experiments", &flags.rest, &[], &[])?;
    let mut ids: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    if ids.is_empty() {
        ids = experiments::ids().collect();
    }
    let runners: std::io::Result<Vec<_>> = ids.iter().map(|id| experiments::runner(id)).collect();
    let runners = runners.map_err(|e| e.to_string())?;
    eprintln!("# GraphSD paper experiments — scale {}", flags.scale.name());
    let ds = Datasets::load(flags.scale);
    let mut failed = Vec::new();
    for (id, run) in ids.into_iter().zip(runners) {
        let started = graphsd::trace::Stopwatch::start();
        match run(&ds, &flags.settings) {
            Ok(output) => {
                out!("{output}")?;
                eprintln!("# [{id}] done in {:.1}s\n", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("# [{id}] FAILED: {e}\n");
                failed.push(id);
            }
        }
    }
    flags.settings.sink.flush();
    match failed.as_slice() {
        [] => Ok(()),
        _ => Err(format!("experiment(s) failed: {}", failed.join(" "))),
    }
}

fn cmd_report(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("report", raw, &["top"], &[])?;
    let [path] = args.positional.as_slice() else {
        return Err("report needs <trace.jsonl>".into());
    };
    let top: usize = args.flag_value("top")?.unwrap_or(10);
    let report = TraceReport::from_path(path).map_err(|e| format!("{path}: {e}"))?;
    stdout_write(format_args!("{}", report.render_text(top)))
}

fn cmd_scrub(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("scrub", raw, &["repair"], &[])?;
    let [dir] = args.positional.as_slice() else {
        return Err("scrub needs <data-dir>".into());
    };
    let repair = args.flag_value::<String>("repair")?;
    let storage: SharedStorage =
        Arc::new(FileStorage::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let (_, report) = scrub_grid(storage.as_ref(), "").map_err(|e| e.to_string())?;
    let (ok, corrupt) = report.counts();
    for object in &report.objects {
        if let Some(kind) = &object.status {
            out!(
                "  {:<10} {} ({} bytes)",
                kind.label(),
                object.key,
                object.len
            )?;
        }
    }
    let classes: Vec<String> = inventory(report.objects.iter().map(|o| (o.key.as_str(), o.len)))
        .iter()
        .map(|(class, (objects, _))| format!("{class} {objects}"))
        .collect();
    out!(
        "scrub of {dir}: {ok} object(s) clean, {corrupt} corrupt, {} MiB checked ({})",
        report.bytes_checked() >> 20,
        classes.join(" · ")
    )?;
    if report.is_clean() {
        return Ok(());
    }
    let Some(source) = repair else {
        return Err(format!(
            "{corrupt} corrupt object(s); re-run with --repair <edges.txt> to rebuild them"
        ));
    };
    let file = std::fs::File::open(&source).map_err(|e| format!("{source}: {e}"))?;
    let graph = parse_edge_list(BufReader::new(file)).map_err(|e| format!("{source}: {e}"))?;
    let outcome = repair_grid(storage.as_ref(), "", &graph).map_err(|e| e.to_string())?;
    out!(
        "repaired {} object(s) from {source}; grid is clean again",
        outcome.rewritten.len()
    )?;
    Ok(())
}

/// Object count and bytes per object class.
fn inventory<'a>(
    objects: impl Iterator<Item = (&'a str, u64)>,
) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
    let mut classes = std::collections::BTreeMap::new();
    for (key, len) in objects {
        let (count, bytes) = classes.entry(object_class(key)).or_insert((0, 0));
        *count += 1;
        *bytes += len;
    }
    classes
}

fn cmd_info(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("info", raw, &[], &[])?;
    let [dir] = args.positional.as_slice() else {
        return Err("info needs <data-dir>".into());
    };
    let storage: SharedStorage =
        Arc::new(FileStorage::open(dir).map_err(|e| format!("{dir}: {e}"))?);
    let grid = GridGraph::open(storage).map_err(|e| format!("{dir}: {e}"))?;
    let meta = grid.meta();
    out!("grid graph at {dir}:")?;
    out!("  vertices   {}", meta.num_vertices)?;
    out!("  edges      {}", meta.num_edges)?;
    out!(
        "  intervals  {p}x{p} = {} sub-blocks",
        meta.p * meta.p,
        p = meta.p
    )?;
    out!("  weighted   {}", meta.weighted)?;
    out!("  order      {:?}", meta.order)?;
    let nonempty = meta.block_edge_counts.iter().filter(|&&c| c > 0).count();
    let largest = meta.block_edge_counts.iter().max().copied().unwrap_or(0);
    out!("  non-empty  {nonempty} blocks, largest {largest} edges")?;
    out!(
        "  integrity  format v{}, {} checksums over {} objects ({} MiB covered)",
        meta.version,
        meta.integrity.algo,
        meta.integrity.len(),
        meta.integrity.total_bytes() >> 20
    )?;
    let covered = meta.integrity.objects.iter();
    for (class, (objects, bytes)) in inventory(covered.map(|o| (o.key.as_str(), o.len))) {
        let mib = bytes as f64 / (1 << 20) as f64;
        out!("    {class:<10} {objects} objects {mib:.2} MiB")?;
    }
    out!(
        "    bytes/edge {:.1}",
        meta.integrity.total_bytes() as f64 / meta.num_edges.max(1) as f64
    )?;
    out!(
        "    record     id_bytes {}, {} B per edge (interval-relative ids{})",
        meta.id_bytes,
        meta.codec().edge_bytes(),
        if meta.weighted { ", f32 weight" } else { "" }
    )?;
    if let Some(delta) = &meta.delta {
        match grid.overlay() {
            Some(overlay) => out!(
                "  delta      epoch {}, {} sub-block(s) overlaid ({} KiB resident; `gsd compact` folds them)",
                delta.epoch,
                overlay.block_count(),
                overlay.resident_bytes() >> 10
            )?,
            None => out!("  delta      epoch {}, no live segments", delta.epoch)?,
        }
    }
    Ok(())
}

fn cmd_generate(raw: &[String]) -> Result<(), String> {
    let args = Args::parse("generate", raw, &["seed"], &["weighted", "symmetrized"])?;
    let [kind, vertices, edges, out] = args.positional.as_slice() else {
        return Err("generate needs <kind> <vertices> <edges> <out.txt>".into());
    };
    let kind = match kind.as_str() {
        "rmat" => GraphKind::RMat,
        "kronecker" => GraphKind::Kronecker,
        "erdos-renyi" => GraphKind::ErdosRenyi,
        "web" => GraphKind::WebLocality,
        "grid" => GraphKind::Grid2d,
        other => return Err(format!("unknown graph kind {other:?}")),
    };
    let vertices: u32 = vertices.parse().map_err(|_| "bad vertex count")?;
    let edges: u64 = edges.parse().map_err(|_| "bad edge count")?;
    let seed: u64 = args.flag_value("seed")?.unwrap_or(42);
    let mut config = GeneratorConfig::new(kind, vertices, edges, seed);
    if args.has("weighted") {
        config = config.weighted();
    }
    let mut graph = config.generate();
    if args.has("symmetrized") {
        // Label-propagation CC computes undirected components; symmetrize
        // at generation time for that workload.
        graph = graph.symmetrized();
    }
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    write_edge_list(&graph, file).map_err(|e| e.to_string())?;
    out!(
        "wrote {} vertices / {} edges to {out}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    Ok(())
}
