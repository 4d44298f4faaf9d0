//! Pieces every workload shares: the invocation context, set-up of a
//! grid on real files, explicit engine configs, fingerprints, timing.

use crate::inputs::Sizes;
use crate::quiet::Quiet;
use crate::report::Outcome;
use crate::stats::median;
use graphsd::core::{GraphSdConfig, PipelineConfig};
use graphsd::graph::{preprocess, Graph, GridGraph, GridMeta, PreprocessConfig, PreprocessReport};
use graphsd::io::{DiskModel, FileStorage, MemStorage, SharedStorage, TempDir};
use graphsd::runtime::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's §5.1 set-up: P = 20 intervals.
pub const INTERVALS: u32 = 20;

pub struct Ctx {
    pub seed: u64,
    /// How long the timed part of the invocation measures.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Flip a bit of every oracle, to show that the gates trip.
    pub sabotage: bool,
    pub sizes: Sizes,
    /// `benchmark/out`: temp grids and the trace files.
    pub out_dir: PathBuf,
    /// Checkout root, for the commit stamp.
    pub root: PathBuf,
}

impl Ctx {
    /// The oracle's answer, or a wrong one under `--sabotage`.
    pub fn oracle(&self, fingerprint: u64) -> u64 {
        fingerprint ^ u64::from(self.sabotage)
    }

    /// The timed window of this invocation: all of `--seconds`, or a
    /// third of it when the traced pass follows. `--quick` never waits
    /// for a quiet host.
    pub fn window(&self) -> Window {
        let seconds = if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        };
        Window {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_units: self.sizes.min_units,
            units: 0,
            quiet: (!self.quick).then(|| Quiet::new(&self.out_dir)),
        }
    }

    pub fn temp_dir(&self, prefix: &str) -> std::io::Result<TempDir> {
        TempDir::new_in(&self.out_dir, prefix)
    }

    /// `{"workload": …, "commit": …, …}`: what a result must carry to be
    /// compared across commits and machines.
    /// `units` is the number of timed units, once known.
    pub fn context_json(&self, workload: &str, units: Option<usize>) -> String {
        let units = units.map_or(String::new(), |n| format!("\"units\":{n},"));
        format!(
            "{{\"workload\":\"{workload}\",\"commit\":\"{}\",\"host\":\"{}\",\"nproc\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\"setups\":{},{units}\"intervals\":{INTERVALS},\"budget\":\"5% of edge bytes\",\"prefetch_depth\":{}}}",
            crate::env::commit(&self.root),
            crate::env::host(),
            crate::env::nproc(),
            self.seed,
            self.seconds,
            self.trace,
            self.quick,
            self.sizes.setups,
            if prefetches(workload) { 2 } else { 0 },
        )
    }
}

pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

pub fn open_files(dir: &Path) -> std::io::Result<SharedStorage> {
    Ok(Arc::new(FileStorage::open(dir)?))
}

/// The memory budget the engines run under: 5 % of the edge bytes.
pub fn budget(meta: &GridMeta) -> u64 {
    (meta.total_edge_bytes() / 20).max(1)
}

/// Every switch of the engine, spelled out: the full system, the 5 %
/// budget, HDD pricing for the scheduler, double-buffered prefetch or
/// none, and no checkpointing unless the caller adds it. Nothing is left
/// to `GSD_*` defaults.
pub fn engine_config(meta: &GridMeta, prefetch: bool) -> GraphSdConfig {
    let config = GraphSdConfig::full()
        .with_memory_budget(budget(meta))
        .with_disk_model(DiskModel::hdd())
        .without_checkpoint();
    if prefetch {
        config.with_prefetch(PipelineConfig::with_depth(2))
    } else {
        config.without_prefetch()
    }
}

/// Whether the workload's plain engine runs prefetch (depth 2). They do
/// on `pr_stream` and in `mutate_cycle`'s incremental runs: the
/// pipeline's thread streams whole blocks ahead of the engine and the two
/// rarely wait for each other. `sssp_frontier` does not: its ≈ 25 000
/// small on-demand reads per run would each be a hand-off between two
/// threads, and on a shared two-core host the time of such a run is the
/// hypervisor's wake-up latency, not the program's work (1.6 × the
/// synchronous run here, and tens of percent apart from run to run). The
/// prefetched run is a per-layer number there
/// (`gsd-pipeline.prefetch_run_s`).
pub fn prefetches(workload: &str) -> bool {
    workload != "sssp_frontier"
}

pub fn preprocess_config() -> PreprocessConfig {
    PreprocessConfig {
        degree_balanced: true,
        ..PreprocessConfig::graphsd("")
    }
    .with_intervals(INTERVALS)
}

/// What the preparing process hands the measuring one: `key value`
/// lines in `<prep>/notes.txt`.
#[derive(Default)]
pub struct Notes(BTreeMap<String, String>);

impl Notes {
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str) -> std::io::Result<T> {
        self.0.get(key).and_then(|v| v.parse().ok()).ok_or_else(|| {
            std::io::Error::other(format!("the preparation notes lack a usable {key:?}"))
        })
    }

    pub fn write(&self, prep: &Path) -> std::io::Result<()> {
        let text: String = self.0.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        std::fs::write(prep.join("notes.txt"), text)
    }

    pub fn read(prep: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(prep.join("notes.txt"))?;
        Ok(Notes(
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        ))
    }
}

/// Where the prepared grid lives under the preparation directory.
pub fn grid_dir(prep: &Path) -> PathBuf {
    prep.join("grid")
}

/// Sets the workload up: preprocess `graph`, then `open` whatever the
/// workload keeps open (session, engine, daemon).
///
/// `setup_s` is the median of `ctx.sizes.setups` set-ups into a fresh
/// `MemStorage`: the program's own set-up work — partition, sort, encode,
/// index, checksums, open — which is what a later change can move into
/// set-up. On real files three quarters of a set-up were the `fsync` in
/// every `FileStorage::create`, whose cost is the host's and drifts with
/// its other tenants. One more set-up, on real files, leaves the grid the
/// workload runs on as `<prep>/grid`; its time is the per-layer
/// `gsd-io.files_setup_s` and its `PreprocessReport` the
/// `gsd-graph.preprocess_*_s`. Runs in the preparing process; the notes
/// carry what the measuring process reports about it.
pub fn set_up(
    ctx: &Ctx,
    graph: &Graph,
    prep: &Path,
    mut open: impl FnMut(SharedStorage, &GridMeta) -> std::io::Result<()>,
) -> std::io::Result<(Notes, GridMeta)> {
    let mut one = |storage: SharedStorage| -> std::io::Result<(GridMeta, PreprocessReport, f64)> {
        let started = Instant::now();
        let (meta, report) = preprocess(graph, storage.as_ref(), &preprocess_config())?;
        open(storage, &meta)?;
        Ok((meta, report, started.elapsed().as_secs_f64()))
    };
    let mut times = Vec::new();
    for _ in 0..ctx.sizes.setups.max(1) {
        times.push(one(Arc::new(MemStorage::new()))?.2);
    }
    let (meta, report, files_setup_s) = one(open_files(&grid_dir(prep))?)?;
    let mut notes = Notes::default();
    notes.set("setup_s", median(&times));
    notes.set("files_setup_s", files_setup_s);
    notes.set("preprocess_load_s", report.load.as_secs_f64());
    notes.set("preprocess_partition_s", report.partition.as_secs_f64());
    notes.set("preprocess_sort_s", report.sort.as_secs_f64());
    notes.set("preprocess_write_s", report.write.as_secs_f64());
    notes.set("grid_bytes", report.bytes_written);
    notes.set("graph_edges", graph.num_edges());
    Ok((notes, meta))
}

/// The prepared grid as the measuring process sees it.
pub struct Prepared {
    pub dir: PathBuf,
    pub meta: GridMeta,
    pub notes: Notes,
}

impl Prepared {
    pub fn load(prep: &Path) -> std::io::Result<Self> {
        let dir = grid_dir(prep);
        let meta = GridGraph::open(open_files(&dir)?)?.meta().clone();
        Ok(Prepared {
            dir,
            meta,
            notes: Notes::read(prep)?,
        })
    }

    pub fn setup_s(&self) -> std::io::Result<f64> {
        self.notes.get("setup_s")
    }
}

/// FNV-1a over the value bits: equal fingerprints mean bit-equal values.
pub fn fingerprint<V: Value>(values: &[V]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    graphsd::integrity::fnv64(&bytes)
}

/// Units are timed until the window's seconds have passed, and at least
/// `min_units` of them. Time spent waiting for a quiet host (see
/// `quiet.rs`) is not the window's: the deadline moves by it.
pub struct Window {
    deadline: Instant,
    min_units: usize,
    pub units: usize,
    quiet: Option<Quiet>,
}

impl Window {
    /// Whether another unit should be timed; counts it if so.
    pub fn next(&mut self) -> bool {
        let more = self.units < self.min_units || Instant::now() < self.deadline;
        if more {
            self.units += 1;
            if let Some(quiet) = &mut self.quiet {
                self.deadline += quiet.wait();
            }
        }
        more
    }
}

/// Generation, preprocess phases and the grid's size, the same for
/// every workload.
pub fn preparation_metrics(outcome: &mut Outcome, prepared: &Prepared) -> std::io::Result<()> {
    let notes = &prepared.notes;
    let m = &mut outcome.metrics;
    m.set("benchmark.generate_s", notes.get("generate_s")?);
    m.set("gsd-io.files_setup_s", notes.get("files_setup_s")?);
    m.set(
        "gsd-graph.preprocess_load_s",
        notes.get("preprocess_load_s")?,
    );
    m.set(
        "gsd-graph.preprocess_partition_s",
        notes.get("preprocess_partition_s")?,
    );
    m.set(
        "gsd-graph.preprocess_sort_s",
        notes.get("preprocess_sort_s")?,
    );
    m.set(
        "gsd-graph.preprocess_write_s",
        notes.get("preprocess_write_s")?,
    );
    let (grid_bytes, graph_edges): (f64, f64) =
        (notes.get("grid_bytes")?, notes.get("graph_edges")?);
    m.set("gsd-graph.grid_mb", grid_bytes / 1e6);
    m.set(
        "gsd-graph.bytes_per_edge",
        grid_bytes / graph_edges.max(1.0),
    );
    m.set("benchmark.budget_mb", budget(&prepared.meta) as f64 / 1e6);
    Ok(())
}

/// What the benchmark's storage wrapper saw, plus the seeks the inner
/// store classified.
pub fn io_metrics(
    m: &mut crate::report::Metrics,
    timed: &crate::timed_storage::TimedStorage,
    rand_read_ops: u64,
) {
    let (reads, writes, syncs) = (timed.reads(), timed.writes(), timed.syncs());
    m.set("gsd-io.read_ops", reads.ops as f64);
    m.set("gsd-io.read_mb", reads.bytes as f64 / 1e6);
    m.set("gsd-io.rand_read_ops", rand_read_ops as f64);
    m.set("gsd-io.read_busy_s", reads.busy_s);
    m.set("gsd-io.read_busy_main_s", reads.busy_main_s);
    m.set("gsd-io.write_mb", writes.bytes as f64 / 1e6);
    m.set("gsd-io.write_busy_s", writes.busy_s);
    m.set("gsd-io.sync_ops", syncs.ops as f64);
    m.set("gsd-io.sync_busy_s", syncs.busy_s);
}

/// The program's own account of the engine runs in `runs`, summed:
/// `gsd-runtime` and `gsd-core` counters. `wall_s` is the
/// wall time of those runs, against which the phase timers are set.
pub fn run_stats_metrics(
    m: &mut crate::report::Metrics,
    runs: &[&graphsd::runtime::RunStats],
    wall_s: f64,
) {
    let sum =
        |f: &dyn Fn(&graphsd::runtime::RunStats) -> f64| -> f64 { runs.iter().map(|r| f(r)).sum() };
    let compute_s = sum(&|r| r.compute_time.as_secs_f64());
    let io_wait_s = sum(&|r| {
        r.per_iteration
            .iter()
            .map(|it| it.io_wait_time.as_secs_f64())
            .sum()
    });
    let stall_s = sum(&|r| r.prefetch_stall_time.as_secs_f64());
    let scheduler_s = sum(&|r| r.scheduler_time.as_secs_f64());
    m.set("gsd-runtime.iterations", sum(&|r| f64::from(r.iterations)));
    m.set("gsd-runtime.compute_s", compute_s);
    m.set("gsd-runtime.io_wait_s", io_wait_s);
    m.set("gsd-runtime.scheduler_s", scheduler_s);
    // The program's phase timers against the wall they should partition
    // (ROADMAP item 1a drives this to 1).
    m.set(
        "gsd-runtime.phase_sum_over_wall",
        (compute_s + io_wait_s + stall_s + scheduler_s) / wall_s,
    );
    m.set(
        "gsd-core.cross_iter_medges",
        sum(&|r| r.cross_iter_edges as f64) / 1e6,
    );
    m.set("gsd-core.buffer_hits", sum(&|r| r.buffer_hits as f64));
    m.set(
        "gsd-core.buffer_hit_mb",
        sum(&|r| r.buffer_hit_bytes as f64) / 1e6,
    );
}

/// `gsd-pipeline`'s own account of the prefetched runs in `runs`, summed.
pub fn pipeline_metrics(m: &mut crate::report::Metrics, runs: &[&graphsd::runtime::RunStats]) {
    let hits: f64 = runs.iter().map(|r| r.prefetch_hits as f64).sum();
    let misses: f64 = runs.iter().map(|r| r.prefetch_misses as f64).sum();
    let stall_s: f64 = runs
        .iter()
        .map(|r| r.prefetch_stall_time.as_secs_f64())
        .sum();
    m.set("gsd-pipeline.prefetch_hits", hits);
    m.set("gsd-pipeline.prefetch_misses", misses);
    m.set(
        "gsd-pipeline.hit_share",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.set("gsd-pipeline.stall_s", stall_s);
}
