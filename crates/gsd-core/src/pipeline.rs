//! The scheduler-driven prefetch executor.
//!
//! GraphSD's scheduler fixes each iteration's reads — sub-blocks (FCIU)
//! or coalesced edge runs (SCIU) — before the iteration starts, so they
//! can run ahead of compute on background threads. This module, next to
//! its one caller [`crate::driver`], does so without changing what is
//! read, in what per-key order, or in what order results are consumed.
//!
//! [`PrefetchExecutor::begin_schedule`] takes one iteration's schedule —
//! the exact request sequence the synchronous path would issue — and
//! routes each request to one of `READERS` reader threads by a hash of
//! its block coordinates. Each reader reads its share front to back into
//! its own `sync_channel(depth)`, and [`PrefetchExecutor::take`] receives
//! from the channel of the reader that owns the next request. Memory is
//! bounded by `READERS × (depth + 1)` decoded requests: `depth` in each
//! channel plus one held by a reader blocked on a full channel.
//!
//! ## Determinism
//!
//! Values are bit-identical with the pipeline on or off, and
//! [`gsd_io::SimDisk`]'s virtual-clock accounting does not move:
//!
//! 1. **Consumption order** is schedule order, so scatter sees edges in
//!    the synchronous order and float accumulation is unchanged.
//! 2. **Per-key request order** is schedule order: every request for one
//!    storage key goes to one reader, whose share is a FIFO. Backends
//!    classify sequential vs random *per key*, so interleaving across
//!    keys cannot perturb `IoStats` or priced request costs.
//!
//! ## Backpressure and concurrency
//!
//! `take()` either finds the request waiting ([`TakeOutcome::Hit`],
//! traced `prefetch_hit`) or blocks until its reader delivers it
//! ([`TakeOutcome::Stalled`], `prefetch_stall`). A reader idles only on
//! a full channel, whose front is then the consumer's next request from
//! it, so the consumer never reads a scheduled request itself. The
//! designated concurrency module (threads and channels are banned
//! elsewhere — `clippy.toml`, DESIGN.md §11) holds no lock; readers hand
//! the compute thread decoded blocks, never vertex state.

#![expect(
    clippy::disallowed_methods,
    reason = "the designated concurrency module: the prefetch reader threads and their channels live here and nowhere else"
)]

use gsd_graph::{Edge, GridGraph};
use gsd_trace::{Stopwatch, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Background reader threads (requests for one storage key share one).
const READERS: usize = 2;

/// Prefetch pipeline sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Decoded requests each reader's channel may hold ahead of the
    /// consumer (at least 1; the default of 2 is double buffering).
    pub depth: usize,
}

impl PipelineConfig {
    /// Default lookahead per reader (double buffering).
    pub const DEFAULT_DEPTH: usize = 2;

    /// A config with the given depth.
    pub fn with_depth(depth: usize) -> Self {
        PipelineConfig {
            depth: depth.max(1),
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::with_depth(Self::DEFAULT_DEPTH)
    }
}

/// One scheduled read: either a whole sub-block or a coalesced edge run
/// inside one (the two primitives of the FCIU and SCIU paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchRequest {
    /// Stream the whole sub-block `(i, j)`.
    Block {
        /// Source interval (grid row).
        i: u32,
        /// Destination interval (grid column).
        j: u32,
    },
    /// Read the contiguous edge run `edge_start..edge_start + edge_count`
    /// of sub-block `(i, j)`.
    Run {
        /// Source interval (grid row).
        i: u32,
        /// Destination interval (grid column).
        j: u32,
        /// First edge index of the run.
        edge_start: u32,
        /// Number of edges in the run.
        edge_count: u32,
    },
}

impl PrefetchRequest {
    /// The block coordinates the request touches.
    pub fn coords(&self) -> (u32, u32) {
        match *self {
            PrefetchRequest::Block { i, j } | PrefetchRequest::Run { i, j, .. } => (i, j),
        }
    }

    fn bytes(&self, grid: &GridGraph) -> u64 {
        match *self {
            PrefetchRequest::Block { i, j } => grid.meta().block_bytes(i, j),
            PrefetchRequest::Run { edge_count, .. } => {
                edge_count as u64 * grid.codec().edge_bytes() as u64
            }
        }
    }

    /// Deterministic reader routing: every request for one block (hence
    /// one storage key) must go to the same reader so per-key request
    /// order is the schedule order. FNV-1a over the coordinates — stable
    /// across runs and platforms, unlike `HashMap`'s seeded hasher.
    fn route(&self, readers: usize) -> usize {
        let (i, j) = self.coords();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in i.to_le_bytes().into_iter().chain(j.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // The remainder is below `readers`, so the conversion cannot fail.
        usize::try_from(h % readers as u64).unwrap_or(0)
    }
}

/// How [`PrefetchExecutor::take`] obtained the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeOutcome {
    /// The request was decoded and waiting: latency fully hidden.
    Hit,
    /// The consumer blocked this long for its reader to deliver it.
    Stalled(Duration),
}

/// One consumed scheduled read.
#[derive(Debug)]
pub struct Prefetched {
    /// Source interval of the request.
    pub i: u32,
    /// Destination interval of the request.
    pub j: u32,
    /// The decoded edges, in on-disk order.
    pub edges: Vec<Edge>,
    /// Bytes the request read from storage.
    pub bytes: u64,
    /// How the data was obtained.
    pub outcome: TakeOutcome,
}

/// Smallest decoded buffer a reader hands to the consumer, in edges.
///
/// glibc parks a freed chunk of up to 1 032 bytes in the *freeing*
/// thread's cache, so a tiny buffer freed by the consumer would seed its
/// next `Vec`s in the reader's arena, on top of a main heap that stays as
/// large (+8 to +18 MB peak RSS on `mutate_cycle` — EXPERIMENTS.md, "One
/// driver"). 128 edges are 1 536 bytes: such a buffer goes home.
const MIN_HANDOFF_EDGES: usize = 128;

fn read_request(
    grid: &GridGraph,
    request: &PrefetchRequest,
    scratch: &mut Vec<u8>,
) -> std::io::Result<Vec<Edge>> {
    let mut edges = Vec::with_capacity(MIN_HANDOFF_EDGES);
    match *request {
        PrefetchRequest::Block { i, j } => grid.read_block_into(i, j, scratch, &mut edges)?,
        PrefetchRequest::Run {
            i,
            j,
            edge_start,
            edge_count,
        } => grid.read_edge_run(i, j, edge_start, edge_count, scratch, &mut edges)?,
    }
    Ok(edges)
}

/// One reader's share of a schedule, and the channel it delivers through.
type Job = (Vec<PrefetchRequest>, SyncSender<std::io::Result<Vec<Edge>>>);

/// A reader thread's whole life: read each job's requests in order until
/// the job's receiver is dropped (an abandoned schedule), then take the
/// next job; return once the executor drops the job sender.
fn read_jobs(grid: &GridGraph, jobs: Receiver<Job>) {
    let mut scratch = Vec::new();
    for (requests, results) in jobs {
        for request in &requests {
            let result = read_request(grid, request, &mut scratch);
            if results.send(result).is_err() {
                break;
            }
        }
    }
}

/// The background prefetch executor: reader threads reading one
/// iteration's schedule ahead of the consumer (see the module docs).
pub struct PrefetchExecutor {
    grid: GridGraph,
    depth: usize,
    trace: Arc<dyn TraceSink>,
    /// Per reader: where its jobs go, and its thread.
    readers: Vec<(Sender<Job>, std::thread::JoinHandle<()>)>,
    /// Per reader: the current schedule's result channel.
    results: Vec<Receiver<std::io::Result<Vec<Edge>>>>,
    /// Scheduled requests not yet taken, each with its reader.
    pending: VecDeque<(PrefetchRequest, usize)>,
}

impl PrefetchExecutor {
    /// Spawns the reader threads over a cloned grid handle.
    pub fn new(grid: GridGraph, config: PipelineConfig) -> std::io::Result<Self> {
        let mut exec = PrefetchExecutor {
            grid: grid.clone(),
            depth: config.depth.max(1),
            trace: gsd_trace::null_sink(),
            readers: Vec::with_capacity(READERS),
            results: Vec::new(),
            pending: VecDeque::new(),
        };
        for r in 0..READERS {
            let (jobs, inbox) = mpsc::channel();
            let grid = grid.clone();
            // On failure, dropping `exec` stops the readers already started.
            let handle = std::thread::Builder::new()
                .name(format!("gsd-prefetch-{r}"))
                .spawn(move || read_jobs(&grid, inbox))?;
            exec.readers.push((jobs, handle));
        }
        Ok(exec)
    }

    /// Routes the `prefetch_issued` / `_hit` / `_stall` events to `trace`.
    pub(crate) fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Installs one iteration's request schedule and starts the readers on
    /// it. An unconsumed previous schedule is abandoned — its channels are
    /// dropped, so its reader's next delivery fails and it moves on — which
    /// the engine only does on an error path.
    pub fn begin_schedule(&mut self, requests: Vec<PrefetchRequest>) {
        let mut shares = vec![Vec::new(); READERS];
        self.pending.clear();
        for request in requests {
            if self.trace.enabled() {
                let (i, j) = request.coords();
                let bytes = request.bytes(&self.grid);
                self.trace.emit(&TraceEvent::PrefetchIssued { i, j, bytes });
            }
            let reader = request.route(READERS);
            shares[reader].push(request);
            self.pending.push_back((request, reader));
        }
        self.results.clear();
        for ((jobs, _), share) in self.readers.iter().zip(shares) {
            let (results, inbox) = mpsc::sync_channel(self.depth);
            // A reader that exited drops the job; its take() then fails.
            let _ = jobs.send((share, results));
            self.results.push(inbox);
        }
    }

    /// Returns the next scheduled request's data, in schedule order: at
    /// once if its reader has delivered it ([`TakeOutcome::Hit`]), else
    /// after blocking until it does ([`TakeOutcome::Stalled`]). A failed
    /// read is an `Err` at its own take; a take past the end of the
    /// schedule is an `InvalidInput` error (an engine bug), not a panic.
    pub fn take(&mut self) -> std::io::Result<Prefetched> {
        use std::io::{Error, ErrorKind};
        let sw = Stopwatch::start();
        let Some((request, reader)) = self.pending.pop_front() else {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                "prefetch schedule exhausted",
            ));
        };
        let inbox = &self.results[reader];
        let (result, outcome) = match inbox.try_recv() {
            Ok(result) => (Ok(result), TakeOutcome::Hit),
            Err(_) => (inbox.recv(), TakeOutcome::Stalled(sw.elapsed())),
        };
        let edges = result.map_err(|_| Error::other("prefetch reader exited"))??;
        let (i, j) = request.coords();
        let bytes = request.bytes(&self.grid);
        if self.trace.enabled() {
            self.trace.emit(&match outcome {
                TakeOutcome::Hit => TraceEvent::PrefetchHit { i, j, bytes },
                TakeOutcome::Stalled(wait) => TraceEvent::PrefetchStall {
                    i,
                    j,
                    wait_us: crate::driver::micros(wait),
                },
            });
        }
        Ok(Prefetched {
            i,
            j,
            edges,
            bytes,
            outcome,
        })
    }
}

impl Drop for PrefetchExecutor {
    fn drop(&mut self) {
        // Dropped channels end every reader's loop. A reader's panic is
        // swallowed: surfacing it would abort the engine's error path.
        self.results.clear();
        for (jobs, handle) in self.readers.drain(..) {
            drop(jobs);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::{preprocess, GeneratorConfig, GraphKind, PreprocessConfig};
    use gsd_io::{DiskModel, IoStatsSnapshot, SharedStorage, SimDisk};

    fn sim_grid(seed: u64, p: u32) -> GridGraph {
        let g = GeneratorConfig::new(GraphKind::RMat, 400, 4000, seed).generate();
        let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(p),
        )
        .unwrap();
        GridGraph::open(storage).unwrap()
    }

    fn full_schedule(grid: &GridGraph) -> Vec<PrefetchRequest> {
        let p = grid.p();
        let mut schedule = Vec::new();
        for j in 0..p {
            for i in 0..p {
                if grid.meta().block_edge_count(i, j) > 0 {
                    schedule.push(PrefetchRequest::Block { i, j });
                }
            }
        }
        schedule
    }

    fn sync_read(grid: &GridGraph, r: &PrefetchRequest) -> Vec<Edge> {
        let mut scratch = Vec::new();
        read_request(grid, r, &mut scratch).unwrap()
    }

    fn drain(
        exec: &mut PrefetchExecutor,
        schedule: &[PrefetchRequest],
        grid: &GridGraph,
    ) -> (u64, u64) {
        let (mut hits, mut misses) = (0u64, 0u64);
        for r in schedule {
            let got = exec.take().unwrap();
            assert_eq!((got.i, got.j), r.coords());
            assert_eq!(
                got.edges,
                sync_read(grid, r),
                "payload must match sync read"
            );
            assert_eq!(got.bytes, r.bytes(grid));
            if got.outcome == TakeOutcome::Hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        (hits, misses)
    }

    #[test]
    fn delivers_every_request_in_schedule_order() {
        let grid = sim_grid(7, 4);
        let schedule = full_schedule(&grid);
        assert!(schedule.len() > 4);
        let mut exec = PrefetchExecutor::new(grid.clone(), PipelineConfig::default()).unwrap();
        exec.begin_schedule(schedule.clone());
        let (hits, misses) = drain(&mut exec, &schedule, &grid);
        assert_eq!(hits + misses, schedule.len() as u64);
        assert!(exec.pending.is_empty());
    }

    #[test]
    fn edge_runs_deliver_exact_spans() {
        let grid = sim_grid(11, 3);
        // Split block (0, 0)'s edges into two runs plus a whole-block
        // request for (1, 0); results must match the synchronous reads.
        let count = grid.meta().block_edge_count(0, 0);
        assert!(count >= 2, "test graph must populate block (0,0)");
        let half = gsd_graph::narrow::saturating_u32(count / 2);
        let schedule = vec![
            PrefetchRequest::Run {
                i: 0,
                j: 0,
                edge_start: 0,
                edge_count: half,
            },
            PrefetchRequest::Run {
                i: 0,
                j: 0,
                edge_start: half,
                edge_count: gsd_graph::narrow::saturating_u32(count) - half,
            },
            PrefetchRequest::Block { i: 1, j: 0 },
        ];
        let mut exec = PrefetchExecutor::new(grid.clone(), PipelineConfig::with_depth(1)).unwrap();
        exec.begin_schedule(schedule.clone());
        drain(&mut exec, &schedule, &grid);
    }

    #[test]
    fn take_past_schedule_end_is_an_error_not_a_panic() {
        let grid = sim_grid(3, 2);
        let mut exec = PrefetchExecutor::new(grid, PipelineConfig::default()).unwrap();
        exec.begin_schedule(Vec::new());
        let err = exec.take().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// The whole-block schedule with block (0, 0) also read as four
    /// back-to-back runs spread through it. Each run is priced sequential
    /// only if the run before it was read first, so the runs pin per-key
    /// order while the blocks between them interleave other keys.
    fn mixed_schedule(grid: &GridGraph) -> Vec<PrefetchRequest> {
        let count = gsd_graph::narrow::saturating_u32(grid.meta().block_edge_count(0, 0));
        assert!(count >= 4, "test graph must populate block (0,0)");
        let mut schedule = full_schedule(grid);
        let quarter = count / 4;
        for k in 0..4 {
            let edge_start = k * quarter;
            let end = if k == 3 { count } else { edge_start + quarter };
            let run = PrefetchRequest::Run {
                i: 0,
                j: 0,
                edge_start,
                edge_count: end - edge_start,
            };
            schedule.insert((1 + 3 * k as usize).min(schedule.len()), run);
        }
        schedule
    }

    /// The determinism contract: on a SimDisk, running the whole
    /// schedule through the concurrent pipeline must charge exactly the
    /// same virtual-clock time and the same sequential/random split as
    /// issuing the same requests synchronously — per-key order is what
    /// the pricing depends on, and the pipeline preserves it.
    #[test]
    fn sim_disk_accounting_matches_synchronous_reads() {
        let sync_stats: IoStatsSnapshot = {
            let grid = sim_grid(23, 4);
            let schedule = mixed_schedule(&grid);
            let before = grid.storage().stats().snapshot();
            for r in &schedule {
                sync_read(&grid, r);
            }
            grid.storage().stats().snapshot().since(&before)
        };
        for depth in [1usize, 2, 4] {
            let grid = sim_grid(23, 4);
            let schedule = mixed_schedule(&grid);
            let before = grid.storage().stats().snapshot();
            let mut exec =
                PrefetchExecutor::new(grid.clone(), PipelineConfig::with_depth(depth)).unwrap();
            exec.begin_schedule(schedule.clone());
            for r in &schedule {
                // No payload re-read here: an extra verification read
                // would charge the virtual clock a second time.
                let got = exec.take().unwrap();
                assert_eq!((got.i, got.j), r.coords());
            }
            let piped = grid.storage().stats().snapshot().since(&before);
            assert_eq!(piped, sync_stats, "depth = {depth}");
        }
    }

    #[test]
    fn schedules_can_be_reused_across_iterations() {
        let grid = sim_grid(5, 3);
        let schedule = full_schedule(&grid);
        let mut exec = PrefetchExecutor::new(grid.clone(), PipelineConfig::default()).unwrap();
        for _ in 0..3 {
            exec.begin_schedule(schedule.clone());
            drain(&mut exec, &schedule, &grid);
        }
    }

    #[test]
    fn abandoned_schedule_is_discarded_safely() {
        let grid = sim_grid(9, 4);
        let schedule = full_schedule(&grid);
        let mut exec = PrefetchExecutor::new(grid.clone(), PipelineConfig::default()).unwrap();
        exec.begin_schedule(schedule.clone());
        // Consume only one request, then install a fresh schedule: the
        // in-flight remainder must be dropped, not delivered late.
        exec.take().unwrap();
        exec.begin_schedule(schedule.clone());
        drain(&mut exec, &schedule, &grid);
    }

    #[test]
    fn failed_read_surfaces_at_its_own_take() {
        let grid = sim_grid(17, 4);
        let schedule = full_schedule(&grid);
        assert!(schedule.len() > 4);
        let lost = 3;
        let (i, j) = schedule[lost].coords();
        grid.storage().delete(&grid.edges_key(i, j)).unwrap();
        let mut exec = PrefetchExecutor::new(grid.clone(), PipelineConfig::default()).unwrap();
        exec.begin_schedule(schedule.clone());
        drain(&mut exec, &schedule[..lost], &grid);
        assert!(exec.take().is_err(), "the missing block fails its own take");
        // The executor recovers: a fresh schedule without the lost block
        // drains completely.
        let rest: Vec<_> = schedule
            .iter()
            .filter(|r| r.coords() != (i, j))
            .copied()
            .collect();
        exec.begin_schedule(rest.clone());
        drain(&mut exec, &rest, &grid);
        assert!(exec.pending.is_empty());
    }

    #[test]
    fn trace_events_cover_every_take() {
        let grid = sim_grid(13, 4);
        let schedule = full_schedule(&grid);
        let ring = Arc::new(gsd_trace::RingRecorder::new(1 << 14));
        let mut exec = PrefetchExecutor::new(grid.clone(), PipelineConfig::default()).unwrap();
        exec.set_trace(ring.clone());
        exec.begin_schedule(schedule.clone());
        let (hits, misses) = drain(&mut exec, &schedule, &grid);
        assert_eq!(ring.count_kind("prefetch_issued"), schedule.len());
        assert_eq!(ring.count_kind("prefetch_hit") as u64, hits);
        assert_eq!(ring.count_kind("prefetch_stall") as u64, misses);
    }

    #[test]
    fn routing_is_deterministic_and_key_stable() {
        let a = PrefetchRequest::Block { i: 3, j: 7 };
        let b = PrefetchRequest::Run {
            i: 3,
            j: 7,
            edge_start: 10,
            edge_count: 4,
        };
        for readers in 1..6 {
            // Same block => same reader, regardless of request shape.
            assert_eq!(a.route(readers), b.route(readers));
            assert!(a.route(readers) < readers);
        }
    }
}
