//! The scheduler-driven prefetch executor.
//!
//! GraphSD's state-aware scheduler decides *before* each iteration which
//! sub-blocks (FCIU) or coalesced edge runs (SCIU) will be read, yet a
//! synchronous engine issues every read on the compute thread: the disk
//! idles during scatter and the CPU idles during reads. This module —
//! which lives next to its one caller, [`crate::driver`] — overlaps the
//! two phases without changing a single byte of what is
//! read, in what per-key order, or in what order results are consumed:
//!
//! * [`PrefetchExecutor`] owns a fixed pool of background workers over a
//!   cloned [`GridGraph`] handle (storage backends are `Send + Sync`, so
//!   workers read concurrently with the engine).
//! * The engine hands it one iteration's **schedule** — the exact request
//!   sequence the synchronous path would have issued — via
//!   [`PrefetchExecutor::begin_schedule`], then consumes results strictly
//!   in schedule order via [`PrefetchExecutor::take`].
//! * Lookahead is bounded by [`PipelineConfig::depth`] decoded requests
//!   (double-buffered slots by default): workers only claim a request
//!   when it is within `depth` of the consumer's position, so memory use
//!   is `O(depth)` blocks regardless of schedule length.
//!
//! ## Determinism
//!
//! The engines' results must be bit-identical with the pipeline on or
//! off, and on [`gsd_io::SimDisk`] the virtual-clock accounting must not
//! change either. Two invariants deliver that:
//!
//! 1. **Consumption order** equals schedule order — `take()` returns
//!    request `k` before request `k + 1`, so scatter processes edges in
//!    the synchronous order and floating-point accumulation is
//!    unchanged.
//! 2. **Per-key request order** equals schedule order — requests are
//!    routed to workers by a deterministic hash of their block
//!    coordinates, every request for one storage key lands in the same
//!    worker's FIFO queue, and a fallback read performed by the consumer
//!    blocks that queue until it completes. Storage backends classify
//!    sequential vs random *per key*, so interleaving across keys cannot
//!    perturb `IoStats` or `SimDisk`'s priced request costs.
//!
//! ## Backpressure and fallback
//!
//! `take()` has three outcomes, all surfaced to the tracing layer:
//! the request was already decoded ([`TakeOutcome::Hit`] /
//! `prefetch_hit`), a worker was mid-read and the consumer waited
//! ([`TakeOutcome::Stalled`] / `prefetch_stall`), or no worker had
//! started it and the consumer read it synchronously itself
//! ([`TakeOutcome::Fallback`], also traced as a stall — the pipeline
//! provided no overlap for it).
//!
//! ## Concurrency fence
//!
//! This is the workspace's **designated concurrency module**:
//! thread, channel and `Mutex`/`Condvar` construction is banned
//! workspace-wide (`clippy.toml`, DESIGN.md §11) and excused here by the
//! module-level `#![expect(clippy::disallowed_methods)]`.
//! Scatter/apply themselves are sequential: `gsd-runtime`'s value arrays
//! and frontiers are `!Sync`, so the compute thread is their only writer
//! and this module's workers hand it decoded blocks, never vertex state.
//! Engine and kernel crates never spawn their own threads. All shared
//! state below is keyed or queued in deterministic order
//! (`Vec`/`VecDeque` indexed by worker and schedule position —
//! deliberately no hash-ordered containers).

#![expect(
    clippy::disallowed_methods,
    reason = "the designated concurrency module: the prefetch workers, their queue lock and condvar live here and nowhere else"
)]

use gsd_graph::{Edge, GridGraph};
use gsd_trace::{Stopwatch, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Prefetch pipeline sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// How many scheduled requests past the consumer's position workers
    /// may hold decoded at once. The minimum useful value is 1; the
    /// default of 2 is classic double buffering (one block being
    /// scattered, two in flight behind it).
    pub depth: usize,
    /// Background reader threads. More than a few rarely helps: requests
    /// for one storage key are pinned to one worker to preserve per-key
    /// order.
    pub workers: usize,
}

impl PipelineConfig {
    /// Default lookahead window (double buffering).
    pub const DEFAULT_DEPTH: usize = 2;
    /// Default worker-pool size.
    pub const DEFAULT_WORKERS: usize = 2;

    /// A config with the given depth and the default worker count.
    pub fn with_depth(depth: usize) -> Self {
        PipelineConfig {
            depth: depth.max(1),
            workers: Self::DEFAULT_WORKERS,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: Self::DEFAULT_DEPTH,
            workers: Self::DEFAULT_WORKERS,
        }
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

    /// Deterministic worker routing: every request for one block (hence
    /// one storage key) must go to the same worker so per-key request
    /// order is the schedule order. FNV-1a over the coordinates — stable
    /// across runs and platforms, unlike `HashMap`'s seeded hasher.
    fn route(&self, workers: usize) -> usize {
        let (i, j) = self.coords();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in i.to_le_bytes().into_iter().chain(j.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // The remainder is below `workers`, so the conversion cannot fail.
        usize::try_from(h % workers as u64).unwrap_or(0)
    }
}

/// How [`PrefetchExecutor::take`] obtained the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeOutcome {
    /// The request was decoded and waiting: latency fully hidden.
    Hit,
    /// A worker was mid-read; the consumer blocked for this long.
    Stalled(Duration),
    /// No worker had started the request; the consumer read it
    /// synchronously itself, taking this long.
    Fallback(Duration),
}

impl TakeOutcome {
    /// Whether the pipeline had the data ready (a prefetch hit).
    pub fn is_hit(&self) -> bool {
        matches!(self, TakeOutcome::Hit)
    }

    /// Wall time the consumer was blocked acquiring the data.
    pub fn stall(&self) -> Duration {
        match *self {
            TakeOutcome::Hit => Duration::ZERO,
            TakeOutcome::Stalled(d) | TakeOutcome::Fallback(d) => d,
        }
    }
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

enum SlotState {
    /// Waiting in a worker's queue.
    Queued,
    /// A worker is reading it.
    Claimed,
    /// The consumer is reading it synchronously (fallback); it stays at
    /// the front of its worker's queue as a barrier so later same-key
    /// requests cannot overtake it.
    Stealing,
    /// Read finished (worker side); result awaits the consumer.
    Done(std::io::Result<Vec<Edge>>),
    /// Handed to the consumer.
    Consumed,
}

struct Slot {
    request: PrefetchRequest,
    bytes: u64,
    worker: usize,
    state: SlotState,
}

struct State {
    slots: Vec<Slot>,
    /// Per-worker FIFO queues of slot indexes, in schedule order.
    queues: Vec<VecDeque<usize>>,
    /// Next slot index `take()` will return.
    consumed: usize,
    /// Lookahead window: workers only claim slot `s` while
    /// `s < consumed + depth`.
    depth: usize,
    /// Bumped by `begin_schedule` so workers finishing a read for an
    /// abandoned schedule (consumer errored out mid-iteration) discard
    /// their result instead of writing into a recycled slot.
    generation: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

enum WorkerStep {
    Job(u64, usize, PrefetchRequest),
    Shutdown,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until worker `w` may start its next queued request (front
    /// of its queue, inside the lookahead window), or shutdown.
    fn next_job(&self, w: usize) -> WorkerStep {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return WorkerStep::Shutdown;
            }
            if let Some(&seq) = st.queues[w].front() {
                // A slot the consumer is fallback-reading stays at the
                // front as an ordering barrier; wait until it clears.
                let stealing = matches!(st.slots[seq].state, SlotState::Stealing);
                if !stealing && seq < st.consumed + st.depth {
                    st.queues[w].pop_front();
                    st.slots[seq].state = SlotState::Claimed;
                    return WorkerStep::Job(st.generation, seq, st.slots[seq].request);
                }
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self, generation: u64, seq: usize, result: std::io::Result<Vec<Edge>>) {
        let mut st = self.lock();
        if st.generation == generation {
            st.slots[seq].state = SlotState::Done(result);
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Smallest decoded buffer a worker hands to the consumer, in edges.
///
/// The consumer frees the buffer on its own thread, and glibc parks a
/// freed chunk of up to 1 032 bytes in the *freeing* thread's cache
/// whatever arena it came from. The consumer's next small `Vec` then
/// starts life in that chunk, and every growth `realloc` keeps it in the
/// worker's arena: after an on-demand run with a few tiny prefetched
/// runs, whatever the process builds next grows there, on top of a main
/// heap that stays as large as it was (measured on `mutate_cycle`:
/// compaction's per-block buffers, +8 to +18 MB peak RSS — EXPERIMENTS.md,
/// "One driver"). 128 edges are 1 536 bytes: such a buffer goes back to
/// the arena it came from.
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

/// The background prefetch executor: a fixed worker pool reading one
/// iteration's scheduled requests ahead of the consumer. See the crate
/// docs for the ordering and determinism contract.
pub struct PrefetchExecutor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    grid: GridGraph,
    config: PipelineConfig,
    trace: Arc<dyn TraceSink>,
    scratch: Vec<u8>,
}

impl PrefetchExecutor {
    /// Spawns the worker pool over a cloned grid handle.
    pub fn new(grid: GridGraph, config: PipelineConfig) -> std::io::Result<Self> {
        let config = PipelineConfig {
            depth: config.depth.max(1),
            workers: config.workers.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                slots: Vec::new(),
                queues: (0..config.workers).map(|_| VecDeque::new()).collect(),
                consumed: 0,
                depth: config.depth,
                generation: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let shared = shared.clone();
            let grid = grid.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gsd-prefetch-{w}"))
                .spawn(move || {
                    let mut scratch = Vec::new();
                    loop {
                        match shared.next_job(w) {
                            WorkerStep::Shutdown => return,
                            WorkerStep::Job(generation, seq, request) => {
                                let result = read_request(&grid, &request, &mut scratch);
                                shared.complete(generation, seq, result);
                            }
                        }
                    }
                })?;
            workers.push(handle);
        }
        Ok(PrefetchExecutor {
            shared,
            workers,
            grid,
            config,
            trace: gsd_trace::null_sink(),
            scratch: Vec::new(),
        })
    }

    /// Routes `prefetch_issued` / `prefetch_hit` / `prefetch_stall`
    /// events to `trace`.
    pub(crate) fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Scheduled requests not yet consumed.
    fn remaining(&self) -> usize {
        let st = self.shared.lock();
        st.slots.len() - st.consumed
    }

    /// Installs one iteration's request schedule and wakes the workers.
    /// Any unconsumed requests of a previous schedule are abandoned
    /// (results of reads already in flight are discarded when they
    /// land); the engine only does this on an error path, since it
    /// otherwise consumes every request it schedules.
    pub fn begin_schedule(&mut self, requests: Vec<PrefetchRequest>) {
        if self.trace.enabled() {
            for r in &requests {
                let (i, j) = r.coords();
                self.trace.emit(&TraceEvent::PrefetchIssued {
                    i,
                    j,
                    bytes: r.bytes(&self.grid),
                });
            }
        }
        let mut st = self.shared.lock();
        st.generation += 1;
        for q in &mut st.queues {
            q.clear();
        }
        let workers = st.queues.len();
        st.slots = requests
            .into_iter()
            .map(|request| Slot {
                bytes: request.bytes(&self.grid),
                worker: request.route(workers),
                state: SlotState::Queued,
                request,
            })
            .collect();
        st.consumed = 0;
        for seq in 0..st.slots.len() {
            let w = st.slots[seq].worker;
            st.queues[w].push_back(seq);
        }
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Returns the next scheduled request's data, in schedule order.
    ///
    /// Decoded-and-waiting requests return immediately
    /// ([`TakeOutcome::Hit`]); a request mid-read blocks until the worker
    /// finishes ([`TakeOutcome::Stalled`]); a request no worker has
    /// started is read synchronously by the caller
    /// ([`TakeOutcome::Fallback`]), with its worker's queue blocked so
    /// per-key order is preserved.
    ///
    /// # Panics
    /// Never panics; calling with no scheduled request remaining is an
    /// `InvalidInput` error (an engine bug, surfaced loudly but safely).
    pub fn take(&mut self) -> std::io::Result<Prefetched> {
        let sw = Stopwatch::start();
        enum Plan {
            Ready(std::io::Result<Vec<Edge>>, u32, u32, u64, bool),
            Steal(usize, PrefetchRequest, u32, u32, u64),
        }
        let plan = {
            let mut st = self.shared.lock();
            let seq = st.consumed;
            if seq >= st.slots.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "prefetch take() past the end of the schedule",
                ));
            }
            let (i, j) = st.slots[seq].request.coords();
            let bytes = st.slots[seq].bytes;
            match st.slots[seq].state {
                SlotState::Queued => {
                    // Fallback: the consumer reads it itself. The slot
                    // stays at its queue front as an ordering barrier.
                    let request = st.slots[seq].request;
                    st.slots[seq].state = SlotState::Stealing;
                    Plan::Steal(seq, request, i, j, bytes)
                }
                SlotState::Claimed
                | SlotState::Stealing
                | SlotState::Done(_)
                | SlotState::Consumed => {
                    // Hit if already done, otherwise stall until the
                    // worker lands it.
                    let mut waited = false;
                    while !matches!(st.slots[seq].state, SlotState::Done(_)) {
                        waited = true;
                        st = self
                            .shared
                            .cv
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    let state = std::mem::replace(&mut st.slots[seq].state, SlotState::Consumed);
                    let SlotState::Done(result) = state else {
                        // The wait loop above exits only on Done; guard
                        // against the impossible without panicking in a
                        // hot-path crate.
                        return Err(std::io::Error::other("prefetch slot lost its result"));
                    };
                    st.consumed += 1;
                    drop(st);
                    self.shared.cv.notify_all();
                    Plan::Ready(result, i, j, bytes, waited)
                }
            }
        };
        match plan {
            Plan::Ready(result, i, j, bytes, waited) => {
                let edges = result?;
                let outcome = if waited {
                    TakeOutcome::Stalled(sw.elapsed())
                } else {
                    TakeOutcome::Hit
                };
                self.emit_take(i, j, bytes, &outcome, sw);
                Ok(Prefetched {
                    i,
                    j,
                    edges,
                    bytes,
                    outcome,
                })
            }
            Plan::Steal(seq, request, i, j, bytes) => {
                let result = read_request(&self.grid, &request, &mut self.scratch);
                let mut st = self.shared.lock();
                let w = st.slots[seq].worker;
                debug_assert_eq!(st.queues[w].front(), Some(&seq));
                st.queues[w].pop_front();
                st.slots[seq].state = SlotState::Consumed;
                st.consumed += 1;
                drop(st);
                self.shared.cv.notify_all();
                let edges = result?;
                let outcome = TakeOutcome::Fallback(sw.elapsed());
                self.emit_take(i, j, bytes, &outcome, sw);
                Ok(Prefetched {
                    i,
                    j,
                    edges,
                    bytes,
                    outcome,
                })
            }
        }
    }

    fn emit_take(&self, i: u32, j: u32, bytes: u64, outcome: &TakeOutcome, sw: Stopwatch) {
        if !self.trace.enabled() {
            return;
        }
        match outcome {
            TakeOutcome::Hit => self.trace.emit(&TraceEvent::PrefetchHit { i, j, bytes }),
            TakeOutcome::Stalled(_) | TakeOutcome::Fallback(_) => {
                self.trace.emit(&TraceEvent::PrefetchStall {
                    i,
                    j,
                    wait_us: crate::driver::micros(sw.elapsed()),
                })
            }
        }
    }
}

impl Drop for PrefetchExecutor {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked already poisoned nothing we rely on
            // (all state transitions are lock-scoped); surfacing the
            // panic here would abort the engine's error path, so join
            // failures are swallowed.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for PrefetchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchExecutor")
            .field("depth", &self.config.depth)
            .field("workers", &self.config.workers)
            .field("remaining", &self.remaining())
            .finish()
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
            if got.outcome.is_hit() {
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
        assert_eq!(exec.remaining(), 0);
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

    /// The determinism contract: on a SimDisk, running the whole
    /// schedule through the concurrent pipeline must charge exactly the
    /// same virtual-clock time and the same sequential/random split as
    /// issuing the same requests synchronously — per-key order is what
    /// the pricing depends on, and the pipeline preserves it.
    #[test]
    fn sim_disk_accounting_matches_synchronous_reads() {
        let sync_stats: IoStatsSnapshot = {
            let grid = sim_grid(23, 4);
            let schedule = full_schedule(&grid);
            let before = grid.storage().stats().snapshot();
            for r in &schedule {
                sync_read(&grid, r);
            }
            grid.storage().stats().snapshot().since(&before)
        };
        for workers in [1usize, 2, 4] {
            let grid = sim_grid(23, 4);
            let schedule = full_schedule(&grid);
            let before = grid.storage().stats().snapshot();
            let mut exec =
                PrefetchExecutor::new(grid.clone(), PipelineConfig { depth: 3, workers }).unwrap();
            exec.begin_schedule(schedule.clone());
            for r in &schedule {
                // No payload re-read here: an extra verification read
                // would charge the virtual clock a second time.
                let got = exec.take().unwrap();
                assert_eq!((got.i, got.j), r.coords());
            }
            let piped = grid.storage().stats().snapshot().since(&before);
            assert_eq!(piped, sync_stats, "workers = {workers}");
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
        // in-flight remainder must be dropped without corrupting slots.
        exec.take().unwrap();
        exec.begin_schedule(schedule.clone());
        drain(&mut exec, &schedule, &grid);
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
        for workers in 1..6 {
            // Same block => same worker, regardless of request shape.
            assert_eq!(a.route(workers), b.route(workers));
            assert!(a.route(workers) < workers);
        }
    }
}
