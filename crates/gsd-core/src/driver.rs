//! The one out-of-core iteration driver both engines run.
//!
//! The paper tells GraphSD, Lumos, HUS-Graph and GridGraph apart by three
//! capability bits (Table 1) and the §5.4 ablations; everything else an
//! out-of-core BSP run does is the same for all four, and lives here
//! exactly once. Lumos and GridGraph are GraphSD configurations
//! ([`crate::GraphSdConfig::lumos`], [`crate::GraphSdConfig::gridgraph`]),
//! so two policies run here: GraphSD's and HUS-Graph's.
//!
//! * **open** — the double-buffered state arrays, the read executor, the
//!   optional checkpoint store (with resume), the `RunStart` event and
//!   the I/O / verify snapshots the run's totals are measured from;
//! * **per iteration** ([`Driver::iteration`]) — timers, the policy's
//!   passes, rotation, the `IterationEnd` event and the
//!   [`IterationStats`] record;
//! * **round boundary** — checkpoint cadence, the simulated-crash switch,
//!   and the folding of I/O and verify counters into what an
//!   uninterrupted run would report;
//! * the two **pass primitives** the paper has: a destination-major
//!   *stream pass* over all or only the secondary (`i > j`) sub-blocks
//!   with optional cross-iteration scatter ([`Driver::stream_round`]), and
//!   a *selective pass* over coalesced edge runs with optional
//!   cross-iteration serving ([`Driver::selective_pass`]). Both plan
//!   their requests from the frontier before the first read: the stream
//!   pass leaves out the sub-blocks no active vertex sends through
//!   ([`Driver::stream_plan`]), the selective pass fetches wanted ranges
//!   a sub-seek gap apart as one request ([`Driver::plan_runs`]). One
//!   executor runs every plan, inline or on the prefetch readers.
//!
//! An engine is a [`Policy`]: per round it looks at the frontier and
//! composes those passes. The driver is generic over program and policy,
//! so the per-block and per-edge paths are statically dispatched.
//!
//! ## State layout
//!
//! Committed values are double-buffered (`values_prev` = `val_{t−1}` read
//! by normal scatter; `values_cur` = `val_t` written by `apply` and read
//! by cross-iteration scatter) and so are the accumulators (`accum_cur`
//! for the iteration being computed, `accum_next` receiving
//! cross-iteration contributions for the following one, with
//! `touched_next` in the role of the paper's `OutNI`). At the end of each
//! committed iteration the pairs rotate. This realizes the BSP guarantee:
//! a cross-iteration update of edge `(u, v)` always reads `val_t(u)` — the
//! value a normal iteration-`t+1` scatter would read — so committed values
//! are schedule-identical to the reference executor's.
//!
//! An iteration costs what its frontier touches, not `O(|V|)`: rotation
//! copies only the cells `apply` changed and refills nothing
//! (`State::rotate`). The values stay resident; the paper's
//! per-iteration value traffic (`|V|·N` in and out) is priced in the
//! scheduler's `C_s`/`C_r`, not performed, and a checkpoint is the only
//! place values cross storage.

use crate::buffer::SubBlockBuffer;
use crate::checkpoint::{
    graph_fingerprint, CheckpointData, CheckpointStore, ManifestTag, RecoveryConfig,
};
use crate::pipeline::{PipelineConfig, PrefetchExecutor, PrefetchRequest, TakeOutcome};
use gsd_graph::grid::RowIndexSpan;
use gsd_graph::{BlockOrder, Edge, GridGraph};
use gsd_io::{DiskModel, IoStatsSnapshot, SharedStorage};
use gsd_runtime::kernels::{
    apply_range_timed, scatter_edges, scatter_sorted, timed, SortedBySource,
};
use gsd_runtime::{
    Frontier, IoAccessModel, IterationStats, ProgramContext, RunOptions, RunResult, RunStats,
    Value, ValueArray, VertexProgram,
};
use gsd_trace::{TraceEvent, TraceSink};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// What an engine hands the driver: its identity and the cross-cutting
/// services every run gets.
pub struct Frame<'a> {
    /// Engine name in `RunStats`, trace events and checkpoint tags.
    pub engine: &'static str,
    /// The grid that names the storage and the checkpoint directory, and
    /// the one the prefetch pipeline reads.
    pub grid: &'a GridGraph,
    /// Further grids the policy reads (HUS-Graph's column copy): their
    /// verify-on-read events and counters join the run's.
    pub also_verified: &'a [&'a GridGraph],
    /// Out-degree table of the graph.
    pub degrees: &'a Arc<Vec<u32>>,
    /// Sink for the run's trace events.
    pub trace: &'a Arc<dyn TraceSink>,
    /// Prefetch pipeline sizing, or `None` to read each request inline.
    pub prefetch: Option<PipelineConfig>,
    /// Checkpoint/recovery options, or `None` to run unprotected.
    pub checkpoint: Option<&'a RecoveryConfig>,
    /// Pins checkpoints to the engine's result-relevant configuration
    /// ([`ManifestTag::config_hash`]).
    pub config_hash: u64,
}

/// What distinguishes one engine from another: how a round of one or two
/// BSP iterations is composed from the driver's passes, plus whatever
/// private state that choice needs carried through a checkpoint.
pub trait Policy<P: VertexProgram> {
    /// Commits the next iteration (or a cross-iteration pair) through
    /// [`Driver::iteration`] / [`Driver::stream_round`]. Returning is a
    /// legal checkpoint boundary.
    fn round(&mut self, driver: &mut Driver<'_, P>) -> std::io::Result<()>;

    /// Folds policy-owned aggregates (scheduler time, buffer hits) into
    /// the stats reported at a checkpoint and at run end.
    fn fold_stats(&self, _stats: &mut RunStats) {}

    /// Opaque policy state stored in a checkpoint's `extra` section.
    fn checkpoint_extra(&self) -> std::io::Result<Vec<u8>> {
        Ok(Vec::new())
    }

    /// Rebuilds the policy's state from a checkpoint. Runs before the
    /// run's I/O and verify snapshots are taken, so reads made here are
    /// resume machinery, not part of the run.
    fn restore(&mut self, _data: &CheckpointData) -> std::io::Result<()> {
        Ok(())
    }
}

/// A stateless policy is just its round function.
impl<P: VertexProgram, F> Policy<P> for F
where
    F: FnMut(&mut Driver<'_, P>) -> std::io::Result<()>,
{
    fn round(&mut self, driver: &mut Driver<'_, P>) -> std::io::Result<()> {
        self(driver)
    }
}

/// One storage request of a selective pass: the edge-index range
/// `edges` of sub-block `(i, j)` is fetched, the sub-ranges `keep`
/// (ascending, inside `edges`, first and last touching its ends) are
/// scattered and whatever lies between them is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectiveRun {
    /// Source interval (grid row).
    pub i: u32,
    /// Destination interval (grid column).
    pub j: u32,
    /// The requested edge indexes.
    pub edges: Range<u32>,
    /// The wanted edge indexes within the request.
    pub keep: Vec<Range<u32>>,
}

/// Per row of `grid`, the vertex ids one row-index request bridges
/// rather than seek over on `disk`: a vertex of row `i`'s index costs the
/// bytes the row stores per vertex
/// ([`gsd_graph::format::RowIndexLayout::bytes_per_vertex`]).
pub fn index_gaps(disk: &DiskModel, grid: &GridGraph) -> Vec<u32> {
    (0..grid.p())
        .map(|i| disk.bridge_gap(grid.row_index_layout(i).bytes_per_vertex() as u64))
        .collect()
}

/// Plans the requests for the non-empty per-vertex edge `ranges` of one
/// sub-block (the `S_seq`/`S_ran` structure the scheduler prices),
/// appended to `runs` in vertex order. Adjacent ranges become one kept
/// range; a range at most `max_gap` edges past the previous one joins its
/// request, because streaming through the gap is cheaper than seeking
/// over it ([`gsd_io::DiskModel::bridge_gap`]).
pub fn coalesce_runs(
    i: u32,
    j: u32,
    ranges: impl Iterator<Item = Range<u32>>,
    max_gap: u32,
    runs: &mut Vec<SelectiveRun>,
) {
    let first = runs.len();
    for r in ranges.filter(|r| !r.is_empty()) {
        match runs[first..].last_mut() {
            Some(run) if r.start >= run.edges.end && r.start - run.edges.end <= max_gap => {
                match run.keep.last_mut() {
                    Some(kept) if kept.end == r.start => kept.end = r.end,
                    _ => run.keep.push(r.clone()),
                }
                run.edges.end = r.end;
            }
            _ => runs.push(SelectiveRun {
                i,
                j,
                edges: r.clone(),
                keep: vec![r],
            }),
        }
    }
}

/// The vertex state of a run and the three kernel calls over it.
struct State<'a, P: VertexProgram> {
    program: &'a P,
    ctx: ProgramContext,
    values_prev: ValueArray<P::Value>,
    values_cur: ValueArray<P::Value>,
    accum_cur: ValueArray<P::Accum>,
    accum_next: ValueArray<P::Accum>,
    touched_cur: Frontier,
    touched_next: Frontier,
    /// `V_active`: the scatter sources of the iteration being computed.
    frontier: Frontier,
    /// Vertices `apply` changed this iteration — the next frontier.
    out: Frontier,
    /// Vertices `apply` changed this iteration whose next-iteration
    /// scatter SCIU already performed, so they left `out`.
    pre_served: Vec<u32>,
}

impl<P: VertexProgram> State<'_, P> {
    /// Iteration `t`'s scatter: `val_{t−1}` of the edges' sources (only
    /// the active ones if `filtered`) into `accum_cur`. Returns the
    /// messages delivered.
    fn scatter(
        &self,
        edges: &[Edge],
        filtered: bool,
        by_source: bool,
        elapsed: &mut Duration,
    ) -> u64 {
        let filter = filtered.then_some(&self.frontier);
        self.send(edges, by_source, filter, false, elapsed)
    }

    /// Cross-iteration scatter: `val_t` of the sources `apply` has just
    /// re-activated into iteration `t + 1`'s accumulator. Legal only for
    /// edges whose source interval is fully applied.
    fn scatter_ahead(&self, edges: &[Edge], by_source: bool, elapsed: &mut Duration) -> u64 {
        self.send(edges, by_source, Some(&self.out), true, elapsed)
    }

    /// The kernel call of both scatters, into iteration `t + 1`'s arrays
    /// if `ahead`. A filtered scatter over a `by_source` block (edges
    /// sorted by source) gallops over the inactive sources
    /// ([`scatter_sorted`]); any other takes the per-edge loop. Both
    /// deliver the same messages in the same order.
    fn send(
        &self,
        edges: &[Edge],
        by_source: bool,
        filter: Option<&Frontier>,
        ahead: bool,
        elapsed: &mut Duration,
    ) -> u64 {
        let (values, accum, touched) = if ahead {
            (&self.values_cur, &self.accum_next, &self.touched_next)
        } else {
            (&self.values_prev, &self.accum_cur, &self.touched_cur)
        };
        let (program, ctx) = (self.program, &self.ctx);
        timed(elapsed, || match filter {
            Some(filter) if by_source => {
                let sorted = SortedBySource::new(edges);
                scatter_sorted(program, ctx, sorted, filter, values, accum, touched)
            }
            filter => scatter_edges(program, ctx, edges, filter, values, accum, touched),
        })
    }

    /// The apply barrier of `range`.
    fn apply(&self, range: Range<u32>, elapsed: &mut Duration) {
        apply_range_timed(
            self.program,
            &self.ctx,
            range,
            self.program.apply_all(),
            &self.touched_cur,
            &self.accum_cur,
            &self.values_cur,
            &self.out,
            elapsed,
        );
    }

    /// End-of-iteration rotation: committed values advance, the
    /// next-iteration accumulator becomes current, and `out` becomes the
    /// frontier. `val_t` and `val_{t−1}` differ only where `apply`
    /// changed a value, so only those cells are copied into the array the
    /// next iteration's `apply` writes. `accum_cur` needs no refill: every
    /// `combine` target is in `touched_cur`, and every pass applies every
    /// interval, which resets each touched accumulator to zero.
    fn rotate(&mut self) {
        std::mem::swap(&mut self.values_prev, &mut self.values_cur);
        for v in self.out.iter().chain(self.pre_served.drain(..)) {
            self.values_cur.set(v, self.values_prev.get(v));
        }
        debug_assert!(
            bits_of(&self.values_cur) == bits_of(&self.values_prev),
            "val_t and val_(t-1) differ outside the vertices apply changed"
        );
        let zero = self.program.zero_accum().to_bits();
        debug_assert!(
            bits_of(&self.accum_cur).iter().all(|&a| a == zero),
            "an accumulator was left unapplied"
        );
        std::mem::swap(&mut self.accum_cur, &mut self.accum_next);
        std::mem::swap(&mut self.touched_cur, &mut self.touched_next);
        self.touched_next.clear();
        std::mem::swap(&mut self.frontier, &mut self.out);
        self.out.clear();
    }
}

/// Per-iteration time/traffic tracker. The `scatter`/`apply` timers are
/// accumulated by the `*_timed` kernel wrappers *inside* the spans that
/// feed `compute`, so they always sum to at most `compute`.
#[derive(Default)]
struct Tracker {
    io_snap: IoStatsSnapshot,
    io_wall: Duration,
    compute: Duration,
    scatter: Duration,
    apply: Duration,
    /// Wall time the consumer spent blocked on the prefetch pipeline,
    /// waiting for a reader to hand over an in-flight read.
    stall: Duration,
}

/// One run in progress: the state, services and timers a [`Policy`]
/// composes its rounds from.
pub struct Driver<'a, P: VertexProgram> {
    state: State<'a, P>,
    n: u32,
    limit: u32,
    /// The iteration the next [`Driver::iteration`] call commits.
    next: u32,
    storage: SharedStorage,
    trace: Arc<dyn TraceSink>,
    /// Runs every pass's plan.
    reads: PrefetchExecutor,
    stats: RunStats,
    tracker: Tracker,
}

/// Checkpoints a protected run keeps: the newest, plus one to fall back
/// to if the newest fails to decode.
const RETAINED_CHECKPOINTS: usize = 2;

/// Per-run checkpoint state: the store plus cadence bookkeeping.
struct Checkpointer {
    store: CheckpointStore,
    every: u32,
    halt_after: Option<u32>,
    /// Iteration of the newest committed checkpoint (0 = none yet).
    last: u32,
}

/// Runs `program` to convergence (or its iteration limit) under `policy`.
pub fn run<P: VertexProgram, Y: Policy<P>>(
    frame: Frame<'_>,
    program: &P,
    options: &RunOptions,
    policy: &mut Y,
) -> std::io::Result<RunResult<P::Value>> {
    let grid = frame.grid;
    let n = grid.num_vertices();
    let stats = RunStats::new(frame.engine, program.name());
    if n == 0 {
        return Ok(RunResult {
            values: Vec::new(),
            stats,
        });
    }
    let storage = grid.storage().clone();
    let trace = frame.trace.clone();
    let ctx = ProgramContext::new(n, frame.degrees.clone());
    let frontier = program.initial_frontier(&ctx).build(n)?;
    let mut reads = match frame.prefetch {
        Some(sizing) => PrefetchExecutor::new(grid.clone(), sizing)?,
        None => PrefetchExecutor::inline(grid.clone()),
    };
    reads.set_trace(trace.clone());
    let zero = program.zero_accum();
    let mut driver = Driver {
        state: State {
            program,
            values_prev: ValueArray::from_fn(n as usize, |v| program.init_value(v, &ctx)),
            values_cur: ValueArray::from_fn(n as usize, |v| program.init_value(v, &ctx)),
            accum_cur: ValueArray::new(n as usize, zero),
            accum_next: ValueArray::new(n as usize, zero),
            touched_cur: Frontier::empty(n),
            touched_next: Frontier::empty(n),
            frontier,
            out: Frontier::empty(n),
            pre_served: Vec::new(),
            ctx,
        },
        n,
        limit: options.limit_for(program),
        next: 1,
        storage: storage.clone(),
        trace: trace.clone(),
        reads,
        stats,
        tracker: Tracker::default(),
    };

    let grids = || std::iter::once(grid).chain(frame.also_verified.iter().copied());
    grids().for_each(|g| g.set_verify_sink(trace.clone()));
    driver.emit(|| TraceEvent::RunStart {
        engine: frame.engine,
        algorithm: program.name().to_string(),
    });

    // Recovery setup happens BEFORE `run_snap`: checkpoint discovery,
    // snapshot reads and whatever the policy re-reads are resume
    // machinery, not part of the run, so they must not appear in
    // `stats.io` (the determinism contract promises a resumed run the
    // same accounting as an uninterrupted one).
    let mut base_io = IoStatsSnapshot::default();
    let mut ckpt = match frame.checkpoint {
        Some(cfg) => {
            let tag = ManifestTag {
                engine: frame.engine.to_string(),
                algorithm: program.name().to_string(),
                value_bytes: program.value_bytes(),
                num_vertices: n,
                graph_fingerprint: graph_fingerprint(storage.as_ref(), grid.prefix())?,
                config_hash: frame.config_hash,
            };
            let mut store = CheckpointStore::new(
                storage.clone(),
                format!("{}ckpt", grid.prefix()),
                RETAINED_CHECKPOINTS,
                tag,
            );
            store.set_trace(trace.clone());
            let mut last = 0;
            if let Some(data) = if cfg.resume { store.latest()? } else { None } {
                driver.restore(&data);
                policy.restore(&data)?;
                base_io = data.stats.io;
                last = data.iteration;
            }
            Some(Checkpointer {
                store,
                every: cfg.every,
                halt_after: cfg.halt_after,
                last,
            })
        }
        None => None,
    };
    let run_snap = storage.stats().snapshot();
    // Taken after restore: resume-machinery verification is not part of
    // this run's totals.
    let verify_snap: Vec<_> = grids().map(|g| g.verify_counters()).collect();
    // Brings `stats` to what an uninterrupted run would report right now:
    // the restored base plus this run's delta, minus the checkpoint
    // store's own commit traffic (protection overhead, not run I/O).
    let settle = |stats: &mut RunStats, policy: &Y, ckpt_io: IoStatsSnapshot| {
        policy.fold_stats(stats);
        for (g, snap) in grids().zip(&verify_snap) {
            stats.fold_verify(&g.verify_counters().since(snap));
        }
        let delta = storage.stats().snapshot().since(&run_snap);
        stats.io = base_io.plus(&delta.since(&ckpt_io));
    };

    // An iteration is due while either scatter sources remain
    // (`frontier`) or cross-iteration propagation has pre-scattered
    // contributions awaiting their apply barrier (`touched_cur`). An
    // iteration whose frontier is empty but whose accumulator is
    // pre-seeded loads no edges at all: it is the fully-served case where
    // SCIU saved the entire iteration's edge I/O.
    while driver.next <= driver.limit
        && !(driver.state.frontier.is_empty() && driver.state.touched_cur.is_empty())
    {
        policy.round(&mut driver)?;
        // Checkpoint only at round boundaries: here the rotated state is
        // a legal re-entry point. Between the two passes of a
        // cross-iteration pair it is NOT — resuming there would
        // double-count the pre-scattered accumulator.
        let committed = driver.next - 1;
        let Some(c) = ckpt
            .as_mut()
            .filter(|c| committed.saturating_sub(c.last) >= c.every)
        else {
            continue;
        };
        let mut stats = driver.stats.clone();
        settle(&mut stats, policy, c.store.io());
        c.store.write(&CheckpointData {
            iteration: committed,
            values: bits_of(&driver.state.values_prev),
            accum: bits_of(&driver.state.accum_cur),
            frontier: driver.state.frontier.to_vec(),
            touched: driver.state.touched_cur.to_vec(),
            stats,
            extra: policy.checkpoint_extra()?,
        })?;
        c.last = committed;
        if c.halt_after.is_some_and(|halt| committed >= halt) {
            // Simulated crash for recovery tests: abort at the exact
            // commit point, where storage state equals an uninterrupted
            // run's at this boundary (modulo checkpoint keys).
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("simulated crash after checkpoint at iteration {committed}"),
            ));
        }
    }

    driver.emit(|| TraceEvent::RunEnd {
        engine: frame.engine,
        iterations: driver.stats.iterations,
    });
    let ckpt_io = ckpt.map(|c| c.store.io()).unwrap_or_default();
    settle(&mut driver.stats, policy, ckpt_io);
    Ok(RunResult {
        values: driver.state.values_prev.snapshot(),
        stats: driver.stats,
    })
}

fn bits_of<V: Value>(values: &ValueArray<V>) -> Vec<u64> {
    values.snapshot().into_iter().map(Value::to_bits).collect()
}

/// A trace event's `*_us` field: whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl<P: VertexProgram> Driver<'_, P> {
    /// The iteration the next [`Driver::iteration`] call commits (1-based).
    pub fn next_iteration(&self) -> u32 {
        self.next
    }

    /// The last iteration the run may commit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// `V_active` of the next iteration.
    pub fn frontier(&self) -> &Frontier {
        &self.state.frontier
    }

    fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        if self.trace.enabled() {
            self.trace.emit(&event());
        }
    }

    /// The index reads a selective planner makes for row `i` of `grid`:
    /// one row-index span per cluster of `active` (the row's active ids,
    /// ascending; gaps up to `max_gap` ids are bridged), each timed into
    /// the iteration's I/O wait. A span resolves its cluster's edge ranges
    /// in every sub-block of the row.
    pub fn read_index_clusters<'a>(
        &mut self,
        grid: &GridGraph,
        i: u32,
        active: &'a [u32],
        max_gap: u32,
    ) -> std::io::Result<Vec<(&'a [u32], RowIndexSpan)>> {
        let mut clusters = Vec::new();
        for span in gsd_graph::cluster_vertex_spans(active, max_gap) {
            let cluster = &active[span];
            let (Some(&first), Some(&last)) = (cluster.first(), cluster.last()) else {
                continue; // clusters over a non-empty active set are non-empty
            };
            let index = timed(&mut self.tracker.io_wall, || {
                grid.read_row_index_span(i, first, last)
            })?;
            clusters.push((cluster, index));
        }
        Ok(clusters)
    }

    /// A selective pass's plan: the requests for the active edge lists in
    /// `grid`, row by row, sub-block by sub-block, vertex by vertex, each
    /// with the ranges of its edges the pass scatters (ascending offsets
    /// into the request). One row-index request per active cluster (ids at
    /// most `index_gaps[i]` apart in row `i`, see [`index_gaps`]) resolves
    /// the cluster's edge ranges in every sub-block of the row; ranges at most `run_gap` edges apart share a
    /// request ([`coalesce_runs`]). The index spans are read here, before
    /// any run — a run cannot be known before its index arrives.
    pub fn plan_runs(
        &mut self,
        grid: &GridGraph,
        index_gaps: &[u32],
        run_gap: u32,
    ) -> std::io::Result<Vec<(PrefetchRequest, Vec<Range<u32>>)>> {
        let mut runs = Vec::new();
        for (i, &index_gap) in (0..grid.p()).zip(index_gaps) {
            let range = grid.intervals().range(i);
            let active: Vec<u32> = self.frontier().iter_range(range).collect();
            let clusters = self.read_index_clusters(grid, i, &active, index_gap)?;
            for j in 0..grid.p() {
                if grid.meta().block_edge_count(i, j) > 0 {
                    let ranges = clusters.iter().flat_map(|(cluster, index)| {
                        cluster.iter().map(move |&v| index.edge_range(v, j))
                    });
                    coalesce_runs(i, j, ranges, run_gap, &mut runs);
                }
            }
        }
        let planned = runs.into_iter().map(|mut run| {
            let start = run.edges.start;
            for kept in &mut run.keep {
                *kept = kept.start - start..kept.end - start;
            }
            let (i, j, edge_count) = (run.i, run.j, run.edges.end - start);
            let request = PrefetchRequest::Run {
                i,
                j,
                edge_start: start,
                edge_count,
            };
            (request, run.keep)
        });
        Ok(planned.collect())
    }

    /// Rebuilds the vertex state from a checkpoint taken at a round
    /// boundary, as if the preceding iterations had just run.
    fn restore(&mut self, data: &CheckpointData) {
        let st = &mut self.state;
        for (v, &bits) in (0u32..).zip(&data.values) {
            st.values_prev.set(v, P::Value::from_bits(bits));
        }
        st.values_cur.copy_from(&st.values_prev);
        for (v, &bits) in (0u32..).zip(&data.accum) {
            st.accum_cur.set(v, P::Accum::from_bits(bits));
        }
        st.frontier = Frontier::from_seeds(self.n, &data.frontier);
        st.touched_cur = Frontier::from_seeds(self.n, &data.touched);
        self.stats = data.stats.clone();
        self.next = data.iteration.saturating_add(1);
    }

    /// The frame of one BSP iteration around `passes`: let the policy's
    /// passes scatter and apply, rotate, and record the iteration under
    /// `model`.
    /// `cross_iteration` marks an iteration whose `i ≤ j` contributions
    /// were pre-scattered by its predecessor.
    pub fn iteration(
        &mut self,
        model: IoAccessModel,
        cross_iteration: bool,
        passes: impl FnOnce(&mut Self) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let iteration = self.next;
        let frontier = self.state.frontier.count();
        self.emit(|| TraceEvent::IterationStart { iteration });
        self.tracker = Tracker {
            io_snap: self.storage.stats().snapshot(),
            ..Tracker::default()
        };

        passes(self)?;
        timed(&mut self.tracker.compute, || self.state.rotate());
        self.next += 1;

        let t = std::mem::take(&mut self.tracker);
        let io = self.storage.stats().snapshot().since(&t.io_snap);
        self.emit(|| TraceEvent::IterationEnd {
            iteration,
            model: crate::trace_model(model),
            frontier,
            bytes_read: io.read_bytes(),
            scatter_us: micros(t.scatter),
            apply_us: micros(t.apply),
            io_wait_us: micros(t.io_wall),
        });
        self.stats.push_iteration(IterationStats {
            iteration,
            model,
            frontier,
            io,
            io_time: if io.sim_nanos > 0 {
                Duration::from_nanos(io.sim_nanos)
            } else {
                t.io_wall
            },
            compute_time: t.compute,
            scatter_time: t.scatter,
            apply_time: t.apply,
            io_wait_time: t.io_wall,
            prefetch_stall_time: t.stall,
            cross_iteration,
        });
        Ok(())
    }

    /// Reads `request` of `grid` into `out` through the executor — the
    /// pass's next planned request, or one its plan left out — timing it
    /// into the iteration's I/O wait, folding a prefetch hit or stall into
    /// the counters, and emitting its `block_load`.
    fn load(
        &mut self,
        grid: &GridGraph,
        request: PrefetchRequest,
        out: &mut Vec<Edge>,
    ) -> std::io::Result<()> {
        let (bytes, outcome) = timed(&mut self.tracker.io_wall, || {
            self.reads.fetch(Some(grid), request, out)
        })?;
        match outcome {
            TakeOutcome::Inline => {}
            TakeOutcome::Hit => self.stats.prefetch_hits += 1,
            TakeOutcome::Stalled(wait) => {
                self.stats.prefetch_misses += 1;
                self.tracker.stall += wait;
            }
        }
        let (i, j) = request.coords();
        let seq = matches!(request, PrefetchRequest::Block { .. });
        self.emit(|| TraceEvent::BlockLoad { i, j, bytes, seq });
        Ok(())
    }

    /// One full-model round over `grid`: a destination-major sweep of
    /// every sub-block that commits the next iteration. With `cross` (and
    /// an iteration left to pre-compute) the sweep also propagates the
    /// just-applied values along every `i ≤ j` sub-block into the
    /// following iteration, which a second sweep over only the secondary
    /// (`i > j`) sub-blocks then commits — two iterations for one and a
    /// half reads of the grid (Algorithm 3; Lumos's future-value
    /// computation). The first sweep offers the secondary sub-blocks it
    /// scattered to `buffer` (§4.3), the second is served from it where it
    /// can be; a zero-capacity buffer declines every offer.
    ///
    /// `avoids_inactive_data` is the caller's Table 1 bit: when set, a
    /// sweep reads only the sub-blocks that can deliver a message given
    /// the frontier at its start; a state-oblivious engine passes `false`
    /// and streams every non-empty sub-block.
    pub fn stream_round(
        &mut self,
        grid: &GridGraph,
        cross: bool,
        avoids_inactive_data: bool,
        buffer: &mut SubBlockBuffer,
    ) -> std::io::Result<()> {
        let two_pass = cross && self.next < self.limit;
        self.iteration(IoAccessModel::Full, false, |d| {
            d.stream_pass(grid, false, two_pass, avoids_inactive_data, buffer)
        })?;
        if !two_pass || self.state.frontier.is_empty() {
            // Converged (or single-pass mode): any pre-scattered
            // next-iteration state is vacuous because it can only
            // originate from `out` members.
            return Ok(());
        }
        // Contributions along `i ≤ j` edges were pre-scattered and live
        // in `accum_cur` after the rotation.
        self.iteration(IoAccessModel::Full, true, |d| {
            d.stream_pass(grid, true, false, avoids_inactive_data, buffer)
        })
    }

    /// A stream pass's plan over `grid`, starting now: the sub-blocks it
    /// visits, in visit order (column by column; every row, or only
    /// `i > j` if `secondary_only`), and the requests for those `buffer`
    /// does not hold. With `skip`, row `i` is visited only if the
    /// frontier has a vertex in interval `i` — or, with `cross`, for
    /// `i ≤ j`, if `apply` can change one there: it is in `touched_cur`,
    /// an active interval reaches it, or the program applies all. Leaving
    /// out any other row drops no message (DESIGN.md §2). Everything
    /// consulted is state a checkpoint restores.
    pub fn stream_plan(
        &self,
        grid: &GridGraph,
        secondary_only: bool,
        cross: bool,
        skip: bool,
        buffer: &SubBlockBuffer,
    ) -> (Vec<(u32, u32)>, Vec<PrefetchRequest>) {
        let p = grid.p();
        let st = &self.state;
        let live = |set: &Frontier, i: u32| {
            let range = grid.intervals().range(i);
            set.next_member(range.start, range.end).is_some()
        };
        let act: Vec<bool> = (0..p).map(|i| !skip || live(&st.frontier, i)).collect();
        let sent_to =
            |i: u32| (0..p).any(|k| act[k as usize] && grid.meta().block_edge_count(k, i) > 0);
        let ahead: Vec<bool> = (0..p)
            .map(|i| cross && (st.program.apply_all() || live(&st.touched_cur, i) || sent_to(i)))
            .collect();
        let rows = |j: u32| if secondary_only { j + 1..p } else { 0..p };
        let visits: Vec<(u32, u32)> = (0..p)
            .flat_map(|j| rows(j).map(move |i| (i, j)))
            .filter(|&(i, j)| {
                grid.meta().block_edge_count(i, j) > 0
                    && (act[i as usize] || (i <= j && ahead[i as usize]))
            })
            .collect();
        let requests = visits
            .iter()
            .filter(|&&(i, j)| !(i > j && buffer.contains(i, j)))
            .map(|&(i, j)| PrefetchRequest::Block { i, j })
            .collect();
        (visits, requests)
    }

    fn stream_pass(
        &mut self,
        grid: &GridGraph,
        secondary_only: bool,
        cross: bool,
        skip_inactive: bool,
        buffer: &mut SubBlockBuffer,
    ) -> std::io::Result<()> {
        let (visits, requests) =
            self.stream_plan(grid, secondary_only, cross, skip_inactive, buffer);
        self.reads.begin_schedule(requests);
        // Every block of a `BySource` grid reaches the scatters sorted by
        // source — read, prefetched, buffered, or merged from the
        // delta overlay (canonically re-sorted) — so they may gallop.
        let by_source = grid.meta().order == BlockOrder::BySource;
        let mut visits = visits.into_iter().peekable();
        let mut served = 0u64;
        for j in 0..grid.p() {
            let mut diagonal: Option<Arc<Vec<Edge>>> = None;
            while let Some((i, _)) = visits.next_if(|&(_, col)| col == j) {
                let bytes = grid.meta().block_bytes(i, j);
                // A buffered block the plan left out is read here only if
                // an offer earlier in the pass evicted it.
                let edges = match (i > j).then(|| buffer.get(i, j)).flatten() {
                    Some(held) => held,
                    None => {
                        let mut edges = Vec::new();
                        self.load(grid, PrefetchRequest::Block { i, j }, &mut edges)?;
                        Arc::new(edges)
                    }
                };

                timed(&mut self.tracker.compute, || {
                    let delivered =
                        self.state
                            .scatter(&edges, true, by_source, &mut self.tracker.scatter);
                    match i.cmp(&j) {
                        _ if !cross => {}
                        // Interval i is fully applied (its column came
                        // earlier), so cross-iteration propagation is
                        // legal.
                        Ordering::Less => {
                            served += self.state.scatter_ahead(
                                &edges,
                                by_source,
                                &mut self.tracker.scatter,
                            )
                        }
                        // Held in memory until interval j is applied.
                        Ordering::Equal => diagonal = Some(edges),
                        // The second pass wants these edges again.
                        Ordering::Greater => {
                            buffer.offer(i, j, edges, bytes, delivered);
                        }
                    }
                });
            }
            timed(&mut self.tracker.compute, || {
                self.state
                    .apply(grid.intervals().range(j), &mut self.tracker.apply);
                if let Some(edges) = diagonal {
                    served +=
                        self.state
                            .scatter_ahead(&edges, by_source, &mut self.tracker.scatter);
                }
            });
        }
        if cross {
            self.stats.cross_iter_edges += served;
            let iteration = self.next;
            self.emit(|| TraceEvent::FciuPass {
                iteration,
                edges_served: served,
            });
        }
        Ok(())
    }

    /// The on-demand pass (Algorithm 2; HUS-Graph's row-oriented push):
    /// fetches only `runs` — the active vertices' edge lists in `grid`,
    /// as planned by [`Driver::plan_runs`] — scatters the kept ranges and
    /// applies every interval at once. The loaded edges stay in memory, so
    /// with `cross` the re-activated vertices' next-iteration messages are
    /// scattered right away and those vertices leave the next frontier:
    /// their edges need not be read again. Returns the edges so served.
    pub fn selective_pass(
        &mut self,
        grid: &GridGraph,
        runs: Vec<(PrefetchRequest, Vec<Range<u32>>)>,
        cross: bool,
    ) -> std::io::Result<u64> {
        let mut loaded: Vec<Edge> = Vec::new();
        // The edges of one request, bridged gaps included.
        let mut fetched: Vec<Edge> = Vec::new();
        self.reads
            .begin_schedule(runs.iter().map(|&(request, _)| request).collect());
        for (request, keep) in &runs {
            self.load(grid, *request, &mut fetched)?;
            for kept in keep {
                loaded.extend_from_slice(&fetched[kept.start as usize..kept.end as usize]);
            }
        }

        let st = &self.state;
        let (served, done) = timed(&mut self.tracker.compute, || {
            // Sources are active by construction, no filter needed.
            st.scatter(&loaded, false, false, &mut self.tracker.scatter);
            st.apply(0..self.n, &mut self.tracker.apply);
            if !cross {
                return (0, Vec::new());
            }
            // `loaded` concatenates runs across sub-blocks: not sorted.
            let served = st.scatter_ahead(&loaded, false, &mut self.tracker.scatter);
            // Every re-activated vertex (out ∩ V_active) has all its
            // out-edges in `loaded`: its next-iteration scatter has been
            // fully performed.
            let done: Vec<u32> = st.out.iter().filter(|&v| st.frontier.contains(v)).collect();
            for &v in &done {
                st.out.remove(v);
            }
            (served, done)
        });
        self.state.pre_served.extend(done);
        self.stats.cross_iter_edges += served;
        Ok(served)
    }
}
