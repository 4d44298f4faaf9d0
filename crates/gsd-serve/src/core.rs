//! The single-threaded query executor behind the serve daemon.
//!
//! [`ServeCore`] owns one [`GridSession`] (the grid is opened and
//! verified exactly once, at daemon start), the shared
//! [`SubBlockCache`], the program context (vertex count and out-degree
//! table) and all accounting. Every query — point lookup, bounded
//! traversal, full analytic run or admin op — flows through
//! [`ServeCore::execute`]; concurrency lives entirely in `server.rs`,
//! which feeds this executor from a queue. Keeping the executor
//! single-threaded is what makes the determinism contract cheap: all
//! counters are plain integers and every response depends only on the
//! request and the grid, never on arrival interleaving.
//!
//! ## Frontier batching
//!
//! A bounded traversal is a [`VertexProgram`]: `khop(source, k)` is
//! [`gsd_algos::Bfs`] limited to `k` rounds, `ppr(seeds, α, iterations)`
//! is [`gsd_algos::Ppr`] with the wire's α. This module holds no
//! algorithm: per query it keeps the program's values, accumulator and
//! frontier and calls the runtime's [`scatter_sorted`] and
//! [`apply_range`] on them. What it decides is which bytes each program
//! runs over.
//!
//! [`ServeCore::execute_batch`] runs any number of concurrent traversals
//! as **one** sequence of BSP passes over the grid: each pass reads
//! every sub-block whose source interval intersects the *union* of the
//! active queries' frontiers — once — and scatters it into each query's
//! private accumulator, filtered by that query's own frontier; every
//! query applies at the end of the pass. Two traversals that would each
//! read a block solo share a single read batched.
//!
//! A block is never decoded into a second buffer: the pass keeps the
//! payload bytes it read (or found in the cache), and each query's
//! scatter walks them as an [`EncodedBySource`] view. On a sparse
//! frontier it gallops over the inactive runs and decodes only the edges
//! it sends; on a dense one it decodes each record in place.
//!
//! ## Per-query I/O charging
//!
//! Each pass charges block I/O to the queries that use the block: a
//! cache hit charges one hit to every user; a storage read charges the
//! miss (and the bytes) to the lowest-numbered user and a hit to every
//! other user — the shared read is free for everyone who piggybacks,
//! which is exactly the batching benefit, made visible per query in
//! [`TraceEvent::QueryCompleted`].
//!
//! ## Determinism contract
//!
//! Sub-blocks are visited in fixed `(i asc, j asc)` order and the grid
//! format stores each block's edges source-sorted (a grid laid out any
//! other way is refused at [`ServeCore::new`]), so the contributions
//! folded into any destination's accumulator arrive in ascending-source
//! order — the same order [`gsd_runtime::ReferenceEngine`] produces by
//! scattering frontier vertices in ascending order. Production and
//! oracle run the same program, so equal fold order is equal bits (f32
//! included); per-query frontier filtering makes a batched execution's
//! per-query fold sequence identical to a solo one. `tests/serve_e2e.rs`
//! pins both, and checks the answers against oracles that share no code
//! with the programs.

use crate::cache::SubBlockCache;
use crate::wire::{Request, Response, StatsBody};
use gsd_algos::{Bfs, Ppr, ProgramVisitor};
use gsd_core::{GraphSdConfig, GraphSdEngine, GridSession};
use gsd_delta::MutationBatch;
use gsd_graph::{BlockOrder, DeltaOp, EdgeCodec};
use gsd_runtime::kernels::{apply_range, scatter_sorted, EncodedBySource};
use gsd_runtime::{Engine, Frontier, ProgramContext, RunOptions, Value, ValueArray, VertexProgram};
use gsd_trace::{TraceEvent, TraceSink};
use std::ops::Range;
use std::sync::Arc;

/// Cumulative executor counters (all plain integers — the executor is
/// single-threaded by design).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Queries accepted since start.
    pub queries: u64,
    /// Cache hits charged to queries.
    pub cache_hits: u64,
    /// Cache misses charged to queries.
    pub cache_misses: u64,
    /// Bytes read from storage on behalf of queries.
    pub bytes_read: u64,
    /// Sub-blocks read from storage on behalf of queries.
    pub blocks_read: u64,
    /// Scatter passes executed by the batching scheduler.
    pub batch_passes: u64,
    /// Query-pass participations in passes shared by ≥ 2 queries.
    pub batched_queries: u64,
}

/// Per-query I/O charge, reported in [`TraceEvent::QueryCompleted`].
#[derive(Debug, Clone, Copy, Default)]
struct Charge {
    hits: u64,
    misses: u64,
    bytes: u64,
}

/// What the pass loop needs of one running traversal, whatever its
/// program — the erasure that lets one batch mix programs.
trait Running {
    /// Rounds left and a non-empty frontier.
    fn live(&self) -> bool;
    /// Whether any frontier vertex lies in `range`.
    fn active_in(&self, range: Range<u32>) -> bool;
    /// Scatters one sub-block's payload of `codec` records (the block's
    /// codec), filtered by this query's own frontier.
    fn scatter(&self, ctx: &ProgramContext, payload: &[u8], codec: EdgeCodec);
    /// The barrier ending a pass: apply what was scattered, rotate the
    /// frontier, spend a round.
    fn apply(&mut self, ctx: &ProgramContext);
    /// The finished traversal's response.
    fn reply(&self) -> Response;
}

/// One traversal: a program and the state the runtime kernels run it
/// over. One value array suffices because a pass applies only after
/// every block has been scattered.
struct Query<P: VertexProgram> {
    program: P,
    values: ValueArray<P::Value>,
    accum: ValueArray<P::Accum>,
    touched: Frontier,
    frontier: Frontier,
    rounds_left: u32,
    render: fn(&ValueArray<P::Value>) -> Response,
}

impl<P: VertexProgram + 'static> Query<P> {
    /// Initial state of `program`, to run for at most `rounds` passes.
    fn start(
        program: P,
        rounds: u32,
        ctx: &ProgramContext,
        render: fn(&ValueArray<P::Value>) -> Response,
    ) -> Result<Box<dyn Running>, String> {
        let n = ctx.num_vertices;
        let frontier = program
            .initial_frontier(ctx)
            .build(n)
            .map_err(|e| e.to_string())?;
        Ok(Box::new(Query {
            values: ValueArray::from_fn(n as usize, |v| program.init_value(v, ctx)),
            accum: ValueArray::new(n as usize, program.zero_accum()),
            touched: Frontier::empty(n),
            frontier,
            rounds_left: rounds,
            render,
            program,
        }))
    }
}

impl<P: VertexProgram> Running for Query<P> {
    fn live(&self) -> bool {
        self.rounds_left > 0 && !self.frontier.is_empty()
    }

    fn active_in(&self, range: Range<u32>) -> bool {
        self.frontier.iter_range(range).next().is_some()
    }

    fn scatter(&self, ctx: &ProgramContext, payload: &[u8], codec: EdgeCodec) {
        let p = &self.program;
        let (filter, values, accum, touched) =
            (&self.frontier, &self.values, &self.accum, &self.touched);
        gsd_graph::with_layout!(codec, <ID, WEIGHTED> => {
            let edges = EncodedBySource::<ID, WEIGHTED>::new(payload, codec);
            scatter_sorted(p, ctx, edges, filter, values, accum, touched);
        });
    }

    fn apply(&mut self, ctx: &ProgramContext) {
        let n = ctx.num_vertices;
        let next = Frontier::empty(n);
        apply_range(
            &self.program,
            ctx,
            0..n,
            self.program.apply_all(),
            &self.touched,
            &self.accum,
            &self.values,
            &next,
        );
        self.touched.clear();
        self.frontier = next;
        self.rounds_left -= 1;
    }

    fn reply(&self) -> Response {
        (self.render)(&self.values)
    }
}

/// `(v, keep(value))` for every vertex `keep` reports, ascending.
fn reported<V: Value>(values: &ValueArray<V>, keep: fn(V) -> Option<u32>) -> Vec<(u32, u32)> {
    (0..values.len() as u32)
        .filter_map(|v| keep(values.get(v)).map(|x| (v, x)))
        .collect()
}

/// The records `range` (edge indexes) of an encoded `payload`, or `None`
/// if the range runs past it.
fn edge_run(payload: &[u8], codec: EdgeCodec, range: Range<u32>) -> Option<&[u8]> {
    let sz = codec.edge_bytes();
    payload.get(range.start as usize * sz..range.end as usize * sz)
}

/// Validates one traversal request and starts its program; any other
/// request is refused.
fn start(request: &Request, ctx: &ProgramContext) -> Result<Box<dyn Running>, String> {
    let n = ctx.num_vertices;
    match request {
        Request::KHop { source, k } => {
            if *source >= n {
                return Err(format!("source {source} out of range"));
            }
            Query::start(Bfs::new(*source), *k, ctx, |depths| Response::Depths {
                depths: reported(depths, |d| (d != u32::MAX).then_some(d)),
            })
        }
        Request::Ppr {
            seeds,
            alpha_bits,
            iterations,
        } => {
            let alpha = f32::from_bits(*alpha_bits);
            if seeds.is_empty() {
                return Err("ppr needs at least one seed".to_string());
            }
            if let Some(bad) = seeds.iter().find(|&&s| s >= n) {
                return Err(format!("seed {bad} out of range"));
            }
            if !alpha.is_finite() || alpha <= 0.0 || alpha >= 1.0 {
                return Err(format!("alpha {alpha} outside (0, 1)"));
            }
            let program = Ppr::with_alpha(seeds.clone(), alpha, *iterations);
            Query::start(program, *iterations, ctx, |ranks| Response::Scores {
                scores: reported(ranks, |(rank, _)| (rank > 0.0).then(|| rank.to_bits())),
            })
        }
        Request::Ping
        | Request::Stats
        | Request::Degree { .. }
        | Request::Neighbors { .. }
        | Request::Run { .. }
        | Request::Mutate { .. }
        | Request::Compact
        | Request::Shutdown => Err(format!("{} is not a traversal", request.op())),
    }
}

/// One query of a batch: its running traversal (or why it has none)
/// and its I/O bill.
struct Active {
    query: Result<Box<dyn Running>, String>,
    charge: Charge,
}

/// The single-threaded serve executor: one open grid, one shared cache,
/// deterministic responses.
pub struct ServeCore {
    session: GridSession,
    ctx: ProgramContext,
    cache: SubBlockCache,
    sink: Arc<dyn TraceSink>,
    run_config: GraphSdConfig,
    next_query: u64,
    counters: ServeCounters,
}

fn err(message: impl Into<String>) -> Response {
    Response::Error {
        message: message.into(),
    }
}

/// The program context of the session's current epoch: one storage read
/// of the (overlay-merged) out-degree table.
fn load_context(session: &GridSession) -> std::io::Result<ProgramContext> {
    let degrees = session.grid().load_out_degrees()?;
    Ok(ProgramContext::new(
        session.meta().num_vertices,
        Arc::new(degrees),
    ))
}

impl ServeCore {
    /// Builds the executor over an already-open session, with a
    /// sub-block cache of `cache_bytes`. Loads the out-degree table
    /// (one storage read per epoch served) and emits
    /// [`TraceEvent::ServeStarted`].
    ///
    /// Refuses a grid that is not laid out [`BlockOrder::BySource`]:
    /// lookups need its row index and traversals its source-sorted
    /// blocks. `gsd preprocess` writes no other layout.
    pub fn new(
        session: GridSession,
        cache_bytes: u64,
        sink: Arc<dyn TraceSink>,
    ) -> std::io::Result<Self> {
        let order = session.meta().order;
        if order != BlockOrder::BySource {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!(
                    "the serve daemon needs a source-sorted grid (block order BySource); \
                     this grid is laid out {order:?} — re-run `gsd preprocess`"
                ),
            ));
        }
        let ctx = load_context(&session)?;
        let mut cache = SubBlockCache::new(cache_bytes);
        cache.set_trace(sink.clone());
        if sink.enabled() {
            sink.emit(&TraceEvent::ServeStarted {
                vertices: u64::from(session.meta().num_vertices),
                p: u64::from(session.meta().p),
            });
        }
        Ok(ServeCore {
            session,
            ctx,
            cache,
            sink,
            run_config: GraphSdConfig::default(),
            next_query: 0,
            counters: ServeCounters::default(),
        })
    }

    /// Sets the engine configuration `run` queries execute under — how
    /// `gsd serve --prefetch-depth / --checkpoint-every` reach the
    /// daemon's analytic runs. The default is [`GraphSdConfig::default`].
    pub fn set_run_config(&mut self, config: GraphSdConfig) {
        self.run_config = config;
    }

    /// The session the executor serves.
    pub fn session(&self) -> &GridSession {
        &self.session
    }

    /// Cumulative counters.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// The shared sub-block cache (diagnostics).
    pub fn cache(&self) -> &SubBlockCache {
        &self.cache
    }

    /// Flushes the trace sink (called by the server on shutdown so the
    /// last events reach disk before the process exits).
    pub fn flush_trace(&self) {
        self.sink.flush();
    }

    fn accept(&mut self, op: &'static str) -> u64 {
        let query = self.next_query;
        self.next_query += 1;
        self.counters.queries += 1;
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::QueryAccepted { query, op });
        }
        query
    }

    fn complete(&mut self, query: u64, op: &'static str, charge: Charge) {
        self.counters.cache_hits += charge.hits;
        self.counters.cache_misses += charge.misses;
        self.counters.bytes_read += charge.bytes;
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::QueryCompleted {
                query,
                op,
                cache_hits: charge.hits,
                cache_misses: charge.misses,
                bytes_read: charge.bytes,
            });
        }
    }

    /// Accepts a query, runs `work` for it, and completes it with the
    /// I/O `work` billed — the one accept → answer → complete sequence.
    fn billed(
        &mut self,
        op: &'static str,
        work: impl FnOnce(&mut Self, &mut Charge) -> Result<Response, String>,
    ) -> Response {
        let query = self.accept(op);
        let mut charge = Charge::default();
        let result = work(self, &mut charge);
        self.complete(query, op, charge);
        result.unwrap_or_else(err)
    }

    /// Executes one request. Traversals become a batch of one; the
    /// server coalesces concurrent traversals itself via
    /// [`ServeCore::execute_batch`].
    pub fn execute(&mut self, request: &Request) -> Response {
        let op = request.op();
        match request {
            Request::Ping => self.billed(op, |_, _| Ok(Response::Pong)),
            Request::Stats => self.billed(op, |core, _| Ok(core.stats())),
            Request::Degree { v } => self.billed(op, |core, _| core.degree(*v)),
            Request::Neighbors { v } => self.billed(op, |core, charge| core.neighbors(*v, charge)),
            Request::KHop { .. } | Request::Ppr { .. } => {
                let mut responses = self.execute_batch(std::slice::from_ref(request));
                responses.pop().unwrap_or_else(|| err("empty batch"))
            }
            Request::Run {
                algo,
                source,
                iterations,
            } => self.billed(op, |core, charge| {
                core.run_analytic(algo, *source, *iterations, charge)
            }),
            Request::Mutate { ops } => self.billed(op, |core, _| core.mutate(ops)),
            Request::Compact => self.billed(op, |core, _| core.compact()),
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    /// Commits a mutation batch as one delta epoch, then refreshes the
    /// served handle. Because the executor is single-threaded, the commit
    /// happens strictly between queries: every query sees a whole epoch
    /// or none of it.
    fn mutate(&mut self, ops: &[DeltaOp]) -> Result<Response, String> {
        for op in ops {
            if let DeltaOp::Insert(e) = op {
                if !e.weight.is_finite() {
                    return Err(format!(
                        "insert ({}, {}) carries a non-finite weight",
                        e.src, e.dst
                    ));
                }
            }
        }
        let batch = MutationBatch { ops: ops.to_vec() };
        let grid = self.session.grid();
        let storage = grid.storage().clone();
        let prefix = grid.prefix().to_owned();
        let report = gsd_delta::ingest(storage.as_ref(), &prefix, &batch, self.sink.as_ref())
            .map_err(|e| format!("ingest failed: {e}"))?;
        self.refresh()
            .map_err(|e| format!("reopen after ingest failed: {e}"))?;
        Ok(Response::Mutated {
            epoch: report.epoch,
            merged_edges: report.merged_num_edges,
            segments: report.segments,
        })
    }

    /// Folds the served grid's live delta segments into its base
    /// sub-blocks, then refreshes the served handle.
    fn compact(&mut self) -> Result<Response, String> {
        let grid = self.session.grid();
        let storage = grid.storage().clone();
        let prefix = grid.prefix().to_owned();
        let epoch = grid.delta_epoch();
        let report = gsd_delta::compact(&storage, &prefix, self.sink.as_ref())
            .map_err(|e| format!("compaction failed: {e}"))?;
        match report {
            Some(report) => {
                self.refresh()
                    .map_err(|e| format!("reopen after compaction failed: {e}"))?;
                Ok(Response::Compacted {
                    epoch: report.epoch,
                    segments_folded: report.segments_folded,
                    objects_rewritten: report.objects_rewritten,
                    fingerprint: report.fingerprint,
                })
            }
            None => Ok(Response::Compacted {
                epoch,
                segments_folded: 0,
                objects_rewritten: 0,
                fingerprint: 0,
            }),
        }
    }

    /// Re-opens the session (new overlay), reloads the merged out-degree
    /// table and drops every cached sub-block of the previous epoch.
    fn refresh(&mut self) -> std::io::Result<()> {
        self.session.reopen()?;
        self.ctx = load_context(&self.session)?;
        self.cache.clear();
        Ok(())
    }

    /// Server-wide counter snapshot.
    pub fn stats(&self) -> Response {
        let meta = self.session.meta();
        let c = self.counters;
        Response::Stats(StatsBody {
            vertices: u64::from(meta.num_vertices),
            edges: meta.num_edges,
            p: u64::from(meta.p),
            queries: c.queries,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            cache_bytes: self.cache.used(),
            cache_entries: self.cache.len() as u64,
            bytes_read: c.bytes_read,
            blocks_read: c.blocks_read,
            batch_passes: c.batch_passes,
            batched_queries: c.batched_queries,
        })
    }

    fn degree(&self, v: u32) -> Result<Response, String> {
        match self.ctx.out_degrees.get(v as usize) {
            Some(&degree) => Ok(Response::Degree { degree }),
            None => Err(format!("vertex {v} out of range")),
        }
    }

    /// Out-neighbors of `v`, sorted: one row of the row index plus one
    /// edge run per non-empty sub-block of `v`'s row.
    fn neighbors(&mut self, v: u32, charge: &mut Charge) -> Result<Response, String> {
        let grid = self.session.grid().clone();
        let meta = grid.meta();
        let n = meta.num_vertices;
        if v >= n {
            return Err(format!("vertex {v} out of range (graph has {n} vertices)"));
        }
        let p = meta.p;
        let i = grid.intervals().interval_of(v);
        let mut neighbors = Vec::new();
        let mut scratch = Vec::new();
        let mut edges = Vec::new();
        let span = grid
            .read_row_index_span(i, v, v)
            .map_err(|e| format!("row index read failed: {e}"))?;
        // Two index rows of p u32 entries each.
        charge.bytes += 2 * u64::from(p) * 4;
        for j in 0..p {
            if meta.block_edge_count(i, j) == 0 {
                continue;
            }
            let range = span.edge_range(v, j);
            let codec = grid.block_codec(i, j);
            // Opportunistic cache use: lookups never admit (a point
            // lookup is no evidence of repeated demand), but they do
            // ride on blocks the traversal scheduler made resident, and
            // decode only `v`'s run of them.
            if let Some(block) = self.cache.get(i, j) {
                charge.hits += 1;
                let run = edge_run(&block, codec, range)
                    .ok_or_else(|| format!("row index names edges past block ({i},{j})"))?;
                neighbors.extend(
                    run.chunks_exact(codec.edge_bytes())
                        .map(|c| codec.decode(c).dst),
                );
                continue;
            }
            if range.is_empty() {
                continue;
            }
            let count = range.end - range.start;
            edges.clear();
            grid.read_edge_run(i, j, range.start, count, &mut scratch, &mut edges)
                .map_err(|e| format!("edge run read failed: {e}"))?;
            charge.misses += 1;
            charge.bytes += u64::from(count) * codec.edge_bytes() as u64;
            neighbors.extend(edges.iter().map(|e| e.dst));
        }
        neighbors.sort_unstable();
        neighbors.dedup();
        Ok(Response::Neighbors { neighbors })
    }

    /// Runs the traversal requests `queries` (`KHop`, `Ppr`) as one
    /// batched sequence of BSP passes over the grid. Responses are
    /// positionally aligned with `queries` and are byte-identical to
    /// executing each query alone (see the module docs for why); any
    /// other request is answered with an error.
    pub fn execute_batch(&mut self, queries: &[Request]) -> Vec<Response> {
        let mut ids = Vec::with_capacity(queries.len());
        let mut batch = Vec::with_capacity(queries.len());
        for request in queries {
            let op = request.op();
            ids.push((self.accept(op), op));
            batch.push(Active {
                query: start(request, &self.ctx),
                charge: Charge::default(),
            });
        }

        self.run_passes(&mut batch);

        let mut responses = Vec::with_capacity(queries.len());
        for ((query, op), active) in ids.into_iter().zip(batch) {
            let (response, charge) = match active.query {
                Err(message) => (err(message), Charge::default()),
                Ok(running) => (running.reply(), active.charge),
            };
            self.complete(query, op, charge);
            responses.push(response);
        }
        responses
    }

    /// The batching scheduler: repeats union-frontier passes until every
    /// query has exhausted its rounds or gone quiescent.
    fn run_passes(&mut self, batch: &mut [Active]) {
        let grid = self.session.grid().clone();
        let meta = grid.meta();
        let p = meta.p;
        let intervals = grid.intervals().clone();
        let ctx = self.ctx.clone();
        let mut scratch = Vec::new();
        loop {
            // Queries still traversing this pass, in query order (the
            // order also breaks ties for miss charging: lowest id pays).
            let active: Vec<usize> = batch
                .iter()
                .enumerate()
                .filter_map(|(idx, a)| match &a.query {
                    Ok(q) if q.live() => Some(idx),
                    _ => None,
                })
                .collect();
            if active.is_empty() {
                return;
            }
            self.counters.batch_passes += 1;
            if active.len() >= 2 {
                self.counters.batched_queries += active.len() as u64;
            }

            // Which active queries have frontier vertices in interval i.
            let users_of_row = |batch: &[Active], i: u32| -> Vec<usize> {
                active
                    .iter()
                    .copied()
                    .filter(|&idx| match &batch[idx].query {
                        Ok(q) => q.active_in(intervals.range(i)),
                        Err(_) => false,
                    })
                    .collect()
            };

            for i in 0..p {
                let users = users_of_row(batch, i);
                if users.is_empty() {
                    continue;
                }
                for j in 0..p {
                    if meta.block_edge_count(i, j) == 0 {
                        continue;
                    }
                    let bytes = meta.block_bytes(i, j);
                    let hit = self.cache.get(i, j);
                    let payload: &[u8] = match &hit {
                        Some(block) => {
                            for &idx in &users {
                                batch[idx].charge.hits += 1;
                            }
                            block
                        }
                        None => {
                            let payload = match grid.read_block_payload(i, j, &mut scratch) {
                                Ok(payload) => payload,
                                Err(e) => {
                                    let message = format!("block ({i},{j}) read failed: {e}");
                                    for &idx in &users {
                                        batch[idx].query = Err(message.clone());
                                    }
                                    continue;
                                }
                            };
                            self.counters.blocks_read += 1;
                            // The read is charged once, to the
                            // lowest-numbered user; everyone else
                            // piggybacks and books a hit.
                            for (rank, &idx) in users.iter().enumerate() {
                                let charge = &mut batch[idx].charge;
                                if rank == 0 {
                                    charge.misses += 1;
                                    charge.bytes += bytes;
                                } else {
                                    charge.hits += 1;
                                }
                            }
                            self.cache.offer(i, j, payload, users.len() as u64);
                            payload
                        }
                    };
                    let codec = grid.block_codec(i, j);
                    for &idx in &users {
                        if let Ok(q) = &batch[idx].query {
                            q.scatter(&ctx, payload, codec);
                        }
                    }
                }
            }

            // Apply at the barrier, per query.
            for &idx in &active {
                if let Ok(q) = &mut batch[idx].query {
                    q.apply(&ctx);
                }
            }
        }
    }

    /// Full analytic run via a fresh engine over the shared session,
    /// under the configuration [`ServeCore::set_run_config`] installed:
    /// a daemon started with `--checkpoint-every` restarts runs through
    /// the checkpoint store exactly like `gsd run` does.
    fn run_analytic(
        &mut self,
        algo: &str,
        source: u32,
        iterations: u32,
        charge: &mut Charge,
    ) -> Result<Response, String> {
        let mut engine = self
            .session
            .engine(self.run_config.clone())
            .map_err(|e| format!("engine setup failed: {e}"))?;
        engine.set_trace(self.sink.clone());
        let options = RunOptions {
            max_iterations: (iterations > 0).then_some(iterations),
            iteration_cap: None,
        };
        let summarize = Summarize {
            algo,
            engine,
            options,
            charge,
        };
        gsd_algos::with_program(algo, source, summarize)?
    }
}

/// The daemon's `run`: one engine run of whichever program the name
/// resolved to, summarized.
struct Summarize<'a> {
    algo: &'a str,
    engine: GraphSdEngine,
    options: RunOptions,
    charge: &'a mut Charge,
}

impl ProgramVisitor for Summarize<'_> {
    type Output = Result<Response, String>;

    fn visit<P: VertexProgram>(mut self, program: &P) -> Self::Output {
        let result = self
            .engine
            .run(program, &self.options)
            .map_err(|e| format!("run failed: {e}"))?;
        self.charge.bytes = result.stats.io.read_bytes();
        Ok(Response::RunSummary {
            algorithm: self.algo.to_string(),
            iterations: result.stats.iterations,
            fingerprint: gsd_runtime::value_fingerprint(&result.values),
            bytes_read: self.charge.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::{preprocess, Edge, GeneratorConfig, GraphKind, PreprocessConfig, VerifyPolicy};
    use gsd_io::{MemStorage, SharedStorage};
    use gsd_trace::RingRecorder;

    fn core_over(graph: &gsd_graph::Graph, cache_bytes: u64) -> (ServeCore, Arc<RingRecorder>) {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(graph, storage.as_ref(), &PreprocessConfig::graphsd("")).unwrap();
        let session = GridSession::open(
            storage,
            VerifyPolicy::Off,
            gsd_graph::CorruptionResponse::default(),
        )
        .unwrap();
        let rec = Arc::new(RingRecorder::new(4096));
        let core = ServeCore::new(session, cache_bytes, rec.clone()).unwrap();
        (core, rec)
    }

    fn tiny() -> gsd_graph::Graph {
        GeneratorConfig::new(GraphKind::RMat, 120, 900, 5).generate()
    }

    #[test]
    fn a_grid_that_is_not_source_sorted_is_refused_at_open() {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(&tiny(), storage.as_ref(), &PreprocessConfig::lumos("")).unwrap();
        let session = GridSession::open(
            storage,
            VerifyPolicy::Off,
            gsd_graph::CorruptionResponse::default(),
        )
        .unwrap();
        let Err(e) = ServeCore::new(session, 1 << 20, gsd_trace::null_sink()) else {
            panic!("a Lumos-layout grid must be refused");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::Unsupported);
        assert!(e.to_string().contains("Unsorted"), "names the layout: {e}");
    }

    #[test]
    fn ping_stats_degree_and_errors() {
        let (mut core, rec) = core_over(&tiny(), 1 << 20);
        assert_eq!(core.execute(&Request::Ping), Response::Pong);
        assert!(matches!(
            core.execute(&Request::Degree { v: 0 }),
            Response::Degree { .. }
        ));
        assert!(matches!(
            core.execute(&Request::Degree { v: 10_000 }),
            Response::Error { .. }
        ));
        let Response::Stats(stats) = core.execute(&Request::Stats) else {
            panic!("stats");
        };
        assert_eq!(stats.vertices, 120);
        assert_eq!(stats.queries, 4, "stats counts itself too");
        assert_eq!(rec.count_kind("serve_started"), 1);
        assert_eq!(rec.count_kind("query_accepted"), 4);
        assert_eq!(rec.count_kind("query_completed"), 4);
    }

    /// `neighbors` is the graph's own sorted list for every vertex, read
    /// cold and from a warm cache. A warm lookup decodes `v`'s run of each
    /// resident block and is charged one hit per non-empty block of its
    /// row.
    #[test]
    fn neighbors_are_sorted_and_match_the_graph() {
        let graph = tiny();
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); 120];
        for e in graph.edges() {
            want[e.src as usize].push(e.dst);
        }
        for w in &mut want {
            w.sort_unstable();
            w.dedup();
        }
        let (mut cold, _) = core_over(&graph, 0);
        let (mut warm, _) = core_over(&graph, 1 << 20);
        // Every vertex is a source: each pass reads every non-empty block,
        // and the 1 MiB cache keeps them all.
        warm.execute(&Request::Ppr {
            seeds: (0..120).collect(),
            alpha_bits: 0.85f32.to_bits(),
            iterations: 1,
        });
        let meta = warm.session().meta().clone();
        let resident = (0..meta.p)
            .flat_map(|j| (0..meta.p).map(move |i| (i, j)))
            .filter(|&(i, j)| meta.block_edge_count(i, j) > 0)
            .count();
        assert_eq!(warm.cache().len(), resident, "every block is resident");
        for v in 0..120u32 {
            let hits = warm.counters().cache_hits;
            let got = warm.execute(&Request::Neighbors { v });
            let row = warm.session().grid().intervals().interval_of(v);
            let row_blocks = (0..meta.p)
                .filter(|&j| meta.block_edge_count(row, j) > 0)
                .count() as u64;
            assert_eq!(warm.counters().cache_hits - hits, row_blocks, "vertex {v}");
            let want = Response::Neighbors {
                neighbors: want[v as usize].clone(),
            };
            assert_eq!(got, want, "vertex {v}");
            assert_eq!(cold.execute(&Request::Neighbors { v }), want, "vertex {v}");
        }
        assert_eq!(cold.counters().cache_hits, 0);
    }

    #[test]
    fn khop_matches_reference_bfs_bit_for_bit() {
        let graph = tiny();
        let (mut core, _) = core_over(&graph, 1 << 20);
        let mut reference = gsd_runtime::ReferenceEngine::new(&graph);
        for (source, k) in [(0u32, 1u32), (3, 2), (9, 4)] {
            let got = core.execute(&Request::KHop { source, k });
            let oracle = reference
                .run(
                    &Bfs::new(source),
                    &RunOptions {
                        max_iterations: Some(k),
                        iteration_cap: None,
                    },
                )
                .unwrap();
            let want: Vec<(u32, u32)> = oracle
                .values
                .iter()
                .enumerate()
                .filter(|(_, &d)| d != u32::MAX)
                .map(|(v, &d)| (v as u32, d))
                .collect();
            assert_eq!(got, Response::Depths { depths: want }, "khop({source},{k})");
        }
    }

    #[test]
    fn ppr_matches_reference_program_bit_for_bit() {
        let graph = tiny();
        let (mut core, _) = core_over(&graph, 1 << 20);
        let mut reference = gsd_runtime::ReferenceEngine::new(&graph);
        let seeds = vec![4u32, 17, 4];
        let iterations = 3;
        let got = core.execute(&Request::Ppr {
            seeds: seeds.clone(),
            alpha_bits: 0.85f32.to_bits(),
            iterations,
        });
        let oracle = reference
            .run_default(&gsd_algos::Ppr::new(seeds, iterations))
            .unwrap();
        let want: Vec<(u32, u32)> = oracle
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.0 > 0.0)
            .map(|(v, val)| (v as u32, val.0.to_bits()))
            .collect();
        assert_eq!(got, Response::Scores { scores: want });
    }

    #[test]
    fn batched_execution_is_identical_to_solo_and_reads_less() {
        let graph = tiny();
        let queries = vec![
            Request::KHop { source: 0, k: 3 },
            Request::Ppr {
                seeds: vec![5, 9],
                alpha_bits: 0.85f32.to_bits(),
                iterations: 3,
            },
            Request::KHop { source: 31, k: 2 },
        ];

        // Solo: fresh core per query so no cache effects leak between.
        let mut solo_responses = Vec::new();
        let mut solo_blocks = 0;
        for q in &queries {
            let (mut core, _) = core_over(&graph, 0);
            let mut r = core.execute_batch(std::slice::from_ref(q));
            solo_responses.push(r.pop().unwrap());
            solo_blocks += core.counters().blocks_read;
        }

        // Batched, with a cache too small to help (0 bytes): the saving
        // is pure frontier batching.
        let (mut core, _) = core_over(&graph, 0);
        let batched = core.execute_batch(&queries);
        assert_eq!(batched, solo_responses, "batched == solo, bit for bit");
        let c = core.counters();
        assert!(
            c.blocks_read < solo_blocks,
            "batching must merge reads: {} batched vs {} solo",
            c.blocks_read,
            solo_blocks
        );
        assert!(c.batched_queries >= 2, "shared passes must be recorded");
        assert!(c.batch_passes > 0);
    }

    #[test]
    fn run_analytic_fingerprint_is_stable() {
        let graph = tiny();
        let (mut core, _) = core_over(&graph, 1 << 20);
        let req = Request::Run {
            algo: "pagerank".to_string(),
            source: 0,
            iterations: 5,
        };
        let a = core.execute(&req);
        let b = core.execute(&req);
        assert_eq!(a, b, "repeated runs summarize identically");
        assert!(matches!(a, Response::RunSummary { iterations: 5, .. }));
        assert!(matches!(
            core.execute(&Request::Run {
                algo: "nope".to_string(),
                source: 0,
                iterations: 0
            }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn mutate_commits_an_epoch_and_queries_see_it() {
        let (mut core, rec) = core_over(&tiny(), 1 << 20);
        // Warm the cache so the refresh has something to drop.
        core.execute(&Request::KHop { source: 0, k: 2 });
        assert!(!core.cache().is_empty());

        // Insert an edge to a vertex nothing else points at uniquely.
        let resp = core.execute(&Request::Neighbors { v: 5 });
        let Response::Neighbors { neighbors: before } = resp else {
            panic!("{resp:?}");
        };
        let ops = vec![
            DeltaOp::Insert(Edge::weighted(5, 99, 1.0)),
            DeltaOp::Delete { src: 0, dst: 1 },
        ];
        let resp = core.execute(&Request::Mutate { ops: ops.clone() });
        let Response::Mutated {
            epoch, segments, ..
        } = resp
        else {
            panic!("{resp:?}");
        };
        assert_eq!(epoch, 1);
        assert!(segments >= 1);
        assert!(core.cache().is_empty(), "stale blocks must be dropped");
        assert_eq!(core.session().grid().delta_epoch(), 1);

        // The merged view answers immediately.
        let resp = core.execute(&Request::Neighbors { v: 5 });
        let Response::Neighbors { neighbors: after } = resp else {
            panic!("{resp:?}");
        };
        let mut want = before;
        want.push(99);
        want.sort_unstable();
        want.dedup();
        assert_eq!(after, want);
        assert!(matches!(
            core.execute(&Request::Neighbors { v: 0 }),
            Response::Neighbors { neighbors } if !neighbors.contains(&1)
        ));
        assert_eq!(rec.count_kind("delta_applied"), 1);

        // Compaction folds the segments; answers are unchanged.
        let resp = core.execute(&Request::Compact);
        let Response::Compacted {
            epoch,
            segments_folded,
            ..
        } = resp
        else {
            panic!("{resp:?}");
        };
        assert_eq!(epoch, 1);
        assert!(segments_folded >= 1);
        assert!(core.session().grid().overlay().is_none());
        let resp = core.execute(&Request::Neighbors { v: 5 });
        let Response::Neighbors { neighbors: folded } = resp else {
            panic!("{resp:?}");
        };
        assert_eq!(folded, want);
        assert_eq!(rec.count_kind("compaction_finished"), 1);

        // A second compact is a no-op answered with zero counters.
        assert_eq!(
            core.execute(&Request::Compact),
            Response::Compacted {
                epoch: 1,
                segments_folded: 0,
                objects_rewritten: 0,
                fingerprint: 0
            }
        );

        // Out-of-range mutations are rejected without committing.
        assert!(matches!(
            core.execute(&Request::Mutate {
                ops: vec![DeltaOp::Insert(Edge::weighted(0, 5_000_000, 1.0))]
            }),
            Response::Error { .. }
        ));
        assert_eq!(core.session().grid().delta_epoch(), 1);
    }

    #[test]
    fn cache_serves_repeat_traversals() {
        let graph = tiny();
        let (mut core, rec) = core_over(&graph, 8 << 20);
        core.execute(&Request::KHop { source: 0, k: 3 });
        let cold = core.counters();
        assert!(cold.cache_misses > 0, "cold run misses");
        core.execute(&Request::KHop { source: 0, k: 3 });
        let warm = core.counters();
        assert!(
            warm.cache_hits > cold.cache_hits,
            "warm run hits the shared cache"
        );
        assert!(rec.count_kind("cache_admit") > 0);
    }
}
