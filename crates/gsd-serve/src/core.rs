//! The single-threaded query executor behind the serve daemon.
//!
//! [`ServeCore`] owns one [`GridSession`] (the grid is opened and
//! verified exactly once, at daemon start), the shared
//! [`SubBlockCache`], the out-degree table and all accounting. Every
//! query — point lookup, bounded traversal, full analytic run or admin
//! op — flows through [`ServeCore::execute`]; concurrency lives entirely
//! in `server.rs`, which feeds this executor from a queue. Keeping the
//! executor single-threaded is what makes the determinism contract
//! cheap: all counters are plain integers and every response depends
//! only on the request and the grid, never on arrival interleaving.
//!
//! ## Frontier batching
//!
//! [`ServeCore::execute_batch`] runs any number of concurrent bounded
//! traversals (k-hop BFS, personalized PageRank) as **one** sequence of
//! BSP passes over the grid: each pass reads every sub-block whose
//! source interval intersects the *union* of the active queries'
//! frontiers — once — and scatters it into each query's private
//! accumulator, filtered by that query's own frontier. Two traversals
//! that would each read a block solo share a single read batched.
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
//! format stores each block's edges source-sorted, so the contributions
//! folded into any destination's accumulator arrive in ascending-source
//! order — the same order [`gsd_runtime::ReferenceEngine`] produces by
//! scattering frontier vertices in ascending order. Per-query frontier
//! filtering makes a batched execution's per-query fold sequence
//! identical to a solo one. Both equalities are bit-exact (f32 included)
//! and pinned by `tests/serve_e2e.rs`.

use crate::cache::SubBlockCache;
use crate::wire::{MutateOp, Request, Response, StatsBody};
use gsd_algos::{Bfs, ConnectedComponents, PageRank, PageRankDelta, Sssp};
use gsd_core::{GraphSdConfig, GridSession};
use gsd_delta::MutationBatch;
use gsd_runtime::{Engine, Frontier, RunOptions, Value};
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;

/// A bounded traversal the batching scheduler can coalesce.
#[derive(Debug, Clone, PartialEq)]
pub enum Traversal {
    /// Depths of every vertex within `k` hops of `source`.
    KHop {
        /// Traversal root.
        source: u32,
        /// Hop bound.
        k: u32,
    },
    /// Personalized PageRank from `seeds`, truncated at `iterations`
    /// propagation rounds.
    Ppr {
        /// Seed vertices.
        seeds: Vec<u32>,
        /// Damping factor.
        alpha: f32,
        /// Propagation rounds.
        iterations: u32,
    },
}

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

/// Per-query state inside one batched execution.
enum QueryState {
    KHop {
        depth: Vec<u32>,
        accum: Vec<u32>,
    },
    Ppr {
        rank: Vec<f32>,
        delta: Vec<f32>,
        accum: Vec<f32>,
        alpha: f32,
    },
}

struct ActiveQuery {
    state: QueryState,
    frontier: Frontier,
    rounds_left: u32,
    charge: Charge,
}

/// The single-threaded serve executor: one open grid, one shared cache,
/// deterministic responses.
pub struct ServeCore {
    session: GridSession,
    degrees: Arc<Vec<u32>>,
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

impl ServeCore {
    /// Builds the executor over an already-open session, with a
    /// sub-block cache of `cache_bytes`. Loads the out-degree table
    /// (one storage read for the daemon's whole lifetime) and emits
    /// [`TraceEvent::ServeStarted`].
    pub fn new(
        session: GridSession,
        cache_bytes: u64,
        sink: Arc<dyn TraceSink>,
    ) -> std::io::Result<Self> {
        let degrees = Arc::new(session.grid().load_out_degrees()?);
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
            degrees,
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

    /// Executes one request. Traversals become a batch of one; the
    /// server coalesces concurrent traversals itself via
    /// [`ServeCore::execute_batch`].
    pub fn execute(&mut self, request: &Request) -> Response {
        match request {
            Request::Ping => {
                let q = self.accept("ping");
                self.complete(q, "ping", Charge::default());
                Response::Pong
            }
            Request::Stats => {
                let q = self.accept("stats");
                self.complete(q, "stats", Charge::default());
                self.stats()
            }
            Request::Degree { v } => self.degree(*v),
            Request::Neighbors { v } => self.neighbors(*v),
            Request::KHop { source, k } => {
                let mut responses = self.execute_batch(&[Traversal::KHop {
                    source: *source,
                    k: *k,
                }]);
                responses.pop().unwrap_or_else(|| err("empty batch"))
            }
            Request::Ppr {
                seeds,
                alpha_bits,
                iterations,
            } => {
                let mut responses = self.execute_batch(&[Traversal::Ppr {
                    seeds: seeds.clone(),
                    alpha: f32::from_bits(*alpha_bits),
                    iterations: *iterations,
                }]);
                responses.pop().unwrap_or_else(|| err("empty batch"))
            }
            Request::Run {
                algo,
                source,
                iterations,
            } => self.run_analytic(algo, *source, *iterations),
            Request::Mutate { ops } => self.mutate(ops),
            Request::Compact => self.compact(),
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    /// Commits a mutation batch as one delta epoch, then refreshes the
    /// served handle. Because the executor is single-threaded, the commit
    /// happens strictly between queries: every query sees a whole epoch
    /// or none of it.
    fn mutate(&mut self, ops: &[MutateOp]) -> Response {
        let q = self.accept("mutate");
        let result = self.mutate_inner(ops);
        self.complete(q, "mutate", Charge::default());
        result.unwrap_or_else(err)
    }

    fn mutate_inner(&mut self, ops: &[MutateOp]) -> Result<Response, String> {
        let mut batch = MutationBatch::new();
        for op in ops {
            match op.op {
                0 => {
                    let weight = f32::from_bits(op.weight_bits);
                    if !weight.is_finite() {
                        return Err(format!(
                            "insert ({}, {}) carries a non-finite weight",
                            op.src, op.dst
                        ));
                    }
                    batch.insert(op.src, op.dst, weight)
                }
                _ => batch.delete(op.src, op.dst),
            };
        }
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
    fn compact(&mut self) -> Response {
        let q = self.accept("compact");
        let result = self.compact_inner();
        self.complete(q, "compact", Charge::default());
        result.unwrap_or_else(err)
    }

    fn compact_inner(&mut self) -> Result<Response, String> {
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
        self.degrees = Arc::new(self.session.grid().load_out_degrees()?);
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

    fn degree(&mut self, v: u32) -> Response {
        let q = self.accept("degree");
        let Some(&degree) = self.degrees.get(v as usize) else {
            self.complete(q, "degree", Charge::default());
            return err(format!("vertex {v} out of range"));
        };
        self.complete(q, "degree", Charge::default());
        Response::Degree { degree }
    }

    fn neighbors(&mut self, v: u32) -> Response {
        let q = self.accept("neighbors");
        let mut charge = Charge::default();
        let result = self.neighbors_inner(v, &mut charge);
        self.complete(q, "neighbors", charge);
        match result {
            Ok(neighbors) => Response::Neighbors { neighbors },
            Err(e) => err(e),
        }
    }

    fn neighbors_inner(&mut self, v: u32, charge: &mut Charge) -> Result<Vec<u32>, String> {
        let grid = self.session.grid().clone();
        let meta = grid.meta();
        let n = meta.num_vertices;
        if v >= n {
            return Err(format!("vertex {v} out of range (graph has {n} vertices)"));
        }
        let p = meta.p;
        let edge_bytes = grid.codec().edge_bytes() as u64;
        let i = grid.intervals().interval_of(v);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let mut edges = Vec::new();
        // The source-sorted format answers a lookup with one row of the
        // row index plus one edge run per non-empty sub-block; otherwise
        // scan row i of the grid.
        let span = if meta.order.has_row_index() {
            match grid.read_row_index_span(i, v, v) {
                Ok(span) => {
                    // Two index rows of p u32 entries each.
                    charge.bytes += 2 * u64::from(p) * 4;
                    Some(span)
                }
                Err(e) => return Err(format!("row index read failed: {e}")),
            }
        } else {
            None
        };
        for j in 0..p {
            if meta.block_edge_count(i, j) == 0 {
                continue;
            }
            // Opportunistic cache use: lookups never admit (a point
            // lookup is no evidence of repeated demand), but they do
            // ride on blocks the traversal scheduler made resident.
            if let Some(block) = self.cache.get(i, j) {
                charge.hits += 1;
                out.extend(block.iter().filter(|e| e.src == v).map(|e| e.dst));
                continue;
            }
            match &span {
                Some(span) => {
                    let range = span.edge_range(v, j);
                    if range.is_empty() {
                        continue;
                    }
                    let count = range.end - range.start;
                    edges.clear();
                    grid.read_edge_run(i, j, range.start, count, &mut scratch, &mut edges)
                        .map_err(|e| format!("edge run read failed: {e}"))?;
                    charge.misses += 1;
                    charge.bytes += u64::from(count) * edge_bytes;
                    out.extend(edges.iter().map(|e| e.dst));
                }
                None => {
                    grid.read_block_into(i, j, &mut scratch, &mut edges)
                        .map_err(|e| format!("block read failed: {e}"))?;
                    charge.misses += 1;
                    charge.bytes += meta.block_bytes(i, j);
                    self.counters.blocks_read += 1;
                    out.extend(edges.iter().filter(|e| e.src == v).map(|e| e.dst));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Runs `queries` as one batched sequence of BSP passes over the
    /// grid. Responses are positionally aligned with `queries` and are
    /// byte-identical to executing each query alone (see the module
    /// docs for why).
    pub fn execute_batch(&mut self, queries: &[Traversal]) -> Vec<Response> {
        let meta = self.session.meta();
        let n = meta.num_vertices;
        let sorted_grid = meta.order == gsd_graph::BlockOrder::BySource;
        let mut ids = Vec::with_capacity(queries.len());
        let mut states: Vec<Result<ActiveQuery, String>> = Vec::with_capacity(queries.len());
        for t in queries {
            let op = match t {
                Traversal::KHop { .. } => "khop",
                Traversal::Ppr { .. } => "ppr",
            };
            ids.push((self.accept(op), op));
            if !sorted_grid {
                states.push(Err(
                    "traversals require a source-sorted grid format".to_string()
                ));
                continue;
            }
            states.push(init_query(t, n));
        }

        self.run_passes(&mut states);

        let mut responses = Vec::with_capacity(queries.len());
        for ((query, op), state) in ids.into_iter().zip(states) {
            let (response, charge) = match state {
                Err(message) => (err(message), Charge::default()),
                Ok(active) => (render(&active), active.charge),
            };
            self.complete(query, op, charge);
            responses.push(response);
        }
        responses
    }

    /// The batching scheduler: repeats union-frontier passes until every
    /// query has exhausted its rounds or gone quiescent.
    fn run_passes(&mut self, states: &mut [Result<ActiveQuery, String>]) {
        let grid = self.session.grid().clone();
        let meta = grid.meta();
        let n = meta.num_vertices;
        let p = meta.p;
        let intervals = grid.intervals().clone();
        let mut scratch = Vec::new();
        loop {
            // Queries still traversing this pass, in query order (the
            // order also breaks ties for miss charging: lowest id pays).
            let active: Vec<usize> = states
                .iter()
                .enumerate()
                .filter_map(|(idx, s)| match s {
                    Ok(a) if a.rounds_left > 0 && !a.frontier.is_empty() => Some(idx),
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
            let users_of_row = |states: &[Result<ActiveQuery, String>], i: u32| -> Vec<usize> {
                active
                    .iter()
                    .copied()
                    .filter(|&idx| match &states[idx] {
                        Ok(a) => a.frontier.iter_range(intervals.range(i)).next().is_some(),
                        Err(_) => false,
                    })
                    .collect()
            };

            for i in 0..p {
                let users = users_of_row(states, i);
                if users.is_empty() {
                    continue;
                }
                for j in 0..p {
                    if meta.block_edge_count(i, j) == 0 {
                        continue;
                    }
                    let bytes = meta.block_bytes(i, j);
                    let block = match self.cache.get(i, j) {
                        Some(block) => {
                            for &idx in &users {
                                if let Ok(a) = &mut states[idx] {
                                    a.charge.hits += 1;
                                }
                            }
                            block
                        }
                        None => {
                            let mut edges = Vec::new();
                            if let Err(e) = grid.read_block_into(i, j, &mut scratch, &mut edges) {
                                let message = format!("block ({i},{j}) read failed: {e}");
                                for &idx in &users {
                                    states[idx] = Err(message.clone());
                                }
                                continue;
                            }
                            self.counters.blocks_read += 1;
                            // The read is charged once, to the
                            // lowest-numbered user; everyone else
                            // piggybacks and books a hit.
                            for (rank, &idx) in users.iter().enumerate() {
                                if let Ok(a) = &mut states[idx] {
                                    if rank == 0 {
                                        a.charge.misses += 1;
                                        a.charge.bytes += bytes;
                                    } else {
                                        a.charge.hits += 1;
                                    }
                                }
                            }
                            let block = Arc::new(edges);
                            self.cache
                                .offer(i, j, block.clone(), bytes, users.len() as u64);
                            block
                        }
                    };
                    for &idx in &users {
                        if let Ok(a) = &mut states[idx] {
                            scatter_block(a, &block, &self.degrees);
                        }
                    }
                }
            }

            // Apply at the barrier, per query.
            for &idx in &active {
                if let Ok(a) = &mut states[idx] {
                    apply_round(a, n);
                }
            }
        }
    }

    /// Full analytic run via a fresh engine over the shared session,
    /// under the configuration [`ServeCore::set_run_config`] installed:
    /// a daemon started with `--checkpoint-every` restarts runs through
    /// the checkpoint store exactly like `gsd run` does.
    fn run_analytic(&mut self, algo: &str, source: u32, iterations: u32) -> Response {
        let q = self.accept("run");
        let options = RunOptions {
            max_iterations: (iterations > 0).then_some(iterations),
            iteration_cap: None,
        };
        let result = self.run_analytic_inner(algo, source, &options);
        let charge = match &result {
            Ok((_, _, bytes)) => Charge {
                bytes: *bytes,
                ..Charge::default()
            },
            Err(_) => Charge::default(),
        };
        self.complete(q, "run", charge);
        match result {
            Ok((iterations, fingerprint, bytes_read)) => Response::RunSummary {
                algorithm: algo.to_string(),
                iterations,
                fingerprint,
                bytes_read,
            },
            Err(message) => err(message),
        }
    }

    fn run_analytic_inner(
        &mut self,
        algo: &str,
        source: u32,
        options: &RunOptions,
    ) -> Result<(u32, u64, u64), String> {
        let mut engine = self
            .session
            .engine(self.run_config.clone())
            .map_err(|e| format!("engine setup failed: {e}"))?;
        engine.set_trace(self.sink.clone());
        fn summarize<V: Value>(
            run: std::io::Result<gsd_runtime::RunResult<V>>,
        ) -> Result<(u32, u64, u64), String> {
            let result = run.map_err(|e| format!("run failed: {e}"))?;
            Ok((
                result.stats.iterations,
                gsd_runtime::value_fingerprint(&result.values),
                result.stats.io.read_bytes(),
            ))
        }
        match algo {
            "pagerank" => summarize(engine.run(&PageRank::paper(), options)),
            "pagerank-delta" => summarize(engine.run(&PageRankDelta::paper(), options)),
            "cc" => summarize(engine.run(&ConnectedComponents, options)),
            "sssp" => summarize(engine.run(&Sssp::new(source), options)),
            "bfs" => summarize(engine.run(&Bfs::new(source), options)),
            other => Err(format!(
                "unknown algorithm {other:?} (pagerank|pagerank-delta|cc|sssp|bfs)"
            )),
        }
    }
}

/// Validates and initializes one traversal's state.
fn init_query(t: &Traversal, n: u32) -> Result<ActiveQuery, String> {
    match t {
        Traversal::KHop { source, k } => {
            if *source >= n {
                return Err(format!("source {source} out of range"));
            }
            let mut depth = vec![u32::MAX; n as usize];
            depth[*source as usize] = 0;
            Ok(ActiveQuery {
                state: QueryState::KHop {
                    depth,
                    accum: vec![u32::MAX; n as usize],
                },
                frontier: Frontier::from_seeds(n, &[*source]),
                rounds_left: *k,
                charge: Charge::default(),
            })
        }
        Traversal::Ppr {
            seeds,
            alpha,
            iterations,
        } => {
            if seeds.is_empty() {
                return Err("ppr needs at least one seed".to_string());
            }
            if let Some(bad) = seeds.iter().find(|&&s| s >= n) {
                return Err(format!("seed {bad} out of range"));
            }
            if !alpha.is_finite() || *alpha <= 0.0 || *alpha >= 1.0 {
                return Err(format!("alpha {alpha} outside (0, 1)"));
            }
            let mut sorted = seeds.clone();
            sorted.sort_unstable();
            sorted.dedup();
            // Same teleport split as `gsd_algos::Ppr::base`.
            let base = (1.0 - alpha) / sorted.len().max(1) as f32;
            let mut rank = vec![0.0f32; n as usize];
            let mut delta = vec![0.0f32; n as usize];
            for &s in &sorted {
                rank[s as usize] = base;
                delta[s as usize] = base;
            }
            Ok(ActiveQuery {
                state: QueryState::Ppr {
                    rank,
                    delta,
                    accum: vec![0.0f32; n as usize],
                    alpha: *alpha,
                },
                frontier: Frontier::from_seeds(n, &sorted),
                rounds_left: *iterations,
                charge: Charge::default(),
            })
        }
    }
}

/// Scatters one sub-block into `a`'s accumulator, filtered by `a`'s own
/// frontier. Mirrors `ReferenceEngine`'s scatter formulas exactly:
/// k-hop is `Bfs` (`depth + 1`, min-combine), ppr is `Ppr`
/// (`delta / degree`, sum-combine).
fn scatter_block(a: &mut ActiveQuery, edges: &[gsd_graph::Edge], degrees: &[u32]) {
    match &mut a.state {
        QueryState::KHop { depth, accum } => {
            for e in edges {
                if a.frontier.contains(e.src) {
                    let msg = depth[e.src as usize].saturating_add(1);
                    let cell = &mut accum[e.dst as usize];
                    *cell = (*cell).min(msg);
                }
            }
        }
        QueryState::Ppr { delta, accum, .. } => {
            for e in edges {
                if a.frontier.contains(e.src) {
                    let deg = degrees.get(e.src as usize).copied().unwrap_or(0);
                    accum[e.dst as usize] += delta[e.src as usize] / deg as f32;
                }
            }
        }
    }
}

/// The apply barrier for one query's round: commit improved values,
/// rebuild the frontier from them, reset the accumulator. The accum
/// zero values double as the "untouched" marker, so a plain scan over
/// all vertices applies exactly where the reference engine applies.
fn apply_round(a: &mut ActiveQuery, n: u32) {
    let next = Frontier::empty(n);
    match &mut a.state {
        QueryState::KHop { depth, accum } => {
            for v in 0..n as usize {
                let acc = std::mem::replace(&mut accum[v], u32::MAX);
                if acc < depth[v] {
                    depth[v] = acc;
                    next.insert(v as u32);
                }
            }
        }
        QueryState::Ppr {
            rank,
            delta,
            accum,
            alpha,
        } => {
            for v in 0..n as usize {
                let acc = std::mem::replace(&mut accum[v], 0.0);
                // `Ppr::apply`: only fresh mass re-activates a vertex.
                // A stale `delta` on a vertex leaving the frontier is
                // never read again — scatter only reads frontier
                // vertices, and re-entering the frontier goes through
                // this assignment.
                let fresh = *alpha * acc;
                if fresh > 0.0 {
                    rank[v] += fresh;
                    delta[v] = fresh;
                    next.insert(v as u32);
                }
            }
        }
    }
    a.frontier = next;
    a.rounds_left -= 1;
}

/// Renders a finished traversal into its response.
fn render(a: &ActiveQuery) -> Response {
    match &a.state {
        QueryState::KHop { depth, .. } => Response::Depths {
            depths: depth
                .iter()
                .enumerate()
                .filter(|(_, &d)| d != u32::MAX)
                .map(|(v, &d)| (v as u32, d))
                .collect(),
        },
        QueryState::Ppr { rank, .. } => Response::Scores {
            scores: rank
                .iter()
                .enumerate()
                .filter(|(_, &r)| r > 0.0)
                .map(|(v, &r)| (v as u32, r.to_bits()))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_graph::{preprocess, GeneratorConfig, GraphKind, PreprocessConfig, VerifyPolicy};
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

    #[test]
    fn neighbors_are_sorted_and_match_the_graph() {
        let graph = tiny();
        let (mut core, _) = core_over(&graph, 1 << 20);
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); 120];
        for e in graph.edges() {
            want[e.src as usize].push(e.dst);
        }
        for w in &mut want {
            w.sort_unstable();
            w.dedup();
        }
        for v in [0u32, 1, 7, 63, 119] {
            let got = core.execute(&Request::Neighbors { v });
            assert_eq!(
                got,
                Response::Neighbors {
                    neighbors: want[v as usize].clone()
                },
                "vertex {v}"
            );
        }
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
            Traversal::KHop { source: 0, k: 3 },
            Traversal::Ppr {
                seeds: vec![5, 9],
                alpha: 0.85,
                iterations: 3,
            },
            Traversal::KHop { source: 31, k: 2 },
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
        let before = match core.execute(&Request::Neighbors { v: 5 }) {
            Response::Neighbors { neighbors } => neighbors,
            other => panic!("{other:?}"),
        };
        let ops = vec![
            MutateOp {
                op: 0,
                src: 5,
                dst: 99,
                weight_bits: 1.0f32.to_bits(),
            },
            MutateOp {
                op: 1,
                src: 0,
                dst: 1,
                weight_bits: 0,
            },
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
        let after = match core.execute(&Request::Neighbors { v: 5 }) {
            Response::Neighbors { neighbors } => neighbors,
            other => panic!("{other:?}"),
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
        let folded = match core.execute(&Request::Neighbors { v: 5 }) {
            Response::Neighbors { neighbors } => neighbors,
            other => panic!("{other:?}"),
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
                ops: vec![MutateOp {
                    op: 0,
                    src: 0,
                    dst: 5_000_000,
                    weight_bits: 1.0f32.to_bits()
                }]
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
