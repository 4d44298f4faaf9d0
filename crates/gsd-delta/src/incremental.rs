//! Incremental recompute: continue a converged run after a mutation batch
//! instead of restarting from scratch.
//!
//! # Soundness argument
//!
//! The incremental path is restricted to **monotone frontier programs** —
//! `apply_all() == false` and no iteration cap — whose `apply` only ever
//! moves a value toward the combine order's bottom (BFS, CC, SSSP: all
//! min-combine). Such programs have a unique fixpoint that any schedule
//! reaches from any valid upper bound, which is what makes warm-starting
//! exact rather than approximate:
//!
//! * **Inserts only lower values.** Every warm value was witnessed by
//!   paths that still exist, so it is a valid upper bound on the new
//!   fixpoint; seeding the insert sources lets the engine push the new
//!   edges' influence down to exactness.
//! * **Deletes can raise values**, which min-combine cannot do — so every
//!   vertex whose warm value might have depended on a deleted edge is
//!   *reset*. The dependent set (the *region*) is a forward closure from
//!   the deleted edges' heads over the union of the new grid and the
//!   deleted edges themselves (the old edge set is a subset of that
//!   union, so every stale propagation path is covered). The deleted
//!   edges themselves need no traversal: their heads are the closure's
//!   seeds, so only the merged grid is swept, and only its rows that
//!   hold a region vertex.
//!
//! **The closure follows support only**
//! ([`VertexProgram::supports`]). The warm values are the fixpoint a
//! from-scratch run on the old grid reaches, so take that run. A warm
//! value `val(v)` is either `v`'s initial value, which depends on
//! nothing, or was committed from the last message `v` accepted,
//! `scatter(u, x, w)` over an old edge `u → v`, with `x` a value `u` held
//! then. At the fixpoint `val(v) ≤ scatter(u, val(u), w)` for every edge,
//! and `val(u) ≤ x`, so (scatter being monotone) `scatter(u, val(u), w) =
//! val(v)`: the edge is *tight*, and its message supports the target. A
//! deleted edge's head is therefore a seed only if the edge's message
//! supports it, and the closure crosses an edge `u → v` only if
//! `scatter(u, val(u), w)` supports `val(v)`. A program that does not opt
//! in supports everything (the unrestricted closure), and a scatter that
//! sends nothing is tested as [`VertexProgram::zero_accum`]. A delete
//! carries no weight: on an unweighted grid every edge weighs 1.0 and the
//! head test is exact; on a weighted grid every deleted edge's head is a
//! seed.
//!
//! Outside the closure, the warm value is still *achievable* — derivable
//! along the new grid from initial values, hence no better than the new
//! fixpoint. Take a vertex `v` outside it that accepted a message: its
//! last accepted edge `u → v` is tight, so it is not deleted (or `v`
//! would be a seed), and `u` is outside the closure (or `v` would be in
//! it). For programs whose scatter never lowers a value (BFS adds 1,
//! SSSP a non-negative weight, CC copies) `val(u) ≤ val(v)`, and where
//! they are equal `u` held `val(u)` when it sent it and so committed it
//! before `v` did. So induction on (warm value, commit time) derives
//! `val(u)`, and then `val(v) = scatter(u, val(u), w)`, along surviving
//! edges only. Inserted edges the closure crosses only make it larger,
//! which keeps the argument.
//!
//! **The region restarts from a pull, not from its initial values
//! alone.** One pass over the sub-blocks whose column holds a region
//! vertex combines `scatter(u, val(u), w)` into `v` for every surviving
//! edge `u → v` from outside the region; each region vertex restarts at
//! `apply(v, init(v), pulled)`, or at `init(v)` if nothing was pulled. A
//! pulled value is the scatter of an achievable value along an edge of
//! the new grid, so it is achievable too. With min-combine, the run from
//! achievable upper bounds reaches the from-scratch fixpoint bit for bit
//! once every edge that could still lower a value has its source in the
//! frontier: edges between vertices outside the region held at the old
//! fixpoint and edges into the region were pulled, so the seeds are the
//! region and the insert sources — the region's in-boundary is not.
//!
//! Programs outside the gate (PageRank's dense fixed-iteration recurrence,
//! PPR) fall back to a full run — correct, just not incremental — and the
//! report says so.
//!
//! The closure and the pull read through the overlay-merged read path
//! rather than an in-memory adjacency list, so the pass stays out-of-core
//! like everything else; the report carries the storage traffic they
//! caused.

use crate::batch::MutationBatch;
use gsd_core::{GraphSdConfig, GraphSdEngine};
use gsd_graph::delta::DeltaOp;
use gsd_graph::GridGraph;
use gsd_io::IoStatsSnapshot;
use gsd_runtime::{Engine, InitialFrontier, ProgramContext, RunOptions, RunResult, VertexProgram};
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;

/// How an incremental run was seeded (or why it was not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Vertices in the initial frontier.
    pub seeds: u64,
    /// Vertices whose warm value was discarded: the size of the region a
    /// deleted edge supported.
    pub resets: u64,
    /// Region vertices that restarted from a value pulled over an edge
    /// from outside the region rather than from their initial value.
    pub pulled: u64,
    /// Storage traffic of the closure sweeps and the pull (merged
    /// sub-blocks are served from memory and cost none).
    pub region_io: IoStatsSnapshot,
    /// The program failed the monotone-frontier gate and was rerun from
    /// scratch instead.
    pub full_fallback: bool,
}

/// A program warm-started from `values`, seeded from `seeds`, and
/// otherwise identical to the wrapped program. `init_value` returns the
/// warm value — region resets are applied to `values` *before* wrapping.
pub struct SeededProgram<'a, P: VertexProgram> {
    inner: &'a P,
    values: Vec<P::Value>,
    seeds: Vec<u32>,
}

impl<'a, P: VertexProgram> SeededProgram<'a, P> {
    /// Wraps `inner` with warm `values` and an explicit seed frontier.
    pub fn new(inner: &'a P, values: Vec<P::Value>, seeds: Vec<u32>) -> Self {
        SeededProgram {
            inner,
            values,
            seeds,
        }
    }
}

impl<P: VertexProgram> VertexProgram for SeededProgram<'_, P> {
    type Value = P::Value;
    type Accum = P::Accum;

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init_value(&self, v: u32, _ctx: &ProgramContext) -> P::Value {
        self.values[v as usize]
    }
    fn zero_accum(&self) -> P::Accum {
        self.inner.zero_accum()
    }
    fn scatter(
        &self,
        u: u32,
        value: P::Value,
        weight: f32,
        ctx: &ProgramContext,
    ) -> Option<P::Accum> {
        self.inner.scatter(u, value, weight, ctx)
    }
    fn combine(&self, a: P::Accum, b: P::Accum) -> P::Accum {
        self.inner.combine(a, b)
    }
    fn apply(
        &self,
        v: u32,
        old: P::Value,
        accum: P::Accum,
        ctx: &ProgramContext,
    ) -> Option<P::Value> {
        self.inner.apply(v, old, accum, ctx)
    }
    fn initial_frontier(&self, _ctx: &ProgramContext) -> InitialFrontier {
        InitialFrontier::Seeds(self.seeds.clone())
    }
    fn apply_all(&self) -> bool {
        self.inner.apply_all()
    }
    fn max_iterations(&self) -> Option<u32> {
        self.inner.max_iterations()
    }
    fn supports(&self, v: u32, message: P::Accum, target: P::Value, ctx: &ProgramContext) -> bool {
        self.inner.supports(v, message, target, ctx)
    }
    fn value_bytes(&self) -> u64 {
        self.inner.value_bytes()
    }
}

/// The region the batch's deletes supported: the closure, from the heads
/// of supporting deleted edges, over the merged grid's edges whose
/// message supports their destination's `warm` value. Only rows holding
/// a region vertex whose out-edges have not been followed are swept.
fn affected_region<P: VertexProgram>(
    grid: &GridGraph,
    program: &P,
    warm: &[P::Value],
    deletes: &[(u32, u32)],
    ctx: &ProgramContext,
) -> std::io::Result<Vec<bool>> {
    let intervals = grid.intervals();
    let supports = |u: u32, v: u32, weight: f32| {
        let message = program
            .scatter(u, warm[u as usize], weight, ctx)
            .unwrap_or_else(|| program.zero_accum());
        program.supports(v, message, warm[v as usize], ctx)
    };
    let mut in_region = vec![false; grid.num_vertices() as usize];
    // Rows holding a region vertex whose out-edges are still to follow.
    let mut pending = vec![false; grid.p() as usize];
    let enter = |v: u32, in_region: &mut [bool], pending: &mut [bool]| {
        in_region[v as usize] = true;
        pending[intervals.interval_of(v) as usize] = true;
    };
    let weighted = grid.meta().weighted;
    for &(src, dst) in deletes {
        if weighted || supports(src, dst, 1.0) {
            enter(dst, &mut in_region, &mut pending);
        }
    }
    let (mut scratch, mut block) = (Vec::new(), Vec::new());
    // Passes in row order, so a pass follows the closure into later rows.
    while pending.contains(&true) {
        for i in 0..grid.p() {
            if !std::mem::take(&mut pending[i as usize]) {
                continue;
            }
            for j in 0..grid.p() {
                grid.read_block_into(i, j, &mut scratch, &mut block)?;
                for e in &block {
                    if in_region[e.src as usize]
                        && !in_region[e.dst as usize]
                        && supports(e.src, e.dst, e.weight)
                    {
                        enter(e.dst, &mut in_region, &mut pending);
                    }
                }
            }
        }
    }
    Ok(in_region)
}

/// Combines `scatter(u, warm(u), w)` into `v` for every edge `u → v` of
/// the merged grid from outside the region into it, reading only the
/// sub-blocks whose column holds a region vertex. Returns the combined
/// messages, indexed by vertex (`zero_accum` outside the region).
fn pull_into_region<P: VertexProgram>(
    grid: &GridGraph,
    program: &P,
    warm: &[P::Value],
    in_region: &[bool],
    ctx: &ProgramContext,
) -> std::io::Result<Vec<P::Accum>> {
    let intervals = grid.intervals();
    let mut columns = vec![false; grid.p() as usize];
    for (v, _) in (0..).zip(in_region).filter(|(_, &region)| region) {
        columns[intervals.interval_of(v) as usize] = true;
    }
    let mut pulled = vec![program.zero_accum(); in_region.len()];
    let (mut scratch, mut block) = (Vec::new(), Vec::new());
    for j in (0..grid.p()).filter(|&j| columns[j as usize]) {
        for i in 0..grid.p() {
            grid.read_block_into(i, j, &mut scratch, &mut block)?;
            for e in &block {
                let (u, v) = (e.src as usize, e.dst as usize);
                if in_region[v] && !in_region[u] {
                    if let Some(message) = program.scatter(e.src, warm[u], e.weight, ctx) {
                        pulled[v] = program.combine(pulled[v], message);
                    }
                }
            }
        }
    }
    Ok(pulled)
}

/// Continues a converged run of `program` across the mutation batch that
/// produced the current (overlay-merged) state of `grid`.
///
/// `prev_values` are the committed values of the run *before* the batch
/// was ingested. Returns the new fixpoint — bit-identical to a
/// from-scratch run on the merged grid for programs passing the monotone
/// gate — plus a report of how it got there.
pub fn incremental_run<P: VertexProgram>(
    grid: GridGraph,
    program: &P,
    prev_values: Vec<P::Value>,
    batch: &MutationBatch,
    config: GraphSdConfig,
    trace: Arc<dyn TraceSink>,
) -> std::io::Result<(RunResult<P::Value>, IncrementalReport)> {
    let n = grid.num_vertices() as usize;
    if prev_values.len() != n {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "previous run has {} values but the grid has {n} vertices",
                prev_values.len()
            ),
        ));
    }

    if program.apply_all() || program.max_iterations().is_some() {
        // Dense or iteration-capped programs recompute every value each
        // round anyway; warm-starting them is not exact. Run in full.
        let mut engine = GraphSdEngine::new(grid, config)?;
        engine.set_trace(trace);
        let result = engine.run(program, &RunOptions::default())?;
        return Ok((
            result,
            IncrementalReport {
                seeds: 0,
                resets: 0,
                pulled: 0,
                region_io: IoStatsSnapshot::default(),
                full_fallback: true,
            },
        ));
    }

    let deletes: Vec<(u32, u32)> = batch
        .ops
        .iter()
        .filter_map(|op| match op {
            DeltaOp::Delete { src, dst } => Some((*src, *dst)),
            DeltaOp::Insert(_) => None,
        })
        .collect();
    let degrees = Arc::new(grid.load_out_degrees()?);
    let ctx = ProgramContext::new(grid.num_vertices(), degrees);

    let io = grid.storage().stats();
    let before = io.snapshot();
    let in_region = affected_region(&grid, program, &prev_values, &deletes, &ctx)?;
    let pulled = pull_into_region(&grid, program, &prev_values, &in_region, &ctx)?;
    let region_io = io.snapshot().since(&before);

    let mut values = prev_values;
    let mut restarted = 0u64;
    let mut seed_mark = in_region.clone();
    let mut seeds = Vec::new();
    for (v, _) in (0u32..).zip(&in_region).filter(|(_, &region)| region) {
        let init = program.init_value(v, &ctx);
        values[v as usize] = match program.apply(v, init, pulled[v as usize], &ctx) {
            Some(value) => {
                restarted += 1;
                value
            }
            None => init,
        };
        seeds.push(v);
    }
    let resets = seeds.len() as u64;
    for op in &batch.ops {
        if let DeltaOp::Insert(e) = op {
            if !seed_mark[e.src as usize] {
                seed_mark[e.src as usize] = true;
                seeds.push(e.src);
            }
        }
    }
    seeds.sort_unstable();

    trace.emit(&TraceEvent::IncrementalSeeded {
        seeds: seeds.len() as u64,
        resets,
    });
    let report = IncrementalReport {
        seeds: seeds.len() as u64,
        resets,
        pulled: restarted,
        region_io,
        full_fallback: false,
    };
    let seeded = SeededProgram::new(program, values, seeds);
    let mut engine = GraphSdEngine::new(grid, config)?;
    engine.set_trace(trace);
    let result = engine.run(&seeded, &RunOptions::default())?;
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest;
    use gsd_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
    use gsd_graph::preprocess::{preprocess, PreprocessConfig};
    use gsd_graph::{GeneratorConfig, GraphKind};
    use gsd_io::{MemStorage, SharedStorage};
    use gsd_runtime::value_fingerprint as fingerprint;

    fn setup() -> SharedStorage {
        let g = GeneratorConfig::new(GraphKind::RMat, 160, 900, 11).generate();
        let storage: SharedStorage = Arc::new(MemStorage::new());
        preprocess(
            &g,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
        storage
    }

    fn run_full<P: VertexProgram>(storage: &SharedStorage, program: &P) -> Vec<P::Value> {
        let grid = GridGraph::open(storage.clone()).unwrap();
        let mut engine = GraphSdEngine::new(grid, GraphSdConfig::default()).unwrap();
        engine.run(program, &RunOptions::default()).unwrap().values
    }

    fn check_incremental<P: VertexProgram>(program: &P, batch: &MutationBatch) {
        let storage = setup();
        let warm = run_full(&storage, program);
        ingest(storage.as_ref(), "", batch, gsd_trace::null_sink().as_ref()).unwrap();

        let grid = GridGraph::open(storage.clone()).unwrap();
        let (result, report) = incremental_run(
            grid,
            program,
            warm,
            batch,
            GraphSdConfig::default(),
            gsd_trace::null_sink(),
        )
        .unwrap();
        assert!(!report.full_fallback);
        if batch.deletes() > 0 {
            assert!(report.resets > 0, "deletes must reset a region");
        }

        let scratch = run_full(&storage, program);
        assert_eq!(
            fingerprint(&result.values),
            fingerprint(&scratch),
            "{}: incremental fixpoint differs from from-scratch",
            program.name()
        );
    }

    fn mixed_batch() -> MutationBatch {
        let mut batch = MutationBatch::new();
        batch
            .insert(3, 150, 1.0)
            .insert(150, 4, 1.0)
            .delete(0, 1)
            .delete(2, 3)
            .insert(7, 7, 1.0);
        batch
    }

    #[test]
    fn bfs_incremental_matches_scratch() {
        check_incremental(&Bfs::new(0), &mixed_batch());
    }

    #[test]
    fn cc_incremental_matches_scratch() {
        check_incremental(&ConnectedComponents, &mixed_batch());
    }

    #[test]
    fn sssp_incremental_matches_scratch() {
        check_incremental(&Sssp::new(0), &mixed_batch());
    }

    #[test]
    fn insert_only_batch_skips_resets() {
        let mut batch = MutationBatch::new();
        batch.insert(5, 60, 1.0).insert(60, 61, 1.0);
        let storage = setup();
        let program = Bfs::new(0);
        let warm = run_full(&storage, &program);
        ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        let grid = GridGraph::open(storage.clone()).unwrap();
        let (result, report) = incremental_run(
            grid,
            &program,
            warm,
            &batch,
            GraphSdConfig::default(),
            gsd_trace::null_sink(),
        )
        .unwrap();
        assert_eq!(report.resets, 0);
        assert!(report.seeds <= 2);
        assert_eq!(
            fingerprint(&result.values),
            fingerprint(&run_full(&storage, &program))
        );
    }

    #[test]
    fn pagerank_falls_back_to_full_run() {
        let storage = setup();
        let program = PageRank::default();
        let warm = run_full(&storage, &program);
        let mut batch = MutationBatch::new();
        batch.insert(1, 2, 1.0);
        ingest(
            storage.as_ref(),
            "",
            &batch,
            gsd_trace::null_sink().as_ref(),
        )
        .unwrap();
        let grid = GridGraph::open(storage.clone()).unwrap();
        let (result, report) = incremental_run(
            grid,
            &program,
            warm,
            &batch,
            GraphSdConfig::default(),
            gsd_trace::null_sink(),
        )
        .unwrap();
        assert!(report.full_fallback);
        assert_eq!(
            fingerprint(&result.values),
            fingerprint(&run_full(&storage, &program))
        );
    }

    #[test]
    fn mismatched_value_length_is_rejected() {
        let storage = setup();
        let grid = GridGraph::open(storage.clone()).unwrap();
        let err = incremental_run(
            grid,
            &Bfs::new(0),
            vec![0u32; 3],
            &MutationBatch::new(),
            GraphSdConfig::default(),
            gsd_trace::null_sink(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
