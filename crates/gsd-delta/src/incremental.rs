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
//!   *reset* to its initial value. The dependent set is the forward
//!   closure of the deleted edges' destinations over the union of the
//!   new grid and the deleted edges themselves (the old edge set is a
//!   subset of that union, so every stale propagation path is covered).
//!   The deleted edges themselves need no traversal: their heads are the
//!   closure's seeds, so only the merged grid is swept.
//!   Sources of surviving edges entering the reset region are seeded so
//!   their still-valid values flow back in.
//!
//! Programs outside the gate (PageRank's dense fixed-iteration recurrence,
//! PPR) fall back to a full run — correct, just not incremental — and the
//! report says so.
//!
//! The region closure is computed with whole-grid sweeps through the
//! overlay-merged read path rather than an in-memory adjacency list, so
//! the pass stays out-of-core like everything else.

use crate::batch::MutationBatch;
use gsd_core::{GraphSdConfig, GraphSdEngine};
use gsd_graph::delta::DeltaOp;
use gsd_graph::GridGraph;
use gsd_runtime::{Engine, InitialFrontier, ProgramContext, RunOptions, RunResult, VertexProgram};
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;

/// How an incremental run was seeded (or why it was not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalReport {
    /// Vertices in the initial frontier.
    pub seeds: u64,
    /// Vertices reset to their initial value (delete-dependent region).
    pub resets: u64,
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
    fn value_bytes(&self) -> u64 {
        self.inner.value_bytes()
    }
}

/// Forward closure of the deleted edges' destinations over the merged
/// grid, via repeated whole-grid sweeps. Also returns the in-boundary:
/// sources of surviving edges entering the region from outside it.
fn affected_region(
    grid: &GridGraph,
    deletes: &[(u32, u32)],
) -> std::io::Result<(Vec<bool>, Vec<u32>)> {
    let n = grid.num_vertices() as usize;
    let mut in_region = vec![false; n];
    for &(_, d) in deletes {
        in_region[d as usize] = true;
    }
    let p = grid.p();
    let mut scratch = Vec::new();
    let mut block = Vec::new();
    let mut grew = true;
    while grew {
        grew = false;
        for i in 0..p {
            for j in 0..p {
                grid.read_block_into(i, j, &mut scratch, &mut block)?;
                for e in &block {
                    if in_region[e.src as usize] && !in_region[e.dst as usize] {
                        in_region[e.dst as usize] = true;
                        grew = true;
                    }
                }
            }
        }
    }
    // One more sweep for the in-boundary of the now-stable region.
    let mut boundary = Vec::new();
    let mut seen = vec![false; n];
    for i in 0..p {
        for j in 0..p {
            grid.read_block_into(i, j, &mut scratch, &mut block)?;
            for e in &block {
                if in_region[e.dst as usize] && !in_region[e.src as usize] && !seen[e.src as usize]
                {
                    seen[e.src as usize] = true;
                    boundary.push(e.src);
                }
            }
        }
    }
    Ok((in_region, boundary))
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
    let (in_region, boundary) = affected_region(&grid, &deletes)?;

    let degrees = Arc::new(grid.load_out_degrees()?);
    let ctx = ProgramContext::new(grid.num_vertices(), degrees);

    let mut values = prev_values;
    let mut resets = 0u64;
    let mut seed_mark = vec![false; n];
    let mut seeds = Vec::new();
    let seed = |v: u32, mark: &mut Vec<bool>, seeds: &mut Vec<u32>| {
        if !mark[v as usize] {
            mark[v as usize] = true;
            seeds.push(v);
        }
    };
    for (v, reset) in in_region.iter().enumerate() {
        if *reset {
            values[v] = program.init_value(v as u32, &ctx);
            resets += 1;
            seed(v as u32, &mut seed_mark, &mut seeds);
        }
    }
    for &src in &boundary {
        seed(src, &mut seed_mark, &mut seeds);
    }
    for op in &batch.ops {
        if let DeltaOp::Insert(e) = op {
            seed(e.src, &mut seed_mark, &mut seeds);
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
