//! The GraphSD engine as a [`Policy`] over the shared [`driver`](crate::driver):
//! Algorithm 1's per-iteration choice between the SCIU (Algorithm 2) and
//! FCIU (Algorithm 3) update models, and the state that choice needs.
//!
//! Per round the policy asks the state-aware [`Scheduler`] for an I/O
//! access model (unless the §5.4 ablation switches pin it) and then
//! composes the driver's passes:
//!
//! * **on-demand → SCIU**: plan the active vertices' edge runs from the
//!   row index, one request per sub-seek cluster of them, then one
//!   selective pass with cross-iteration serving — re-activated
//!   vertices whose edges are already in memory are pre-scattered and
//!   leave the next frontier;
//! * **full → FCIU**: the driver's stream round with cross-iteration
//!   propagation over the sub-blocks the frontier can send through, with
//!   the [`SubBlockBuffer`] between its passes so secondary sub-blocks read
//!   by the first pass can be served from memory in the second.
//!
//! Lumos and GridGraph are this engine with capability bits switched off
//! ([`GraphSdConfig::lumos`], [`GraphSdConfig::gridgraph`]): no selective
//! pass and a zero-capacity buffer, plus, for GridGraph, no
//! cross-iteration propagation. [`Engine::name`] reports which of the
//! three a configuration is.
//!
//! The scheduler's decision log and the buffer's residency ride through
//! checkpoints as the policy's opaque payload, so a resumed run reports
//! the same decisions and performs the same buffered I/O as an
//! uninterrupted one. Everything else — state arrays, prefetch,
//! checkpoint cadence, accounting, trace frame — is the driver's, shared
//! with HUS-Graph.

use crate::buffer::SubBlockBuffer;
use crate::checkpoint::{CheckpointData, RecoveryConfig};
use crate::config::GraphSdConfig;
use crate::driver::{self, index_gaps, Driver, Frame, Policy};
use crate::pipeline::PipelineConfig;
use crate::scheduler::{Scheduler, SchedulerDecision};
use gsd_graph::GridGraph;
use gsd_io::DiskModel;
use gsd_runtime::{
    Capabilities, Engine, IoAccessModel, RunOptions, RunResult, RunStats, VertexProgram,
};
use gsd_trace::{TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The GraphSD out-of-core engine over a preprocessed [`GridGraph`].
pub struct GraphSdEngine {
    grid: GridGraph,
    config: GraphSdConfig,
    disk: DiskModel,
    degrees: Arc<Vec<u32>>,
    trace: Arc<dyn TraceSink>,
    last_decisions: Vec<SchedulerDecision>,
}

impl GraphSdEngine {
    /// Opens the engine. If the grid has no row index (e.g. a
    /// Lumos-layout grid), selective loading is disabled automatically —
    /// unless the config *forces* the on-demand model, which is an error.
    pub fn new(grid: GridGraph, config: GraphSdConfig) -> std::io::Result<Self> {
        let mut config = config;
        if !grid.meta().order.has_row_index() {
            if config.force_model == Some(IoAccessModel::OnDemand) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "on-demand I/O requires a source-sorted grid format",
                ));
            }
            config.enable_selective = false;
        }
        let degrees = Arc::new(grid.load_out_degrees()?);
        let disk = config
            .disk_model
            .or_else(|| grid.storage().disk_model())
            .unwrap_or_default();
        Ok(GraphSdEngine {
            grid,
            config,
            disk,
            degrees,
            trace: gsd_trace::null_sink(),
            last_decisions: Vec::new(),
        })
    }

    /// Routes the engine's (and its scheduler's and buffer's) trace
    /// events to `trace`. The default is a disabled [`gsd_trace::NullSink`].
    pub fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }

    /// The effective configuration (after format-capability adjustment).
    pub fn config(&self) -> &GraphSdConfig {
        &self.config
    }

    /// Overrides the prefetch pipeline sizing (`None` forces fully
    /// synchronous reads). Results are bit-identical either way.
    pub fn set_prefetch(&mut self, prefetch: Option<PipelineConfig>) {
        self.config.prefetch = prefetch;
    }

    /// Overrides the checkpoint/recovery options (`None` runs
    /// unprotected). Like prefetching, checkpointing is result-neutral.
    pub fn set_checkpoint(&mut self, checkpoint: Option<RecoveryConfig>) {
        self.config.checkpoint = checkpoint;
    }

    /// Scheduler decisions of the most recent run (Figure 10/11 detail).
    pub fn last_decisions(&self) -> &[SchedulerDecision] {
        &self.last_decisions
    }
}

impl Engine for GraphSdEngine {
    /// `"lumos"` and `"gridstream"` for the two baseline configurations,
    /// `"graphsd"` for every other.
    fn name(&self) -> &'static str {
        let c = &self.config;
        match (c.enable_selective, c.enable_buffering, c.enable_cross_iter) {
            (false, false, true) => "lumos",
            (false, false, false) => "gridstream",
            _ => "graphsd",
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            eliminates_random_accesses: true,
            avoids_inactive_data: self.config.enable_selective,
            future_value_computation: self.config.enable_cross_iter,
        }
    }

    fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        options: &RunOptions,
    ) -> std::io::Result<RunResult<P::Value>> {
        let grid = &self.grid;
        let p = grid.p();
        let edge_bytes = grid.meta().total_edge_bytes();
        let per_edge = grid.codec().edge_bytes() as u64;
        // `S_seq` classification: a run of R bytes splits across up to P
        // sub-blocks (the grid fragments each vertex's edge list), so it
        // streams once its per-sub-block share outlasts a seek:
        // P x seek x B_sr.
        let seq_run_threshold = (p as u64 * self.disk.seek_break_even_bytes()).max(1);
        let mut scheduler = Scheduler::new(
            self.disk,
            grid.num_vertices() as u64 * program.value_bytes(),
            edge_bytes,
            per_edge,
            seq_run_threshold,
        );
        scheduler.set_trace(self.trace.clone());
        // The working sub-block of the FCIU pass must fit alongside the
        // buffer, so the buffer gets the budget minus the largest block.
        // Without buffering it gets nothing: a zero-capacity buffer
        // declines every offer and never holds a block.
        let budget = if self.config.enable_buffering {
            self.config.budget_for(edge_bytes)
        } else {
            0
        };
        let largest_block = (0..p)
            .flat_map(|i| (0..p).map(move |j| (i, j)))
            .map(|(i, j)| grid.meta().block_bytes(i, j))
            .max()
            .unwrap_or(0);
        let mut buffer = SubBlockBuffer::new(budget.saturating_sub(largest_block));
        buffer.set_trace(self.trace.clone());
        let mut policy = GraphSdPolicy {
            grid,
            config: &self.config,
            degrees: &self.degrees,
            trace: &self.trace,
            scheduler,
            buffer,
            index_gaps: index_gaps(&self.disk, grid),
            run_gap: self.disk.bridge_gap(per_edge),
        };
        let frame = Frame {
            engine: self.name(),
            grid,
            also_verified: &[],
            degrees: &self.degrees,
            trace: &self.trace,
            prefetch: self.config.prefetch,
            checkpoint: self.config.checkpoint.as_ref(),
            config_hash: self.config.semantic_hash(),
        };
        let result = driver::run(frame, program, options, &mut policy)?;
        self.last_decisions = policy.scheduler.decisions;
        Ok(result)
    }
}

/// One resident sub-block recorded in a checkpoint. Only identity, size
/// and priority are persisted; payloads are re-read from the grid on
/// restore (the grid is immutable, so the decode is bit-identical).
#[derive(Serialize, Deserialize)]
struct ResidentBlock {
    i: u32,
    j: u32,
    bytes: u64,
    priority: u64,
}

/// Engine-private checkpoint payload, carried opaquely in the snapshot's
/// `extra` section: what `RunStats` does not already carry — the
/// scheduler's decision log (Figure 10/11 detail), the buffer's eviction
/// count and its residency — so a resumed run reports the same decisions
/// and performs the same buffered I/O as an uninterrupted one.
#[derive(Serialize, Deserialize)]
struct CkptExtra {
    decisions: Vec<SchedulerDecision>,
    buffer_evictions: u64,
    residents: Vec<ResidentBlock>,
}

/// State-aware choice between SCIU and FCIU, per round.
struct GraphSdPolicy<'a> {
    grid: &'a GridGraph,
    config: &'a GraphSdConfig,
    degrees: &'a [u32],
    trace: &'a Arc<dyn TraceSink>,
    scheduler: Scheduler,
    buffer: SubBlockBuffer,
    /// Max id gap bridged within one index-span request, per row.
    index_gaps: Vec<u32>,
    /// Max edge gap bridged within one edge-run request.
    run_gap: u32,
}

impl<P: VertexProgram> Policy<P> for GraphSdPolicy<'_> {
    fn round(&mut self, d: &mut Driver<'_, P>) -> std::io::Result<()> {
        let iteration = d.next_iteration();
        let model = match self.config.force_model {
            _ if !self.config.enable_selective => IoAccessModel::Full,
            Some(forced) => forced,
            None => self.scheduler.select(iteration, d.frontier(), self.degrees),
        };
        if model == IoAccessModel::Full {
            return d.stream_round(
                self.grid,
                self.config.enable_cross_iter,
                self.config.enable_selective,
                &mut self.buffer,
            );
        }
        let cross = self.config.enable_cross_iter && iteration < d.limit();
        d.iteration(IoAccessModel::OnDemand, false, |d| {
            let runs = d.plan_runs(self.grid, &self.index_gaps, self.run_gap)?;
            let edges_served = d.selective_pass(self.grid, runs, cross)?;
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::SciuPass {
                    iteration,
                    edges_served,
                });
            }
            Ok(())
        })
    }

    fn fold_stats(&self, stats: &mut RunStats) {
        stats.scheduler_time = self.scheduler.overhead;
        stats.buffer_hits = self.buffer.hits;
        stats.buffer_hit_bytes = self.buffer.hit_bytes;
    }

    fn checkpoint_extra(&self) -> std::io::Result<Vec<u8>> {
        let residents = self.buffer.residents().into_iter();
        let extra = CkptExtra {
            decisions: self.scheduler.decisions.clone(),
            buffer_evictions: self.buffer.evictions,
            residents: residents
                .map(|(i, j, bytes, priority)| ResidentBlock {
                    i,
                    j,
                    bytes,
                    priority,
                })
                .collect(),
        };
        serde_json::to_vec(&extra).map_err(std::io::Error::other)
    }

    fn restore(&mut self, data: &CheckpointData) -> std::io::Result<()> {
        let extra: CkptExtra = serde_json::from_slice(&data.extra).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("corrupt engine checkpoint payload: {e}"),
            )
        })?;
        let p = self.grid.p();
        if let Some(r) = extra.residents.iter().find(|r| r.i >= p || r.j >= p) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "checkpoint names resident sub-block ({}, {}) outside the {p}x{p} grid",
                    r.i, r.j
                ),
            ));
        }
        self.scheduler.decisions = extra.decisions;
        self.scheduler.overhead = data.stats.scheduler_time;
        self.buffer.hits = data.stats.buffer_hits;
        self.buffer.hit_bytes = data.stats.buffer_hit_bytes;
        self.buffer.evictions = extra.buffer_evictions;
        let mut scratch = Vec::new();
        for r in &extra.residents {
            let mut edges = Vec::new();
            self.grid
                .read_block_into(r.i, r.j, &mut scratch, &mut edges)?;
            self.buffer
                .offer(r.i, r.j, Arc::new(edges), r.bytes, r.priority);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row-index request per cluster: 10 000 ids of a row index that
    /// stores 20 columns of 4-byte offsets (80 B per vertex) are 800 KB —
    /// under one HDD seek (1.28 MB), far over one NVMe access (45 KB).
    #[test]
    fn index_requests_split_where_the_device_seeks_cheaper_than_it_streams() {
        let active = [100, 10_100];
        let requests =
            |disk: DiskModel| gsd_graph::cluster_vertex_spans(&active, disk.bridge_gap(80)).len();
        assert_eq!(requests(DiskModel::hdd()), 1);
        assert_eq!(requests(DiskModel::nvme()), 2);
    }
}
