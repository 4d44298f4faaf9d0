//! The one fold over the trace stream, and its text rendering
//! (`gsd report`).
//!
//! A [`TraceReport`] is an accumulator with a single typed entry point,
//! [`TraceReport::apply`]: `gsd report` decodes a JSONL file line by line
//! and applies each event, [`crate::LiveReport`] applies the same events
//! as a process emits them, and `--verbose` prints rows of that live
//! fold. Because
//! the engines emit exactly one event per counted action (one `BufferHit`
//! per `RunStats::buffer_hits` increment, one `PrefetchStall` per miss,
//! ...), a fold over a complete trace reproduces the run's `RunStats`
//! counters **exactly** — [`RunSection::matches_run_stats`] asserts that
//! and is wired into the end-to-end tests — and, the fold being the only
//! consumer, what it accumulated live equals what it replays from file.

use gsd_runtime::RunStats;
use gsd_trace::{AccessModel, HistogramSnapshot, TraceEvent};
use std::collections::BTreeMap;
use std::io::BufRead;

/// What happened between two `IterationEnd`s, per counted event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterTally {
    /// `BufferHit` events.
    pub buffer_hits: u64,
    /// `PrefetchHit` events.
    pub prefetch_hits: u64,
    /// `PrefetchStall` events.
    pub prefetch_misses: u64,
    /// Total `PrefetchStall` wait, microseconds.
    pub stall_us: u64,
}

/// One `IterationEnd` row.
#[derive(Debug, Clone, PartialEq)]
pub struct IterRow {
    /// 1-based iteration number.
    pub iteration: u32,
    /// Access model the iteration ran under.
    pub model: AccessModel,
    /// Frontier size at the start of the iteration.
    pub frontier: u64,
    /// Bytes read from storage during the iteration.
    pub bytes_read: u64,
    /// Microseconds in the scatter kernel.
    pub scatter_us: u64,
    /// Microseconds in the apply kernel.
    pub apply_us: u64,
    /// Microseconds blocked on storage.
    pub io_wait_us: u64,
    /// The events since the previous row.
    pub tally: IterTally,
}

/// One state-aware scheduler decision with its cost-model terms.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRow {
    /// Iteration the decision applies to.
    pub iteration: u32,
    /// Active vertices classified sequential (clustered).
    pub s_seq: u64,
    /// Active vertices classified random (scattered).
    pub s_ran: u64,
    /// Estimated seconds for the full streaming model (`C_s`).
    pub cost_full: f64,
    /// Estimated seconds for the on-demand model (`C_r`).
    pub cost_on_demand: f64,
    /// The model the scheduler picked.
    pub chosen: AccessModel,
}

impl DecisionRow {
    /// A one-line human explanation of the decision in terms of the
    /// paper's cost model (§4.1): the scheduler streams the full grid
    /// when `C_s <= C_r` and loads selectively otherwise.
    pub fn explain(&self) -> String {
        let active = self.s_seq + self.s_ran;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::INFINITY };
        if self.chosen == AccessModel::Full {
            format!(
                "iter {}: chose full streaming - C_s {:.4}s <= C_r {:.4}s ({:.1}x cheaper); \
                 {} active vertices ({} clustered / {} scattered) make selective loads seek-bound",
                self.iteration,
                self.cost_full,
                self.cost_on_demand,
                ratio(self.cost_on_demand, self.cost_full),
                active,
                self.s_seq,
                self.s_ran,
            )
        } else {
            format!(
                "iter {}: chose on-demand loads - C_r {:.4}s < C_s {:.4}s ({:.1}x cheaper); \
                 frontier of {} ({} clustered / {} scattered) is sparse enough to skip cold blocks",
                self.iteration,
                self.cost_on_demand,
                self.cost_full,
                ratio(self.cost_full, self.cost_on_demand),
                active,
                self.s_seq,
                self.s_ran,
            )
        }
    }
}

/// Per-sub-block load accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockActivity {
    /// Number of loads of this block.
    pub loads: u64,
    /// Total bytes those loads requested.
    pub bytes: u64,
}

/// The trace-derived counters that must agree with the run's `RunStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayedCounters {
    /// Max `IterationEnd` iteration number.
    pub iterations: u32,
    /// Sum of `IterationEnd::bytes_read` (equals the sum of the run's
    /// per-iteration I/O snapshots; run-level `RunStats::io` may exceed
    /// it by reads outside iteration boundaries, e.g. preprocessing).
    pub bytes_read: u64,
    /// `BufferHit` events.
    pub buffer_hits: u64,
    /// Sum of `BufferHit::bytes`.
    pub buffer_hit_bytes: u64,
    /// `PrefetchHit` events.
    pub prefetch_hits: u64,
    /// `PrefetchStall` events (one per `RunStats::prefetch_misses`).
    pub prefetch_misses: u64,
    /// Sum of `SciuPass`/`FciuPass` `edges_served`.
    pub cross_iter_edges: u64,
}

/// Everything replayed from one `RunStart`..`RunEnd` span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSection {
    /// Engine name from `RunStart`.
    pub engine: String,
    /// Algorithm label from `RunStart`.
    pub algorithm: String,
    /// Iterations reported by `RunEnd` (0 if the trace was truncated).
    pub run_end_iterations: u32,
    /// One row per `IterationEnd`, in trace order.
    pub iterations: Vec<IterRow>,
    /// Scheduler decisions, in trace order.
    pub decisions: Vec<DecisionRow>,
    /// Load activity per `(i, j)` sub-block.
    pub blocks: BTreeMap<(u32, u32), BlockActivity>,
    /// Request-size distribution of `BlockLoad` events.
    pub io_size_hist: HistogramSnapshot,
    /// Sequential `BlockLoad`s (part of a streaming sweep).
    pub seq_loads: u64,
    /// Selective (on-demand) `BlockLoad`s.
    pub rand_loads: u64,
    /// `ValueFlush` reads (a resume's values) and their bytes.
    pub value_reads: (u64, u64),
    /// `ValueFlush` writes (a checkpoint's values) and their bytes.
    pub value_writes: (u64, u64),
    /// `PrefetchIssued` events and their bytes.
    pub prefetch_issued: (u64, u64),
    /// Bytes served by prefetch hits.
    pub prefetch_hit_bytes: u64,
    /// Total `PrefetchStall` wait, microseconds.
    pub prefetch_stall_us: u64,
    /// Stall-wait distribution, microseconds.
    pub stall_hist: HistogramSnapshot,
    /// Buffer evictions and their bytes.
    pub evictions: (u64, u64),
    /// `CkptWritten` events and their bytes.
    pub ckpt_written: (u64, u64),
    /// `CkptRestored` events and their bytes.
    pub ckpt_restored: (u64, u64),
    /// `ChecksumOk` events and their bytes.
    pub verify_ok: (u64, u64),
    /// `CorruptionDetected` events.
    pub corruptions: u64,
    /// The exactly-reproducible counters (see [`ReplayedCounters`]).
    pub counters: ReplayedCounters,
    /// Tallies since the last `IterationEnd`; zero after a complete run.
    pending: IterTally,
}

impl RunSection {
    /// Total microseconds per phase across all iterations:
    /// `(scatter, apply, io_wait)`.
    pub fn phase_totals_us(&self) -> (u64, u64, u64) {
        self.iterations.iter().fold((0, 0, 0), |(s, a, w), it| {
            (s + it.scatter_us, a + it.apply_us, w + it.io_wait_us)
        })
    }

    /// The `n` sub-blocks with the most bytes loaded, descending (ties
    /// broken by coordinates for determinism).
    pub fn hottest_blocks(&self, n: usize) -> Vec<((u32, u32), BlockActivity)> {
        let mut v: Vec<((u32, u32), BlockActivity)> =
            self.blocks.iter().map(|(k, a)| (*k, *a)).collect();
        v.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Checks that this section's replayed counters equal `stats`'
    /// counters, field by field. `bytes_read` is compared against the
    /// sum of the per-iteration I/O snapshots (the run-level total also
    /// counts reads outside iteration boundaries). Returns every
    /// mismatching field in the error.
    pub fn matches_run_stats(&self, stats: &RunStats) -> Result<(), String> {
        let mut mismatches = Vec::new();
        let mut check = |what: &str, replayed: u64, stat: u64| {
            if replayed != stat {
                mismatches.push(format!("{what}: trace replay {replayed} != stats {stat}"));
            }
        };
        let c = &self.counters;
        check(
            "iterations",
            u64::from(c.iterations),
            u64::from(stats.iterations),
        );
        let per_iter_read: u64 = stats
            .per_iteration
            .iter()
            .map(|it| it.io.read_bytes())
            .sum();
        check("bytes_read", c.bytes_read, per_iter_read);
        check("buffer_hits", c.buffer_hits, stats.buffer_hits);
        check(
            "buffer_hit_bytes",
            c.buffer_hit_bytes,
            stats.buffer_hit_bytes,
        );
        check("prefetch_hits", c.prefetch_hits, stats.prefetch_hits);
        check("prefetch_misses", c.prefetch_misses, stats.prefetch_misses);
        check(
            "cross_iter_edges",
            c.cross_iter_edges,
            stats.cross_iter_edges,
        );
        if self.engine != stats.engine {
            mismatches.push(format!(
                "engine: trace {:?} != stats {:?}",
                self.engine, stats.engine
            ));
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("\n"))
        }
    }
}

/// Per-op query accounting of a daemon trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActivity {
    /// `QueryAccepted` events.
    pub accepted: u64,
    /// `QueryCompleted` events.
    pub completed: u64,
    /// Sub-block reads charged to these queries that hit the shared cache.
    pub cache_hits: u64,
    /// Sub-block reads charged to these queries that went to storage.
    pub cache_misses: u64,
    /// Bytes read from storage on behalf of these queries.
    pub bytes_read: u64,
}

/// What a `gsd serve` process did, folded from its serve and cache
/// events wherever in the trace they occur (a `run` query's engine
/// events land in a [`RunSection`] of their own).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonSection {
    /// `ServeStarted` events (grid opens).
    pub starts: u64,
    /// Vertex count announced by the latest `ServeStarted`.
    pub vertices: u64,
    /// Partition count P announced by the latest `ServeStarted`.
    pub p: u64,
    /// Query accounting per op tag.
    pub ops: BTreeMap<&'static str, OpActivity>,
    /// `CacheAdmit` events and their bytes.
    pub cache_admits: (u64, u64),
    /// `CacheEvict` events and their bytes.
    pub cache_evicts: (u64, u64),
}

impl DaemonSection {
    /// The per-op rows summed: what `ServeCounters` reports as `queries`,
    /// `cache_hits`, `cache_misses` and `bytes_read`.
    pub fn totals(&self) -> OpActivity {
        self.ops
            .values()
            .fold(OpActivity::default(), |t, op| OpActivity {
                accepted: t.accepted + op.accepted,
                completed: t.completed + op.completed,
                cache_hits: t.cache_hits + op.cache_hits,
                cache_misses: t.cache_misses + op.cache_misses,
                bytes_read: t.bytes_read + op.bytes_read,
            })
    }
}

/// One committed mutation batch (`DeltaApplied`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRow {
    /// The epoch the batch committed.
    pub epoch: u64,
    /// Edge insertions in the batch.
    pub inserts: u64,
    /// Edge deletions in the batch.
    pub deletes: u64,
    /// Delta segment objects the batch appended.
    pub segments: u64,
    /// Total segment bytes written.
    pub bytes: u64,
}

/// Everything that mutated the grid: batches, compactions and the
/// incremental recomputes seeded from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationSection {
    /// One row per committed batch, in trace order.
    pub epochs: Vec<EpochRow>,
    /// `CompactionStarted` events.
    pub compactions: u64,
    /// Live segment objects those passes set out to fold, and their bytes.
    pub segments_folded: (u64, u64),
    /// Base sub-blocks `CompactionFinished` reports rewritten, and their bytes.
    pub blocks_rewritten: (u64, u64),
    /// `IncrementalSeeded` events.
    pub incremental_runs: u64,
    /// Vertices seeded into incremental frontiers.
    pub incremental_seeds: u64,
    /// Vertices reset before incremental runs.
    pub incremental_resets: u64,
}

/// The fold: one [`RunSection`] per `RunStart` seen, the daemon and
/// mutation sections, and bookkeeping for malformed or out-of-run events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Folded runs, in trace order; the last one is still open when the
    /// trace ended (or has so far gone) without its `RunEnd`.
    pub runs: Vec<RunSection>,
    /// Serve and cache events.
    pub daemon: DaemonSection,
    /// Delta, compaction and incremental events.
    pub mutations: MutationSection,
    /// Run-scoped events seen outside any `RunStart`..`RunEnd` span.
    pub unattributed: u64,
    /// Lines the decoder rejected (and the fold therefore never saw).
    pub parse_errors: u64,
    /// Events applied (including unattributed ones).
    pub total_events: u64,
    /// Whether the last run is between its `RunStart` and `RunEnd`.
    open: bool,
    /// Where unattributed events fold to; nothing reads it.
    outside: RunSection,
}

fn count(slot: &mut (u64, u64), bytes: u64) {
    slot.0 += 1;
    slot.1 += bytes;
}

impl TraceReport {
    /// The section a run-scoped event folds into: the open run, or — and
    /// then the event counts as unattributed — the scratch section.
    fn run(&mut self) -> &mut RunSection {
        match self.runs.last_mut() {
            Some(run) if self.open => run,
            _ => {
                self.unattributed += 1;
                &mut self.outside
            }
        }
    }

    /// Folds one event. Serve, cache, delta, compaction and incremental
    /// events accumulate per trace wherever they occur; everything else
    /// belongs to the open run.
    pub fn apply(&mut self, event: &TraceEvent) {
        self.total_events += 1;
        match event {
            TraceEvent::RunStart { engine, algorithm } => {
                self.runs.push(RunSection {
                    engine: engine.to_string(),
                    algorithm: algorithm.clone(),
                    ..RunSection::default()
                });
                self.open = true;
            }
            TraceEvent::RunEnd { iterations, .. } => {
                self.run().run_end_iterations = *iterations;
                self.open = false;
            }
            // Carries nothing to fold; `run()` still counts one outside a
            // run as unattributed.
            TraceEvent::IterationStart { .. } => {
                self.run();
            }
            TraceEvent::IterationEnd {
                iteration,
                model,
                frontier,
                bytes_read,
                scatter_us,
                apply_us,
                io_wait_us,
            } => {
                let run = self.run();
                run.counters.iterations = run.counters.iterations.max(*iteration);
                run.counters.bytes_read += bytes_read;
                let tally = std::mem::take(&mut run.pending);
                run.iterations.push(IterRow {
                    iteration: *iteration,
                    model: *model,
                    frontier: *frontier,
                    bytes_read: *bytes_read,
                    scatter_us: *scatter_us,
                    apply_us: *apply_us,
                    io_wait_us: *io_wait_us,
                    tally,
                });
            }
            TraceEvent::BlockLoad { i, j, bytes, seq } => {
                let run = self.run();
                let act = run.blocks.entry((*i, *j)).or_default();
                act.loads += 1;
                act.bytes += bytes;
                run.io_size_hist.record(*bytes);
                if *seq {
                    run.seq_loads += 1;
                } else {
                    run.rand_loads += 1;
                }
            }
            TraceEvent::SchedulerDecision {
                iteration,
                s_seq,
                s_ran,
                cost_full,
                cost_on_demand,
                chosen,
            } => self.run().decisions.push(DecisionRow {
                iteration: *iteration,
                s_seq: *s_seq,
                s_ran: *s_ran,
                cost_full: *cost_full,
                cost_on_demand: *cost_on_demand,
                chosen: *chosen,
            }),
            TraceEvent::SciuPass { edges_served, .. }
            | TraceEvent::FciuPass { edges_served, .. } => {
                self.run().counters.cross_iter_edges += edges_served;
            }
            TraceEvent::BufferHit { bytes, .. } => {
                let run = self.run();
                run.counters.buffer_hits += 1;
                run.counters.buffer_hit_bytes += bytes;
                run.pending.buffer_hits += 1;
            }
            TraceEvent::BufferEviction { bytes, .. } => count(&mut self.run().evictions, *bytes),
            TraceEvent::ValueFlush { bytes, write: true } => {
                count(&mut self.run().value_writes, *bytes);
            }
            TraceEvent::ValueFlush {
                bytes,
                write: false,
            } => {
                count(&mut self.run().value_reads, *bytes);
            }
            TraceEvent::PrefetchIssued { bytes, .. } => {
                count(&mut self.run().prefetch_issued, *bytes);
            }
            TraceEvent::PrefetchHit { bytes, .. } => {
                let run = self.run();
                run.counters.prefetch_hits += 1;
                run.prefetch_hit_bytes += bytes;
                run.pending.prefetch_hits += 1;
            }
            TraceEvent::PrefetchStall { wait_us, .. } => {
                let run = self.run();
                run.counters.prefetch_misses += 1;
                run.prefetch_stall_us += wait_us;
                run.stall_hist.record(*wait_us);
                run.pending.prefetch_misses += 1;
                run.pending.stall_us += wait_us;
            }
            TraceEvent::CkptWritten { bytes, .. } => count(&mut self.run().ckpt_written, *bytes),
            TraceEvent::CkptRestored { bytes, .. } => count(&mut self.run().ckpt_restored, *bytes),
            TraceEvent::ChecksumOk { bytes, .. } => count(&mut self.run().verify_ok, *bytes),
            TraceEvent::CorruptionDetected { .. } => self.run().corruptions += 1,
            TraceEvent::ServeStarted { vertices, p } => {
                self.daemon.starts += 1;
                self.daemon.vertices = *vertices;
                self.daemon.p = *p;
            }
            TraceEvent::QueryAccepted { op, .. } => {
                self.daemon.ops.entry(op).or_default().accepted += 1;
            }
            TraceEvent::QueryCompleted {
                op,
                cache_hits,
                cache_misses,
                bytes_read,
                ..
            } => {
                let row = self.daemon.ops.entry(op).or_default();
                row.completed += 1;
                row.cache_hits += cache_hits;
                row.cache_misses += cache_misses;
                row.bytes_read += bytes_read;
            }
            TraceEvent::CacheAdmit { bytes, .. } => count(&mut self.daemon.cache_admits, *bytes),
            TraceEvent::CacheEvict { bytes, .. } => count(&mut self.daemon.cache_evicts, *bytes),
            TraceEvent::DeltaApplied {
                epoch,
                inserts,
                deletes,
                segments,
                bytes,
            } => self.mutations.epochs.push(EpochRow {
                epoch: *epoch,
                inserts: *inserts,
                deletes: *deletes,
                segments: *segments,
                bytes: *bytes,
            }),
            TraceEvent::CompactionStarted {
                segments, bytes, ..
            } => {
                self.mutations.compactions += 1;
                self.mutations.segments_folded.0 += segments;
                self.mutations.segments_folded.1 += bytes;
            }
            TraceEvent::CompactionFinished {
                blocks_rewritten,
                bytes,
                ..
            } => {
                self.mutations.blocks_rewritten.0 += blocks_rewritten;
                self.mutations.blocks_rewritten.1 += bytes;
            }
            TraceEvent::IncrementalSeeded { seeds, resets } => {
                self.mutations.incremental_runs += 1;
                self.mutations.incremental_seeds += seeds;
                self.mutations.incremental_resets += resets;
            }
        }
    }

    /// Folds a JSONL trace from `reader`: decode line → [`apply`]. A line
    /// the decoder rejects (not JSON, unknown `ev`, a missing, negative or
    /// ill-typed field, a truncated tail, bytes that are not UTF-8) is
    /// skipped and counted in `parse_errors`, so one bad line never
    /// poisons the fold; only I/O can fail.
    ///
    /// [`apply`]: TraceReport::apply
    pub fn from_reader(reader: impl BufRead) -> std::io::Result<TraceReport> {
        let mut report = TraceReport::default();
        for line in reader.split(b'\n') {
            let line = line?;
            let line = line.trim_ascii();
            if line.is_empty() {
                continue;
            }
            match serde_json::from_slice::<TraceEvent>(line) {
                Ok(event) => report.apply(&event),
                Err(_) => report.parse_errors += 1,
            }
        }
        Ok(report)
    }

    /// Folds the trace file at `path`.
    #[expect(
        clippy::disallowed_types,
        reason = "a trace file is the run's own output, not graph data: it bypasses Storage's accounting on purpose"
    )]
    pub fn from_path(path: impl AsRef<std::path::Path>) -> std::io::Result<TraceReport> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(std::io::BufReader::new(file))
    }

    /// Renders the whole report as human-readable text. `top_n` bounds
    /// the hottest-blocks and decision-log listings per run.
    pub fn render_text(&self, top_n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace replay: {} events, {} runs, {} unattributed, {} parse errors\n",
            self.total_events,
            self.runs.len(),
            self.unattributed,
            self.parse_errors
        ));
        for (idx, run) in self.runs.iter().enumerate() {
            render_run(&mut out, idx, run, top_n);
        }
        if self.daemon != DaemonSection::default() {
            render_daemon(&mut out, &self.daemon);
        }
        if self.mutations != MutationSection::default() {
            render_mutations(&mut out, &self.mutations);
        }
        out
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn render_hist(out: &mut String, label: &str, h: &HistogramSnapshot) {
    if h.count == 0 {
        out.push_str(&format!("  {label}: (empty)\n"));
        return;
    }
    let fmt_opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    out.push_str(&format!(
        "  {label}: n={} mean={:.1} p50<={} p95<={} p99<={}\n",
        h.count,
        h.mean().unwrap_or(0.0),
        fmt_opt(h.p50()),
        fmt_opt(h.p95()),
        fmt_opt(h.p99()),
    ));
    for (upper, n) in &h.buckets {
        out.push_str(&format!(
            "    <= {:>12}  {:>8}  {:>5.1}%\n",
            upper,
            n,
            pct(*n, h.count)
        ));
    }
}

fn render_run(out: &mut String, idx: usize, run: &RunSection, top_n: usize) {
    let (scatter_us, apply_us, io_wait_us) = run.phase_totals_us();
    let total_us = scatter_us + apply_us + io_wait_us;
    out.push_str(&format!(
        "\n=== run {} · engine={} algorithm={} iterations={} ===\n",
        idx, run.engine, run.algorithm, run.counters.iterations
    ));
    out.push_str("phase breakdown (traced wall time):\n");
    out.push_str(&format!(
        "  scatter {:>10}us ({:>5.1}%)   apply {:>10}us ({:>5.1}%)   io wait {:>10}us ({:>5.1}%)\n",
        scatter_us,
        pct(scatter_us, total_us),
        apply_us,
        pct(apply_us, total_us),
        io_wait_us,
        pct(io_wait_us, total_us),
    ));
    out.push_str(&format!(
        "io: {} bytes read across iterations; {} seq loads, {} on-demand loads\n",
        run.counters.bytes_read, run.seq_loads, run.rand_loads
    ));
    render_hist(out, "block load size (bytes)", &run.io_size_hist);
    out.push_str(&format!(
        "buffer: {} hits ({} B avoided), {} evictions ({} B)\n",
        run.counters.buffer_hits, run.counters.buffer_hit_bytes, run.evictions.0, run.evictions.1
    ));
    let pf_total = run.counters.prefetch_hits + run.counters.prefetch_misses;
    if pf_total > 0 {
        out.push_str(&format!(
            "prefetch: {} issued ({} B); {} hits / {} stalls ({:.1}% hit rate), {}us stalled\n",
            run.prefetch_issued.0,
            run.prefetch_issued.1,
            run.counters.prefetch_hits,
            run.counters.prefetch_misses,
            pct(run.counters.prefetch_hits, pf_total),
            run.prefetch_stall_us,
        ));
        render_hist(out, "stall wait (us)", &run.stall_hist);
    } else {
        out.push_str("prefetch: inactive\n");
    }
    if run.counters.cross_iter_edges > 0 {
        out.push_str(&format!(
            "cross-iteration: {} edges served ahead of their iteration\n",
            run.counters.cross_iter_edges
        ));
    }
    if run.ckpt_written.0 + run.ckpt_restored.0 > 0 {
        out.push_str(&format!(
            "recovery: {} checkpoints ({} B), {} restores; values {} B written, {} B read\n",
            run.ckpt_written.0,
            run.ckpt_written.1,
            run.ckpt_restored.0,
            run.value_writes.1,
            run.value_reads.1
        ));
    }
    if run.verify_ok.0 + run.corruptions > 0 {
        out.push_str(&format!(
            "integrity: {} verified objects ({} B), {} corruptions\n",
            run.verify_ok.0, run.verify_ok.1, run.corruptions
        ));
    }
    let hottest = run.hottest_blocks(top_n);
    if !hottest.is_empty() {
        out.push_str(&format!("hottest sub-blocks (top {}):\n", hottest.len()));
        for ((i, j), act) in hottest {
            out.push_str(&format!(
                "  ({i:>3},{j:>3})  {:>10} B in {:>6} loads\n",
                act.bytes, act.loads
            ));
        }
    }
    if !run.decisions.is_empty() {
        out.push_str(&format!(
            "scheduler decisions ({} total, showing up to {top_n}):\n",
            run.decisions.len()
        ));
        for d in run.decisions.iter().take(top_n) {
            out.push_str(&format!("  {}\n", d.explain()));
        }
    }
    out.push_str("per-iteration detail:\n");
    out.push_str(
        "  iter       model   frontier      read B  scatter us    apply us  io wait us  \
         buf hits  pf hits  pf miss  stall us\n",
    );
    for it in &run.iterations {
        out.push_str(&format!(
            "  {:>4}  {:>10}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>8}  {:>7}  {:>7}  {:>8}\n",
            it.iteration,
            it.model.as_str(),
            it.frontier,
            it.bytes_read,
            it.scatter_us,
            it.apply_us,
            it.io_wait_us,
            it.tally.buffer_hits,
            it.tally.prefetch_hits,
            it.tally.prefetch_misses,
            it.tally.stall_us
        ));
    }
}

fn render_daemon(out: &mut String, d: &DaemonSection) {
    let t = d.totals();
    out.push_str(&format!(
        "\n=== daemon · vertices={} P={} starts={} ===\n",
        d.vertices, d.p, d.starts
    ));
    out.push_str("queries:\n");
    out.push_str("          op  accepted  completed  cache hits  cache misses      read B\n");
    let total = ("total", &t);
    for (op, a) in d.ops.iter().map(|(op, a)| (*op, a)).chain([total]) {
        out.push_str(&format!(
            "  {:>10}  {:>8}  {:>9}  {:>10}  {:>12}  {:>10}\n",
            op, a.accepted, a.completed, a.cache_hits, a.cache_misses, a.bytes_read
        ));
    }
    out.push_str(&format!(
        "cache: {:.1}% of charged reads hit; {} admits ({} B), {} evicts ({} B)\n",
        pct(t.cache_hits, t.cache_hits + t.cache_misses),
        d.cache_admits.0,
        d.cache_admits.1,
        d.cache_evicts.0,
        d.cache_evicts.1
    ));
}

fn render_mutations(out: &mut String, m: &MutationSection) {
    out.push_str("\n=== mutations ===\n");
    if !m.epochs.is_empty() {
        out.push_str(&format!("batches ({} committed):\n", m.epochs.len()));
        out.push_str("  epoch   inserts   deletes  segments   segment B\n");
        for e in &m.epochs {
            out.push_str(&format!(
                "  {:>5}  {:>8}  {:>8}  {:>8}  {:>10}\n",
                e.epoch, e.inserts, e.deletes, e.segments, e.bytes
            ));
        }
    }
    if m.compactions > 0 {
        out.push_str(&format!(
            "compactions: {} passes folded {} segments ({} B) into {} rewritten blocks ({} B)\n",
            m.compactions,
            m.segments_folded.0,
            m.segments_folded.1,
            m.blocks_rewritten.0,
            m.blocks_rewritten.1
        ));
    }
    if m.incremental_runs > 0 {
        out.push_str(&format!(
            "incremental: {} recomputes seeded with {} vertices, {} reset\n",
            m.incremental_runs, m.incremental_seeds, m.incremental_resets
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_trace::{JsonlWriter, TraceSink};

    /// One GraphSD run, then a daemon's queries and a mutation cycle, as
    /// `--trace` writes them.
    const SAMPLE: &str = r#"
{"ev":"run_start","engine":"graphsd","algorithm":"PR"}
{"ev":"scheduler_decision","iteration":1,"s_seq":10,"s_ran":4,"cost_full":1.5,"cost_on_demand":0.25,"chosen":"on_demand"}
{"ev":"block_load","i":0,"j":1,"bytes":4096,"seq":false}
{"ev":"block_load","i":0,"j":1,"bytes":4096,"seq":true}
{"ev":"block_load","i":1,"j":1,"bytes":100,"seq":true}
{"ev":"buffer_hit","i":0,"j":1,"bytes":4096}
{"ev":"prefetch_issued","i":1,"j":1,"bytes":100}
{"ev":"prefetch_hit","i":1,"j":1,"bytes":100}
{"ev":"prefetch_stall","i":0,"j":1,"wait_us":250}
{"ev":"sciu_pass","iteration":1,"edges_served":77}
{"ev":"iteration_end","iteration":1,"model":"on_demand","frontier":14,"bytes_read":9092,"scatter_us":120,"apply_us":60,"io_wait_us":300}
{"ev":"ckpt_written","iteration":1,"bytes":1500}
{"ev":"value_flush","bytes":800,"write":true}
{"ev":"iteration_end","iteration":2,"model":"full","frontier":3,"bytes_read":100,"scatter_us":20,"apply_us":10,"io_wait_us":30}
{"ev":"run_end","engine":"graphsd","iterations":2}
{"ev":"serve_started","vertices":100,"p":4}
{"ev":"query_accepted","query":0,"op":"khop"}
{"ev":"cache_admit","i":0,"j":1,"bytes":512}
{"ev":"cache_evict","i":0,"j":1,"bytes":512}
{"ev":"query_completed","query":0,"op":"khop","cache_hits":3,"cache_misses":2,"bytes_read":2048}
{"ev":"query_accepted","query":1,"op":"mutate"}
{"ev":"delta_applied","epoch":1,"inserts":10,"deletes":2,"segments":4,"bytes":180}
{"ev":"query_completed","query":1,"op":"mutate","cache_hits":0,"cache_misses":0,"bytes_read":0}
{"ev":"incremental_seeded","seeds":12,"resets":7}
{"ev":"compaction_started","epoch":1,"segments":4,"bytes":180}
{"ev":"compaction_finished","epoch":1,"blocks_rewritten":6,"bytes":9000}
"#;

    fn sample_report() -> TraceReport {
        TraceReport::from_reader(SAMPLE.as_bytes()).unwrap()
    }

    #[test]
    fn replay_rebuilds_run_counters() {
        let report = sample_report();
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.parse_errors, 0);
        assert_eq!(report.unattributed, 0);
        let run = &report.runs[0];
        assert_eq!(run.engine, "graphsd");
        assert_eq!(run.algorithm, "PR");
        assert_eq!(run.run_end_iterations, 2);
        assert_eq!(
            run.counters,
            ReplayedCounters {
                iterations: 2,
                bytes_read: 9192,
                buffer_hits: 1,
                buffer_hit_bytes: 4096,
                prefetch_hits: 1,
                prefetch_misses: 1,
                cross_iter_edges: 77,
            }
        );
        assert_eq!(run.seq_loads, 2);
        assert_eq!(run.rand_loads, 1);
        assert_eq!(run.ckpt_written, (1, 1500));
        assert_eq!(run.value_writes, (1, 800));
        assert_eq!(run.value_reads, (0, 0));
        assert_eq!(run.prefetch_issued, (1, 100));
        assert_eq!(run.prefetch_stall_us, 250);
        assert_eq!(run.phase_totals_us(), (140, 70, 330));
        // Hottest block ranking: (0,1) carries 8192 B over 2 loads.
        let hottest = run.hottest_blocks(1);
        assert_eq!(hottest.len(), 1);
        assert_eq!(hottest[0].0, (0, 1));
        assert_eq!(
            hottest[0].1,
            BlockActivity {
                loads: 2,
                bytes: 8192
            }
        );
        // Load-size histogram: 2×4096 (le 4095? no — 4096 → le 8191) + 1×100.
        assert_eq!(run.io_size_hist.count, 3);
    }

    #[test]
    fn decision_explanations_cite_cost_terms() {
        let report = sample_report();
        let d = &report.runs[0].decisions[0];
        let text = d.explain();
        assert!(text.contains("on-demand"));
        assert!(text.contains("C_r 0.2500s"));
        assert!(text.contains("C_s 1.5000s"));
        assert!(text.contains("6.0x cheaper"));
        assert!(text.contains("10 clustered / 4 scattered"));
        let full = DecisionRow {
            iteration: 2,
            s_seq: 500,
            s_ran: 900,
            cost_full: 0.5,
            cost_on_demand: 2.0,
            chosen: AccessModel::Full,
        };
        assert!(full.explain().contains("chose full streaming"));
    }

    #[test]
    fn matches_run_stats_detects_drift() {
        let report = sample_report();
        let run = &report.runs[0];
        let mut stats = RunStats::new("graphsd", "PR");
        stats.iterations = 2;
        stats.buffer_hits = 1;
        stats.buffer_hit_bytes = 4096;
        stats.prefetch_hits = 1;
        stats.prefetch_misses = 1;
        stats.cross_iter_edges = 77;
        // per_iteration empty → expected per-iteration read sum is 0, and
        // the replay saw 9192: that must be flagged.
        let err = run.matches_run_stats(&stats).unwrap_err();
        assert!(err.contains("bytes_read"));
        // With matching per-iteration totals everything agrees.
        use gsd_io::IoStatsSnapshot;
        use gsd_runtime::{IoAccessModel, IterationStats};
        use std::time::Duration;
        for (n, bytes) in [(1u32, 9092u64), (2, 100)] {
            stats.push_iteration(IterationStats {
                iteration: n,
                model: IoAccessModel::Full,
                frontier: 1,
                io: IoStatsSnapshot {
                    seq_read_bytes: bytes,
                    ..Default::default()
                },
                io_time: Duration::ZERO,
                compute_time: Duration::ZERO,
                scatter_time: Duration::ZERO,
                apply_time: Duration::ZERO,
                io_wait_time: Duration::ZERO,
                prefetch_stall_time: Duration::ZERO,
                cross_iteration: false,
            });
        }
        run.matches_run_stats(&stats).unwrap();
        // A drifted counter is reported by name.
        stats.buffer_hits = 99;
        assert!(run
            .matches_run_stats(&stats)
            .unwrap_err()
            .contains("buffer_hits"));
    }

    #[test]
    fn malformed_and_unattributed_lines_are_counted() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"not json at all\n");
        buf.extend_from_slice(b"{\"no_ev_field\":1}\n");
        // An event before any run_start.
        buf.extend_from_slice(b"{\"ev\":\"buffer_hit\",\"i\":0,\"j\":0,\"bytes\":1}\n");
        buf.extend_from_slice(
            b"{\"ev\":\"run_start\",\"engine\":\"hus-graph\",\"algorithm\":\"CC\"}\n",
        );
        // A well-tagged event missing a required field.
        buf.extend_from_slice(b"{\"ev\":\"buffer_hit\",\"i\":0,\"j\":0}\n");
        let report = TraceReport::from_reader(buf.as_slice()).unwrap();
        assert_eq!(report.parse_errors, 3);
        assert_eq!(report.unattributed, 1);
        // The truncated run (no run_end) is still reported.
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].engine, "hus-graph");
        assert_eq!(report.runs[0].counters.buffer_hits, 0);
    }

    #[test]
    fn a_line_that_drifted_from_the_schema_is_an_error_not_a_default() {
        const START: &str = r#"{"ev":"run_start","engine":"graphsd","algorithm":"PR"}"#;
        const GOOD: &str = r#"{"ev":"buffer_hit","i":0,"j":1,"bytes":8}"#;
        let cases: [(&str, &[u8]); 7] = [
            (
                "iteration_end without model and phase times",
                br#"{"ev":"iteration_end","iteration":1,"frontier":5,"bytes_read":9}"#,
            ),
            (
                "block_load without seq",
                br#"{"ev":"block_load","i":0,"j":1,"bytes":64}"#,
            ),
            ("unknown ev", br#"{"ev":"heartbeat","series":1,"bytes":2}"#),
            (
                "negative count",
                br#"{"ev":"buffer_hit","i":0,"j":1,"bytes":-8}"#,
            ),
            (
                "string where a number belongs",
                br#"{"ev":"prefetch_stall","i":0,"j":1,"wait_us":"25"}"#,
            ),
            (
                "truncated last line",
                br#"{"ev":"buffer_hit","i":0,"j":1,"by"#,
            ),
            ("bytes that are not UTF-8", b"{\"ev\":\"buffer_hit\xff\xfe"),
        ];
        for (what, bad) in cases {
            let mut buf = format!("{START}\n{GOOD}\n").into_bytes();
            buf.extend_from_slice(bad);
            let report = TraceReport::from_reader(buf.as_slice())
                .unwrap_or_else(|e| panic!("{what}: content must never fail the fold: {e}"));
            assert_eq!(report.parse_errors, 1, "{what}");
            assert_eq!(report.total_events, 2, "{what}: the bad line is skipped");
            let run = &report.runs[0];
            assert_eq!(run.counters.buffer_hits, 1, "{what}: good lines still fold");
            assert!(run.iterations.is_empty(), "{what}: no defaulted row");
            assert_eq!((run.seq_loads, run.rand_loads), (0, 0), "{what}");
        }
    }

    #[test]
    fn serve_and_delta_events_fold_into_their_own_sections() {
        let report = sample_report();
        assert_eq!(report.unattributed, 0, "none of them needs a run");
        assert_eq!(report.total_events, 26);
        let d = &report.daemon;
        assert_eq!((d.starts, d.vertices, d.p), (1, 100, 4));
        assert_eq!(d.ops["khop"].completed, 1);
        let totals = OpActivity {
            accepted: 2,
            completed: 2,
            cache_hits: 3,
            cache_misses: 2,
            bytes_read: 2048,
        };
        assert_eq!(d.totals(), totals);
        assert_eq!((d.cache_admits, d.cache_evicts), ((1, 512), (1, 512)));
        let m = &report.mutations;
        assert_eq!(m.epochs.len(), 1);
        assert_eq!((m.epochs[0].inserts, m.epochs[0].segments), (10, 4));
        assert_eq!(
            (m.compactions, m.segments_folded, m.blocks_rewritten),
            (1, (4, 180), (6, 9000))
        );
        assert_eq!(
            (
                m.incremental_runs,
                m.incremental_seeds,
                m.incremental_resets
            ),
            (1, 12, 7)
        );
    }

    #[test]
    fn render_text_summarizes_every_section() {
        let report = sample_report();
        let text = report.render_text(5);
        assert!(text.contains("engine=graphsd algorithm=PR iterations=2"));
        assert!(text.contains("phase breakdown"));
        assert!(text.contains("hottest sub-blocks"));
        assert!(text.contains("scheduler decisions"));
        assert!(text.contains("block load size"));
        assert!(text.contains("1 hits / 1 stalls (50.0% hit rate)"));
        assert!(text.contains("=== daemon · vertices=100 P=4"));
        assert!(text.contains("=== mutations ==="));
        assert!(text.contains("6 rewritten blocks (9000 B)"));
        assert!(text.contains("recovery: 1 checkpoints (1500 B), 0 restores; values 800 B written"));
    }

    /// A resumed run reads its values back once, from the checkpoint it
    /// restores; every later checkpoint writes them.
    #[test]
    fn value_flushes_ride_with_checkpoint_commits_and_restores() {
        let trace = r#"
{"ev":"run_start","engine":"lumos","algorithm":"CC"}
{"ev":"ckpt_restored","iteration":3,"bytes":1500}
{"ev":"value_flush","bytes":800,"write":false}
{"ev":"iteration_end","iteration":4,"model":"full","frontier":9,"bytes_read":100,"scatter_us":20,"apply_us":10,"io_wait_us":30}
{"ev":"ckpt_written","iteration":4,"bytes":1500}
{"ev":"value_flush","bytes":800,"write":true}
{"ev":"run_end","engine":"lumos","iterations":4}
"#;
        let report = TraceReport::from_reader(trace.as_bytes()).unwrap();
        assert_eq!(report.parse_errors, 0);
        let run = &report.runs[0];
        assert_eq!(run.ckpt_restored, (1, 1500));
        assert_eq!(run.value_reads, (1, 800));
        assert_eq!(run.ckpt_written, (1, 1500));
        assert_eq!(run.value_writes, (1, 800));
        assert!(report.render_text(5).contains(
            "recovery: 1 checkpoints (1500 B), 1 restores; values 800 B written, 800 B read"
        ));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test: removes the trace file it wrote"
    )]
    fn jsonl_writer_output_replays_cleanly() {
        // End-to-end through the real sink: what JsonlWriter writes,
        // TraceReport must read — to the same fold as applying the events
        // directly, per-iteration tallies included.
        let path =
            std::env::temp_dir().join(format!("gsd_report_roundtrip_{}.jsonl", std::process::id()));
        let mut direct = TraceReport::default();
        {
            let sink = JsonlWriter::create(&path).unwrap();
            for line in SAMPLE.lines().filter(|l| !l.is_empty()) {
                let event: TraceEvent = serde_json::from_str(line).unwrap();
                sink.emit(&event);
                direct.apply(&event);
            }
        }
        let report = TraceReport::from_path(&path).unwrap();
        assert_eq!(report.parse_errors, 0);
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report, direct);
        let tallies: Vec<IterTally> = report.runs[0].iterations.iter().map(|r| r.tally).collect();
        let first = IterTally {
            buffer_hits: 1,
            prefetch_hits: 1,
            prefetch_misses: 1,
            stall_us: 250,
        };
        assert_eq!(tallies, [first, IterTally::default()]);
        let _ = std::fs::remove_file(&path);
    }
}
