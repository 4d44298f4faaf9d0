//! The CLIs' trace-sink plumbing: the `--trace`/`--verbose` fan-out
//! ([`trace_sink`]), which reaches the engines as
//! [`crate::RunSettings::sink`], and the fold's sink form ([`LiveReport`]).

use crate::report::TraceReport;
use gsd_trace::{FanoutSink, JsonlWriter, TraceEvent, TraceSink};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The sink behind `--trace FILE` (a JSONL event trace) and `--verbose`
/// (the live per-iteration table): either, both fanned out, or the
/// disabled sink. Strictly observational — results and accounted I/O are
/// bit-identical whatever it is. The CLI flushes it before exiting.
pub fn trace_sink(trace: Option<&str>, verbose: bool) -> Result<Arc<dyn TraceSink>, String> {
    let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
    if let Some(path) = trace {
        let writer = JsonlWriter::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        sinks.push(Arc::new(writer));
    }
    if verbose {
        sinks.push(Arc::new(VerboseSink::default()));
    }
    Ok(match sinks.len() {
        0 => gsd_trace::null_sink(),
        1 => sinks.remove(0),
        _ => Arc::new(FanoutSink::new(sinks)),
    })
}

/// `gsd report`'s fold attached to a live process: a [`TraceSink`] that
/// applies every event as it is emitted. Strictly observational — it never
/// touches engine state or storage, so results and accounted I/O are
/// bit-identical with or without it.
#[derive(Default)]
pub struct LiveReport {
    fold: Mutex<TraceReport>,
}

impl LiveReport {
    /// The fold so far. Emitters block while the guard is held.
    pub fn lock(&self) -> MutexGuard<'_, TraceReport> {
        self.fold.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl TraceSink for LiveReport {
    fn emit(&self, event: &TraceEvent) {
        self.lock().apply(event);
    }
}

/// A sink that prints a live per-iteration table to stderr (`--verbose`):
/// every row is the [`crate::report::IterRow`] its own live fold
/// just closed, so the table shows what `gsd report` would replay.
///
/// Columns: iteration, chosen I/O model, frontier size, the scheduler's
/// `S_seq`/`S_ran` byte estimates (blank for engines without a scheduler),
/// bytes read, sub-block buffer hits, prefetch-pipeline hits and misses
/// (a miss = the consumer waited for a reader to deliver the read),
/// the accumulated stall time, and the scatter / apply / I/O-wait phase
/// times in microseconds.
#[derive(Default)]
pub struct VerboseSink {
    fold: LiveReport,
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| x.to_string())
}

impl TraceSink for VerboseSink {
    fn emit(&self, event: &TraceEvent) {
        let mut fold = self.fold.lock();
        match event {
            TraceEvent::RunStart { engine, algorithm } => {
                // A row needs only its own run: drop the finished ones.
                *fold = TraceReport::default();
                eprintln!("# trace: {engine} / {algorithm}");
                eprintln!(
                    "# {:>4}  {:>9}  {:>9}  {:>12}  {:>12}  {:>12}  {:>8}  {:>7}  {:>7}  {:>8}  {:>10}  {:>10}  {:>10}",
                    "iter",
                    "model",
                    "frontier",
                    "s_seq",
                    "s_ran",
                    "bytes_read",
                    "buf_hits",
                    "pf_hits",
                    "pf_miss",
                    "stall_us",
                    "scatter_us",
                    "apply_us",
                    "io_us"
                );
                fold.apply(event);
            }
            TraceEvent::IterationEnd { .. } => {
                fold.apply(event);
                let Some(run) = fold.runs.last() else { return };
                let Some(row) = run.iterations.last() else {
                    return;
                };
                let decision = run
                    .decisions
                    .last()
                    .filter(|d| d.iteration == row.iteration);
                eprintln!(
                    "# {:>4}  {:>9}  {:>9}  {:>12}  {:>12}  {:>12}  {:>8}  {:>7}  {:>7}  {:>8}  {:>10}  {:>10}  {:>10}",
                    row.iteration,
                    row.model.as_str(),
                    row.frontier,
                    opt(decision.map(|d| d.s_seq)),
                    opt(decision.map(|d| d.s_ran)),
                    row.bytes_read,
                    row.tally.buffer_hits,
                    row.tally.prefetch_hits,
                    row.tally.prefetch_misses,
                    row.tally.stall_us,
                    row.scatter_us,
                    row.apply_us,
                    row.io_wait_us
                );
            }
            // Folded but not rendered: the table tracks per-iteration I/O
            // behaviour only. Listed explicitly so a new variant forces a
            // decision here (GSD012).
            TraceEvent::RunEnd { .. }
            | TraceEvent::IterationStart { .. }
            | TraceEvent::BlockLoad { .. }
            | TraceEvent::SchedulerDecision { .. }
            | TraceEvent::SciuPass { .. }
            | TraceEvent::FciuPass { .. }
            | TraceEvent::BufferHit { .. }
            | TraceEvent::BufferEviction { .. }
            | TraceEvent::ValueFlush { .. }
            | TraceEvent::PrefetchIssued { .. }
            | TraceEvent::PrefetchHit { .. }
            | TraceEvent::PrefetchStall { .. }
            | TraceEvent::CkptWritten { .. }
            | TraceEvent::CkptRestored { .. }
            | TraceEvent::ChecksumOk { .. }
            | TraceEvent::CorruptionDetected { .. }
            | TraceEvent::ServeStarted { .. }
            | TraceEvent::QueryAccepted { .. }
            | TraceEvent::QueryCompleted { .. }
            | TraceEvent::CacheAdmit { .. }
            | TraceEvent::CacheEvict { .. }
            | TraceEvent::DeltaApplied { .. }
            | TraceEvent::CompactionStarted { .. }
            | TraceEvent::CompactionFinished { .. }
            | TraceEvent::IncrementalSeeded { .. } => fold.apply(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_trace::AccessModel;

    #[test]
    fn verbose_sink_tracks_decisions_and_hits() {
        let sink = VerboseSink::default();
        sink.emit(&TraceEvent::RunStart {
            engine: "graphsd",
            algorithm: "pr".to_string(),
        });
        sink.emit(&TraceEvent::SchedulerDecision {
            iteration: 1,
            s_seq: 100,
            s_ran: 40,
            cost_full: 1.0,
            cost_on_demand: 0.5,
            chosen: AccessModel::OnDemand,
        });
        sink.emit(&TraceEvent::BufferHit {
            i: 0,
            j: 0,
            bytes: 8,
        });
        sink.emit(&TraceEvent::PrefetchHit {
            i: 0,
            j: 1,
            bytes: 16,
        });
        sink.emit(&TraceEvent::PrefetchStall {
            i: 1,
            j: 1,
            wait_us: 25,
        });
        let iteration_end = |iteration| TraceEvent::IterationEnd {
            iteration,
            model: AccessModel::OnDemand,
            frontier: 10,
            bytes_read: 123,
            scatter_us: 5,
            apply_us: 3,
            io_wait_us: 9,
        };
        sink.emit(&iteration_end(1));
        sink.emit(&iteration_end(2));
        {
            let fold = sink.fold.lock();
            let run = &fold.runs[0];
            assert_eq!(run.decisions[0].s_seq, 100);
            let tally = run.iterations[0].tally;
            assert_eq!(
                (
                    tally.buffer_hits,
                    tally.prefetch_hits,
                    tally.prefetch_misses,
                    tally.stall_us
                ),
                (1, 1, 1, 25)
            );
            // The tallies reset with the row they were printed in.
            assert_eq!(run.iterations[1].tally, Default::default());
        }
        // The next run starts the fold over.
        sink.emit(&TraceEvent::RunStart {
            engine: "lumos",
            algorithm: "pr".to_string(),
        });
        assert_eq!(sink.fold.lock().runs.len(), 1);
        assert_eq!(sink.fold.lock().runs[0].engine, "lumos");
    }
}
