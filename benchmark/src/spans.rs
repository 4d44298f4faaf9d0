//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's side of the program's two
//! seams: [`crate::timed_storage::TimedStorage`] wraps every storage call
//! and [`CollectSink`] turns the program's own `TraceEvent`s into spans
//! (run → iteration → block load / prefetch / checkpoint …). Everything
//! stays in memory until the workload ends; end-to-end numbers never come
//! from a run that records here.

use graphsd::trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Spans kept per workload; later ones are counted as dropped.
const MAX_SPANS: usize = 400_000;

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_TAG: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small stable tag of the calling thread (0 is the first thread that
/// asked — the benchmark's main thread, which drives the engines).
pub fn thread_tag() -> u32 {
    THREAD_TAG.with(|t| *t)
}

pub struct Span {
    pub id: u32,
    /// The span that caused this one (0 = none).
    pub parent: u32,
    /// One id per analytic run, mutation cycle or serve round.
    pub run: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Bytes, microseconds or a count, depending on `name`.
    pub arg: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    dropped: u64,
    /// Per span name: occurrences and the sum of `arg`.
    totals: BTreeMap<&'static str, (u64, u64)>,
}

pub struct SpanLog {
    epoch: Instant,
    inner: Mutex<Inner>,
    next_id: AtomicU32,
    /// Innermost open span of the driving thread; storage calls made by
    /// prefetch workers are attributed to it too (it scheduled them).
    current: AtomicU32,
    run: AtomicU32,
}

impl SpanLog {
    pub fn new() -> Self {
        thread_tag();
        SpanLog {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            run: AtomicU32::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Starts the next run / cycle / round: spans recorded from here on
    /// carry its id.
    pub fn next_run(&self) -> u32 {
        self.run.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn push(&self, name: &'static str, parent: u32, start_us: f64, end_us: f64, arg: u64) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.lock();
        let total = inner.totals.entry(name).or_insert((0, 0));
        total.0 += 1;
        total.1 += arg;
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped += 1;
        } else {
            inner.spans.push(Span {
                id,
                parent,
                run: self.run.load(Ordering::Relaxed),
                thread: thread_tag(),
                name,
                start_us,
                end_us,
                arg,
            });
        }
        id
    }

    /// Records a finished span under the innermost open one.
    pub fn record(&self, name: &'static str, start_us: f64, end_us: f64, arg: u64) {
        self.push(
            name,
            self.current.load(Ordering::Relaxed),
            start_us,
            end_us,
            arg,
        );
    }

    /// Opens a span and makes it the parent of what follows.
    pub fn begin(&self, name: &'static str, arg: u64) -> u32 {
        let id = self.push(
            name,
            self.current.load(Ordering::Relaxed),
            self.now_us(),
            f64::NAN,
            arg,
        );
        self.current.store(id, Ordering::Relaxed);
        id
    }

    /// Closes span `id` and restores its parent as the innermost span.
    pub fn end(&self, id: u32) {
        let now = self.now_us();
        let mut inner = self.lock();
        if let Some(span) = inner.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = now;
            self.current.store(span.parent, Ordering::Relaxed);
        } else {
            self.current.store(0, Ordering::Relaxed);
        }
    }

    /// Occurrences of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.lock().totals.get(name).map_or(0, |t| t.0)
    }

    /// Sum of `arg` over spans named `name`.
    pub fn sum(&self, name: &str) -> u64 {
        self.lock().totals.get(name).map_or(0, |t| t.1)
    }

    /// Writes `{"context": …, "dropped": n, "spans": [[id, parent, run,
    /// thread, name, start_us, end_us, arg], …]}`.
    pub fn write_json(&self, path: &std::path::Path, context_json: &str) -> std::io::Result<()> {
        use std::io::Write;
        let inner = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"context\":{context_json},\"dropped\":{},",
            inner.dropped
        )?;
        write!(out, "\"columns\":[\"id\",\"parent\",\"run\",\"thread\",\"name\",\"start_us\",\"end_us\",\"arg\"],\"spans\":[")?;
        for (k, s) in inner.spans.iter().enumerate() {
            let end = if s.end_us.is_nan() {
                s.start_us
            } else {
                s.end_us
            };
            write!(
                out,
                "{}[{},{},{},{},\"{}\",{:.1},{:.1},{}]",
                if k == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.run,
                s.thread,
                s.name,
                s.start_us,
                end,
                s.arg
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// A `TraceSink` owned by the benchmark: the program's events become
/// spans and per-kind totals in a [`SpanLog`].
pub struct CollectSink {
    log: std::sync::Arc<SpanLog>,
    /// Open run / iteration / compaction / query spans, innermost last.
    open: Mutex<Vec<(u64, u32)>>,
}

/// Key of the open-span stack for spans that are not per-query.
const RUN_KEY: u64 = u64::MAX;
const ITER_KEY: u64 = u64::MAX - 1;
const COMPACT_KEY: u64 = u64::MAX - 2;

impl CollectSink {
    pub fn new(log: std::sync::Arc<SpanLog>) -> Self {
        CollectSink {
            log,
            open: Mutex::new(Vec::new()),
        }
    }

    fn open_span(&self, key: u64, name: &'static str, arg: u64) {
        let id = self.log.begin(name, arg);
        self.open
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((key, id));
    }

    fn close_span(&self, key: u64) {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = open.iter().rposition(|(k, _)| *k == key) {
            let (_, id) = open.remove(pos);
            self.log.end(id);
        }
    }

    fn instant(&self, name: &'static str, arg: u64) {
        let now = self.log.now_us();
        self.log.record(name, now, now, arg);
    }
}

impl TraceSink for CollectSink {
    fn emit(&self, event: &TraceEvent) {
        use TraceEvent as E;
        match event {
            E::RunStart { .. } => self.open_span(RUN_KEY, "run", 0),
            E::RunEnd { .. } => self.close_span(RUN_KEY),
            E::IterationStart { iteration } => {
                self.open_span(ITER_KEY, "iteration", u64::from(*iteration))
            }
            E::IterationEnd { .. } => self.close_span(ITER_KEY),
            E::CompactionStarted { bytes, .. } => self.open_span(COMPACT_KEY, "compaction", *bytes),
            E::CompactionFinished { bytes, .. } => {
                self.instant("compaction_rewritten", *bytes);
                self.close_span(COMPACT_KEY);
            }
            E::QueryAccepted { query, .. } => self.open_span(*query, "query", *query),
            E::QueryCompleted {
                query, bytes_read, ..
            } => {
                self.instant("query_read", *bytes_read);
                self.close_span(*query);
            }
            E::BlockLoad { bytes, .. } => self.instant("block_load", *bytes),
            E::BufferHit { bytes, .. } => self.instant("buffer_hit", *bytes),
            E::BufferEviction { bytes, .. } => self.instant("buffer_eviction", *bytes),
            E::ValueFlush { bytes, .. } => self.instant("value_flush", *bytes),
            E::PrefetchIssued { bytes, .. } => self.instant("prefetch_issued", *bytes),
            E::PrefetchHit { bytes, .. } => self.instant("prefetch_hit", *bytes),
            E::PrefetchStall { wait_us, .. } => self.instant("prefetch_stall", *wait_us),
            E::CkptWritten { bytes, .. } => self.instant("ckpt_written", *bytes),
            E::CkptRestored { bytes, .. } => self.instant("ckpt_restored", *bytes),
            E::ChecksumOk { bytes, .. } => self.instant("checksum_ok", *bytes),
            E::CacheAdmit { bytes, .. } => self.instant("cache_admit", *bytes),
            E::CacheEvict { bytes, .. } => self.instant("cache_evict", *bytes),
            E::DeltaApplied {
                segments, bytes, ..
            } => {
                self.instant("delta_segments", *segments);
                self.instant("delta_applied", *bytes);
            }
            E::IncrementalSeeded { seeds, resets } => {
                self.instant("incremental_seeds", *seeds);
                self.instant("incremental_resets", *resets);
            }
            E::SciuPass { edges_served, .. } => self.instant("sciu_pass", *edges_served),
            E::FciuPass { edges_served, .. } => self.instant("fciu_pass", *edges_served),
            other => self.instant(other.kind(), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn events_nest_under_run_and_iteration() {
        let log = Arc::new(SpanLog::new());
        let sink = CollectSink::new(log.clone());
        sink.emit(&TraceEvent::RunStart {
            engine: "graphsd",
            algorithm: "pr".into(),
        });
        sink.emit(&TraceEvent::IterationStart { iteration: 1 });
        sink.emit(&TraceEvent::BlockLoad {
            i: 0,
            j: 0,
            bytes: 64,
            seq: true,
        });
        log.record("gsd-io.read_at", 1.0, 2.0, 64);
        sink.emit(&TraceEvent::IterationEnd {
            iteration: 1,
            model: graphsd::trace::AccessModel::Full,
            frontier: 1,
            bytes_read: 64,
            scatter_us: 0,
            apply_us: 0,
            io_wait_us: 0,
        });
        sink.emit(&TraceEvent::RunEnd {
            engine: "graphsd",
            iterations: 1,
        });
        let inner = log.lock();
        let by_name = |n: &str| inner.spans.iter().find(|s| s.name == n).unwrap();
        let (run, iter) = (by_name("run"), by_name("iteration"));
        assert_eq!(run.parent, 0);
        assert_eq!(iter.parent, run.id);
        assert_eq!(by_name("block_load").parent, iter.id);
        assert_eq!(by_name("gsd-io.read_at").parent, iter.id);
        assert!(run.end_us >= iter.end_us && iter.end_us >= iter.start_us);
        drop(inner);
        assert_eq!(log.count("block_load"), 1);
        assert_eq!(log.sum("block_load"), 64);
        assert_eq!(log.current.load(Ordering::Relaxed), 0, "everything closed");
    }
}
