//! Trace sinks: where events go.
//!
//! Engines hold an `Arc<dyn TraceSink>` and guard every emission with
//! [`TraceSink::enabled`], so the default [`NullSink`] costs one virtual
//! call returning a constant `false` per potential event — no event is
//! even constructed. [`RingRecorder`] keeps a bounded in-memory window
//! for tests and in-process inspection; [`JsonlWriter`] streams one JSON
//! object per line; [`FanoutSink`] tees to several sinks.

#![expect(
    clippy::disallowed_methods,
    reason = "designated concurrency module: the shared trace sinks serialise emitters behind their own mutex (and the JsonlWriter tests read back the file it wrote)"
)]

use crate::counters::Counter;
use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// A consumer of [`TraceEvent`]s. Implementations must be thread-safe:
/// engines may emit from parallel kernels.
pub trait TraceSink: Send + Sync {
    /// Whether this sink wants events at all. Emission sites check this
    /// before building an event, so disabled sinks are near-free.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// The default sink: drops everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &TraceEvent) {}
}

/// A fresh `Arc`'d [`NullSink`] — the default trace for every engine.
pub fn null_sink() -> Arc<dyn TraceSink> {
    Arc::new(NullSink)
}

/// A bounded in-memory recorder. When full, the **oldest** events are
/// dropped (and counted), so the recorder always holds the most recent
/// window — what a post-mortem wants.
pub struct RingRecorder {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: Counter,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            dropped: Counter::new(),
        }
    }

    /// Snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().iter().cloned().collect()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the recorder holds no events.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// How many events were dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Number of recorded events whose [`TraceEvent::kind`] equals `kind`.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.lock().iter().filter(|e| e.kind() == kind).count()
    }

    /// Discards all recorded events.
    pub fn clear(&self) {
        self.lock().clear();
        self.dropped.reset();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl TraceSink for RingRecorder {
    fn emit(&self, event: &TraceEvent) {
        let mut q = self.lock();
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.add(1);
        }
        q.push_back(event.clone());
    }
}

/// Streams one JSON object per event, newline-delimited (JSONL).
pub struct JsonlWriter {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlWriter {
    /// Creates (truncating) `path` and streams events into it.
    #[expect(
        clippy::disallowed_types,
        reason = "a trace file is the run's own output, not graph data: it bypasses Storage's accounting on purpose"
    )]
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(file))
    }

    /// Streams events into an arbitrary writer.
    pub fn from_writer(writer: impl Write + Send + 'static) -> Self {
        JsonlWriter {
            out: Mutex::new(BufWriter::new(Box::new(writer))),
        }
    }
}

impl TraceSink for JsonlWriter {
    fn emit(&self, event: &TraceEvent) {
        // Serialization of a flat event cannot fail; I/O errors are
        // swallowed — tracing must never take down the traced run.
        if let Ok(json) = serde_json::to_string(event) {
            let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = out.write_all(json.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }

    fn flush(&self) {
        let _ = self
            .out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush();
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        TraceSink::flush(self);
    }
}

/// Tees every event to each inner sink; enabled if any inner sink is.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// A fanout over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn emit(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.emit(event);
            }
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_recorder_bounds_and_counts() {
        let ring = RingRecorder::new(3);
        for k in 0..5u32 {
            ring.emit(&TraceEvent::IterationStart { iteration: k });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        // Oldest dropped: the window is iterations 2, 3, 4.
        assert_eq!(
            ring.events()[0],
            TraceEvent::IterationStart { iteration: 2 }
        );
        assert_eq!(ring.count_kind("iteration_start"), 3);
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_writer_emits_one_object_per_line() {
        let path =
            std::env::temp_dir().join(format!("gsd_trace_test_{}.jsonl", std::process::id()));
        {
            let sink = JsonlWriter::create(&path).unwrap();
            sink.emit(&TraceEvent::IterationStart { iteration: 1 });
            sink.emit(&TraceEvent::ValueFlush {
                bytes: 64,
                write: true,
            });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"ev":"iteration_start""#));
        assert!(lines[1].starts_with(r#"{"ev":"value_flush""#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_writer_flushes_on_drop() {
        // A run that exits without calling flush() must not truncate the
        // trailing trace events: dropping the writer flushes its buffer.
        let path =
            std::env::temp_dir().join(format!("gsd_trace_drop_{}.jsonl", std::process::id()));
        {
            let sink = JsonlWriter::create(&path).unwrap();
            for k in 0..100u32 {
                sink.emit(&TraceEvent::IterationStart { iteration: k });
            }
            // No explicit flush: Drop must do it.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 100);
        assert!(text.ends_with('\n'), "last event line is complete");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn null_sink_is_disabled_and_fanout_aggregates() {
        assert!(!NullSink.enabled());
        let ring = Arc::new(RingRecorder::new(8));
        let fan = FanoutSink::new(vec![Arc::new(NullSink), ring.clone()]);
        assert!(fan.enabled());
        fan.emit(&TraceEvent::IterationStart { iteration: 7 });
        assert_eq!(ring.len(), 1);
    }
}
