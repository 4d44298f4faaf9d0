//! `TimedStorage`: the benchmark's view of the `gsd-io` layer.
//!
//! A `Storage` decorator that times every `read_at` / `read_all` /
//! `create` / `write_at` / `sync` and records it as a span tagged with the
//! calling thread. Accounting (`stats`, sequential/random classification,
//! the disk model, unaccounted side reads) is the inner store's, untouched,
//! so a wrapped run reads the same bytes and commits the same values as a
//! bare one — the neutrality test below holds it to that.

use crate::spans::{thread_tag, SpanLog};
use graphsd::io::{DiskModel, IoStats, SharedStorage, Storage};
use graphsd::trace::CounterRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct OpTotals {
    ops: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    /// Busy time on the thread that built the wrapper — the engine's
    /// thread, so this share blocks the run; the rest overlaps it.
    busy_main_ns: AtomicU64,
}

/// Totals of one operation class since the wrapper was built.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSnapshot {
    pub ops: u64,
    pub bytes: u64,
    pub busy_s: f64,
    pub busy_main_s: f64,
}

impl OpTotals {
    fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            ops: self.ops.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            busy_main_s: self.busy_main_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

pub struct TimedStorage {
    inner: SharedStorage,
    log: Arc<SpanLog>,
    main_thread: u32,
    reads: OpTotals,
    writes: OpTotals,
    syncs: OpTotals,
}

impl TimedStorage {
    pub fn new(inner: SharedStorage, log: Arc<SpanLog>) -> Self {
        TimedStorage {
            inner,
            log,
            main_thread: thread_tag(),
            reads: OpTotals::default(),
            writes: OpTotals::default(),
            syncs: OpTotals::default(),
        }
    }

    pub fn reads(&self) -> OpSnapshot {
        self.reads.snapshot()
    }

    pub fn writes(&self) -> OpSnapshot {
        self.writes.snapshot()
    }

    pub fn syncs(&self) -> OpSnapshot {
        self.syncs.snapshot()
    }

    /// Times `op`, which reports how many bytes it moved.
    fn timed<T>(&self, totals: &OpTotals, name: &'static str, op: impl FnOnce() -> (T, u64)) -> T {
        let start = self.log.now_us();
        let (out, bytes) = op();
        let end = self.log.now_us();
        let ns = ((end - start) * 1e3) as u64;
        totals.ops.fetch_add(1, Ordering::Relaxed);
        totals.bytes.fetch_add(bytes, Ordering::Relaxed);
        totals.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if thread_tag() == self.main_thread {
            totals.busy_main_ns.fetch_add(ns, Ordering::Relaxed);
        }
        self.log.record(name, start, end, bytes);
        out
    }
}

impl Storage for TimedStorage {
    fn create(&self, key: &str, data: &[u8]) -> std::io::Result<()> {
        self.timed(&self.writes, "gsd-io.create", || {
            (self.inner.create(key, data), data.len() as u64)
        })
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let len = buf.len() as u64;
        self.timed(&self.reads, "gsd-io.read_at", || {
            (self.inner.read_at(key, offset, buf), len)
        })
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> std::io::Result<()> {
        self.timed(&self.writes, "gsd-io.write_at", || {
            (self.inner.write_at(key, offset, data), data.len() as u64)
        })
    }

    fn len(&self, key: &str) -> std::io::Result<u64> {
        self.inner.len(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn delete(&self, key: &str) -> std::io::Result<()> {
        self.inner.delete(key)
    }

    fn list_keys(&self) -> Vec<String> {
        self.inner.list_keys()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn disk_model(&self) -> Option<DiskModel> {
        self.inner.disk_model()
    }

    fn counters(&self) -> Option<&CounterRegistry> {
        self.inner.counters()
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_unaccounted(key, offset, buf)
    }

    fn read_all(&self, key: &str) -> std::io::Result<Vec<u8>> {
        self.timed(&self.reads, "gsd-io.read_all", || {
            let out = self.inner.read_all(key);
            let bytes = out.as_ref().map_or(0, |b| b.len() as u64);
            (out, bytes)
        })
    }

    fn sync(&self) -> std::io::Result<()> {
        self.timed(&self.syncs, "gsd-io.sync", || (self.inner.sync(), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{engine_config, fingerprint, preprocess_config};
    use graphsd::algos::{PageRank, Sssp};
    use graphsd::core::GraphSdEngine;
    use graphsd::graph::{preprocess, GeneratorConfig, GraphKind, GridGraph};
    use graphsd::io::MemStorage;
    use graphsd::runtime::{Engine, RunOptions, VertexProgram};

    /// Runs `program` over `storage`, bare or wrapped, and returns the
    /// value fingerprint, the accounted I/O and the wrapper.
    fn run<P: VertexProgram>(
        inner: &SharedStorage,
        wrap: bool,
        program: &P,
    ) -> (u64, graphsd::io::IoStatsSnapshot, Option<Arc<TimedStorage>>) {
        let timed =
            wrap.then(|| Arc::new(TimedStorage::new(inner.clone(), Arc::new(SpanLog::new()))));
        let storage: SharedStorage = match &timed {
            Some(timed) => timed.clone(),
            None => inner.clone(),
        };
        let grid = GridGraph::open(storage).unwrap();
        let config = engine_config(grid.meta(), true);
        let mut engine = GraphSdEngine::new(grid, config).unwrap();
        let result = engine.run(program, &RunOptions::default()).unwrap();
        (fingerprint(&result.values), result.stats.io, timed)
    }

    #[test]
    fn wrapping_changes_neither_bytes_nor_values() {
        let graph = GeneratorConfig::new(GraphKind::RMat, 3_000, 40_000, 17)
            .weighted()
            .generate();
        let inner: SharedStorage = Arc::new(MemStorage::new());
        preprocess(&graph, inner.as_ref(), &preprocess_config()).unwrap();
        for (bare, wrapped) in [
            (
                run(&inner, false, &PageRank::paper()),
                run(&inner, true, &PageRank::paper()),
            ),
            (
                run(&inner, false, &Sssp::new(0)),
                run(&inner, true, &Sssp::new(0)),
            ),
        ] {
            assert_eq!(bare.0, wrapped.0, "same values");
            assert_eq!(bare.1, wrapped.1, "same accounted reads, seeks and writes");
            // The wrapper saw every accounted byte (plus the grid's
            // metadata, read before the run's accounting starts).
            let timed = wrapped.2.unwrap();
            assert!(timed.reads().bytes >= wrapped.1.read_bytes());
            assert!(timed.reads().ops >= wrapped.1.seq_read_ops + wrapped.1.rand_read_ops);
            assert_eq!(timed.writes().bytes, wrapped.1.write_bytes);
            assert!(timed.reads().busy_s >= timed.reads().busy_main_s);
        }
    }
}
