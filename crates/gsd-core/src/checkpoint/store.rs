//! Checkpoint persistence: commit, discovery and retention.

use super::snapshot::{CheckpointData, ManifestTag};
use gsd_integrity::fnv64;
use gsd_io::{IoStatsSnapshot, SharedStorage, Storage};
use gsd_trace::{TraceEvent, TraceSink};
use std::sync::Arc;

/// FNV-1a/64 fingerprint of the preprocessed graph a grid prefix points
/// at (its `meta.json` bytes). Interval boundaries, block layout, codec
/// and sort order all live in the metadata, so any preprocessing change
/// that could make a checkpoint unsound changes the fingerprint. The
/// delta epoch lives there too (every ingest reseals the meta), so
/// mutating the graph conservatively invalidates warm checkpoints — resuming values computed against the previous epoch's
/// edge set would be unsound.
pub fn graph_fingerprint(storage: &dyn Storage, grid_prefix: &str) -> std::io::Result<u64> {
    storage
        .read_all(&format!("{grid_prefix}meta.json"))
        .map(|bytes| fnv64(&bytes))
}

/// Writes, discovers and garbage-collects checkpoints for one run
/// identity ([`ManifestTag`]) under one key prefix.
///
/// A checkpoint is one object, `dir/snap_{iteration:010}.bin`, and it
/// commits itself:
/// 1. the snapshot is created — `Storage::create` is atomic on every
///    backend (write-temp + `sync_data` + rename on files, an `Arc` swap
///    in memory), so a reader sees the whole object or none of it;
/// 2. one [`Storage::sync`] makes the rename durable — the commit point;
/// 3. only then are snapshots beyond the newest `retain` deleted, so a
///    crash at any step leaves the previous checkpoint in place.
///
/// A torn, foreign or stale object fails [`CheckpointData::decode`], and
/// [`CheckpointStore::latest`] falls back to the next-older one.
pub struct CheckpointStore {
    storage: SharedStorage,
    dir: String,
    retain: usize,
    tag: ManifestTag,
    trace: Arc<dyn TraceSink>,
    io: IoStatsSnapshot,
}

impl CheckpointStore {
    /// A store for checkpoints of the run identified by `tag`, kept under
    /// `dir/` in `storage`, retaining the newest `retain` checkpoints.
    pub fn new(
        storage: SharedStorage,
        dir: impl Into<String>,
        retain: usize,
        tag: ManifestTag,
    ) -> Self {
        CheckpointStore {
            storage,
            dir: dir.into(),
            retain: retain.max(1),
            tag,
            trace: gsd_trace::null_sink(),
            io: IoStatsSnapshot::default(),
        }
    }

    /// Routes `CkptWritten`/`CkptRestored` events, and the `ValueFlush`
    /// each carries its values with, to `trace`.
    pub(crate) fn set_trace(&mut self, trace: Arc<dyn TraceSink>) {
        self.trace = trace;
    }

    /// Cumulative storage traffic of every [`CheckpointStore::write`] call
    /// so far. Engines subtract this from their run totals so a
    /// checkpointed run reports the same I/O accounting as an
    /// unprotected one (the determinism contract; see DESIGN.md §13).
    pub(crate) fn io(&self) -> IoStatsSnapshot {
        self.io
    }

    fn snapshot_key(&self, iteration: u32) -> String {
        format!("{}/snap_{iteration:010}.bin", self.dir)
    }

    /// Iterations that have a (possibly invalid) snapshot, newest first.
    fn snapshot_iterations(&self) -> Vec<u32> {
        let prefix = format!("{}/snap_", self.dir);
        let mut iters: Vec<u32> = self
            .storage
            .list_keys()
            .into_iter()
            .filter_map(|key| {
                key.strip_prefix(&prefix)?
                    .strip_suffix(".bin")?
                    .parse()
                    .ok()
            })
            .collect();
        iters.sort_unstable_by(|a, b| b.cmp(a));
        iters
    }

    /// Commits a checkpoint of `data` (see the commit protocol above) and
    /// applies the retention policy.
    pub fn write(&mut self, data: &CheckpointData) -> std::io::Result<()> {
        let before = self.storage.stats().snapshot();
        let blob = data.encode(&self.tag);
        self.storage
            .create(&self.snapshot_key(data.iteration), &blob)?;
        self.storage.sync()?;
        for stale in self.snapshot_iterations().into_iter().skip(self.retain) {
            self.storage.delete(&self.snapshot_key(stale))?;
        }
        self.io = self
            .io
            .plus(&self.storage.stats().snapshot().since(&before));
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::CkptWritten {
                iteration: data.iteration,
                bytes: blob.len() as u64,
            });
            self.trace.emit(&TraceEvent::ValueFlush {
                bytes: data.values_bytes(),
                write: true,
            });
        }
        Ok(())
    }

    /// Loads the newest snapshot that decodes for this store's tag, or
    /// `None` when no usable checkpoint exists. Snapshots that fail
    /// (unreadable, torn, corrupt, another run's, or a shape that does not
    /// fit the graph) are skipped, falling back to the next-older one —
    /// recovery prefers losing an iteration over failing a run.
    pub fn latest(&self) -> std::io::Result<Option<CheckpointData>> {
        for iteration in self.snapshot_iterations() {
            let Ok(blob) = self.storage.read_all(&self.snapshot_key(iteration)) else {
                continue;
            };
            let Ok(data) = CheckpointData::decode(&blob, &self.tag) else {
                continue;
            };
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::CkptRestored {
                    iteration: data.iteration,
                    bytes: blob.len() as u64,
                });
                self.trace.emit(&TraceEvent::ValueFlush {
                    bytes: data.values_bytes(),
                    write: false,
                });
            }
            return Ok(Some(data));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_io::{IoStats, MemStorage};
    use gsd_runtime::RunStats;
    use gsd_trace::Counter;

    fn tag() -> ManifestTag {
        ManifestTag {
            engine: "graphsd".into(),
            algorithm: "pagerank".into(),
            value_bytes: 8,
            num_vertices: 3,
            graph_fingerprint: 0xfeed,
            config_hash: 7,
        }
    }

    fn data(iteration: u32) -> CheckpointData {
        CheckpointData {
            iteration,
            values: vec![iteration as u64, 2, 3],
            accum: vec![0, 0, 0],
            frontier: vec![0, 1],
            touched: vec![],
            stats: RunStats::new("graphsd", "pagerank"),
            extra: vec![1, 2, 3],
        }
    }

    fn store_on(storage: SharedStorage) -> CheckpointStore {
        CheckpointStore::new(storage, "ckpt", 2, tag())
    }

    /// A `MemStorage` that counts the calls a commit makes.
    #[derive(Default)]
    struct Counting {
        inner: MemStorage,
        creates: Counter,
        syncs: Counter,
    }

    impl Storage for Counting {
        fn create(&self, key: &str, data: &[u8]) -> std::io::Result<()> {
            self.creates.add(1);
            self.inner.create(key, data)
        }
        fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read_at(key, offset, buf)
        }
        fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> std::io::Result<()> {
            self.inner.write_at(key, offset, data)
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
        fn sync(&self) -> std::io::Result<()> {
            self.syncs.add(1);
            self.inner.sync()
        }
    }

    #[test]
    fn write_then_latest_roundtrips() -> std::io::Result<()> {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let mut store = store_on(storage.clone());
        assert!(store.latest()?.is_none());
        store.write(&data(1))?;
        store.write(&data(2))?;
        let got = store.latest()?.expect("checkpoint exists");
        assert_eq!(got, data(2));
        assert!(store.io().write_bytes > 0, "commit traffic accounted");
        Ok(())
    }

    #[test]
    fn a_checkpoint_is_one_object_and_one_sync() -> std::io::Result<()> {
        let counting = Arc::new(Counting::default());
        let mut store = store_on(counting.clone());
        for i in 1..=5 {
            let (creates, syncs) = (counting.creates.get(), counting.syncs.get());
            store.write(&data(i))?;
            assert_eq!(counting.creates.get() - creates, 1, "objects created");
            assert_eq!(counting.syncs.get() - syncs, 1, "syncs");
        }
        // Retention keeps the newest two; nothing else lives there.
        assert_eq!(
            counting.list_keys(),
            ["ckpt/snap_0000000004.bin", "ckpt/snap_0000000005.bin"]
        );
        Ok(())
    }

    #[test]
    fn commits_and_restores_flush_the_values_section() -> std::io::Result<()> {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let recorder = Arc::new(gsd_trace::RingRecorder::new(16));
        let mut store = store_on(storage);
        store.set_trace(recorder.clone());
        store.write(&data(1))?;
        store.latest()?;
        let flushes: Vec<(u64, bool)> = recorder
            .events()
            .iter()
            .filter_map(|e| {
                if let TraceEvent::ValueFlush { bytes, write } = e {
                    Some((*bytes, *write))
                } else {
                    None
                }
            })
            .collect();
        // Three vertices, one u64 bit pattern each.
        assert_eq!(flushes, [(24, true), (24, false)]);
        Ok(())
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() -> std::io::Result<()> {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let mut store = store_on(storage.clone());
        store.write(&data(1))?;
        store.write(&data(2))?;
        // Corrupt the newest snapshot in place.
        let key = "ckpt/snap_0000000002.bin";
        let mut blob = storage.read_all(key)?;
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        storage.create(key, &blob)?;
        let got = store.latest()?.expect("older checkpoint survives");
        assert_eq!(got.iteration, 1);
        Ok(())
    }

    #[test]
    fn tag_mismatch_is_not_resumed() -> std::io::Result<()> {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let mut store = store_on(storage.clone());
        store.write(&data(1))?;
        let mut other_tag = tag();
        other_tag.graph_fingerprint ^= 1;
        let other = CheckpointStore::new(storage.clone(), "ckpt", 2, other_tag);
        assert!(other.latest()?.is_none(), "fingerprint must match");
        let mut other_algo = tag();
        other_algo.algorithm = "bfs".into();
        let other = CheckpointStore::new(storage.clone(), "ckpt", 2, other_algo);
        assert!(other.latest()?.is_none(), "algorithm must match");
        let mut bigger = tag();
        bigger.num_vertices = 4;
        let other = CheckpointStore::new(storage, "ckpt", 2, bigger);
        assert!(other.latest()?.is_none(), "vertex count must match");
        Ok(())
    }

    #[test]
    fn graph_fingerprint_tracks_meta_content() -> std::io::Result<()> {
        let storage = MemStorage::new();
        storage.create("g/meta.json", b"{\"p\":4}")?;
        let a = graph_fingerprint(&storage, "g/")?;
        storage.create("g/meta.json", b"{\"p\":5}")?;
        let b = graph_fingerprint(&storage, "g/")?;
        assert_ne!(a, b);
        assert!(graph_fingerprint(&storage, "absent/").is_err());
        Ok(())
    }
}
