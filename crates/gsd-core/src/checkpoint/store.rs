//! Checkpoint persistence: commit protocol, discovery, validation and
//! retention.

use super::manifest::{Manifest, ManifestTag, MANIFEST_VERSION};
use super::snapshot::CheckpointData;
use gsd_integrity::{crc32, fnv64};
use gsd_io::{IoStatsSnapshot, SharedStorage, Storage};
use gsd_trace::{TraceEvent, TraceSink};
use std::io::{Error, ErrorKind};
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
/// Commit protocol (crash-safe at every step):
/// 1. snapshot object created (`Storage::create` = write-temp + rename),
/// 2. [`Storage::sync`] — snapshot durable before it is referenced,
/// 3. manifest object created (the commit point),
/// 4. [`Storage::sync`] — manifest durable,
/// 5. retention: checkpoints beyond the newest `retain` are deleted,
///    manifest first (un-commit), then snapshot.
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

    /// Routes `CkptWritten`/`CkptRestored` events to `trace`.
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

    fn manifest_key(&self, iteration: u32) -> String {
        format!("{}/manifest_{iteration:010}.json", self.dir)
    }

    /// Iterations that have a (possibly invalid) manifest, newest first.
    fn manifest_iterations(&self) -> Vec<u32> {
        let prefix = format!("{}/manifest_", self.dir);
        let mut iters: Vec<u32> = self
            .storage
            .list_keys()
            .into_iter()
            .filter_map(|key| {
                key.strip_prefix(&prefix)?
                    .strip_suffix(".json")?
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
        let blob = data.encode();
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            tag: self.tag.clone(),
            iteration: data.iteration,
            snapshot_key: self.snapshot_key(data.iteration),
            snapshot_bytes: blob.len() as u64,
            snapshot_crc: crc32(&blob),
        };
        self.storage.create(&manifest.snapshot_key, &blob)?;
        self.storage.sync()?;
        let manifest_json = serde_json::to_vec(&manifest).map_err(Error::other)?;
        self.storage
            .create(&self.manifest_key(data.iteration), &manifest_json)?;
        self.storage.sync()?;
        // Retention: newest `retain` survive; manifests die before their
        // snapshots so a crash mid-GC never leaves a dangling commit.
        for stale in self.manifest_iterations().into_iter().skip(self.retain) {
            self.storage.delete(&self.manifest_key(stale))?;
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
        }
        Ok(())
    }

    /// Loads the newest valid checkpoint matching this store's tag, or
    /// `None` when no usable checkpoint exists. Checkpoints that fail
    /// validation (version or tag mismatch, missing/truncated/corrupt
    /// snapshot) are skipped, falling back to the next-older one —
    /// recovery prefers losing an iteration over failing a run.
    pub fn latest(&self) -> std::io::Result<Option<CheckpointData>> {
        for iteration in self.manifest_iterations() {
            let Ok(bytes) = self.storage.read_all(&self.manifest_key(iteration)) else {
                continue;
            };
            let Ok(manifest) = serde_json::from_slice::<Manifest>(&bytes) else {
                continue;
            };
            if manifest.version != MANIFEST_VERSION || manifest.tag != self.tag {
                continue;
            }
            let Ok(blob) = self.storage.read_all(&manifest.snapshot_key) else {
                continue;
            };
            if blob.len() as u64 != manifest.snapshot_bytes || crc32(&blob) != manifest.snapshot_crc
            {
                continue;
            }
            let Ok(data) = CheckpointData::decode(&blob) else {
                continue;
            };
            if data.iteration != manifest.iteration {
                continue;
            }
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::CkptRestored {
                    iteration: data.iteration,
                    bytes: blob.len() as u64,
                });
            }
            return Ok(Some(data));
        }
        Ok(None)
    }

    /// Validation error for resuming engines: state dimensions must match
    /// the graph being processed.
    pub(crate) fn check_dimensions(&self, data: &CheckpointData, n: u32) -> std::io::Result<()> {
        if data.values.len() != n as usize || data.accum.len() != n as usize {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!(
                    "checkpoint holds {} values for a graph of {} vertices",
                    data.values.len(),
                    n
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_io::MemStorage;
    use gsd_runtime::RunStats;

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
    fn retention_keeps_the_newest_k() -> std::io::Result<()> {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let mut store = store_on(storage.clone());
        for i in 1..=5 {
            store.write(&data(i))?;
        }
        let keys = storage.list_keys();
        assert!(!keys.iter().any(|k| k.contains("0000000003")), "{keys:?}");
        assert!(keys.iter().any(|k| k.contains("manifest_0000000004")));
        assert!(keys.iter().any(|k| k.contains("manifest_0000000005")));
        assert!(keys.iter().any(|k| k.contains("snap_0000000005")));
        assert_eq!(keys.len(), 4, "{keys:?}");
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
        let other = CheckpointStore::new(storage, "ckpt", 2, other_algo);
        assert!(other.latest()?.is_none(), "algorithm must match");
        Ok(())
    }

    #[test]
    fn dimension_check_rejects_wrong_graph_size() {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let store = store_on(storage);
        assert!(store.check_dimensions(&data(1), 3).is_ok());
        let err = store.check_dimensions(&data(1), 4).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
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
