//! The keyed block-store abstraction and its three backends.
//!
//! Engines address on-disk graph data by string keys (e.g.
//! `blocks/b_3_7.edges`) and perform positioned reads and writes. Each
//! backend mechanically classifies every read as *sequential* (it starts
//! exactly where the previous request on the same key ended) or *random*
//! (the head had to move), feeding the [`IoStats`] counters that all of the
//! paper's I/O figures are computed from.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "designated concurrency and file module: MemStorage/FileStorage interior locking (object map, read cursors), and FileStorage is the one place graph data touches std::fs"
)]

use crate::model::DiskModel;
use crate::stats::IoStats;
use gsd_trace::CounterRegistry;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fs;
use std::io::{Error, ErrorKind, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Convenience alias for a shareable dynamic storage handle.
pub type SharedStorage = Arc<dyn Storage>;

/// A keyed block store with positioned I/O and mechanical
/// sequential/random classification.
///
/// All methods take `&self`; implementations are internally synchronized so
/// the prefetch workers, the serve daemon's connection threads and the
/// compute thread can issue requests against one handle.
pub trait Storage: Send + Sync {
    /// Creates (or atomically replaces) the object `key` with `data`.
    fn create(&self, key: &str, data: &[u8]) -> crate::Result<()>;

    /// Reads exactly `buf.len()` bytes starting at `offset` into `buf`.
    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()>;

    /// Overwrites `data.len()` bytes of `key` starting at `offset`.
    /// The write must lie within the existing object.
    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> crate::Result<()>;

    /// Size of object `key` in bytes.
    fn len(&self, key: &str) -> crate::Result<u64>;

    /// Whether object `key` exists.
    fn exists(&self, key: &str) -> bool;

    /// Deletes object `key` (idempotent: missing keys are not an error).
    fn delete(&self, key: &str) -> crate::Result<()>;

    /// All existing keys, in lexicographic order. The ordering is part
    /// of the contract: scrub, recovery-GC and repair walk this list,
    /// and a backend-dependent order would make their trace and repair
    /// logs differ run to run (the no-hash-container discipline, DESIGN.md §11).
    fn list_keys(&self) -> Vec<String>;

    /// The I/O counters this backend reports into.
    fn stats(&self) -> Arc<IoStats>;

    /// The performance model this backend prices requests with, if it is a
    /// simulator. Engines use it to seed their I/O cost model so scheduler
    /// predictions match the simulator's charges; real backends return
    /// `None` and callers fall back to a configured model.
    fn disk_model(&self) -> Option<DiskModel> {
        None
    }

    /// No backend keeps request histograms; this default (and
    /// `gsd_trace::CounterRegistry`) stay only because the frozen
    /// `benchmark/src/timed_storage.rs` overrides the method.
    fn counters(&self) -> Option<&CounterRegistry> {
        None
    }

    /// Reads exactly `buf.len()` bytes starting at `offset` into `buf`
    /// **without touching any accounting**: no [`IoStats`] traffic, no
    /// sequential/random cursor movement, and on a simulator no
    /// virtual-clock charge.
    ///
    /// This exists for *side-channel* reads — integrity verification
    /// re-reading an object to checksum it — that must not perturb the
    /// I/O figures the paper's experiments are computed from. Decorators
    /// (crash injection) must forward this to their inner store's
    /// `read_unaccounted`, or the default would route the side read
    /// through the accounted `read_at` path.
    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        self.read_at(key, offset, buf)
    }

    /// Reads the whole object `key`.
    ///
    /// Contract: the returned buffer is the object's **entire content as
    /// of a single moment**. The default implementation is len-then-read
    /// and therefore not atomic against a concurrent `create` replacing
    /// the object; if the object shrinks between the two calls the
    /// trailing short read is surfaced as a clean `UnexpectedEof` error
    /// naming the key — never a short or mixed buffer. (If it *grows*,
    /// the prefix that is returned is entirely from the old object only
    /// on backends whose `create` swaps atomically, which all in-tree
    /// backends do.) Backends that can snapshot atomically override this
    /// (`MemStorage` clones the object handle under its lock).
    fn read_all(&self, key: &str) -> crate::Result<Vec<u8>> {
        let n = usize::try_from(self.len(key)?).map_err(|_| {
            Error::new(
                ErrorKind::OutOfMemory,
                format!("object {key} does not fit in memory"),
            )
        })?;
        let mut buf = vec![0u8; n];
        if n > 0 {
            self.read_at(key, 0, &mut buf).map_err(|e| {
                if e.kind() == ErrorKind::UnexpectedEof {
                    Error::new(
                        ErrorKind::UnexpectedEof,
                        format!("object {key} changed size during read_all (was {n} bytes)"),
                    )
                } else {
                    e
                }
            })?;
        }
        Ok(buf)
    }

    /// Flushes all buffered state to durable media. The checkpoint commit
    /// protocol (`gsd_core::checkpoint`) calls this once after creating a
    /// snapshot and before deleting older ones, so a crash cannot lose the
    /// last durable checkpoint to garbage collection. Backends without buffering
    /// semantics (in-memory, simulated) default to a no-op; `SimDisk`
    /// overrides it to charge the flush to the virtual clock.
    fn sync(&self) -> crate::Result<()> {
        Ok(())
    }
}

fn not_found(key: &str) -> Error {
    Error::new(ErrorKind::NotFound, format!("no such object: {key}"))
}

fn out_of_range(key: &str, offset: u64, len: usize, size: u64) -> Error {
    // In u128 so the message of a range ending past `u64::MAX` is exact too.
    let end = u128::from(offset) + len as u128;
    Error::new(
        ErrorKind::UnexpectedEof,
        format!("range {offset}..{end} out of bounds for object {key} of {size} bytes"),
    )
}

/// `offset..offset + len` as an index range into an object of `size`
/// bytes, or the trait's `UnexpectedEof` when the range does not fit —
/// including a range whose end overflows.
fn span(key: &str, offset: u64, len: usize, size: usize) -> crate::Result<Range<usize>> {
    usize::try_from(offset)
        .ok()
        .and_then(|start| Some(start..start.checked_add(len)?))
        .filter(|range| range.end <= size)
        .ok_or_else(|| out_of_range(key, offset, len, size as u64))
}

/// A virtual-clock charge in whole nanoseconds (saturating, which only a
/// price of more than 584 years could reach).
fn nanos(cost: Duration) -> u64 {
    u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX)
}

/// Tracks, per key, where the previous read ended, so reads can be
/// classified sequential vs random without trusting caller hints.
struct Cursors(Mutex<BTreeMap<String, u64>>);

impl Cursors {
    fn new() -> Self {
        Cursors(Mutex::new(BTreeMap::new()))
    }

    /// Classifies a completed read of `len` bytes at `offset`, counts it
    /// in `stats`, and returns `true` when it was discontiguous (a seek).
    fn count_read(&self, stats: &IoStats, key: &str, offset: u64, len: u64) -> bool {
        let end = offset.saturating_add(len);
        let discontiguous = self.0.lock().insert(key.to_owned(), end) != Some(offset);
        if discontiguous {
            stats.record_rand_read(len);
        } else {
            stats.record_seq_read(len);
        }
        discontiguous
    }

    fn forget(&self, key: &str) {
        self.0.lock().remove(key);
    }
}

// ---------------------------------------------------------------------------
// MemStorage
// ---------------------------------------------------------------------------

/// Purely in-memory backend used by unit tests: full accounting, no timing.
pub struct MemStorage {
    objects: RwLock<BTreeMap<String, Arc<Vec<u8>>>>,
    cursors: Cursors,
    stats: Arc<IoStats>,
}

impl MemStorage {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        MemStorage {
            objects: RwLock::new(BTreeMap::new()),
            cursors: Cursors::new(),
            stats: Arc::new(IoStats::new()),
        }
    }

    /// The current content of object `key`, or `NotFound`.
    fn object(&self, key: &str) -> crate::Result<Arc<Vec<u8>>> {
        self.objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| not_found(key))
    }

    /// Reads `buf.len()` bytes at `offset` of `key` and counts the read;
    /// `true` when it was discontiguous (a seek). A failed read counts
    /// nothing and leaves the cursor where it was.
    fn accounted_read(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<bool> {
        let obj = self.object(key)?;
        buf.copy_from_slice(&obj[span(key, offset, buf.len(), obj.len())?]);
        Ok(self
            .cursors
            .count_read(&self.stats, key, offset, buf.len() as u64))
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl Storage for MemStorage {
    fn create(&self, key: &str, data: &[u8]) -> crate::Result<()> {
        self.objects
            .write()
            .insert(key.to_owned(), Arc::new(data.to_vec()));
        self.cursors.forget(key);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        self.accounted_read(key, offset, buf)?;
        Ok(())
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        let obj = self.object(key)?;
        buf.copy_from_slice(&obj[span(key, offset, buf.len(), obj.len())?]);
        Ok(())
    }

    fn read_all(&self, key: &str) -> crate::Result<Vec<u8>> {
        // Atomic against concurrent `create`: objects are replaced by a
        // single Arc swap, so cloning the handle under the read lock
        // snapshots the whole content. Accounting matches the default
        // len-then-read path exactly (one whole-object read at offset 0;
        // empty objects are read for free).
        let obj = self.object(key)?;
        if obj.is_empty() {
            return Ok(Vec::new());
        }
        self.cursors
            .count_read(&self.stats, key, 0, obj.len() as u64);
        Ok(obj.as_ref().clone())
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> crate::Result<()> {
        let mut objects = self.objects.write();
        let obj = objects.get_mut(key).ok_or_else(|| not_found(key))?;
        let range = span(key, offset, data.len(), obj.len())?;
        Arc::make_mut(obj)[range].copy_from_slice(data);
        drop(objects);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn len(&self, key: &str) -> crate::Result<u64> {
        self.objects
            .read()
            .get(key)
            .map(|o| o.len() as u64)
            .ok_or_else(|| not_found(key))
    }

    fn exists(&self, key: &str) -> bool {
        self.objects.read().contains_key(key)
    }

    fn delete(&self, key: &str) -> crate::Result<()> {
        self.objects.write().remove(key);
        self.cursors.forget(key);
        Ok(())
    }

    fn list_keys(&self) -> Vec<String> {
        // `BTreeMap` keys come back already in the trait's lexicographic
        // order.
        self.objects.read().keys().cloned().collect()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.stats.clone()
    }
}

// ---------------------------------------------------------------------------
// FileStorage
// ---------------------------------------------------------------------------

/// Directory-backed store using positioned file I/O (`pread`/`pwrite`), for
/// genuine out-of-core runs. Keys map to relative paths under the root
/// directory; `/` in keys creates subdirectories.
pub struct FileStorage {
    root: PathBuf,
    cursors: Cursors,
    stats: Arc<IoStats>,
}

impl FileStorage {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> crate::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(FileStorage {
            root,
            cursors: Cursors::new(),
            stats: Arc::new(IoStats::new()),
        })
    }

    /// The root directory of this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, key: &str) -> crate::Result<PathBuf> {
        if key.is_empty()
            || key
                .split('/')
                .any(|c| c.is_empty() || c == "." || c == "..")
        {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!("invalid key: {key:?}"),
            ));
        }
        Ok(self.root.join(key))
    }

    /// Opens `key` for a read of `len` bytes at `offset`. A range ending
    /// past `i64::MAX` is no file position (`pread` would fail with
    /// `EINVAL`), so it is reported as the out-of-range read it is.
    fn open_for_read(&self, key: &str, offset: u64, len: usize) -> crate::Result<fs::File> {
        let f = fs::File::open(self.path_of(key)?).map_err(|_| not_found(key))?;
        let end = offset.checked_add(len as u64);
        if end.and_then(|end| i64::try_from(end).ok()).is_none() {
            return Err(out_of_range(key, offset, len, f.metadata()?.len()));
        }
        Ok(f)
    }
}

impl Storage for FileStorage {
    fn create(&self, key: &str, data: &[u8]) -> crate::Result<()> {
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Write to a sibling temp file then rename, so readers never observe
        // a half-written object.
        let tmp = path.with_extension("gsd_tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &path)?;
        self.cursors.forget(key);
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        use std::os::unix::fs::FileExt;
        self.open_for_read(key, offset, buf.len())?
            .read_exact_at(buf, offset)?;
        self.cursors
            .count_read(&self.stats, key, offset, buf.len() as u64);
        Ok(())
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        use std::os::unix::fs::FileExt;
        self.open_for_read(key, offset, buf.len())?
            .read_exact_at(buf, offset)?;
        Ok(())
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> crate::Result<()> {
        use std::os::unix::fs::FileExt;
        let path = self.path_of(key)?;
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|_| not_found(key))?;
        let size = f.metadata()?.len();
        if offset
            .checked_add(data.len() as u64)
            .is_none_or(|end| end > size)
        {
            return Err(out_of_range(key, offset, data.len(), size));
        }
        f.write_all_at(data, offset)?;
        self.stats.record_write(data.len() as u64);
        Ok(())
    }

    fn len(&self, key: &str) -> crate::Result<u64> {
        let path = self.path_of(key)?;
        fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|_| not_found(key))
    }

    fn exists(&self, key: &str) -> bool {
        self.path_of(key).map(|p| p.is_file()).unwrap_or(false)
    }

    fn delete(&self, key: &str) -> crate::Result<()> {
        let path = self.path_of(key)?;
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        self.cursors.forget(key);
        Ok(())
    }

    fn list_keys(&self) -> Vec<String> {
        fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
            let Ok(entries) = fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, root, out);
                } else if let Ok(rel) = path.strip_prefix(root) {
                    if let Some(s) = rel.to_str() {
                        out.push(s.replace(std::path::MAIN_SEPARATOR, "/"));
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        // Directory walk order is filesystem-dependent; the trait
        // promises lexicographic.
        out.sort_unstable();
        out
    }

    fn stats(&self) -> Arc<IoStats> {
        self.stats.clone()
    }

    fn sync(&self) -> crate::Result<()> {
        // `create` already fsyncs file *data* before the rename; what can
        // still be lost in a crash is a rename (a directory entry) or an
        // unflushed `write_at`. Walk the tree once, `sync_all`-ing every
        // file and directory.
        fn sync_tree(dir: &Path) -> crate::Result<()> {
            for entry in fs::read_dir(dir)? {
                let path = entry?.path();
                if path.is_dir() {
                    sync_tree(&path)?;
                } else {
                    fs::File::open(&path)?.sync_all()?;
                }
            }
            fs::File::open(dir)?.sync_all()?;
            Ok(())
        }
        sync_tree(&self.root)
    }
}

// ---------------------------------------------------------------------------
// SimDisk
// ---------------------------------------------------------------------------

/// In-memory backend that *prices* every request against a [`DiskModel`] and
/// accumulates the cost on a virtual clock ([`IoStats::sim_time`]).
///
/// This substitutes for the paper's hardware setup (two HDDs, page cache
/// disabled, direct I/O): every engine's requests are counted byte-exactly
/// and charged identical device economics, so the relative I/O behaviour the
/// paper reports is preserved on any machine. A read is priced as the inner
/// store classifies and counts it, so the price and [`IoStats`] agree on
/// every request. Requests do not serialize; the clock sums every
/// request's price, modeling a single saturated device.
pub struct SimDisk {
    inner: MemStorage,
    disk: DiskModel,
}

impl SimDisk {
    /// Creates a simulated disk with the given performance model.
    pub fn new(disk: DiskModel) -> Self {
        SimDisk {
            inner: MemStorage::new(),
            disk,
        }
    }

    /// The performance model requests are priced against.
    pub fn model(&self) -> &DiskModel {
        &self.disk
    }
}

impl Storage for SimDisk {
    fn create(&self, key: &str, data: &[u8]) -> crate::Result<()> {
        // Object creation streams sequentially (it replaces the object).
        let cost = self.disk.write_cost(data.len() as u64, false);
        self.inner.create(key, data)?;
        self.inner.stats.add_sim_nanos(nanos(cost));
        Ok(())
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        let discontiguous = self.inner.accounted_read(key, offset, buf)?;
        let cost = self.disk.read_cost(buf.len() as u64, discontiguous);
        self.inner.stats.add_sim_nanos(nanos(cost));
        Ok(())
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
        // Side-channel reads bypass the device model entirely: no cursor
        // movement, no pricing, no virtual-clock charge. They model a
        // verification pass that must not distort the experiment's I/O.
        self.inner.read_unaccounted(key, offset, buf)
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> crate::Result<()> {
        self.inner.write_at(key, offset, data)?;
        let cost = self.disk.write_cost(data.len() as u64, false);
        self.inner.stats.add_sim_nanos(nanos(cost));
        Ok(())
    }

    fn len(&self, key: &str) -> crate::Result<u64> {
        self.inner.len(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn delete(&self, key: &str) -> crate::Result<()> {
        self.inner.delete(key)
    }

    fn list_keys(&self) -> Vec<String> {
        self.inner.list_keys()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn disk_model(&self) -> Option<DiskModel> {
        Some(self.disk)
    }

    fn sync(&self) -> crate::Result<()> {
        // A flush is a device command, not a transfer: charge one seek so
        // the checkpoint commit protocol has a deterministic, nonzero
        // virtual-clock cost.
        let cost = self.disk.seek_latency;
        self.inner.stats.add_sim_nanos(nanos(cost));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &dyn Storage) -> crate::Result<()> {
        store.create("a/b.bin", &[1, 2, 3, 4, 5, 6, 7, 8])?;
        assert!(store.exists("a/b.bin"));
        assert_eq!(store.len("a/b.bin")?, 8);
        let mut buf = [0u8; 4];
        store.read_at("a/b.bin", 2, &mut buf)?;
        assert_eq!(buf, [3, 4, 5, 6]);
        store.write_at("a/b.bin", 0, &[9, 9])?;
        assert_eq!(store.read_all("a/b.bin")?, vec![9, 9, 3, 4, 5, 6, 7, 8]);
        store.delete("a/b.bin")?;
        assert!(!store.exists("a/b.bin"));
        assert!(store.read_all("a/b.bin").is_err());
        Ok(())
    }

    #[test]
    fn mem_roundtrip() -> crate::Result<()> {
        roundtrip(&MemStorage::new())
    }

    #[test]
    fn file_roundtrip() -> crate::Result<()> {
        let dir = crate::TempDir::new("gsd-io-file")?;
        roundtrip(&FileStorage::open(dir.path())?)
    }

    #[test]
    fn mem_sync_is_a_free_no_op() -> crate::Result<()> {
        let store = MemStorage::new();
        store.create("x.bin", &[1])?;
        let before = store.stats().snapshot();
        store.sync()?;
        assert_eq!(store.stats().snapshot(), before);
        Ok(())
    }

    #[test]
    fn file_sync_flushes_the_tree() -> crate::Result<()> {
        let dir = crate::TempDir::new("gsd-io-sync")?;
        let store = FileStorage::open(dir.path())?;
        store.create("a/b/c.bin", &[1, 2, 3])?;
        store.create("top.bin", &[4])?;
        store.sync()?;
        assert_eq!(store.read_all("a/b/c.bin")?, vec![1, 2, 3]);
        Ok(())
    }

    #[test]
    fn sim_sync_charges_the_virtual_clock() -> crate::Result<()> {
        let disk = DiskModel::hdd();
        let store = SimDisk::new(disk);
        store.create("x.bin", &[0u8; 64])?;
        let before = store.stats().snapshot();
        store.sync()?;
        let delta = store.stats().snapshot().since(&before);
        assert_eq!(delta.sim_nanos, nanos(disk.seek_latency));
        assert_eq!(delta.total_traffic(), 0, "a flush transfers no bytes");
        Ok(())
    }

    #[test]
    fn sim_roundtrip() -> crate::Result<()> {
        roundtrip(&SimDisk::new(DiskModel::hdd()))
    }

    #[test]
    fn sequential_reads_classified_sequential_after_first() -> crate::Result<()> {
        let store = MemStorage::new();
        store.create("k", &[0u8; 100])?;
        let mut buf = [0u8; 10];
        store.read_at("k", 0, &mut buf)?; // first read: random (cursor unset)
        store.read_at("k", 10, &mut buf)?; // continues: sequential
        store.read_at("k", 20, &mut buf)?; // continues: sequential
        store.read_at("k", 90, &mut buf)?; // seek: random
        let s = store.stats().snapshot();
        assert_eq!(s.seq_read_ops, 2);
        assert_eq!(s.rand_read_ops, 2);
        assert_eq!(s.seq_read_bytes, 20);
        assert_eq!(s.rand_read_bytes, 20);
        Ok(())
    }

    #[test]
    fn cursors_are_independent_per_key() -> crate::Result<()> {
        let store = MemStorage::new();
        store.create("x", &[0u8; 64])?;
        store.create("y", &[0u8; 64])?;
        let mut buf = [0u8; 8];
        store.stats().reset();
        store.read_at("x", 0, &mut buf)?; // random (first)
        store.read_at("y", 0, &mut buf)?; // random (first)
        store.read_at("x", 8, &mut buf)?; // sequential on x
        store.read_at("y", 8, &mut buf)?; // sequential on y
        let s = store.stats().snapshot();
        assert_eq!(s.seq_read_ops, 2);
        assert_eq!(s.rand_read_ops, 2);
        Ok(())
    }

    #[test]
    fn create_resets_read_cursor() -> crate::Result<()> {
        let store = MemStorage::new();
        store.create("k", &[0u8; 32])?;
        let mut buf = [0u8; 8];
        store.read_at("k", 0, &mut buf)?;
        store.create("k", &[1u8; 32])?;
        store.read_at("k", 8, &mut buf)?; // would be sequential pre-replace
        assert_eq!(store.stats().snapshot().rand_read_ops, 2);
        Ok(())
    }

    #[test]
    fn out_of_range_read_is_error() -> crate::Result<()> {
        let store = MemStorage::new();
        store.create("k", &[0u8; 10])?;
        let mut buf = [0u8; 4];
        assert!(store.read_at("k", 8, &mut buf).is_err());
        assert!(store.write_at("k", 8, &[0u8; 4]).is_err());
        Ok(())
    }

    #[test]
    fn ranges_past_the_end_are_errors_on_every_backend() -> crate::Result<()> {
        // Offsets whose end overflows `u64` (and, on files, `i64`) used to
        // panic on the add; every backend must answer a read with
        // `UnexpectedEof` and a write with an error, and change nothing.
        let dir = crate::TempDir::new("gsd-io-ranges")?;
        let backends: Vec<(&str, Box<dyn Storage>)> = vec![
            ("mem", Box::new(MemStorage::new())),
            ("sim", Box::new(SimDisk::new(DiskModel::hdd()))),
            ("file", Box::new(FileStorage::open(dir.path())?)),
        ];
        for (name, store) in &backends {
            store.create("k", &[1u8; 16])?;
            let mut buf = [0u8; 8];
            for offset in [u64::MAX, u64::MAX - 4, 1 << 63, 12] {
                let kinds = [
                    store.read_at("k", offset, &mut buf),
                    store.read_unaccounted("k", offset, &mut buf),
                    store.write_at("k", offset, &[9u8; 8]),
                ]
                .map(|r| r.map_err(|e| e.kind()));
                let eof = Err(ErrorKind::UnexpectedEof);
                assert_eq!(
                    kinds, [eof; 3],
                    "{name}: read, side read, write at {offset}"
                );
            }
            assert_eq!(store.read_all("k")?, [1u8; 16], "{name} unchanged");
        }
        Ok(())
    }

    #[test]
    fn sim_disk_charges_time() -> crate::Result<()> {
        let sim = SimDisk::new(DiskModel::hdd());
        sim.create("k", &vec![0u8; 16_000_000])?;
        let t0 = sim.stats().sim_time();
        assert!(t0 > std::time::Duration::ZERO, "create charges write time");
        let mut buf = vec![0u8; 16_000_000];
        sim.read_at("k", 0, &mut buf)?;
        let t1 = sim.stats().sim_time();
        // 16 MB at 160 MB/s = 100 ms (first read pays one seek but the
        // request is large, so it streams).
        let read_secs = (t1 - t0).as_secs_f64();
        assert!((read_secs - 0.108).abs() < 0.02, "got {read_secs}");
        Ok(())
    }

    #[test]
    fn sim_prices_every_read_as_its_inner_store_counts_it() -> crate::Result<()> {
        // Each request's price must follow the classification `IoStats`
        // records for it — across a failed read, a delete and a re-create.
        let disk = DiskModel::hdd();
        let sim = SimDisk::new(disk);
        let read = |offset: u64, len: usize| -> crate::Result<()> {
            let before = sim.stats().snapshot();
            let result = sim.read_at("k", offset, &mut vec![0u8; len]);
            let delta = sim.stats().snapshot().since(&before);
            let seek = delta.rand_read_ops == 1;
            let want = result
                .as_ref()
                .map_or(0, |()| nanos(disk.read_cost(len as u64, seek)));
            assert_eq!(delta.sim_nanos, want, "read of {len} at {offset}");
            result
        };
        sim.create("k", &[0u8; 64])?;
        read(0, 8)?;
        read(8, 8)?;
        assert!(read(60, 8).is_err(), "out of range");
        read(16, 8)?; // contiguous with the last read that succeeded
        sim.delete("k")?;
        sim.create("k", &[0u8; 64])?;
        read(24, 8)?; // a re-created object starts with the head elsewhere
        let s = sim.stats().snapshot();
        assert_eq!((s.rand_read_ops, s.seq_read_ops), (2, 2));
        Ok(())
    }

    #[test]
    fn sim_disk_random_reads_cost_more_than_sequential() -> crate::Result<()> {
        let model = DiskModel::hdd();
        let make = || -> crate::Result<SimDisk> {
            let sim = SimDisk::new(model);
            sim.create("k", &vec![0u8; 1 << 20])?;
            sim.stats().reset();
            Ok(sim)
        };
        // 64 sequential 4 KiB reads...
        let seq = make()?;
        let mut buf = vec![0u8; 4096];
        for i in 0..64 {
            seq.read_at("k", i * 4096, &mut buf)?;
        }
        // ...vs 64 scattered 4 KiB reads (stride leaves gaps).
        let rnd = make()?;
        for i in 0..64 {
            rnd.read_at("k", i * 16384, &mut buf)?;
        }
        assert!(rnd.stats().sim_time() > seq.stats().sim_time() * 10);
        Ok(())
    }

    #[test]
    fn file_storage_rejects_path_escapes() -> crate::Result<()> {
        let dir = crate::TempDir::new("gsd-io-escape")?;
        let store = FileStorage::open(dir.path())?;
        assert!(store.create("../evil", &[1]).is_err());
        assert!(store.create("a//b", &[1]).is_err());
        assert!(store.create("", &[1]).is_err());
        assert!(store.create("a/./b", &[1]).is_err());
        Ok(())
    }

    #[test]
    fn file_storage_lists_nested_keys() -> crate::Result<()> {
        let dir = crate::TempDir::new("gsd-io-list")?;
        let store = FileStorage::open(dir.path())?;
        store.create("meta.json", &[1])?;
        store.create("blocks/b_0_0.edges", &[2])?;
        store.create("blocks/b_0_1.edges", &[3])?;
        let mut keys = store.list_keys();
        keys.sort();
        assert_eq!(
            keys,
            vec!["blocks/b_0_0.edges", "blocks/b_0_1.edges", "meta.json"]
        );
        Ok(())
    }

    #[test]
    fn read_all_of_empty_object() -> crate::Result<()> {
        let store = MemStorage::new();
        store.create("empty", &[])?;
        assert_eq!(store.read_all("empty")?, Vec::<u8>::new());
        Ok(())
    }

    fn assert_unaccounted(store: &dyn Storage) -> crate::Result<()> {
        store.create("k", &(0u8..64).collect::<Vec<u8>>())?;
        let mut buf = [0u8; 8];
        store.read_at("k", 0, &mut buf)?; // establish the read cursor at 8
        let before = store.stats().snapshot();
        let mut side = [0u8; 16];
        store.read_unaccounted("k", 40, &mut side)?;
        assert_eq!(side[0], 40, "unaccounted read returns real bytes");
        assert_eq!(
            store.stats().snapshot(),
            before,
            "no traffic, ops, or sim time recorded"
        );
        // The cursor did not move: the next read at 8 is still sequential.
        store.read_at("k", 8, &mut buf)?;
        let delta = store.stats().snapshot().since(&before);
        assert_eq!(delta.seq_read_ops, 1);
        assert_eq!(delta.rand_read_ops, 0);
        // Out-of-range and missing keys still error.
        let mut big = [0u8; 128];
        assert!(store.read_unaccounted("k", 0, &mut big).is_err());
        assert!(store.read_unaccounted("nope", 0, &mut buf).is_err());
        Ok(())
    }

    #[test]
    fn mem_read_unaccounted_is_invisible_to_accounting() -> crate::Result<()> {
        assert_unaccounted(&MemStorage::new())
    }

    #[test]
    fn file_read_unaccounted_is_invisible_to_accounting() -> crate::Result<()> {
        let dir = crate::TempDir::new("gsd-io-unacc")?;
        assert_unaccounted(&FileStorage::open(dir.path())?)
    }

    #[test]
    fn sim_read_unaccounted_is_invisible_to_accounting() -> crate::Result<()> {
        assert_unaccounted(&SimDisk::new(DiskModel::hdd()))
    }

    #[test]
    fn mem_read_all_matches_default_accounting() -> crate::Result<()> {
        // MemStorage overrides read_all for atomicity; its accounting must
        // stay byte-identical to the default len-then-read path so stats
        // are backend-independent.
        let store = MemStorage::new();
        store.create("k", &[7u8; 100])?;
        let before = store.stats().snapshot();
        assert_eq!(store.read_all("k")?, vec![7u8; 100]);
        let delta = store.stats().snapshot().since(&before);
        assert_eq!(delta.rand_read_ops, 1, "first whole read seeks");
        assert_eq!(delta.rand_read_bytes, 100);
        assert_eq!(store.read_all("k")?.len(), 100);
        let delta = store.stats().snapshot().since(&before);
        assert_eq!(delta.rand_read_ops, 2, "re-read from 0 seeks again");
        Ok(())
    }

    #[test]
    fn mem_read_all_is_atomic_against_concurrent_replacement() {
        // Regression for the len-then-read race: a reader must never see a
        // mix of old and new content or a torn length.
        let store = Arc::new(MemStorage::new());
        store.create("k", &[1u8; 4096]).unwrap();
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                for round in 0..500u32 {
                    if round % 2 == 0 {
                        store.create("k", &[2u8; 64]).unwrap();
                    } else {
                        store.create("k", &[1u8; 4096]).unwrap();
                    }
                }
            })
        };
        for _ in 0..500 {
            let bytes = store.read_all("k").unwrap();
            let uniform = bytes.iter().all(|&b| b == bytes[0]);
            assert!(uniform, "mixed content: len {}", bytes.len());
            assert!(
                (bytes.len() == 64 && bytes[0] == 2) || (bytes.len() == 4096 && bytes[0] == 1),
                "torn object: len {} fill {}",
                bytes.len(),
                bytes[0]
            );
        }
        writer.join().unwrap();
    }

    #[test]
    fn default_read_all_surfaces_shrink_as_clean_error() {
        // A backend whose object shrinks between len() and read_at() must
        // produce a descriptive error, not a short or garbage buffer. The
        // wrapper lies about the length to force that window determinis-
        // tically.
        struct LyingLen(MemStorage);
        impl Storage for LyingLen {
            fn create(&self, key: &str, data: &[u8]) -> crate::Result<()> {
                self.0.create(key, data)
            }
            fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> crate::Result<()> {
                self.0.read_at(key, offset, buf)
            }
            fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> crate::Result<()> {
                self.0.write_at(key, offset, data)
            }
            fn len(&self, key: &str) -> crate::Result<u64> {
                // As if the object had 16 more bytes when len() ran.
                Ok(self.0.len(key)? + 16)
            }
            fn exists(&self, key: &str) -> bool {
                self.0.exists(key)
            }
            fn delete(&self, key: &str) -> crate::Result<()> {
                self.0.delete(key)
            }
            fn list_keys(&self) -> Vec<String> {
                self.0.list_keys()
            }
            fn stats(&self) -> Arc<IoStats> {
                self.0.stats()
            }
        }
        let store = LyingLen(MemStorage::new());
        store.create("k", &[0u8; 32]).unwrap();
        let err = store.read_all("k").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        let text = err.to_string();
        assert!(text.contains("changed size during read_all"), "{text}");
        assert!(text.contains('k'), "{text}");
    }
}
