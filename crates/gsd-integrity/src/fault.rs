//! Deterministic crash injection.
//!
//! [`FaultyStorage`] wraps any [`Storage`] and counts its data operations
//! (`create`, `read_at`, `sync`). With `kill_at_op = Some(n)`
//! the n-th of them fails with a hard error before it reaches the inner
//! backend (so its accounting and cursors stay untouched), scripting a
//! crash at an exact point: a test counts a probe run's ops with
//! [`FaultyStorage::ops_seen`], then kills each index in turn. `len`,
//! `exists`, `delete`, `list_keys` and the unaccounted side read are
//! forwarded uncounted. At-rest rot, which verification must catch, is
//! planted separately with [`corrupt_object`].

use crate::fnv64;
use gsd_io::{DiskModel, IoStats, SharedStorage, Storage};
use gsd_trace::Counter;
use std::io::{Error, ErrorKind};
use std::sync::Arc;

/// How [`corrupt_object`] rots an at-rest object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Flip one deterministically chosen bit.
    BitFlip,
    /// Rewrite the object strictly shorter.
    Truncate,
    /// Zero a deterministically chosen span.
    ZeroFill,
}

impl std::fmt::Display for CorruptionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorruptionMode::BitFlip => write!(f, "bitflip"),
            CorruptionMode::Truncate => write!(f, "truncate"),
            CorruptionMode::ZeroFill => write!(f, "zerofill"),
        }
    }
}

/// `splitmix64` output step — a well-mixed pure function of its input,
/// used to turn (seed, key-hash) into a corruption site.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const CORRUPT_SALT: u64 = 0x63_6f_72_72; // "corr"

/// A [`Storage`] decorator that hard-fails one chosen data operation (see
/// the module docs).
pub struct FaultyStorage {
    inner: SharedStorage,
    kill_at_op: Option<u64>,
    ops: Counter,
}

impl FaultyStorage {
    /// Wraps `inner`; `kill_at_op = Some(n)` fails the n-th data operation
    /// (1-based), `None` only counts.
    pub fn new(inner: SharedStorage, kill_at_op: Option<u64>) -> Self {
        FaultyStorage {
            inner,
            kill_at_op,
            ops: Counter::new(),
        }
    }

    /// Data operations observed so far (the stream `kill_at_op` indexes
    /// into) — lets a test size a kill point from a probe run's total.
    pub fn ops_seen(&self) -> u64 {
        self.ops.get()
    }

    /// Counts one data operation and fails it if it is the kill point.
    fn count(&self, op: &'static str, key: &str) -> std::io::Result<()> {
        let op_index = self.ops.add(1) + 1;
        if self.kill_at_op == Some(op_index) {
            return Err(Error::other(format!(
                "injected crash at op {op_index} ({op} {key})"
            )));
        }
        Ok(())
    }
}

/// Corrupts the **at-rest** object `key` in place, deterministically in
/// `(seed, key)`, and returns the affected byte offset. Used by tests,
/// the corruption-smoke CI job and `gsd`'s fault tooling to plant rot
/// that `scrub`/verify-on-read must catch.
///
/// - `BitFlip` flips one bit of the stored payload.
/// - `Truncate` rewrites the object strictly shorter.
/// - `ZeroFill` zeroes a span anchored at a nonzero byte (so the object
///   provably changed); an all-zero object is rejected as uncorruptible.
///
/// Empty objects are rejected (`InvalidInput`): there is nothing to rot.
pub fn corrupt_object(
    storage: &dyn Storage,
    key: &str,
    mode: CorruptionMode,
    seed: u64,
) -> std::io::Result<u64> {
    let mut bytes = storage.read_all(key)?;
    if bytes.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidInput,
            format!("cannot corrupt empty object {key}"),
        ));
    }
    let len = bytes.len();
    let h = mix(seed ^ fnv64(key.as_bytes()) ^ CORRUPT_SALT);
    let affected = match mode {
        CorruptionMode::BitFlip => {
            let bit = (h % (len as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            (bit / 8) as u64
        }
        CorruptionMode::Truncate => {
            let keep = (h % len as u64) as usize;
            bytes.truncate(keep);
            keep as u64
        }
        CorruptionMode::ZeroFill => {
            let start = (h % len as u64) as usize;
            let Some(anchor) = (start..len).chain(0..start).find(|&i| bytes[i] != 0) else {
                return Err(Error::new(
                    ErrorKind::InvalidInput,
                    format!("object {key} is all zeros; zero-fill would change nothing"),
                ));
            };
            let span = ((h >> 32) % 64 + 1) as usize;
            let end = (anchor + span).min(len);
            bytes[anchor..end].fill(0);
            anchor as u64
        }
    };
    storage.create(key, &bytes)?;
    Ok(affected)
}

impl Storage for FaultyStorage {
    fn create(&self, key: &str, data: &[u8]) -> gsd_io::Result<()> {
        self.count("create", key)?;
        self.inner.create(key, data)
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        self.count("read", key)?;
        self.inner.read_at(key, offset, buf)
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        // The verification side channel reads the device's true at-rest
        // bytes uncounted. Forwarding explicitly also keeps the read off
        // the accounted default path.
        self.inner.read_unaccounted(key, offset, buf)
    }

    fn sync(&self) -> gsd_io::Result<()> {
        self.count("sync", "")?;
        self.inner.sync()
    }

    fn len(&self, key: &str) -> gsd_io::Result<u64> {
        self.inner.len(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn delete(&self, key: &str) -> gsd_io::Result<()> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_io::MemStorage;

    fn wrap(kill_at_op: Option<u64>) -> (FaultyStorage, SharedStorage) {
        let inner: SharedStorage = Arc::new(MemStorage::new());
        (FaultyStorage::new(inner.clone(), kill_at_op), inner)
    }

    #[test]
    fn an_unarmed_injector_only_counts() -> std::io::Result<()> {
        let (faulty, inner) = wrap(None);
        faulty.create("k", &[1u8; 16])?;
        let mut buf = [0u8; 8];
        for _ in 0..100 {
            faulty.read_at("k", 0, &mut buf)?;
        }
        faulty.sync()?;
        assert_eq!(faulty.ops_seen(), 102);
        // The side read is forwarded: real bytes, no accounting, no count.
        let before = inner.stats().snapshot();
        faulty.read_unaccounted("k", 4, &mut buf)?;
        assert_eq!(buf, [1u8; 8]);
        assert_eq!(inner.stats().snapshot(), before);
        assert_eq!(faulty.ops_seen(), 102);
        // Ranges past the end are the backend's errors, unchanged.
        for offset in [u64::MAX, 1 << 63, 12] {
            let kinds = [
                faulty.read_at("k", offset, &mut buf),
                faulty.read_unaccounted("k", offset, &mut buf),
            ]
            .map(|r| r.map_err(|e| e.kind()));
            assert_eq!(kinds, [Err(ErrorKind::UnexpectedEof); 2], "at {offset}");
        }
        Ok(())
    }

    #[test]
    fn kill_at_op_fires_exactly_once_at_the_nth_op() {
        let (faulty, inner) = wrap(Some(3));
        faulty.create("k", &[0u8; 8]).expect("op 1");
        let mut buf = [0u8; 8];
        faulty.read_at("k", 0, &mut buf).expect("op 2");
        let before = inner.stats().snapshot();
        let err = faulty.read_at("k", 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Other, "op 3 is the kill");
        assert_eq!(
            inner.stats().snapshot(),
            before,
            "the killed op never reaches the backend"
        );
        faulty.read_at("k", 0, &mut buf).expect("op 4 proceeds");
        assert_eq!(faulty.ops_seen(), 4);
    }

    #[test]
    fn corrupt_object_rots_each_mode_at_rest() {
        let storage = MemStorage::new();
        let payload: Vec<u8> = (1u8..=100).collect();

        storage.create("a", &payload).unwrap();
        let off = corrupt_object(&storage, "a", CorruptionMode::BitFlip, 5).unwrap();
        let rotted = storage.read_all("a").unwrap();
        assert_eq!(rotted.len(), payload.len());
        assert_ne!(rotted, payload);
        assert_ne!(rotted[off as usize], payload[off as usize]);

        storage.create("b", &payload).unwrap();
        let kept = corrupt_object(&storage, "b", CorruptionMode::Truncate, 5).unwrap();
        let rotted = storage.read_all("b").unwrap();
        assert_eq!(rotted.len() as u64, kept);
        assert!(rotted.len() < payload.len());
        assert_eq!(rotted[..], payload[..rotted.len()]);

        storage.create("c", &payload).unwrap();
        let anchor = corrupt_object(&storage, "c", CorruptionMode::ZeroFill, 5).unwrap();
        let rotted = storage.read_all("c").unwrap();
        assert_eq!(rotted.len(), payload.len());
        assert_ne!(rotted, payload);
        assert_eq!(rotted[anchor as usize], 0);
        assert_ne!(payload[anchor as usize], 0);

        // Deterministic in (seed, key): same call, same rot.
        storage.create("d", &payload).unwrap();
        storage.create("e", &payload).unwrap();
        corrupt_object(&storage, "d", CorruptionMode::BitFlip, 9).unwrap();
        corrupt_object(&storage, "e", CorruptionMode::BitFlip, 9).unwrap();
        assert_ne!(
            storage.read_all("d").unwrap(),
            storage.read_all("e").unwrap(),
            "different keys draw different bits"
        );
    }

    #[test]
    fn corrupt_object_rejects_hopeless_targets() {
        let storage = MemStorage::new();
        storage.create("empty", &[]).unwrap();
        assert!(corrupt_object(&storage, "empty", CorruptionMode::BitFlip, 1).is_err());
        storage.create("zeros", &[0u8; 16]).unwrap();
        assert!(corrupt_object(&storage, "zeros", CorruptionMode::ZeroFill, 1).is_err());
        assert!(corrupt_object(&storage, "missing", CorruptionMode::BitFlip, 1).is_err());
    }
}
