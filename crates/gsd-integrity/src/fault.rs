//! Deterministic I/O fault injection.
//!
//! [`FaultyStorage`] wraps any [`Storage`] and makes a seed-driven
//! decision *before* each data operation reaches the inner backend:
//!
//! * **Transient** faults fail one attempt (`ErrorKind::Interrupted`); a
//!   retry of the same logical request draws a fresh decision, so a
//!   bounded retry loop eventually succeeds. Whether attempt *n* fails is
//!   a pure function of the seed and the global attempt counter.
//! * `kill_at_op` hard-fails the N-th data operation regardless of the
//!   rate, for scripting a crash at an exact point in a run.
//!
//! At-rest rot, which verification must catch, is planted separately with
//! [`corrupt_object`].
//!
//! Failed attempts never reach the inner backend, so they leave its
//! accounting and sequential/random cursors untouched: a faulty run that
//! eventually succeeds has bit-identical I/O statistics to a clean one.

#![expect(
    clippy::disallowed_methods,
    reason = "designated concurrency module: the fault injector's op counter is locked so the seeded schedule is draw-order exact"
)]

use crate::fnv64;
use gsd_io::{DiskModel, IoStats, SharedStorage, Storage};
use gsd_trace::Counter;
use parking_lot::Mutex;
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

/// Parameters of the injected fault distribution.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given attempt fails transiently.
    pub transient_rate: f64,
    /// Hard-fail the N-th data operation (1-based, counted across all
    /// faultable ops) with a fatal error, simulating a crash point.
    pub kill_at_op: Option<u64>,
}

impl FaultConfig {
    /// Transient-only faults: each attempt fails with probability `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            transient_rate: rate.clamp(0.0, 1.0),
            kill_at_op: None,
        }
    }

    /// Parses an `--inject-faults` spec, `SEED:RATE`
    /// (e.g. `42:0.02` — seed 42, 2% transient faults per attempt).
    pub fn parse(spec: &str) -> Option<Self> {
        let (seed, rate) = spec.split_once(':')?;
        let seed: u64 = seed.trim().parse().ok()?;
        let rate: f64 = rate.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&rate) {
            return None;
        }
        Some(FaultConfig::transient(seed, rate))
    }

    /// Hard-fails the `n`-th data operation (1-based).
    pub fn with_kill_at_op(mut self, n: u64) -> Self {
        self.kill_at_op = Some(n);
        self
    }
}

/// `splitmix64` output step — a well-mixed pure function of its input,
/// used to turn (seed, counter) and (seed, key-hash) into decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

const CORRUPT_SALT: u64 = 0x63_6f_72_72; // "corr"

/// A [`Storage`] decorator that injects deterministic faults (see the
/// module docs for the fault model).
pub struct FaultyStorage {
    inner: SharedStorage,
    cfg: FaultConfig,
    /// Global attempt counter; the lock also serializes decision order so
    /// a single-threaded caller sees a reproducible decision stream.
    ops: Mutex<u64>,
    injected_transient: Counter,
}

impl FaultyStorage {
    /// Wraps `inner`, injecting faults per `cfg`.
    pub fn new(inner: SharedStorage, cfg: FaultConfig) -> Self {
        FaultyStorage {
            inner,
            cfg,
            ops: Mutex::new(0),
            injected_transient: Counter::new(),
        }
    }

    /// Attempts failed transiently so far.
    pub fn injected_transient(&self) -> u64 {
        self.injected_transient.get()
    }

    /// Data operations observed so far (the attempt stream `kill_at_op`
    /// indexes into) — lets a test size a kill point relative to a probe
    /// run's total.
    pub fn ops_seen(&self) -> u64 {
        *self.ops.lock()
    }

    /// Draws the fault decision for one attempt. Holds only the counter
    /// lock and returns before any inner storage call.
    fn decide(&self, op: &'static str, key: &str) -> std::io::Result<()> {
        let op_index = {
            let mut ops = self.ops.lock();
            *ops += 1;
            *ops
        };
        if self.cfg.kill_at_op == Some(op_index) {
            return Err(Error::other(format!(
                "injected crash at op {op_index} ({op} {key})"
            )));
        }
        if self.cfg.transient_rate > 0.0 {
            let draw = unit(mix(self.cfg.seed ^ op_index));
            if draw < self.cfg.transient_rate {
                self.injected_transient.add(1);
                return Err(Error::new(
                    ErrorKind::Interrupted,
                    format!("injected transient fault on {key} ({op}, attempt stream {op_index})"),
                ));
            }
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
        self.decide("create", key)?;
        self.inner.create(key, data)
    }

    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        self.decide("read", key)?;
        self.inner.read_at(key, offset, buf)
    }

    fn read_unaccounted(&self, key: &str, offset: u64, buf: &mut [u8]) -> gsd_io::Result<()> {
        // The verification side channel reads the device's true at-rest
        // bytes without a fault draw. Forwarding explicitly also keeps the
        // read off the accounted default path.
        self.inner.read_unaccounted(key, offset, buf)
    }

    fn write_at(&self, key: &str, offset: u64, data: &[u8]) -> gsd_io::Result<()> {
        self.decide("write", key)?;
        self.inner.write_at(key, offset, data)
    }

    fn sync(&self) -> gsd_io::Result<()> {
        self.decide("sync", "")?;
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

    fn wrap(cfg: FaultConfig) -> (FaultyStorage, SharedStorage) {
        let inner: SharedStorage = Arc::new(MemStorage::new());
        (FaultyStorage::new(inner.clone(), cfg), inner)
    }

    #[test]
    fn zero_rates_are_transparent() -> std::io::Result<()> {
        let (faulty, _) = wrap(FaultConfig::transient(1, 0.0));
        faulty.create("k", &[1, 2, 3])?;
        let mut buf = [0u8; 3];
        for _ in 0..1000 {
            faulty.read_at("k", 0, &mut buf)?;
        }
        assert_eq!(faulty.injected_transient(), 0);
        Ok(())
    }

    #[test]
    fn transient_faults_are_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let (faulty, _) = wrap(FaultConfig::transient(seed, 0.3));
            faulty.create("k", &[0u8; 8]).ok();
            let mut buf = [0u8; 8];
            (0..200)
                .map(|_| faulty.read_at("k", 0, &mut buf).is_err())
                .collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same fault stream");
        assert_ne!(a, run(43), "different seed, different stream");
        let failures = a.iter().filter(|&&f| f).count();
        assert!(
            (30..=90).contains(&failures),
            "rate ~0.3, got {failures}/200"
        );
    }

    #[test]
    fn transient_faults_do_not_reach_inner_accounting() {
        let (faulty, inner) = wrap(FaultConfig::transient(7, 0.5));
        faulty.create("k", &[0u8; 8]).ok();
        inner.stats().reset();
        let mut buf = [0u8; 8];
        let mut ok = 0u64;
        for _ in 0..100 {
            if faulty.read_at("k", 0, &mut buf).is_ok() {
                ok += 1;
            }
        }
        assert!(faulty.injected_transient() > 0);
        let s = inner.stats().snapshot();
        assert_eq!(
            s.seq_read_ops + s.rand_read_ops,
            ok,
            "only successes counted"
        );
    }

    #[test]
    fn transient_errors_are_retryable_kind() {
        let (faulty, _) = wrap(FaultConfig::transient(3, 1.0));
        faulty
            .create("k", &[1])
            .expect_err("rate 1.0 fails create too");
        let mut buf = [0u8; 1];
        let err = faulty.read_at("k", 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);
    }

    #[test]
    fn kill_at_op_fires_exactly_once_at_the_nth_op() {
        let (faulty, _) = wrap(FaultConfig::transient(9, 0.0).with_kill_at_op(3));
        faulty.create("k", &[0u8; 8]).expect("op 1");
        let mut buf = [0u8; 8];
        faulty.read_at("k", 0, &mut buf).expect("op 2");
        let err = faulty.read_at("k", 0, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Other, "op 3 is the kill");
        faulty.read_at("k", 0, &mut buf).expect("op 4 proceeds");
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

    #[test]
    fn parse_accepts_seed_colon_rate() {
        let cfg = FaultConfig::parse("42:0.02").expect("valid spec");
        assert_eq!(cfg.seed, 42);
        assert!((cfg.transient_rate - 0.02).abs() < 1e-12);
        assert!(FaultConfig::parse("42").is_none());
        assert!(FaultConfig::parse("x:0.1").is_none());
        assert!(FaultConfig::parse("1:1.5").is_none());
    }
}
