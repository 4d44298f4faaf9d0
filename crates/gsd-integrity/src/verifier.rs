//! Verify-on-read: the hot-path side of grid integrity.
//!
//! A [`GridVerifier`] hangs off an open grid handle and checks objects
//! against the manifest as the engine reads them. Whole-object reads are
//! verified **in place** (the engine's own accounted read supplies the
//! bytes, so clean data costs zero extra I/O); partial reads (index
//! spans, edge runs) trigger one *unaccounted* whole-object side read the
//! first time the object is touched, after which it is trusted for the
//! rest of the run. All side reads go through
//! [`gsd_io::Storage::read_unaccounted`], so `IoStats` — and therefore
//! every figure the experiments report — is bit-identical with
//! verification on or off.

#![expect(
    clippy::disallowed_methods,
    reason = "designated concurrency module: one verifier is shared by the prefetch workers, the buffer and the engine"
)]

use crate::error::{CorruptionError, CorruptionKind};
use crate::manifest::{IntegritySection, ObjectEntry};
use gsd_io::SharedStorage;
use gsd_trace::{null_sink, Counter, TraceEvent, TraceSink};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Monotonic verification counters, snapshotted by engines at run start
/// and folded into `RunStats` at run end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyCounters {
    /// Bytes checksummed (accounted separately from `IoStats` traffic).
    pub verify_bytes: u64,
    /// Corruption detections.
    pub corrupt_blocks: u64,
}

impl VerifyCounters {
    /// Component-wise `self - earlier` (both monotonic).
    pub fn since(&self, earlier: &VerifyCounters) -> VerifyCounters {
        VerifyCounters {
            verify_bytes: self.verify_bytes.saturating_sub(earlier.verify_bytes),
            corrupt_blocks: self.corrupt_blocks.saturating_sub(earlier.corrupt_blocks),
        }
    }
}

/// Checks grid objects against an [`IntegritySection`] as they are read,
/// failing the read with a [`CorruptionError`] on the first mismatch.
///
/// Cloned grid handles share one verifier through an `Arc`, so pipeline
/// workers, the buffer, and the engine all feed the same memo of
/// already-verified objects and the same counters.
pub struct GridVerifier {
    storage: SharedStorage,
    prefix: String,
    section: IntegritySection,
    sink: Mutex<Arc<dyn TraceSink>>,
    /// Full keys already verified this run (partial-read memo).
    verified: Mutex<BTreeSet<String>>,
    verify_bytes: Counter,
    corrupt_blocks: Counter,
}

impl GridVerifier {
    /// Builds a verifier for the grid at `prefix` whose meta carries
    /// `section`.
    pub fn new(
        storage: SharedStorage,
        prefix: impl Into<String>,
        section: IntegritySection,
    ) -> Self {
        GridVerifier {
            storage,
            prefix: prefix.into(),
            section,
            sink: Mutex::new(null_sink()),
            verified: Mutex::new(BTreeSet::new()),
            verify_bytes: Counter::new(),
            corrupt_blocks: Counter::new(),
        }
    }

    /// Routes trace events (`ChecksumOk`/`CorruptionDetected`) to `sink`.
    /// Engines call this alongside their own `set_trace`.
    pub fn set_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.lock() = sink;
    }

    /// Current counter values.
    pub fn counters(&self) -> VerifyCounters {
        VerifyCounters {
            verify_bytes: self.verify_bytes.get(),
            corrupt_blocks: self.corrupt_blocks.get(),
        }
    }

    /// The manifest entry of the full storage key `key`, if covered
    /// (everything the preprocessor writes is).
    fn entry(&self, key: &str) -> Option<&ObjectEntry> {
        self.section.lookup(key.strip_prefix(self.prefix.as_str())?)
    }

    fn emit(&self, event: TraceEvent) {
        let sink = self.sink.lock().clone();
        if sink.enabled() {
            sink.emit(&event);
        }
    }

    /// Counts and traces the outcome of checking `key` against `entry`.
    fn settle(
        &self,
        key: &str,
        entry: &ObjectEntry,
        checked: Result<(), CorruptionError>,
    ) -> gsd_io::Result<()> {
        match checked {
            Ok(()) => {
                self.verify_bytes.add(entry.len);
                self.verified.lock().insert(key.to_string());
                self.emit(TraceEvent::ChecksumOk {
                    key: key.to_string(),
                    bytes: entry.len,
                });
                Ok(())
            }
            Err(corruption) => {
                self.corrupt_blocks.add(1);
                let (expected, actual) = match corruption.kind {
                    CorruptionKind::ChecksumMismatch { expected, actual } => {
                        (u64::from(expected), u64::from(actual))
                    }
                    CorruptionKind::LengthMismatch { expected, actual } => (expected, actual),
                    CorruptionKind::Missing | CorruptionKind::ManifestCorrupt { .. } => {
                        (u64::from(entry.crc), 0)
                    }
                };
                self.emit(TraceEvent::CorruptionDetected {
                    key: key.to_string(),
                    expected,
                    actual,
                });
                Err(corruption.into_io())
            }
        }
    }

    /// Reads the whole object `key` (a **full** storage key) into `buf`
    /// through the caller's accounted read path and checks exactly those
    /// bytes against the manifest. `buf.len()` must equal the object
    /// length the caller derived from the grid meta. Objects the manifest
    /// does not cover degrade to a plain `read_at`.
    pub fn read_whole_verified(&self, key: &str, buf: &mut [u8]) -> gsd_io::Result<()> {
        let Some(entry) = self.entry(key) else {
            return self.storage.read_at(key, 0, buf);
        };
        if let Err(read) = self.storage.read_at(key, 0, buf) {
            // A short or missing object fails the read itself: name it.
            return match entry.check_stored(self.storage.as_ref(), key) {
                Ok(()) => Err(read),
                Err(corruption) => self.settle(key, entry, Err(corruption)),
            };
        }
        self.settle(key, entry, entry.check(key, buf))
    }

    /// Checks an already-read whole object (`read_all` paths).
    pub fn verify_owned(&self, key: &str, bytes: &[u8]) -> gsd_io::Result<()> {
        match self.entry(key) {
            Some(entry) => self.settle(key, entry, entry.check(key, bytes)),
            None => Ok(()),
        }
    }

    /// Ensures the object behind a **partial** read has been verified at
    /// least once this run: the first touch triggers one unaccounted
    /// whole-object side read and checksum, later touches are free.
    pub fn ensure_verified(&self, key: &str) -> gsd_io::Result<()> {
        let Some(entry) = self.entry(key) else {
            return Ok(());
        };
        if self.verified.lock().contains(key) {
            return Ok(());
        }
        self.settle(key, entry, entry.check_stored(self.storage.as_ref(), key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_io::MemStorage;
    use gsd_trace::RingRecorder;

    fn setup(prefix: &str) -> (SharedStorage, GridVerifier) {
        let storage: SharedStorage = Arc::new(MemStorage::new());
        let payloads: Vec<(&str, Vec<u8>)> = vec![
            ("degrees.bin", vec![1u8; 64]),
            ("blocks/b_0_0.edges", (0u8..100).collect()),
            ("blocks/r_0.ridx", vec![9u8; 16]),
        ];
        let mut entries = Vec::new();
        for (rel, payload) in &payloads {
            storage.create(&format!("{prefix}{rel}"), payload).unwrap();
            entries.push(ObjectEntry::of(rel.to_string(), payload));
        }
        let section = IntegritySection::new(entries);
        let verifier = GridVerifier::new(storage.clone(), prefix, section);
        (storage, verifier)
    }

    #[test]
    fn clean_whole_read_verifies_without_extra_accounted_io() {
        let (storage, v) = setup("g/");
        let before = storage.stats().snapshot();
        let mut buf = vec![0u8; 100];
        v.read_whole_verified("g/blocks/b_0_0.edges", &mut buf)
            .unwrap();
        assert_eq!(buf[1], 1);
        let delta = storage.stats().snapshot().since(&before);
        assert_eq!(delta.total_traffic(), 100, "exactly the caller's read");
        assert_eq!(v.counters().verify_bytes, 100);
        assert_eq!(v.counters().corrupt_blocks, 0);
    }

    #[test]
    fn bit_flip_fails_fast_with_structured_error() {
        let (storage, v) = setup("");
        storage.write_at("blocks/b_0_0.edges", 50, &[0xAA]).unwrap();
        let mut buf = vec![0u8; 100];
        let err = v
            .read_whole_verified("blocks/b_0_0.edges", &mut buf)
            .unwrap_err();
        let c = CorruptionError::from_io(&err).expect("structured corruption error");
        assert_eq!(c.key, "blocks/b_0_0.edges");
        assert!(matches!(c.kind, CorruptionKind::ChecksumMismatch { .. }));
        assert_eq!(v.counters().corrupt_blocks, 1);
    }

    #[test]
    fn truncation_is_a_length_mismatch() {
        let (storage, v) = setup("");
        storage.create("degrees.bin", &[1u8; 60]).unwrap();
        let mut buf = vec![0u8; 64];
        let err = v.read_whole_verified("degrees.bin", &mut buf).unwrap_err();
        let c = CorruptionError::from_io(&err).unwrap();
        assert_eq!(
            c.kind,
            CorruptionKind::LengthMismatch {
                expected: 64,
                actual: 60
            }
        );
    }

    #[test]
    fn missing_object_is_detected() {
        let (storage, v) = setup("");
        storage.delete("blocks/r_0.ridx").unwrap();
        let err = v.ensure_verified("blocks/r_0.ridx").unwrap_err();
        let c = CorruptionError::from_io(&err).unwrap();
        assert_eq!(c.kind, CorruptionKind::Missing);
    }

    #[test]
    fn partial_reads_verify_once_via_unaccounted_side_read() {
        let (storage, v) = setup("");
        let before = storage.stats().snapshot();
        v.ensure_verified("blocks/r_0.ridx").unwrap();
        v.ensure_verified("blocks/r_0.ridx").unwrap();
        assert_eq!(
            storage.stats().snapshot(),
            before,
            "side reads never touch accounting"
        );
        assert_eq!(v.counters().verify_bytes, 16, "verified exactly once");
    }

    #[test]
    fn events_flow_to_the_sink() {
        let (storage, v) = setup("");
        storage.write_at("degrees.bin", 0, &[7]).unwrap();
        let recorder = Arc::new(RingRecorder::new(16));
        v.set_sink(recorder.clone());
        v.ensure_verified("blocks/r_0.ridx").unwrap();
        let _ = v.ensure_verified("degrees.bin");
        let kinds: Vec<&'static str> = recorder.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["checksum_ok", "corruption_detected"]);
    }

    #[test]
    fn uncovered_keys_pass_through() {
        let (storage, v) = setup("");
        storage.create("values.bin", &[1, 2, 3]).unwrap();
        v.ensure_verified("values.bin").unwrap();
        v.verify_owned("values.bin", &[9]).unwrap();
        let mut buf = vec![0u8; 3];
        v.read_whole_verified("values.bin", &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(v.counters().verify_bytes, 0);
    }
}
