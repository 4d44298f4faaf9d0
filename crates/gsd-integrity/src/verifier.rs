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

use crate::error::CorruptionError;
use crate::hash::crc32;
use crate::manifest::{IntegritySection, ObjectEntry};
use crate::verify::{CorruptionResponse, VerifyPolicy};
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
    /// Corrupt reads that recovered via bounded re-read.
    pub repaired_blocks: u64,
}

impl VerifyCounters {
    /// Component-wise `self - earlier` (both monotonic).
    pub fn since(&self, earlier: &VerifyCounters) -> VerifyCounters {
        VerifyCounters {
            verify_bytes: self.verify_bytes.saturating_sub(earlier.verify_bytes),
            corrupt_blocks: self.corrupt_blocks.saturating_sub(earlier.corrupt_blocks),
            repaired_blocks: self.repaired_blocks.saturating_sub(earlier.repaired_blocks),
        }
    }
}

/// Storage key the quarantine list is written under, relative to the
/// grid prefix.
pub const QUARANTINE_KEY: &str = "integrity/quarantine.json";

/// Checks grid objects against an [`IntegritySection`] as they are read.
///
/// Cloned grid handles share one verifier through an `Arc`, so pipeline
/// workers, the buffer, and the engine all feed the same memo of
/// already-verified objects and the same counters.
pub struct GridVerifier {
    storage: SharedStorage,
    prefix: String,
    section: IntegritySection,
    policy: VerifyPolicy,
    response: CorruptionResponse,
    sink: Mutex<Arc<dyn TraceSink>>,
    /// Prefix-relative keys already verified this run (partial-read memo).
    verified: Mutex<BTreeSet<String>>,
    /// Prefix-relative keys quarantined so far (sorted for stable output).
    quarantined: Mutex<BTreeSet<String>>,
    verify_bytes: Counter,
    corrupt_blocks: Counter,
    repaired_blocks: Counter,
}

impl GridVerifier {
    /// Builds a verifier for the grid at `prefix` whose meta carries
    /// `section`.
    pub fn new(
        storage: SharedStorage,
        prefix: impl Into<String>,
        section: IntegritySection,
        policy: VerifyPolicy,
        response: CorruptionResponse,
    ) -> Self {
        GridVerifier {
            storage,
            prefix: prefix.into(),
            section,
            policy,
            response,
            sink: Mutex::new(null_sink()),
            verified: Mutex::new(BTreeSet::new()),
            quarantined: Mutex::new(BTreeSet::new()),
            verify_bytes: Counter::new(),
            corrupt_blocks: Counter::new(),
            repaired_blocks: Counter::new(),
        }
    }

    /// Routes trace events (`ChecksumOk`/`CorruptionDetected`/
    /// `BlockRepaired`) to `sink`. Engines call this alongside their own
    /// `set_trace`.
    pub fn set_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.sink.lock() = sink;
    }

    /// The policy this verifier runs under.
    pub fn policy(&self) -> VerifyPolicy {
        self.policy
    }

    /// The configured corruption response.
    pub fn response(&self) -> CorruptionResponse {
        self.response
    }

    /// Current counter values.
    pub fn counters(&self) -> VerifyCounters {
        VerifyCounters {
            verify_bytes: self.verify_bytes.get(),
            corrupt_blocks: self.corrupt_blocks.get(),
            repaired_blocks: self.repaired_blocks.get(),
        }
    }

    fn rel<'k>(&self, key: &'k str) -> Option<&'k str> {
        key.strip_prefix(self.prefix.as_str())
    }

    fn emit(&self, event: TraceEvent) {
        let sink = self.sink.lock().clone();
        if sink.enabled() {
            sink.emit(&event);
        }
    }

    fn mark_verified(&self, rel_key: &str, bytes: u64, full_key: &str) {
        self.verify_bytes.add(bytes);
        self.verified.lock().insert(rel_key.to_string());
        self.emit(TraceEvent::ChecksumOk {
            key: full_key.to_string(),
            bytes,
        });
    }

    /// Reads the whole object `key` (a **full** storage key) into `buf`
    /// through the caller's accounted read path, verifying it against the
    /// manifest when the policy selects it. `buf.len()` must equal the
    /// object length the caller derived from the grid meta.
    ///
    /// Objects the policy skips, and objects not covered by the manifest
    /// (nothing the preprocessor writes is uncovered), degrade to a plain
    /// `read_at`.
    pub fn read_whole_verified(&self, key: &str, buf: &mut [u8]) -> gsd_io::Result<()> {
        let entry = match self.rel(key).and_then(|rel| {
            if self.policy.selects(rel) {
                self.section.lookup(rel).cloned()
            } else {
                None
            }
        }) {
            Some(entry) => entry,
            None => return self.storage.read_at(key, 0, buf),
        };
        // Length first: a truncated object must surface as a structured
        // corruption error, not the backend's out-of-range read error.
        let actual_len = match self.storage.len(key) {
            Ok(n) => n,
            Err(_) => return self.handle_corruption(key, &entry, Some(buf), None),
        };
        if actual_len != entry.len || buf.len() as u64 != entry.len {
            return self.handle_corruption(key, &entry, Some(buf), None);
        }
        self.storage.read_at(key, 0, buf)?;
        let actual = crc32(buf);
        if actual == entry.crc {
            if let Some(rel) = self.rel(key) {
                self.mark_verified(rel, entry.len, key);
            }
            return Ok(());
        }
        self.handle_corruption(key, &entry, Some(buf), Some(actual))
    }

    /// Verifies an already-read whole object in place (`read_all` paths).
    /// On a recovered transient corruption the clean bytes replace
    /// `bytes`.
    pub fn verify_owned(&self, key: &str, bytes: &mut Vec<u8>) -> gsd_io::Result<()> {
        let entry = match self.rel(key).and_then(|rel| {
            if self.policy.selects(rel) {
                self.section.lookup(rel).cloned()
            } else {
                None
            }
        }) {
            Some(entry) => entry,
            None => return Ok(()),
        };
        if bytes.len() as u64 != entry.len {
            let mut scratch = std::mem::take(bytes);
            scratch.resize(entry.len as usize, 0);
            let outcome = self.handle_corruption(key, &entry, Some(&mut scratch), None);
            *bytes = scratch;
            return outcome;
        }
        let actual = crc32(bytes);
        if actual == entry.crc {
            if let Some(rel) = self.rel(key) {
                self.mark_verified(rel, entry.len, key);
            }
            return Ok(());
        }
        self.handle_corruption(key, &entry, Some(bytes), Some(actual))
    }

    /// Ensures the object behind a **partial** read has been verified at
    /// least once this run: the first touch triggers one unaccounted
    /// whole-object side read and checksum, later touches are free.
    pub fn ensure_verified(&self, key: &str) -> gsd_io::Result<()> {
        let rel = match self.rel(key) {
            Some(rel) if self.policy.selects(rel) => rel,
            _ => return Ok(()),
        };
        let entry = match self.section.lookup(rel) {
            Some(entry) => entry.clone(),
            None => return Ok(()),
        };
        if self.verified.lock().contains(rel) {
            return Ok(());
        }
        match self.side_read(key, &entry) {
            Ok(()) => {
                self.mark_verified(rel, entry.len, key);
                Ok(())
            }
            Err(corruption) => {
                // No caller buffer to repair into; a successful re-read
                // still validates the object for subsequent reads.
                self.handle_corruption(key, &entry, None, corruption.observed_crc())
            }
        }
    }

    /// One unaccounted whole-object read + checksum. `Err` carries what
    /// disagreed.
    fn side_read(&self, key: &str, entry: &ObjectEntry) -> Result<(), SideReadError> {
        let actual_len = self
            .storage
            .len(key)
            .map_err(|_| SideReadError::Unreadable)?;
        if actual_len != entry.len {
            return Err(SideReadError::Length);
        }
        let mut buf = vec![0u8; entry.len as usize];
        if !buf.is_empty() {
            self.storage
                .read_unaccounted(key, 0, &mut buf)
                .map_err(|_| SideReadError::Unreadable)?;
        }
        let actual = crc32(&buf);
        if actual != entry.crc {
            return Err(SideReadError::Checksum(actual));
        }
        Ok(())
    }

    /// Central corruption handling: count, trace, then apply the
    /// configured response. `buf`, when present, is the caller's buffer
    /// to fill with clean bytes if a re-read recovers.
    fn handle_corruption(
        &self,
        key: &str,
        entry: &ObjectEntry,
        mut buf: Option<&mut [u8]>,
        observed_crc: Option<u32>,
    ) -> gsd_io::Result<()> {
        self.corrupt_blocks.add(1);
        let error = self.corruption_error(key, entry, observed_crc);
        let (expected, actual) = match &error.kind {
            crate::CorruptionKind::ChecksumMismatch { expected, actual } => {
                (u64::from(*expected), u64::from(*actual))
            }
            crate::CorruptionKind::LengthMismatch { expected, actual } => (*expected, *actual),
            crate::CorruptionKind::Missing | crate::CorruptionKind::ManifestCorrupt { .. } => {
                (u64::from(entry.crc), 0)
            }
        };
        self.emit(TraceEvent::CorruptionDetected {
            key: key.to_string(),
            expected,
            actual,
        });
        match self.response {
            CorruptionResponse::FailFast => Err(error.into_io()),
            CorruptionResponse::Retry(attempts) => {
                for _ in 0..attempts {
                    let mut clean = vec![0u8; entry.len as usize];
                    let recovered = self.storage.len(key).is_ok_and(|n| n == entry.len)
                        && (clean.is_empty()
                            || self.storage.read_unaccounted(key, 0, &mut clean).is_ok())
                        && crc32(&clean) == entry.crc;
                    if !recovered {
                        continue;
                    }
                    if let Some(buf) = buf.as_deref_mut() {
                        if buf.len() != clean.len() {
                            // Caller sized the buffer from a meta that
                            // disagrees with the manifest; unrecoverable.
                            return Err(error.into_io());
                        }
                        buf.copy_from_slice(&clean);
                    }
                    self.repaired_blocks.add(1);
                    if let Some(rel) = self.rel(key) {
                        self.mark_verified(rel, entry.len, key);
                    }
                    self.emit(TraceEvent::BlockRepaired {
                        key: key.to_string(),
                        bytes: entry.len,
                    });
                    return Ok(());
                }
                Err(error.into_io())
            }
            CorruptionResponse::Quarantine => {
                let list: Vec<String> = {
                    let mut quarantined = self.quarantined.lock();
                    if let Some(rel) = self.rel(key) {
                        quarantined.insert(rel.to_string());
                    }
                    quarantined.iter().cloned().collect()
                };
                let payload = serde_json::to_vec_pretty(&list)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                let qkey = format!("{}{QUARANTINE_KEY}", self.prefix);
                self.storage.create(&qkey, &payload)?;
                Err(error.into_io())
            }
        }
    }

    fn corruption_error(
        &self,
        key: &str,
        entry: &ObjectEntry,
        observed_crc: Option<u32>,
    ) -> CorruptionError {
        if let Some(actual) = observed_crc {
            return CorruptionError::checksum(key, entry.crc, actual);
        }
        match self.storage.len(key) {
            Ok(actual_len) if actual_len != entry.len => {
                CorruptionError::length(key, entry.len, actual_len)
            }
            Ok(_) => CorruptionError::checksum(key, entry.crc, 0),
            Err(_) => CorruptionError::missing(key),
        }
    }
}

enum SideReadError {
    Length,
    Unreadable,
    Checksum(u32),
}

impl SideReadError {
    fn observed_crc(&self) -> Option<u32> {
        match self {
            SideReadError::Checksum(crc) => Some(*crc),
            SideReadError::Length | SideReadError::Unreadable => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsd_io::MemStorage;
    use gsd_trace::RingRecorder;

    fn setup(prefix: &str) -> (SharedStorage, IntegritySection) {
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
        (storage, IntegritySection::new(entries))
    }

    fn verifier(
        storage: &SharedStorage,
        section: &IntegritySection,
        prefix: &str,
        policy: VerifyPolicy,
        response: CorruptionResponse,
    ) -> GridVerifier {
        GridVerifier::new(storage.clone(), prefix, section.clone(), policy, response)
    }

    #[test]
    fn clean_whole_read_verifies_without_extra_accounted_io() {
        let (storage, section) = setup("g/");
        let v = verifier(
            &storage,
            &section,
            "g/",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
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
    fn policy_off_reads_without_verification() {
        let (storage, section) = setup("");
        // Corrupt a block; Off must not notice.
        storage.write_at("blocks/b_0_0.edges", 0, &[0xFF]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Off,
            CorruptionResponse::FailFast,
        );
        let mut buf = vec![0u8; 100];
        v.read_whole_verified("blocks/b_0_0.edges", &mut buf)
            .unwrap();
        assert_eq!(v.counters(), VerifyCounters::default());
    }

    #[test]
    fn bit_flip_fails_fast_with_structured_error() {
        let (storage, section) = setup("");
        storage.write_at("blocks/b_0_0.edges", 50, &[0xAA]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
        let mut buf = vec![0u8; 100];
        let err = v
            .read_whole_verified("blocks/b_0_0.edges", &mut buf)
            .unwrap_err();
        let c = CorruptionError::from_io(&err).expect("structured corruption error");
        assert_eq!(c.key, "blocks/b_0_0.edges");
        assert!(matches!(
            c.kind,
            crate::CorruptionKind::ChecksumMismatch { .. }
        ));
        assert_eq!(v.counters().corrupt_blocks, 1);
    }

    #[test]
    fn truncation_is_a_length_mismatch() {
        let (storage, section) = setup("");
        storage.create("degrees.bin", &[1u8; 60]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
        let mut buf = vec![0u8; 64];
        let err = v.read_whole_verified("degrees.bin", &mut buf).unwrap_err();
        let c = CorruptionError::from_io(&err).unwrap();
        assert_eq!(
            c.kind,
            crate::CorruptionKind::LengthMismatch {
                expected: 64,
                actual: 60
            }
        );
    }

    #[test]
    fn missing_object_is_detected() {
        let (storage, section) = setup("");
        storage.delete("blocks/r_0.ridx").unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
        let err = v.ensure_verified("blocks/r_0.ridx").unwrap_err();
        let c = CorruptionError::from_io(&err).unwrap();
        assert_eq!(c.kind, crate::CorruptionKind::Missing);
    }

    #[test]
    fn retry_recovers_transient_corruption_into_the_caller_buffer() {
        // At-rest data is clean; simulate in-flight corruption by handing
        // the verifier a buffer the "read" filled with garbage.
        let (storage, section) = setup("");
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::Retry(2),
        );
        let mut bytes: Vec<u8> = vec![0xEE; 100]; // garbage "read"
        v.verify_owned("blocks/b_0_0.edges", &mut bytes).unwrap();
        let expect: Vec<u8> = (0u8..100).collect();
        assert_eq!(bytes, expect, "clean bytes replaced the garbage");
        let c = v.counters();
        assert_eq!(c.corrupt_blocks, 1);
        assert_eq!(c.repaired_blocks, 1);
    }

    #[test]
    fn retry_gives_up_on_at_rest_corruption() {
        let (storage, section) = setup("");
        storage.write_at("degrees.bin", 3, &[0]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::Retry(3),
        );
        let err = v.ensure_verified("degrees.bin").unwrap_err();
        assert!(CorruptionError::is_corruption(&err));
        assert_eq!(v.counters().repaired_blocks, 0);
    }

    #[test]
    fn quarantine_records_the_key_then_fails() {
        let (storage, section) = setup("g/");
        storage.write_at("g/degrees.bin", 0, &[9]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "g/",
            VerifyPolicy::Full,
            CorruptionResponse::Quarantine,
        );
        let err = v.ensure_verified("g/degrees.bin").unwrap_err();
        assert!(CorruptionError::is_corruption(&err));
        let listed = storage.read_all(&format!("g/{QUARANTINE_KEY}")).unwrap();
        let keys: Vec<String> = serde_json::from_slice(&listed).unwrap();
        assert_eq!(keys, vec!["degrees.bin".to_string()]);
    }

    #[test]
    fn partial_reads_verify_once_via_unaccounted_side_read() {
        let (storage, section) = setup("");
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
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
    fn sampling_verifies_only_selected_objects() {
        let (storage, section) = setup("");
        let sample = VerifyPolicy::Sample(2);
        let v = verifier(&storage, &section, "", sample, CorruptionResponse::FailFast);
        let mut expected = 0u64;
        for entry in &section.objects {
            v.ensure_verified(&entry.key).unwrap();
            if sample.selects(&entry.key) {
                expected += entry.len;
            }
        }
        assert_eq!(v.counters().verify_bytes, expected);
    }

    #[test]
    fn events_flow_to_the_sink() {
        let (storage, section) = setup("");
        storage.write_at("degrees.bin", 0, &[7]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
        let recorder = Arc::new(RingRecorder::new(16));
        v.set_sink(recorder.clone());
        v.ensure_verified("blocks/r_0.ridx").unwrap();
        let _ = v.ensure_verified("degrees.bin");
        let kinds: Vec<&'static str> = recorder.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["checksum_ok", "corruption_detected"]);
    }

    #[test]
    fn uncovered_keys_pass_through() {
        let (storage, section) = setup("");
        storage.create("values.bin", &[1, 2, 3]).unwrap();
        let v = verifier(
            &storage,
            &section,
            "",
            VerifyPolicy::Full,
            CorruptionResponse::FailFast,
        );
        v.ensure_verified("values.bin").unwrap();
        let mut buf = vec![0u8; 3];
        v.read_whole_verified("values.bin", &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(v.counters().verify_bytes, 0);
    }
}
