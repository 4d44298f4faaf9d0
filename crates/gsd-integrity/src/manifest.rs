//! The checksummed per-object manifest embedded in a grid's `meta.json`.
//!
//! Every data object the preprocessor writes (block edges, row index,
//! degrees) gets an [`ObjectEntry`] recording its length and
//! CRC32. The whole `meta.json`, entries included, is guarded by
//! `meta_crc` (a CRC32 of the meta serialized with `meta_crc` zeroed —
//! computed and checked by the format layer in `gsd-graph`, which owns
//! meta serialization). A flipped bit in the manifest is therefore as
//! detectable as a flipped bit in a block.

use crate::error::CorruptionError;
use crate::hash::crc32;
use gsd_io::Storage;
use serde::{Deserialize, Serialize};

/// Checksum record for one grid data object.
///
/// `key` is **relative to the grid prefix** (e.g. `blocks/b_0_1.edges`,
/// `degrees.bin`) so a grid stays verifiable when mounted under a
/// different prefix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectEntry {
    /// Prefix-relative storage key.
    pub key: String,
    /// Object length in bytes.
    pub len: u64,
    /// CRC32 of the object payload.
    pub crc: u32,
}

impl ObjectEntry {
    /// Builds an entry for `key` directly from the payload bytes.
    pub fn of(key: impl Into<String>, payload: &[u8]) -> Self {
        ObjectEntry {
            key: key.into(),
            len: payload.len() as u64,
            crc: crc32(payload),
        }
    }

    /// Checks `bytes`, the whole content of the object stored at `key`
    /// (the full storage key the error names), against this entry: the
    /// length first, then the CRC32. The one comparison of an object with
    /// its entry; verify-on-read, scrub and the delta merge all call it.
    pub fn check(&self, key: &str, bytes: &[u8]) -> Result<(), CorruptionError> {
        let len = bytes.len() as u64;
        if len != self.len {
            return Err(CorruptionError::length(key, self.len, len));
        }
        let crc = crc32(bytes);
        if crc != self.crc {
            return Err(CorruptionError::checksum(key, self.crc, crc));
        }
        Ok(())
    }

    /// [`Self::check`] of the object stored at `key`, read whole through
    /// [`Storage::read_unaccounted`]: a side read that never shows up in
    /// the workload's I/O figures. An object storage cannot produce is
    /// `Missing`.
    pub fn check_stored(&self, storage: &dyn Storage, key: &str) -> Result<(), CorruptionError> {
        let len = storage
            .len(key)
            .map_err(|_| CorruptionError::missing(key))?;
        let mut bytes = vec![0u8; len as usize];
        if len > 0 {
            storage
                .read_unaccounted(key, 0, &mut bytes)
                .map_err(|_| CorruptionError::missing(key))?;
        }
        self.check(key, &bytes)
    }
}

/// The `integrity` section of a grid's `meta.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegritySection {
    /// Checksum algorithm id; always `"crc32"`.
    pub algo: String,
    /// One entry per data object, sorted by key.
    pub objects: Vec<ObjectEntry>,
    /// CRC32 of the whole `meta.json` serialized with this field zeroed.
    /// Set by the format layer when the meta is sealed; `0` until then.
    pub meta_crc: u32,
}

impl IntegritySection {
    /// Builds a sealed section from the collected entries (sorted here;
    /// callers may push in any order). `meta_crc` starts at zero and is
    /// filled in by the format layer once the rest of the meta is final.
    pub fn new(mut objects: Vec<ObjectEntry>) -> Self {
        objects.sort_by(|a, b| a.key.cmp(&b.key));
        IntegritySection {
            algo: "crc32".to_string(),
            objects,
            meta_crc: 0,
        }
    }

    /// A canonical byte encoding of the entry list — for each entry in
    /// key order, `key` bytes, a `0x00` separator, `len` as 8 LE bytes,
    /// `crc` as 4 LE bytes (keys never contain NUL; storage rejects
    /// them) — so hashing it names every object's key, length and
    /// checksum at once.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.objects.iter().map(|o| o.key.len() + 13).sum());
        for obj in &self.objects {
            bytes.extend_from_slice(obj.key.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&obj.len.to_le_bytes());
            bytes.extend_from_slice(&obj.crc.to_le_bytes());
        }
        bytes
    }

    /// Looks up the entry for a prefix-relative key.
    pub fn lookup(&self, rel_key: &str) -> Option<&ObjectEntry> {
        self.objects
            .binary_search_by(|o| o.key.as_str().cmp(rel_key))
            .ok()
            .map(|i| &self.objects[i])
    }

    /// Number of objects covered.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are covered.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total payload bytes covered by the manifest.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.len).sum()
    }

    /// Self-checks the section: the algorithm must be known and the
    /// entries sorted and unique ([`Self::lookup`] binary-searches them).
    /// The entries' bytes are covered by `meta_crc`. `meta_key` only
    /// labels the error.
    pub fn verify_section(&self, meta_key: &str) -> Result<(), CorruptionError> {
        if self.algo != "crc32" {
            return Err(CorruptionError::manifest(
                meta_key,
                format!("unknown integrity algorithm {:?}", self.algo),
            ));
        }
        for pair in self.objects.windows(2) {
            if pair[0].key >= pair[1].key {
                return Err(CorruptionError::manifest(
                    meta_key,
                    format!(
                        "integrity entries out of order ({:?} before {:?})",
                        pair[0].key, pair[1].key
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IntegritySection {
        IntegritySection::new(vec![
            ObjectEntry::of("degrees.bin", b"degrees"),
            ObjectEntry::of("blocks/b_0_0.edges", b"edges"),
            ObjectEntry::of("blocks/r_0.ridx", b"index"),
        ])
    }

    #[test]
    fn entries_are_sorted_and_looked_up() {
        let section = sample();
        let keys: Vec<&str> = section.objects.iter().map(|o| o.key.as_str()).collect();
        assert_eq!(
            keys,
            vec!["blocks/b_0_0.edges", "blocks/r_0.ridx", "degrees.bin"]
        );
        let entry = section.lookup("degrees.bin").unwrap();
        assert_eq!(entry.len, 7);
        assert_eq!(entry.crc, crc32(b"degrees"));
        assert!(section.lookup("missing").is_none());
        assert_eq!(section.len(), 3);
        assert_eq!(section.total_bytes(), 5 + 5 + 7);
    }

    #[test]
    fn check_compares_length_before_crc() {
        use crate::CorruptionKind::{ChecksumMismatch, LengthMismatch, Missing};
        let payload: Vec<u8> = (0u8..32).collect();
        let entry = ObjectEntry::of("b", &payload);
        let mut flipped = payload.clone();
        flipped[7] ^= 0x10;
        let mut long = payload.clone();
        long.push(0);
        let checksum = |bytes: &[u8]| ChecksumMismatch {
            expected: entry.crc,
            actual: crc32(bytes),
        };
        let length = |actual| LengthMismatch {
            expected: 32,
            actual,
        };
        // Short and long objects are length mismatches: their CRC would
        // differ too, so the kind shows which comparison ran first.
        let cases = [
            ("clean", Some(&payload[..]), None),
            ("short", Some(&payload[..31]), Some(length(31))),
            ("long", Some(&long[..]), Some(length(33))),
            ("missing", None, Some(Missing)),
            ("bit flip", Some(&flipped[..]), Some(checksum(&flipped))),
        ];
        let storage = gsd_io::MemStorage::new();
        for (name, stored, want) in cases {
            let key = format!("g/{name}");
            if let Some(bytes) = stored {
                storage.create(&key, bytes).unwrap();
                let got = entry.check(&key, bytes).err();
                assert_eq!(got.as_ref().map(|e| &e.kind), want.as_ref(), "{name}");
                assert!(got.is_none_or(|e| e.key == key), "{name}");
            }
            let before = storage.stats().snapshot();
            let got = entry.check_stored(&storage, &key).err();
            assert_eq!(got.map(|e| e.kind), want, "{name}: stored");
            assert_eq!(storage.stats().snapshot(), before, "{name}: unaccounted");
        }
    }

    #[test]
    fn self_check_passes_when_untouched() {
        sample().verify_section("meta.json").unwrap();
    }

    #[test]
    fn self_check_catches_entry_tampering() {
        let mut section = sample();
        section.objects.swap(0, 2);
        let err = section.verify_section("meta.json").unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");

        let mut section = sample();
        section.algo = "md5".to_string();
        assert!(section.verify_section("meta.json").is_err());
    }

    #[test]
    fn serde_roundtrip_preserves_the_section() {
        let mut section = sample();
        section.meta_crc = 0xDEAD_BEEF;
        let json = serde_json::to_string(&section).unwrap();
        let back: IntegritySection = serde_json::from_str(&json).unwrap();
        assert_eq!(back, section);
        back.verify_section("meta.json").unwrap();
    }
}
