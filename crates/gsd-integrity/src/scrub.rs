//! Offline whole-grid verification (the storage-level half of
//! `gsd scrub`).
//!
//! Scrubbing walks the manifest and checks every covered object's length
//! and CRC32, producing a per-object report. It is read-only; *repair*
//! (re-deriving corrupt objects from the source edge list) lives in
//! `gsd-graph`, which owns the grid format and can rebuild payloads.

use crate::error::CorruptionKind;
use crate::manifest::IntegritySection;
use gsd_io::Storage;

/// Scrub result for one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectReport {
    /// Prefix-relative key.
    pub key: String,
    /// Length recorded in the manifest.
    pub len: u64,
    /// What disagreed with the manifest; `None` for a clean object.
    pub status: Option<CorruptionKind>,
}

/// Scrub result for a whole grid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// One report per manifest entry, in manifest (key) order.
    pub objects: Vec<ObjectReport>,
}

impl ScrubReport {
    /// True when every object matched.
    pub fn is_clean(&self) -> bool {
        self.objects.iter().all(|o| o.status.is_none())
    }

    /// The reports of objects that did not match.
    pub fn corrupt(&self) -> impl Iterator<Item = &ObjectReport> {
        self.objects.iter().filter(|o| o.status.is_some())
    }

    /// `(ok, corrupt)` counts.
    pub fn counts(&self) -> (usize, usize) {
        let ok = self.objects.iter().filter(|o| o.status.is_none()).count();
        (ok, self.objects.len() - ok)
    }

    /// Total bytes of the objects that checked clean.
    pub fn bytes_checked(&self) -> u64 {
        self.objects
            .iter()
            .filter(|o| o.status.is_none())
            .map(|o| o.len)
            .sum()
    }
}

/// Checks every manifest-covered object of the grid at `prefix`. Reads
/// are unaccounted: a scrub is an offline maintenance pass, not workload
/// I/O. The manifest itself is assumed already self-checked (the format
/// layer does that when it parses `meta.json`).
pub fn scrub_objects(
    storage: &dyn Storage,
    prefix: &str,
    section: &IntegritySection,
) -> ScrubReport {
    let objects = section
        .objects
        .iter()
        .map(|entry| ObjectReport {
            key: entry.key.clone(),
            len: entry.len,
            status: entry
                .check_stored(storage, &format!("{prefix}{}", entry.key))
                .err()
                .map(|e| e.kind),
        })
        .collect();
    ScrubReport { objects }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ObjectEntry;
    use gsd_io::MemStorage;

    fn setup() -> (MemStorage, IntegritySection) {
        let storage = MemStorage::new();
        let payloads: Vec<(&str, Vec<u8>)> = vec![
            ("blocks/b_0_0.edges", (0u8..50).collect()),
            ("blocks/r_0.ridx", vec![3u8; 12]),
            ("degrees.bin", vec![1u8; 32]),
        ];
        let mut entries = Vec::new();
        for (rel, payload) in &payloads {
            storage.create(&format!("g/{rel}"), payload).unwrap();
            entries.push(ObjectEntry::of(rel.to_string(), payload));
        }
        (storage, IntegritySection::new(entries))
    }

    #[test]
    fn clean_grid_scrubs_clean() {
        let (storage, section) = setup();
        let report = scrub_objects(&storage, "g/", &section);
        assert!(report.is_clean());
        assert_eq!(report.counts(), (3, 0));
        assert_eq!(report.bytes_checked(), 50 + 12 + 32);
    }

    #[test]
    fn each_corruption_class_is_reported() {
        let (storage, section) = setup();
        storage
            .write_at("g/blocks/b_0_0.edges", 10, &[0xFF])
            .unwrap();
        storage.create("g/degrees.bin", &[1u8; 30]).unwrap();
        storage.delete("g/blocks/r_0.ridx").unwrap();
        let report = scrub_objects(&storage, "g/", &section);
        assert!(!report.is_clean());
        assert_eq!(report.counts(), (0, 3));
        let by_key = |k: &str| {
            report
                .objects
                .iter()
                .find(|o| o.key == k)
                .unwrap()
                .status
                .clone()
        };
        assert!(matches!(
            by_key("blocks/b_0_0.edges"),
            Some(CorruptionKind::ChecksumMismatch { .. })
        ));
        assert_eq!(
            by_key("degrees.bin"),
            Some(CorruptionKind::LengthMismatch {
                expected: 32,
                actual: 30
            })
        );
        assert_eq!(by_key("blocks/r_0.ridx"), Some(CorruptionKind::Missing));
    }

    #[test]
    fn scrub_reads_are_unaccounted() {
        let (storage, section) = setup();
        let before = storage.stats().snapshot();
        scrub_objects(&storage, "g/", &section);
        assert_eq!(storage.stats().snapshot(), before);
    }
}
