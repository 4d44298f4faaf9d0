//! Structured corruption errors.
//!
//! Every detection path in this crate surfaces a [`CorruptionError`]
//! wrapped in a `std::io::Error` of kind `InvalidData`, so callers on the
//! hot path can either propagate it like any other I/O failure or
//! downcast with [`CorruptionError::from_io`] to branch on the details
//! (e.g. the CLI printing which object rotted and how).

use std::fmt;
use std::io;

/// What exactly disagreed with the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Object bytes hash to a different CRC32 than the manifest records.
    ChecksumMismatch {
        /// CRC32 recorded in the manifest.
        expected: u32,
        /// CRC32 of the bytes actually read.
        actual: u32,
    },
    /// Object exists but its length differs from the manifest (truncation
    /// or a torn write that the atomic-rename protocol should prevent).
    LengthMismatch {
        /// Length in bytes recorded in the manifest.
        expected: u64,
        /// Length reported by storage.
        actual: u64,
    },
    /// Object listed in the manifest does not exist at all.
    Missing,
    /// The manifest itself failed its self-check (meta CRC, algorithm or
    /// entry order).
    ManifestCorrupt {
        /// Human-readable description of the self-check failure.
        reason: String,
    },
}

impl CorruptionKind {
    /// Short stable label for reports (`checksum`, `length`, `missing`,
    /// `manifest`).
    pub fn label(&self) -> &'static str {
        match self {
            CorruptionKind::ChecksumMismatch { .. } => "checksum",
            CorruptionKind::LengthMismatch { .. } => "length",
            CorruptionKind::Missing => "missing",
            CorruptionKind::ManifestCorrupt { .. } => "manifest",
        }
    }
}

/// A detected integrity violation on one grid object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionError {
    /// Full storage key of the offending object.
    pub key: String,
    /// What disagreed.
    pub kind: CorruptionKind,
}

impl CorruptionError {
    /// Builds a checksum-mismatch error.
    pub fn checksum(key: impl Into<String>, expected: u32, actual: u32) -> Self {
        CorruptionError {
            key: key.into(),
            kind: CorruptionKind::ChecksumMismatch { expected, actual },
        }
    }

    /// Builds a length-mismatch error.
    pub fn length(key: impl Into<String>, expected: u64, actual: u64) -> Self {
        CorruptionError {
            key: key.into(),
            kind: CorruptionKind::LengthMismatch { expected, actual },
        }
    }

    /// Builds a missing-object error.
    pub fn missing(key: impl Into<String>) -> Self {
        CorruptionError {
            key: key.into(),
            kind: CorruptionKind::Missing,
        }
    }

    /// Builds a manifest self-check error.
    pub fn manifest(key: impl Into<String>, reason: impl Into<String>) -> Self {
        CorruptionError {
            key: key.into(),
            kind: CorruptionKind::ManifestCorrupt {
                reason: reason.into(),
            },
        }
    }

    /// Wraps the error in a `std::io::Error` (`InvalidData`), the shape
    /// every storage-facing API in the workspace returns.
    pub fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }

    /// Downcasts an `io::Error` back to the corruption details, if it
    /// carries any.
    pub fn from_io(err: &io::Error) -> Option<&CorruptionError> {
        err.get_ref()?.downcast_ref()
    }

    /// True when `err` wraps a [`CorruptionError`].
    pub fn is_corruption(err: &io::Error) -> bool {
        Self::from_io(err).is_some()
    }
}

impl fmt::Display for CorruptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CorruptionKind::ChecksumMismatch { expected, actual } => write!(
                f,
                "corrupt grid object {:?}: crc32 mismatch (manifest {expected:#010x}, read {actual:#010x})",
                self.key
            ),
            CorruptionKind::LengthMismatch { expected, actual } => write!(
                f,
                "corrupt grid object {:?}: length mismatch (manifest {expected} bytes, storage {actual})",
                self.key
            ),
            CorruptionKind::Missing => {
                write!(f, "corrupt grid: object {:?} listed in manifest is missing", self.key)
            }
            CorruptionKind::ManifestCorrupt { reason } => {
                write!(f, "corrupt grid manifest {:?}: {reason}", self.key)
            }
        }
    }
}

impl std::error::Error for CorruptionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_io_error() {
        let err = CorruptionError::checksum("blocks/b_0_0.edges", 1, 2).into_io();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(CorruptionError::is_corruption(&err));
        let back = CorruptionError::from_io(&err).unwrap();
        assert_eq!(back.key, "blocks/b_0_0.edges");
        assert_eq!(
            back.kind,
            CorruptionKind::ChecksumMismatch {
                expected: 1,
                actual: 2
            }
        );
    }

    #[test]
    fn plain_io_errors_are_not_corruption() {
        let err = io::Error::new(io::ErrorKind::InvalidData, "just invalid");
        assert!(!CorruptionError::is_corruption(&err));
        let err = io::Error::from(io::ErrorKind::NotFound);
        assert!(!CorruptionError::is_corruption(&err));
    }

    #[test]
    fn display_names_the_object() {
        let err = CorruptionError::length("degrees.bin", 800, 796);
        let text = err.to_string();
        assert!(text.contains("degrees.bin"), "{text}");
        assert!(text.contains("800"), "{text}");
        assert!(text.contains("796"), "{text}");
        let err = CorruptionError::missing("blocks/r_1.ridx");
        assert!(err.to_string().contains("missing"));
        let err = CorruptionError::manifest("meta.json", "meta self-check crc mismatch");
        assert!(err.to_string().contains("meta self-check crc mismatch"));
    }
}
