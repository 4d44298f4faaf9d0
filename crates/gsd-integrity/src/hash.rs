//! Checksums and fingerprints shared by the grid manifest and the
//! checkpoint format.
//!
//! Hand-rolled on purpose: the build environment is offline, and both
//! algorithms are a handful of lines. CRC32 (IEEE 802.3, the zlib
//! polynomial) guards grid objects and snapshot sections against torn or
//! bit-rotted reads; FNV-1a/64 fingerprints small identity blobs (graph
//! metadata, config strings) and drives deterministic per-key sampling.
//!
//! They live in this crate so the grid format can depend on them without
//! pulling in the checkpoint machinery.

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) of `data`.
/// Matches zlib's `crc32(0, data)`, so grids and snapshots remain
/// checkable by external tooling.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash of `data`.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        // Reference values from the FNV-1a specification.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = b"grid block payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
