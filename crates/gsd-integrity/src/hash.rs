//! Checksums and fingerprints shared by the grid manifest and the
//! checkpoint format.
//!
//! Hand-rolled on purpose: the build environment is offline. CRC32 (IEEE
//! 802.3, the zlib polynomial) guards grid objects and snapshot sections
//! against torn or bit-rotted reads, so it runs over every byte written
//! and every byte verified: it is slice-by-8 over tables computed at
//! compile time, eight bytes per step. FNV-1a/64 fingerprints small
//! identity blobs (graph metadata, config strings) and drives
//! deterministic per-key sampling; it is a handful of lines.
//!
//! They live in this crate so the grid format can depend on them without
//! pulling in the checkpoint machinery.

/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes; `CRC_TABLES[0]` is the classic byte-at-a-time table.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) of `data`.
/// Matches zlib's `crc32(0, data)`, so grids and snapshots remain
/// checkable by external tooling.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
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
