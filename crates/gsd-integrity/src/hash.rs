//! Checksums and fingerprints shared by the grid manifest and the
//! checkpoint format.
//!
//! Hand-rolled on purpose: the build environment is offline. CRC32 (IEEE
//! 802.3, the zlib polynomial) guards grid objects and snapshot sections
//! against torn or bit-rotted reads, so it runs over every byte written
//! and every byte verified. It is slice-by-8 over tables computed at
//! compile time, run in three interleaved lanes: each 1536-byte stripe is
//! three 512-byte lanes whose CRCs are independent dependency chains the
//! CPU overlaps, and the three are folded into one by a compile-time
//! shift table (the state 512 zero bytes turn a lane's CRC into). A tail
//! shorter than a stripe runs one lane. FNV-1a/64 fingerprints small
//! identity blobs (graph metadata, config strings) and drives
//! deterministic per-key sampling; it is a handful of lines.
//!
//! They live in this crate so the grid format can depend on them without
//! pulling in the checkpoint machinery.

/// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes; `CRC_TABLES[0]` is the classic byte-at-a-time table.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Bytes per lane; a stripe is three lanes.
const LANE: usize = 512;

/// `SHIFT_LANE[k][b]` is the CRC state `b << 8k` becomes after [`LANE`]
/// zero bytes. The CRC update is linear, so a state's shift is the XOR
/// of its four bytes' entries.
static SHIFT_LANE: [[u32; 256]; 4] = shift_tables(LANE);

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

const fn shift_tables(zeros: usize) -> [[u32; 256]; 4] {
    let byte_table = crc_tables()[0];
    // What each single-bit state becomes after `zeros` zero bytes.
    let mut bits = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < zeros {
            crc = (crc >> 8) ^ byte_table[(crc & 0xFF) as usize];
            n += 1;
        }
        bits[bit] = crc;
        bit += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut m = 0;
            while m < 8 {
                if b & (1 << m) != 0 {
                    tables[k][b] ^= bits[8 * k + m];
                }
                m += 1;
            }
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Eight bytes of slice-by-8 from state `crc`; `w` holds at least eight.
#[inline(always)]
fn step8(crc: u32, w: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The state `crc` becomes after [`LANE`] zero bytes.
#[inline]
fn shift_lane(crc: u32) -> u32 {
    let s = &SHIFT_LANE;
    s[0][(crc & 0xFF) as usize]
        ^ s[1][((crc >> 8) & 0xFF) as usize]
        ^ s[2][((crc >> 16) & 0xFF) as usize]
        ^ s[3][(crc >> 24) as usize]
}

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) of `data`.
/// Matches zlib's `crc32(0, data)`, so grids and snapshots remain
/// checkable by external tooling.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut stripes = data.chunks_exact(3 * LANE);
    for stripe in &mut stripes {
        let (a, rest) = stripe.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        // Lane `a` continues from the running state; `b` and `c` start
        // from zero, and the update's linearity lets their CRCs be
        // shifted past the lanes after them and XORed in.
        let (mut ca, mut cb, mut cc) = (crc, 0u32, 0u32);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ca = step8(ca, wa);
            cb = step8(cb, wb);
            cc = step8(cc, wc);
        }
        crc = shift_lane(shift_lane(ca) ^ cb) ^ cc;
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        crc = step8(crc, w);
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
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

    /// Every length up to two stripes and a tail, at every start offset
    /// within a word, against a bitwise byte-at-a-time reference: every
    /// lane, stride and stripe boundary, aligned or not.
    #[test]
    fn crc32_matches_a_byte_at_a_time_reference() {
        // The reference's state after one more byte.
        let update = |mut crc: u32, byte: u8| {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
            crc
        };
        assert_eq!(
            !b"123456789".iter().fold(!0, |crc, &b| update(crc, b)),
            0xCBF4_3926
        );
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let max_len = 2 * 3 * LANE + 17;
        let mut x = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..max_len + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for offset in 0..8 {
            // The reference runs once per offset; its state after `len`
            // bytes is the CRC of the first `len`.
            let mut state = !0u32;
            for len in 0..=max_len {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), !state, "offset {offset} length {len}");
                state = update(state, data[offset + len]);
            }
        }
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
