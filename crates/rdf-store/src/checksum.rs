//! CRC-32 (IEEE 802.3 polynomial), slice-by-8 table-driven.
//!
//! Every section payload of a `.rdfb` container is checksummed so that
//! bit rot or a partial write is detected at load time instead of
//! surfacing as a silently wrong graph. CRC-32 is implemented locally
//! because the offline dependency set carries no `crc` crate.
//!
//! The slice-by-8 scheme folds eight input bytes per step through eight
//! derived tables instead of one byte through one table; the values are
//! those of the plain bytewise algorithm, bit for bit.

/// Reflected polynomial of CRC-32/ISO-HDLC (zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// bytewise table; `TABLES[k][b]` is the register update for byte `b`
/// followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain bytewise algorithm, one table lookup per byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in data {
            crc = (crc >> 8)
                ^ TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        crc ^ u32::MAX
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Slice-by-8 equals the bytewise reference for every length up
        /// to 257 at every start offset modulo 8 (unaligned slices).
        #[test]
        fn slice_by_8_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 265..=265)
        ) {
            for start in 0..8 {
                for len in 0..=257 {
                    let slice = &data[start..start + len];
                    prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
                }
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
