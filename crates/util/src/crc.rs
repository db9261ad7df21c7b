//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), slice-by-8.
//!
//! Hand-rolled because the workspace is hermetic (no registry access); the
//! eight tables are built at compile time and the hot loop folds 8 bytes
//! per iteration (~4–6x over the classic one-lookup-per-byte form, which
//! matters because every segment replay checksums its whole body).
//! Store segments checksum their body and footer separately
//! (`orfpred_store::segment`); serving checkpoints checksum their whole
//! image (`orfpred_serve::checkpoint`).

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // Table k advances the CRC by k extra zero bytes: t[k][b] is the CRC
    // contribution of byte b seen k positions earlier in an 8-byte chunk.
    let mut i = 0;
    while i < 256 {
        let mut crc = t[0][i];
        let mut k = 1;
        while k < 8 {
            crc = (crc >> 8) ^ t[0][(crc & 0xFF) as usize];
            t[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    t
}

static T: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `bytes` (init `!0`, final xor `!0` — matches zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"orfpred segment body");
        let mut tampered = b"orfpred segment body".to_vec();
        for byte in 0..tampered.len() {
            for bit in 0..8 {
                tampered[byte] ^= 1 << bit;
                assert_ne!(crc32(&tampered), base);
                tampered[byte] ^= 1 << bit;
            }
        }
    }
}
