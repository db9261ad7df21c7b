//! LEB128 varints and zigzag transforms — the integer substrate under the
//! store's segment column encodings and the binary [`codec`](crate::codec).
//!
//! Counters in SMART telemetry move slowly day over day, so delta + zigzag
//! + LEB128 packs most feature columns into one or two bytes per row.
//!
//! Decoding is bounds-checked: a truncated or overlong varint yields
//! `None`, which callers turn into a typed corruption error — no reader
//! reads past a buffer or panics on hostile bytes.

/// Maximum encoded width of a u64 varint (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_LEN: usize = 10;

/// Append `v` as an LEB128 varint.
#[inline]
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read one LEB128 varint at `*pos`, advancing it. `None` on truncation or
/// an encoding wider than 64 bits.
#[inline]
pub fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow 64 bits
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Append `v` as an LEB128 varint (up to 19 bytes).
pub fn write_u128(buf: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read one LEB128 varint of up to 128 bits at `*pos`, advancing it.
/// `None` on truncation or an encoding wider than 128 bits.
pub fn read_u128(bytes: &[u8], pos: &mut usize) -> Option<u128> {
    let mut v = 0u128;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift == 126 && b > 3 {
            return None; // would overflow 128 bits
        }
        v |= u128::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 126 {
            return None;
        }
    }
}

/// Zigzag-map a signed delta into an unsigned varint-friendly value.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// [`zigzag`] over the full `i128` range.
pub fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag128`].
pub fn unzigzag128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &cases {
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None, "cut at {cut}");
        }
        // 10 continuation bytes followed by a large final byte: > 64 bits.
        let overlong = [0xFFu8; 9]
            .iter()
            .copied()
            .chain([0x7F])
            .collect::<Vec<_>>();
        let mut pos = 0;
        assert_eq!(read_u64(&overlong, &mut pos), None);
    }

    #[test]
    fn wide_varints_round_trip_and_reject_overflow() {
        let cases = [
            0u128,
            127,
            128,
            u128::from(u64::MAX),
            u128::MAX - 1,
            u128::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            write_u128(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &cases {
            assert_eq!(read_u128(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        let mut max = Vec::new();
        write_u128(&mut max, u128::MAX);
        assert_eq!(max.len(), 19);
        for cut in 0..max.len() {
            assert_eq!(read_u128(&max[..cut], &mut 0), None, "cut at {cut}");
        }
        // 18 continuation bytes then a final byte carrying bits past 128.
        let mut overlong = vec![0xFFu8; 18];
        overlong.push(0x04);
        assert_eq!(read_u128(&overlong, &mut 0), None);
        for v in [0i128, -1, 1, i128::MIN, i128::MAX, i128::from(u64::MAX)] {
            assert_eq!(unzigzag128(zigzag128(v)), v);
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes (that is the point).
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
