//! Binary image of the serde shim's [`Value`] model.
//!
//! [`Encoder`] is a [`Sink`]: a type's [`Serialize::emit`] streams straight
//! into bytes, and no `Value` tree is built on the way. [`decode`] reads
//! the bytes back into a `Value`, so the `Deserialize` impl that reads JSON
//! reads this encoding too, and no type needs decode code of its own.
//!
//! Every value is a tag byte followed by its payload:
//!
//! | tag | value  | payload                                                  |
//! |-----|--------|----------------------------------------------------------|
//! | 0   | null   | none                                                     |
//! | 1   | false  | none                                                     |
//! | 2   | true   | none                                                     |
//! | 3   | int    | zigzag LEB128 of the `i128`                              |
//! | 4   | float  | 8 bytes, little-endian `f64` bits (finite only)          |
//! | 5   | string | LEB128 byte length, then the UTF-8 bytes                 |
//! | 6   | array  | LEB128 element count, then the elements                  |
//! | 7   | object | LEB128 field count, then a key and a value per field     |
//! | 8   | float  | integral, \|v\| ≤ 2^53: zigzag LEB128 of the integer      |
//! | 9   | float  | exactly an `f32`: 4 bytes, little-endian `f32` bits      |
//!
//! Tags 8 and 9 are shorter spellings of tag 4 that decode to the same
//! `f64` bit for bit: most floats in a forest are class counts (integral)
//! or values that came from `f32` features, and raw `f64` bits would make
//! those larger than their JSON text. `-0.0` always takes tag 4. A
//! non-finite float is written as null, exactly as the JSON renderer
//! does. A key is an LEB128 reference `r`: `r = 0` introduces a literal
//! key (LEB128 length + UTF-8 bytes), which joins the key table if it is
//! at most [`MAX_TABLE_KEY`] bytes long; `r >= 1` repeats table entry
//! `r - 1`. Tables are first-seen order, so struct field names cost their
//! bytes once per image and about one byte after that.
//!
//! [`decode`] trusts nothing: every length is checked against the bytes
//! left before anything is allocated for it, nesting is capped at
//! [`MAX_DEPTH`], and every defect is a [`DecodeError`], never a panic.

use crate::varint::{
    read_u128, read_u64, unzigzag, unzigzag128, write_u128, write_u64, zigzag, zigzag128,
};
use serde::{Serialize, Sink, Value};
use std::collections::HashMap;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const INT: u8 = 3;
const FLOAT: u8 = 4;
const STR: u8 = 5;
const ARR: u8 = 6;
const OBJ: u8 = 7;
const FLOAT_INT: u8 = 8;
const FLOAT_F32: u8 = 9;

/// Integral floats up to this magnitude convert to `i64` and back exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Deepest array/object nesting [`decode`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Longest key (in bytes) that enters the key table. Longer keys are
/// written in full at every use, so one reference byte never expands to
/// more than this many key bytes when decoded.
pub const MAX_TABLE_KEY: usize = 256;

/// Most elements [`decode`] reserves room for before it has read them.
const MAX_PREALLOC: usize = 1024;

/// A [`Sink`] writing the binary encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    out: Vec<u8>,
    keys: HashMap<String, u64>,
}

impl Encoder {
    /// An encoder appending to `out` (which may already hold a header).
    pub fn new(out: Vec<u8>) -> Self {
        Self {
            out,
            keys: HashMap::new(),
        }
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

impl Sink for Encoder {
    fn null(&mut self) {
        self.out.push(NULL);
    }

    fn bool(&mut self, b: bool) {
        self.out.push(if b { TRUE } else { FALSE });
    }

    fn int(&mut self, i: i128) {
        self.out.push(INT);
        write_u128(&mut self.out, zigzag128(i));
    }

    fn float(&mut self, f: f64) {
        if !f.is_finite() {
            self.out.push(NULL);
        } else if f.fract() == 0.0
            && f.abs() <= MAX_EXACT_INT
            && !(f == 0.0 && f.is_sign_negative())
        {
            self.out.push(FLOAT_INT);
            write_u64(&mut self.out, zigzag(f as i64));
        } else if f64::from(f as f32) == f {
            self.out.push(FLOAT_F32);
            self.out.extend_from_slice(&(f as f32).to_le_bytes());
        } else {
            self.out.push(FLOAT);
            self.out.extend_from_slice(&f.to_le_bytes());
        }
    }

    fn str(&mut self, s: &str) {
        self.out.push(STR);
        write_u64(&mut self.out, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }

    fn arr(&mut self, n: usize) {
        self.out.push(ARR);
        write_u64(&mut self.out, n as u64);
    }

    fn obj(&mut self, n: usize) {
        self.out.push(OBJ);
        write_u64(&mut self.out, n as u64);
    }

    fn key(&mut self, k: &str) {
        if let Some(&r) = self.keys.get(k) {
            write_u64(&mut self.out, r);
            return;
        }
        if k.len() <= MAX_TABLE_KEY {
            let r = self.keys.len() as u64 + 1;
            self.keys.insert(k.to_owned(), r);
        }
        self.out.push(0);
        write_u64(&mut self.out, k.len() as u64);
        self.out.extend_from_slice(k.as_bytes());
    }
}

/// Encode `value` on its own.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::default();
    value.emit(&mut enc);
    enc.finish()
}

/// Why bytes did not decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset where decoding stopped.
    pub offset: usize,
    /// What was wrong there.
    pub detail: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.detail, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// Decode one value that spans all of `bytes`.
pub fn decode(bytes: &[u8]) -> Result<Value, DecodeError> {
    let mut d = Decoder {
        bytes,
        pos: 0,
        keys: Vec::new(),
    };
    let v = d.value(0)?;
    if d.pos != bytes.len() {
        return Err(d.err("trailing bytes after the value"));
    }
    Ok(v)
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    keys: Vec<String>,
}

impl<'a> Decoder<'a> {
    fn err(&self, detail: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn left(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.saturating_add(n);
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
        let at = self.pos;
        read_u64(self.bytes, &mut self.pos).ok_or(DecodeError {
            offset: at,
            detail: "truncated or overlong varint".into(),
        })
    }

    /// A length prefix for items of at least `min_bytes` each: a count the
    /// remaining input could not hold is rejected before any allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        let most = self.left() / min_bytes;
        match usize::try_from(n) {
            Ok(n) if n <= most => Ok(n),
            _ => Err(self.err(format!(
                "length {n} exceeds what the {} bytes left can hold",
                self.left()
            ))),
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.count(1)?;
        let at = self.pos;
        let raw = self.take(n)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(DecodeError {
                offset: at,
                detail: "string is not UTF-8".into(),
            }),
        }
    }

    fn key(&mut self) -> Result<String, DecodeError> {
        let r = self.varint()?;
        if r == 0 {
            let k = self.string()?;
            if k.len() <= MAX_TABLE_KEY {
                self.keys.push(k.clone());
            }
            return Ok(k);
        }
        usize::try_from(r - 1)
            .ok()
            .and_then(|i| self.keys.get(i))
            .cloned()
            .ok_or_else(|| {
                self.err(format!(
                    "key reference {r} past the {}-entry key table",
                    self.keys.len()
                ))
            })
    }

    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
        let at = self.pos;
        let tag = *self
            .bytes
            .get(at)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        if (tag == ARR || tag == OBJ) && depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        Ok(match tag {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            INT => {
                let u = read_u128(self.bytes, &mut self.pos).ok_or(DecodeError {
                    offset: at + 1,
                    detail: "truncated or overlong integer".into(),
                })?;
                Value::Int(unzigzag128(u))
            }
            FLOAT | FLOAT_F32 => {
                let f = if tag == FLOAT {
                    let raw = self.take(8)?;
                    let bits = <[u8; 8]>::try_from(raw).map_err(|_| self.err("short float"))?;
                    f64::from_le_bytes(bits)
                } else {
                    let raw = self.take(4)?;
                    let bits = <[u8; 4]>::try_from(raw).map_err(|_| self.err("short float"))?;
                    f64::from(f32::from_le_bytes(bits))
                };
                if !f.is_finite() {
                    return Err(DecodeError {
                        offset: at,
                        detail: "non-finite float (the encoder writes those as null)".into(),
                    });
                }
                Value::Float(f)
            }
            FLOAT_INT => {
                let f = unzigzag(self.varint()?) as f64;
                if f.abs() > MAX_EXACT_INT {
                    return Err(DecodeError {
                        offset: at,
                        detail: "integral float beyond 2^53".into(),
                    });
                }
                Value::Float(f)
            }
            STR => Value::Str(self.string()?),
            ARR => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Arr(items)
            }
            OBJ => {
                // A field is at least a one-byte key reference and a tag.
                let n = self.count(2)?;
                let mut fields = Vec::with_capacity(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    let k = self.key()?;
                    fields.push((k, self.value(depth + 1)?));
                }
                Value::Obj(fields)
            }
            t => {
                return Err(DecodeError {
                    offset: at,
                    detail: format!("unknown tag {t}"),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    fn round_trip<T: Serialize + ?Sized>(x: &T) {
        let bytes = encode(x);
        assert_eq!(decode(&bytes).unwrap(), x.ser());
    }

    #[test]
    fn edge_values_round_trip_to_the_value_tree() {
        round_trip(&u64::MAX);
        round_trip(&i64::MIN);
        round_trip(&Value::Int(i128::MAX));
        round_trip(&Value::Int(i128::MIN));
        round_trip(&[
            0.0f64,
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::MAX,
            -1.5,
        ]);
        round_trip(&[f32::MIN_POSITIVE / 4.0, f32::MAX, -0.0f32, 0.1, 3.0]);
        round_trip(&[
            MAX_EXACT_INT,
            -MAX_EXACT_INT,
            MAX_EXACT_INT * 2.0,
            1e300,
            0.1,
        ]);
        round_trip(&Vec::<u8>::new());
        round_trip(&Value::Obj(Vec::new()));
        round_trip(&Value::Arr(vec![
            Value::Arr(Vec::new()),
            Value::Obj(Vec::new()),
        ]));
        round_trip(&"日本語 é 😀 \u{0} \"quoted\"".to_string());
        round_trip(&(true, false, 'x', Option::<u8>::None));
        let mut m = HashMap::new();
        for k in [30u32, 2, 100, 7] {
            m.insert(k, vec![f64::from(k); 2]);
        }
        round_trip(&m);
        let b: BTreeMap<String, i32> = [("é".to_string(), -1), ("a".to_string(), 2)].into();
        round_trip(&b);
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let Value::Float(f) = decode(&encode(&-0.0f64)).unwrap() else {
            panic!("a float");
        };
        assert_eq!(f.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_float_spelling_keeps_the_exact_bits() {
        for f in [
            0.0,
            -0.0,
            1.0,
            -7.0,
            0.5,
            0.1,
            1.0 / 3.0,
            MAX_EXACT_INT,
            2e16,
            5e-324,
        ] {
            let Value::Float(g) = decode(&encode(&f)).unwrap() else {
                panic!("{f} decodes as a float");
            };
            assert_eq!(g.to_bits(), f.to_bits(), "{f}");
        }
        // Counts take a tag and one byte; f32-exact values five bytes.
        assert_eq!(encode(&12.0f64), [FLOAT_INT, 24]);
        assert_eq!(encode(&0.1f32).len(), 5);
        assert_eq!(encode(&0.1f64).len(), 9);
    }

    #[test]
    fn non_finite_floats_become_null_as_in_json() {
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(decode(&encode(&f)).unwrap(), Value::Null);
            // Even when a tree carries one directly.
            assert_eq!(decode(&encode(&Value::Float(f))).unwrap(), Value::Null);
        }
    }

    #[test]
    fn repeated_keys_are_table_references() {
        let rows: Vec<BTreeMap<String, u8>> = (0..50)
            .map(|i| [("a_long_field_name".to_string(), i)].into())
            .collect();
        let bytes = encode(&rows);
        let name_bytes = bytes
            .windows("a_long_field_name".len())
            .filter(|w| *w == b"a_long_field_name")
            .count();
        assert_eq!(name_bytes, 1, "the key is spelled out once");
        round_trip(&rows);
        // Keys too long for the table are spelled out at every use.
        let long = "k".repeat(MAX_TABLE_KEY + 1);
        let rows: Vec<BTreeMap<String, u8>> = (0..3).map(|i| [(long.clone(), i)].into()).collect();
        round_trip(&rows);
    }

    #[test]
    fn forged_lengths_are_rejected_before_allocating() {
        let mut bytes = vec![ARR];
        write_u64(&mut bytes, 1 << 40);
        bytes.push(NULL);
        let err = decode(&bytes).unwrap_err();
        assert!(err.detail.contains("exceeds"), "{err}");
        let mut bytes = vec![STR];
        write_u64(&mut bytes, u64::MAX);
        assert!(decode(&bytes).is_err());
        let mut bytes = vec![OBJ];
        write_u64(&mut bytes, 3);
        bytes.extend([7, NULL]);
        assert!(decode(&bytes).unwrap_err().detail.contains("exceeds"));
    }

    #[test]
    fn nesting_is_bounded() {
        let mut ok = [ARR, 1].repeat(MAX_DEPTH);
        ok.push(NULL);
        assert!(decode(&ok).is_ok());
        let mut deep = [ARR, 1].repeat(MAX_DEPTH + 1);
        deep.push(NULL);
        assert!(decode(&deep).unwrap_err().detail.contains("nesting"));
        let bomb = [ARR, 1].repeat(100_000);
        assert!(decode(&bomb).is_err());
    }

    #[test]
    fn malformed_bytes_are_typed_errors() {
        let good = encode(&(vec![1.5f64, 2.0], "s".to_string(), Some(u64::MAX)));
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let mut trailing = good.clone();
        trailing.push(NULL);
        assert!(decode(&trailing).is_err());
        assert!(decode(&[10]).unwrap_err().detail.contains("unknown tag"));
        assert!(decode(&[STR, 2, 0xC3, 0x28]).is_err(), "invalid UTF-8");
        assert!(decode(&[OBJ, 1, 5, NULL])
            .unwrap_err()
            .detail
            .contains("key"));
        let mut nan = vec![FLOAT];
        nan.extend(f64::NAN.to_le_bytes());
        assert!(decode(&nan).is_err());
        let mut inf32 = vec![FLOAT_F32];
        inf32.extend(f32::INFINITY.to_le_bytes());
        assert!(decode(&inf32).is_err());
        let mut huge = vec![FLOAT_INT];
        write_u64(&mut huge, zigzag(i64::MAX));
        assert!(decode(&huge).is_err());
        // Every single-byte value, every single-bit flip: an error or a
        // value, never a panic.
        for b in 0..=255u8 {
            let _ = decode(&[b]);
        }
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[i] ^= 1 << bit;
                let _ = decode(&flipped);
            }
        }
    }
}
