//! Offline stand-in for the `serde` crate.
//!
//! The workspace builds hermetically (no crates.io), so this facade
//! replaces serde with the smallest data model that covers the repo's
//! needs: types convert to and from a JSON-shaped [`Value`] tree, and the
//! companion `serde_json` crate renders/parses that tree as JSON text.
//!
//! Differences from real serde that matter here:
//!
//! * [`Serialize::emit`] streams a type as [`Sink`] events in the shape of
//!   the `Value` model (no `Serializer`/visitor machinery): a binary
//!   encoder consumes them without building a tree, and
//!   [`Serialize::ser`] collects them into a `Value` for the JSON renderer;
//!   [`Deserialize::de`] reads a `Value` tree back;
//! * arrays of **any** length serialize (const generics), so no
//!   `serde(with = ...)` adapters are needed;
//! * maps serialize **sorted by key**, which makes every serialization in
//!   the workspace byte-deterministic — the serving checkpoint tests rely
//!   on this;
//! * a missing object field deserializes as [`Value::Null`], so `Option`
//!   fields added to a format are backward compatible with old files;
//! * non-finite floats serialize as `null` and come back as `NaN`
//!   (matching serde_json's lossy default).

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap, VecDeque};

/// JSON-shaped serialization tree.
///
/// Integers and floats are kept apart so `u64` RNG state round-trips
/// exactly; objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Integers (wide enough for `u64` exactly).
    Int(i128),
    /// Finite floating-point numbers.
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Arr(Vec<Value>),
    /// Objects as ordered key–value pairs.
    Obj(Vec<(String, Value)>),
}

/// Serialization / deserialization error: a plain message chain.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Construct an error from any displayable message.
    pub fn msg(m: impl std::fmt::Display) -> Self {
        Self { msg: m.to_string() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Receiver of serialization events in the shape of the [`Value`] model.
///
/// Containers announce their length up front: `arr(n)` is followed by
/// exactly `n` values, and `obj(n)` by exactly `n` `key` + value pairs.
/// Nothing marks a container's end, so a sink never needs lookahead.
pub trait Sink {
    /// A `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// An integer.
    fn int(&mut self, i: i128);
    /// A float (finite when it comes from the `f64`/`f32` impls).
    fn float(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Start of an array of `n` values.
    fn arr(&mut self, n: usize);
    /// Start of an object of `n` fields.
    fn obj(&mut self, n: usize);
    /// The name of the next object field; its value follows.
    fn key(&mut self, k: &str);
}

/// Types that can stream themselves as [`Sink`] events.
pub trait Serialize {
    /// Emit this value's events into `sink`.
    fn emit(&self, sink: &mut dyn Sink);

    /// Build the value tree the events describe.
    fn ser(&self) -> Value {
        let mut b = ValueBuilder::default();
        self.emit(&mut b);
        b.finish()
    }
}

/// A [`Sink`] that assembles the events into a [`Value`] tree.
#[derive(Debug, Default)]
struct ValueBuilder {
    /// Containers still waiting for elements, innermost last.
    open: Vec<Open>,
    root: Option<Value>,
}

#[derive(Debug)]
enum Open {
    Arr(Vec<Value>, usize),
    Obj(Vec<(String, Value)>, usize, String),
}

impl ValueBuilder {
    /// The finished tree (`Null` if no value was emitted).
    fn finish(self) -> Value {
        debug_assert!(self.open.is_empty(), "unfinished container");
        self.root.unwrap_or(Value::Null)
    }

    /// Place a complete value, closing every container it completes.
    fn put(&mut self, mut v: Value) {
        loop {
            match self.open.last_mut() {
                None => {
                    self.root = Some(v);
                    return;
                }
                Some(Open::Arr(items, n)) => {
                    items.push(v);
                    if items.len() < *n {
                        return;
                    }
                }
                Some(Open::Obj(fields, n, key)) => {
                    fields.push((std::mem::take(key), v));
                    if fields.len() < *n {
                        return;
                    }
                }
            }
            v = match self.open.pop() {
                Some(Open::Arr(items, _)) => Value::Arr(items),
                Some(Open::Obj(fields, _, _)) => Value::Obj(fields),
                None => return,
            };
        }
    }
}

impl Sink for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn int(&mut self, i: i128) {
        self.put(Value::Int(i));
    }
    fn float(&mut self, f: f64) {
        self.put(Value::Float(f));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_owned()));
    }
    fn arr(&mut self, n: usize) {
        if n == 0 {
            self.put(Value::Arr(Vec::new()));
        } else {
            self.open.push(Open::Arr(Vec::with_capacity(n), n));
        }
    }
    fn obj(&mut self, n: usize) {
        if n == 0 {
            self.put(Value::Obj(Vec::new()));
        } else {
            self.open
                .push(Open::Obj(Vec::with_capacity(n), n, String::new()));
        }
    }
    fn key(&mut self, k: &str) {
        if let Some(Open::Obj(_, _, key)) = self.open.last_mut() {
            *key = k.to_owned();
        }
    }
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parse the value tree.
    fn de(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- helpers

/// Look up `name` in an object and deserialize it; a missing field is
/// handed to `T` as `Null` (which `Option` maps to `None` — the versioned
/// format escape hatch), and only reported missing if `T` rejects `Null`.
pub fn get_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    let Value::Obj(fields) = v else {
        return Err(Error::msg(format!("expected object with field `{name}`")));
    };
    match fields.iter().find(|(k, _)| k == name) {
        Some((_, fv)) => T::de(fv).map_err(|e| Error::msg(format!("field `{name}`: {e}"))),
        None => T::de(&Value::Null).map_err(|_| Error::msg(format!("missing field `{name}`"))),
    }
}

/// Deserialize element `i` of an array value.
pub fn get_index<T: Deserialize>(v: &Value, i: usize) -> Result<T, Error> {
    let Value::Arr(items) = v else {
        return Err(Error::msg("expected array"));
    };
    let item = items
        .get(i)
        .ok_or_else(|| Error::msg(format!("array too short: no element {i}")))?;
    T::de(item).map_err(|e| Error::msg(format!("element {i}: {e}")))
}

/// Split an externally-tagged enum value into `(variant, payload)`.
pub fn enum_parts(v: &Value) -> Result<(&str, Option<&Value>), Error> {
    match v {
        Value::Str(s) => Ok((s, None)),
        Value::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, Some(&fields[0].1))),
        _ => Err(Error::msg(
            "expected enum (a string or a single-key object)",
        )),
    }
}

// ------------------------------------------------------------ primitives

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn emit(&self, sink: &mut dyn Sink) { sink.int(*self as i128) }
        }
        impl Deserialize for $t {
            fn de(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::msg(format!("{} out of range for {}", i, stringify!($t)))
                    }),
                    _ => Err(Error::msg(concat!("expected integer (", stringify!($t), ")"))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn emit(&self, sink: &mut dyn Sink) {
        if self.is_finite() {
            sink.float(*self)
        } else {
            sink.null()
        }
    }
}

impl Deserialize for f64 {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::Null => Ok(f64::NAN),
            _ => Err(Error::msg("expected number (f64)")),
        }
    }
}

impl Serialize for f32 {
    fn emit(&self, sink: &mut dyn Sink) {
        f64::from(*self).emit(sink)
    }
}

impl Deserialize for f32 {
    fn de(v: &Value) -> Result<Self, Error> {
        // f32 -> f64 -> f32 is exact, so narrowing loses nothing that the
        // serializer could have produced.
        f64::de(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn emit(&self, sink: &mut dyn Sink) {
        sink.bool(*self)
    }
}

impl Deserialize for bool {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected boolean")),
        }
    }
}

impl Serialize for String {
    fn emit(&self, sink: &mut dyn Sink) {
        sink.str(self)
    }
}

impl Serialize for str {
    fn emit(&self, sink: &mut dyn Sink) {
        sink.str(self)
    }
}

impl Deserialize for String {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg("expected string")),
        }
    }
}

impl Serialize for char {
    fn emit(&self, sink: &mut dyn Sink) {
        sink.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::msg("expected single-character string")),
        }
    }
}

impl Serialize for Value {
    fn emit(&self, sink: &mut dyn Sink) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Int(i) => sink.int(*i),
            Value::Float(f) => sink.float(*f),
            Value::Str(s) => sink.str(s),
            Value::Arr(items) => items.emit(sink),
            Value::Obj(fields) => {
                sink.obj(fields.len());
                for (k, v) in fields {
                    sink.key(k);
                    v.emit(sink);
                }
            }
        }
    }
}

impl Deserialize for Value {
    fn de(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ------------------------------------------------------------ containers

impl<T: Serialize> Serialize for Option<T> {
    fn emit(&self, sink: &mut dyn Sink) {
        match self {
            Some(x) => x.emit(sink),
            None => sink.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::de(other).map(Some),
        }
    }
}

/// Emit an array of `items`.
fn emit_seq<'a, T: Serialize + 'a>(
    sink: &mut dyn Sink,
    items: impl ExactSizeIterator<Item = &'a T>,
) {
    sink.arr(items.len());
    for x in items {
        x.emit(sink);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn emit(&self, sink: &mut dyn Sink) {
        emit_seq(sink, self.iter())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn de(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.iter().map(T::de).collect(),
            _ => Err(Error::msg("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn emit(&self, sink: &mut dyn Sink) {
        emit_seq(sink, self.iter())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn de(v: &Value) -> Result<Self, Error> {
        Vec::<T>::de(v).map(VecDeque::from)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn emit(&self, sink: &mut dyn Sink) {
        (**self).emit(sink)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn de(v: &Value) -> Result<Self, Error> {
        T::de(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn emit(&self, sink: &mut dyn Sink) {
        emit_seq(sink, self.iter())
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn de(v: &Value) -> Result<Self, Error> {
        Vec::<T>::de(v).map(Vec::into_boxed_slice)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn emit(&self, sink: &mut dyn Sink) {
        emit_seq(sink, self.iter())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn de(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::de(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected array of length {N}, got {got}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn emit(&self, sink: &mut dyn Sink) {
        (**self).emit(sink)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn emit(&self, sink: &mut dyn Sink) {
                sink.arr([$($i),+].len());
                $(self.$i.emit(sink);)+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn de(v: &Value) -> Result<Self, Error> {
                Ok(($(get_index::<$t>(v, $i)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ------------------------------------------------------------------ maps

/// Key types usable in serialized maps (JSON object keys are strings).
pub trait MapKey: Ord + Sized {
    /// Render the key.
    fn to_key(&self) -> String;
    /// Parse the key back.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_string())
    }
}

macro_rules! impl_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse().map_err(|_| Error::msg(format!("bad integer map key `{s}`")))
            }
        }
    )*};
}

impl_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn emit_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    sink: &mut dyn Sink,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    let mut pairs: Vec<(&K, &V)> = entries.collect();
    // Deterministic output regardless of hash iteration order.
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    sink.obj(pairs.len());
    for (k, v) in pairs {
        sink.key(&k.to_key());
        v.emit(sink);
    }
}

fn de_map_entries<K: MapKey, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    let Value::Obj(fields) = v else {
        return Err(Error::msg("expected object (map)"));
    };
    fields
        .iter()
        .map(|(k, fv)| Ok((K::from_key(k)?, V::de(fv)?)))
        .collect()
}

impl<K: MapKey + std::hash::Hash + Eq, V: Serialize> Serialize for HashMap<K, V> {
    fn emit(&self, sink: &mut dyn Sink) {
        emit_map(sink, self.iter())
    }
}

impl<K: MapKey + std::hash::Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn de(v: &Value) -> Result<Self, Error> {
        de_map_entries(v).map(|e| e.into_iter().collect())
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn emit(&self, sink: &mut dyn Sink) {
        emit_map(sink, self.iter())
    }
}

impl<K: MapKey, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn de(v: &Value) -> Result<Self, Error> {
        de_map_entries(v).map(|e| e.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_serialization_is_sorted() {
        let mut m = HashMap::new();
        m.insert(10u32, 1u8);
        m.insert(2u32, 2u8);
        m.insert(33u32, 3u8);
        let Value::Obj(fields) = m.ser() else {
            panic!("map must serialize to an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["2", "10", "33"]);
    }

    #[test]
    fn option_treats_missing_field_as_none() {
        let obj = Value::Obj(vec![("present".to_string(), Value::Int(1))]);
        let present: Option<u32> = get_field(&obj, "present").unwrap();
        let absent: Option<u32> = get_field(&obj, "absent").unwrap();
        assert_eq!(present, Some(1));
        assert_eq!(absent, None);
        assert!(get_field::<u32>(&obj, "absent").is_err());
    }

    #[test]
    fn u64_round_trips_exactly() {
        let x = u64::MAX - 7;
        assert_eq!(u64::de(&x.ser()).unwrap(), x);
    }

    #[test]
    fn non_finite_floats_become_null_and_nan() {
        assert_eq!(f64::NAN.ser(), Value::Null);
        assert!(f64::de(&Value::Null).unwrap().is_nan());
    }
}
