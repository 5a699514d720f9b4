//! Offline stand-in for `serde`, sized to what this workspace uses: derived
//! `Serialize` / `Deserialize` on plain structs and enums, consumed only
//! through `serde_json`.
//!
//! The benchmark has to build with no registry and no network, so
//! `offline/cargo-config.toml` patches `serde`, `serde_derive` and `serde_json` to the
//! crates next to this one. The data model is JSON-shaped on purpose:
//! serialisation writes JSON text straight into a `String`, deserialisation
//! consumes a parsed [`Value`] tree. Encodings follow upstream serde_json
//! (externally tagged enums, newtype structs as their inner value, `null`
//! for `None` and unit), so the bytes the store layer journals have the
//! same shape and roughly the same size as with the real crates.
//!
//! Floats are written with Rust's shortest round-trip formatting and parsed
//! with `str::parse`, so every finite `f64` survives a round trip bit for
//! bit — the recovery path depends on that.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// A parsed JSON document. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::Str(_) => "a string",
            Value::Seq(_) => "an array",
            Value::Map(_) => "an object",
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }
}

/// Deserialisation failure: a message, as `serde_json::Error` shows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

pub trait Deserialize: Sized {
    fn from_value(v: Value) -> Result<Self, Error>;

    /// What a struct field of this type becomes when the object has no such
    /// key: an error, except for `Option` (upstream serde's rule).
    fn missing(field: &str) -> Result<Self, Error> {
        Err(Error(format!("missing field `{field}`")))
    }
}

/// Writes `s` as a JSON string literal.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::U64(n) => n.write_json(out),
            Value::I64(n) => n.write_json(out),
            Value::F64(n) => n.write_json(out),
            Value::Str(s) => write_str(s, out),
            Value::Seq(items) => write_seq(items.iter(), out),
            Value::Map(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

fn write_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn from_value(v: Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(n)
                        .map_err(|_| Error(format!("integer {n} out of range for {}", stringify!($t)))),
                    other => Err(de::invalid(&other, "an unsigned integer")),
                }
            }
        }
    )*};
}

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn from_value(v: Value) -> Result<Self, Error> {
                let wide: i128 = match v {
                    Value::U64(n) => n as i128,
                    Value::I64(n) => n as i128,
                    other => return Err(de::invalid(&other, "an integer")),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error(format!("integer {wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

unsigned!(u8, u16, u32, u64, usize);
signed!(i8, i16, i32, i64, isize);

macro_rules! floats {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    // `{:?}` keeps a `.0` or an exponent, so the text parses
                    // back as a float (and `-0.0` keeps its sign).
                    let _ = write!(out, "{self:?}");
                } else {
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: Value) -> Result<Self, Error> {
                match v {
                    Value::F64(n) => Ok(n as $t),
                    Value::U64(n) => Ok(n as $t),
                    Value::I64(n) => Ok(n as $t),
                    other => Err(de::invalid(&other, "a number")),
                }
            }
        }
    )*};
}

floats!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(b),
            other => Err(de::invalid(&other, "a boolean")),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for String {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s),
            other => Err(de::invalid(&other, "a string")),
        }
    }
}

impl Serialize for () {
    fn write_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl Deserialize for () {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(de::invalid(&other, "null")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

macro_rules! pointers {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            fn write_json(&self, out: &mut String) {
                (**self).write_json(out);
            }
        }
        impl<T: Deserialize> Deserialize for $p<T> {
            fn from_value(v: Value) -> Result<Self, Error> {
                T::from_value(v).map($p::new)
            }
        }
        impl<T: Deserialize> Deserialize for $p<[T]> {
            fn from_value(v: Value) -> Result<Self, Error> {
                Vec::<T>::from_value(v).map(Into::into)
            }
        }
    )*};
}

pointers!(Box, Arc);

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self.iter(), out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("expected an array of {N} elements, found {len}")))
    }
}

macro_rules! sequences {
    ($($c:ident $(: $bound:ident $(+ $more:ident)*)?),*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn write_json(&self, out: &mut String) {
                write_seq(self.iter(), out);
            }
        }
        impl<T: Deserialize $(+ $bound $(+ $more)*)?> Deserialize for $c<T> {
            fn from_value(v: Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(items) => items.into_iter().map(T::from_value).collect(),
                    other => Err(de::invalid(&other, "an array")),
                }
            }
        }
    )*};
}

sequences!(Vec, VecDeque, BTreeSet: Ord);

macro_rules! tuples {
    ($(($len:expr; $($t:ident $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $i > 0 {
                        out.push(',');
                    }
                    self.$i.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: Value) -> Result<Self, Error> {
                let mut items = de::expect_seq(v, $len, "a tuple")?;
                Ok(($(de::elem::<$t>(&mut items, $i)?,)+))
            }
        }
    )*};
}

tuples! {
    (1; A 0)
    (2; A 0, B 1)
    (3; A 0, B 1, C 2)
    (4; A 0, B 1, C 2, D 3)
    (5; A 0, B 1, C 2, D 3, E 4)
    (6; A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Types usable as JSON object keys: strings as they are, integers quoted.
pub trait MapKey: Sized {
    fn write_key(&self, out: &mut String);
    fn parse_key(key: String) -> Result<Self, Error>;
}

impl MapKey for String {
    fn write_key(&self, out: &mut String) {
        write_str(self, out);
    }
    fn parse_key(key: String) -> Result<Self, Error> {
        Ok(key)
    }
}

macro_rules! int_keys {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn write_key(&self, out: &mut String) {
                let _ = write!(out, "\"{self}\"");
            }
            fn parse_key(key: String) -> Result<Self, Error> {
                key.parse()
                    .map_err(|_| Error(format!("invalid integer map key {key:?}")))
            }
        }
    )*};
}

int_keys!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

fn write_map<'a, K: MapKey + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        k.write_key(out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

fn read_map<K: MapKey, V: Deserialize, M: FromIterator<(K, V)>>(v: Value) -> Result<M, Error> {
    match v {
        Value::Map(members) => members
            .into_iter()
            .map(|(k, v)| Ok((K::parse_key(k)?, V::from_value(v)?)))
            .collect(),
        other => Err(de::invalid(&other, "an object")),
    }
}

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: Value) -> Result<Self, Error> {
        read_map(v)
    }
}

/// Helpers the derive macros expand to. Not a public API.
pub mod de {
    use super::{Deserialize, Error, Value};

    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}

    pub fn invalid(found: &Value, expected: &str) -> Error {
        Error(format!(
            "invalid type: found {}, expected {expected}",
            found.kind()
        ))
    }

    pub fn expect_map(v: Value, what: &str) -> Result<Vec<(String, Value)>, Error> {
        match v {
            Value::Map(m) => Ok(m),
            other => Err(invalid(&other, what)),
        }
    }

    pub fn expect_seq(v: Value, len: usize, what: &str) -> Result<Vec<Value>, Error> {
        match v {
            Value::Seq(s) if s.len() == len => Ok(s),
            Value::Seq(s) => Err(Error(format!(
                "invalid length {}, expected {what} with {len} elements",
                s.len()
            ))),
            other => Err(invalid(&other, what)),
        }
    }

    /// Takes element `index` out of a sequence checked by [`expect_seq`].
    pub fn elem<T: Deserialize>(items: &mut [Value], index: usize) -> Result<T, Error> {
        T::from_value(std::mem::replace(&mut items[index], Value::Null))
    }

    /// Looks a field up by name — at `hint` first, where our own writer put
    /// it — and takes its value out of the object.
    fn take(members: &mut [(String, Value)], hint: usize, name: &str) -> Option<Value> {
        let at = match members.get(hint) {
            Some((k, _)) if k == name => hint,
            _ => members.iter().position(|(k, _)| k == name)?,
        };
        Some(std::mem::replace(&mut members[at].1, Value::Null))
    }

    pub fn field<T: Deserialize>(
        members: &mut [(String, Value)],
        hint: usize,
        name: &str,
    ) -> Result<T, Error> {
        match take(members, hint, name) {
            Some(v) => T::from_value(v).map_err(|e| Error(format!("{name}: {}", e.0))),
            None => T::missing(name),
        }
    }

    /// A `#[serde(default)]` field: absent means `Default::default()`.
    pub fn field_or_default<T: Deserialize + Default>(
        members: &mut [(String, Value)],
        hint: usize,
        name: &str,
    ) -> Result<T, Error> {
        match take(members, hint, name) {
            Some(v) => T::from_value(v).map_err(|e| Error(format!("{name}: {}", e.0))),
            None => Ok(T::default()),
        }
    }

    /// Splits an externally tagged enum value into `(variant, payload)`.
    pub fn variant(v: Value, what: &str) -> Result<(String, Option<Value>), Error> {
        match v {
            Value::Str(tag) => Ok((tag, None)),
            Value::Map(mut m) if m.len() == 1 => {
                let (tag, payload) = m.remove(0);
                Ok((tag, Some(payload)))
            }
            other => Err(invalid(&other, what)),
        }
    }

    pub fn payload(p: Option<Value>, variant: &str) -> Result<Value, Error> {
        p.ok_or_else(|| Error(format!("variant `{variant}` needs a payload")))
    }

    pub fn unknown_variant(tag: &str, what: &str) -> Error {
        Error(format!("unknown variant `{tag}` of {what}"))
    }
}

pub mod ser {
    pub use super::Serialize;
}
