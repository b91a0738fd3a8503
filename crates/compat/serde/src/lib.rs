//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal replacement: a self-describing [`Value`] tree, a [`Serialize`]
//! trait that renders any supported type into it, and re-exported
//! `#[derive(Serialize, Deserialize)]` macros (see the sibling
//! `serde-derive-shim` crate). The API surface is intentionally restricted to
//! what this workspace uses. Swapping the manifest entries back to the real
//! serde needs source changes as well: [`Serialize::to_value`] and
//! [`Value`] (with its `UInt` variant) have no upstream counterpart, and the
//! workspace calls them directly.
//!
//! [`Deserialize`] is a marker only: nothing in the workspace reads data back
//! in, so deserialization is gated out rather than stubbed incorrectly.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A self-describing serialized value (the subset of the serde data model the
/// workspace needs, shaped for JSON rendering).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Ordered key/value map (field order is preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when `self` is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean when `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64` when `self` is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The number as `f64` when `self` is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Renders `self` into the shim's value tree.
    fn to_value(&self) -> Value;

    /// Borrow-or-build: the value tree behind a [`Cow`], so renderers avoid
    /// a deep copy when `self` already *is* a [`Value`]. The default builds
    /// via [`Serialize::to_value`]; only the `Value` impl overrides it.
    fn to_value_cow(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// A [`Value`] serializes as itself, so hand-assembled trees (e.g. protocol
/// envelopes wrapping derived payloads) pass straight through
/// `serde_json::to_string` — by reference, without cloning the tree.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn to_value_cow(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

/// Marker trait emitted by `#[derive(Deserialize)]`. Deserialization is not
/// supported by the offline shim.
pub trait Deserialize: Sized {}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64, usize);
impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<T: Serialize> Serialize for Range<T> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
        ])
    }
}

/// Maps serialize as arrays of `[key, value]` pairs (keys are not restricted
/// to strings in this workspace). Hash maps are sorted by key so output is
/// deterministic across runs and thread interleavings.
impl<K: Serialize + Ord, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Array(
            entries
                .into_iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3usize.to_value(), Value::UInt(3));
        assert_eq!((-2i32).to_value(), Value::Int(-2));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".to_string()));
        assert_eq!(Option::<u32>::None.to_value(), Value::Null);
    }

    #[test]
    fn containers_serialize_structurally() {
        assert_eq!(
            vec![1u32, 2].to_value(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
        );
        assert_eq!(
            (1u32, "a").to_value(),
            Value::Array(vec![Value::UInt(1), Value::Str("a".into())])
        );
        assert_eq!(
            (0usize..3).to_value(),
            Value::Object(vec![
                ("start".into(), Value::UInt(0)),
                ("end".into(), Value::UInt(3)),
            ])
        );
    }

    #[test]
    fn values_serialize_as_themselves_without_cloning() {
        let v = Value::Array(vec![Value::UInt(1), Value::Str("x".into())]);
        assert_eq!(v.to_value(), v);
        assert!(
            matches!(v.to_value_cow(), Cow::Borrowed(b) if std::ptr::eq(b, &v)),
            "a Value must render by reference, not by deep copy"
        );
        // Non-Value types keep the building default.
        assert!(matches!(1u32.to_value_cow(), Cow::Owned(Value::UInt(1))));
    }

    #[test]
    fn hash_maps_serialize_in_key_order() {
        let mut m = HashMap::new();
        m.insert(2u32, "b");
        m.insert(1u32, "a");
        assert_eq!(
            m.to_value(),
            Value::Array(vec![
                Value::Array(vec![Value::UInt(1), Value::Str("a".into())]),
                Value::Array(vec![Value::UInt(2), Value::Str("b".into())]),
            ])
        );
    }
}
