//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal replacement: a self-describing [`Value`] tree, a [`Serialize`]
//! trait that renders a type into it, and the re-exported
//! `#[derive(Serialize)]` macro (see the sibling `serde-derive-shim` crate).
//! The API surface is restricted to what this workspace writes out; nothing
//! in the workspace reads data back through serde (the JSON parser in the
//! `serde_json` shim produces a plain [`Value`]). Swapping the manifest
//! entries back to the real serde needs source changes as well:
//! [`Serialize::to_value`] and [`Value`] (with its `UInt` variant) have no
//! upstream counterpart, and the workspace calls them directly.
//!
//! [`Serialize`] is implemented for `u64`, `usize`, `f64`, `bool`,
//! `String`, `str`, `&T`, `Option<T>`, `Vec<T>`, `[T]` and [`Value`] itself.
//! The derive handles the two shapes the workspace derives on: structs with
//! named fields render as objects in field order, and enums of unit variants
//! render as the variant name.
//!
//! ```
//! use serde::{Serialize, Value};
//!
//! #[derive(Serialize)]
//! struct Point {
//!     label: String,
//!     x: u64,
//!     weight: Option<f64>,
//! }
//!
//! #[derive(Serialize)]
//! enum Reuse {
//!     Reuse,
//!     NoReuse,
//! }
//!
//! let point = Point { label: "p".to_string(), x: 3, weight: None };
//! assert_eq!(
//!     point.to_value(),
//!     Value::Object(vec![
//!         ("label".to_string(), Value::Str("p".to_string())),
//!         ("x".to_string(), Value::UInt(3)),
//!         ("weight".to_string(), Value::Null),
//!     ])
//! );
//! assert_eq!(Reuse::NoReuse.to_value(), Value::Str("NoReuse".to_string()));
//! assert_eq!(Reuse::Reuse.to_value(), Value::Str("Reuse".to_string()));
//! ```
//!
//! Any other shape fails the build with a message naming the type, such as
//! a tuple struct:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Meters(u64);
//! ```
//!
//! or an enum with a data-carrying variant:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! enum Shape {
//!     Empty,
//!     Square { side: u64 },
//! }
//! ```

pub use serde_derive::Serialize;

use std::borrow::Cow;

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

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        Value::UInt(*self)
    }
}

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3usize.to_value(), Value::UInt(3));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".to_string()));
        assert_eq!(Option::<u64>::None.to_value(), Value::Null);
    }

    #[test]
    fn containers_serialize_structurally() {
        assert_eq!(
            vec![1u64, 2].to_value(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
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
        assert!(matches!(1u64.to_value_cow(), Cow::Owned(Value::UInt(1))));
    }
}
