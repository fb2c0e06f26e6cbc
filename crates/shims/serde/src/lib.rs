//! Offline stand-in for `serde`. Instead of the real crate's visitor
//! architecture, [`Serialize`] and [`Deserialize`] convert to and from an
//! in-memory JSON tree ([`JsonValue`]). The derive macros (re-exported
//! from `serde_derive`) generate the same externally-tagged
//! representation the real serde uses.

pub use serde_derive::{Deserialize, Serialize};

/// An in-memory JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer (covers every integer this workspace persists).
    Int(i64),
    /// Unsigned integer too large for `i64`.
    UInt(u64),
    /// Floating point (including the non-standard `NaN`/`Infinity`
    /// tokens our writer emits so estimates with infinite variance
    /// survive a round-trip).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object as an ordered list of key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Short tag naming the value's shape, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Int(_) | JsonValue::UInt(_) => "integer",
            JsonValue::Float(_) => "float",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error message.
    pub fn msg(text: impl Into<String>) -> Self {
        DeError(text.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types convertible into a [`JsonValue`].
pub trait Serialize {
    /// Convert to the JSON tree.
    fn to_json_value(&self) -> JsonValue;
}

/// Types reconstructible from a [`JsonValue`].
pub trait Deserialize: Sized {
    /// Reconstruct from the JSON tree.
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError>;
}

// ---- primitive impls ----------------------------------------------------

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> JsonValue {
                JsonValue::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
                let raw = match v {
                    JsonValue::Int(i) => *i,
                    JsonValue::UInt(u) => i64::try_from(*u)
                        .map_err(|_| DeError::msg("integer out of range"))?,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw).map_err(|_| DeError::msg("integer out of range"))
            }
        }
    )*};
}

impl_serde_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> JsonValue {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => JsonValue::Int(i),
                    Err(_) => JsonValue::UInt(wide),
                }
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
                let raw = match v {
                    JsonValue::Int(i) => u64::try_from(*i)
                        .map_err(|_| DeError::msg("negative integer for unsigned field"))?,
                    JsonValue::UInt(u) => *u,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw).map_err(|_| DeError::msg("integer out of range"))
            }
        }
    )*};
}

impl_serde_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Float(x) => Ok(*x),
            JsonValue::Int(i) => Ok(*i as f64),
            JsonValue::UInt(u) => Ok(*u as f64),
            other => Err(DeError::msg(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        f64::from_json_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(DeError::msg(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(DeError::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> JsonValue {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> JsonValue {
        match self {
            None => JsonValue::Null,
            Some(x) => x.to_json_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Arr(items) => items.iter().map(T::from_json_value).collect(),
            other => Err(DeError::msg(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Arr(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json_value(v: &JsonValue) -> Result<Self, DeError> {
        match v {
            JsonValue::Arr(items) if items.len() == 2 => Ok((
                A::from_json_value(&items[0])?,
                B::from_json_value(&items[1])?,
            )),
            other => Err(DeError::msg(format!(
                "expected 2-element array, found {}",
                other.kind()
            ))),
        }
    }
}

/// Helpers the derive macro expands to. Not public API.
pub mod __private {
    use super::{DeError, JsonValue};

    /// Fetch a required struct field, treating a missing key as `null`
    /// (so `Option` fields tolerate omission).
    pub fn field<'v>(v: &'v JsonValue, name: &str) -> Result<&'v JsonValue, DeError> {
        match v {
            JsonValue::Obj(_) => Ok(v.get(name).unwrap_or(&JsonValue::Null)),
            other => Err(DeError::msg(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }

    /// Decode the externally-tagged envelope of an enum: either a bare
    /// string (unit variant) or a single-key object.
    pub fn variant(v: &JsonValue) -> Result<(&str, Option<&JsonValue>), DeError> {
        match v {
            JsonValue::Str(name) => Ok((name, None)),
            JsonValue::Obj(pairs) if pairs.len() == 1 => {
                Ok((pairs[0].0.as_str(), Some(&pairs[0].1)))
            }
            other => Err(DeError::msg(format!(
                "expected enum (string or single-key object), found {}",
                other.kind()
            ))),
        }
    }

    /// Expect a fixed-arity array (tuple enum variants).
    pub fn tuple(v: &JsonValue, arity: usize) -> Result<&[JsonValue], DeError> {
        match v {
            JsonValue::Arr(items) if items.len() == arity => Ok(items),
            other => Err(DeError::msg(format!(
                "expected {arity}-element array, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip() {
        let v: Option<u32> = Some(7);
        let j = v.to_json_value();
        assert_eq!(Option::<u32>::from_json_value(&j).unwrap(), Some(7));
        assert_eq!(
            Option::<u32>::from_json_value(&JsonValue::Null).unwrap(),
            None
        );
    }

    #[test]
    fn vec_roundtrip() {
        let v = vec![1.5f64, -2.0];
        let j = v.to_json_value();
        assert_eq!(Vec::<f64>::from_json_value(&j).unwrap(), v);
    }

    #[test]
    fn unsigned_range_checked() {
        assert!(u32::from_json_value(&JsonValue::Int(-1)).is_err());
        assert!(u32::from_json_value(&JsonValue::Int(1 << 40)).is_err());
        assert_eq!(
            u64::from_json_value(&JsonValue::UInt(u64::MAX)).unwrap(),
            u64::MAX
        );
    }
}
