//! Cell values and data types of the mini-DBMS.

use std::cmp::Ordering;
use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Text.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's data type, `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for non-numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Does the value fit a column of type `ty` (NULL fits everything)?
    pub fn fits(&self, ty: DataType) -> bool {
        match self {
            Value::Null => true,
            v => v.data_type() == Some(ty),
        }
    }

    /// SQL-style comparison: NULL compares less than everything (for
    /// ordering purposes), numerics compare across Int/Float.
    pub fn cmp_sql(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => Ordering::Equal, // incomparable types tie
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_checks() {
        assert!(Value::Int(3).fits(DataType::Int));
        assert!(!Value::Int(3).fits(DataType::Float));
        assert!(Value::Null.fits(DataType::Text));
        assert_eq!(Value::Float(1.5).data_type(), Some(DataType::Float));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn numeric_cross_comparison() {
        assert_eq!(Value::Int(2).cmp_sql(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).cmp_sql(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.cmp_sql(&Value::Int(-100)), Ordering::Less);
        assert_eq!(Value::Int(0).cmp_sql(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Null.cmp_sql(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
    }

    #[test]
    fn display_round() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-2).to_string(), "-2");
    }
}
