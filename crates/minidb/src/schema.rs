//! Table schemas.

use crate::value::{DataType, Value};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-sensitive).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl ColumnDef {
    /// Non-nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Self {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// Mark the column nullable.
    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

/// Schema validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// Row arity differs from the schema.
    WrongArity {
        /// Expected column count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// A value does not fit its column type.
    TypeMismatch {
        /// Offending column name.
        column: String,
    },
    /// NULL in a non-nullable column.
    NullViolation {
        /// Offending column name.
        column: String,
    },
    /// Duplicate column name at definition time.
    DuplicateColumn(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::WrongArity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            SchemaError::TypeMismatch { column } => {
                write!(f, "value does not fit type of column '{column}'")
            }
            SchemaError::NullViolation { column } => {
                write!(f, "NULL in non-nullable column '{column}'")
            }
            SchemaError::DuplicateColumn(c) => write!(f, "duplicate column '{c}'"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl Schema {
    /// Build a schema; column names must be unique.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self, SchemaError> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(SchemaError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Self { columns })
    }

    /// Column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validate a row against the schema.
    pub fn check_row(&self, row: &[Value]) -> Result<(), SchemaError> {
        if row.len() != self.columns.len() {
            return Err(SchemaError::WrongArity {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(SchemaError::NullViolation {
                        column: c.name.clone(),
                    });
                }
            } else if !v.fits(c.dtype) {
                return Err(SchemaError::TypeMismatch {
                    column: c.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", Int),
            ColumnDef::new("name", Text),
            ColumnDef::new("score", Float).nullable(),
        ])
        .unwrap()
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn row_validation() {
        let s = schema();
        assert!(s
            .check_row(&[Value::Int(1), "a".into(), Value::Float(0.5)])
            .is_ok());
        assert!(s
            .check_row(&[Value::Int(1), "a".into(), Value::Null])
            .is_ok());
        assert!(matches!(
            s.check_row(&[Value::Int(1), "a".into()]),
            Err(SchemaError::WrongArity { .. })
        ));
        assert!(matches!(
            s.check_row(&[Value::Float(1.0), "a".into(), Value::Null]),
            Err(SchemaError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.check_row(&[Value::Null, "a".into(), Value::Null]),
            Err(SchemaError::NullViolation { .. })
        ));
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(matches!(
            Schema::new(vec![ColumnDef::new("x", Int), ColumnDef::new("x", Int)]),
            Err(SchemaError::DuplicateColumn(_))
        ));
    }
}
