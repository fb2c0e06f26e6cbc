//! The database engine: a catalog of tables behind a reader-writer lock.

use crate::schema::Schema;
use crate::table::{Table, TableError};
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Engine-level errors.
#[derive(Debug)]
pub enum DbError {
    /// Referenced table does not exist.
    NoSuchTable(String),
    /// Table already exists.
    TableExists(String),
    /// Table-level failure.
    Table(TableError),
    /// Stored-procedure failure (runtime error inside a known procedure).
    Proc(String),
    /// No stored procedure registered under this name.
    UnknownProc(String),
    /// A stored procedure was called with the wrong number of arguments.
    ProcArity {
        /// Procedure name.
        proc: String,
        /// Human-readable expected arity (e.g. `"5..=7"`).
        expected: String,
        /// Number of arguments actually supplied.
        got: usize,
    },
    /// A stored-procedure argument had the wrong type.
    ProcArgType {
        /// Procedure name.
        proc: String,
        /// Zero-based argument index.
        index: usize,
        /// Expected SQL-facing type name (e.g. `"text"`).
        expected: &'static str,
    },
    /// A malformed estimation query spec: the typed
    /// [`mlss_core::spec::SpecError`] taxonomy, carrying a byte span
    /// when the spec came from an `ESTIMATE` statement.
    Spec(mlss_core::spec::SpecError),
    /// Persistence failure.
    Io(std::io::Error),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table '{t}'"),
            DbError::TableExists(t) => write!(f, "table '{t}' already exists"),
            DbError::Table(e) => write!(f, "{e}"),
            DbError::Proc(m) => write!(f, "stored procedure error: {m}"),
            DbError::UnknownProc(p) => write!(f, "no stored procedure '{p}'"),
            DbError::ProcArity {
                proc,
                expected,
                got,
            } => write!(
                f,
                "procedure '{proc}' expects {expected} argument(s), got {got}"
            ),
            DbError::ProcArgType {
                proc,
                index,
                expected,
            } => write!(f, "procedure '{proc}': argument {index} must be {expected}"),
            DbError::Spec(e) => write!(f, "{e}"),
            DbError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<TableError> for DbError {
    fn from(e: TableError) -> Self {
        DbError::Table(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<mlss_core::spec::SpecError> for DbError {
    fn from(e: mlss_core::spec::SpecError) -> Self {
        DbError::Spec(e)
    }
}

/// An embedded database: named tables, thread-safe.
#[derive(Debug, Default)]
pub struct Database {
    tables: RwLock<BTreeMap<String, Table>>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table.
    pub fn create_table(&self, name: impl Into<String>, schema: Schema) -> Result<(), DbError> {
        let name = name.into();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Create a table unless one of that name already exists. The check
    /// and the create happen under one write lock, so concurrent callers
    /// never race each other into [`DbError::TableExists`]. Returns
    /// whether this call created the table.
    pub fn ensure_table(&self, name: &str, schema: Schema) -> bool {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return false;
        }
        tables.insert(name.to_string(), Table::new(schema));
        true
    }

    /// Create a table, replacing any existing one with the same name.
    pub fn create_or_replace_table(&self, name: impl Into<String>, schema: Schema) {
        self.tables.write().insert(name.into(), Table::new(schema));
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<(), DbError> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NoSuchTable(name.into()))
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Insert a row.
    pub fn insert(&self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
        t.insert(row)?;
        Ok(())
    }

    /// Insert many rows at once (single lock acquisition).
    pub fn insert_many(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize, DbError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
        t.insert_many(rows).map_err(|(_, e)| DbError::Table(e))
    }

    /// Run a read-only closure against a table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&Table) -> R) -> Result<R, DbError> {
        let tables = self.tables.read();
        let t = tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.into()))?;
        Ok(f(t))
    }

    /// Run a mutating closure against a table.
    pub fn with_table_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> R,
    ) -> Result<R, DbError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchTable(name.into()))?;
        Ok(f(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::ColumnDef;
    use crate::value::DataType::*;

    fn db_with_table() -> Database {
        let db = Database::new();
        let schema =
            Schema::new(vec![ColumnDef::new("k", Int), ColumnDef::new("v", Float)]).unwrap();
        db.create_table("kv", schema).unwrap();
        db
    }

    #[test]
    fn create_insert_query() {
        let db = db_with_table();
        db.insert("kv", vec![1i64.into(), 0.5.into()]).unwrap();
        db.insert("kv", vec![2i64.into(), 1.5.into()]).unwrap();
        let n = db.with_table("kv", |t| t.len()).unwrap();
        assert_eq!(n, 2);
        let rows = db
            .with_table("kv", |t| t.filter(&col("v").gt(lit(1.0))).unwrap())
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn duplicate_create_fails() {
        let db = db_with_table();
        let schema = Schema::new(vec![ColumnDef::new("x", Int)]).unwrap();
        assert!(matches!(
            db.create_table("kv", schema),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn concurrent_ensure_table_creates_exactly_once() {
        let db = Database::new();
        let barrier = std::sync::Barrier::new(8);
        let created: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let schema = Schema::new(vec![ColumnDef::new("x", Int)]).unwrap();
                        db.ensure_table("shared", schema)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(created.iter().filter(|&&c| c).count(), 1);
        assert_eq!(db.table_names(), vec!["shared".to_string()]);
    }

    #[test]
    fn drop_and_missing() {
        let db = db_with_table();
        assert!(db.has_table("kv"));
        db.drop_table("kv").unwrap();
        assert!(!db.has_table("kv"));
        assert!(matches!(db.drop_table("kv"), Err(DbError::NoSuchTable(_))));
        assert!(matches!(
            db.insert("kv", vec![]),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn insert_many_counts() {
        let db = db_with_table();
        let n = db
            .insert_many(
                "kv",
                (0..10).map(|i| vec![Value::Int(i), Value::Float(i as f64)]),
            )
            .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn concurrent_readers() {
        let db = std::sync::Arc::new(db_with_table());
        db.insert_many(
            "kv",
            (0..100).map(|i| vec![Value::Int(i), Value::Float(0.0)]),
        )
        .unwrap();
        let mut handles = vec![];
        for _ in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                db.with_table("kv", |t| t.len()).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }
}
