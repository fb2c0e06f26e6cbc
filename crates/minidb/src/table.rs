//! Row-store tables with filtering, projection, ordering, and aggregation.

use crate::expr::{Expr, ExprError};
use crate::schema::{Schema, SchemaError};
use crate::value::Value;

/// A heap table.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// Row failed schema validation.
    Schema(SchemaError),
    /// Expression failed to evaluate.
    Expr(ExprError),
    /// Unknown column in projection/ordering/aggregation.
    UnknownColumn(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Schema(e) => write!(f, "{e}"),
            TableError::Expr(e) => write!(f, "{e}"),
            TableError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<SchemaError> for TableError {
    fn from(e: SchemaError) -> Self {
        TableError::Schema(e)
    }
}

impl From<ExprError> for TableError {
    fn from(e: ExprError) -> Self {
        TableError::Expr(e)
    }
}

/// Aggregate functions over a column (or `*` for count).
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    CountAll,
    /// `COUNT(col)` (non-NULL).
    Count(String),
    /// `SUM(col)`.
    Sum(String),
    /// `AVG(col)`.
    Avg(String),
    /// `MIN(col)`.
    Min(String),
    /// `MAX(col)`.
    Max(String),
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert one validated row.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        self.schema.check_row(&row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Insert many rows; stops at the first invalid row, reporting how
    /// many were inserted.
    pub fn insert_many(
        &mut self,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<usize, (usize, TableError)> {
        let mut n = 0;
        for row in rows {
            match self.insert(row) {
                Ok(()) => n += 1,
                Err(e) => return Err((n, e)),
            }
        }
        Ok(n)
    }

    /// Iterate over rows.
    pub fn scan(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(|r| r.as_slice())
    }

    /// Rows matching the predicate.
    pub fn filter(&self, pred: &Expr) -> Result<Vec<Vec<Value>>, TableError> {
        let mut out = Vec::new();
        for row in &self.rows {
            if pred.matches(&self.schema, row)? {
                out.push(row.clone());
            }
        }
        Ok(out)
    }

    /// Delete rows matching the predicate, returning the count removed.
    pub fn delete_where(&mut self, pred: &Expr) -> Result<usize, TableError> {
        let schema = &self.schema;
        let mut err = None;
        let before = self.rows.len();
        self.rows.retain(|row| match pred.matches(schema, row) {
            Ok(m) => !m,
            Err(e) => {
                err.get_or_insert(e);
                true
            }
        });
        if let Some(e) = err {
            return Err(e.into());
        }
        Ok(before - self.rows.len())
    }

    /// Project columns by name over the given rows.
    pub fn project(
        &self,
        rows: &[Vec<Value>],
        columns: &[&str],
    ) -> Result<Vec<Vec<Value>>, TableError> {
        let idx: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .index_of(c)
                    .ok_or_else(|| TableError::UnknownColumn((*c).into()))
            })
            .collect::<Result<_, _>>()?;
        Ok(rows
            .iter()
            .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
            .collect())
    }

    /// Sort rows by a column (ascending unless `desc`).
    pub fn order_by(
        &self,
        mut rows: Vec<Vec<Value>>,
        column: &str,
        desc: bool,
    ) -> Result<Vec<Vec<Value>>, TableError> {
        let i = self
            .schema
            .index_of(column)
            .ok_or_else(|| TableError::UnknownColumn(column.into()))?;
        rows.sort_by(|a, b| {
            let ord = a[i].cmp_sql(&b[i]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
        Ok(rows)
    }

    /// Evaluate an aggregate over rows matching `pred` (`None` = all).
    pub fn aggregate(&self, agg: &Aggregate, pred: Option<&Expr>) -> Result<Value, TableError> {
        let col_idx = |name: &str| {
            self.schema
                .index_of(name)
                .ok_or_else(|| TableError::UnknownColumn(name.into()))
        };
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let idx = match agg {
            Aggregate::CountAll => None,
            Aggregate::Count(c)
            | Aggregate::Sum(c)
            | Aggregate::Avg(c)
            | Aggregate::Min(c)
            | Aggregate::Max(c) => Some(col_idx(c)?),
        };

        for row in &self.rows {
            if let Some(p) = pred {
                if !p.matches(&self.schema, row)? {
                    continue;
                }
            }
            match idx {
                None => count += 1,
                Some(i) => {
                    let v = &row[i];
                    if v.is_null() {
                        continue;
                    }
                    count += 1;
                    if let Some(x) = v.as_f64() {
                        sum += x;
                    }
                    if min
                        .as_ref()
                        .is_none_or(|m| v.cmp_sql(m) == std::cmp::Ordering::Less)
                    {
                        min = Some(v.clone());
                    }
                    if max
                        .as_ref()
                        .is_none_or(|m| v.cmp_sql(m) == std::cmp::Ordering::Greater)
                    {
                        max = Some(v.clone());
                    }
                }
            }
        }

        Ok(match agg {
            Aggregate::CountAll | Aggregate::Count(_) => Value::Int(count as i64),
            Aggregate::Sum(_) => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum)
                }
            }
            Aggregate::Avg(_) => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            Aggregate::Min(_) => min.unwrap_or(Value::Null),
            Aggregate::Max(_) => max.unwrap_or(Value::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::ColumnDef;
    use crate::value::DataType::*;

    fn people() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", Int),
            ColumnDef::new("name", Text),
            ColumnDef::new("age", Int).nullable(),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![1i64.into(), "ann".into(), 34i64.into()])
            .unwrap();
        t.insert(vec![2i64.into(), "bob".into(), 28i64.into()])
            .unwrap();
        t.insert(vec![3i64.into(), "cat".into(), Value::Null])
            .unwrap();
        t.insert(vec![4i64.into(), "dan".into(), 41i64.into()])
            .unwrap();
        t
    }

    #[test]
    fn insert_validates() {
        let mut t = people();
        assert!(t
            .insert(vec![5i64.into(), "eve".into(), 30i64.into()])
            .is_ok());
        assert!(t
            .insert(vec!["oops".into(), "eve".into(), 30i64.into()])
            .is_err());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn filter_and_project() {
        let t = people();
        let rows = t.filter(&col("age").ge(lit(30i64))).unwrap();
        assert_eq!(rows.len(), 2); // NULL age excluded by 3VL
        let names = t.project(&rows, &["name"]).unwrap();
        let got: Vec<String> = names
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(got, vec!["ann", "dan"]);
    }

    #[test]
    fn order_and_limit_style() {
        let t = people();
        let rows = t.filter(&lit(true)).unwrap();
        let sorted = t.order_by(rows, "age", true).unwrap();
        // NULL sorts first ascending → last on descending.
        assert_eq!(sorted[0][1], Value::Text("dan".into()));
        assert_eq!(sorted.last().unwrap()[1], Value::Text("cat".into()));
    }

    #[test]
    fn aggregates() {
        let t = people();
        assert_eq!(
            t.aggregate(&Aggregate::CountAll, None).unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            t.aggregate(&Aggregate::Count("age".into()), None).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            t.aggregate(&Aggregate::Sum("age".into()), None).unwrap(),
            Value::Float(103.0)
        );
        assert_eq!(
            t.aggregate(&Aggregate::Min("age".into()), None).unwrap(),
            Value::Int(28)
        );
        assert_eq!(
            t.aggregate(&Aggregate::Max("age".into()), None).unwrap(),
            Value::Int(41)
        );
        let avg = t
            .aggregate(
                &Aggregate::Avg("age".into()),
                Some(&col("id").le(lit(2i64))),
            )
            .unwrap();
        assert_eq!(avg, Value::Float(31.0));
    }

    #[test]
    fn aggregate_over_empty_is_null() {
        let t = people();
        let none = col("id").gt(lit(100i64));
        assert_eq!(
            t.aggregate(&Aggregate::Sum("age".into()), Some(&none))
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            t.aggregate(&Aggregate::CountAll, Some(&none)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn delete_where_removes_matching() {
        let mut t = people();
        let n = t.delete_where(&col("age").lt(lit(35i64))).unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.len(), 2); // cat (NULL) kept, dan kept
    }

    #[test]
    fn unknown_columns_error() {
        let t = people();
        assert!(t.project(&[], &["nope"]).is_err());
        assert!(t.order_by(vec![], "nope", false).is_err());
        assert!(t.aggregate(&Aggregate::Sum("nope".into()), None).is_err());
    }
}
