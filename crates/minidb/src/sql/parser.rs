//! The one recursive-descent parser: plain SQL and the ESTIMATE dialect
//! parse into one [`Statement`] through one cursor. Plain-SQL
//! productions (over the engine's [`Expr`] trees) live here; the dialect
//! productions are a second `impl Parser` block in
//! [`super::estimate`].

use crate::expr::Expr;
use crate::sql::lexer::{lex, syntax, Sym, Token, TokenKind};
use crate::table::Aggregate;
use crate::value::{DataType, Value};
use mlss_core::spec::{ExecMode, ModelSchema, QuerySpec, RankSpec, Span, SpecError};

/// Deepest expression tree the parser builds. Parentheses, `NOT`, unary
/// `-` and every binary operator folded into a chain count one level
/// each, so no statement can recurse the parser (or the evaluator)
/// deep enough to overflow a thread's stack.
pub const MAX_EXPR_DEPTH: usize = 128;

/// A parsed statement: plain SQL or the ESTIMATE dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(SelectStmt),
    /// `INSERT INTO t VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Value>>,
    },
    /// `CREATE TABLE t (col TYPE [NULL], ...)`
    CreateTable {
        /// Table name.
        table: String,
        /// Column definitions: (name, type, nullable).
        columns: Vec<(String, DataType, bool)>,
    },
    /// `DELETE FROM t [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        predicate: Option<Expr>,
    },
    /// `DROP TABLE t`
    DropTable {
        /// Table name.
        table: String,
    },
    /// `ESTIMATE DURABILITY …` — run (or submit) the query.
    Estimate(QuerySpec),
    /// `EXPLAIN ESTIMATE DURABILITY …` — return the resolved plan as rows.
    ExplainEstimate(QuerySpec),
    /// `ESTIMATE DURABILITY … RANK BY TOP k` — race the candidate field.
    Rank(RankSpec),
    /// `EXPLAIN` over a ranking statement — the racing plan as rows.
    ExplainRank(RankSpec),
    /// `SHOW MODELS` — the model catalog with per-parameter schemas.
    ShowModels,
    /// `SHOW DIAGNOSTICS` — plan-cache, shard-store, and scheduler-pool
    /// counters as `(component, counter, value)` rows.
    ShowDiagnostics,
}

impl Statement {
    /// Is this an `ASYNC` estimate or race — a statement that submits a
    /// scheduler query and answers with its id?
    pub fn is_async(&self) -> bool {
        match self {
            Statement::Estimate(spec) => spec.options.mode == ExecMode::Async,
            Statement::Rank(rank) => rank.options.mode == ExecMode::Async,
            _ => false,
        }
    }

    /// Does this statement change user tables (and so belong in the
    /// WAL's journal of plain SQL)?
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Statement::Insert { .. }
                | Statement::CreateTable { .. }
                | Statement::Delete { .. }
                | Statement::DropTable { .. }
        )
    }
}

/// The projection of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    All,
    /// Column names.
    Columns(Vec<String>),
    /// A single aggregate.
    Aggregate(Aggregate),
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// What to project.
    pub projection: Projection,
    /// Source table.
    pub table: String,
    /// Optional WHERE predicate.
    pub predicate: Option<Expr>,
    /// Optional ORDER BY (column, descending).
    pub order_by: Option<(String, bool)>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

/// Parse one statement (a trailing `;` is allowed). `catalog`, when
/// given, validates dialect model names, parameter names and parameter
/// ranges with spans. Every failure is a [`SpecError`] with a byte span.
pub fn parse(sql: &str, catalog: Option<&[&ModelSchema]>) -> Result<Statement, SpecError> {
    let mut p = Parser {
        src: sql,
        tokens: lex(sql)?,
        pos: 0,
        depth: 0,
        catalog,
    };
    let stmt = p.statement()?;
    p.next_if_sym(Sym::Semi);
    if let Some(t) = p.peek() {
        let text = p.text(t.span);
        return Err(syntax(format!("trailing input '{text}'"), t.span));
    }
    Ok(stmt)
}

/// A token's source text and span.
#[derive(Debug, Clone, Copy)]
pub(super) struct Word<'a> {
    pub(super) text: &'a str,
    pub(super) span: Span,
}

pub(super) struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// Current expression depth (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    pub(super) catalog: Option<&'a [&'a ModelSchema]>,
}

type Fold = fn(Expr, Expr) -> Expr;

impl<'a> Parser<'a> {
    // --- the cursor ---------------------------------------------------

    pub(super) fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    pub(super) fn peek_sym(&self) -> Option<Sym> {
        match self.peek()?.kind {
            TokenKind::Symbol(s) => Some(s),
            _ => None,
        }
    }

    /// The token `ahead` places past the cursor.
    pub(super) fn lookahead(&self, ahead: usize) -> Option<&Token> {
        self.tokens.get(self.pos + ahead)
    }

    pub(super) fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    pub(super) fn text(&self, span: Span) -> &'a str {
        &self.src[span.start..span.end]
    }

    /// Where the cursor is: the next token's span, or — once the input
    /// has ended early — the statement's first token, so an incomplete
    /// statement points at what it started.
    pub(super) fn here(&self) -> Span {
        match (self.peek(), self.tokens.first()) {
            (Some(t), _) | (None, Some(t)) => t.span,
            (None, None) => Span::at(self.src.len()),
        }
    }

    /// `expected {what}, found …` at the cursor.
    pub(super) fn unexpected(&self, what: &str) -> SpecError {
        let found = self.peek().map_or("end of statement".to_string(), |t| {
            format!("'{}'", self.text(t.span))
        });
        syntax(format!("expected {what}, found {found}"), self.here())
    }

    /// Is the next token the given (case-insensitive) keyword?
    pub(super) fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokenKind::Ident
            && self.text(t.span).eq_ignore_ascii_case(kw))
    }

    pub(super) fn next_if_kw(&mut self, kw: &str) -> bool {
        let hit = self.peek_kw(kw);
        self.pos += usize::from(hit);
        hit
    }

    pub(super) fn next_expect_kw(&mut self, kw: &str) -> Result<(), SpecError> {
        self.next_if_kw(kw)
            .then_some(())
            .ok_or_else(|| self.unexpected(kw))
    }

    pub(super) fn next_if_sym(&mut self, sym: Sym) -> bool {
        let hit = self.peek_sym() == Some(sym);
        self.pos += usize::from(hit);
        hit
    }

    pub(super) fn next_expect_sym(&mut self, sym: Sym, what: &str) -> Result<(), SpecError> {
        self.next_if_sym(sym)
            .then_some(())
            .ok_or_else(|| self.unexpected(what))
    }

    pub(super) fn next_ident(&mut self, what: &str) -> Result<Word<'a>, SpecError> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let span = t.span;
                self.pos += 1;
                Ok(Word {
                    text: self.text(span),
                    span,
                })
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// `item {',' item}`.
    fn comma_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        let mut out = vec![item(self)?];
        while self.next_if_sym(Sym::Comma) {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// One level deeper into an expression, refused at
    /// [`MAX_EXPR_DEPTH`] with the span of the token that went too deep.
    /// A failed parse is never resumed, so only success paths restore
    /// the depth.
    fn deepen(&mut self) -> Result<(), SpecError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(syntax(
                format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
                self.here(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    // --- statements ---------------------------------------------------

    fn statement(&mut self) -> Result<Statement, SpecError> {
        if self.next_if_kw("SELECT") {
            return self.select();
        }
        if self.next_if_kw("INSERT") {
            return self.insert();
        }
        if self.next_if_kw("CREATE") {
            return self.create_table();
        }
        if self.next_if_kw("DELETE") {
            return self.delete();
        }
        if self.next_if_kw("DROP") {
            self.next_expect_kw("TABLE")?;
            return Ok(Statement::DropTable {
                table: self.next_ident("a table name")?.text.to_string(),
            });
        }
        if self.next_if_kw("SHOW") {
            if self.next_if_kw("DIAGNOSTICS") {
                return Ok(Statement::ShowDiagnostics);
            }
            self.next_expect_kw("MODELS")?;
            return Ok(Statement::ShowModels);
        }
        let explain = self.next_if_kw("EXPLAIN");
        if explain || self.peek_kw("ESTIMATE") {
            self.next_expect_kw("ESTIMATE")?;
            return self.estimate(explain);
        }
        Err(self.unexpected("a statement"))
    }

    fn select(&mut self) -> Result<Statement, SpecError> {
        let projection = self.projection()?;
        self.next_expect_kw("FROM")?;
        let table = self.next_ident("a table name")?.text.to_string();
        let predicate = self.where_clause()?;
        let order_by = if self.next_if_kw("ORDER") {
            self.next_expect_kw("BY")?;
            let col = self.next_ident("a column name")?.text.to_string();
            let desc = if self.next_if_kw("DESC") {
                true
            } else {
                self.next_if_kw("ASC");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.next_if_kw("LIMIT") {
            let n = (self.peek())
                .filter(|t| t.kind == TokenKind::Number)
                .and_then(|t| self.text(t.span).parse().ok())
                .ok_or_else(|| self.unexpected("a row count after LIMIT"))?;
            self.pos += 1;
            Some(n)
        } else {
            None
        };
        Ok(Statement::Select(SelectStmt {
            projection,
            table,
            predicate,
            order_by,
            limit,
        }))
    }

    fn projection(&mut self) -> Result<Projection, SpecError> {
        if self.next_if_sym(Sym::Star) {
            return Ok(Projection::All);
        }
        // An aggregate is its keyword followed directly by '('.
        let lparen = TokenKind::Symbol(Sym::LParen);
        let paren_next = self.lookahead(1).is_some_and(|t| t.kind == lparen);
        if let Some((kw, make)) = AGGREGATES
            .iter()
            .find(|(kw, _)| paren_next && self.peek_kw(kw))
        {
            self.pos += 2;
            let agg = if self.peek_sym() == Some(Sym::Star) {
                if *kw != "COUNT" {
                    return Err(syntax(format!("{kw}(*) is not valid"), self.here()));
                }
                self.pos += 1;
                Aggregate::CountAll
            } else {
                make(self.next_ident("a column name")?.text.to_string())
            };
            self.next_expect_sym(Sym::RParen, "')'")?;
            return Ok(Projection::Aggregate(agg));
        }
        let cols = self.comma_list(|p| Ok(p.next_ident("a column name")?.text.to_string()))?;
        Ok(Projection::Columns(cols))
    }

    fn insert(&mut self) -> Result<Statement, SpecError> {
        self.next_expect_kw("INTO")?;
        let table = self.next_ident("a table name")?.text.to_string();
        self.next_expect_kw("VALUES")?;
        let rows = self.comma_list(|p| {
            p.next_expect_sym(Sym::LParen, "'('")?;
            let row = p.comma_list(Self::literal)?;
            p.next_expect_sym(Sym::RParen, "')'")?;
            Ok(row)
        })?;
        Ok(Statement::Insert { table, rows })
    }

    fn create_table(&mut self) -> Result<Statement, SpecError> {
        self.next_expect_kw("TABLE")?;
        let table = self.next_ident("a table name")?.text.to_string();
        self.next_expect_sym(Sym::LParen, "'('")?;
        let columns = self.comma_list(|p| {
            let name = p.next_ident("a column name")?.text.to_string();
            let ty = p.next_ident("a column type")?;
            let dtype = match ty.text.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" | "BIGINT" => DataType::Int,
                "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
                "TEXT" | "VARCHAR" | "STRING" => DataType::Text,
                "BOOL" | "BOOLEAN" => DataType::Bool,
                _ => return Err(syntax(format!("unknown type {}", ty.text), ty.span)),
            };
            Ok((name, dtype, p.next_if_kw("NULL")))
        })?;
        self.next_expect_sym(Sym::RParen, "')'")?;
        Ok(Statement::CreateTable { table, columns })
    }

    fn delete(&mut self) -> Result<Statement, SpecError> {
        self.next_expect_kw("FROM")?;
        let table = self.next_ident("a table name")?.text.to_string();
        let predicate = self.where_clause()?;
        Ok(Statement::Delete { table, predicate })
    }

    fn where_clause(&mut self) -> Result<Option<Expr>, SpecError> {
        if self.next_if_kw("WHERE") {
            self.expr().map(Some)
        } else {
            Ok(None)
        }
    }

    // --- expression grammar: OR > AND > NOT > cmp > add > mul > unary ---

    /// A left-associative chain `operand {op operand}`; every fold is one
    /// level deeper in the tree.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, SpecError>,
        op: fn(&Self) -> Option<Fold>,
    ) -> Result<Expr, SpecError> {
        let outer = self.depth;
        let mut lhs = operand(self)?;
        while let Some(fold) = op(self) {
            self.deepen()?;
            self.pos += 1;
            lhs = fold(lhs, operand(self)?);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn expr(&mut self) -> Result<Expr, SpecError> {
        self.chain(Self::and_expr, |p| p.peek_kw("OR").then_some(Expr::or))
    }

    fn and_expr(&mut self) -> Result<Expr, SpecError> {
        self.chain(Self::not_expr, |p| p.peek_kw("AND").then_some(Expr::and))
    }

    /// Past the opening token (`NOT`, `-`, `(`), one level deeper.
    fn nested(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<Expr, SpecError>,
    ) -> Result<Expr, SpecError> {
        self.deepen()?;
        self.pos += 1;
        let e = inner(self)?;
        self.depth -= 1;
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr, SpecError> {
        if !self.peek_kw("NOT") {
            return self.cmp_expr();
        }
        self.nested(|p| Ok(p.not_expr()?.not()))
    }

    fn cmp_expr(&mut self) -> Result<Expr, SpecError> {
        let lhs = self.add_expr()?;
        let fold: Fold = match self.peek_sym() {
            Some(Sym::Eq) => Expr::eq,
            Some(Sym::Ne) => Expr::ne,
            Some(Sym::Lt) => Expr::lt,
            Some(Sym::Le) => Expr::le,
            Some(Sym::Gt) => Expr::gt,
            Some(Sym::Ge) => Expr::ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        Ok(fold(lhs, self.add_expr()?))
    }

    fn add_expr(&mut self) -> Result<Expr, SpecError> {
        self.chain(Self::mul_expr, |p| match p.peek_sym() {
            Some(Sym::Plus) => Some(Expr::add),
            Some(Sym::Minus) => Some(Expr::sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr, SpecError> {
        self.chain(Self::unary_expr, |p| match p.peek_sym() {
            Some(Sym::Star) => Some(Expr::mul),
            Some(Sym::Slash) => Some(Expr::div),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, SpecError> {
        let Some(Token { kind, span }) = self.peek().cloned() else {
            return Err(self.unexpected("an expression"));
        };
        let e = match kind {
            // Unary minus: 0 - expr.
            TokenKind::Symbol(Sym::Minus) => {
                return self.nested(|p| Ok(Expr::Lit(Value::Int(0)).sub(p.unary_expr()?)))
            }
            TokenKind::Symbol(Sym::LParen) => {
                return self.nested(|p| {
                    let e = p.expr()?;
                    p.next_expect_sym(Sym::RParen, "')'")?;
                    Ok(e)
                })
            }
            TokenKind::Number => {
                let text = self.text(span);
                if text.contains(['.', 'e', 'E']) {
                    Expr::Lit(Value::Float(text.parse().expect("lexed as a number")))
                } else {
                    let v = text
                        .parse()
                        .map_err(|e| syntax(format!("bad integer '{text}': {e}"), span))?;
                    Expr::Lit(Value::Int(v))
                }
            }
            TokenKind::Str(s) => Expr::Lit(Value::Text(s)),
            TokenKind::Ident => match self.text(span).to_ascii_uppercase().as_str() {
                "TRUE" => Expr::Lit(Value::Bool(true)),
                "FALSE" => Expr::Lit(Value::Bool(false)),
                "NULL" => Expr::Lit(Value::Null),
                _ => Expr::Col(self.text(span).to_string()),
            },
            TokenKind::Symbol(_) => return Err(self.unexpected("an expression")),
        };
        self.pos += 1;
        Ok(e)
    }

    fn literal(&mut self) -> Result<Value, SpecError> {
        // Reuse the expression parser for literals so negative numbers and
        // arithmetic constants work; reject column references.
        let start = self.here().start;
        let e = self.expr()?;
        let end = self.tokens[self.pos - 1].span.end;
        let message = "VALUES entries must be literal".to_string();
        eval_const(&e).ok_or_else(|| syntax(message, Span::new(start, end)))
    }
}

/// Constant-fold an expression with no column references.
fn eval_const(e: &Expr) -> Option<Value> {
    let empty = crate::schema::Schema::new(vec![]).ok()?;
    e.eval(&empty, &[]).ok()
}

type AggMaker = fn(String) -> Aggregate;
const AGGREGATES: &[(&str, AggMaker)] = &[
    ("COUNT", Aggregate::Count as AggMaker),
    ("SUM", Aggregate::Sum as AggMaker),
    ("AVG", Aggregate::Avg as AggMaker),
    ("MIN", Aggregate::Min as AggMaker),
    ("MAX", Aggregate::Max as AggMaker),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use mlss_core::spec::SpecErrorKind;

    fn parse(sql: &str) -> Result<Statement, SpecError> {
        super::parse(sql, None)
    }

    #[test]
    fn parses_simple_select() {
        let stmt = parse("SELECT a, b FROM t WHERE a >= 3 ORDER BY b DESC LIMIT 10;").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(
            s.projection,
            Projection::Columns(vec!["a".into(), "b".into()])
        );
        assert_eq!(s.table, "t");
        assert_eq!(s.predicate, Some(col("a").ge(lit(3i64))));
        assert_eq!(s.order_by, Some(("b".into(), true)));
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_star_and_aggregates() {
        let Statement::Select(s) = parse("SELECT * FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(s.projection, Projection::All);
        let Statement::Select(s) = parse("SELECT COUNT(*) FROM t").unwrap() else {
            panic!()
        };
        assert_eq!(s.projection, Projection::Aggregate(Aggregate::CountAll));
        let Statement::Select(s) = parse("SELECT AVG(x) FROM t WHERE x > 0").unwrap() else {
            panic!()
        };
        assert_eq!(
            s.projection,
            Projection::Aggregate(Aggregate::Avg("x".into()))
        );
    }

    #[test]
    fn parses_insert_multiple_rows() {
        let stmt = parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b''c', -3.0)").unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Text("a".into()));
        assert_eq!(rows[1][1], Value::Text("b'c".into()));
        assert_eq!(rows[1][2], Value::Float(-3.0));
    }

    #[test]
    fn parses_create_table() {
        let stmt =
            parse("CREATE TABLE users (id INT, name TEXT, score FLOAT NULL, ok BOOL)").unwrap();
        let Statement::CreateTable { table, columns } = stmt else {
            panic!()
        };
        assert_eq!(table, "users");
        assert_eq!(columns.len(), 4);
        assert_eq!(columns[2], ("score".into(), DataType::Float, true));
        assert_eq!(columns[0], ("id".into(), DataType::Int, false));
    }

    #[test]
    fn parses_delete_and_drop() {
        assert_eq!(
            parse("DELETE FROM t WHERE x < 0").unwrap(),
            Statement::Delete {
                table: "t".into(),
                predicate: Some(col("x").lt(lit(0i64))),
            }
        );
        assert_eq!(
            parse("DROP TABLE t").unwrap(),
            Statement::DropTable { table: "t".into() }
        );
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 > 4 AND NOT c = 1 OR d = 2
        let e = match parse("SELECT * FROM t WHERE a + b * 2 > 4 AND NOT c = 1 OR d = 2").unwrap() {
            Statement::Select(s) => s.predicate.unwrap(),
            _ => panic!(),
        };
        let expected = col("a")
            .add(col("b").mul(lit(2i64)))
            .gt(lit(4i64))
            .and(col("c").eq(lit(1i64)).not())
            .or(col("d").eq(lit(2i64)));
        assert_eq!(e, expected);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("select * from t where x = true").is_ok());
        assert!(parse("Select Count(*) From t").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("INSERT INTO t VALUES (a)").is_err()); // non-literal
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra").is_err());
        assert!(parse("SUM(*)").is_err());
    }

    #[test]
    fn plain_sql_errors_are_spanned_syntax_errors() {
        // (statement, text under the span)
        let cases = [
            ("SELECT * FROM t WHERE n = @", "@"),
            ("INSERT INTO t VALUES (1", "INSERT"),
            ("SELECT * FROM t LIMIT x", "x"),
            ("SELECT * FROM t extra", "extra"),
            ("INSERT INTO t VALUES (a + 1)", "a + 1"),
            ("CREATE TABLE t (x BLOB)", "BLOB"),
        ];
        for (sql, at) in cases {
            let err = parse(sql).unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::Syntax { .. }),
                "{sql}: {err}"
            );
            let span = err.span.unwrap_or_else(|| panic!("{sql}: no span"));
            assert_eq!(&sql[span.start..span.end], at, "{sql}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize, open: &str, close: &str| {
            format!(
                "SELECT * FROM t WHERE {}x{}",
                open.repeat(n),
                close.repeat(n)
            )
        };
        for (open, close) in [("(", ")"), ("NOT ", ""), ("- ", "")] {
            assert!(parse(&nest(MAX_EXPR_DEPTH - 1, open, close)).is_ok());
            let sql = nest(10_000, open, close);
            let err = parse(&sql).unwrap_err();
            assert!(err.to_string().contains("nests deeper"), "{err}");
            let span = err.span.unwrap();
            assert_eq!(&sql[span.start..span.end], open.trim_end());
        }
        let chain = format!("SELECT * FROM t WHERE x{}", " + 1".repeat(10_000));
        assert!(parse(&chain)
            .unwrap_err()
            .to_string()
            .contains("nests deeper"));
    }

    #[test]
    fn statements_know_their_kind() {
        let async_est = "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.3 ASYNC";
        assert!(parse(async_est).unwrap().is_async());
        assert!(!parse(&async_est.replace(" ASYNC", "")).unwrap().is_async());
        assert!(!parse(&format!("EXPLAIN {async_est}")).unwrap().is_async());
        assert!(!parse("SELECT * FROM async").unwrap().is_async());
        assert!(parse("INSERT INTO t VALUES (1)").unwrap().is_mutation());
        assert!(parse("DROP TABLE t").unwrap().is_mutation());
        assert!(!parse("SELECT * FROM t").unwrap().is_mutation());
        assert!(!parse("SHOW MODELS").unwrap().is_mutation());
    }
}
