//! The declarative **ESTIMATE dialect**: a hand-rolled recursive-descent
//! parser turning durability statements into the typed
//! [`mlss_core::spec::QuerySpec`] IR, with byte-span error positions.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement   := ESTIMATE estimate | EXPLAIN ESTIMATE estimate
//!              | SHOW MODELS | SHOW DIAGNOSTICS
//! estimate    := DURABILITY OF candidate {',' candidate} WITHIN integer
//!                [USING method_ref] TARGET RE number ['%']
//!                [RANK BY TOP integer ['(' assignments ')']]
//!                [WITH '(' options ')'] [ASYNC | SYNC] [';']
//! candidate   := model_ref [SWEEP ident FROM number TO number STEP number]
//! model_ref   := ident ['(' assignments ')']     -- must include beta=…
//! method_ref  := ident ['(' assignments ')']     -- srs|smlss|mlss|gmlss|auto, levels=…
//! assignments := ident '=' number {',' ident '=' number}
//! options     := ident '=' (number | AUTO) {',' ident '=' (number | AUTO)}
//!                -- threads, batch_width, seed, priority;
//!                -- AUTO is valid only for batch_width
//! number      := ['-'] INT | FLOAT
//! ```
//!
//! A statement with more than one candidate (an explicit list and/or a
//! `SWEEP` expansion) must carry a `RANK BY TOP k` clause: it parses to a
//! [`RankSpec`] raced under confidence-bound boundary elimination (see
//! `docs/ranking.md`). Ranking options: `confidence=` (0.5–1),
//! `rounds=` (round cap), `round_budget=` (per-arm `g` budget per round).
//!
//! The parser optionally validates against a catalog of
//! [`ModelSchema`]s, so unknown models, unknown parameters, and
//! out-of-range values are reported with the span of the offending
//! token; without a catalog those checks happen later in the dispatch
//! layer (spanless). Every failure is a typed
//! [`SpecError`] — the taxonomy the acceptance
//! criteria require instead of stringly-typed procedure errors.

use mlss_core::spec::{
    ExecMode, ExecOptions, Method, ModelSchema, QuerySpec, RankSpec, Span, SpecError,
    SpecErrorKind, DEFAULT_PLAN_LEVELS, MAX_RANK_ARMS,
};
use std::collections::BTreeMap;

/// A parsed dialect statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DialectStatement {
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

/// Does this statement text start with a dialect keyword (`ESTIMATE`,
/// `EXPLAIN`, `SHOW`)? Used to route between the dialect parser and the
/// plain-SQL parser without tokenizing twice.
pub fn is_dialect(sql: &str) -> bool {
    // Skip leading whitespace and `--` line comments — both lexers do.
    let mut rest = sql.trim_start();
    while let Some(comment) = rest.strip_prefix("--") {
        rest = match comment.split_once('\n') {
            Some((_, after)) => after.trim_start(),
            None => "",
        };
    }
    let first: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .collect();
    ["ESTIMATE", "EXPLAIN", "SHOW"]
        .iter()
        .any(|k| first.eq_ignore_ascii_case(k))
}

/// Parse one dialect statement. `catalog`, when given, validates model
/// names, parameter names, and parameter ranges with spans.
pub fn parse_dialect(
    sql: &str,
    catalog: Option<&[&ModelSchema]>,
) -> Result<DialectStatement, SpecError> {
    let tokens = lex(sql)?;
    let mut p = DialectParser {
        tokens,
        pos: 0,
        end: sql.len(),
        catalog,
    };
    let stmt = p.statement()?;
    p.eat_opt(TokKind::Semi);
    if let Some(t) = p.peek() {
        return Err(SpecError::at(
            SpecErrorKind::Syntax {
                message: format!("trailing input '{}'", t.text),
            },
            t.span,
        ));
    }
    Ok(stmt)
}

// ---------------------------------------------------------------------
// Spanned lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum TokKind {
    Ident,
    Number(f64),
    LParen,
    RParen,
    Comma,
    Eq,
    Percent,
    Semi,
}

#[derive(Debug, Clone)]
struct Tok {
    kind: TokKind,
    /// Original text (identifiers keep their case; keywords compare
    /// case-insensitively).
    text: String,
    span: Span,
}

fn lex(input: &str) -> Result<Vec<Tok>, SpecError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            '(' | ')' | ',' | '=' | '%' | ';' => {
                let kind = match c {
                    '(' => TokKind::LParen,
                    ')' => TokKind::RParen,
                    ',' => TokKind::Comma,
                    '=' => TokKind::Eq,
                    '%' => TokKind::Percent,
                    _ => TokKind::Semi,
                };
                i += 1;
                out.push(Tok {
                    kind,
                    text: c.to_string(),
                    span: Span::new(start, i),
                });
            }
            '0'..='9' | '.' | '-' | '+' => {
                i += 1;
                let mut saw_dot = c == '.';
                let mut saw_exp = false;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_digit() {
                        i += 1;
                    } else if b == '.' && !saw_dot && !saw_exp {
                        saw_dot = true;
                        i += 1;
                    } else if (b == 'e' || b == 'E') && !saw_exp {
                        saw_exp = true;
                        i += 1;
                        if matches!(bytes.get(i), Some(&b'+') | Some(&b'-')) {
                            i += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &input[start..i];
                let v: f64 = text.parse().map_err(|_| {
                    SpecError::at(
                        SpecErrorKind::Syntax {
                            message: format!("bad number '{text}'"),
                        },
                        Span::new(start, i),
                    )
                })?;
                out.push(Tok {
                    kind: TokKind::Number(v),
                    text: text.to_string(),
                    span: Span::new(start, i),
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: input[start..i].to_string(),
                    span: Span::new(start, i),
                });
            }
            _ => {
                // Decode the real (possibly multi-byte) character so the
                // message shows it faithfully and the span stays on a
                // char boundary (consumers slice the statement by it).
                let other = input[i..].chars().next().expect("in-bounds byte");
                return Err(SpecError::at(
                    SpecErrorKind::Syntax {
                        message: format!("unexpected character '{other}'"),
                    },
                    Span::new(i, i + other.len_utf8()),
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Recursive-descent parser
// ---------------------------------------------------------------------

struct DialectParser<'a> {
    tokens: Vec<Tok>,
    pos: usize,
    /// Byte length of the input (span for "expected more" errors).
    end: usize,
    catalog: Option<&'a [&'a ModelSchema]>,
}

impl DialectParser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn here(&self) -> Span {
        self.peek().map_or(Span::at(self.end), |t| t.span)
    }

    fn syntax(&self, message: impl Into<String>, span: Span) -> SpecError {
        SpecError::at(
            SpecErrorKind::Syntax {
                message: message.into(),
            },
            span,
        )
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokKind::Ident && t.text.eq_ignore_ascii_case(kw))
    }

    fn eat_kw_opt(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<(), SpecError> {
        if self.eat_kw_opt(kw) {
            Ok(())
        } else {
            let found = self
                .peek()
                .map_or("end of statement".to_string(), |t| format!("'{}'", t.text));
            Err(self.syntax(format!("expected {kw}, found {found}"), self.here()))
        }
    }

    fn eat_opt(&mut self, kind: TokKind) -> bool {
        if matches!(self.peek(), Some(t) if t.kind == kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: TokKind, what: &str) -> Result<Tok, SpecError> {
        match self.peek() {
            Some(t) if t.kind == kind => {
                let t = t.clone();
                self.pos += 1;
                Ok(t)
            }
            Some(t) => Err(self.syntax(format!("expected {what}, found '{}'", t.text), t.span)),
            None => Err(self.syntax(format!("expected {what}"), Span::at(self.end))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<Tok, SpecError> {
        self.eat(TokKind::Ident, what)
    }

    /// A (possibly negative) numeric literal; returns (value, span).
    fn number(&mut self, what: &str) -> Result<(f64, Span), SpecError> {
        match self.peek() {
            Some(t) => {
                if let TokKind::Number(v) = t.kind {
                    let span = t.span;
                    self.pos += 1;
                    Ok((v, span))
                } else {
                    Err(self.syntax(format!("expected {what}, found '{}'", t.text), t.span))
                }
            }
            None => Err(self.syntax(format!("expected {what}"), Span::at(self.end))),
        }
    }

    fn statement(&mut self) -> Result<DialectStatement, SpecError> {
        if self.eat_kw_opt("SHOW") {
            if self.eat_kw_opt("DIAGNOSTICS") {
                return Ok(DialectStatement::ShowDiagnostics);
            }
            self.eat_kw("MODELS")?;
            return Ok(DialectStatement::ShowModels);
        }
        let explain = self.eat_kw_opt("EXPLAIN");
        self.eat_kw("ESTIMATE")?;
        Ok(match (self.estimate()?, explain) {
            (ParsedEstimate::Single(spec), false) => DialectStatement::Estimate(spec),
            (ParsedEstimate::Single(spec), true) => DialectStatement::ExplainEstimate(spec),
            (ParsedEstimate::Rank(rank), false) => DialectStatement::Rank(rank),
            (ParsedEstimate::Rank(rank), true) => DialectStatement::ExplainRank(rank),
        })
    }

    /// The numeric value token itself (so callers that need lossless
    /// integer parsing — `seed` is a full u64 — can reparse its text).
    fn number_tok(&mut self, what: &str) -> Result<(f64, Tok), SpecError> {
        match self.peek() {
            Some(t) => {
                if let TokKind::Number(v) = t.kind {
                    let t = t.clone();
                    self.pos += 1;
                    Ok((v, t))
                } else {
                    Err(self.syntax(format!("expected {what}, found '{}'", t.text), t.span))
                }
            }
            None => Err(self.syntax(format!("expected {what}"), Span::at(self.end))),
        }
    }

    /// `name ['(' ident '=' number {',' …} ')']` — shared by the model
    /// ref, the method ref, and the WITH options (which have no name).
    fn assignments(&mut self, what: &'static str) -> Result<Vec<(Tok, f64, Tok)>, SpecError> {
        let mut out: Vec<(Tok, f64, Tok)> = Vec::new();
        if !self.eat_opt(TokKind::LParen) {
            return Ok(out);
        }
        loop {
            let name = self.ident(&format!("a {what} name"))?;
            self.eat(TokKind::Eq, "'='")?;
            // Execution options admit the keyword value `auto`
            // (today: `batch_width=auto`), carried as +∞ so the typed
            // option match below can tell it apart from every real
            // number. Model and method parameters stay numeric-only.
            let auto = what == "execution option"
                && matches!(
                    self.peek(),
                    Some(t) if t.kind == TokKind::Ident && t.text.eq_ignore_ascii_case("auto")
                );
            let (value, vtok) = if auto {
                let t = self.peek().expect("peeked above").clone();
                self.pos += 1;
                (f64::INFINITY, t)
            } else {
                self.number_tok(&format!("a value for '{}'", name.text))?
            };
            if out.iter().any(|(n, _, _)| n.text == name.text) {
                return Err(SpecError::at(
                    SpecErrorKind::Duplicate {
                        what,
                        name: name.text.clone(),
                    },
                    name.span,
                ));
            }
            out.push((name, value, vtok));
            if !self.eat_opt(TokKind::Comma) {
                break;
            }
        }
        self.eat(TokKind::RParen, "')'")?;
        Ok(out)
    }

    /// One candidate of the `OF` list: a model ref plus an optional
    /// `SWEEP param FROM a TO b STEP s` expansion. Returns the expanded
    /// per-arm `(beta, params)` pairs (one entry when there is no sweep).
    fn candidate(&mut self) -> Result<Cand, SpecError> {
        // ---- model ref: name(beta=…, overrides…) ---------------------
        let model = self.ident("a model name")?;
        let schema = match self.catalog {
            Some(catalog) => match catalog.iter().find(|s| s.name == model.text) {
                Some(s) => Some(*s),
                None => {
                    return Err(SpecError::at(
                        SpecErrorKind::UnknownModel {
                            name: model.text.clone(),
                            known: catalog.iter().map(|s| s.name.to_string()).collect(),
                        },
                        model.span,
                    ))
                }
            },
            None => None,
        };
        let mut beta: Option<f64> = None;
        let mut params: BTreeMap<String, f64> = BTreeMap::new();
        for (name, value, vtok) in self.assignments("model parameter")? {
            if name.text == "beta" {
                beta = Some(value);
                continue;
            }
            if let Some(schema) = schema {
                let Some(p) = schema.param(&name.text) else {
                    return Err(SpecError::at(
                        SpecErrorKind::UnknownParam {
                            model: model.text.clone(),
                            name: name.text.clone(),
                        },
                        name.span,
                    ));
                };
                // The schema's own rules (range + int/bool shape), with
                // the value token's span attached.
                p.check(schema.name, value)
                    .map_err(|e| SpecError::at(e.kind, vtok.span))?;
            }
            params.insert(name.text.clone(), value);
        }
        let Some(beta) = beta else {
            return Err(SpecError::at(
                SpecErrorKind::MissingClause { clause: "beta" },
                model.span,
            ));
        };

        // ---- SWEEP param FROM a TO b STEP s --------------------------
        if !self.peek_kw("SWEEP") {
            return Ok(Cand {
                model,
                arms: vec![(beta, params)],
                sweep_span: None,
            });
        }
        let kw_span = self.here();
        self.eat_kw("SWEEP")?;
        let pname = self.ident("a parameter to sweep")?;
        self.eat_kw("FROM")?;
        let (from, fspan) = self.number("a sweep start")?;
        self.eat_kw("TO")?;
        let (to, tspan) = self.number("a sweep end")?;
        self.eat_kw("STEP")?;
        let (step, sspan) = self.number("a sweep step")?;
        if !(from.is_finite() && to.is_finite()) {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "sweep range",
                    message: "endpoints must be finite".into(),
                },
                fspan,
            ));
        }
        if to < from {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "sweep range",
                    message: format!("end {to} is below start {from}"),
                },
                tspan,
            ));
        }
        if !(step.is_finite() && step > 0.0) {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "sweep step",
                    message: format!("must be positive, got {step}"),
                },
                sspan,
            ));
        }
        // Count before materializing: a tiny step must fail cleanly, not
        // allocate.
        let count = ((to - from) / step + 1e-9).floor() as usize + 1;
        if count > MAX_RANK_ARMS {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "sweep step",
                    message: format!("sweep expands to {count} arms, cap is {MAX_RANK_ARMS}"),
                },
                sspan,
            ));
        }
        let schema_param = if pname.text == "beta" {
            None
        } else if let Some(schema) = schema {
            let Some(p) = schema.param(&pname.text) else {
                return Err(SpecError::at(
                    SpecErrorKind::UnknownParam {
                        model: model.text.clone(),
                        name: pname.text.clone(),
                    },
                    pname.span,
                ));
            };
            Some((schema.name, p))
        } else {
            None
        };
        let mut arms = Vec::with_capacity(count);
        for i in 0..count {
            let value = from + step * i as f64;
            if let Some((model_name, p)) = schema_param {
                // Attach the sweep-start span: the offending value is
                // generated, not written.
                p.check(model_name, value)
                    .map_err(|e| SpecError::at(e.kind, fspan))?;
            }
            if pname.text == "beta" {
                arms.push((value, params.clone()));
            } else {
                let mut params = params.clone();
                params.insert(pname.text.clone(), value);
                arms.push((beta, params));
            }
        }
        Ok(Cand {
            model,
            arms,
            sweep_span: Some(kw_span),
        })
    }

    fn estimate(&mut self) -> Result<ParsedEstimate, SpecError> {
        self.eat_kw("DURABILITY")?;
        self.eat_kw("OF")?;

        // ---- candidate list ------------------------------------------
        let mut cands = vec![self.candidate()?];
        // The span that proves this is a multi-candidate statement (and
        // therefore needs RANK BY): the first comma or SWEEP keyword.
        let mut multi_span: Option<Span> = cands[0].sweep_span;
        while matches!(self.peek(), Some(t) if t.kind == TokKind::Comma) {
            let comma = self.here();
            self.pos += 1;
            multi_span = multi_span.or(Some(comma));
            cands.push(self.candidate()?);
        }

        // ---- WITHIN horizon ------------------------------------------
        if !self.eat_kw_opt("WITHIN") {
            return Err(SpecError::at(
                SpecErrorKind::MissingClause { clause: "WITHIN" },
                self.here(),
            ));
        }
        let (horizon, hspan) = self.number("a horizon")?;
        if !(horizon.is_finite() && horizon >= 1.0 && horizon.fract() == 0.0) {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "horizon",
                    message: format!("must be a positive integer, got {horizon}"),
                },
                hspan,
            ));
        }

        // ---- USING method(levels=…) ----------------------------------
        let mut method = Method::Auto;
        let mut levels = DEFAULT_PLAN_LEVELS;
        if self.eat_kw_opt("USING") {
            let name = self.ident("a method name")?;
            method = Method::parse(&name.text.to_ascii_lowercase())
                .map_err(|e| SpecError::at(e.kind, name.span))?;
            for (opt, value, vtok) in self.assignments("method option")? {
                match opt.text.as_str() {
                    "levels" => {
                        if !(value.fract() == 0.0 && (1.0..=64.0).contains(&value)) {
                            return Err(SpecError::at(
                                SpecErrorKind::InvalidValue {
                                    field: "levels",
                                    message: format!("must be an integer in 1..=64, got {value}"),
                                },
                                vtok.span,
                            ));
                        }
                        levels = value as usize;
                    }
                    _ => {
                        return Err(SpecError::at(
                            SpecErrorKind::UnknownOption {
                                name: opt.text.clone(),
                            },
                            opt.span,
                        ))
                    }
                }
            }
        }

        // ---- TARGET RE number [%] ------------------------------------
        if !self.eat_kw_opt("TARGET") {
            return Err(SpecError::at(
                SpecErrorKind::MissingClause {
                    clause: "TARGET RE",
                },
                self.here(),
            ));
        }
        self.eat_kw("RE")?;
        let (mut target_re, tspan) = self.number("a relative-error target")?;
        if self.eat_opt(TokKind::Percent) {
            target_re /= 100.0;
        }
        if !(target_re.is_finite() && target_re > 0.0) {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "target_re",
                    message: format!("must be positive, got {target_re}"),
                },
                tspan,
            ));
        }

        // ---- RANK BY TOP k [(confidence=…, rounds=…, round_budget=…)] -
        let rank = if self.peek_kw("RANK") {
            self.eat_kw("RANK")?;
            self.eat_kw("BY")?;
            self.eat_kw("TOP")?;
            let (k, kspan) = self.number("a top-k count")?;
            if !(k.fract() == 0.0 && k >= 1.0) {
                return Err(SpecError::at(
                    SpecErrorKind::InvalidValue {
                        field: "top_k",
                        message: format!("must be a positive integer, got {k}"),
                    },
                    kspan,
                ));
            }
            let mut confidence = mlss_core::spec::DEFAULT_RANK_CONFIDENCE;
            let mut rounds = mlss_core::spec::DEFAULT_RANK_ROUNDS;
            let mut round_budget = mlss_core::spec::DEFAULT_RANK_ROUND_BUDGET;
            for (opt, value, vtok) in self.assignments("ranking option")? {
                match opt.text.as_str() {
                    "confidence" => {
                        if !(value > 0.5 && value < 1.0) {
                            return Err(SpecError::at(
                                SpecErrorKind::InvalidValue {
                                    field: "confidence",
                                    message: format!("must be in (0.5, 1), got {value}"),
                                },
                                vtok.span,
                            ));
                        }
                        confidence = value;
                    }
                    "rounds" => {
                        if !(value.fract() == 0.0 && (1.0..=10_000.0).contains(&value)) {
                            return Err(SpecError::at(
                                SpecErrorKind::InvalidValue {
                                    field: "rounds",
                                    message: format!(
                                        "must be an integer in 1..=10000, got {value}"
                                    ),
                                },
                                vtok.span,
                            ));
                        }
                        rounds = value as usize;
                    }
                    "round_budget" => {
                        if !(value.fract() == 0.0 && (1.0..=1e12).contains(&value)) {
                            return Err(SpecError::at(
                                SpecErrorKind::InvalidValue {
                                    field: "round_budget",
                                    message: format!("must be an integer in 1..=1e12, got {value}"),
                                },
                                vtok.span,
                            ));
                        }
                        round_budget = value as u64;
                    }
                    _ => {
                        return Err(SpecError::at(
                            SpecErrorKind::UnknownOption {
                                name: opt.text.clone(),
                            },
                            opt.span,
                        ))
                    }
                }
            }
            Some((k as usize, kspan, confidence, rounds, round_budget))
        } else {
            None
        };
        if rank.is_none() {
            if let Some(span) = multi_span {
                // A candidate field without a ranking question is
                // ambiguous — which single estimate would it mean?
                return Err(SpecError::at(
                    SpecErrorKind::MissingClause { clause: "RANK BY" },
                    span,
                ));
            }
        }

        // ---- WITH (options) + ASYNC/SYNC -----------------------------
        let mut options = ExecOptions::default();
        self.exec_options(&mut options)?;

        // ---- assemble ------------------------------------------------
        let build_arm = |cand: &Tok, beta: f64, params: BTreeMap<String, f64>| {
            let mut spec = QuerySpec::new(cand.text.clone(), beta, horizon as u64, target_re);
            spec.params = params;
            spec.method = method;
            spec.levels = levels;
            spec.options = options.clone();
            spec
        };
        let Some((top_k, kspan, confidence, max_rounds, round_budget)) = rank else {
            let cand = cands.into_iter().next().expect("one candidate");
            let model = cand.model;
            let (beta, params) = cand.arms.into_iter().next().expect("one arm");
            let spec = build_arm(&model, beta, params);
            spec.validate()?;
            return Ok(ParsedEstimate::Single(spec));
        };
        let mut arms: Vec<QuerySpec> = Vec::new();
        for cand in cands {
            for (beta, params) in cand.arms {
                arms.push(build_arm(&cand.model, beta, params));
            }
        }
        if top_k > arms.len() {
            return Err(SpecError::at(
                SpecErrorKind::InvalidValue {
                    field: "top_k",
                    message: format!(
                        "must be in 1..={} (the candidate field), got {top_k}",
                        arms.len()
                    ),
                },
                kspan,
            ));
        }
        let mut rank = RankSpec::new(arms, top_k);
        rank.confidence = confidence;
        rank.max_rounds = max_rounds;
        rank.round_budget = round_budget;
        rank.options = options;
        rank.validate()?;
        Ok(ParsedEstimate::Rank(rank))
    }

    /// `[WITH '(' options ')'] [ASYNC | SYNC]` into `options`.
    fn exec_options(&mut self, options: &mut ExecOptions) -> Result<(), SpecError> {
        if self.eat_kw_opt("WITH") {
            if !matches!(self.peek(), Some(t) if t.kind == TokKind::LParen) {
                return Err(self.syntax("expected '(' after WITH", self.here()));
            }
            for (opt, value, vtok) in self.assignments("execution option")? {
                // `auto` reaches here as +∞ (see `assignments`); only
                // `batch_width` accepts it, and its arm checks before
                // the integer validation runs.
                let int_in = |lo: f64, hi: f64| -> Result<f64, SpecError> {
                    if value.fract() == 0.0 && (lo..=hi).contains(&value) {
                        Ok(value)
                    } else {
                        let field = match opt.text.as_str() {
                            "threads" => "threads",
                            "batch_width" => "batch_width",
                            "seed" => "seed",
                            _ => "priority",
                        };
                        let message = if value.is_infinite() {
                            "'auto' is only valid for batch_width".to_string()
                        } else {
                            format!("must be an integer in {lo}..={hi}, got {value}")
                        };
                        Err(SpecError::at(
                            SpecErrorKind::InvalidValue { field, message },
                            vtok.span,
                        ))
                    }
                };
                match opt.text.as_str() {
                    "threads" => options.threads = int_in(1.0, 4096.0)? as usize,
                    "batch_width" if value.is_infinite() => {
                        options.batch_width = Some(mlss_core::width::AUTO_WIDTH)
                    }
                    "batch_width" if value < 1.0 => {
                        return Err(SpecError::at(
                            SpecErrorKind::InvalidValue {
                                field: "batch_width",
                                message: "must be ≥ 1 or auto".into(),
                            },
                            vtok.span,
                        ))
                    }
                    "batch_width" => options.batch_width = Some(int_in(1.0, 1_048_576.0)? as usize),
                    "seed" => {
                        // Reparse the token text: a seed is a full u64
                        // and must not round through f64.
                        let seed: u64 = vtok.text.parse().map_err(|_| {
                            SpecError::at(
                                SpecErrorKind::InvalidValue {
                                    field: "seed",
                                    message: format!(
                                        "must be an unsigned integer, got '{}'",
                                        vtok.text
                                    ),
                                },
                                vtok.span,
                            )
                        })?;
                        options.seed = Some(seed);
                    }
                    "priority" => options.priority = int_in(0.0, 255.0)? as u8,
                    _ => {
                        return Err(SpecError::at(
                            SpecErrorKind::UnknownOption {
                                name: opt.text.clone(),
                            },
                            opt.span,
                        ))
                    }
                }
            }
        }

        // ---- ASYNC / SYNC --------------------------------------------
        if self.eat_kw_opt("ASYNC") {
            options.mode = ExecMode::Async;
        } else {
            self.eat_kw_opt("SYNC");
        }
        Ok(())
    }
}

/// What `estimate()` produced: one spec, or a raced candidate field.
enum ParsedEstimate {
    Single(QuerySpec),
    Rank(RankSpec),
}

/// One parsed `OF`-list candidate, already sweep-expanded.
struct Cand {
    model: Tok,
    /// Per-arm `(beta, params)` pairs (one entry when there is no sweep).
    arms: Vec<(f64, BTreeMap<String, f64>)>,
    /// Span of the `SWEEP` keyword, if the candidate swept.
    sweep_span: Option<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(sql: &str) -> Result<DialectStatement, SpecError> {
        parse_dialect(sql, None)
    }

    fn spec_of(sql: &str) -> QuerySpec {
        match parse(sql).unwrap() {
            DialectStatement::Estimate(s) => s,
            other => panic!("expected Estimate, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_headline_statement() {
        let s = spec_of(
            "ESTIMATE DURABILITY OF cpp(beta=500) WITHIN 1000 USING gmlss(levels=5) \
             TARGET RE 0.5% WITH (threads=4, batch_width=64) ASYNC",
        );
        assert_eq!(s.model, "cpp");
        assert_eq!(s.beta, 500.0);
        assert_eq!(s.horizon, 1000);
        assert_eq!(s.method, Method::GMlss);
        assert_eq!(s.levels, 5);
        assert!((s.target_re - 0.005).abs() < 1e-12);
        assert_eq!(s.options.threads, 4);
        assert_eq!(s.options.batch_width, Some(64));
        assert_eq!(s.options.mode, ExecMode::Async);
    }

    #[test]
    fn defaults_fill_in() {
        let s = spec_of("ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 TARGET RE 0.25");
        assert_eq!(s.method, Method::Auto);
        assert_eq!(s.levels, DEFAULT_PLAN_LEVELS);
        assert_eq!(s.options.threads, 1);
        assert_eq!(s.options.batch_width, None);
        assert_eq!(s.options.seed, None);
        assert_eq!(s.options.mode, ExecMode::Sync);
        assert!(s.params.is_empty());
    }

    #[test]
    fn model_overrides_and_case_insensitive_keywords() {
        let s = spec_of(
            "estimate durability of gbm(beta=560, volatility=0.4, drift=0.1) \
             within 40 using mlss target re 25 % sync;",
        );
        assert_eq!(s.params.get("volatility"), Some(&0.4));
        assert_eq!(s.params.get("drift"), Some(&0.1));
        assert_eq!(s.method, Method::GMlss, "mlss aliases to gmlss");
        assert!((s.target_re - 0.25).abs() < 1e-12);
    }

    #[test]
    fn explain_and_show_models() {
        assert!(matches!(
            parse("EXPLAIN ESTIMATE DURABILITY OF walk(beta=5) WITHIN 50 TARGET RE 0.3").unwrap(),
            DialectStatement::ExplainEstimate(_)
        ));
        assert_eq!(parse("SHOW MODELS").unwrap(), DialectStatement::ShowModels);
        assert_eq!(parse("show models;").unwrap(), DialectStatement::ShowModels);
        assert_eq!(
            parse("SHOW DIAGNOSTICS").unwrap(),
            DialectStatement::ShowDiagnostics
        );
        assert_eq!(
            parse("show diagnostics;").unwrap(),
            DialectStatement::ShowDiagnostics
        );
    }

    #[test]
    fn batch_width_auto_parses_to_the_sentinel() {
        let s = spec_of(
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 \
             WITH (batch_width=auto, threads=2)",
        );
        assert_eq!(s.options.batch_width, Some(mlss_core::width::AUTO_WIDTH));
        assert_eq!(s.options.threads, 2);
        // Case-insensitive, like the keywords.
        let s = spec_of(
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 \
             WITH (batch_width=AUTO)",
        );
        assert_eq!(s.options.batch_width, Some(mlss_core::width::AUTO_WIDTH));
    }

    #[test]
    fn auto_is_rejected_everywhere_else() {
        // Other execution options don't take `auto`…
        let sql = "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 \
             WITH (threads=auto)";
        let err = parse(sql).unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::InvalidValue { field: "threads", ref message }
                if message.contains("auto")
        ));
        let err = parse(
            "ESTIMATE DURABILITY OF gbm(beta=560) WITHIN 500 TARGET RE 0.25 WITH (seed=auto)",
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::InvalidValue { field: "seed", .. }
        ));
        // …and model parameters are numeric-only (auto is a syntax error
        // there, not a value error).
        assert!(parse("ESTIMATE DURABILITY OF gbm(beta=auto) WITHIN 500 TARGET RE 0.25").is_err());
    }

    #[test]
    fn is_dialect_routes() {
        assert!(is_dialect(
            "ESTIMATE DURABILITY OF x(beta=1) WITHIN 1 TARGET RE 1"
        ));
        assert!(is_dialect("  explain estimate …"));
        assert!(is_dialect("SHOW MODELS"));
        assert!(!is_dialect("SELECT * FROM t"));
        assert!(!is_dialect("INSERT INTO t VALUES (1)"));
    }

    #[test]
    fn spans_point_at_the_offender() {
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 60 TARGET RE 0.25 WITH (bogus=1)";
        let err = parse(sql).unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::UnknownOption { ref name } if name == "bogus"
        ));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "bogus");
    }

    #[test]
    fn missing_beta_is_a_missing_clause() {
        let err = parse("ESTIMATE DURABILITY OF walk WITHIN 60 TARGET RE 0.25").unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::MissingClause { clause: "beta" }
        ));
    }

    #[test]
    fn catalog_checks_model_and_params() {
        use mlss_core::spec::ParamSpec;
        let schema = ModelSchema::new(
            "walk",
            "random walk",
            vec![ParamSpec::float("up", 0.3, 0.0, 1.0, "up probability")],
        );
        let catalog = [&schema];
        let err = parse_dialect(
            "ESTIMATE DURABILITY OF nope(beta=1) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownModel { .. }));
        let err = parse_dialect(
            "ESTIMATE DURABILITY OF walk(beta=1, wat=2) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownParam { .. }));
        let sql = "ESTIMATE DURABILITY OF walk(beta=1, up=1.5) WITHIN 10 TARGET RE 0.5";
        let err = parse_dialect(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamOutOfRange { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "1.5");
        // Int/bool shape violations get the same spanned treatment.
        let int_schema = ModelSchema::new(
            "lattice",
            "int-param model",
            vec![ParamSpec::int("start", 0.0, -10.0, 10.0, "start")],
        );
        let catalog2 = [&int_schema];
        let sql = "ESTIMATE DURABILITY OF lattice(beta=1, start=1.5) WITHIN 10 TARGET RE 0.5";
        let err = parse_dialect(sql, Some(&catalog2)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamWrongType { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "1.5");
        assert!(parse_dialect(
            "ESTIMATE DURABILITY OF walk(beta=1, up=0.4) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .is_ok());
    }

    fn rank_of(sql: &str) -> RankSpec {
        match parse(sql).unwrap() {
            DialectStatement::Rank(r) => r,
            other => panic!("expected Rank, got {other:?}"),
        }
    }

    #[test]
    fn rank_by_over_an_explicit_candidate_list() {
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4), \
             walk(beta=8) WITHIN 50 USING srs TARGET RE 0.5 \
             RANK BY TOP 2 (confidence=0.9, rounds=6, round_budget=20000) \
             WITH (seed=7) ASYNC",
        );
        assert_eq!(r.arms.len(), 3);
        assert_eq!(r.top_k, 2);
        assert!((r.confidence - 0.9).abs() < 1e-12);
        assert_eq!(r.max_rounds, 6);
        assert_eq!(r.round_budget, 20_000);
        assert_eq!(r.options.seed, Some(7));
        assert_eq!(r.options.mode, ExecMode::Async);
        // Labels are the canonical model refs, parallel to the arms.
        assert_eq!(r.labels.len(), 3);
        assert_eq!(r.labels[0], r.arms[0].model_ref());
        assert!(r.labels[0].contains("up=0.3"));
        // Shared clauses land on every arm.
        for arm in &r.arms {
            assert_eq!(arm.horizon, 50);
            assert_eq!(arm.method, Method::Srs);
            assert_eq!(arm.options.seed, Some(7));
        }
    }

    #[test]
    fn rank_by_expands_a_sweep() {
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 \
             WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
        );
        assert_eq!(r.arms.len(), 4);
        for (arm, expected) in r.arms.iter().zip([0.30, 0.34, 0.38, 0.42]) {
            assert!((arm.params["up"] - expected).abs() < 1e-9);
        }
        // Defaults fill in.
        assert_eq!(r.top_k, 1);
        assert!((r.confidence - mlss_core::spec::DEFAULT_RANK_CONFIDENCE).abs() < 1e-12);
        assert_eq!(r.max_rounds, mlss_core::spec::DEFAULT_RANK_ROUNDS);
        assert_eq!(r.round_budget, mlss_core::spec::DEFAULT_RANK_ROUND_BUDGET);
        // `beta` itself is sweepable: it varies the query, not a param.
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(up=0.4, beta=4) SWEEP beta FROM 4 TO 8 STEP 2 \
             WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
        );
        assert_eq!(r.arms.len(), 3);
        assert_eq!(
            r.arms.iter().map(|a| a.beta).collect::<Vec<_>>(),
            vec![4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn rank_by_renders_back_to_a_parseable_statement() {
        let r = rank_of(
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) WITHIN 50 \
             TARGET RE 0.5 RANK BY TOP 2 (rounds=6) WITH (seed=9)",
        );
        let rendered = r.render();
        let reparsed = rank_of(&rendered);
        assert_eq!(reparsed.labels, r.labels);
        assert_eq!(reparsed.top_k, r.top_k);
        assert_eq!(reparsed.max_rounds, r.max_rounds);
        assert_eq!(reparsed.options.seed, r.options.seed);
    }

    /// The malformed-`RANK BY` span table: every rejection points its
    /// byte span at the offending token, not the statement head.
    #[test]
    fn malformed_rank_by_spans_point_at_the_offender() {
        // (statement, expected span text, expected field-ish marker)
        let cases: &[(&str, &str)] = &[
            // A candidate field without a ranking question: the span is
            // the first comma — the token that made it a field.
            (
                "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
                 WITHIN 50 TARGET RE 0.5",
                ",",
            ),
            // …or the SWEEP keyword when the sweep made it a field.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.1 TO 0.3 STEP 0.1 \
                 WITHIN 50 TARGET RE 0.5",
                "SWEEP",
            ),
            // TOP k out of range.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 RANK BY TOP 0",
                "0",
            ),
            // TOP k beyond the candidate field.
            (
                "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 5",
                "5",
            ),
            // Ranking options out of range.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (confidence=1.5)",
                "1.5",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (rounds=0)",
                "0",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (round_budget=0.5)",
                "0.5",
            ),
            // Unknown ranking option.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
                 RANK BY TOP 1 (cadence=3)",
                "cadence",
            ),
            // Sweep range/step violations.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.5 TO 0.3 STEP 0.1 \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
                "0.3",
            ),
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.1 TO 0.5 STEP 0 \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
                "0",
            ),
            // A sweep that would expand past the arm cap fails at the
            // step token, before materializing anything.
            (
                "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0 TO 1 STEP 0.001 \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
                "0.001",
            ),
        ];
        for (sql, at) in cases {
            let err = parse(sql).unwrap_err();
            let span = err
                .span
                .unwrap_or_else(|| panic!("no span for: {sql} ({:?})", err.kind));
            assert_eq!(&sql[span.start..span.end], *at, "wrong span for: {sql}");
        }

        // Kind checks for the two clause-level rejections above.
        let err = parse(
            "ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
             WITHIN 50 TARGET RE 0.5",
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::MissingClause { clause: "RANK BY" }
        ));
        let err = parse(
            "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 TARGET RE 0.5 \
             RANK BY TOP 1 (cadence=3)",
        )
        .unwrap_err();
        assert!(matches!(
            err.kind,
            SpecErrorKind::UnknownOption { ref name } if name == "cadence"
        ));
    }

    #[test]
    fn sweep_respects_the_schema_catalog() {
        use mlss_core::spec::ParamSpec;
        let schema = ModelSchema::new(
            "walk",
            "random walk",
            vec![ParamSpec::float("up", 0.3, 0.0, 1.0, "up probability")],
        );
        let catalog = [&schema];
        // Unknown sweep parameter, spanned at its name.
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP wat FROM 0.1 TO 0.3 STEP 0.1 \
                   WITHIN 50 TARGET RE 0.5 RANK BY TOP 1";
        let err = parse_dialect(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownParam { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "wat");
        // A generated value outside the schema range is attached to the
        // sweep start (the offending value is generated, not written).
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.8 TO 1.2 STEP 0.2 \
                   WITHIN 50 TARGET RE 0.5 RANK BY TOP 1";
        let err = parse_dialect(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamOutOfRange { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "0.8");
        // In range, the sweep expands cleanly.
        assert!(parse_dialect(
            "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.2 TO 0.4 STEP 0.1 \
             WITHIN 50 TARGET RE 0.5 RANK BY TOP 1",
            Some(&catalog),
        )
        .is_ok());
    }

    #[test]
    fn explain_rank_parses() {
        assert!(matches!(
            parse(
                "EXPLAIN ESTIMATE DURABILITY OF walk(beta=6, up=0.3), walk(beta=6, up=0.4) \
                 WITHIN 50 TARGET RE 0.5 RANK BY TOP 1"
            )
            .unwrap(),
            DialectStatement::ExplainRank(_)
        ));
    }
}
