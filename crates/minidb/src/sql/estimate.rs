//! The **ESTIMATE dialect** productions of the one `Parser`: durability
//! statements parse into the typed [`mlss_core::spec::QuerySpec`] IR,
//! with byte-span error positions.
//!
//! The grammar of the one parser — plain SQL and the dialect — is
//! written out once, in `docs/sql.md`. In short:
//!
//! ```text
//! [EXPLAIN] ESTIMATE DURABILITY OF model(beta=…, param=…) [SWEEP …] {, …}
//!     WITHIN horizon [USING method(levels=…)] TARGET RE r ['%']
//!     [RANK BY TOP k (…)] [WITH (threads=…, batch_width=…|auto, seed=…, priority=…)]
//!     [ASYNC | SYNC]
//! ```
//!
//! A statement with more than one candidate (an explicit list and/or a
//! `SWEEP` expansion) must carry a `RANK BY TOP k` clause: it parses to a
//! [`RankSpec`] raced under confidence-bound boundary elimination (see
//! `docs/ranking.md`). Ranking options: `confidence=` (0.5–1),
//! `rounds=` (round cap), `round_budget=` (per-arm `g` budget per round).
//!
//! With a catalog of [`mlss_core::spec::ModelSchema`]s the parser
//! validates unknown models, unknown parameters, and out-of-range values
//! with the span of the offending token; without one those checks happen
//! later in the dispatch layer (spanless). Every failure is a typed
//! [`SpecError`].

use crate::sql::lexer::{syntax, Sym, TokenKind};
use crate::sql::parser::{Parser, Statement, Word};
use mlss_core::spec::{
    ExecMode, ExecOptions, Method, QuerySpec, RankSpec, Span, SpecError, SpecErrorKind,
    DEFAULT_PLAN_LEVELS, MAX_RANK_ARMS,
};
use std::collections::BTreeMap;

impl<'a> Parser<'a> {
    /// A numeric literal with an optional sign touching its digits (the
    /// span covers the sign). The text comes back with the value, so
    /// callers that need lossless integers — `seed` is a full u64 — can
    /// re-read it.
    fn number(&mut self, what: &str) -> Result<(f64, Word<'a>), SpecError> {
        let sign = match self.peek() {
            Some(t) if matches!(t.kind, TokenKind::Symbol(Sym::Minus | Sym::Plus)) => Some(t.span),
            _ => None,
        };
        let signed = usize::from(sign.is_some());
        match self.lookahead(signed) {
            Some(t)
                if t.kind == TokenKind::Number && sign.is_none_or(|s| s.end == t.span.start) =>
            {
                let span = Span::new(sign.map_or(t.span.start, |s| s.start), t.span.end);
                let text = self.text(span);
                self.advance(signed + 1);
                let value = text.parse().expect("a lexed number, optionally signed");
                Ok((value, Word { text, span }))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// `name ['(' ident '=' number {',' …} ')']` — shared by the model
    /// ref, the method ref, and the WITH options (which have no name).
    fn assignments(
        &mut self,
        what: &'static str,
    ) -> Result<Vec<(Word<'a>, f64, Word<'a>)>, SpecError> {
        let mut out: Vec<(Word<'a>, f64, Word<'a>)> = Vec::new();
        if !self.next_if_sym(Sym::LParen) {
            return Ok(out);
        }
        loop {
            let name = self.next_ident(&format!("a {what} name"))?;
            self.next_expect_sym(Sym::Eq, "'='")?;
            // Execution options admit the keyword value `auto`
            // (today: `batch_width=auto`), carried as +∞ so the typed
            // option match below can tell it apart from every real
            // number. Model and method parameters stay numeric-only.
            let (value, vtok) = if what == "execution option" && self.peek_kw("auto") {
                (f64::INFINITY, self.next_ident("auto")?)
            } else {
                self.number(&format!("a value for '{}'", name.text))?
            };
            if out.iter().any(|(n, _, _)| n.text == name.text) {
                return Err(SpecError::at(
                    SpecErrorKind::Duplicate {
                        what,
                        name: name.text.to_string(),
                    },
                    name.span,
                ));
            }
            out.push((name, value, vtok));
            if !self.next_if_sym(Sym::Comma) {
                break;
            }
        }
        self.next_expect_sym(Sym::RParen, "')'")?;
        Ok(out)
    }

    /// One candidate of the `OF` list: a model ref plus an optional
    /// `SWEEP param FROM a TO b STEP s` expansion. Returns the expanded
    /// per-arm `(beta, params)` pairs (one entry when there is no sweep).
    fn candidate(&mut self) -> Result<Cand<'a>, SpecError> {
        // ---- model ref: name(beta=…, overrides…) ---------------------
        let model = self.next_ident("a model name")?;
        let schema = match self.catalog {
            Some(catalog) => {
                let Some(schema) = catalog.iter().find(|s| s.name == model.text) else {
                    let known = catalog.iter().map(|s| s.name.to_string()).collect();
                    let kind = SpecErrorKind::UnknownModel {
                        name: model.text.to_string(),
                        known,
                    };
                    return Err(SpecError::at(kind, model.span));
                };
                Some(*schema)
            }
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
                let p = schema
                    .param(name.text)
                    .ok_or_else(|| unknown_param(model, name))?;
                // The schema's own rules (range + int/bool shape), with
                // the value token's span attached.
                p.check(schema.name, value)
                    .map_err(|e| SpecError::at(e.kind, vtok.span))?;
            }
            params.insert(name.text.to_string(), value);
        }
        let Some(beta) = beta else {
            return Err(missing("beta", model.span));
        };

        // ---- SWEEP param FROM a TO b STEP s --------------------------
        let kw_span = self.here();
        if !self.next_if_kw("SWEEP") {
            return Ok(Cand {
                model,
                arms: vec![(beta, params)],
                sweep_span: None,
            });
        }
        let pname = self.next_ident("a parameter to sweep")?;
        self.next_expect_kw("FROM")?;
        let (from, Word { span: fspan, .. }) = self.number("a sweep start")?;
        self.next_expect_kw("TO")?;
        let (to, Word { span: tspan, .. }) = self.number("a sweep end")?;
        self.next_expect_kw("STEP")?;
        let (step, Word { span: sspan, .. }) = self.number("a sweep step")?;
        if !(from.is_finite() && to.is_finite()) {
            return Err(invalid(
                "sweep range",
                "endpoints must be finite".into(),
                fspan,
            ));
        }
        if to < from {
            return Err(invalid(
                "sweep range",
                format!("end {to} is below start {from}"),
                tspan,
            ));
        }
        if !(step.is_finite() && step > 0.0) {
            return Err(invalid(
                "sweep step",
                format!("must be positive, got {step}"),
                sspan,
            ));
        }
        // Count before materializing: a tiny step must fail cleanly, not
        // allocate.
        let count = (((to - from) / step + 1e-9).floor() as usize).saturating_add(1);
        if count > MAX_RANK_ARMS {
            return Err(invalid(
                "sweep step",
                format!("sweep expands to {count} arms, cap is {MAX_RANK_ARMS}"),
                sspan,
            ));
        }
        let schema_param = match schema {
            Some(schema) if pname.text != "beta" => {
                let p = schema
                    .param(pname.text)
                    .ok_or_else(|| unknown_param(model, pname))?;
                Some((schema.name, p))
            }
            _ => None,
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
                params.insert(pname.text.to_string(), value);
                arms.push((beta, params));
            }
        }
        Ok(Cand {
            model,
            arms,
            sweep_span: Some(kw_span),
        })
    }

    /// The body of `[EXPLAIN] ESTIMATE …`, after its keywords.
    pub(super) fn estimate(&mut self, explain: bool) -> Result<Statement, SpecError> {
        self.next_expect_kw("DURABILITY")?;
        self.next_expect_kw("OF")?;

        // ---- candidate list ------------------------------------------
        let mut cands = vec![self.candidate()?];
        // The span that proves this is a multi-candidate statement (and
        // therefore needs RANK BY): the first comma or SWEEP keyword.
        let mut multi_span: Option<Span> = cands[0].sweep_span;
        while self.peek_sym() == Some(Sym::Comma) {
            let comma = self.here();
            self.advance(1);
            multi_span = multi_span.or(Some(comma));
            cands.push(self.candidate()?);
        }

        // ---- WITHIN horizon ------------------------------------------
        if !self.next_if_kw("WITHIN") {
            return Err(missing("WITHIN", self.here()));
        }
        let (horizon, Word { span: hspan, .. }) = self.number("a horizon")?;
        if !(horizon.is_finite() && horizon >= 1.0 && horizon.fract() == 0.0) {
            return Err(invalid(
                "horizon",
                format!("must be a positive integer, got {horizon}"),
                hspan,
            ));
        }

        // ---- USING method(levels=…) ----------------------------------
        let mut method = Method::Auto;
        let mut levels = DEFAULT_PLAN_LEVELS;
        if self.next_if_kw("USING") {
            let name = self.next_ident("a method name")?;
            method = Method::parse(&name.text.to_ascii_lowercase())
                .map_err(|e| SpecError::at(e.kind, name.span))?;
            for (opt, value, vtok) in self.assignments("method option")? {
                match opt.text {
                    "levels" => levels = int_in("levels", value, 1.0, 64.0, vtok.span)? as usize,
                    _ => return Err(unknown_option(opt)),
                }
            }
        }

        // ---- TARGET RE number [%] ------------------------------------
        if !self.next_if_kw("TARGET") {
            return Err(missing("TARGET RE", self.here()));
        }
        self.next_expect_kw("RE")?;
        let (mut target_re, Word { span: tspan, .. }) = self.number("a relative-error target")?;
        if self.next_if_sym(Sym::Percent) {
            target_re /= 100.0;
        }
        if !(target_re.is_finite() && target_re > 0.0) {
            return Err(invalid(
                "target_re",
                format!("must be positive, got {target_re}"),
                tspan,
            ));
        }

        // ---- RANK BY TOP k [(confidence=…, rounds=…, round_budget=…)] -
        let rank = if self.next_if_kw("RANK") {
            self.next_expect_kw("BY")?;
            self.next_expect_kw("TOP")?;
            let (k, Word { span: kspan, .. }) = self.number("a top-k count")?;
            if !(k.fract() == 0.0 && k >= 1.0) {
                return Err(invalid(
                    "top_k",
                    format!("must be a positive integer, got {k}"),
                    kspan,
                ));
            }
            let mut confidence = mlss_core::spec::DEFAULT_RANK_CONFIDENCE;
            let mut rounds = mlss_core::spec::DEFAULT_RANK_ROUNDS;
            let mut round_budget = mlss_core::spec::DEFAULT_RANK_ROUND_BUDGET;
            for (opt, value, vtok) in self.assignments("ranking option")? {
                match opt.text {
                    "confidence" => {
                        if !(value > 0.5 && value < 1.0) {
                            return Err(invalid(
                                "confidence",
                                format!("must be in (0.5, 1), got {value}"),
                                vtok.span,
                            ));
                        }
                        confidence = value;
                    }
                    "rounds" => rounds = int_in("rounds", value, 1.0, 1e4, vtok.span)? as usize,
                    "round_budget" => {
                        round_budget = int_in("round_budget", value, 1.0, 1e12, vtok.span)? as u64
                    }
                    _ => return Err(unknown_option(opt)),
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
                return Err(missing("RANK BY", span));
            }
        }

        // ---- WITH (options) + ASYNC/SYNC -----------------------------
        let options = self.exec_options()?;

        // ---- assemble ------------------------------------------------
        let build_arm = |cand: &Word<'_>, beta: f64, params: BTreeMap<String, f64>| {
            let mut spec = QuerySpec::new(cand.text.to_string(), beta, horizon as u64, target_re);
            spec.params = params;
            spec.method = method;
            spec.levels = levels;
            spec.options = options.clone();
            spec
        };
        let Some((top_k, kspan, confidence, max_rounds, round_budget)) = rank else {
            let Cand { model, arms, .. } = cands.into_iter().next().expect("one candidate");
            let (beta, params) = arms.into_iter().next().expect("one arm");
            let spec = build_arm(&model, beta, params);
            spec.validate()?;
            return Ok(if explain {
                Statement::ExplainEstimate(spec)
            } else {
                Statement::Estimate(spec)
            });
        };
        let mut arms: Vec<QuerySpec> = Vec::new();
        for cand in cands {
            for (beta, params) in cand.arms {
                arms.push(build_arm(&cand.model, beta, params));
            }
        }
        if top_k > arms.len() {
            return Err(invalid(
                "top_k",
                format!(
                    "must be in 1..={} (the candidate field), got {top_k}",
                    arms.len()
                ),
                kspan,
            ));
        }
        let mut rank = RankSpec::new(arms, top_k);
        rank.confidence = confidence;
        rank.max_rounds = max_rounds;
        rank.round_budget = round_budget;
        rank.options = options;
        rank.validate()?;
        Ok(if explain {
            Statement::ExplainRank(rank)
        } else {
            Statement::Rank(rank)
        })
    }

    /// `[WITH '(' options ')'] [ASYNC | SYNC]`.
    fn exec_options(&mut self) -> Result<ExecOptions, SpecError> {
        let mut options = ExecOptions::default();
        if self.next_if_kw("WITH") {
            if self.peek_sym() != Some(Sym::LParen) {
                return Err(syntax("expected '(' after WITH".into(), self.here()));
            }
            for (opt, value, vtok) in self.assignments("execution option")? {
                let span = vtok.span;
                match opt.text {
                    "threads" => {
                        options.threads = int_in("threads", value, 1.0, 4096.0, span)? as usize
                    }
                    // `auto` arrives as +∞ (see `assignments`).
                    "batch_width" if value.is_infinite() => {
                        options.batch_width = Some(mlss_core::width::AUTO_WIDTH)
                    }
                    "batch_width" if value < 1.0 => {
                        return Err(invalid("batch_width", "must be ≥ 1 or auto".into(), span))
                    }
                    "batch_width" => {
                        let width = int_in("batch_width", value, 1.0, 1_048_576.0, span)?;
                        options.batch_width = Some(width as usize)
                    }
                    "seed" => {
                        // Reparse the token text: a seed is a full u64
                        // and must not round through f64.
                        let seed = vtok.text.parse().map_err(|_| {
                            let message =
                                format!("must be an unsigned integer, got '{}'", vtok.text);
                            invalid("seed", message, span)
                        })?;
                        options.seed = Some(seed);
                    }
                    "priority" => {
                        options.priority = int_in("priority", value, 0.0, 255.0, span)? as u8
                    }
                    _ => return Err(unknown_option(opt)),
                }
            }
        }

        // ---- ASYNC / SYNC --------------------------------------------
        if self.next_if_kw("ASYNC") {
            options.mode = ExecMode::Async;
        } else {
            self.next_if_kw("SYNC");
        }
        Ok(options)
    }
}

/// An `InvalidValue` error at `span`.
fn invalid(field: &'static str, message: String, span: Span) -> SpecError {
    SpecError::at(SpecErrorKind::InvalidValue { field, message }, span)
}

/// `value` if it is an integer in `lo..=hi`, else an `InvalidValue`.
fn int_in(field: &'static str, value: f64, lo: f64, hi: f64, span: Span) -> Result<f64, SpecError> {
    if value.fract() == 0.0 && (lo..=hi).contains(&value) {
        return Ok(value);
    }
    // `auto` arrives as +∞ (see `assignments`): only batch_width takes it.
    let message = if value.is_infinite() {
        "'auto' is only valid for batch_width".to_string()
    } else {
        format!("must be an integer in {lo}..={hi}, got {value}")
    };
    Err(invalid(field, message, span))
}

fn unknown_option(opt: Word<'_>) -> SpecError {
    let name = opt.text.to_string();
    SpecError::at(SpecErrorKind::UnknownOption { name }, opt.span)
}

fn unknown_param(model: Word<'_>, name: Word<'_>) -> SpecError {
    let (model, name_text) = (model.text.to_string(), name.text.to_string());
    SpecError::at(
        SpecErrorKind::UnknownParam {
            model,
            name: name_text,
        },
        name.span,
    )
}

fn missing(clause: &'static str, span: Span) -> SpecError {
    SpecError::at(SpecErrorKind::MissingClause { clause }, span)
}

/// One parsed `OF`-list candidate, already sweep-expanded.
struct Cand<'a> {
    model: Word<'a>,
    /// Per-arm `(beta, params)` pairs (one entry when there is no sweep).
    arms: Vec<(f64, BTreeMap<String, f64>)>,
    /// Span of the `SWEEP` keyword, if the candidate swept.
    sweep_span: Option<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::sql::parse as parse_sql;
    use mlss_core::spec::ModelSchema;

    fn parse(sql: &str) -> Result<Statement, SpecError> {
        parse_sql(sql, None)
    }

    fn spec_of(sql: &str) -> QuerySpec {
        match parse(sql).unwrap() {
            Statement::Estimate(s) => s,
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
            Statement::ExplainEstimate(_)
        ));
        assert_eq!(parse("SHOW MODELS").unwrap(), Statement::ShowModels);
        assert_eq!(parse("show models;").unwrap(), Statement::ShowModels);
        assert_eq!(
            parse("SHOW DIAGNOSTICS").unwrap(),
            Statement::ShowDiagnostics
        );
        assert_eq!(
            parse("show diagnostics;").unwrap(),
            Statement::ShowDiagnostics
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
        let err = parse_sql(
            "ESTIMATE DURABILITY OF nope(beta=1) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownModel { .. }));
        let err = parse_sql(
            "ESTIMATE DURABILITY OF walk(beta=1, wat=2) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownParam { .. }));
        let sql = "ESTIMATE DURABILITY OF walk(beta=1, up=1.5) WITHIN 10 TARGET RE 0.5";
        let err = parse_sql(sql, Some(&catalog)).unwrap_err();
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
        let err = parse_sql(sql, Some(&catalog2)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamWrongType { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "1.5");
        assert!(parse_sql(
            "ESTIMATE DURABILITY OF walk(beta=1, up=0.4) WITHIN 10 TARGET RE 0.5",
            Some(&catalog),
        )
        .is_ok());
    }

    fn rank_of(sql: &str) -> RankSpec {
        match parse(sql).unwrap() {
            Statement::Rank(r) => r,
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
        let err = parse_sql(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownParam { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "wat");
        // A generated value outside the schema range is attached to the
        // sweep start (the offending value is generated, not written).
        let sql = "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.8 TO 1.2 STEP 0.2 \
                   WITHIN 50 TARGET RE 0.5 RANK BY TOP 1";
        let err = parse_sql(sql, Some(&catalog)).unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::ParamOutOfRange { .. }));
        let span = err.span.unwrap();
        assert_eq!(&sql[span.start..span.end], "0.8");
        // In range, the sweep expands cleanly.
        assert!(parse_sql(
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
            Statement::ExplainRank(_)
        ));
    }
}
