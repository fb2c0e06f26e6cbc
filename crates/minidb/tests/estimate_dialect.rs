//! Parser coverage for the ESTIMATE dialect: seeded-grid round-trip
//! properties (parse → render → parse is a fixed point) plus a table of
//! malformed statements asserting `SpecError` variants and byte spans.

use mlss_core::rng::{rng_from_seed, SimRng};
use mlss_core::spec::{ExecMode, Method, QuerySpec, SpecErrorKind};
use mlss_db::{parse_dialect, DialectStatement, ModelRegistry};
use rand::RngExt;

fn parse_spec(sql: &str) -> QuerySpec {
    match parse_dialect(sql, None).unwrap_or_else(|e| panic!("{sql}\n  -> {e}")) {
        DialectStatement::Estimate(s) => s,
        other => panic!("expected Estimate, got {other:?}"),
    }
}

/// Draw a random-but-valid spec from a seeded stream, exercising every
/// field of the IR: model overrides, every method, levels, execution
/// options, sync/async.
fn random_spec(rng: &mut SimRng) -> QuerySpec {
    let models: [(&str, &[&str]); 4] = [
        ("cpp", &["initial", "premium", "intensity"]),
        ("walk", &["up", "down"]),
        ("gbm", &["drift", "volatility"]),
        ("ar", &["phi", "sigma"]),
    ];
    let (model, params) = models[rng.random_range(0u32..4) as usize];
    let beta = (rng.random::<f64>() - 0.2) * 1000.0;
    let horizon = rng.random_range(1u64..5000);
    let target_re = rng.random::<f64>().max(1e-6);
    let mut spec = QuerySpec::new(model, beta, horizon, target_re);
    spec.method = [Method::Srs, Method::SMlss, Method::GMlss, Method::Auto]
        [rng.random_range(0u32..4) as usize];
    spec.levels = rng.random_range(1u64..9) as usize;
    for p in params {
        if rng.random::<f64>() < 0.5 {
            // Strictly inside every chosen parameter's schema range.
            spec.params
                .insert(p.to_string(), rng.random::<f64>() * 0.9 + 1e-4);
        }
    }
    if rng.random::<f64>() < 0.5 {
        spec.options.threads = rng.random_range(1u64..9) as usize;
    }
    if rng.random::<f64>() < 0.5 {
        spec.options.batch_width = Some(rng.random_range(1u64..257) as usize);
    }
    if rng.random::<f64>() < 0.5 {
        // Full-u64 seeds: the parser must not round them through f64.
        spec.options.seed = Some(rng.random::<u64>());
    }
    if rng.random::<f64>() < 0.3 {
        spec.options.priority = rng.random_range(0u64..256) as u8;
    }
    if rng.random::<f64>() < 0.5 {
        spec.options.mode = ExecMode::Async;
    }
    spec
}

#[test]
fn seeded_grid_render_parse_is_a_fixed_point() {
    for seed in 0u64..8 {
        let mut rng = rng_from_seed(seed);
        for case in 0..50 {
            let spec = random_spec(&mut rng);
            let rendered = spec.render();
            let reparsed = parse_spec(&rendered);
            assert_eq!(reparsed, spec, "seed {seed} case {case}: {rendered}");
            assert_eq!(
                reparsed.render(),
                rendered,
                "seed {seed} case {case}: render not canonical"
            );
        }
    }
}

#[test]
fn rendered_specs_parse_under_the_builtin_catalog() {
    // Rendered statements must also survive catalog validation (the
    // random overrides are drawn inside every parameter's range).
    let models = ModelRegistry::with_builtins();
    let schemas = models.schemas();
    let mut rng = rng_from_seed(99);
    for _ in 0..50 {
        let spec = random_spec(&mut rng);
        let rendered = spec.render();
        let parsed = parse_dialect(&rendered, Some(&schemas))
            .unwrap_or_else(|e| panic!("{rendered}\n  -> {e}"));
        assert_eq!(parsed, DialectStatement::Estimate(spec));
    }
}

#[test]
fn full_u64_seed_survives_the_round_trip() {
    let mut spec = QuerySpec::new("walk", 5.0, 50, 0.3);
    spec.options.seed = Some(u64::MAX);
    let reparsed = parse_spec(&spec.render());
    assert_eq!(reparsed.options.seed, Some(u64::MAX));
}

#[test]
fn malformed_statements_fail_with_typed_spanned_errors() {
    let models = ModelRegistry::with_builtins();
    let schemas = models.schemas();
    // (statement, expected-kind predicate, substring the span must cover;
    //  "" means "don't check the span text").
    type KindCheck = fn(&SpecErrorKind) -> bool;
    let cases: Vec<(&str, KindCheck, &str)> = vec![
        (
            "SELECT DURABILITY",
            |k| matches!(k, SpecErrorKind::Syntax { .. }),
            "SELECT",
        ),
        (
            "ESTIMATE NOTHING",
            |k| matches!(k, SpecErrorKind::Syntax { .. }),
            "NOTHING",
        ),
        (
            "ESTIMATE DURABILITY OF walk WITHIN 10 TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::MissingClause { clause: "beta" }),
            "walk",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::MissingClause { clause: "WITHIN" }),
            "TARGET",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10",
            |k| {
                matches!(
                    k,
                    SpecErrorKind::MissingClause {
                        clause: "TARGET RE"
                    }
                )
            },
            "",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 0 TARGET RE 0.5",
            |k| {
                matches!(
                    k,
                    SpecErrorKind::InvalidValue {
                        field: "horizon",
                        ..
                    }
                )
            },
            "0",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE -0.5",
            |k| {
                matches!(
                    k,
                    SpecErrorKind::InvalidValue {
                        field: "target_re",
                        ..
                    }
                )
            },
            "-0.5",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 USING sorcery TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::UnknownMethod { .. }),
            "sorcery",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 USING gmlss(levels=0) TARGET RE 0.5",
            |k| {
                matches!(
                    k,
                    SpecErrorKind::InvalidValue {
                        field: "levels",
                        ..
                    }
                )
            },
            "0",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 USING gmlss(depth=3) TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::UnknownOption { .. }),
            "depth",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5, beta=6) WITHIN 10 TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::Duplicate { .. }),
            "beta",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.5 WITH (threads=0)",
            |k| {
                matches!(
                    k,
                    SpecErrorKind::InvalidValue {
                        field: "threads",
                        ..
                    }
                )
            },
            "0",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.5 WITH (batch_width=0)",
            |k| {
                matches!(
                    k,
                    SpecErrorKind::InvalidValue {
                        field: "batch_width",
                        message,
                    } if message == "must be ≥ 1 or auto"
                )
            },
            "0",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.5 WITH (retries=2)",
            |k| matches!(k, SpecErrorKind::UnknownOption { .. }),
            "retries",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.5 WITH (priority=999)",
            |k| matches!(k, SpecErrorKind::InvalidValue { .. }),
            "999",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.5 garbage",
            |k| matches!(k, SpecErrorKind::Syntax { .. }),
            "garbage",
        ),
        (
            "ESTIMATE DURABILITY OF ghost(beta=5) WITHIN 10 TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::UnknownModel { .. }),
            "ghost",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5, umph=1) WITHIN 10 TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::UnknownParam { .. }),
            "umph",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=5, up=7) WITHIN 10 TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::ParamOutOfRange { .. }),
            "7",
        ),
        (
            "ESTIMATE DURABILITY OF walk(beta=@) WITHIN 10 TARGET RE 0.5",
            |k| matches!(k, SpecErrorKind::Syntax { .. }),
            "@",
        ),
    ];
    for (sql, kind_ok, span_text) in cases {
        let err = parse_dialect(sql, Some(&schemas))
            .err()
            .unwrap_or_else(|| panic!("statement must fail: {sql}"));
        assert!(kind_ok(&err.kind), "{sql}\n  wrong kind: {:?}", err.kind);
        let span = err
            .span
            .unwrap_or_else(|| panic!("{sql}\n  error has no span: {err}"));
        assert!(
            span.start <= span.end && span.end <= sql.len(),
            "{sql}\n  span out of bounds: {span:?}"
        );
        if !span_text.is_empty() {
            assert_eq!(
                &sql[span.start..span.end],
                span_text,
                "{sql}\n  span points at the wrong token"
            );
        }
    }
}

#[test]
fn percent_and_fraction_targets_agree() {
    let a = parse_spec("ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.5%");
    let b = parse_spec("ESTIMATE DURABILITY OF walk(beta=5) WITHIN 10 TARGET RE 0.005");
    assert_eq!(a, b);
}
