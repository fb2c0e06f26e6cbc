//! The model registry: the SQL layer's catalog of stochastic
//! substrates. Each registered model pairs a named-parameter
//! [`ModelSchema`] (override validation, `SHOW MODELS`,
//! [`crate::proc::seed_default_models`]) with a [`ModelBuilder`] that
//! turns the effective parameters into a [`ModelRunner`].

use crate::engine::{Database, DbError};
use crate::proc::{ModelRunner, Runner};
use mlss_core::plan_cache::fingerprint;
use mlss_core::spec::{ModelSchema, ParamSpec, QuerySpec, SpecError, SpecErrorKind};
use mlss_models::{
    ar_value_score, last_station_score, position_score, price_score, queue2_score, surplus_score,
    ArModel, CompoundPoisson, GeometricBrownian, JumpDistribution, MarkovChain, RandomWalk,
    SeriesNetwork, TandemQueue, Volatile,
};
use std::collections::BTreeMap;

/// Parameter rows for one model read back from the `models` table (empty
/// when the table — or the model — is absent; schema defaults fill in).
fn load_params(db: &Database, model: &str) -> BTreeMap<String, f64> {
    db.with_table("models", |t| {
        t.scan()
            .filter(|r| r[0].as_str() == Some(model))
            .map(|r| {
                (
                    r[1].as_str().unwrap_or("").to_string(),
                    r[2].as_f64().unwrap_or(f64::NAN),
                )
            })
            .collect::<BTreeMap<_, _>>()
    })
    .unwrap_or_default()
}

fn need(params: &BTreeMap<String, f64>, key: &str) -> Result<f64, DbError> {
    params
        .get(key)
        .copied()
        .ok_or_else(|| DbError::Proc(format!("missing parameter '{key}'")))
}

fn opt(params: &BTreeMap<String, f64>, key: &str, default: f64) -> f64 {
    params.get(key).copied().unwrap_or(default)
}

/// Builds a model's runner from its effective parameters and the
/// query horizon.
pub type ModelBuilder = fn(&BTreeMap<String, f64>, u64) -> Result<Box<dyn ModelRunner>, DbError>;

/// Registry mapping model names to their named-parameter [`ModelSchema`]
/// plus a builder over the effective parameter map — the SQL layer's
/// pluggable catalog of stochastic substrates. The schema drives
/// override validation, `SHOW MODELS`, and `seed_default_models`.
#[derive(Clone)]
pub struct ModelRegistry {
    entries: BTreeMap<&'static str, (ModelSchema, ModelBuilder)>,
}

fn markov_state_score(s: &usize) -> f64 {
    *s as f64
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// Registry preloaded with every `mlss_models` substrate.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(
            ModelSchema::new(
                "queue",
                "tandem M/M/1 queues; score = second queue length",
                vec![
                    ParamSpec::float("arrival_rate", 0.5, 1e-9, 1e6, "Poisson arrival rate"),
                    ParamSpec::float("service_rate1", 0.5, 1e-9, 1e6, "station-1 service rate"),
                    ParamSpec::float("service_rate2", 0.5, 1e-9, 1e6, "station-2 service rate"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: TandemQueue::new(
                        need(p, "arrival_rate")?,
                        need(p, "service_rate1")?,
                        need(p, "service_rate2")?,
                    ),
                    score: queue2_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "cpp",
                "compound-Poisson insurance surplus; score = deficit below 0",
                vec![
                    ParamSpec::float("initial", 15.0, 0.0, 1e12, "initial surplus"),
                    ParamSpec::float("premium", 4.5, 0.0, 1e6, "premium income per step"),
                    ParamSpec::float("intensity", 0.8, 1e-9, 1e6, "claim arrival intensity"),
                    ParamSpec::float("jump_lo", 5.0, 0.0, 1e9, "claim size lower bound"),
                    ParamSpec::float("jump_hi", 10.0, 0.0, 1e9, "claim size upper bound"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: CompoundPoisson::new(
                        need(p, "initial")?,
                        need(p, "premium")?,
                        need(p, "intensity")?,
                        JumpDistribution::Uniform {
                            lo: need(p, "jump_lo")?,
                            hi: need(p, "jump_hi")?,
                        },
                    ),
                    score: surplus_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "walk",
                "±1 lattice random walk; score = position",
                vec![
                    ParamSpec::float("up", 0.3, 0.0, 1.0, "up-step probability"),
                    ParamSpec::float("down", 0.3, 0.0, 1.0, "down-step probability"),
                    ParamSpec::int("start", 0.0, -1e9, 1e9, "starting position"),
                    ParamSpec::flag("reflect", 1.0, "reflect at 0 instead of absorbing"),
                ],
            ),
            |p, _| {
                let mut walk = RandomWalk::new(
                    opt(p, "up", 0.3),
                    opt(p, "down", 0.3),
                    opt(p, "start", 0.0) as i64,
                );
                if opt(p, "reflect", 1.0) != 0.0 {
                    walk = walk.reflected();
                }
                Ok(Box::new(Runner {
                    model: walk,
                    score: position_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "gbm",
                "geometric Brownian motion; score = price",
                vec![
                    ParamSpec::float("initial", 525.0, 1e-9, 1e12, "initial price"),
                    ParamSpec::float("drift", 0.25, -100.0, 100.0, "annualized drift"),
                    ParamSpec::float("volatility", 0.28, 0.0, 100.0, "annualized volatility"),
                    ParamSpec::float("dt", 1.0 / 252.0, 1e-9, 1e3, "time increment per step"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: GeometricBrownian::new(
                        opt(p, "initial", 525.0),
                        opt(p, "drift", 0.25),
                        opt(p, "volatility", 0.28),
                        opt(p, "dt", 1.0 / 252.0),
                    ),
                    score: price_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "ar",
                "AR(1) autoregressive process; score = value",
                vec![
                    ParamSpec::float("phi", 0.7, -1.0, 1.0, "autoregression coefficient"),
                    ParamSpec::float("sigma", 1.0, 0.0, 1e6, "innovation std deviation"),
                    ParamSpec::float("initial", 0.0, -1e9, 1e9, "starting value"),
                ],
            ),
            |p, _| {
                Ok(Box::new(Runner {
                    model: ArModel::ar1(
                        opt(p, "phi", 0.7),
                        opt(p, "sigma", 1.0),
                        opt(p, "initial", 0.0),
                    ),
                    score: ar_value_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "markov",
                "birth-death Markov chain; score = state index",
                vec![
                    ParamSpec::int("states", 32.0, 2.0, 1e6, "number of states"),
                    ParamSpec::float("p_up", 0.3, 0.0, 1.0, "up-transition probability"),
                    ParamSpec::float("p_down", 0.3, 0.0, 1.0, "down-transition probability"),
                    ParamSpec::int("initial", 0.0, 0.0, 1e6, "starting state"),
                ],
            ),
            |p, _| {
                let states = opt(p, "states", 32.0).max(2.0) as usize;
                Ok(Box::new(Runner {
                    model: MarkovChain::birth_death(
                        states,
                        opt(p, "p_up", 0.3),
                        opt(p, "p_down", 0.3),
                        (opt(p, "initial", 0.0).max(0.0) as usize).min(states - 1),
                    ),
                    score: markov_state_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "network",
                "series queueing network; score = last-station queue length",
                vec![
                    ParamSpec::float("arrival_rate", 0.4, 1e-9, 1e6, "external arrival rate"),
                    ParamSpec::int("stations", 3.0, 1.0, 1024.0, "stations in series"),
                    ParamSpec::float("service_rate", 0.5, 1e-9, 1e6, "per-station service rate"),
                ],
            ),
            |p, _| {
                let stations = opt(p, "stations", 3.0).max(1.0) as usize;
                Ok(Box::new(Runner {
                    model: SeriesNetwork::new(
                        opt(p, "arrival_rate", 0.4),
                        vec![opt(p, "service_rate", 0.5); stations],
                    ),
                    score: last_station_score,
                }))
            },
        );
        r.register(
            ModelSchema::new(
                "volatile",
                "CPP with late-horizon impulses (§6.2 level-skipping regime)",
                vec![
                    ParamSpec::float("initial", 15.0, 0.0, 1e12, "initial surplus"),
                    ParamSpec::float("premium", 4.5, 0.0, 1e6, "premium income per step"),
                    ParamSpec::float("intensity", 0.8, 1e-9, 1e6, "claim arrival intensity"),
                    ParamSpec::float("jump_lo", 5.0, 0.0, 1e9, "claim size lower bound"),
                    ParamSpec::float("jump_hi", 10.0, 0.0, 1e9, "claim size upper bound"),
                    ParamSpec::float("impulse", 200.0, 0.0, 1e9, "impulse claim size"),
                    ParamSpec::float(
                        "impulse_prob",
                        0.005,
                        0.0,
                        1.0,
                        "per-step impulse probability",
                    ),
                ],
            ),
            |p, horizon| {
                let base = CompoundPoisson::new(
                    opt(p, "initial", 15.0),
                    opt(p, "premium", 4.5),
                    opt(p, "intensity", 0.8),
                    JumpDistribution::Uniform {
                        lo: opt(p, "jump_lo", 5.0),
                        hi: opt(p, "jump_hi", 10.0),
                    },
                );
                let impulse = opt(p, "impulse", 200.0);
                let prob = opt(p, "impulse_prob", 0.005);
                // The paper's Volatile CPP: impulses only in the last 20% of
                // the horizon — exactly the §6.2 level-skipping regime.
                Ok(Box::new(Runner {
                    model: Volatile::new(base, horizon * 8 / 10, prob, move |u: &mut f64| {
                        *u += impulse
                    }),
                    score: surplus_score,
                }))
            },
        );
        r
    }

    /// Register (or replace) a model: its parameter schema plus a
    /// builder over the effective parameter map.
    pub fn register(&mut self, schema: ModelSchema, builder: ModelBuilder) {
        self.entries.insert(schema.name, (schema, builder));
    }

    /// Registered model names.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.keys().copied().collect()
    }

    /// The parameter schema of a registered model.
    pub fn schema(&self, name: &str) -> Option<&ModelSchema> {
        self.entries.get(name).map(|(s, _)| s)
    }

    /// All registered schemas (the `SHOW MODELS` catalog and the parser's
    /// validation catalog).
    pub fn schemas(&self) -> Vec<&ModelSchema> {
        self.entries.values().map(|(s, _)| s).collect()
    }

    /// The effective parameters of a model for a spec: schema defaults,
    /// overlaid with the model's `models`-table rows, overlaid with the
    /// spec's named overrides (validated against the schema).
    pub fn effective_params(
        &self,
        db: &Database,
        spec: &QuerySpec,
    ) -> Result<BTreeMap<String, f64>, DbError> {
        let (schema, _) = self.entries.get(spec.model.as_str()).ok_or_else(|| {
            SpecError::new(SpecErrorKind::UnknownModel {
                name: spec.model.clone(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
        })?;
        schema.validate_overrides(&spec.params)?;
        let mut params = schema.defaults();
        params.extend(load_params(db, &spec.model));
        params.extend(spec.params.iter().map(|(k, v)| (k.clone(), *v)));
        Ok(params)
    }

    /// Build a runner for a spec from its effective parameters, plus the
    /// plan-cache fingerprint of (model name, parameters, β, horizon)
    /// and the effective parameter map itself (so callers like
    /// `EXPLAIN` don't recompute the overlay).
    #[allow(clippy::type_complexity)]
    pub fn build_spec(
        &self,
        db: &Database,
        spec: &QuerySpec,
    ) -> Result<(Box<dyn ModelRunner>, u64, BTreeMap<String, f64>), DbError> {
        let params = self.effective_params(db, spec)?;
        let (_, builder) = self
            .entries
            .get(spec.model.as_str())
            .expect("checked by effective_params");
        let fp = fingerprint(
            &spec.model,
            params.iter().map(|(k, v)| (k.as_str(), *v)),
            spec.beta,
            spec.horizon,
        );
        Ok((builder(&params, spec.horizon)?, fp, params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::seed_default_models;

    fn db() -> Database {
        let db = Database::new();
        seed_default_models(&db).unwrap();
        db
    }

    #[test]
    fn model_registry_has_all_substrates() {
        let m = ModelRegistry::with_builtins();
        for name in [
            "queue", "cpp", "walk", "gbm", "ar", "markov", "network", "volatile",
        ] {
            assert!(m.names().contains(&name), "missing model '{name}'");
            let schema = m.schema(name).unwrap();
            assert!(!schema.params.is_empty(), "{name}: empty schema");
        }
        assert!(m.names().len() >= 8);
    }

    #[test]
    fn seeded_table_matches_schema_defaults() {
        // seed_default_models writes exactly the schema defaults, so the
        // effective-parameter overlay is the identity on a fresh table
        // (and so plan-cache fingerprints are stable).
        let db = db();
        let m = ModelRegistry::with_builtins();
        for schema in m.schemas() {
            let spec = QuerySpec::new(schema.name, 1.0, 10, 0.5);
            let params = m.effective_params(&db, &spec).unwrap();
            for p in &schema.params {
                assert_eq!(params.get(p.name), Some(&p.default), "{}", p.name);
            }
        }
    }
}
