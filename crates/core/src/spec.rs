//! Sweep grids declared as JSON data.
//!
//! With strategies named by line-up keys, an entire sweep —
//! strategies, their parameters, factory configurations, seeds and the
//! routing policy — is expressible as data, with no Rust changes. This
//! module decodes that JSON form into a [`SweepSpec`] via the workspace's
//! `serde_json` shim.
//!
//! # Format
//!
//! ```json
//! {
//!   "name": "demo",
//!   "eval": { "routing": "dimension-ordered", "cycle_limit": 50000000 },
//!   "collect_breakdowns": false,
//!   "collect_mapping_metrics": false,
//!   "points": [
//!     { "label": "hs",
//!       "factory": { "k": 2, "levels": 2 },
//!       "strategy": { "strategy": "hierarchical_stitching", "seed": 42 } }
//!   ],
//!   "grids": [
//!     { "label": "single",
//!       "factories": [ { "capacity": 4, "levels": 1, "reuse": "R" } ],
//!       "strategies": [
//!         { "strategy": "force_directed", "seed": 42, "iterations": 15 },
//!         { "strategy": "graph_partition", "seed": 42 }
//!       ] }
//!   ]
//! }
//! ```
//!
//! * `eval` (optional) — `routing` is `"adaptive"` or `"dimension-ordered"`
//!   ([`RoutingPolicy::name`]); `cycle_limit` and the per-gate `latency`
//!   model fields default to [`SimConfig::default`]. Each latency must lie
//!   in 1 to 2^32 cycles.
//! * `factory` / `factories` — either per-level `k` or total `capacity`
//!   (which must be an exact `levels`-th power); `levels` defaults to 1,
//!   `reuse` (`"R"`/`"NR"`, or the long spellings) to `"R"`, `barriers` to
//!   `true`.
//! * `strategy` / `strategies` — `strategy` names one of the five line-up
//!   keys (see [`msfu_layout::build_mapper`]); every other field is passed
//!   to the mapper as a typed parameter, so unknown keys and type mismatches
//!   are errors, not silent defaults. An optional `label` overrides the
//!   report label (the keys default to their Table I row names).
//! * `grids` may carry a `seeds` array: every strategy of the grid is then
//!   instantiated once per seed (innermost loop) with its `seed` parameter
//!   overridden — note the `linear` built-in takes no seed and must live in a
//!   seedless grid. A duplicated seed is a spec error (it would silently
//!   duplicate every row of the grid).
//! * `lanes` (optional, default 8) — lane-batching width of the sweep's
//!   simulation phase; `0` or `1` disables batching, so every point
//!   simulates solo. Results are byte-identical at any width.
//!
//! Points are appended in document order: the `points` array first, then
//! every grid (factories × strategies × seeds), at most 100 000 in all. A
//! spec decoded from JSON is structurally equal ([`PartialEq`]) to the same
//! spec built in Rust, and running it produces byte-identical results.

use msfu_circuit::LatencyModel;
use msfu_distill::{FactoryConfig, ReusePolicy};
use msfu_layout::{MapperParams, ParamValue};
use msfu_sim::{RoutingPolicy, SimConfig};
use serde_json::Value;

use crate::{CoreError, EvaluationConfig, Result, Strategy, SweepSpec};

/// Most points a JSON sweep may declare, `grids` expansions included — far
/// above real traffic (the paper-scale Fig. 10 sweep has 88 points, the
/// random-mappings benchmark 410), so a hostile grid is refused before it
/// is allocated.
const MAX_SWEEP_POINTS: usize = 100_000;

fn spec_err(reason: impl Into<String>) -> CoreError {
    CoreError::Spec {
        reason: reason.into(),
    }
}

/// The entries of `value` when it is a JSON object.
fn as_object<'a>(value: &'a Value, ctx: &str) -> Result<&'a [(String, Value)]> {
    match value {
        Value::Object(entries) => Ok(entries),
        _ => Err(spec_err(format!("{ctx}: expected an object"))),
    }
}

/// The elements of `value` when it is a JSON array.
fn as_array<'a>(value: &'a Value, ctx: &str) -> Result<&'a [Value]> {
    value
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| spec_err(format!("{ctx}: expected an array")))
}

fn get_str(value: &Value, key: &str, ctx: &str) -> Result<Option<String>> {
    match value.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(spec_err(format!("{ctx}: `{key}` must be a string"))),
    }
}

fn get_u64(value: &Value, key: &str, ctx: &str) -> Result<Option<u64>> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| spec_err(format!("{ctx}: `{key}` must be a non-negative integer"))),
    }
}

fn get_bool(value: &Value, key: &str, ctx: &str) -> Result<Option<bool>> {
    match value.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(spec_err(format!("{ctx}: `{key}` must be a boolean"))),
    }
}

/// Decodes a factory configuration object (see the module docs for the
/// format).
///
/// # Errors
///
/// Returns [`CoreError::Spec`] for missing/contradictory capacity fields and
/// propagates [`FactoryConfig::from_total_capacity`] errors.
pub fn factory_from_json(value: &Value) -> Result<FactoryConfig> {
    let ctx = "factory";
    as_object(value, ctx)?;
    let levels = get_u64(value, "levels", ctx)?.unwrap_or(1) as usize;
    let k = get_u64(value, "k", ctx)?;
    let capacity = get_u64(value, "capacity", ctx)?;
    let mut config = match (k, capacity) {
        (Some(k), None) => FactoryConfig::new(k as usize, levels),
        (None, Some(capacity)) => FactoryConfig::from_total_capacity(capacity as usize, levels)?,
        (Some(_), Some(_)) => {
            return Err(spec_err(format!(
                "{ctx}: give either `k` (per level) or `capacity` (total), not both"
            )))
        }
        (None, None) => return Err(spec_err(format!("{ctx}: missing `k` or `capacity`"))),
    };
    if let Some(reuse) = get_str(value, "reuse", ctx)? {
        config.reuse = match reuse.as_str() {
            "R" | "Reuse" | "reuse" => ReusePolicy::Reuse,
            "NR" | "NoReuse" | "no-reuse" => ReusePolicy::NoReuse,
            other => {
                return Err(spec_err(format!(
                    "{ctx}: unknown reuse policy `{other}` (expected R or NR)"
                )))
            }
        };
    }
    if let Some(barriers) = get_bool(value, "barriers", ctx)? {
        config.barriers = barriers;
    }
    for (key, _) in as_object(value, ctx)? {
        if !matches!(
            key.as_str(),
            "k" | "capacity" | "levels" | "reuse" | "barriers"
        ) {
            return Err(spec_err(format!("{ctx}: unknown field `{key}`")));
        }
    }
    Ok(config)
}

/// Converts one JSON value into a typed mapper parameter. Non-negative
/// integers become `U64` (seeds, counts), everything else numeric becomes
/// `F64`.
fn param_value_from_json(field: &str, value: &Value, ctx: &str) -> Result<ParamValue> {
    match value {
        Value::UInt(u) => Ok(ParamValue::U64(*u)),
        Value::Int(i) if *i >= 0 => Ok(ParamValue::U64(*i as u64)),
        Value::Int(i) => Ok(ParamValue::F64(*i as f64)),
        Value::Float(f) => Ok(ParamValue::F64(*f)),
        Value::Bool(b) => Ok(ParamValue::Bool(*b)),
        Value::Str(s) => Ok(ParamValue::Str(s.clone())),
        _ => Err(spec_err(format!(
            "{ctx}: parameter `{field}` must be a number, boolean or string"
        ))),
    }
}

/// Decodes a JSON object into a [`MapperParams`] bag (every field becomes a
/// typed parameter — used for ladder entries of a search portfolio).
///
/// # Errors
///
/// Returns [`CoreError::Spec`] when the value is not an object of scalars.
pub fn params_from_json(value: &Value) -> Result<MapperParams> {
    let ctx = "params";
    let mut params = MapperParams::new();
    for (field, v) in as_object(value, ctx)? {
        params.set(field.clone(), param_value_from_json(field, v, ctx)?);
    }
    Ok(params)
}

/// The Table I labels the line-up keys default to, mirroring the
/// [`Strategy`] constructors.
fn default_label(key: &str, params: &MapperParams) -> Option<&'static str> {
    match key {
        "random" => Some(if params.get("expansion").is_some() {
            "Random+S"
        } else {
            "Random"
        }),
        "linear" => Some("Line"),
        "force_directed" => Some("FD"),
        "graph_partition" => Some("GP"),
        "hierarchical_stitching" => Some("HS"),
        _ => None,
    }
}

/// Decodes a strategy object: `strategy` names the line-up key, `label`
/// optionally overrides the report label, every other field becomes a typed
/// mapper parameter.
///
/// # Errors
///
/// Returns [`CoreError::Spec`] for a missing key or a parameter value that
/// is not a number, boolean or string. (An *unknown* key or parameter name
/// only surfaces when the strategy is checked or built, so decoding stays
/// purely structural.)
pub fn strategy_from_json(value: &Value) -> Result<Strategy> {
    let ctx = "strategy";
    let entries = as_object(value, ctx)?;
    let key = get_str(value, "strategy", ctx)?
        .ok_or_else(|| spec_err(format!("{ctx}: missing `strategy` (the registry key)")))?;
    let label = get_str(value, "label", ctx)?;
    let mut params = MapperParams::new();
    for (field, v) in entries {
        if field == "strategy" || field == "label" {
            continue;
        }
        params.set(field.clone(), param_value_from_json(field, v, ctx)?);
    }
    let label = label
        .or_else(|| default_label(&key, &params).map(str::to_string))
        .unwrap_or_else(|| key.clone());
    Ok(Strategy::new(key, params).with_label(label))
}

/// Decodes an evaluation configuration object (`routing`, `cycle_limit` and
/// optional `latency` model overrides).
///
/// # Errors
///
/// Returns [`CoreError::Spec`] on unknown routing policies or fields.
pub fn eval_from_json(value: &Value) -> Result<EvaluationConfig> {
    let ctx = "eval";
    let mut sim = SimConfig::default();
    if let Some(routing) = get_str(value, "routing", ctx)? {
        sim.routing = match routing.as_str() {
            "adaptive" => RoutingPolicy::Adaptive,
            "dimension-ordered" => RoutingPolicy::DimensionOrdered,
            other => {
                return Err(spec_err(format!(
                    "{ctx}: unknown routing policy `{other}` (expected adaptive or \
                     dimension-ordered)"
                )))
            }
        };
    }
    if let Some(limit) = get_u64(value, "cycle_limit", ctx)? {
        sim.cycle_limit = limit;
    }
    if let Some(latency) = value.get("latency") {
        sim.latency = latency_from_json(latency)?;
    }
    for (key, _) in as_object(value, ctx)? {
        if !matches!(key.as_str(), "routing" | "cycle_limit" | "latency") {
            return Err(spec_err(format!("{ctx}: unknown field `{key}`")));
        }
    }
    Ok(EvaluationConfig::default().with_sim(sim))
}

/// Largest accepted gate latency in cycles: far above the stock model's
/// ≤ 10 cycles, and small enough that per-target CXX costs and the event
/// wheel's window stay inside 64-bit arithmetic.
const MAX_GATE_LATENCY: u64 = 1 << 32;

fn latency_from_json(value: &Value) -> Result<LatencyModel> {
    let ctx = "eval.latency";
    let mut model = LatencyModel::default();
    for (key, _) in as_object(value, ctx)? {
        let field = match key.as_str() {
            "single_qubit" => &mut model.single_qubit,
            "t_gate" => &mut model.t_gate,
            "cnot" => &mut model.cnot,
            "cxx_per_target" => &mut model.cxx_per_target,
            "inject" => &mut model.inject,
            "measure" => &mut model.measure,
            "init" => &mut model.init,
            other => return Err(spec_err(format!("{ctx}: unknown field `{other}`"))),
        };
        let cycles = get_u64(value, key, ctx)?.expect("key iterated from the object");
        // A zero-cycle gate would hold its cells with no completion event to
        // release them, deadlocking every braid that needs them.
        if cycles == 0 {
            return Err(spec_err(format!(
                "{ctx}: `{key}` of 0 cycles is invalid: a gate latency must be at least 1 cycle"
            )));
        }
        if cycles > MAX_GATE_LATENCY {
            return Err(spec_err(format!(
                "{ctx}: `{key}` of {cycles} cycles exceeds the maximum of {MAX_GATE_LATENCY}"
            )));
        }
        *field = cycles;
    }
    Ok(model)
}

impl SweepSpec {
    /// Decodes a sweep declared as JSON data (see the [module docs](self) for
    /// the format).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Spec`] describing the offending field on any
    /// malformed input, and propagates factory-configuration errors.
    pub fn from_json(text: &str) -> Result<Self> {
        let root = serde_json::from_str(text)
            .map_err(|e| spec_err(format!("sweep spec is not valid JSON: {e}")))?;
        Self::from_value(&root)
    }

    /// Decodes an already-parsed sweep-spec document — the embedded form used
    /// by the service protocol, where the spec is one field of a request
    /// object.
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::from_json`].
    pub fn from_value(root: &Value) -> Result<Self> {
        let ctx = "sweep";
        let name = get_str(root, "name", ctx)?
            .ok_or_else(|| spec_err(format!("{ctx}: missing `name`")))?;
        let eval = match root.get("eval") {
            Some(v) => eval_from_json(v)?,
            None => EvaluationConfig::default(),
        };
        let mut spec = SweepSpec::new(name, eval);
        if get_bool(root, "collect_breakdowns", ctx)?.unwrap_or(false) {
            spec = spec.with_breakdowns();
        }
        if get_bool(root, "collect_mapping_metrics", ctx)?.unwrap_or(false) {
            spec = spec.with_mapping_metrics();
        }
        if let Some(cache) = get_bool(root, "cache", ctx)? {
            spec = spec.with_eval_cache(cache);
        }
        if let Some(lanes) = get_u64(root, "lanes", ctx)? {
            spec = spec.with_lanes(lanes as usize);
        }
        if let Some(dir) = get_str(root, "cache_dir", ctx)? {
            spec = spec.with_cache_dir(dir);
        }
        if let Some(points) = root.get("points") {
            for (i, point) in as_array(points, "points")?.iter().enumerate() {
                let ctx = format!("points[{i}]");
                let label = get_str(point, "label", &ctx)?
                    .ok_or_else(|| spec_err(format!("{ctx}: missing `label`")))?;
                let factory = point
                    .get("factory")
                    .ok_or_else(|| spec_err(format!("{ctx}: missing `factory`")))
                    .and_then(factory_from_json)?;
                let strategy = point
                    .get("strategy")
                    .ok_or_else(|| spec_err(format!("{ctx}: missing `strategy`")))
                    .and_then(strategy_from_json)?;
                spec = spec.point(label, factory, strategy);
            }
        }
        if let Some(grids) = root.get("grids") {
            for (i, grid) in as_array(grids, "grids")?.iter().enumerate() {
                let ctx = format!("grids[{i}]");
                let label = get_str(grid, "label", &ctx)?
                    .ok_or_else(|| spec_err(format!("{ctx}: missing `label`")))?;
                let factories: Vec<FactoryConfig> = grid
                    .get("factories")
                    .ok_or_else(|| spec_err(format!("{ctx}: missing `factories`")))
                    .and_then(|v| as_array(v, &format!("{ctx}.factories")))?
                    .iter()
                    .map(factory_from_json)
                    .collect::<Result<_>>()?;
                let strategies: Vec<Strategy> = grid
                    .get("strategies")
                    .ok_or_else(|| spec_err(format!("{ctx}: missing `strategies`")))
                    .and_then(|v| as_array(v, &format!("{ctx}.strategies")))?
                    .iter()
                    .map(strategy_from_json)
                    .collect::<Result<_>>()?;
                let seeds: Option<Vec<u64>> = match grid.get("seeds") {
                    None => None,
                    Some(v) => {
                        let seeds: Vec<u64> = as_array(v, &format!("{ctx}.seeds"))?
                            .iter()
                            .map(|s| {
                                s.as_u64().ok_or_else(|| {
                                    spec_err(format!("{ctx}.seeds: expected non-negative integers"))
                                })
                            })
                            .collect::<Result<_>>()?;
                        // A repeated seed would silently duplicate every row
                        // of the grid; reject it as a spec error instead.
                        let mut sorted = seeds.clone();
                        sorted.sort_unstable();
                        if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
                            return Err(spec_err(format!(
                                "{ctx}.seeds: duplicate seed {}",
                                dup[0]
                            )));
                        }
                        Some(seeds)
                    }
                };
                let expanded = factories
                    .len()
                    .saturating_mul(strategies.len())
                    .saturating_mul(seeds.as_ref().map_or(1, Vec::len));
                if spec.points.len().saturating_add(expanded) > MAX_SWEEP_POINTS {
                    return Err(spec_err(format!(
                        "{ctx}: the sweep expands to more than {MAX_SWEEP_POINTS} points"
                    )));
                }
                for factory in &factories {
                    for strategy in &strategies {
                        match &seeds {
                            None => spec = spec.point(label.clone(), *factory, strategy.clone()),
                            Some(seeds) => {
                                for &seed in seeds {
                                    spec = spec.point(
                                        label.clone(),
                                        *factory,
                                        strategy.clone().with_param("seed", ParamValue::U64(seed)),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        for (key, _) in as_object(root, ctx)? {
            if !matches!(
                key.as_str(),
                "name"
                    | "eval"
                    | "collect_breakdowns"
                    | "collect_mapping_metrics"
                    | "cache"
                    | "cache_dir"
                    | "lanes"
                    | "points"
                    | "grids"
            ) {
                return Err(spec_err(format!("{ctx}: unknown field `{key}`")));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_accepts_k_or_capacity() {
        let by_k =
            factory_from_json(&serde_json::from_str(r#"{"k": 4, "levels": 2}"#).unwrap()).unwrap();
        assert_eq!(by_k, FactoryConfig::two_level(4));
        let by_cap = factory_from_json(
            &serde_json::from_str(r#"{"capacity": 16, "levels": 2, "reuse": "NR"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            by_cap,
            FactoryConfig::two_level(4).with_reuse(ReusePolicy::NoReuse)
        );
        for bad in [
            r#"{"levels": 2}"#,
            r#"{"k": 2, "capacity": 4}"#,
            r#"{"k": 2, "reuse": "maybe"}"#,
            r#"{"k": 2, "unknown": 1}"#,
            r#"{"capacity": 5, "levels": 2}"#,
        ] {
            assert!(
                factory_from_json(&serde_json::from_str(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn strategies_parse_to_constructor_equivalents() {
        let cases: Vec<(&str, Strategy)> = vec![
            (r#"{"strategy": "random", "seed": 7}"#, Strategy::random(7)),
            (
                r#"{"strategy": "random", "seed": 7, "expansion": 1.5}"#,
                Strategy::random_with_slack(7, 1.5),
            ),
            (r#"{"strategy": "linear"}"#, Strategy::linear()),
            (
                r#"{"strategy": "graph_partition", "seed": 42}"#,
                Strategy::graph_partition(42),
            ),
        ];
        for (text, expected) in cases {
            let parsed = strategy_from_json(&serde_json::from_str(text).unwrap()).unwrap();
            assert_eq!(parsed, expected, "{text}");
        }
    }

    #[test]
    fn custom_labels_and_keys_pass_through() {
        let parsed = strategy_from_json(
            &serde_json::from_str(r#"{"strategy": "my_mapper", "label": "Mine", "alpha": 0.5}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(parsed.key(), "my_mapper");
        assert_eq!(parsed.short_name(), "Mine");
        assert_eq!(parsed.params().get("alpha"), Some(&ParamValue::F64(0.5)));
    }

    #[test]
    fn eval_parses_routing_and_limits() {
        let eval = eval_from_json(
            &serde_json::from_str(r#"{"routing": "dimension-ordered", "cycle_limit": 1000}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(eval.sim.routing, RoutingPolicy::DimensionOrdered);
        assert_eq!(eval.sim.cycle_limit, 1000);
        assert!(
            eval_from_json(&serde_json::from_str(r#"{"routing": "psychic"}"#).unwrap()).is_err()
        );
    }

    #[test]
    fn sweep_spec_round_trips_a_hand_built_grid() {
        let json = r#"{
            "name": "demo",
            "eval": {"routing": "dimension-ordered"},
            "grids": [
                {"label": "g",
                 "factories": [{"k": 2}, {"k": 4}],
                 "strategies": [{"strategy": "linear"},
                                 {"strategy": "random", "seed": 7}]}
            ],
            "points": [
                {"label": "hs", "factory": {"k": 2, "levels": 2},
                 "strategy": {"strategy": "hierarchical_stitching"}}
            ]
        }"#;
        let parsed = SweepSpec::from_json(json).unwrap();
        let eval = EvaluationConfig::default().with_sim(SimConfig::dimension_ordered());
        let hand = SweepSpec::new("demo", eval)
            .point(
                "hs",
                FactoryConfig::two_level(2),
                Strategy::hierarchical_stitching(Default::default()),
            )
            .grid(
                "g",
                &[
                    FactoryConfig::single_level(2),
                    FactoryConfig::single_level(4),
                ],
                |_| vec![Strategy::linear(), Strategy::random(7)],
            );
        assert_eq!(parsed, hand);
    }

    #[test]
    fn grid_seeds_multiply_strategies() {
        let json = r#"{
            "name": "seeded",
            "grids": [
                {"label": "g",
                 "factories": [{"k": 2}],
                 "strategies": [{"strategy": "random"}],
                 "seeds": [1, 2, 3]}
            ]
        }"#;
        let spec = SweepSpec::from_json(json).unwrap();
        assert_eq!(spec.points.len(), 3);
        let expected: Vec<Strategy> = [1u64, 2, 3].iter().map(|&s| Strategy::random(s)).collect();
        for (point, want) in spec.points.iter().zip(expected) {
            assert_eq!(point.strategy, want);
        }
    }

    #[test]
    fn lanes_knob_decodes_and_defaults() {
        let spec = SweepSpec::from_json(r#"{"name": "x", "lanes": 4}"#).unwrap();
        assert_eq!(spec.lanes, 4);
        let off = SweepSpec::from_json(r#"{"name": "x", "lanes": 0}"#).unwrap();
        assert_eq!(off.lanes, 0);
        let default = SweepSpec::from_json(r#"{"name": "x"}"#).unwrap();
        assert_eq!(default.lanes, crate::DEFAULT_LANES);
        assert!(SweepSpec::from_json(r#"{"name": "x", "lanes": "many"}"#).is_err());
    }

    #[test]
    fn duplicate_grid_seeds_are_rejected() {
        let json = r#"{
            "name": "seeded",
            "grids": [
                {"label": "g",
                 "factories": [{"k": 2}],
                 "strategies": [{"strategy": "random"}],
                 "seeds": [1, 2, 1]}
            ]
        }"#;
        let err = SweepSpec::from_json(json).expect_err("duplicate seeds must fail");
        let msg = err.to_string();
        assert!(msg.contains("duplicate seed 1"), "{msg}");
        assert!(msg.contains("grids[0].seeds"), "{msg}");
    }

    #[test]
    fn malformed_specs_name_the_offending_field() {
        // 1 000 factories x 1 000 strategies x 2 000 seeds once aborted on
        // its allocation; it must be refused before any point is pushed.
        let huge_grid = format!(
            r#"{{"name": "x", "grids": [{{"label": "g", "factories": [{}], "strategies": [{}], "seeds": [{}]}}]}}"#,
            vec![r#"{"k": 2}"#; 1000].join(","),
            vec![r#"{"strategy": "random"}"#; 1000].join(","),
            (0..2000)
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        for (bad, needle) in [
            (r#"{"eval": {}}"#, "name"),
            (r#"{"name": "x", "bogus": 1}"#, "bogus"),
            (r#"{"name": "x", "grids": [{"label": "g"}]}"#, "factories"),
            (
                r#"{"name": "x", "points": [{"label": "p", "factory": {"k": 2}}]}"#,
                "strategy",
            ),
            (r#"not json"#, "JSON"),
            (huge_grid.as_str(), "more than"),
            (
                r#"{"name": "x", "eval": {"latency": {"cnot": 9223372036854775809}}}"#,
                "`cnot` of 9223372036854775809 cycles exceeds",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"cxx_per_target": 9223372036854775807}}}"#,
                "`cxx_per_target` of 9223372036854775807 cycles exceeds",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"single_qubit": 0}}}"#,
                "`single_qubit` of 0 cycles is invalid",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"t_gate": 0}}}"#,
                "`t_gate` of 0 cycles is invalid",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"cnot": 0}}}"#,
                "`cnot` of 0 cycles is invalid",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"cxx_per_target": 0}}}"#,
                "`cxx_per_target` of 0 cycles is invalid",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"inject": 0}}}"#,
                "`inject` of 0 cycles is invalid",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"measure": 0}}}"#,
                "`measure` of 0 cycles is invalid",
            ),
            (
                r#"{"name": "x", "eval": {"latency": {"init": 0}}}"#,
                "must be at least 1 cycle",
            ),
        ] {
            let err = SweepSpec::from_json(bad).expect_err("must fail");
            assert!(err.to_string().contains(needle), "{bad} -> {err}");
        }
    }
}
