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
//! Two rules hold for every object of the document, as for every JSON
//! decoder in the workspace (all read through [`Fields`]):
//!
//! * a field set to `null` reads as absent — `"cache_dir": null` is the
//!   same spec as no `cache_dir` at all;
//! * a repeated field is an error (``duplicate field `x` ``), as is any field
//!   the decoder does not read (``unknown field `x` ``).
//!
//! Points are appended in document order: the `points` array first, then
//! every grid (factories × strategies × seeds), at most 100 000 in all. A
//! spec decoded from JSON is structurally equal ([`PartialEq`]) to the same
//! spec built in Rust, and running it produces byte-identical results.

use std::fmt;
use std::result::Result as StdResult;

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

pub(crate) fn spec_err(reason: String) -> CoreError {
    CoreError::Spec { reason }
}

/// A [`Fields`] reader answering [`CoreError::Spec`].
pub(crate) fn fields<'a>(value: &'a Value, ctx: &'a str) -> Result<Fields<'a, CoreError>> {
    Fields::new(value, ctx, spec_err)
}

/// Most fields one JSON object may carry — several times the widest object
/// any decoder reads, and the width of the reader's taken-field mask.
const MAX_FIELDS: usize = 64;

/// A strict reader over the fields of one JSON object: the one set of
/// decoding rules behind every JSON decoder in the workspace (sweep, search
/// and stream specs, service requests, fault plans and the wire records of
/// sharded runs).
///
/// **Take/finish contract.** Each getter *takes* the field it names;
/// [`Fields::finish`] then rejects the first field no getter took. A field
/// is known because it was read, so a decoder's known fields are exactly
/// the fields it reads and no separate list of them exists.
/// [`Fields::rest`] hands the untaken fields to decoders whose remaining
/// fields are open-ended (a strategy's mapper parameters).
///
/// Two rules hold for every decoder:
///
/// * a field set to `null` reads as absent — an optional field takes its
///   default, a required one is missing;
/// * a repeated field is an error (`duplicate field`), reported when the
///   reader is made, whether or not a getter would read it.
///
/// Every error is the decoder's own type, built by the `err` function the
/// reader was made with from a message naming the context and the field:
/// ``{ctx}: `{key}` must be a string``, ``{ctx}: missing `{key}` ``,
/// ``{ctx}: unknown field `{key}` ``. The context is formatted only when an
/// error is reported; a reader allocates nothing itself.
///
/// # Example
///
/// ```
/// use msfu_core::spec::Fields;
///
/// let doc = serde_json::from_str(r#"{"name": "x", "lanes": null, "bogus": 1}"#).unwrap();
/// let mut f = Fields::new(&doc, "demo", |message| message).unwrap();
/// assert_eq!(f.str("name"), Ok("x"));
/// assert_eq!(f.opt_u64("lanes"), Ok(None));
/// assert_eq!(f.finish(), Err("demo: unknown field `bogus`".to_string()));
/// ```
pub struct Fields<'a, E> {
    entries: &'a [(String, Value)],
    ctx: &'a str,
    index: Option<usize>,
    /// Bit `i` is set once entry `i` has been taken.
    taken: u64,
    err: fn(String) -> E,
}

impl<'a, E> Fields<'a, E> {
    /// Starts reading `value`, which must be a JSON object, on behalf of the
    /// decoder of `ctx`.
    ///
    /// # Errors
    ///
    /// When `value` is not an object, has more than 64 fields or repeats a
    /// field.
    pub fn new(value: &'a Value, ctx: &'a str, err: fn(String) -> E) -> StdResult<Self, E> {
        Self::open(value, ctx, None, err)
    }

    /// As [`Fields::new`] for element `index` of the array `ctx`; errors
    /// name the context `ctx[index]`.
    ///
    /// # Errors
    ///
    /// As [`Fields::new`].
    pub fn item(
        value: &'a Value,
        ctx: &'a str,
        index: usize,
        err: fn(String) -> E,
    ) -> StdResult<Self, E> {
        Self::open(value, ctx, Some(index), err)
    }

    fn open(
        value: &'a Value,
        ctx: &'a str,
        index: Option<usize>,
        err: fn(String) -> E,
    ) -> StdResult<Self, E> {
        let mut fields = Fields {
            entries: &[],
            ctx,
            index,
            taken: 0,
            err,
        };
        let Value::Object(entries) = value else {
            return Err(fields.error("must be a JSON object"));
        };
        if entries.len() > MAX_FIELDS {
            return Err(fields.error(format_args!("more than {MAX_FIELDS} fields")));
        }
        for (i, (key, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(seen, _)| seen == key) {
                return Err(fields.error(format_args!("duplicate field `{key}`")));
            }
        }
        fields.entries = entries;
        Ok(fields)
    }

    /// The decoder's error for `message`, prefixed with the reader's
    /// context.
    pub fn error(&self, message: impl fmt::Display) -> E {
        (self.err)(match self.index {
            Some(i) => format!("{}[{i}]: {message}", self.ctx),
            None => format!("{}: {message}", self.ctx),
        })
    }

    /// Takes `key`, reading `null` as absent.
    fn take(&mut self, key: &str) -> Option<&'a Value> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        self.taken |= 1 << i;
        Some(&self.entries[i].1).filter(|v| !matches!(v, Value::Null))
    }

    fn read<T>(
        &mut self,
        key: &str,
        want: &str,
        cast: impl FnOnce(&'a Value) -> Option<T>,
    ) -> StdResult<Option<T>, E> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => match cast(v) {
                Some(t) => Ok(Some(t)),
                None => Err(self.error(format_args!("`{key}` must be {want}"))),
            },
        }
    }

    fn need<T>(
        &mut self,
        key: &str,
        want: &str,
        cast: impl FnOnce(&'a Value) -> Option<T>,
    ) -> StdResult<T, E> {
        match self.read(key, want, cast)? {
            Some(t) => Ok(t),
            None => Err(self.error(format_args!("missing `{key}`"))),
        }
    }

    /// An optional string field.
    ///
    /// # Errors
    ///
    /// When the field is present and not a string.
    pub fn opt_str(&mut self, key: &str) -> StdResult<Option<&'a str>, E> {
        self.read(key, "a string", Value::as_str)
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a string.
    pub fn str(&mut self, key: &str) -> StdResult<&'a str, E> {
        self.need(key, "a string", Value::as_str)
    }

    /// An optional non-negative integer field.
    ///
    /// # Errors
    ///
    /// When the field is present and not a non-negative integer.
    pub fn opt_u64(&mut self, key: &str) -> StdResult<Option<u64>, E> {
        self.read(key, "a non-negative integer", Value::as_u64)
    }

    /// A required non-negative integer field.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a non-negative integer.
    pub fn u64(&mut self, key: &str) -> StdResult<u64, E> {
        self.need(key, "a non-negative integer", Value::as_u64)
    }

    /// A required number field (integers are widened).
    ///
    /// # Errors
    ///
    /// When the field is missing or not a number.
    pub fn f64(&mut self, key: &str) -> StdResult<f64, E> {
        self.need(key, "a number", Value::as_f64)
    }

    /// An optional boolean field.
    ///
    /// # Errors
    ///
    /// When the field is present and not a boolean.
    pub fn opt_bool(&mut self, key: &str) -> StdResult<Option<bool>, E> {
        self.read(key, "a boolean", Value::as_bool)
    }

    /// An optional array field.
    ///
    /// # Errors
    ///
    /// When the field is present and not an array.
    pub fn opt_array(&mut self, key: &str) -> StdResult<Option<&'a [Value]>, E> {
        self.read(key, "an array", |v| v.as_array().map(Vec::as_slice))
    }

    /// A required array field.
    ///
    /// # Errors
    ///
    /// When the field is missing or not an array.
    pub fn array(&mut self, key: &str) -> StdResult<&'a [Value], E> {
        self.need(key, "an array", |v| v.as_array().map(Vec::as_slice))
    }

    /// An optional field of any type, for a nested decoder to read.
    pub fn opt_value(&mut self, key: &str) -> Option<&'a Value> {
        self.take(key)
    }

    /// A required field of any type, for a nested decoder to read.
    ///
    /// # Errors
    ///
    /// When the field is missing.
    pub fn value(&mut self, key: &str) -> StdResult<&'a Value, E> {
        self.need(key, "present", Some)
    }

    /// The fields no getter took, in document order (`null`s skipped as
    /// absent). A decoder that reads its remaining fields this way needs no
    /// [`Fields::finish`].
    pub fn rest(&self) -> impl Iterator<Item = (&'a str, &'a Value)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|&(i, (_, v))| self.taken & (1 << i) == 0 && !matches!(v, Value::Null))
            .map(|(_, (k, v))| (k.as_str(), v))
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// ``unknown field `{key}` `` for the first field no getter took.
    pub fn finish(self) -> StdResult<(), E> {
        match (0..self.entries.len()).find(|&i| self.taken & (1 << i) == 0) {
            None => Ok(()),
            Some(i) => Err(self.error(format_args!("unknown field `{}`", self.entries[i].0))),
        }
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
    let mut f = fields(value, "factory")?;
    let levels = f.opt_u64("levels")?.unwrap_or(1) as usize;
    let mut config = match (f.opt_u64("k")?, f.opt_u64("capacity")?) {
        (Some(k), None) => FactoryConfig::new(k as usize, levels),
        (None, Some(capacity)) => FactoryConfig::from_total_capacity(capacity as usize, levels)?,
        (Some(_), Some(_)) => {
            return Err(f.error("give either `k` (per level) or `capacity` (total), not both"))
        }
        (None, None) => return Err(f.error("missing `k` or `capacity`")),
    };
    if let Some(reuse) = f.opt_str("reuse")? {
        config.reuse = match reuse {
            "R" | "Reuse" | "reuse" => ReusePolicy::Reuse,
            "NR" | "NoReuse" | "no-reuse" => ReusePolicy::NoReuse,
            other => {
                return Err(f.error(format_args!(
                    "unknown reuse policy `{other}` (expected R or NR)"
                )))
            }
        };
    }
    if let Some(barriers) = f.opt_bool("barriers")? {
        config.barriers = barriers;
    }
    f.finish()?;
    Ok(config)
}

/// Converts the untaken fields of a strategy or ladder object into a typed
/// mapper-parameter bag. Non-negative integers become `U64` (seeds,
/// counts), everything else numeric becomes `F64`.
fn params_from_rest(f: &Fields<'_, CoreError>) -> Result<MapperParams> {
    let mut params = MapperParams::new();
    for (field, value) in f.rest() {
        let value = match value {
            Value::UInt(u) => ParamValue::U64(*u),
            Value::Int(i) if *i >= 0 => ParamValue::U64(*i as u64),
            Value::Int(i) => ParamValue::F64(*i as f64),
            Value::Float(x) => ParamValue::F64(*x),
            Value::Bool(b) => ParamValue::Bool(*b),
            Value::Str(s) => ParamValue::Str(s.clone()),
            _ => {
                return Err(f.error(format_args!(
                    "parameter `{field}` must be a number, boolean or string"
                )))
            }
        };
        params.set(field, value);
    }
    Ok(params)
}

/// Decodes a JSON object into a [`MapperParams`] bag (every field becomes a
/// typed parameter — used for ladder entries of a search portfolio).
///
/// # Errors
///
/// Returns [`CoreError::Spec`] when the value is not an object of scalars.
pub fn params_from_json(value: &Value) -> Result<MapperParams> {
    params_from_rest(&fields(value, "params")?)
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
    let mut f = fields(value, "strategy")?;
    let key = f.str("strategy")?;
    let label = f.opt_str("label")?;
    let strategy = Strategy::new(key, params_from_rest(&f)?);
    Ok(match label {
        Some(label) => strategy.with_label(label),
        None => strategy,
    })
}

/// Decodes an evaluation configuration object (`routing`, `cycle_limit` and
/// optional `latency` model overrides).
///
/// # Errors
///
/// Returns [`CoreError::Spec`] on unknown routing policies or fields.
pub fn eval_from_json(value: &Value) -> Result<EvaluationConfig> {
    let mut f = fields(value, "eval")?;
    let mut sim = SimConfig::default();
    if let Some(routing) = f.opt_str("routing")? {
        sim.routing = match routing {
            "adaptive" => RoutingPolicy::Adaptive,
            "dimension-ordered" => RoutingPolicy::DimensionOrdered,
            other => {
                return Err(f.error(format_args!(
                    "unknown routing policy `{other}` (expected adaptive or dimension-ordered)"
                )))
            }
        };
    }
    if let Some(limit) = f.opt_u64("cycle_limit")? {
        sim.cycle_limit = limit;
    }
    if let Some(latency) = f.opt_value("latency") {
        sim.latency = latency_from_json(latency)?;
    }
    f.finish()?;
    Ok(EvaluationConfig::default().with_sim(sim))
}

/// Largest accepted gate latency in cycles: far above the stock model's
/// ≤ 10 cycles, and small enough that per-target CXX costs and the event
/// wheel's window stay inside 64-bit arithmetic.
const MAX_GATE_LATENCY: u64 = 1 << 32;

fn latency_from_json(value: &Value) -> Result<LatencyModel> {
    let mut f = fields(value, "eval.latency")?;
    let mut model = LatencyModel::default();
    for (key, slot) in [
        ("single_qubit", &mut model.single_qubit),
        ("t_gate", &mut model.t_gate),
        ("cnot", &mut model.cnot),
        ("cxx_per_target", &mut model.cxx_per_target),
        ("inject", &mut model.inject),
        ("measure", &mut model.measure),
        ("init", &mut model.init),
    ] {
        let Some(cycles) = f.opt_u64(key)? else {
            continue;
        };
        // A zero-cycle gate would hold its cells with no completion event to
        // release them, deadlocking every braid that needs them.
        if cycles == 0 {
            return Err(f.error(format_args!(
                "`{key}` of 0 cycles is invalid: a gate latency must be at least 1 cycle"
            )));
        }
        if cycles > MAX_GATE_LATENCY {
            return Err(f.error(format_args!(
                "`{key}` of {cycles} cycles exceeds the maximum of {MAX_GATE_LATENCY}"
            )));
        }
        *slot = cycles;
    }
    f.finish()?;
    Ok(model)
}

/// The `seeds` of grid `i`: non-negative integers, none repeated (a repeated
/// seed would silently duplicate every row of the grid).
fn grid_seeds(i: usize, seeds: &[Value]) -> Result<Vec<u64>> {
    let seeds: Vec<u64> = seeds
        .iter()
        .map(|s| {
            s.as_u64().ok_or_else(|| {
                spec_err(format!("grids[{i}].seeds: expected non-negative integers"))
            })
        })
        .collect::<Result<_>>()?;
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(spec_err(format!(
            "grids[{i}].seeds: duplicate seed {}",
            dup[0]
        )));
    }
    Ok(seeds)
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
        let mut f = fields(root, "sweep")?;
        let name = f.str("name")?;
        let eval = match f.opt_value("eval") {
            Some(v) => eval_from_json(v)?,
            None => EvaluationConfig::default(),
        };
        let mut spec = SweepSpec::new(name, eval);
        if f.opt_bool("collect_breakdowns")?.unwrap_or(false) {
            spec = spec.with_breakdowns();
        }
        if f.opt_bool("collect_mapping_metrics")?.unwrap_or(false) {
            spec = spec.with_mapping_metrics();
        }
        if let Some(cache) = f.opt_bool("cache")? {
            spec = spec.with_eval_cache(cache);
        }
        if let Some(lanes) = f.opt_u64("lanes")? {
            spec = spec.with_lanes(lanes as usize);
        }
        if let Some(dir) = f.opt_str("cache_dir")? {
            spec = spec.with_cache_dir(dir);
        }
        for (i, point) in f
            .opt_array("points")?
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            let mut p = Fields::item(point, "points", i, spec_err)?;
            let label = p.str("label")?;
            let factory = factory_from_json(p.value("factory")?)?;
            let strategy = strategy_from_json(p.value("strategy")?)?;
            p.finish()?;
            spec = spec.point(label, factory, strategy);
        }
        for (i, grid) in f.opt_array("grids")?.unwrap_or_default().iter().enumerate() {
            let mut g = Fields::item(grid, "grids", i, spec_err)?;
            let label = g.str("label")?;
            let factories: Vec<FactoryConfig> = g
                .array("factories")?
                .iter()
                .map(factory_from_json)
                .collect::<Result<_>>()?;
            let strategies: Vec<Strategy> = g
                .array("strategies")?
                .iter()
                .map(strategy_from_json)
                .collect::<Result<_>>()?;
            let seeds = match g.opt_array("seeds")? {
                Some(seeds) => Some(grid_seeds(i, seeds)?),
                None => None,
            };
            g.finish()?;
            let expanded = factories
                .len()
                .saturating_mul(strategies.len())
                .saturating_mul(seeds.as_ref().map_or(1, Vec::len));
            if spec.points.len().saturating_add(expanded) > MAX_SWEEP_POINTS {
                return Err(spec_err(format!(
                    "grids[{i}]: the sweep expands to more than {MAX_SWEEP_POINTS} points"
                )));
            }
            for factory in &factories {
                for strategy in &strategies {
                    match &seeds {
                        None => spec = spec.point(label, *factory, strategy.clone()),
                        Some(seeds) => {
                            for &seed in seeds {
                                spec = spec.point(
                                    label,
                                    *factory,
                                    strategy.clone().with_param("seed", ParamValue::U64(seed)),
                                );
                            }
                        }
                    }
                }
            }
        }
        f.finish()?;
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
