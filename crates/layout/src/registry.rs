//! Name dispatch over the paper's five mapping strategies.
//!
//! The paper evaluates a fixed line-up of five placement strategies, and
//! [`build_mapper`] turns a `(name, params)` pair into one of them as a boxed
//! [`FactoryMapper`]. It matches five keys:
//!
//! | key                        | mapper                              | params |
//! |----------------------------|-------------------------------------|--------|
//! | `random`                   | [`RandomMapper`]                    | `seed`, `expansion` |
//! | `linear`                   | [`LinearMapper`]                    | — |
//! | `force_directed`           | [`ForceDirectedMapper`]             | `seed`, `iterations`, `attraction`, `repulsion`, `dipole`, `dipole_cutoff`, `repulsion_sample`, `use_communities`, `community_interval`, `temperature`, `cooling`, `weight_edge_length`, `weight_crossing` |
//! | `graph_partition`          | [`GraphPartitionMapper`]            | `seed` |
//! | `hierarchical_stitching`   | [`HierarchicalStitchingMapper`]     | `seed`, `hop_strategy`, `reassign_ports`, `hop_anneal_passes`, `block_gap` |
//!
//! Parameters travel as a [`MapperParams`] bag of typed values, which is what
//! makes strategies declarable as *data* (e.g. a JSON sweep spec) rather than
//! code. Building is strict: an unknown parameter key or a type mismatch is
//! an error, not a silent default, so a typo in a spec file cannot quietly
//! change an experiment.
//!
//! # Example
//!
//! ```
//! use msfu_distill::{Factory, FactoryConfig};
//! use msfu_layout::{build_mapper, MapperParams};
//!
//! let params = MapperParams::new().with_u64("seed", 7);
//! let mapper = build_mapper("random", &params).unwrap();
//! let factory = Factory::build(&FactoryConfig::single_level(2)).unwrap();
//! assert!(mapper.map_factory(&factory).unwrap().mapping.is_complete());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Serialize, Value};

use crate::{
    FactoryMapper, ForceDirectedConfig, ForceDirectedMapper, GraphPartitionMapper,
    HierarchicalStitchingMapper, HopStrategy, LayoutError, LinearMapper, RandomMapper, Result,
    StitchingConfig,
};

/// A single typed mapper parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Unsigned integer (seeds, iteration counts, sample sizes).
    U64(u64),
    /// Floating point (force strengths, temperatures, expansion factors).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// String (e.g. a hop-strategy name).
    Str(String),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::F64(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Serialize for ParamValue {
    fn to_value(&self) -> Value {
        match self {
            ParamValue::U64(v) => Value::UInt(*v),
            ParamValue::F64(v) => Value::Float(*v),
            ParamValue::Bool(v) => Value::Bool(*v),
            ParamValue::Str(v) => Value::Str(v.clone()),
        }
    }
}

/// An ordered bag of named, typed mapper parameters.
///
/// Keys are kept sorted so two parameter sets constructed in different orders
/// compare (and serialize) identically. The canonical form is *sparse*:
/// conversions from the concrete config structs only record values that
/// differ from that config's defaults, so a params bag written by hand, read
/// from JSON, or produced by [`MapperParams::from`] a config all agree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MapperParams(BTreeMap<String, ParamValue>);

impl MapperParams {
    /// Creates an empty parameter bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a raw parameter value (builder style).
    pub fn with(mut self, key: impl Into<String>, value: ParamValue) -> Self {
        self.0.insert(key.into(), value);
        self
    }

    /// Sets an unsigned-integer parameter (builder style).
    pub fn with_u64(self, key: impl Into<String>, value: u64) -> Self {
        self.with(key, ParamValue::U64(value))
    }

    /// Sets a floating-point parameter (builder style).
    pub fn with_f64(self, key: impl Into<String>, value: f64) -> Self {
        self.with(key, ParamValue::F64(value))
    }

    /// Sets a boolean parameter (builder style).
    pub fn with_bool(self, key: impl Into<String>, value: bool) -> Self {
        self.with(key, ParamValue::Bool(value))
    }

    /// Sets a string parameter (builder style).
    pub fn with_str(self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.with(key, ParamValue::Str(value.into()))
    }

    /// Inserts a parameter value in place, returning the previous value.
    pub fn set(&mut self, key: impl Into<String>, value: ParamValue) -> Option<ParamValue> {
        self.0.insert(key.into(), value)
    }

    /// The raw value under `key`.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.0.get(key)
    }

    /// Whether the bag holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl Serialize for MapperParams {
    fn to_value(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

/// Sparse canonical parameters of a [`ForceDirectedConfig`]: only values that
/// differ from [`ForceDirectedConfig::default`] are recorded.
impl From<ForceDirectedConfig> for MapperParams {
    fn from(cfg: ForceDirectedConfig) -> Self {
        let d = ForceDirectedConfig::default();
        let mut p = MapperParams::new();
        if cfg.seed != d.seed {
            p.set("seed", ParamValue::U64(cfg.seed));
        }
        if cfg.iterations != d.iterations {
            p.set("iterations", ParamValue::U64(cfg.iterations as u64));
        }
        if cfg.attraction != d.attraction {
            p.set("attraction", ParamValue::F64(cfg.attraction));
        }
        if cfg.repulsion != d.repulsion {
            p.set("repulsion", ParamValue::F64(cfg.repulsion));
        }
        if cfg.dipole != d.dipole {
            p.set("dipole", ParamValue::F64(cfg.dipole));
        }
        if cfg.dipole_cutoff != d.dipole_cutoff {
            p.set("dipole_cutoff", ParamValue::F64(cfg.dipole_cutoff));
        }
        if cfg.repulsion_sample != d.repulsion_sample {
            p.set(
                "repulsion_sample",
                ParamValue::U64(cfg.repulsion_sample as u64),
            );
        }
        if cfg.use_communities != d.use_communities {
            p.set("use_communities", ParamValue::Bool(cfg.use_communities));
        }
        if cfg.community_interval != d.community_interval {
            p.set(
                "community_interval",
                ParamValue::U64(cfg.community_interval as u64),
            );
        }
        if cfg.temperature != d.temperature {
            p.set("temperature", ParamValue::F64(cfg.temperature));
        }
        if cfg.cooling != d.cooling {
            p.set("cooling", ParamValue::F64(cfg.cooling));
        }
        if cfg.weights.edge_length != d.weights.edge_length {
            p.set(
                "weight_edge_length",
                ParamValue::F64(cfg.weights.edge_length),
            );
        }
        if cfg.weights.crossing != d.weights.crossing {
            p.set("weight_crossing", ParamValue::F64(cfg.weights.crossing));
        }
        p
    }
}

/// Sparse canonical parameters of a [`StitchingConfig`]: only values that
/// differ from [`StitchingConfig::default`] are recorded.
impl From<StitchingConfig> for MapperParams {
    fn from(cfg: StitchingConfig) -> Self {
        let d = StitchingConfig::default();
        let mut p = MapperParams::new();
        if cfg.seed != d.seed {
            p.set("seed", ParamValue::U64(cfg.seed));
        }
        if cfg.hop_strategy != d.hop_strategy {
            p.set(
                "hop_strategy",
                ParamValue::Str(cfg.hop_strategy.name().to_string()),
            );
        }
        if cfg.reassign_ports != d.reassign_ports {
            p.set("reassign_ports", ParamValue::Bool(cfg.reassign_ports));
        }
        if cfg.hop_anneal_passes != d.hop_anneal_passes {
            p.set(
                "hop_anneal_passes",
                ParamValue::U64(cfg.hop_anneal_passes as u64),
            );
        }
        if cfg.block_gap != d.block_gap {
            p.set("block_gap", ParamValue::U64(cfg.block_gap as u64));
        }
        p
    }
}

/// Strict reader over a [`MapperParams`] bag: typed accessors with defaults,
/// plus detection of unknown keys so a misspelled parameter is an error.
pub(crate) struct ParamReader<'a> {
    mapper: &'a str,
    params: &'a MapperParams,
    consumed: BTreeSet<&'a str>,
}

impl<'a> ParamReader<'a> {
    /// Starts reading `params` on behalf of mapper `mapper` (used in errors).
    pub(crate) fn new(mapper: &'a str, params: &'a MapperParams) -> Self {
        ParamReader {
            mapper,
            params,
            consumed: BTreeSet::new(),
        }
    }

    fn mismatch(&self, key: &str, want: &str, got: &ParamValue) -> LayoutError {
        LayoutError::InvalidMapperParam {
            mapper: self.mapper.to_string(),
            reason: format!("parameter `{key}` must be {want}, got `{got}`"),
        }
    }

    fn take(&mut self, key: &'a str) -> Option<&'a ParamValue> {
        let v = self.params.get(key);
        if v.is_some() {
            self.consumed.insert(key);
        }
        v
    }

    /// Reads an unsigned integer, falling back to `default` when absent.
    pub(crate) fn u64_or(&mut self, key: &'a str, default: u64) -> Result<u64> {
        match self.take(key) {
            None => Ok(default),
            Some(ParamValue::U64(v)) => Ok(*v),
            Some(other) => Err(self.mismatch(key, "an unsigned integer", other)),
        }
    }

    /// Reads a `usize`, falling back to `default` when absent.
    pub(crate) fn usize_or(&mut self, key: &'a str, default: usize) -> Result<usize> {
        Ok(self.u64_or(key, default as u64)? as usize)
    }

    /// Reads a float (integers are accepted and widened), falling back to
    /// `default` when absent.
    pub(crate) fn f64_or(&mut self, key: &'a str, default: f64) -> Result<f64> {
        match self.take(key) {
            None => Ok(default),
            Some(ParamValue::F64(v)) => Ok(*v),
            Some(ParamValue::U64(v)) => Ok(*v as f64),
            Some(other) => Err(self.mismatch(key, "a number", other)),
        }
    }

    /// Reads a boolean, falling back to `default` when absent.
    pub(crate) fn bool_or(&mut self, key: &'a str, default: bool) -> Result<bool> {
        match self.take(key) {
            None => Ok(default),
            Some(ParamValue::Bool(v)) => Ok(*v),
            Some(other) => Err(self.mismatch(key, "a boolean", other)),
        }
    }

    /// Reads a string, falling back to `default` when absent.
    pub(crate) fn str_or(&mut self, key: &'a str, default: &str) -> Result<String> {
        match self.take(key) {
            None => Ok(default.to_string()),
            Some(ParamValue::Str(v)) => Ok(v.clone()),
            Some(other) => Err(self.mismatch(key, "a string", other)),
        }
    }

    /// Finishes reading: any parameter key never consumed by an accessor is
    /// an [`LayoutError::InvalidMapperParam`] (strict by design — a spec typo
    /// must not silently fall back to a default).
    pub(crate) fn finish(self) -> Result<()> {
        let unknown: Vec<&str> = self
            .params
            .iter()
            .map(|(k, _)| k)
            .filter(|k| !self.consumed.contains(k))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(LayoutError::InvalidMapperParam {
                mapper: self.mapper.to_string(),
                reason: format!("unknown parameter(s): {}", unknown.join(", ")),
            })
        }
    }
}

/// Reads a full [`ForceDirectedConfig`] out of a parameter bag (defaults from
/// [`ForceDirectedConfig::default`]); the exact inverse of the
/// `From<ForceDirectedConfig>` conversion.
pub(crate) fn force_directed_config_from_params(
    params: &MapperParams,
) -> Result<ForceDirectedConfig> {
    let d = ForceDirectedConfig::default();
    let mut r = ParamReader::new("force_directed", params);
    let cfg = ForceDirectedConfig {
        seed: r.u64_or("seed", d.seed)?,
        iterations: r.usize_or("iterations", d.iterations)?,
        attraction: r.f64_or("attraction", d.attraction)?,
        repulsion: r.f64_or("repulsion", d.repulsion)?,
        dipole: r.f64_or("dipole", d.dipole)?,
        dipole_cutoff: r.f64_or("dipole_cutoff", d.dipole_cutoff)?,
        repulsion_sample: r.usize_or("repulsion_sample", d.repulsion_sample)?,
        use_communities: r.bool_or("use_communities", d.use_communities)?,
        community_interval: r.usize_or("community_interval", d.community_interval)?,
        temperature: r.f64_or("temperature", d.temperature)?,
        cooling: r.f64_or("cooling", d.cooling)?,
        weights: crate::cost::CostWeights {
            edge_length: r.f64_or("weight_edge_length", d.weights.edge_length)?,
            crossing: r.f64_or("weight_crossing", d.weights.crossing)?,
        },
    };
    r.finish()?;
    Ok(cfg)
}

/// Reads a full [`StitchingConfig`] out of a parameter bag (defaults from
/// [`StitchingConfig::default`]); the exact inverse of the
/// `From<StitchingConfig>` conversion.
pub(crate) fn stitching_config_from_params(params: &MapperParams) -> Result<StitchingConfig> {
    let d = StitchingConfig::default();
    let mut r = ParamReader::new("hierarchical_stitching", params);
    let hop_name = r.str_or("hop_strategy", d.hop_strategy.name())?;
    let hop_strategy =
        HopStrategy::from_name(&hop_name).ok_or_else(|| LayoutError::InvalidMapperParam {
            mapper: "hierarchical_stitching".to_string(),
            reason: format!(
                "unknown hop_strategy `{hop_name}` (expected one of: no-hop, random-hop, \
                 annealed-random-hop, annealed-midpoint-hop)"
            ),
        })?;
    let cfg = StitchingConfig {
        seed: r.u64_or("seed", d.seed)?,
        hop_strategy,
        reassign_ports: r.bool_or("reassign_ports", d.reassign_ports)?,
        hop_anneal_passes: r.usize_or("hop_anneal_passes", d.hop_anneal_passes)?,
        block_gap: r.usize_or("block_gap", d.block_gap)?,
    };
    r.finish()?;
    Ok(cfg)
}

/// The built-in mapper keys, sorted — the `known` list of
/// [`LayoutError::UnknownMapper`] and the keys [`build_mapper`] matches.
const MAPPER_NAMES: [&str; 5] = [
    "force_directed",
    "graph_partition",
    "hierarchical_stitching",
    "linear",
    "random",
];

/// Checks that `name` is one of the five keys [`build_mapper`] matches, so
/// callers can reject an unknown key before building anything.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownMapper`] (listing the five keys, sorted).
pub fn check_mapper_name(name: &str) -> Result<()> {
    if MAPPER_NAMES.contains(&name) {
        Ok(())
    } else {
        Err(unknown_mapper(name))
    }
}

fn unknown_mapper(name: &str) -> LayoutError {
    LayoutError::UnknownMapper {
        name: name.to_string(),
        known: &MAPPER_NAMES,
    }
}

/// Instantiates the mapper named `name` with `params`.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownMapper`] for a name outside the five keys,
/// and [`LayoutError::InvalidMapperParam`] for an unknown parameter key or a
/// type mismatch.
pub fn build_mapper(name: &str, params: &MapperParams) -> Result<Box<dyn FactoryMapper>> {
    Ok(match name {
        "random" => {
            let mut r = ParamReader::new("random", params);
            let seed = r.u64_or("seed", 0)?;
            let expansion = r.f64_or("expansion", 1.0)?;
            r.finish()?;
            Box::new(RandomMapper::new(seed).with_expansion(expansion))
        }
        "linear" => {
            ParamReader::new("linear", params).finish()?;
            Box::new(LinearMapper::new())
        }
        "force_directed" => Box::new(ForceDirectedMapper::with_config(
            force_directed_config_from_params(params)?,
        )),
        "graph_partition" => {
            let mut r = ParamReader::new("graph_partition", params);
            let seed = r.u64_or("seed", 0)?;
            r.finish()?;
            Box::new(GraphPartitionMapper::new(seed))
        }
        "hierarchical_stitching" => Box::new(HierarchicalStitchingMapper::with_config(
            stitching_config_from_params(params)?,
        )),
        _ => return Err(unknown_mapper(name)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::{Factory, FactoryConfig};

    // `build_mapper` returns strategies as trait objects; this fails to
    // compile if `FactoryMapper` ever loses object safety.
    const _: Option<&dyn FactoryMapper> = None;

    fn factory() -> Factory {
        Factory::build(&FactoryConfig::single_level(2)).unwrap()
    }

    #[test]
    fn builtins_are_registered_and_build() {
        let mut sorted = MAPPER_NAMES;
        sorted.sort_unstable();
        assert_eq!(sorted, MAPPER_NAMES, "MAPPER_NAMES must stay sorted");
        let f = factory();
        let cheap_fd = MapperParams::new()
            .with_u64("iterations", 2)
            .with_u64("repulsion_sample", 50);
        for name in MAPPER_NAMES {
            let params = match name {
                "force_directed" => cheap_fd.clone(),
                _ => MapperParams::new(),
            };
            let mapper = build_mapper(name, &params).unwrap();
            assert!(
                mapper.map_factory(&f).unwrap().mapping.is_complete(),
                "{name}"
            );
        }
    }

    #[test]
    fn unknown_name_lists_known_names() {
        let err = build_mapper("does_not_exist", &MapperParams::new())
            .err()
            .expect("lookup fails");
        assert_eq!(err, check_mapper_name("does_not_exist").unwrap_err());
        assert_eq!(
            err.to_string(),
            "no mapping strategy registered under `does_not_exist` (registered: \
             force_directed, graph_partition, hierarchical_stitching, linear, random)"
        );
    }

    #[test]
    fn unknown_parameter_is_rejected() {
        let params = MapperParams::new().with_u64("sede", 1); // typo
        let err = build_mapper("random", &params).err().expect("typo fails");
        assert!(err.to_string().contains("sede"), "{err}");
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let params = MapperParams::new().with_str("seed", "not-a-number");
        assert!(build_mapper("random", &params).is_err());
    }

    #[test]
    fn registry_built_mappers_match_direct_construction() {
        let f = Factory::build(&FactoryConfig::two_level(2)).unwrap();

        let direct = RandomMapper::new(9).map_factory(&f).unwrap();
        let via = build_mapper("random", &MapperParams::new().with_u64("seed", 9))
            .unwrap()
            .map_factory(&f)
            .unwrap();
        assert_eq!(direct, via);

        let cfg = StitchingConfig {
            seed: 4,
            ..StitchingConfig::default()
        };
        let direct = HierarchicalStitchingMapper::with_config(cfg)
            .map_factory(&f)
            .unwrap();
        let via = build_mapper("hierarchical_stitching", &MapperParams::from(cfg))
            .unwrap()
            .map_factory(&f)
            .unwrap();
        assert_eq!(direct, via);
    }

    #[test]
    fn config_param_conversions_round_trip() {
        let fd = ForceDirectedConfig {
            seed: 3,
            iterations: 7,
            repulsion_sample: 123,
            temperature: 1.25,
            ..ForceDirectedConfig::default()
        };
        let params = MapperParams::from(fd);
        // Sparse: unchanged defaults are not recorded.
        assert_eq!(params.len(), 4);
        assert_eq!(force_directed_config_from_params(&params).unwrap(), fd);
        assert_eq!(
            force_directed_config_from_params(&MapperParams::new()).unwrap(),
            ForceDirectedConfig::default()
        );

        let hs = StitchingConfig {
            seed: 8,
            hop_strategy: HopStrategy::RandomHop,
            block_gap: 1,
            ..StitchingConfig::default()
        };
        let params = MapperParams::from(hs);
        assert_eq!(params.len(), 3);
        assert_eq!(stitching_config_from_params(&params).unwrap(), hs);
    }

    #[test]
    fn param_reader_widens_integers_to_floats() {
        let params = MapperParams::new().with_u64("expansion", 2);
        let mut r = ParamReader::new("random", &params);
        assert_eq!(r.f64_or("expansion", 1.0).unwrap(), 2.0);
        r.finish().unwrap();
    }
}
