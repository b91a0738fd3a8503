//! Mapping strategies as named line-up entries.
//!
//! A [`Strategy`] names one of the five strategies of the paper's Table I
//! (the keys [`msfu_layout::build_mapper`] matches) plus the parameter bag to
//! instantiate it with and a short display label. Each has a dedicated
//! constructor ([`Strategy::random`], [`Strategy::linear`],
//! [`Strategy::force_directed`], [`Strategy::graph_partition`],
//! [`Strategy::hierarchical_stitching`]), and a strategy is plain *data* —
//! constructible from a JSON sweep spec with no Rust changes (see
//! [`crate::spec`]).

use msfu_distill::Factory;
use msfu_layout::{
    build_mapper, ForceDirectedConfig, Layout, MapperParams, ParamValue, StitchingConfig,
};
use serde::{Serialize, Value};

use crate::Result;

/// A qubit-mapping strategy: a line-up key, its instantiation parameters and
/// a report label.
///
/// Equality is structural (same key, same label, same parameters), and the
/// whole value is plain data — no closures, no trait objects — so strategies
/// can be compared, hashed into sweep grids, serialized into reports and
/// declared in JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    key: String,
    label: String,
    params: MapperParams,
}

impl Strategy {
    /// Creates a strategy for line-up key `key` with `params`. The label
    /// (see [`Strategy::with_label`]) defaults to the paper's Table I row
    /// name for the five line-up keys — "Random+S" for a `random` strategy
    /// with an `expansion` parameter — and to the key itself otherwise.
    pub fn new(key: impl Into<String>, params: MapperParams) -> Self {
        let key = key.into();
        let label = match key.as_str() {
            "random" if params.get("expansion").is_some() => "Random+S",
            "random" => "Random",
            "linear" => "Line",
            "force_directed" => "FD",
            "graph_partition" => "GP",
            "hierarchical_stitching" => "HS",
            other => other,
        }
        .to_string();
        Strategy { key, label, params }
    }

    /// Replaces the report label (the paper's Table I row name for the
    /// built-ins).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Returns the strategy with one parameter overridden (e.g. a per-batch
    /// seed in a portfolio search).
    pub fn with_param(mut self, key: impl Into<String>, value: ParamValue) -> Self {
        self.params.set(key, value);
        self
    }

    /// The line-up key naming the strategy's mapper.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The instantiation parameters.
    pub fn params(&self) -> &MapperParams {
        &self.params
    }

    /// Short report label, matching the paper's Table I row labels for the
    /// built-in line-up ("Random", "Random+S", "Line", "FD", "GP", "HS").
    pub fn short_name(&self) -> &str {
        &self.label
    }

    /// Uniformly random placement ("Random" in Table I).
    pub fn random(seed: u64) -> Self {
        Strategy::new("random", MapperParams::new().with_u64("seed", seed))
    }

    /// Uniformly random placement on an expanded grid (the randomised mapping
    /// generator of the Fig. 6 correlation study). `expansion` ≥ 1.0 scales
    /// the grid area, leaving free cells as routing slack. Labelled
    /// "Random+S" so slack rows stay distinguishable from packed "Random"
    /// rows in sweep reports.
    pub fn random_with_slack(seed: u64, expansion: f64) -> Self {
        Strategy::new(
            "random",
            MapperParams::new()
                .with_u64("seed", seed)
                .with_f64("expansion", expansion),
        )
    }

    /// The Fowler-style hand-tuned linear baseline ("Line" in Table I).
    pub fn linear() -> Self {
        Strategy::new("linear", MapperParams::new())
    }

    /// Force-directed annealing (Section VI-B1; "FD" in Table I).
    pub fn force_directed(config: ForceDirectedConfig) -> Self {
        Strategy::new("force_directed", MapperParams::from(config))
    }

    /// Recursive graph-partitioning embedding (Section VI-B2; "GP" in
    /// Table I).
    pub fn graph_partition(seed: u64) -> Self {
        Strategy::new(
            "graph_partition",
            MapperParams::new().with_u64("seed", seed),
        )
    }

    /// Hierarchical stitching (Section VII; "HS" in Table I). The output-port
    /// reassignment it wants is carried on the returned [`Layout`] as a
    /// [`msfu_distill::PortAssignment`] and applied by the evaluation layer.
    pub fn hierarchical_stitching(config: StitchingConfig) -> Self {
        Strategy::new("hierarchical_stitching", MapperParams::from(config))
    }

    /// The default strategy line-up of the paper's evaluation, with the given
    /// seed applied to every randomised component.
    pub fn paper_lineup(seed: u64) -> Vec<Strategy> {
        vec![
            Strategy::random(seed),
            Strategy::linear(),
            Strategy::force_directed(ForceDirectedConfig {
                seed,
                ..ForceDirectedConfig::default()
            }),
            Strategy::graph_partition(seed),
            Strategy::hierarchical_stitching(StitchingConfig {
                seed,
                ..StitchingConfig::default()
            }),
        ]
    }

    /// Maps a factory using this strategy. The factory is never mutated:
    /// strategies that want the factory's output ports rewired (hierarchical
    /// stitching) record the rebinding on the returned [`Layout`], which the
    /// evaluation layer applies to a private copy before simulating.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown key or rejected parameters, and
    /// propagates mapping failures from the underlying mapper.
    pub fn map(&self, factory: &Factory) -> Result<Layout> {
        let mapper = build_mapper(&self.key, &self.params)?;
        Ok(mapper.map_factory(factory)?)
    }
}

impl Serialize for Strategy {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("strategy".to_string(), Value::Str(self.key.clone())),
            ("label".to_string(), Value::Str(self.label.clone())),
            ("params".to_string(), self.params.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_distill::FactoryConfig;

    /// The fixture line-up with force-directed kept cheap for tests.
    fn cheap_lineup(seed: u64) -> Vec<Strategy> {
        Strategy::paper_lineup(seed)
            .into_iter()
            .map(|s| {
                if s.key() == "force_directed" {
                    Strategy::force_directed(ForceDirectedConfig {
                        seed,
                        iterations: 3,
                        repulsion_sample: 200,
                        ..ForceDirectedConfig::default()
                    })
                } else {
                    s
                }
            })
            .collect()
    }

    #[test]
    fn paper_lineup_has_five_strategies_with_distinct_names() {
        let lineup = Strategy::paper_lineup(1);
        assert_eq!(lineup.len(), 5);
        let names: std::collections::HashSet<_> = lineup.iter().map(|s| s.short_name()).collect();
        assert_eq!(names.len(), 5);
        let keys: std::collections::HashSet<_> = lineup.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), 5);
    }

    #[test]
    fn slack_variant_is_labelled_distinctly_from_packed_random() {
        let packed = Strategy::random(1);
        let slack = Strategy::random_with_slack(1, 1.5);
        assert_eq!(packed.short_name(), "Random");
        assert_eq!(slack.short_name(), "Random+S");
        assert_eq!(packed.key(), slack.key());
        assert_ne!(packed, slack);
    }

    #[test]
    fn only_stitching_requests_port_rewiring() {
        let factory = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        for s in cheap_lineup(1) {
            let layout = s.map(&factory).unwrap();
            assert_eq!(
                layout.requires_port_rewiring(),
                s.short_name() == "HS",
                "{}",
                s.short_name()
            );
        }
    }

    #[test]
    fn every_strategy_maps_a_small_factory() {
        for strategy in cheap_lineup(3) {
            let factory = Factory::build(&FactoryConfig::single_level(2)).unwrap();
            let layout = strategy.map(&factory).unwrap();
            assert!(
                layout.mapping.is_complete(),
                "strategy {} left qubits unplaced",
                strategy.short_name()
            );
        }
    }

    #[test]
    fn mapping_leaves_the_factory_untouched() {
        let factory = Factory::build(&FactoryConfig::two_level(2)).unwrap();
        let before = factory.clone();
        for s in cheap_lineup(2) {
            s.map(&factory).unwrap();
            assert_eq!(factory, before, "{} mutated the factory", s.short_name());
        }
    }

    #[test]
    fn unknown_key_surfaces_a_registry_error() {
        let factory = Factory::build(&FactoryConfig::single_level(2)).unwrap();
        let strategy = Strategy::new("no_such_mapper", MapperParams::new());
        let err = strategy.map(&factory).expect_err("unknown key fails");
        assert_eq!(
            err.to_string(),
            "qubit placement failed: no mapping strategy registered under `no_such_mapper` \
             (registered: force_directed, graph_partition, hierarchical_stitching, linear, random)"
        );
    }
}
