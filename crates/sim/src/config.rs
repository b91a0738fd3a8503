//! Simulator configuration.

use msfu_circuit::LatencyModel;

/// How braid paths are chosen on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Deterministic L-shaped (dimension-ordered) paths: route along the row
    /// first, then along the column. Cheap but inflexible: crossing braids
    /// always conflict.
    DimensionOrdered,
    /// Adaptive shortest paths that detour around currently-busy cells (BFS).
    /// Mirrors the paper's observation that sophisticated routing can execute
    /// "crossing" braids in parallel.
    #[default]
    Adaptive,
}

impl RoutingPolicy {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::DimensionOrdered => "dimension-ordered",
            RoutingPolicy::Adaptive => "adaptive",
        }
    }
}

/// Configuration of the braid network simulator.
///
/// The struct is `#[non_exhaustive]` so new knobs can be added without a
/// semver break: construct it with [`SimConfig::default`] (or
/// [`SimConfig::dimension_ordered`]) and refine with the `with_*` builders.
/// Field reads and assignments remain available everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Per-gate latencies in logical cycles.
    pub latency: LatencyModel,
    /// Braid routing policy.
    pub routing: RoutingPolicy,
    /// Hard cycle limit; the simulation aborts with an error beyond it.
    pub cycle_limit: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::default(),
            routing: RoutingPolicy::Adaptive,
            cycle_limit: 50_000_000,
        }
    }
}

impl SimConfig {
    /// Configuration with dimension-ordered routing (used by ablation
    /// benches).
    pub fn dimension_ordered() -> Self {
        SimConfig::default().with_routing(RoutingPolicy::DimensionOrdered)
    }

    /// Replaces the routing policy (builder style).
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the hard cycle limit (builder style).
    pub fn with_cycle_limit(mut self, cycle_limit: u64) -> Self {
        self.cycle_limit = cycle_limit;
        self
    }

    /// Replaces the per-gate latency model (builder style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_adaptive_routing() {
        let c = SimConfig::default();
        assert_eq!(c.routing, RoutingPolicy::Adaptive);
        assert!(c.cycle_limit > 1_000_000);
    }

    #[test]
    fn dimension_ordered_constructor() {
        assert_eq!(
            SimConfig::dimension_ordered().routing,
            RoutingPolicy::DimensionOrdered
        );
    }

    #[test]
    fn builders_replace_single_fields() {
        let c = SimConfig::default()
            .with_routing(RoutingPolicy::DimensionOrdered)
            .with_cycle_limit(123);
        assert_eq!(c.routing, RoutingPolicy::DimensionOrdered);
        assert_eq!(c.cycle_limit, 123);
        assert_eq!(c.latency, SimConfig::default().latency);
    }

    #[test]
    fn policy_names_differ() {
        assert_ne!(
            RoutingPolicy::Adaptive.name(),
            RoutingPolicy::DimensionOrdered.name()
        );
    }
}
