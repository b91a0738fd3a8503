//! Delta-cost vs full-recompute force-directed refinement equivalence.
//!
//! The production `ForceDirectedMapper::refine` prices moves with the pruned
//! delta-cost evaluators over reused scratch; `msfu_layout::reference::refine`
//! is the preserved full-recompute pipeline. Both must produce *byte-identical*
//! mappings for every seeded configuration — the pruning may only skip
//! segment tests that provably cannot cross, and the scratch reuse may not
//! leak state between runs. Mirrors `tests/engine_equivalence.rs`: all
//! production refinements run through the same thread (one reused scratch)
//! to exercise arena hygiene across configurations.

use msfu_distill::{Factory, FactoryConfig};
use msfu_graph::InteractionGraph;
use msfu_layout::{
    reference, FactoryMapper, ForceDirectedConfig, ForceDirectedMapper, LinearMapper, Mapping,
    RandomMapper,
};

fn refine_pair(cfg: &ForceDirectedConfig, graph: &InteractionGraph, initial: &Mapping) {
    let fast = ForceDirectedMapper::with_config(*cfg)
        .refine(graph, initial)
        .expect("delta-cost refinement succeeds");
    let slow = reference::refine(cfg, graph, initial).expect("reference refinement succeeds");
    assert_eq!(
        fast,
        slow,
        "delta-cost and full-recompute refinement diverged (seed {}, {} qubits)",
        cfg.seed,
        graph.num_vertices()
    );
}

#[test]
fn delta_cost_refine_matches_full_recompute_across_seeded_configs() {
    let factories = [
        FactoryConfig::single_level(2),
        FactoryConfig::single_level(4),
        FactoryConfig::single_level(6),
        FactoryConfig::two_level(2),
    ];
    for (fi, factory_config) in factories.iter().enumerate() {
        let factory = Factory::build(factory_config).expect("factory builds");
        let graph = InteractionGraph::from_circuit(factory.circuit());
        let linear = LinearMapper::new()
            .map_factory(&factory)
            .expect("linear start")
            .mapping;
        for seed in 0..5u64 {
            let cfg = ForceDirectedConfig {
                seed: seed * 31 + fi as u64,
                iterations: 12,
                repulsion_sample: 600,
                community_interval: 4,
                ..ForceDirectedConfig::default()
            };
            refine_pair(&cfg, &graph, &linear);
        }
    }
}

#[test]
fn equivalence_holds_from_random_starts_and_ablated_configs() {
    let factory = Factory::build(&FactoryConfig::single_level(4)).expect("factory builds");
    let graph = InteractionGraph::from_circuit(factory.circuit());
    for seed in 0..4u64 {
        let random = RandomMapper::new(seed)
            .map_factory(&factory)
            .expect("random start")
            .mapping;
        // Full default heuristics.
        refine_pair(
            &ForceDirectedConfig {
                seed,
                iterations: 10,
                repulsion_sample: 500,
                ..ForceDirectedConfig::default()
            },
            &graph,
            &random,
        );
        // Dipole off (no pole coloring), communities off (no Louvain), and a
        // hot temperature that accepts many uphill swaps.
        refine_pair(
            &ForceDirectedConfig {
                seed,
                iterations: 10,
                repulsion_sample: 500,
                dipole: 0.0,
                use_communities: false,
                temperature: 6.0,
                ..ForceDirectedConfig::default()
            },
            &graph,
            &random,
        );
    }
}

#[test]
fn equivalence_holds_on_the_two_level_capacity_4_graph() {
    // A two-level graph the serve mix refines (660 qubits, 1 010 edges),
    // under its force-directed configuration cut to 5 sweeps (so the debug
    // build stays fast) with one round of community moves.
    let factory = Factory::build(&FactoryConfig::two_level(4)).expect("factory builds");
    let graph = InteractionGraph::from_circuit(factory.circuit());
    assert_eq!((graph.num_vertices(), graph.num_edges()), (660, 1010));
    let linear = LinearMapper::new()
        .map_factory(&factory)
        .expect("linear start")
        .mapping;
    let cfg = ForceDirectedConfig {
        seed: 42,
        iterations: 5,
        repulsion_sample: 8000,
        community_interval: 5,
        ..ForceDirectedConfig::default()
    };
    refine_pair(&cfg, &graph, &linear);
}

#[test]
fn full_mapping_path_matches_reference_refinement() {
    // The production map_factory (linear start + refine) must equal a
    // manually assembled linear start + reference refine.
    let factory = Factory::build(&FactoryConfig::two_level(2)).expect("factory builds");
    let graph = InteractionGraph::from_circuit(factory.circuit());
    let cfg = ForceDirectedConfig {
        seed: 9,
        iterations: 8,
        repulsion_sample: 400,
        ..ForceDirectedConfig::default()
    };
    let layout = ForceDirectedMapper::with_config(cfg)
        .map_factory(&factory)
        .expect("mapping succeeds");
    let linear = LinearMapper::new()
        .map_factory(&factory)
        .expect("linear start")
        .mapping;
    let slow = reference::refine(&cfg, &graph, &linear).expect("reference refinement succeeds");
    assert_eq!(layout.mapping, slow);
}
