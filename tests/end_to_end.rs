//! Integration tests spanning every crate: factory generation → interaction
//! graph → mapping → braid simulation → evaluation, checking the qualitative
//! claims of the paper on small configurations.

use msfu::core::{evaluate, pipeline, EvaluationConfig, Strategy};
use msfu::distill::{Factory, FactoryConfig, ReusePolicy};
use msfu::graph::{metrics, InteractionGraph};
use msfu::layout::{
    FactoryMapper, ForceDirectedConfig, HierarchicalStitchingMapper, LinearMapper, StitchingConfig,
};
use msfu::sim::{SimConfig, SimEngine};

fn cheap_fd(seed: u64) -> Strategy {
    Strategy::force_directed(ForceDirectedConfig {
        seed,
        iterations: 6,
        repulsion_sample: 1_000,
        ..ForceDirectedConfig::default()
    })
}

#[test]
fn every_strategy_respects_the_critical_path_bound() {
    let config = FactoryConfig::single_level(4);
    for strategy in [
        Strategy::random(1),
        Strategy::linear(),
        cheap_fd(1),
        Strategy::graph_partition(1),
    ] {
        let eval = evaluate(&config, &strategy, &EvaluationConfig::default()).unwrap();
        assert!(
            eval.latency_cycles >= eval.critical_path_cycles,
            "{} beat the lower bound",
            eval.strategy
        );
        assert!(eval.volume >= eval.critical_volume);
    }
}

#[test]
fn single_level_linear_mapping_is_near_optimal() {
    // The paper observes the hand-tuned linear mapping approaches the
    // theoretical minimum latency for single-level factories (Fig. 7a).
    let config = FactoryConfig::single_level(8);
    let eval = evaluate(&config, &Strategy::linear(), &EvaluationConfig::default()).unwrap();
    assert!(
        eval.latency_ratio_to_critical() < 2.5,
        "linear mapping latency is {}x the critical path",
        eval.latency_ratio_to_critical()
    );
}

#[test]
fn structured_mappers_beat_random_on_single_level_volume() {
    let config = FactoryConfig::single_level(8);
    let eval_cfg = EvaluationConfig::default();
    let random = evaluate(&config, &Strategy::random(5), &eval_cfg).unwrap();
    for strategy in [Strategy::linear(), Strategy::graph_partition(5)] {
        let eval = evaluate(&config, &strategy, &eval_cfg).unwrap();
        assert!(
            eval.volume < random.volume,
            "{} ({}) should beat random ({})",
            eval.strategy,
            eval.volume,
            random.volume
        );
    }
}

#[test]
fn hierarchical_stitching_beats_the_linear_baseline_on_two_level_volume() {
    // The headline claim of the paper, on a small two-level factory.
    let eval_cfg = EvaluationConfig::default();
    let linear = evaluate(
        &FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse),
        &Strategy::linear(),
        &eval_cfg,
    )
    .unwrap();
    let stitched = evaluate(
        &FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse),
        &Strategy::hierarchical_stitching(StitchingConfig::default()),
        &eval_cfg,
    )
    .unwrap();
    assert!(
        stitched.volume < linear.volume,
        "stitching ({}) should beat Line(NR) ({})",
        stitched.volume,
        linear.volume
    );
}

#[test]
fn round_interaction_graphs_are_planar_but_the_two_level_graph_is_denser() {
    let factory = Factory::build(&FactoryConfig::two_level(2)).unwrap();
    let round0 = InteractionGraph::from_circuit(&factory.round_circuit(0));
    let full = InteractionGraph::from_circuit(factory.circuit());
    // Edge density relative to the planar Euler bound |E| <= 3|V| - 6.
    let density = |g: &InteractionGraph| g.num_edges() as f64 / (3 * g.num_vertices() - 6) as f64;
    // Single rounds satisfy the planar Euler bound comfortably.
    assert!(density(&round0) <= 1.0);
    // The permutation edges strictly increase the edge density.
    assert!(
        density(&full) > density(&round0),
        "permutation edges must increase graph density"
    );
}

#[test]
fn qubit_reuse_shrinks_area_but_adds_dependencies() {
    let reuse =
        Factory::build(&FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse)).unwrap();
    let no_reuse =
        Factory::build(&FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse)).unwrap();
    assert!(reuse.num_qubits() < no_reuse.num_qubits());
    // Same gates either way; the reuse factory has at least as deep a DAG
    // because of sharing-after-measurement false dependencies.
    assert_eq!(reuse.circuit().num_gates(), no_reuse.circuit().num_gates());
    let reuse_depth = reuse.circuit().dependency_dag().depth();
    let no_reuse_depth = no_reuse.circuit().dependency_dag().depth();
    assert!(reuse_depth >= no_reuse_depth);
}

#[test]
fn stitching_hops_do_not_break_simulation() {
    let factory = Factory::build(&FactoryConfig::two_level(2)).unwrap();
    let layout = HierarchicalStitchingMapper::new(9)
        .map_factory(&factory)
        .unwrap();
    assert!(!layout.hints.is_empty());
    // The layout's port rebinding must be applied before simulating.
    let effective = factory.apply_port_assignment(&layout.ports).unwrap();
    let result = SimEngine::new(SimConfig::default())
        .run(effective.circuit(), &layout)
        .unwrap();
    assert!(
        result.cycles
            >= effective
                .circuit()
                .critical_path_cycles(&SimConfig::default().latency)
    );
}

#[test]
fn adaptive_routing_is_no_worse_than_dimension_ordered() {
    let config = FactoryConfig::single_level(6);
    let factory = Factory::build(&config).unwrap();
    let layout = LinearMapper::new().map_factory(&factory).unwrap();
    let adaptive = SimEngine::new(SimConfig::default())
        .run(factory.circuit(), &layout)
        .unwrap();
    let fixed = SimEngine::new(SimConfig::dimension_ordered())
        .run(factory.circuit(), &layout)
        .unwrap();
    assert!(adaptive.cycles <= fixed.cycles);
}

#[test]
fn per_round_breakdown_is_consistent_with_end_to_end_latency() {
    let config = FactoryConfig::two_level(2);
    let factory = Factory::build(&config).unwrap();
    let strategy = Strategy::graph_partition(3);
    let eval_cfg = EvaluationConfig::default();
    let eval = evaluate(&config, &strategy, &eval_cfg).unwrap();
    let layout = strategy.map(&factory).unwrap();
    let breakdown = pipeline::per_round_breakdown(&factory, &layout, &eval_cfg.sim).unwrap();
    let summed: u64 = breakdown.iter().map(|b| b.round_cycles).sum();
    // Rounds simulated in isolation can only be faster than the full circuit.
    assert!(summed <= 2 * eval.latency_cycles);
    assert!(breakdown.len() == factory.rounds().len());
}

#[test]
fn better_metrics_translate_into_lower_latency_end_to_end() {
    // A coarse version of Fig. 6: the mapping with many more crossings should
    // not be the faster one.
    let factory = Factory::build(&FactoryConfig::single_level(8)).unwrap();
    let graph = InteractionGraph::from_circuit(factory.circuit());
    let mut sim = SimEngine::new(SimConfig::default());

    let linear = LinearMapper::new().map_factory(&factory).unwrap();
    let random = msfu::layout::RandomMapper::new(17)
        .map_factory(&factory)
        .unwrap();

    let linear_cross = metrics::edge_crossings(&graph, &linear.mapping.to_points());
    let random_cross = metrics::edge_crossings(&graph, &random.mapping.to_points());
    let linear_lat = sim.run(factory.circuit(), &linear).unwrap().cycles;
    let random_lat = sim.run(factory.circuit(), &random).unwrap().cycles;
    assert!(linear_cross < random_cross);
    assert!(linear_lat <= random_lat);
}
