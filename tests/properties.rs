//! Randomised property tests over the core data structures and invariants of
//! the toolchain: factory structure, mapping validity, simulator bounds and
//! the error model.
//!
//! The build environment cannot fetch `proptest`, so these use a small seeded
//! generator loop instead: every property is checked over a deterministic
//! sample of randomly drawn inputs (no shrinking, but failures print the
//! offending input).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use msfu::circuit::LatencyModel;
use msfu::distill::{error_model, Factory, FactoryConfig, ReusePolicy};
use msfu::graph::{correlation, InteractionGraph};
use msfu::layout::{FactoryMapper, GraphPartitionMapper, LinearMapper, RandomMapper};
use msfu::sim::{SimConfig, SimEngine};

/// Number of random cases per property (kept close to the old proptest
/// configuration).
const CASES: usize = 24;

/// Draws a small factory configuration that builds quickly.
fn small_factory_config(rng: &mut ChaCha8Rng) -> FactoryConfig {
    let k = rng.gen_range(1usize..7);
    let levels = rng.gen_range(1usize..3);
    let reuse = if rng.gen::<bool>() {
        ReusePolicy::Reuse
    } else {
        ReusePolicy::NoReuse
    };
    FactoryConfig::new(k, levels)
        .with_reuse(reuse)
        .with_barriers(rng.gen::<bool>())
}

#[test]
fn factory_structure_invariants() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    for case in 0..CASES {
        let config = small_factory_config(&mut rng);
        let factory = Factory::build(&config).unwrap();
        // Capacity and output count agree.
        assert_eq!(
            factory.final_outputs().len(),
            config.capacity(),
            "case {case}: {config:?}"
        );
        // Modules per round follow the block-code recursion.
        for (r, round) in factory.rounds().iter().enumerate() {
            assert_eq!(
                round.num_modules(),
                config.modules_in_round(r),
                "{config:?}"
            );
        }
        // Every permutation edge connects adjacent rounds and every
        // destination module receives distinct sources.
        let mut per_dest: std::collections::HashMap<usize, std::collections::HashSet<usize>> =
            Default::default();
        for e in factory.permutation_edges() {
            let src_round = factory.modules()[e.source_module].round;
            let dst_round = factory.modules()[e.dest_module].round;
            assert_eq!(dst_round, src_round + 1, "{config:?}");
            assert!(
                per_dest
                    .entry(e.dest_module)
                    .or_default()
                    .insert(e.source_module),
                "{config:?}: duplicate source into destination module"
            );
        }
        // The circuit references only allocated qubits (validated on push),
        // and its gate count is the sum of the module gate counts plus
        // barriers.
        let barrier_count = factory
            .rounds()
            .iter()
            .filter(|r| r.barrier_gate.is_some())
            .count();
        let module_gates: usize = factory.modules().iter().map(|m| m.gate_range.len()).sum();
        assert_eq!(
            factory.circuit().num_gates(),
            module_gates + barrier_count,
            "{config:?}"
        );
    }
}

#[test]
fn mappings_are_always_injective_and_complete() {
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    for case in 0..CASES {
        let config = small_factory_config(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let factory = Factory::build(&config).unwrap();
        let mappers: Vec<Box<dyn FactoryMapper>> = vec![
            Box::new(LinearMapper::new()),
            Box::new(RandomMapper::new(seed)),
            Box::new(GraphPartitionMapper::new(seed)),
        ];
        for mapper in mappers {
            let layout = mapper.map_factory(&factory).unwrap();
            assert!(layout.mapping.is_complete(), "case {case}: {config:?}");
            let mut seen = std::collections::HashSet::new();
            for q in 0..factory.num_qubits() as u32 {
                let pos = layout
                    .mapping
                    .position(msfu::circuit::QubitId::new(q))
                    .unwrap();
                assert!(
                    seen.insert(pos),
                    "two qubits share cell {} under {} ({config:?})",
                    pos,
                    mapper.name()
                );
                assert!(pos.row < layout.mapping.height());
                assert!(pos.col < layout.mapping.width());
            }
        }
    }
}

#[test]
fn simulated_latency_is_bounded_by_critical_path_and_serial_sum() {
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    for _ in 0..CASES {
        let k = rng.gen_range(1usize..5);
        let seed = rng.gen_range(0u64..500);
        let factory = Factory::build(&FactoryConfig::single_level(k)).unwrap();
        let layout = random_slack_layout(seed, &factory);
        let config = SimConfig::default();
        let result = SimEngine::new(config)
            .run(factory.circuit(), &layout)
            .unwrap();
        let model = LatencyModel::default();
        let critical = factory.circuit().critical_path_cycles(&model);
        let serial: u64 = factory
            .circuit()
            .gates()
            .iter()
            .map(|g| model.cycles(g))
            .sum();
        assert!(result.cycles >= critical, "k={k} seed={seed}");
        assert!(
            result.cycles <= serial,
            "latency {} exceeds fully serial execution {} (k={k} seed={seed})",
            result.cycles,
            serial
        );
        assert_eq!(result.volume(), result.cycles * result.area as u64);
    }
}

/// Random layout with routing slack, as used by the Fig. 6 study.
fn random_slack_layout(seed: u64, factory: &Factory) -> msfu::layout::Layout {
    msfu::layout::Layout::new(
        RandomMapper::new(seed)
            .with_expansion(1.3)
            .map_qubits(factory.num_qubits())
            .unwrap(),
    )
}

#[test]
fn error_model_monotonicity() {
    let mut rng = ChaCha8Rng::seed_from_u64(105);
    for _ in 0..CASES {
        let k = rng.gen_range(1usize..21);
        let eps = rng.gen_range(1e-6f64..5e-3);
        let out = error_model::output_error(k, eps);
        assert!(
            out <= eps,
            "distillation must not worsen sub-threshold states"
        );
        assert!(out >= 0.0);
        let two = error_model::error_after_levels(k, 2, eps);
        assert!(two <= out);
        let p = error_model::success_probability(k, eps);
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn pearson_correlation_is_symmetric_and_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    for _ in 0..CASES {
        let n = rng.gen_range(3usize..50);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        if let Some(r) = correlation::pearson(&xs, &ys) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r_swapped = correlation::pearson(&ys, &xs).unwrap();
            assert!((r - r_swapped).abs() < 1e-9);
        }
    }
}

#[test]
fn interaction_graph_weights_match_braid_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(107);
    for _ in 0..CASES {
        let config = small_factory_config(&mut rng);
        let factory = Factory::build(&config).unwrap();
        let graph = InteractionGraph::from_circuit(factory.circuit());
        let total_weight: f64 = graph.total_edge_weight();
        assert_eq!(
            total_weight as usize,
            factory.circuit().braid_count(),
            "{config:?}"
        );
        assert_eq!(graph.num_vertices(), factory.num_qubits());
    }
}
