//! Mapping-metric study: reproduce the intuition behind Fig. 6 of the paper
//! by comparing the three congestion heuristics (edge crossings, edge length,
//! edge spacing) across the mapping strategies on the same circuit, and
//! showing how they track the simulated latency.
//!
//! Run with: `cargo run --example mapping_comparison --release`

use msfu::distill::{Factory, FactoryConfig};
use msfu::graph::{metrics::MappingMetrics, InteractionGraph};
use msfu::layout::{
    FactoryMapper, ForceDirectedConfig, ForceDirectedMapper, GraphPartitionMapper, LinearMapper,
    RandomMapper,
};
use msfu::sim::{SimConfig, SimEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let factory = Factory::build(&FactoryConfig::single_level(8))?;
    let graph = InteractionGraph::from_circuit(factory.circuit());
    let mut simulator = SimEngine::new(SimConfig::default());

    let mappers: Vec<(&str, Box<dyn FactoryMapper>)> = vec![
        ("random", Box::new(RandomMapper::new(3))),
        ("linear", Box::new(LinearMapper::new())),
        (
            "force-directed",
            Box::new(ForceDirectedMapper::with_config(ForceDirectedConfig {
                seed: 3,
                iterations: 20,
                repulsion_sample: 5_000,
                ..ForceDirectedConfig::default()
            })),
        ),
        ("graph-partition", Box::new(GraphPartitionMapper::new(3))),
    ];

    println!(
        "{:<18}{:>12}{:>16}{:>16}{:>12}{:>12}",
        "mapper", "crossings", "avg length", "avg spacing", "latency", "volume"
    );
    for (name, mapper) in mappers {
        let layout = mapper.map_factory(&factory)?;
        let m = MappingMetrics::compute(&graph, &layout.mapping.to_points());
        let result = simulator.run(factory.circuit(), &layout)?;
        println!(
            "{:<18}{:>12}{:>16.2}{:>16.2}{:>12}{:>12}",
            name,
            m.edge_crossings,
            m.avg_edge_length,
            m.avg_edge_spacing,
            result.cycles,
            result.volume()
        );
    }
    println!(
        "\nfewer crossings and shorter edges generally mean fewer braid conflicts and lower latency (Fig. 6)."
    );
    Ok(())
}
