//! Two-level block-code factory: compare every mapping strategy of the paper
//! on a capacity-16 two-level factory and show where hierarchical stitching
//! wins. Also prints the per-round latency breakdown (round execution vs
//! inter-round permutation) for the stitched layout.
//!
//! Run with: `cargo run --example two_level_factory --release`

use msfu::core::{evaluate, pipeline, EvaluationConfig, Strategy};
use msfu::distill::{Factory, FactoryConfig, ReusePolicy};
use msfu::layout::{
    FactoryMapper, ForceDirectedConfig, HierarchicalStitchingMapper, StitchingConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = FactoryConfig::two_level(4).with_reuse(ReusePolicy::Reuse);
    let factory = Factory::build(&config)?;
    println!(
        "two-level factory: capacity {} ({} round-0 modules feeding {} round-1 modules, {} logical qubits)",
        config.capacity(),
        config.modules_in_round(0),
        config.modules_in_round(1),
        factory.num_qubits()
    );

    let eval_config = EvaluationConfig::default();
    let strategies = vec![
        Strategy::random(7),
        Strategy::linear(),
        Strategy::force_directed(ForceDirectedConfig {
            seed: 7,
            iterations: 12,
            repulsion_sample: 4_000,
            ..ForceDirectedConfig::default()
        }),
        Strategy::graph_partition(7),
        Strategy::hierarchical_stitching(StitchingConfig {
            seed: 7,
            ..StitchingConfig::default()
        }),
    ];

    println!(
        "\n{:<8}{:>12}{:>10}{:>14}{:>16}",
        "mapper", "latency", "area", "volume", "vs critical"
    );
    for strategy in strategies {
        let eval = evaluate(&config, &strategy, &eval_config)?;
        println!(
            "{:<8}{:>12}{:>10}{:>14}{:>15.2}x",
            eval.strategy,
            eval.latency_cycles,
            eval.area,
            eval.volume,
            eval.volume_ratio_to_critical()
        );
    }

    // Per-round breakdown under the stitched layout.
    let layout = HierarchicalStitchingMapper::new(7).map_factory(&factory)?;
    let stitched = factory.apply_port_assignment(&layout.ports)?;
    let breakdown = pipeline::per_round_breakdown(&stitched, &layout, &eval_config.sim)?;
    println!("\nper-round breakdown (hierarchical stitching):");
    for b in &breakdown {
        println!(
            "  round {}: {} cycles of distillation, {} cycles of permutation to the next round",
            b.round, b.round_cycles, b.permutation_cycles
        );
    }
    Ok(())
}
