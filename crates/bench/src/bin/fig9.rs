//! Regenerates **Fig. 9** of the paper:
//!
//! * 9a/9b — sensitivity of the achieved quantum volume to the qubit-reuse
//!   policy: the volume differential `(NR − R)/NR` per mapping strategy.
//! * 9c/9d — latency of the inter-round permutation step under the four
//!   intermediate-hop strategies (no hop, randomised Valiant hop, annealed
//!   random hop, annealed midpoint hop).
//!
//! Both studies live in one declarative [`SweepSpec`]: the reuse grid under
//! the `reuse` label, and one labelled point per hop strategy with per-round
//! breakdowns collected by the engine. This binary only formats rows.
//!
//! Usage: `cargo run -p msfu-bench --bin fig9 --release [full] [serial] [--json]`

use std::process::ExitCode;

use msfu_bench::{harness_eval_config, run_spec, scaled_fd_config, HarnessArgs, Out};
use msfu_core::{pipeline, Strategy, SweepResults, SweepSpec};
use msfu_distill::{FactoryConfig, ReusePolicy};
use msfu_layout::{HopStrategy, StitchingConfig};

const HOP_STRATEGIES: [HopStrategy; 4] = [
    HopStrategy::None,
    HopStrategy::RandomHop,
    HopStrategy::AnnealedRandomHop,
    HopStrategy::AnnealedMidpointHop,
];

fn build_spec(args: &HarnessArgs, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("fig9", harness_eval_config()).with_breakdowns();
    for &capacity in &args.mode.two_level_capacities() {
        let base =
            FactoryConfig::from_total_capacity(capacity, 2).expect("capacity is an exact power");
        // 9a/9b: three strategies under both reuse policies.
        for policy in [ReusePolicy::Reuse, ReusePolicy::NoReuse] {
            spec = spec.grid("reuse", &[base.with_reuse(policy)], |c| {
                let qubits = c.total_modules() * c.qubits_per_module();
                vec![
                    Strategy::linear(),
                    Strategy::force_directed(scaled_fd_config(seed, qubits)),
                    Strategy::graph_partition(seed),
                ]
            });
        }
        // 9c/9d: hierarchical stitching under each hop strategy, labelled by
        // hop so the rows stay distinguishable.
        for hop in HOP_STRATEGIES {
            spec = spec.point(
                format!("hops/{}", hop.name()),
                base,
                Strategy::hierarchical_stitching(StitchingConfig {
                    seed,
                    hop_strategy: hop,
                    ..StitchingConfig::default()
                }),
            );
        }
    }
    spec
}

fn reuse_differentials(out: &mut Out, results: &SweepResults, capacities: &[usize]) {
    writeln!(
        out,
        "# Fig. 9a/9b — volume differential (NR - R)/NR per strategy, two-level factories"
    );
    writeln!(
        out,
        "{:<12}{:>18}{:>18}{:>18}",
        "capacity", "Linear Mapping", "Force Directed", "Graph Partitioning"
    );
    for &capacity in capacities {
        write!(out, "{capacity:<12}");
        for strategy in ["Line", "FD", "GP"] {
            let volume_under = |policy: ReusePolicy| {
                results
                    .rows("reuse", strategy, capacity)
                    .find(|r| r.evaluation.factory.reuse == policy)
                    .expect("reuse grid row present")
                    .evaluation
                    .volume as f64
            };
            let reuse = volume_under(ReusePolicy::Reuse);
            let no_reuse = volume_under(ReusePolicy::NoReuse);
            write!(out, "{:>18.3}", (no_reuse - reuse) / no_reuse);
        }
        writeln!(out);
    }
    writeln!(
        out,
        "# positive values mean reuse achieves the smaller volume"
    );
    writeln!(out);
}

fn permutation_latencies(out: &mut Out, results: &SweepResults, capacities: &[usize]) {
    writeln!(
        out,
        "# Fig. 9c/9d — permutation-step latency (cycles) by intermediate-hop strategy"
    );
    writeln!(
        out,
        "{:<12}{:>14}{:>18}{:>22}{:>24}",
        "capacity", "No Hop", "Randomized Hop", "Annealed Random Hop", "Annealed Midpoint Hop"
    );
    for &capacity in capacities {
        write!(out, "{capacity:<12}");
        for hop in HOP_STRATEGIES {
            let row = results
                .find(&format!("hops/{}", hop.name()), "HS", capacity)
                .expect("hop row present");
            let breakdown = row.breakdown.as_ref().expect("breakdowns were collected");
            let cycles = pipeline::total_permutation_cycles(breakdown);
            let width = match hop {
                HopStrategy::None => 14,
                HopStrategy::RandomHop => 18,
                HopStrategy::AnnealedRandomHop => 22,
                HopStrategy::AnnealedMidpointHop => 24,
            };
            write!(out, "{cycles:>width$}");
        }
        writeln!(out);
    }
    writeln!(out);
}

fn main() -> ExitCode {
    msfu_bench::main("fig9", false, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let seed = 42;
    let spec = build_spec(args, seed);
    let results = run_spec(&spec, args)?;
    let capacities = args.mode.two_level_capacities();
    reuse_differentials(out, &results, &capacities);
    permutation_latencies(out, &results, &capacities);
    Ok(())
}
