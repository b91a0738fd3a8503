//! Regenerates **Table I** of the paper: quantum volumes (qubits × cycles)
//! required by factory designs optimised by randomisation, linear mapping
//! with and without qubit reuse, force-directed annealing, graph
//! partitioning, hierarchical stitching, and the critical-path lower bound —
//! for single-level and two-level factories across the capacity sweep.
//!
//! The whole table is one declarative [`SweepSpec`] executed in parallel by
//! the sweep engine; this binary only selects and formats rows.
//!
//! Usage: `cargo run -p msfu-bench --bin table1 --release [full] [serial] [--json]`

use std::process::ExitCode;

use msfu_bench::{
    harness_eval_config, lineup_for, print_headline, reuse_variants, run_spec, HarnessArgs, Out,
    Table,
};
use msfu_core::{SweepResults, SweepSpec};
use msfu_distill::ReusePolicy;

/// Table I rows per level: Random is only reported for single-level
/// factories, HS only for multi-level ones.
fn tabled_strategies(levels: usize) -> Vec<&'static str> {
    if levels == 1 {
        vec!["Random", "Line", "FD", "GP"]
    } else {
        vec!["Line", "FD", "GP", "HS"]
    }
}

fn build_spec(args: &HarnessArgs, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("table1", harness_eval_config());
    for (label, levels, capacities) in [
        ("L1", 1, args.mode.single_level_capacities()),
        ("L2", 2, args.mode.two_level_capacities()),
    ] {
        let tabled = tabled_strategies(levels);
        for &capacity in &capacities {
            spec = spec.grid(label, &reuse_variants(capacity, levels), |c| {
                // Random is only evaluated under reuse, as in the paper.
                let random_here = c.reuse == ReusePolicy::Reuse;
                lineup_for(c, seed)
                    .into_iter()
                    .filter(|s| {
                        tabled.contains(&s.short_name())
                            && (s.short_name() != "Random" || random_here)
                    })
                    .collect()
            });
        }
    }
    spec
}

fn level_table(results: &SweepResults, label: &str, levels: usize, capacities: &[usize]) -> Table {
    let headers: Vec<String> = std::iter::once("Procedure".to_string())
        .chain(capacities.iter().map(|c| format!("K = {c}")))
        .collect();
    let mut table = Table::new(
        format!("Table I (level {levels}) — quantum volumes (qubits x cycles)"),
        headers,
    );

    // Picks the row evaluated under a specific reuse policy.
    let with_policy = |strategy: &str, capacity: usize, policy: ReusePolicy| {
        results
            .rows(label, strategy, capacity)
            .find(|r| r.evaluation.factory.reuse == policy)
            .map(|r| r.evaluation.volume as f64)
    };
    // Picks the better of the two reuse policies, as the paper does for the
    // optimised procedures.
    let best = |strategy: &str, capacity: usize| {
        results
            .best_reuse(label, strategy, capacity)
            .map(|r| r.evaluation.volume as f64)
    };

    // Row labels follow the paper: Random, Line(NR), Line(R), FD, GP, HS, Critical.
    table.push_row(
        "Random",
        capacities
            .iter()
            .map(|&c| with_policy("Random", c, ReusePolicy::Reuse))
            .collect(),
    );
    table.push_row(
        "Line(NR)",
        capacities
            .iter()
            .map(|&c| with_policy("Line", c, ReusePolicy::NoReuse))
            .collect(),
    );
    table.push_row(
        "Line(R)",
        capacities
            .iter()
            .map(|&c| with_policy("Line", c, ReusePolicy::Reuse))
            .collect(),
    );
    table.push_row("FD", capacities.iter().map(|&c| best("FD", c)).collect());
    table.push_row("GP", capacities.iter().map(|&c| best("GP", c)).collect());
    table.push_row("HS", capacities.iter().map(|&c| best("HS", c)).collect());
    table.push_row(
        "Critical",
        capacities
            .iter()
            .map(|&c| {
                results
                    .rows(label, "Line", c)
                    .find(|r| r.evaluation.factory.reuse == ReusePolicy::Reuse)
                    .map(|r| r.evaluation.critical_volume as f64)
            })
            .collect(),
    );
    table
}

fn main() -> ExitCode {
    msfu_bench::main("table1", false, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let seed = 42;
    let spec = build_spec(args, seed);
    let results = run_spec(&spec, args)?;

    let level1 = level_table(&results, "L1", 1, &args.mode.single_level_capacities());
    writeln!(out, "{}", level1.to_text());

    let double_caps = args.mode.two_level_capacities();
    let level2 = level_table(&results, "L2", 2, &double_caps);
    writeln!(out, "{}", level2.to_text());

    print_headline(out, &results, "L2", &double_caps);
    Ok(())
}
