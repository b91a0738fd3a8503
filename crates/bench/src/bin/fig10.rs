//! Regenerates **Fig. 10** of the paper: latency (10a/10c), area (10b/10d)
//! and space-time volume (10e/10f) of single- and two-level factories under
//! the linear, force-directed, graph-partitioning and (for two-level)
//! hierarchical-stitching mappers. Each strategy uses its better qubit-reuse
//! policy, as in the paper (Section VIII-C1).
//!
//! The whole figure is one declarative [`SweepSpec`] (both levels, all
//! capacities, all strategies, both reuse policies) executed in parallel by
//! the sweep engine; this binary only selects and formats rows.
//!
//! Usage: `cargo run -p msfu-bench --bin fig10 --release [full] [serial] [--json]`

use std::process::ExitCode;

use msfu_bench::{
    harness_eval_config, lineup_for, print_headline, reuse_variants, run_spec, HarnessArgs, Out,
};
use msfu_core::{Evaluation, SweepResults, SweepSpec};

/// Strategies plotted per level: Fig. 10 omits Random entirely and HS on
/// single-level factories.
fn plotted_strategies(levels: usize) -> Vec<&'static str> {
    if levels == 1 {
        vec!["Line", "FD", "GP"]
    } else {
        vec!["Line", "FD", "GP", "HS"]
    }
}

fn build_spec(args: &HarnessArgs, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("fig10", harness_eval_config());
    for (label, levels, capacities) in [
        ("single", 1, args.mode.single_level_capacities()),
        ("double", 2, args.mode.two_level_capacities()),
    ] {
        let plotted = plotted_strategies(levels);
        for &capacity in &capacities {
            spec = spec.grid(label, &reuse_variants(capacity, levels), |c| {
                lineup_for(c, seed)
                    .into_iter()
                    .filter(|s| plotted.contains(&s.short_name()))
                    .collect()
            });
        }
    }
    spec
}

fn print_metric(
    out: &mut Out,
    title: &str,
    results: &SweepResults,
    label: &str,
    capacities: &[usize],
    strategies: &[&str],
    metric: impl Fn(&Evaluation) -> f64,
) {
    writeln!(out, "# {title}");
    write!(out, "{:<12}", "capacity");
    for name in strategies {
        write!(out, "{name:>16}");
    }
    writeln!(out);
    for &capacity in capacities {
        write!(out, "{capacity:<12}");
        for name in strategies {
            match results.best_reuse(label, name, capacity) {
                Some(row) => write!(out, "{:>16.0}", metric(&row.evaluation)),
                None => write!(out, "{:>16}", "-"),
            }
        }
        writeln!(out);
    }
    writeln!(out);
}

fn main() -> ExitCode {
    msfu_bench::main("fig10", false, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let seed = 42;
    let spec = build_spec(args, seed);
    let results = run_spec(&spec, args)?;

    let single_caps = args.mode.single_level_capacities();
    let double_caps = args.mode.two_level_capacities();
    let single = plotted_strategies(1);
    let double = plotted_strategies(2);

    print_metric(
        out,
        "Fig. 10a — single-level latency (cycles)",
        &results,
        "single",
        &single_caps,
        &single,
        |e| e.latency_cycles as f64,
    );
    print_metric(
        out,
        "Fig. 10b — single-level area (qubits)",
        &results,
        "single",
        &single_caps,
        &single,
        |e| e.area as f64,
    );
    print_metric(
        out,
        "Fig. 10e — single-level quantum volume (qubits x cycles)",
        &results,
        "single",
        &single_caps,
        &single,
        |e| e.volume as f64,
    );
    print_metric(
        out,
        "Fig. 10c — two-level latency (cycles)",
        &results,
        "double",
        &double_caps,
        &double,
        |e| e.latency_cycles as f64,
    );
    print_metric(
        out,
        "Fig. 10d — two-level area (qubits)",
        &results,
        "double",
        &double_caps,
        &double,
        |e| e.area as f64,
    );
    print_metric(
        out,
        "Fig. 10f — two-level quantum volume (qubits x cycles)",
        &results,
        "double",
        &double_caps,
        &double,
        |e| e.volume as f64,
    );

    print_headline(out, &results, "double", &double_caps);
    Ok(())
}
