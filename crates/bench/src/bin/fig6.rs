//! Regenerates **Fig. 6** of the paper: correlation of the three congestion
//! metrics (edge crossings, average edge Manhattan length, average edge
//! spacing) with simulated circuit latency across randomised mappings of a
//! single-level distillation circuit.
//!
//! The randomised mappings are one declarative [`SweepSpec`] — one
//! `RandomWithSlack` point per seed over a single shared factory — with the
//! congestion metrics collected by the engine alongside each simulation.
//!
//! Usage: `cargo run -p msfu-bench --bin fig6 --release [full] [serial] [--json]`

use std::process::ExitCode;

use msfu_bench::{harness_eval_config, run_spec, HarnessArgs, Out};
use msfu_core::{Strategy, SweepSpec};
use msfu_distill::FactoryConfig;
use msfu_graph::correlation;

fn main() -> ExitCode {
    msfu_bench::main("fig6", false, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let samples = args.mode.fig6_samples();
    // The paper's correlation study uses a single-level factory; capacity 8 is
    // the canonical example of Fig. 4a / Fig. 5. Expansion 1.5 leaves routing
    // slack, as in the paper's randomised mappings which are not packed solid.
    let factory_config = FactoryConfig::single_level(8);
    let mut spec = SweepSpec::new("fig6", harness_eval_config()).with_mapping_metrics();
    for seed in 0..samples as u64 {
        spec = spec.point(
            "random",
            factory_config,
            Strategy::random_with_slack(seed, 1.5),
        );
    }
    let results = run_spec(&spec, args)?;

    let mut crossings = Vec::with_capacity(samples);
    let mut lengths = Vec::with_capacity(samples);
    let mut spacings = Vec::with_capacity(samples);
    let mut latencies = Vec::with_capacity(samples);

    writeln!(
        out,
        "# Fig. 6 reproduction: metric vs latency over {samples} randomised mappings"
    );
    writeln!(
        out,
        "# columns: seed crossings avg_edge_length avg_edge_spacing latency_cycles"
    );
    for (seed, row) in results.rows.iter().enumerate() {
        let m = row.metrics.expect("mapping metrics were collected");
        writeln!(
            out,
            "{seed:>4} {:>8} {:>18.3} {:>18.3} {:>14}",
            m.edge_crossings, m.avg_edge_length, m.avg_edge_spacing, row.evaluation.latency_cycles
        );
        crossings.push(m.edge_crossings as f64);
        lengths.push(m.avg_edge_length);
        spacings.push(m.avg_edge_spacing);
        latencies.push(row.evaluation.latency_cycles as f64);
    }

    let r_cross = correlation::pearson(&crossings, &latencies).unwrap_or(0.0);
    let r_len = correlation::pearson(&lengths, &latencies).unwrap_or(0.0);
    let r_space = correlation::pearson(&spacings, &latencies).unwrap_or(0.0);

    writeln!(out);
    writeln!(
        out,
        "# Pearson correlation with simulated latency (paper values in parentheses)"
    );
    writeln!(
        out,
        "edge crossings      r = {r_cross:+.3}   (paper: +0.831)"
    );
    writeln!(out, "avg edge length     r = {r_len:+.3}   (paper: +0.601)");
    writeln!(
        out,
        "avg edge spacing    r = {r_space:+.3}   (paper: -0.625)"
    );
    Ok(())
}
