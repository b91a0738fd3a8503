//! Regenerates **Fig. 7** of the paper: realised circuit latency of the
//! force-directed and graph-partitioning mappers against the critical-path
//! ("theoretical lower bound") latency, for single-level (7a) and two-level
//! (7b) factories of increasing capacity.
//!
//! One declarative [`msfu_bench::fig7_spec`] sweep (both levels × all
//! capacities × {FD, GP}) executed in parallel by the sweep engine; this
//! binary only formats rows. The same grid is also checked in as pure JSON
//! data (`benches/specs/fig7_quick.json`) and asserted byte-identical by
//! `tests/registry_sweep.rs`.
//!
//! Usage: `cargo run -p msfu-bench --bin fig7 --release [full] [serial] [--json]`

use std::process::ExitCode;

use msfu_bench::{fig7_spec, run_spec, HarnessArgs, Out};
use msfu_core::SweepResults;

fn main() -> ExitCode {
    msfu_bench::main("fig7", false, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let seed = 42;
    let spec = fig7_spec(args.mode, seed);
    let results = run_spec(&spec, args)?;
    print_latencies(
        out,
        "Fig. 7a — single-level factory latency (cycles) vs capacity",
        &results,
        "single",
        &args.mode.single_level_capacities(),
    );
    print_latencies(
        out,
        "Fig. 7b — two-level factory latency (cycles) vs capacity",
        &results,
        "double",
        &args.mode.two_level_capacities(),
    );
    Ok(())
}

/// One panel: FD and GP latency per capacity next to the critical path.
fn print_latencies(
    out: &mut Out,
    title: &str,
    results: &SweepResults,
    label: &str,
    capacities: &[usize],
) {
    writeln!(out, "# {title}");
    write!(out, "{:<12}", "capacity");
    for header in [
        "Force Directed",
        "Graph Partitioning",
        "Theoretical Lower Bound",
    ] {
        write!(out, "{header:>26}");
    }
    writeln!(out);
    for &capacity in capacities {
        let fd = results.find(label, "FD", capacity).expect("FD row present");
        let gp = results.find(label, "GP", capacity).expect("GP row present");
        writeln!(
            out,
            "{capacity:<12}{:>26}{:>26}{:>26}",
            fd.evaluation.latency_cycles,
            gp.evaluation.latency_cycles,
            gp.evaluation.critical_path_cycles
        );
    }
    writeln!(out);
}
