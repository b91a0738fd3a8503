//! Runs a portfolio search declared as a JSON spec file and reports the
//! best-so-far incumbent — the "open line-up" counterpart of the fixed
//! figure/table sweeps.
//!
//! Usage: `cargo run -p msfu-bench --bin search --release -- <SPEC.json> [serial] [--json] [--cache-dir DIR]`
//!
//! * `<SPEC.json>` — a [`SearchSpec`] document (see
//!   `msfu_core::search::SearchSpec::from_json` and the README's
//!   "Portfolio search" section; `benches/specs/search_smoke.json` is a
//!   worked example).
//! * `serial` — run candidate batches sequentially (results are identical).
//! * `--json` — additionally write `BENCH_<name>.json` with one
//!   `portfolio/<strategy>` row per portfolio entry plus the `incumbent`
//!   row, in the same shape the figure binaries emit so `bench-diff` gates
//!   search results too.
//! * `--cache-dir DIR` — point the search at a persistent evaluation-cache
//!   directory (the default; the spec's own `cache_dir` wins): already simulated
//!   candidates are served from disk, new ones are appended, and results
//!   stay byte-identical either way.
//!
//! Like the figure binaries, this is a thin wrapper over the service
//! façade: it runs a search [`Request`] through
//! [`msfu_bench::run_request`] and only formats the returned report.

use std::process::ExitCode;

use msfu_bench::{run_request, HarnessArgs, Out};
use msfu_core::{SearchReport, SearchSpec};
use msfu_service::{Payload, Request};

fn print_report(out: &mut Out, report: &SearchReport) {
    writeln!(
        out,
        "# search {} — objective {}, factory k={} levels={} ({:?})",
        report.name,
        report.objective.name(),
        report.factory.k,
        report.factory.levels,
        report.stop,
    );
    writeln!(
        out,
        "# {} candidates in {} batch(es)",
        report.evaluations, report.batches
    );
    writeln!(out);
    writeln!(out, "# incumbent trajectory (candidate -> objective)");
    for point in &report.trajectory {
        writeln!(out, "{:>6} {:>14}", point.evaluation, point.value);
    }
    writeln!(out);
    writeln!(out, "# best candidate per portfolio entry");
    writeln!(
        out,
        "{:<12}{:>10}{:>14}{:>14}{:>10}",
        "strategy", "candidate", "latency", "volume", "area"
    );
    for best in &report.entry_bests {
        writeln!(
            out,
            "{:<12}{:>10}{:>14}{:>14}{:>10}",
            best.evaluation.strategy,
            best.candidate,
            best.evaluation.latency_cycles,
            best.evaluation.volume,
            best.evaluation.area,
        );
    }
    writeln!(out);
    if let Some(incumbent) = &report.incumbent {
        writeln!(
            out,
            "# incumbent: {} (candidate {}) -> {} = {} (volume {}, latency {}, area {})",
            incumbent.evaluation.strategy,
            incumbent.candidate,
            report.objective.name(),
            incumbent.value,
            incumbent.evaluation.volume,
            incumbent.evaluation.latency_cycles,
            incumbent.evaluation.area,
        );
        writeln!(out, "# incumbent params: {}", describe(incumbent));
    }
}

fn describe(incumbent: &msfu_core::search::Incumbent) -> String {
    let params: Vec<String> = incumbent
        .strategy
        .params()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("{}({})", incumbent.strategy.key(), params.join(", "))
}

fn main() -> ExitCode {
    msfu_bench::main("search", true, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let spec = SearchSpec::from_json(&args.spec()?).map_err(|e| e.to_string())?;
    let Payload::Search(report) = run_request(Request::search(spec.name.clone(), spec), args)?
    else {
        unreachable!("a search request yields a search payload");
    };
    print_report(out, &report);
    Ok(())
}
