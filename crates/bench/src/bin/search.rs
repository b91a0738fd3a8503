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

use msfu_bench::{run_request, HarnessArgs, Mode};
use msfu_core::{SearchReport, SearchSpec};
use msfu_service::{Payload, Request};

fn print_report(report: &SearchReport) {
    println!(
        "# search {} — objective {}, factory k={} levels={} ({:?})",
        report.name,
        report.objective.name(),
        report.factory.k,
        report.factory.levels,
        report.stop,
    );
    println!(
        "# {} candidates in {} batch(es)",
        report.evaluations, report.batches
    );
    println!();
    println!("# incumbent trajectory (candidate -> objective)");
    for point in &report.trajectory {
        println!("{:>6} {:>14}", point.evaluation, point.value);
    }
    println!();
    println!("# best candidate per portfolio entry");
    println!(
        "{:<12}{:>10}{:>14}{:>14}{:>10}",
        "strategy", "candidate", "latency", "volume", "area"
    );
    for best in &report.entry_bests {
        println!(
            "{:<12}{:>10}{:>14}{:>14}{:>10}",
            best.evaluation.strategy,
            best.candidate,
            best.evaluation.latency_cycles,
            best.evaluation.volume,
            best.evaluation.area,
        );
    }
    println!();
    if let Some(incumbent) = &report.incumbent {
        println!(
            "# incumbent: {} (candidate {}) -> {} = {} (volume {}, latency {}, area {})",
            incumbent.evaluation.strategy,
            incumbent.candidate,
            report.objective.name(),
            incumbent.value,
            incumbent.evaluation.volume,
            incumbent.evaluation.latency_cycles,
            incumbent.evaluation.area,
        );
        println!("# incumbent params: {}", describe(incumbent));
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

fn run() -> Result<(), String> {
    let mut spec_path: Option<String> = None;
    let mut serial = false;
    let mut json = false;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "serial" | "--serial" => serial = true,
            "--json" => json = true,
            "--cache-dir" => {
                let dir = args.next().ok_or("--cache-dir needs a directory")?;
                cache_dir = Some(dir.into());
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ => {
                if spec_path.replace(arg).is_some() {
                    return Err("exactly one spec file is expected".to_string());
                }
            }
        }
    }
    let spec_path = spec_path
        .ok_or("usage: search <SPEC.json> [serial] [--json] [--cache-dir DIR]".to_string())?;
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = SearchSpec::from_json(&text).map_err(|e| e.to_string())?;
    let args = HarnessArgs {
        mode: Mode::Quick,
        serial,
        json,
        cache_dir,
    };
    let Payload::Search(report) = run_request(Request::search(spec.name.clone(), spec), &args)?
    else {
        unreachable!("a search request yields a search payload");
    };
    print_report(&report);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("search: {msg}");
            ExitCode::from(2)
        }
    }
}
