//! Runs a streaming workload declared as a JSON spec file and reports
//! per-scheduler latency/throughput/utilization — the online-traffic
//! counterpart of the fixed figure/table sweeps.
//!
//! Usage: `cargo run -p msfu-bench --bin stream --release -- <SPEC.json> [serial] [--json] [--cache-dir DIR]`
//!
//! * `<SPEC.json>` — a [`StreamSpec`] document (see
//!   `msfu_core::stream::StreamSpec::from_json` and the README's
//!   "Streaming workload" section; `benches/specs/stream_quick.json` is a
//!   worked example).
//! * `serial` — accepted like in the other binaries; the streaming engine
//!   is sequential either way.
//! * `--json` — additionally write `BENCH_<name>.json` with `p50`, `p99`
//!   and `throughput` rows per scheduler, in the same shape the figure
//!   binaries emit so `bench-diff` gates streaming results too.
//! * `--cache-dir DIR` — point the run at a persistent evaluation-cache
//!   directory (the default; the spec's own `cache_dir` wins): per-class service
//!   times already simulated are served from disk, new ones are appended,
//!   and results stay byte-identical either way.
//!
//! Like the figure binaries, this is a thin wrapper over the service
//! façade: it runs a stream [`Request`] through
//! [`msfu_bench::run_request`] and only formats the returned report.

use std::process::ExitCode;

use msfu_bench::{run_request, HarnessArgs, Out};
use msfu_core::{StreamReport, StreamSpec};
use msfu_service::{Payload, Request};

fn print_report(out: &mut Out, report: &StreamReport) {
    writeln!(
        out,
        "# stream {} — seed {}, horizon {} cycles, {} arrivals over {} server(s), setup {} cycles",
        report.name,
        report.seed,
        report.horizon,
        report.arrivals,
        report.fleet.len(),
        report.setup_cycles,
    );
    writeln!(out);
    writeln!(
        out,
        "{:<16}{:>10}{:>10}{:>10}{:>10}{:>14}{:>8}{:>8}{:>8}",
        "scheduler", "done", "p50", "p95", "p99", "jobs/kcycle", "util%", "maxq", "setups"
    );
    for run in &report.runs {
        writeln!(
            out,
            "{:<16}{:>10}{:>10}{:>10}{:>10}{:>14.3}{:>8.1}{:>8}{:>8}",
            run.scheduler,
            run.completed,
            run.latency_p50,
            run.latency_p95,
            run.latency_p99,
            run.throughput_jobs_per_kcycle,
            run.utilization * 100.0,
            run.max_queue_depth,
            run.setup_switches,
        );
    }
}

fn main() -> ExitCode {
    msfu_bench::main("stream", true, run)
}

fn run(args: &HarnessArgs, out: &mut Out) -> Result<(), String> {
    let spec = StreamSpec::from_json(&args.spec()?).map_err(|e| e.to_string())?;
    let Payload::Stream(report) = run_request(Request::stream(spec.name.clone(), spec), args)?
    else {
        unreachable!("a stream request yields a stream payload");
    };
    print_report(out, &report);
    Ok(())
}
