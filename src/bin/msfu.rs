//! The unified `msfu` command-line front end of the service façade.
//!
//! ```text
//! msfu run <REQUEST.json> [--serial] [--progress] [--workers N]
//!          [--cache-dir DIR] [--fault-plan FILE] [--shard-timeout-ms MS]
//!          [--max-respawns N]
//!     Execute one job request and print its JSON response on stdout.
//!     --progress additionally streams NDJSON progress events on stderr.
//!     --workers N shards the sweep/search across N child `msfu serve`
//!     worker processes; the merged response is byte-identical to a
//!     single-process run (only the perf stamp differs, gaining a
//!     perf.cluster section); stream jobs always run in-process (one shared
//!     clock — there is nothing to shard). --cache-dir DIR is the default
//!     persistent evaluation-cache directory of a sweep/search/stream
//!     request without its own "cache_dir" (the request's own wins):
//!     already simulated evaluations are served from disk, new ones are
//!     appended, and results stay byte-identical either way.
//!
//! msfu serve [--serial] [--bench-dir DIR] [--workers N] [--cache-dir DIR]
//!            [--fault-plan FILE] [--shard-timeout-ms MS] [--max-respawns N]
//!     JSON-lines session: one request per stdin line, interleaved NDJSON
//!     progress events and responses on stdout, until EOF. Every output
//!     line is flushed as soon as it is written. A line of
//!     {"protocol_version": 1, "cancel": "<id>"} cancels the in-flight or
//!     queued job with that id (with --workers, the cancel fans out to all
//!     workers). --bench-dir additionally writes each completed
//!     sweep/search/stream response as BENCH_<name>.json under DIR, in the
//!     shape the bench-diff regression gate compares. --workers N shards
//!     sweep/search jobs across a pool of N child worker processes that is
//!     connected on the first such job and reused for the session.
//!     --cache-dir DIR is the session-default persistent cache directory:
//!     sweep/search/stream requests without their own "cache_dir" inherit
//!     it, and worker shards share it, so jobs warm each other across the
//!     session and across processes.
//!
//! msfu cache verify <DIR>
//!     Read-only scan of a persistent evaluation-cache directory: prints
//!     every damaged record and quarantined segment. Exit 0 when the
//!     directory is clean, 1 when any damage is present.
//!
//! msfu cache compact <DIR>
//!     Rewrites the cache directory keeping exactly the decodable records
//!     (quarantined segments are salvaged and removed, duplicates and
//!     damaged bytes dropped), leaving a directory that re-opens
//!     warning-free.
//! ```
//!
//! Fault injection: `--fault-plan FILE` loads a seeded, declarative fault
//! plan — worker crashes, stalls, garbled responses, cache corruption —
//! documented in `msfu::service::faults`. Worker-pool knobs:
//! `--shard-timeout-ms MS` bounds how long one dispatched shard may stay in
//! flight before its worker is declared hung, and `--max-respawns N` caps
//! replacement workers (default: one per configured worker).
//!
//! `run` and `serve` share one request path (`msfu::service::Session`), so
//! a flag means the same in both.
//!
//! Request/response schemas are documented in `msfu::service::protocol` and
//! the README's "Service protocol" section. Exit status: 0 when every
//! response is ok, 1 when any response carries an error (for `cache
//! verify`: when damage is present), 2 on usage or I/O problems.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Mutex;

use msfu::core::{compact_dir, verify_dir};
use msfu::service::faults::ENV_WORKER_FAULT;
use msfu::service::{
    serve, ClusterBackend, FaultPlan, JobHandle, Request, Response, ServeOptions, Session,
    WorkerFaultSpec,
};

const USAGE: &str = "usage: msfu run <REQUEST.json> [--serial] [--progress] [--workers N] [--cache-dir DIR] [--fault-plan FILE] [--shard-timeout-ms MS] [--max-respawns N]\n       msfu serve [--serial] [--bench-dir DIR] [--workers N] [--cache-dir DIR] [--fault-plan FILE] [--shard-timeout-ms MS] [--max-respawns N]\n       msfu cache verify <DIR>\n       msfu cache compact <DIR>";

/// What the `run` / `serve` flags ask for.
struct Flags<'a> {
    options: ServeOptions,
    /// `run --progress`: stream NDJSON progress events on stderr.
    progress: bool,
    /// `run`'s request file.
    request: Option<&'a str>,
}

/// Parses the flags `run` and `serve` share into [`ServeOptions`], plus
/// each command's own: `run` takes `--progress` and one request file,
/// `serve` takes `--bench-dir`.
fn parse_flags(args: &[String], run: bool) -> Result<Flags<'_>, String> {
    let mut options = ServeOptions::new();
    let mut progress = false;
    let mut request = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        options = match arg.as_str() {
            "--serial" | "serial" => options.with_serial(true),
            "--progress" if run => {
                progress = true;
                options
            }
            "--bench-dir" if !run => options.with_bench_dir(value("a directory")?),
            "--workers" => {
                let v = value("a count")?;
                options.with_workers(v.parse().map_err(|_| format!("bad worker count `{v}`"))?)
            }
            "--cache-dir" => options.with_cache_dir(value("a directory")?),
            "--fault-plan" => {
                let path = value("a file")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
                options.with_fault_plan(
                    FaultPlan::from_json(&text).map_err(|e| format!("fault plan {path}: {e}"))?,
                )
            }
            "--shard-timeout-ms" => {
                let v = value("a value")?;
                options.with_shard_timeout_ms(
                    v.parse().map_err(|_| format!("bad shard timeout `{v}`"))?,
                )
            }
            "--max-respawns" => {
                let v = value("a count")?;
                options
                    .with_max_respawns(v.parse().map_err(|_| format!("bad respawn count `{v}`"))?)
            }
            _ if arg.starts_with("--") || !run => {
                return Err(format!("unknown argument `{arg}`"));
            }
            _ => {
                if request.replace(arg.as_str()).is_some() {
                    return Err("exactly one request file is expected".to_string());
                }
                options
            }
        };
    }
    if options.workers > 0 {
        // Workers are child processes of this very executable.
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the msfu executable: {e}"))?;
        options = options.with_backend(ClusterBackend::ChildProcess { exe });
    }
    Ok(Flags {
        options,
        progress,
        request,
    })
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args, true)?;
    let path = flags.request.ok_or_else(|| USAGE.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let response = match Request::from_json(&text) {
        Ok(request) => {
            let stderr = Mutex::new(std::io::stderr());
            Session::new(flags.options).run(
                request,
                &JobHandle::new(),
                flags.progress.then_some(&stderr),
            )
        }
        Err(error) => Response::for_request_error(error),
    };
    let ok = response.result.is_ok();
    let text = serde_json::to_string_pretty(&response.to_value()).map_err(|e| e.to_string())?;
    // Tolerate a closed pipe (e.g. `msfu run ... | head`): the job already
    // ran; a write error must not turn into a panic.
    let _ = writeln!(std::io::stdout(), "{text}");
    Ok(ok)
}

fn serve_command(args: &[String]) -> Result<bool, String> {
    let mut options = parse_flags(args, false)?.options;
    if let Ok(text) = std::env::var(ENV_WORKER_FAULT) {
        // This process is a worker of a supervised pool: the coordinator
        // handed it its slice of the fault plan.
        options = options.with_worker_fault(
            WorkerFaultSpec::from_json(&text).map_err(|e| format!("{ENV_WORKER_FAULT}: {e}"))?,
        );
    }
    // StdinLock is not Send (the reader runs on a dedicated thread), so wrap
    // the unlocked handle instead.
    let stdin = std::io::BufReader::new(std::io::stdin());
    let stdout = std::io::stdout().lock();
    let summary = serve(stdin, stdout, &options).map_err(|e| format!("serve session: {e}"))?;
    writeln!(
        std::io::stderr(),
        "[msfu serve] {} response(s), {} error(s), {} cancelled",
        summary.responses,
        summary.errors,
        summary.cancelled
    )
    .ok();
    Ok(summary.errors == 0)
}

fn cache_command(args: &[String]) -> Result<bool, String> {
    let [action, dir] = args else {
        return Err(USAGE.to_string());
    };
    let dir = std::path::Path::new(dir);
    match action.as_str() {
        "verify" => {
            let report = verify_dir(dir)?;
            for warning in &report.warnings {
                eprintln!("[msfu cache] {warning}");
            }
            for path in &report.quarantined {
                eprintln!(
                    "[msfu cache] quarantined segment present: {}",
                    path.display()
                );
            }
            println!(
                "{}: {} segment(s), {} record(s), {} byte(s), {} warning(s), {} quarantined — {}",
                dir.display(),
                report.segments,
                report.records,
                report.bytes,
                report.warnings.len(),
                report.quarantined.len(),
                if report.is_clean() {
                    "clean"
                } else {
                    "DAMAGED (run `msfu cache compact`)"
                },
            );
            Ok(report.is_clean())
        }
        "compact" => {
            let report = compact_dir(dir)?;
            println!(
                "{}: kept {} record(s) ({} duplicate(s) dropped, {} salvaged from quarantine, \
                 {} damaged dropped), removed {} quarantined segment(s), {} -> {} bytes",
                dir.display(),
                report.records_kept,
                report.duplicates_dropped,
                report.salvaged,
                report.damage_dropped,
                report.quarantined_removed,
                report.bytes_before,
                report.bytes_after,
            );
            Ok(true)
        }
        other => Err(format!("unknown cache action `{other}` (verify | compact)")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("serve") => serve_command(&args[1..]),
        Some("cache") => cache_command(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("msfu: {message}");
            ExitCode::from(2)
        }
    }
}
