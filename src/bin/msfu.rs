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
//!     clock — there is nothing to shard). --cache-dir DIR points the
//!     sweep/search/stream at a persistent evaluation-cache directory:
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
//! Fault injection: `--fault-plan FILE` (or the `MSFU_FAULT_PLAN`
//! environment variable carrying the same JSON inline) loads a seeded,
//! declarative fault plan — worker crashes, stalls, garbled responses,
//! cache corruption — documented in `msfu::service::faults`. Supervision
//! knobs: `--shard-timeout-ms MS` bounds how long one dispatched shard may
//! stay in flight before its worker is declared hung, and
//! `--max-respawns N` caps replacement workers (default: one per
//! configured worker).
//!
//! Request/response schemas are documented in `msfu::service::protocol` and
//! the README's "Service protocol" section. Exit status: 0 when every
//! response is ok, 1 when any response carries an error (for `cache
//! verify`: when damage is present), 2 on usage or I/O problems.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use msfu::core::{compact_dir, verify_dir};
use msfu::service::faults::ENV_WORKER_FAULT;
use msfu::service::{
    run_clustered, serve, Cluster, ClusterBackend, FaultPlan, Job, JobHandle, NdjsonSink, Request,
    ServeOptions, Service, Supervision, WorkerFaultSpec,
};

const USAGE: &str = "usage: msfu run <REQUEST.json> [--serial] [--progress] [--workers N] [--cache-dir DIR] [--fault-plan FILE] [--shard-timeout-ms MS] [--max-respawns N]\n       msfu serve [--serial] [--bench-dir DIR] [--workers N] [--cache-dir DIR] [--fault-plan FILE] [--shard-timeout-ms MS] [--max-respawns N]\n       msfu cache verify <DIR>\n       msfu cache compact <DIR>";

/// Loads `--fault-plan FILE`, falling back to the `MSFU_FAULT_PLAN`
/// environment variable (the JSON plan inline); an explicit file replaces
/// the environment's plan as a whole.
fn load_fault_plan(file: Option<&str>) -> Result<Option<FaultPlan>, String> {
    match file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
            Ok(Some(
                FaultPlan::from_json(&text).map_err(|e| format!("fault plan {path}: {e}"))?,
            ))
        }
        None => match std::env::var("MSFU_FAULT_PLAN") {
            Ok(text) => FaultPlan::from_json(&text)
                .map(Some)
                .map_err(|e| format!("MSFU_FAULT_PLAN: {e}")),
            Err(_) => Ok(None),
        },
    }
}

/// The child-process backend spawning this very executable as workers.
fn child_backend() -> Result<ClusterBackend, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the msfu executable: {e}"))?;
    Ok(ClusterBackend::ChildProcess { exe })
}

/// Builds the supervision policy from the shared CLI knobs.
fn supervision_from_flags(
    workers: usize,
    shard_timeout_ms: Option<u64>,
    max_respawns: Option<u32>,
) -> Supervision {
    Supervision::default()
        .with_shard_timeout(shard_timeout_ms.map(Duration::from_millis))
        .with_max_respawns(
            max_respawns.unwrap_or_else(|| u32::try_from(workers).unwrap_or(u32::MAX)),
        )
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let mut request_path: Option<&str> = None;
    let mut serial = false;
    let mut progress = false;
    let mut workers = 0usize;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut fault_plan_file: Option<&str> = None;
    let mut shard_timeout_ms: Option<u64> = None;
    let mut max_respawns: Option<u32> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--serial" | "serial" => serial = true,
            "--progress" => progress = true,
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a count")?;
                workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
            }
            "--cache-dir" => {
                let dir = iter.next().ok_or("--cache-dir needs a directory")?;
                cache_dir = Some(dir.into());
            }
            "--fault-plan" => {
                fault_plan_file = Some(iter.next().ok_or("--fault-plan needs a file")?);
            }
            "--shard-timeout-ms" => {
                let v = iter.next().ok_or("--shard-timeout-ms needs a value")?;
                shard_timeout_ms = Some(v.parse().map_err(|_| format!("bad shard timeout `{v}`"))?);
            }
            "--max-respawns" => {
                let v = iter.next().ok_or("--max-respawns needs a count")?;
                max_respawns = Some(v.parse().map_err(|_| format!("bad respawn count `{v}`"))?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ => {
                if request_path.replace(arg).is_some() {
                    return Err("exactly one request file is expected".to_string());
                }
            }
        }
    }
    let path = request_path.ok_or_else(|| USAGE.to_string())?;
    let plan = load_fault_plan(fault_plan_file)?;
    if let (Some(plan), Some(dir)) = (&plan, &cache_dir) {
        for damaged in plan.apply_cache_corruption(dir)? {
            eprintln!(
                "[msfu faults] corrupted cache segment {}",
                damaged.display()
            );
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let response = match Request::from_json(&text) {
        Ok(mut request) => {
            request.serial = request.serial || serial;
            if let Some(dir) = cache_dir {
                // An explicit flag overrides the request's own cache_dir.
                match &mut request.job {
                    Job::Sweep { spec } => spec.cache_dir = Some(dir),
                    Job::Search { spec } => spec.cache_dir = Some(dir),
                    Job::Stream { spec } => spec.cache_dir = Some(dir),
                    _ => {}
                }
            }
            let handle = JobHandle::new();
            let clustered =
                workers > 0 && matches!(request.job, Job::Sweep { .. } | Job::Search { .. });
            if clustered {
                // One-shot pool of child `msfu serve` workers; dropped (and
                // reaped) as soon as the merged response is in.
                let mut pool = Cluster::connect(&child_backend()?, workers, plan.as_ref())
                    .map_err(|e| format!("cannot connect the worker pool: {e}"))?
                    .with_supervision(supervision_from_flags(
                        workers,
                        shard_timeout_ms,
                        max_respawns,
                    ));
                let stderr = Mutex::new(std::io::stderr());
                run_clustered(&mut pool, &request, &handle, progress.then_some(&stderr))
            } else if progress {
                let stderr = Mutex::new(std::io::stderr());
                let sink = NdjsonSink::new(&request.id, &stderr);
                Service::new().run(&request, &handle, &sink)
            } else {
                Service::new().run(&request, &handle, &msfu::core::NoProgress)
            }
        }
        Err(error) => msfu::service::Response::for_request_error(error),
    };
    let ok = response.result.is_ok();
    let text = serde_json::to_string_pretty(&response.to_value()).map_err(|e| e.to_string())?;
    // Tolerate a closed pipe (e.g. `msfu run ... | head`): the job already
    // ran; a write error must not turn into a panic.
    let _ = writeln!(std::io::stdout(), "{text}");
    Ok(ok)
}

fn serve_command(args: &[String]) -> Result<bool, String> {
    let mut options = ServeOptions::new();
    let mut fault_plan_file: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--serial" | "serial" => options = options.with_serial(true),
            "--bench-dir" => {
                let dir = iter.next().ok_or("--bench-dir needs a directory")?;
                options = options.with_bench_dir(dir);
            }
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a count")?;
                let workers = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
                options = options.with_workers(workers);
            }
            "--cache-dir" => {
                let dir = iter.next().ok_or("--cache-dir needs a directory")?;
                options = options.with_cache_dir(dir);
            }
            "--fault-plan" => {
                fault_plan_file = Some(iter.next().ok_or("--fault-plan needs a file")?);
            }
            "--shard-timeout-ms" => {
                let v = iter.next().ok_or("--shard-timeout-ms needs a value")?;
                let ms = v.parse().map_err(|_| format!("bad shard timeout `{v}`"))?;
                options = options.with_shard_timeout_ms(ms);
            }
            "--max-respawns" => {
                let v = iter.next().ok_or("--max-respawns needs a count")?;
                let n = v.parse().map_err(|_| format!("bad respawn count `{v}`"))?;
                options = options.with_max_respawns(n);
            }
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    if let Some(plan) = load_fault_plan(fault_plan_file)? {
        options = options.with_fault_plan(plan);
    }
    if options.workers > 0 {
        options = options.with_backend(child_backend()?);
    }
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
