//! The JSON-lines session loop behind `msfu serve`.
//!
//! One process serves any number of jobs: requests arrive as NDJSON on the
//! input, progress events and responses leave interleaved as NDJSON on the
//! output. Jobs execute one at a time in arrival order (so outputs are
//! deterministic for a deterministic session), but the input is drained by a
//! dedicated reader thread the whole time — which is what makes
//! `{"cancel": "<id>"}` lines take effect *mid-job*: the reader cancels the
//! in-flight job's token directly, and the job stops at its next batch
//! boundary with partial results.
//!
//! Per-thread simulator engines are reused across every job of the session
//! (see `msfu_core::evaluate`), so arenas are allocated once per worker, not
//! once per job.
//!
//! **Flush guarantee.** Every NDJSON line — progress event or response — is
//! flushed to the output the moment it is written. A client reading the
//! pipe sees each line as soon as its event happens; buffering never delays
//! or batches session output. This holds for coordinated (`workers > 0`)
//! sessions too: merged progress lines flush as worker events arrive.
//!
//! With [`ServeOptions::workers`] set, sweep and search jobs are sharded
//! across a worker pool (see [`crate::cluster`]) that is connected lazily on
//! the first such job and reused for the rest of the session; merged
//! results are byte-identical to a single-process run.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde_json::Value;

use msfu_core::{CancelToken, NoProgress, ProgressSink};

use crate::cluster::{self, Cluster, ClusterBackend, Supervision};
use crate::error_code::{E_REQUEST_PARSE, E_WORKER_LOST};
use crate::faults::{FaultPlan, WorkerFaultSpec};
use crate::ndjson::NdjsonSink;
use crate::protocol::{
    Job, Payload, Request, RequestError, Response, ResponsePerf, ServiceError, SessionLine,
};
use crate::service::{run_control, JobHandle, Service};

/// Longest request line a session reads, newline excluded (64 MiB; the
/// largest checked-in request is ~60 KB). A longer line is answered with
/// `E_REQUEST_PARSE` and skipped without being buffered.
const MAX_LINE_BYTES: usize = 64 << 20;

/// Options of a serve session.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Force every job to run serially (a request's own `serial` flag still
    /// applies when this is off).
    pub serial: bool,
    /// When set, each successful sweep/search/stream response is
    /// additionally written as `BENCH_<name>.json` under this directory, in
    /// the shape the `bench-diff` regression gate compares.
    pub bench_dir: Option<PathBuf>,
    /// Coordinate sweep/search jobs across this many workers (`0` = run
    /// everything in-process, no pool). The pool connects lazily on the
    /// first coordinated job and is reused for the rest of the session.
    pub workers: usize,
    /// How coordinated jobs reach their workers (ignored when `workers` is
    /// `0`).
    pub backend: ClusterBackend,
    /// Deterministic fault injection for robustness tests: which worker
    /// ranks crash, stall, or garble a response, and which cache segments
    /// are corrupted at session start (see [`FaultPlan`]). Each worker
    /// receives its slice of the plan when the pool connects; cache
    /// corruption is applied to [`ServeOptions::cache_dir`] before the
    /// first request runs.
    pub fault_plan: Option<FaultPlan>,
    /// This process's *own* worker-side faults, when it is a worker of a
    /// supervised pool (the coordinator sets this from the plan slice for
    /// the worker's rank): exit without responding, stall, or garble a
    /// response at a declared request index. Empty = behave normally.
    pub worker_fault: WorkerFaultSpec,
    /// Supervision: how long a dispatched shard may stay in flight before
    /// its worker is declared hung and the shard re-dispatched (`None` =
    /// only a job deadline bounds the wait).
    pub shard_timeout_ms: Option<u64>,
    /// Supervision: how many replacement workers the coordinator may spawn
    /// over the session after deaths (`None` = one per configured worker).
    /// Once every worker is gone and none may be respawned, the remaining
    /// shards run on one in-process slot. Each shard may be re-dispatched
    /// after at most 3 worker faults; the next fails the job typed with
    /// `E_SHARD_RETRY_EXHAUSTED`.
    pub max_respawns: Option<u32>,
    /// Session-default persistent cache directory: sweep/search/stream
    /// requests that carry no `"cache_dir"` of their own inherit this one, so every
    /// job of the session (and, with `workers > 0`, every worker shard)
    /// loads from and appends to one shared evaluation-cache tier. A
    /// request's explicit `cache_dir` wins over the session default.
    pub cache_dir: Option<PathBuf>,
}

impl ServeOptions {
    /// Creates the default options.
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Forces serial execution (builder style).
    pub fn with_serial(mut self, serial: bool) -> Self {
        self.serial = serial;
        self
    }

    /// Writes `BENCH_<name>.json` reports under `dir` (builder style).
    pub fn with_bench_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.bench_dir = Some(dir.into());
        self
    }

    /// Coordinates sweeps/searches across `workers` workers (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Selects the worker communicator backend (builder style).
    pub fn with_backend(mut self, backend: ClusterBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the session's deterministic fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets this process's own worker-side faults (builder style); used by
    /// the communicator when spawning pool workers.
    pub fn with_worker_fault(mut self, fault: WorkerFaultSpec) -> Self {
        self.worker_fault = fault;
        self
    }

    /// Bounds how long a dispatched shard may stay in flight (builder
    /// style); see [`ServeOptions::shard_timeout_ms`].
    pub fn with_shard_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.shard_timeout_ms = Some(timeout_ms);
        self
    }

    /// Caps worker respawns over the session (builder style); see
    /// [`ServeOptions::max_respawns`].
    pub fn with_max_respawns(mut self, max_respawns: u32) -> Self {
        self.max_respawns = Some(max_respawns);
        self
    }

    /// Sets the session-default persistent cache directory (builder style);
    /// see [`ServeOptions::cache_dir`].
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }
}

/// What a completed serve session did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeSummary {
    /// Responses written (one per request line, malformed ones included).
    pub responses: usize,
    /// Responses with `status: "error"`.
    pub errors: usize,
    /// Responses with `cancelled: true`.
    pub cancelled: usize,
}

/// Runs one serve session: NDJSON requests on `input` until EOF, interleaved
/// progress events and responses on `output`.
///
/// Every line gets exactly one response, in arrival order; malformed lines
/// and unsupported protocol versions produce typed error responses and the
/// session keeps serving. A `{"cancel": "<id>"}` line cancels the job with
/// that id whether it is currently running or still queued.
///
/// Every output line is flushed as soon as it is written (see the module
/// docs): a client reading the pipe observes each progress event and
/// response the moment it happens, never delayed by buffering.
///
/// # Errors
///
/// Returns an error only when writing to `output` fails; job failures are
/// responses, and a [`ServeOptions::bench_dir`] report that cannot be
/// written (after its response line) is one stderr line, not an error.
///
/// `input` is `'static` because the reader runs on a *detached* thread: if
/// writing a response fails while the input is still open (a client that
/// tore down only the output pipe), `serve` returns the error immediately
/// instead of joining a reader that is blocked on a read forever.
pub fn serve<R, W>(input: R, output: W, options: &ServeOptions) -> std::io::Result<ServeSummary>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    serve_with_line_cap(input, output, options, MAX_LINE_BYTES)
}

/// [`serve`] with request lines capped at `max_line` bytes.
fn serve_with_line_cap<R, W>(
    input: R,
    output: W,
    options: &ServeOptions,
    max_line: usize,
) -> std::io::Result<ServeSummary>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let out = Mutex::new(output);
    let state = Arc::new(Mutex::new(SessionState::default()));
    let (tx, rx) = mpsc::channel::<Result<Box<Request>, RequestError>>();
    let mut summary = ServeSummary::default();

    let reader_state = Arc::clone(&state);
    thread::spawn(move || {
        read_lines(input, max_line, |line| {
            match line.and_then(SessionLine::from_json) {
                Ok(SessionLine::Cancel(id)) => {
                    reader_state
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .cancel(&id);
                    true
                }
                Ok(SessionLine::Request(request)) => tx.send(Ok(request)).is_ok(),
                Err(error) => tx.send(Err(error)).is_ok(),
            }
        });
    });

    let mut session = Session::new(options.clone());
    let mut jobs_received = 0usize;
    for message in rx {
        let mut garble = false;
        let response = match message {
            Err(error) => Response::for_request_error(error),
            Ok(request) => {
                let job_index = jobs_received;
                if options
                    .worker_fault
                    .exit_after_jobs
                    .is_some_and(|limit| job_index >= limit)
                {
                    // Simulated crash (worker-fault hook): exit without
                    // responding, so from the client's point of view this
                    // session died mid-job.
                    break;
                }
                if let Some(after) = options.worker_fault.stall_after_jobs {
                    if job_index >= after {
                        // Simulated hang: sleep *before* serving, so the
                        // coordinator sees a request that never answers
                        // within its shard timeout. The stall is sticky —
                        // every request from `after` onwards hangs — because
                        // a wedged worker does not recover by itself.
                        thread::sleep(Duration::from_millis(
                            options.worker_fault.stall_duration_ms,
                        ));
                    }
                }
                // Garbled-response fault: serve the job normally, then
                // replace the response line with undecodable output below.
                garble = options.worker_fault.corrupt_after_jobs == Some(job_index);
                jobs_received += 1;
                let id = request.id.clone();
                let handle = JobHandle::new();
                state
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .start(&id, &handle);
                let response = session.run(*request, &handle, Some(&out));
                state.lock().unwrap_or_else(|e| e.into_inner()).finish(&id);
                response
            }
        };
        summary.responses += 1;
        if response.result.is_err() {
            summary.errors += 1;
        }
        if response.cancelled {
            summary.cancelled += 1;
        }
        let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
        if garble {
            // Corrupt-response fault: a syntactically valid JSON line with a
            // status no coordinator understands — the supervisor must treat
            // it as a retryable worker fault, not a typed job error.
            let line = Value::Object(vec![
                ("type".to_string(), Value::Str("response".to_string())),
                ("id".to_string(), Value::Str(response.id.clone())),
                ("status".to_string(), Value::Str("garbled".to_string())),
            ]);
            let text =
                serde_json::to_string(&line).map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(out, "{text}")?;
        } else {
            writeln!(out, "{}", response.to_json())?;
        }
        out.flush()?;
        if let Some(dir) = &options.bench_dir {
            if let Err(error) = write_bench_report(dir, &response) {
                eprintln!("[msfu serve] no BENCH report for {}: {error}", response.id);
            }
        }
    }
    Ok(summary)
}

/// Reads `input` line by line into one reused buffer, handing every
/// non-blank line (trimmed) to `on_line` until EOF, an I/O error, or
/// `on_line` returning `false`.
///
/// A line that is not UTF-8, or longer than `max_line` bytes, reaches
/// `on_line` as an `E_REQUEST_PARSE` error instead; an over-long line is
/// skipped up to its newline without being buffered. Either way the
/// session reads on.
fn read_lines<R: BufRead>(
    mut input: R,
    max_line: usize,
    mut on_line: impl FnMut(Result<&str, RequestError>) -> bool,
) {
    let parse_error = |message: String| RequestError {
        id: None,
        error: ServiceError::new(E_REQUEST_PARSE, message),
    };
    let limit = u64::try_from(max_line)
        .unwrap_or(u64::MAX)
        .saturating_add(1);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match input.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let line = if buf.len() > max_line && buf.last() != Some(&b'\n') {
            if skip_line(&mut input).is_err() {
                return;
            }
            // Release the capped allocation rather than keep it all session.
            buf = Vec::new();
            Err(parse_error(format!(
                "request line is longer than {max_line} bytes"
            )))
        } else {
            std::str::from_utf8(&buf)
                .map(str::trim)
                .map_err(|e| parse_error(format!("request line is not UTF-8: {e}")))
        };
        if matches!(line, Ok("")) {
            continue;
        }
        if !on_line(line) {
            return;
        }
    }
}

/// Consumes `input` up to and including the next newline (or to EOF)
/// without buffering what it skips.
fn skip_line<R: BufRead>(input: &mut R) -> io::Result<()> {
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(end) => {
                input.consume(end + 1);
                return Ok(());
            }
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
}

/// The request path every front end shares: `msfu serve` runs each session
/// line through it, `msfu run` its one request, and the bench harness its
/// sweep, search or stream.
///
/// A session applies the fault plan's cache corruption once, when it is
/// built. Per request it merges the session's `serial` flag, fills in the
/// session `cache_dir` where the request names none, and runs the job:
/// sweeps and searches across the worker pool when
/// [`ServeOptions::workers`] is set (the pool connects on the first such
/// job and is reused), everything else in-process through [`Service::run`].
pub struct Session {
    options: ServeOptions,
    cluster: Option<Cluster>,
}

impl Session {
    /// Opens a session, corrupting the cache directory first when the
    /// options' fault plan asks for it.
    pub fn new(options: ServeOptions) -> Self {
        if let (Some(plan), Some(dir)) = (&options.fault_plan, &options.cache_dir) {
            // Deterministic cache sabotage happens before the first request,
            // so the session exercises the quarantine/recovery path on open.
            match plan.apply_cache_corruption(dir) {
                Ok(damaged) => {
                    for path in &damaged {
                        eprintln!("[msfu faults] corrupted cache segment {}", path.display());
                    }
                }
                Err(message) => {
                    eprintln!("[msfu faults] cache corruption not applied: {message}");
                }
            }
        }
        Session {
            options,
            cluster: None,
        }
    }

    /// Runs one request to its response, streaming NDJSON progress lines to
    /// `progress` when given.
    /// A coordinated job's deadline and wall time count from when its pool
    /// is connected; a pool that cannot connect answers `E_WORKER_LOST`.
    pub fn run<W: Write>(
        &mut self,
        mut request: Request,
        handle: &JobHandle,
        progress: Option<&Mutex<W>>,
    ) -> Response {
        request.serial |= self.options.serial;
        if let (Some(dir), Some(slot)) = (&self.options.cache_dir, request.job.cache_dir_mut()) {
            // Session default only: a request's own cache_dir wins.
            slot.get_or_insert_with(|| dir.clone());
        }
        let ndjson;
        let sink: &dyn ProgressSink = match progress {
            Some(out) => {
                ndjson = NdjsonSink::new(&request.id, out);
                &ndjson
            }
            None => &NoProgress,
        };
        let coordinated = self.options.workers > 0
            && matches!(request.job, Job::Sweep { .. } | Job::Search { .. });
        if !coordinated {
            return Service::new().run(&request, handle, sink);
        }
        let (result, cancelled, perf) = match self.pool() {
            Ok(pool) => {
                // One clock for `wall_seconds` and `perf.cluster`.
                let start = Instant::now();
                let ctrl = run_control(&request, handle, sink, start);
                let (result, cancelled, cluster) = match &request.job {
                    Job::Search { spec } => cluster::run_search(pool, &request, spec, &ctrl, start),
                    Job::Sweep { spec } => {
                        cluster::run_sweep(pool, &request, spec, &ctrl, start, progress)
                    }
                    _ => unreachable!("only sweeps and searches are coordinated"),
                };
                let wall = start.elapsed().as_secs_f64();
                let perf = ResponsePerf::new(wall, request.serial);
                (result, cancelled, perf.with_cluster(cluster))
            }
            Err(error) => (
                Err(ServiceError::new(
                    E_WORKER_LOST,
                    format!("cannot connect the worker pool: {error}"),
                )),
                false,
                ResponsePerf::new(0.0, request.serial),
            ),
        };
        Response::new(request.id, request.job.kind(), cancelled, perf, result)
    }

    /// The session's worker pool, connected on first use.
    fn pool(&mut self) -> io::Result<&mut Cluster> {
        if self.cluster.is_none() {
            let options = &self.options;
            let supervision = Supervision {
                shard_timeout: options.shard_timeout_ms.map(Duration::from_millis),
                // Default respawn budget: one replacement per configured
                // worker — enough to survive every original rank crashing once.
                max_respawns: options
                    .max_respawns
                    .unwrap_or_else(|| u32::try_from(options.workers).unwrap_or(u32::MAX)),
            };
            self.cluster = Some(Cluster::connect(
                &options.backend,
                options.workers,
                options.fault_plan.as_ref(),
                supervision,
            )?);
        }
        Ok(self.cluster.as_mut().expect("the pool is connected"))
    }
}

/// Cancellation bookkeeping of one session, under a single lock so the
/// reader thread and the job loop always observe a consistent picture.
#[derive(Default)]
struct SessionState {
    /// The running job's cancel token, by id.
    inflight: HashMap<String, CancelToken>,
    /// Cancels for jobs that have not started yet.
    precancelled: HashSet<String>,
    /// Ids whose jobs already completed. A cancel arriving after its job
    /// finished is dropped — it must not leak forward onto a later job that
    /// happens to reuse the id (ids default to "job" when omitted).
    served: HashSet<String>,
}

impl SessionState {
    /// Handles one `{"cancel": id}` line from the reader thread.
    fn cancel(&mut self, id: &str) {
        if let Some(token) = self.inflight.get(id) {
            token.cancel();
        } else if !self.served.contains(id) {
            self.precancelled.insert(id.to_string());
        }
    }

    /// Registers a job about to run, applying any pending pre-cancel.
    fn start(&mut self, id: &str, handle: &JobHandle) {
        self.served.remove(id);
        self.inflight.insert(id.to_string(), handle.clone());
        if self.precancelled.remove(id) {
            handle.cancel();
        }
    }

    /// Marks a job's id as served. Later jobs may reuse the id (it leaves
    /// `served` again the moment one starts).
    fn finish(&mut self, id: &str) {
        self.inflight.remove(id);
        self.served.insert(id.to_string());
    }
}

/// Writes a completed sweep/search/stream response as `BENCH_<name>.json`
/// under `dir` in the `{name, perf, results}` shape the `bench-diff` gate
/// compares (searches and streams additionally carry their full report
/// under `search` / `stream`), returning the path written. Cancelled,
/// failed and `evaluate` responses are skipped (`Ok(None)`) — a partial
/// sweep must never overwrite a complete baseline candidate.
///
/// # Errors
///
/// Fails when `dir` cannot be created or the report cannot be written.
pub fn write_bench_report(dir: &Path, response: &Response) -> io::Result<Option<PathBuf>> {
    let (Some(name), Ok(payload)) = (response.name(), &response.result) else {
        return Ok(None);
    };
    if response.cancelled {
        return Ok(None);
    }
    use serde::Serialize;
    let mut entries = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        // The full perf stamp, `perf.cluster` included for coordinated
        // jobs; bench-diff gates rows and the named wall-time paths only,
        // so extra perf observability never trips the gate.
        ("perf".to_string(), response.perf.to_value()),
    ];
    match payload {
        Payload::Sweep(results) => {
            entries.push(("results".to_string(), results.to_value()));
        }
        Payload::Search(report) => {
            entries.push(("results".to_string(), report.to_sweep_results().to_value()));
            entries.push(("search".to_string(), report.to_value()));
        }
        Payload::Stream(report) => {
            entries.push(("results".to_string(), report.to_sweep_results().to_value()));
            entries.push(("stream".to_string(), report.to_value()));
        }
        Payload::Evaluate(_) => return Ok(None),
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let text = serde_json::to_string_pretty(&Value::Object(entries))
        .map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(&path, text)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(lines: &str) -> (ServeSummary, Vec<Value>) {
        session_bytes(lines.as_bytes(), MAX_LINE_BYTES, &ServeOptions::new())
    }

    /// Runs a session under `options` over raw input bytes with request
    /// lines capped at `max_line` bytes.
    fn session_bytes(
        lines: &[u8],
        max_line: usize,
        options: &ServeOptions,
    ) -> (ServeSummary, Vec<Value>) {
        let mut output: Vec<u8> = Vec::new();
        let input = std::io::Cursor::new(lines.to_vec());
        let summary = serve_with_line_cap(input, &mut output, options, max_line).unwrap();
        let text = String::from_utf8(output).unwrap();
        let values = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("every output line is JSON"))
            .collect();
        (summary, values)
    }

    fn responses(values: &[Value]) -> Vec<&Value> {
        values
            .iter()
            .filter(|v| v.get("type").and_then(Value::as_str) == Some("response"))
            .collect()
    }

    #[test]
    fn two_requests_one_process_in_order() {
        let lines = concat!(
            r#"{"protocol_version": 1, "id": "a", "kind": "evaluate", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#,
            "\n",
            r#"{"protocol_version": 1, "id": "b", "kind": "sweep", "sweep": {"name": "s", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let (summary, values) = session(lines);
        assert_eq!(summary.responses, 2);
        assert_eq!(summary.errors, 0);
        let responses = responses(&values);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].get("id").and_then(Value::as_str), Some("a"));
        assert_eq!(responses[1].get("id").and_then(Value::as_str), Some("b"));
        for r in responses {
            assert_eq!(r.get("status").and_then(Value::as_str), Some("ok"));
        }
        // The sweep's progress events precede its response.
        let first_progress = values
            .iter()
            .position(|v| v.get("type").and_then(Value::as_str) == Some("progress"))
            .expect("sweep emitted progress");
        let sweep_response = values
            .iter()
            .position(|v| {
                v.get("type").and_then(Value::as_str) == Some("response")
                    && v.get("id").and_then(Value::as_str) == Some("b")
            })
            .unwrap();
        assert!(first_progress < sweep_response);
    }

    #[test]
    fn malformed_and_mismatched_lines_get_error_responses_and_serving_continues() {
        // The third line nests 200 000 arrays: the parser must reject it
        // with a typed error instead of overflowing the stack. The fifth is
        // not UTF-8 and the seventh is longer than the session's line cap
        // (lowered here to 256 KiB): each gets a typed error, and the
        // request after it is still served.
        const MAX_LINE: usize = 256 << 10;
        let ok = concat!(
            r#"{"protocol_version": 1, "id": "ok", "kind": "evaluate", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#,
            "\n",
        );
        let mut lines = concat!(
            "this is not json\n",
            r#"{"protocol_version": 99, "id": "old", "kind": "sweep"}"#,
            "\n",
        )
        .as_bytes()
        .to_vec();
        lines.extend_from_slice("[".repeat(200_000).as_bytes());
        lines.push(b'\n');
        lines.extend_from_slice(ok.as_bytes());
        lines.extend_from_slice(b"\xff\xfe bad\n");
        lines.extend_from_slice(ok.as_bytes());
        lines.extend_from_slice(" ".repeat(MAX_LINE).as_bytes());
        lines.extend_from_slice(b"x\n");
        lines.extend_from_slice(ok.as_bytes());
        let (summary, values) = session_bytes(&lines, MAX_LINE, &ServeOptions::new());
        assert_eq!(summary.responses, 8);
        assert_eq!(summary.errors, 5);
        let responses = responses(&values);
        let code = |r: &Value| {
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        assert_eq!(code(responses[0]).as_deref(), Some("E_REQUEST_PARSE"));
        assert_eq!(code(responses[1]).as_deref(), Some("E_PROTOCOL_VERSION"));
        assert_eq!(
            responses[1].get("id").and_then(Value::as_str),
            Some("old"),
            "version errors still correlate by id"
        );
        assert_eq!(code(responses[2]).as_deref(), Some("E_REQUEST_PARSE"));
        assert_eq!(code(responses[4]).as_deref(), Some("E_REQUEST_PARSE"));
        assert_eq!(code(responses[6]).as_deref(), Some("E_REQUEST_PARSE"));
        for i in [3, 5, 7] {
            assert_eq!(
                responses[i].get("status").and_then(Value::as_str),
                Some("ok"),
                "the session keeps serving after errors (response {i})"
            );
        }
    }

    #[test]
    fn hostile_factory_sizes_get_typed_errors_and_serving_continues() {
        // Each of these once looped ~`levels` times in the size check (or
        // accepted a truncated `levels` as u32) and hung the session.
        let hostile = [
            (r#"{"k": 2, "levels": 100000000}"#, "E_FACTORY_TOO_LARGE"),
            (r#"{"k": 2, "levels": 4294967296}"#, "E_FACTORY_TOO_LARGE"),
            (
                r#"{"capacity": 4, "levels": 4294967298}"#,
                "E_FACTORY_CAPACITY_NOT_A_POWER",
            ),
        ];
        let request = |id: &str, kind: &str, factory: &str| match kind {
            "evaluate" => format!(
                r#"{{"protocol_version": 1, "id": "{id}", "kind": "evaluate", "factory": {factory}, "strategy": {{"strategy": "linear"}}}}"#
            ),
            "sweep" => format!(
                r#"{{"protocol_version": 1, "id": "{id}", "kind": "sweep", "sweep": {{"name": "s", "points": [{{"label": "p", "factory": {factory}, "strategy": {{"strategy": "linear"}}}}]}}}}"#
            ),
            _ => format!(
                r#"{{"protocol_version": 1, "id": "{id}", "kind": "stream", "stream": {{"name": "t", "horizon": 100, "arrivals": {{"process": "poisson", "rate": 0.02}}, "fleet": [{{"factory": {factory}}}], "classes": [{{"name": "c", "strategy": {{"strategy": "linear"}}}}]}}}}"#
            ),
        };
        let mut lines = String::new();
        let mut expected = Vec::new();
        for (factory, code) in hostile {
            for kind in ["evaluate", "sweep", "stream"] {
                lines += &request("bad", kind, factory);
                lines += "\n";
                lines += &request("ok", kind, r#"{"k": 2}"#);
                lines += "\n";
                expected.push((kind, code));
            }
        }
        // A gate latency above 2^63 cycles once panicked sizing the event
        // wheel, and bursty phases far shorter than the horizon hung the
        // session in the phase-flip loop.
        let latency = |field: &str, cycles: &str| {
            format!(
                r#"{{"protocol_version": 1, "id": "bad", "kind": "evaluate", "factory": {{"k": 2}}, "strategy": {{"strategy": "linear"}}, "eval": {{"latency": {{"{field}": {cycles}}}}}}}"#
            )
        };
        let bursty = |horizon: &str, rate: &str, mean: &str| {
            format!(
                r#"{{"protocol_version": 1, "id": "bad", "kind": "stream", "stream": {{"name": "t", "horizon": {horizon}, "arrivals": {{"process": "bursty", "rate": {rate}, "burst_rate": {rate}, "mean_calm": {mean}, "mean_burst": {mean}}}, "fleet": [{{"factory": {{"k": 2}}}}], "classes": [{{"name": "c", "strategy": {{"strategy": "linear"}}}}]}}}}"#
            )
        };
        for (bad, kind, code) in [
            (
                latency("cnot", "9223372036854775809"),
                "evaluate",
                "E_SPEC_PARSE",
            ),
            (
                latency("cxx_per_target", "9223372036854775807"),
                "evaluate",
                "E_SPEC_PARSE",
            ),
            (bursty("3000", "0.01", "1e-300"), "stream", "E_STREAM_SPEC"),
            (
                bursty("1000000000000000", "1e-12", "1"),
                "stream",
                "E_STREAM_SPEC",
            ),
        ] {
            lines += &bad;
            lines += "\n";
            lines += &request("ok", "evaluate", r#"{"k": 2}"#);
            lines += "\n";
            expected.push((kind, code));
        }
        let (summary, values) = session(&lines);
        assert_eq!(summary.responses, 2 * expected.len());
        assert_eq!(summary.errors, expected.len());
        let responses = responses(&values);
        for (pair, (kind, code)) in responses.chunks(2).zip(expected) {
            assert_eq!(
                pair[0]
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str),
                Some(code),
                "{kind}: {:?}",
                pair[0]
            );
            assert_eq!(
                pair[1].get("status").and_then(Value::as_str),
                Some("ok"),
                "{kind}: the next request is served"
            );
        }
    }

    #[test]
    fn hostile_random_expansions_get_typed_errors_and_serving_continues() {
        // 1e300 once panicked on a capacity overflow and 1e12 aborted on a
        // 184 TB allocation, killing the session.
        let ok = r#"{"protocol_version": 1, "id": "ok", "kind": "evaluate", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#;
        let mut lines = String::new();
        for expansion in ["1e300", "1e12"] {
            lines += &format!(
                r#"{{"protocol_version": 1, "id": "bad", "kind": "evaluate", "factory": {{"k": 2}}, "strategy": {{"strategy": "random", "expansion": {expansion}}}}}"#
            );
            lines += "\n";
            lines += ok;
            lines += "\n";
            lines += &format!(
                r#"{{"protocol_version": 1, "id": "bad", "kind": "search", "search": {{"name": "s", "factory": {{"k": 2}}, "budget": 4, "portfolio": [{{"strategy": {{"strategy": "linear"}}, "seeded": false}}, {{"strategy": {{"strategy": "random", "seed": 1}}, "ladder": [{{}}, {{"expansion": {expansion}}}]}}]}}}}"#
            );
            lines += "\n";
            lines += ok;
            lines += "\n";
        }
        let (summary, values) = session(&lines);
        assert_eq!(summary.responses, 8);
        assert_eq!(summary.errors, 4);
        for pair in responses(&values).chunks(2) {
            assert_eq!(
                pair[0]
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Value::as_str),
                Some("E_INVALID_STRATEGY_PARAM"),
                "{:?}",
                pair[0]
            );
            assert_eq!(
                pair[1].get("status").and_then(Value::as_str),
                Some("ok"),
                "the next request is served"
            );
        }
    }

    #[test]
    fn an_unwritable_bench_dir_still_answers_every_line() {
        // The bench dir is a regular file, so no report can be written:
        // both jobs are still answered and the session ends cleanly.
        let blocker = std::env::temp_dir().join(format!("msfu-serve-bench-{}", std::process::id()));
        std::fs::write(&blocker, "not a directory").unwrap();
        let lines = concat!(
            r#"{"protocol_version": 1, "id": "s", "kind": "sweep", "sweep": {"name": "s", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
            r#"{"protocol_version": 1, "id": "e", "kind": "evaluate", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#,
            "\n",
        );
        let options = ServeOptions::new().with_bench_dir(&blocker);
        let (summary, values) = session_bytes(lines.as_bytes(), MAX_LINE_BYTES, &options);
        std::fs::remove_file(&blocker).unwrap();
        assert_eq!(summary.responses, 2);
        let responses = responses(&values);
        assert_eq!(responses.len(), 2);
        for (response, id) in responses.into_iter().zip(["s", "e"]) {
            assert_eq!(response.get("id").and_then(Value::as_str), Some(id));
            assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        }
    }

    #[test]
    fn a_pool_that_cannot_connect_answers_worker_lost_and_keeps_serving() {
        let options =
            ServeOptions::new()
                .with_workers(2)
                .with_backend(ClusterBackend::ChildProcess {
                    exe: PathBuf::from("/nonexistent"),
                });
        let mut session = Session::new(options);
        let sweep = Request::sweep(
            "w",
            msfu_core::SweepSpec::new("t", msfu_core::EvaluationConfig::default()).point(
                "p",
                msfu_distill::FactoryConfig::single_level(2),
                msfu_core::Strategy::linear(),
            ),
        );
        let response = session.run::<Vec<u8>>(sweep, &JobHandle::new(), None);
        assert_eq!(response.id, "w");
        assert!(!response.cancelled);
        assert_eq!(response.perf, ResponsePerf::new(0.0, false));
        assert_eq!(response.result.unwrap_err().code, E_WORKER_LOST);
        // Evaluations never need the pool: the session still answers them.
        let evaluate = Request::evaluate(
            "e",
            msfu_distill::FactoryConfig::single_level(2),
            msfu_core::Strategy::linear(),
            msfu_core::EvaluationConfig::default(),
        );
        let response = session.run::<Vec<u8>>(evaluate, &JobHandle::new(), None);
        assert_eq!(response.id, "e");
        assert!(matches!(response.result, Ok(Payload::Evaluate(_))));
    }

    #[test]
    fn line_reader_caps_lines_and_skips_the_rest_of_an_over_long_one() {
        let mut seen = Vec::new();
        let input: &[u8] = b"abcd\n  \nabcde\nxyz\n\xff\nab";
        read_lines(input, 4, |line| {
            seen.push(line.map(str::to_string).map_err(|e| e.error.code));
            true
        });
        let parse = Err(E_REQUEST_PARSE);
        assert_eq!(
            seen,
            vec![
                Ok("abcd".to_string()),
                parse.clone(),
                Ok("xyz".to_string()),
                parse,
                Ok("ab".to_string()),
            ]
        );
    }

    #[test]
    fn session_state_drops_late_cancels_but_honours_pending_and_inflight_ones() {
        let mut state = SessionState::default();

        // Late cancel: the job already finished — dropped, and a later job
        // reusing the id starts uncancelled.
        let first = JobHandle::new();
        state.start("a", &first);
        state.finish("a");
        state.cancel("a");
        let reused = JobHandle::new();
        state.start("a", &reused);
        assert!(
            !reused.is_cancelled(),
            "late cancel leaked onto a reused id"
        );
        state.finish("a");

        // Pending cancel: the job has not started yet — applied at start.
        state.cancel("b");
        let queued = JobHandle::new();
        state.start("b", &queued);
        assert!(queued.is_cancelled());
        state.finish("b");

        // In-flight cancel: hits the running job's token directly.
        let running = JobHandle::new();
        state.start("c", &running);
        state.cancel("c");
        assert!(running.is_cancelled());
    }

    #[test]
    fn a_late_cancel_does_not_leak_onto_a_reused_id() {
        // The cancel arrives after job "a" completed (the reader processes
        // lines in order, and job 1's response precedes line 2's parse only
        // in wall time — but the session file order guarantees the first
        // request is consumed first and the cancel refers to it). A second
        // job reusing the id must run normally, not come back cancelled.
        let lines = concat!(
            r#"{"protocol_version": 1, "id": "a", "kind": "evaluate", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#,
            "\n",
            r#"{"protocol_version": 1, "cancel": "a"}"#,
            "\n",
            r#"{"protocol_version": 1, "id": "a", "kind": "sweep", "sweep": {"name": "s", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        // The race between "job 1 finishes" and "cancel parsed" is real, so
        // only assert the invariant that must hold either way: the second
        // job is a *different* job, and a cancel consumed by job 1 (or
        // dropped as late) must leave it untouched with its full row.
        let (summary, values) = session(lines);
        assert_eq!(summary.responses, 2);
        let second = responses(&values)[1];
        assert_eq!(second.get("status").and_then(Value::as_str), Some("ok"));
        let rows = second
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(|r| r.get("rows"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(rows.len(), 1, "late cancel must not skip the reused id");
    }

    #[test]
    fn queued_cancel_takes_effect_before_the_job_starts() {
        // The cancel line is read by the reader thread (possibly) before the
        // sweep starts; either way the sweep must come back cancelled with a
        // row prefix, because the cancel precedes it in the session.
        let lines = concat!(
            r#"{"protocol_version": 1, "cancel": "victim"}"#,
            "\n",
            r#"{"protocol_version": 1, "id": "victim", "kind": "sweep", "sweep": {"name": "s", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let (summary, values) = session(lines);
        assert_eq!(summary.responses, 1);
        assert_eq!(summary.cancelled, 1);
        let response = responses(&values)[0];
        assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(response.get("cancelled"), Some(&Value::Bool(true)));
        let rows = response
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(|r| r.get("rows"))
            .and_then(Value::as_array)
            .expect("partial results present");
        assert!(rows.is_empty(), "pre-cancelled job evaluates nothing");
    }
}
