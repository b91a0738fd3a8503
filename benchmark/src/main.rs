//! The MSFU benchmark: runs one workload for a fixed time and prints its
//! metrics as one JSON line (see `BENCHMARK.json` and `README.md` in this
//! directory). Build and launch it through `run.py`, which also builds the
//! `msfu` binary that serve-mixed drives.
//!
//! ```text
//! msfu-benchmark --workload <random-mappings|serve-mixed> --seed N
//!     --seconds S --trace <0|1> [--threads T] --root DIR --msfu BIN --work DIR
//! msfu-benchmark --record-digests FILE --root DIR
//! ```

mod check;
mod client;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use msfu_core::{process_cache_stats, EvalCache, NoProgress, ProgressEvent, ProgressSink};
use msfu_service::{JobHandle, Request, Service};
use serde_json::Value;

use check::{result_respects_critical_path, Digests};
use client::Session;
use trace::{result_of, with_cache_dir, TracedPass};
use workloads::{Job, Kind, SweepJob};

/// Set-ups per run (fresh processes for random-mappings, serve sessions for
/// serve-mixed); `setup_s` is their [`pairwise_median`].
const SETUPS: usize = 41;
/// Session segments the traced serve-mixed run replays (enough for the
/// sharded specs to repeat, so the persistent cache serves disk hits).
const TRACE_SEGMENTS: u64 = 3;
/// The traced run fails when the layer spans cover less of the serial
/// end-to-end wall time than `MIN_TRACE_COVERAGE`, or more than
/// `MAX_TRACE_COVERAGE` (the traced layers then do other work than the
/// program does).
const MIN_TRACE_COVERAGE: f64 = 0.9;
const MAX_TRACE_COVERAGE: f64 = 1.1;
/// Most trace rounds a traced run makes within its time.
const MAX_TRACE_ROUNDS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    root: PathBuf,
    msfu: PathBuf,
    work: PathBuf,
    record: Option<PathBuf>,
    ready: bool,
    pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        threads: 2,
        root: PathBuf::from("."),
        msfu: PathBuf::new(),
        work: PathBuf::new(),
        record: None,
        ready: false,
        pass: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--threads" => args.threads = value()?.parse().map_err(|_| "bad --threads")?,
            "--root" => args.root = value()?.into(),
            "--msfu" => args.msfu = value()?.into(),
            "--work" => args.work = value()?.into(),
            "--record-digests" => args.record = Some(value()?.into()),
            "--ready" => args.ready = true,
            "--pass" => args.pass = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(args)
}

/// One run's result line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::Float(*value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), metrics),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("report serialises")
        );
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The Hodges–Lehmann estimate: the median of the means of all pairs of
/// samples, each sample paired with itself included. Set-ups are shorter
/// than the phases, 0.5–1 s long, in which a vCPU of the shared host runs
/// at full speed or about 0.6 of it, so their times are bimodal with the
/// slow mode holding close to half the samples; a plain median then jumps
/// between the modes from run to run. This estimate moves smoothly with the
/// share of slow samples and, like the median, ignores a few outliers.
fn pairwise_median(values: &[f64]) -> f64 {
    let mut means = Vec::new();
    for (i, a) in values.iter().enumerate() {
        means.extend(values[i..].iter().map(|b| (a + b) / 2.0));
    }
    median(&means)
}

/// Nearest-rank percentile (0 for no samples).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

fn own_peak_rss_mb() -> f64 {
    client::vm_hwm_kb(std::process::id()) as f64 / 1024.0
}

/// Timestamps each row as the sweep delivers it to its progress sink.
struct RowClock {
    start: Instant,
    rows: Mutex<Vec<f64>>,
}

impl ProgressSink for RowClock {
    fn emit(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::RowCompleted { .. } = event {
            let at = secs(self.start.elapsed()) * 1e3;
            self.rows.lock().expect("row clock lock").push(at);
        }
    }
}

/// Runs a request in process and returns its `result` as compact JSON.
fn in_process_result(line: &str) -> Result<String, String> {
    let request = Request::from_json(line).map_err(|e| e.error.to_string())?;
    let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
    result_of(&response.to_json())
}

/// The rows of a sweep `result`, as compact JSON each.
fn sweep_rows(result: &str) -> Result<Vec<String>, String> {
    let value = serde_json::from_str(result).map_err(|e| e.to_string())?;
    value
        .get("results")
        .and_then(|r| r.get("rows"))
        .and_then(Value::as_array)
        .ok_or("sweep result without rows")?
        .iter()
        .map(|row| serde_json::to_string(row).map_err(|e| e.to_string()))
        .collect()
}

/// Checks one sweep result: every row against its digest and the critical
/// path. Returns (rows attempted, rows failed).
fn check_sweep(result: Result<String, String>, job: &SweepJob, digests: &Digests) -> (u64, u64) {
    let attempted = job.row_keys.len() as u64;
    let rows = match result.and_then(|r| sweep_rows(&r)) {
        Ok(rows) if rows.len() == job.row_keys.len() => rows,
        Ok(rows) => {
            eprintln!("sweep returned {} rows, expected {attempted}", rows.len());
            return (attempted, attempted);
        }
        Err(error) => {
            eprintln!("sweep failed: {error}");
            return (attempted, attempted);
        }
    };
    let mut failed = 0;
    for (row, key) in rows.iter().zip(&job.row_keys) {
        let bound_ok = serde_json::from_str(row)
            .ok()
            .and_then(|v| v.get("evaluation").map(check::evaluation_ok))
            .unwrap_or(false);
        if !digests.matches(key, row) || !bound_ok {
            eprintln!("row {key} does not match its digest or bound: {row}");
            failed += 1;
        }
    }
    (attempted, failed)
}

fn load_digests(args: &Args) -> Result<Digests, String> {
    Digests::load(&args.root.join("benchmark/digests.json"))
}

fn sweep_job(args: &Args) -> SweepJob {
    workloads::random_mappings(args.seed)
}

/// This benchmark binary, re-launched in `mode` (`--ready` or `--pass`) for
/// the same workload and seed.
fn relaunch(args: &Args, mode: &str) -> Result<std::process::Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args([mode, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .arg("--root")
        .arg(&args.root);
    Ok(command)
}

/// The set-up of an in-process workload, run in a fresh process: decode the
/// request, construct the service and the evaluation cache, then report
/// ready on stdout.
fn ready(args: &Args) -> Result<(), String> {
    let request = Request::from_json(&sweep_job(args).line).map_err(|e| e.error.to_string())?;
    black_box((&request, Service::new(), EvalCache::new()));
    println!("ready");
    Ok(())
}

/// How many set-ups to make now, `made` already made: the set-ups are spread
/// over the run in proportion to the time used, because the host's speed
/// changes in phases of seconds that a burst of set-ups would sample only
/// one of. The `last` call makes up the rest.
fn setups_due(made: usize, elapsed: f64, seconds: f64, last: bool) -> usize {
    let target = if last {
        SETUPS
    } else {
        ((SETUPS as f64 * elapsed / seconds).ceil() as usize).min(SETUPS)
    };
    target.saturating_sub(made)
}

/// Launch-to-ready time of `count` fresh processes doing the in-process
/// set-up (see [`ready`]).
fn measure_setup(args: &Args, count: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for _ in 0..count {
        let start = Instant::now();
        let mut child = relaunch(args, "--ready")?
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot launch the set-up probe: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
            .map_err(|e| e.to_string())?;
        times.push(secs(start.elapsed()));
        let status = child.wait().map_err(|e| e.to_string())?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("set-up probe failed ({status})"));
        }
    }
    Ok(times)
}

/// One timed pass of an in-process workload, run in a fresh process (as a
/// user runs a harness binary once): the sweep through `Service::run` with
/// a row clock, then the response encoded. Prints the pass figures as one
/// JSON line, then the response line.
fn pass(args: &Args) -> Result<(), String> {
    let request = Request::from_json(&sweep_job(args).line).map_err(|e| e.error.to_string())?;
    let clock = RowClock {
        start: Instant::now(),
        rows: Mutex::new(Vec::new()),
    };
    let response = Service::new().run(&request, &JobHandle::new(), &clock);
    let job_s = secs(clock.start.elapsed());
    let text = response.to_json();
    let wall_s = secs(clock.start.elapsed());
    let rows = clock.rows.into_inner().expect("row clock lock");
    let figures = Value::Object(vec![
        ("wall_s".to_string(), Value::Float(wall_s)),
        ("job_ms".to_string(), Value::Float(job_s * 1e3)),
        ("rss_mb".to_string(), Value::Float(own_peak_rss_mb())),
        (
            "rows_ms".to_string(),
            Value::Array(rows.into_iter().map(Value::Float).collect()),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&figures).map_err(|e| e.to_string())?
    );
    println!("{text}");
    Ok(())
}

/// The figures of one pass process (see [`pass`]).
struct PassFigures {
    wall_s: f64,
    job_ms: f64,
    rss_mb: f64,
    rows_ms: Vec<f64>,
    response: String,
}

fn run_pass(args: &Args) -> Result<PassFigures, String> {
    let output = relaunch(args, "--pass")?
        .output()
        .map_err(|e| format!("cannot launch a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines();
    let (Some(figures), Some(response), true) =
        (lines.next(), lines.next(), output.status.success())
    else {
        return Err(format!("pass process failed ({})", output.status));
    };
    let figures = serde_json::from_str(figures).map_err(|e| e.to_string())?;
    let number = |name: &str| figures.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    Ok(PassFigures {
        wall_s: number("wall_s"),
        job_ms: number("job_ms"),
        rss_mb: number("rss_mb"),
        rows_ms: figures
            .get("rows_ms")
            .and_then(Value::as_array)
            .map(|rows| rows.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
        response: response.to_string(),
    })
}

/// random-mappings, timed: passes, each a whole sweep in a fresh process,
/// until the time is up, with set-ups in fresh processes between them.
fn sweep_timed(args: &Args) -> Result<Report, String> {
    let digests = load_digests(args)?;
    let job = sweep_job(args);

    let start = Instant::now();
    let (mut walls, mut jobs, mut rows_ms, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let pass = run_pass(args)?;
        walls.push(pass.wall_s);
        rss.push(pass.rss_mb);
        jobs.push(pass.job_ms);
        rows_ms.extend(pass.rows_ms);
        let (a, f) = check_sweep(result_of(&pass.response), &job, &digests);
        attempted += a;
        failed += f;
        let elapsed = secs(start.elapsed());
        let last = elapsed + median(&walls) > args.seconds;
        // Set-ups start after the first pass, so every launch finds the
        // binary and the machine in the state the passes run in.
        let due = setups_due(setups.len(), elapsed, args.seconds, last);
        setups.extend(measure_setup(args, due)?);
        if last {
            break;
        }
    }
    eprintln!(
        "[{}] {} passes, {} rows timed; pass walls {:.3?} s; pass peak RSS {:.1?} MB; \
         set-ups {:.5?} s",
        args.workload,
        walls.len(),
        rows_ms.len(),
        walls,
        rss,
        setups
    );
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", pairwise_median(&setups), "s"),
            ("wall_s", median(&walls), "s"),
            ("evaluate_p50_ms", median(&rows_ms), "ms"),
            ("sharded_p50_ms", median(&jobs), "ms"),
            ("peak_rss_mb", median(&rss), "MB"),
        ],
    })
}

/// Every response of a serve session next to the job that asked for it.
type Transcript = Vec<(Job, String)>;

/// Checks serve responses: status ok, `result` equal to an in-process
/// `Service::run` of the same request, digest, critical path. Returns
/// (jobs attempted, jobs failed).
fn verify_serve(transcript: &Transcript, digests: &Digests) -> (u64, u64) {
    let mut reference: HashMap<&str, Result<String, String>> = HashMap::new();
    let mut failed = 0;
    for (job, line) in transcript {
        let ok = match result_of(line) {
            Ok(result) => {
                let expected = reference
                    .entry(job.key.as_str())
                    .or_insert_with(|| in_process_result(&job.line));
                matches!(expected, Ok(e) if *e == result)
                    && digests.matches(&job.key, &result)
                    && result_respects_critical_path(&result)
            }
            Err(_) => false,
        };
        if !ok {
            eprintln!("serve job {} failed its checks: {line}", job.key);
            failed += 1;
        }
    }
    (transcript.len() as u64, failed)
}

/// Starts serve session `index` on a fresh cache directory and sends it the
/// warm-up job. Returns the session, its set-up time (spawn to the warm-up
/// response) and the response.
fn start_session(args: &Args, index: usize) -> Result<(Session, f64, String), String> {
    let dir = fresh_dir(&args.work.join(format!("serve-cache-{index}")))?;
    let start = Instant::now();
    let mut session = Session::spawn(&args.msfu, args.threads, &dir, &args.work.join("serve.log"))
        .map_err(|e| format!("cannot start {}: {e}", args.msfu.display()))?;
    let (_, line) = session
        .call(&workloads::warmup_job().line)
        .map_err(|e| e.to_string())?;
    Ok((session, secs(start.elapsed()), line))
}

/// serve-mixed, timed: one serve session started and warmed, then seeded
/// session segments in a closed loop until the time is up. Between segments,
/// further sessions are started, warmed and closed for `setup_s`.
fn serve_timed(args: &Args) -> Result<Report, String> {
    let digests = load_digests(args)?;
    let warmup = workloads::warmup_job();
    let (mut session, setup, line) = start_session(args, 0)?;
    let mut setups = vec![setup];
    let mut transcript: Transcript = vec![(warmup.clone(), line)];

    let start = Instant::now();
    let (mut segments, mut evaluate_ms, mut sharded_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for index in 0.. {
        let jobs = workloads::serve_segment(args.seed, index);
        let segment_start = Instant::now();
        for job in jobs {
            let (latency, line) = session.call(&job.line).map_err(|e| e.to_string())?;
            let ms = secs(latency) * 1e3;
            match job.kind {
                Kind::Evaluate => evaluate_ms.push(ms),
                Kind::Sweep | Kind::Search => sharded_ms.push(ms),
                Kind::Stream => {}
            }
            let class = job.key.rsplit_once('/').map_or("", |(c, _)| c).to_string();
            by_kind.entry(class).or_default().push(ms);
            transcript.push((job, line));
        }
        segments.push(secs(segment_start.elapsed()));
        let elapsed = secs(start.elapsed());
        let last = elapsed + median(&segments) > args.seconds;
        for _ in 0..setups_due(setups.len(), elapsed, args.seconds, last) {
            let (extra, setup, line) = start_session(args, setups.len())?;
            extra.close().map_err(|e| e.to_string())?;
            setups.push(setup);
            transcript.push((warmup.clone(), line));
        }
        if last {
            break;
        }
    }
    let rss = session.peak_rss_mb();
    session.close().map_err(|e| e.to_string())?;

    eprintln!(
        "[serve-mixed] {} segments; {} evaluate jobs (p95 {:.3} ms, p99 {:.3} ms); {} sharded jobs; \
         set-ups {:.5?} s",
        segments.len(),
        evaluate_ms.len(),
        percentile(&evaluate_ms, 0.95),
        percentile(&evaluate_ms, 0.99),
        sharded_ms.len(),
        setups
    );
    for (class, ms) in &by_kind {
        eprintln!(
            "[serve-mixed]   {class:<40} n={:<5} p50 {:>9.3}ms max {:>9.3}ms",
            ms.len(),
            median(ms),
            percentile(ms, 1.0)
        );
    }
    let (attempted, failed) = verify_serve(&transcript, &digests);
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", pairwise_median(&setups), "s"),
            ("wall_s", median(&segments), "s"),
            ("evaluate_p50_ms", median(&evaluate_ms), "ms"),
            ("sharded_p50_ms", median(&sharded_ms), "ms"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// traced run reports all of them; a layer a workload does not exercise
/// reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("layout.map_s.FD", "s"),
    ("layout.map_s.HS", "s"),
    ("layout.map_s.GP", "s"),
    ("layout.map_s.Line", "s"),
    ("layout.map_s.Random", "s"),
    ("layout.map_calls.FD", "count"),
    ("layout.map_calls.HS", "count"),
    ("layout.map_calls.GP", "count"),
    ("layout.map_calls.Line", "count"),
    ("layout.map_calls.Random", "count"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.stall_cycles", "count"),
    ("sim.routing_conflicts", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("distill.build_s", "s"),
    ("distill.build_calls", "count"),
    ("core.sweep.busy_s", "s"),
    ("core.sweep.parallel_efficiency", "ratio"),
    ("core.sweep.straggler_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.disk_hits", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.lookup_s", "s"),
    ("core.search_s", "s"),
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.evaluate_p95_ms", "ms"),
    ("cluster.connect_s", "s"),
    ("cluster.shards", "count"),
    ("cluster.shards_retried", "count"),
    ("cluster.occupancy", "ratio"),
    ("cluster.coordinator_s", "s"),
    ("stream.run_s", "s"),
    ("stream.arrivals", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
    ("bench.failed_ratio", "ratio"),
];

/// The per-layer figures of one traced run, before they are laid out in
/// `PER_LAYER` order.
struct LayerReport {
    values: HashMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl LayerReport {
    fn new() -> Self {
        LayerReport {
            values: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Fills the metrics every traced run derives from its spans.
    fn layers(&mut self, pass: &TracedPass) {
        let times = pass.tracer.self_times();
        let get = |name: &str| times.get(name).copied().unwrap_or((0.0, 0));
        for (strategy, time, calls) in [
            ("FD", "layout.map_s.FD", "layout.map_calls.FD"),
            ("HS", "layout.map_s.HS", "layout.map_calls.HS"),
            ("GP", "layout.map_s.GP", "layout.map_calls.GP"),
            ("Line", "layout.map_s.Line", "layout.map_calls.Line"),
            ("Random", "layout.map_s.Random", "layout.map_calls.Random"),
        ] {
            let (s, n) = get(&format!("layout.map_s.{strategy}"));
            self.set(time, s);
            self.set(calls, n as f64);
        }
        let (sim_s, _) = get("sim");
        let counts = &pass.counts;
        self.set("sim.run_s", sim_s);
        self.set("sim.runs", counts.sim_runs as f64);
        self.set("sim.cycles", counts.sim_cycles as f64);
        self.set("sim.stall_cycles", counts.stall_cycles as f64);
        self.set("sim.routing_conflicts", counts.routing_conflicts as f64);
        if counts.sim_cycles > 0 {
            self.set("sim.ns_per_cycle", sim_s * 1e9 / counts.sim_cycles as f64);
        }
        let (build_s, builds) = get("distill.build");
        self.set("distill.build_s", build_s);
        self.set("distill.build_calls", builds as f64);
        self.set("core.cache.lookup_s", get("core.cache").0);
        self.set("core.search_s", get("core.search").0);
        self.set("stream.run_s", get("stream").0);
        self.set("stream.arrivals", counts.stream_arrivals as f64);
        for (span, metric) in [
            ("service.decode", "service.decode_us"),
            ("service.encode", "service.encode_us"),
        ] {
            let (s, n) = get(span);
            if n > 0 {
                self.set(metric, s * 1e6 / n as f64);
            }
        }
        self.set("core.sweep.busy_s", pass.tracer.layer_total());
        for (name, (s, n)) in &times {
            eprintln!("[trace]   {name:<24} {s:>9.4}s {n:>7} calls");
        }
    }

    /// The trace health figures over the rounds of a traced run; a coverage
    /// outside the accepted window counts as a failure.
    fn health(&mut self, rounds: &[TraceRound]) {
        let coverage: Vec<f64> = rounds
            .iter()
            .map(|r| r.pass.tracer.layer_total() / r.serial_wall)
            .collect();
        let overhead: Vec<f64> = rounds
            .iter()
            .map(|r| r.traced_wall - r.serial_wall)
            .collect();
        let coverage_median = median(&coverage);
        self.set("trace.coverage", coverage_median);
        self.set("trace.overhead_s", median(&overhead));
        let serial: Vec<f64> = rounds.iter().map(|r| r.serial_wall).collect();
        eprintln!(
            "[trace] coverage per round {coverage:.3?}; overhead per round {overhead:.3?} s; \
             untraced serial wall per round {serial:.3?} s"
        );
        self.attempted += 1;
        if !(MIN_TRACE_COVERAGE..=MAX_TRACE_COVERAGE).contains(&coverage_median) {
            eprintln!(
                "[trace] coverage {coverage_median:.3} is outside \
                 [{MIN_TRACE_COVERAGE}, {MAX_TRACE_COVERAGE}]"
            );
            self.failed += 1;
        }
    }

    fn cache(&mut self, stats: msfu_core::CacheStats) {
        self.set("core.cache.hits", stats.hits as f64);
        self.set("core.cache.misses", stats.misses as f64);
        self.set("core.cache.disk_hits", stats.disk_hits as f64);
        self.set("core.cache.hit_ratio", stats.hit_rate());
    }

    fn into_report(mut self) -> Report {
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.set("bench.failed_ratio", ratio);
        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.values.get(name).copied().unwrap_or(0.0), *unit))
            .collect();
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// One round of a traced run: each job once untraced and serial through
/// `Service::run` and once layer by layer, the two back to back (in turns,
/// which goes first), so both see the same machine speed even when it drifts
/// over the round.
struct TraceRound {
    serial_wall: f64,
    traced_wall: f64,
    cache: msfu_core::CacheStats,
    untraced: Vec<Result<String, String>>,
    traced: Vec<Result<String, String>>,
    pass: TracedPass,
}

/// Runs one [`TraceRound`] over request lines; with `cached`, sweeps,
/// searches and streams use a fresh cache directory per pass, as a serve
/// session's `--cache-dir` would.
fn trace_round(args: &Args, lines: &[&str], cached: bool) -> Result<TraceRound, String> {
    let dir = |name: &str| -> Result<Option<PathBuf>, String> {
        if cached {
            fresh_dir(&args.work.join(name)).map(Some)
        } else {
            Ok(None)
        }
    };
    let untraced_dir = dir("trace-cache-untraced")?;
    let mut pass = TracedPass::new(dir("trace-cache-traced")?);
    let (mut serial_wall, mut traced_wall) = (0.0, 0.0);
    let mut cache = msfu_core::CacheStats::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (i, line) in lines.iter().enumerate() {
        let mut run_untraced = || -> Result<(), String> {
            let before = process_cache_stats();
            let start = Instant::now();
            let request = Request::from_json(line).map_err(|e| e.error.to_string())?;
            let request = with_cache_dir(request, untraced_dir.as_deref()).with_serial(true);
            let response = Service::new()
                .run(&request, &JobHandle::new(), &NoProgress)
                .to_json();
            serial_wall += secs(start.elapsed());
            let delta = process_cache_stats().since(&before);
            cache.hits += delta.hits;
            cache.misses += delta.misses;
            cache.disk_hits += delta.disk_hits;
            untraced.push(result_of(&response));
            Ok(())
        };
        let mut run_traced = || {
            let start = Instant::now();
            traced.push(pass.job(i, line).and_then(|t| result_of(&t)));
            traced_wall += secs(start.elapsed());
        };
        if i % 2 == 0 {
            run_untraced()?;
            run_traced();
        } else {
            run_traced();
            run_untraced()?;
        }
    }
    Ok(TraceRound {
        serial_wall,
        traced_wall,
        cache,
        untraced,
        traced,
        pass,
    })
}

/// Trace rounds until the run's time is used: at least one, at most
/// `MAX_TRACE_ROUNDS`. The health figures are medians over rounds.
fn trace_rounds(
    args: &Args,
    lines: &[&str],
    cached: bool,
    run_start: Instant,
) -> Result<Vec<TraceRound>, String> {
    let mut rounds = Vec::new();
    loop {
        let start = Instant::now();
        rounds.push(trace_round(args, lines, cached)?);
        let round_s = secs(start.elapsed());
        if rounds.len() >= MAX_TRACE_ROUNDS || secs(run_start.elapsed()) + round_s > args.seconds {
            return Ok(rounds);
        }
    }
}

/// The rows of the sweep `parts`, joined in order.
fn joined_rows(parts: &[Result<String, String>]) -> Result<Vec<String>, String> {
    let mut rows = Vec::new();
    for part in parts {
        rows.extend(sweep_rows(part.as_ref()?)?);
    }
    Ok(rows)
}

/// random-mappings, traced: one parallel pass of the whole sweep through
/// `Service::run` (untraced), then trace rounds over the sweep's parts.
fn sweep_traced(args: &Args) -> Result<Report, String> {
    let run_start = Instant::now();
    let digests = load_digests(args)?;
    let job = sweep_job(args);
    let request = Request::from_json(&job.line).map_err(|e| e.error.to_string())?;
    let mut report = LayerReport::new();

    let start = Instant::now();
    let parallel = Service::new().run(&request, &JobHandle::new(), &NoProgress);
    let parallel_wall = secs(start.elapsed());
    let parallel = result_of(&parallel.to_json());

    let parts: Vec<&str> = job.parts.iter().map(String::as_str).collect();
    let rounds = trace_rounds(args, &parts, false, run_start)?;
    let last = rounds.last().expect("at least one round");
    report.layers(&last.pass);
    report.health(&rounds);
    report.cache(rounds[0].cache);
    let busy = report.values["core.sweep.busy_s"];
    let threads = args.threads as f64;
    report.set(
        "core.sweep.parallel_efficiency",
        busy / (threads * parallel_wall),
    );
    report.set(
        "core.sweep.straggler_s",
        (parallel_wall - busy / threads).max(0.0),
    );

    let (a, f) = check_sweep(parallel.clone(), &job, &digests);
    report.attempted += a;
    report.failed += f;
    let parallel_rows = parallel
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|r| sweep_rows(r));
    for round in &rounds {
        let untraced = joined_rows(&round.untraced);
        let traced = joined_rows(&round.traced);
        if parallel_rows.is_err() || untraced != parallel_rows || traced != parallel_rows {
            eprintln!("parallel, serial and traced sweeps disagree");
            report.failed += 1;
        }
    }
    write_spans(args, &last.pass)?;
    Ok(report.into_report())
}

fn write_spans(args: &Args, pass: &TracedPass) -> Result<(), String> {
    let path = args
        .work
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    pass.tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[trace] spans written to {}", path.display());
    Ok(())
}

/// serve-mixed, traced: the first `TRACE_SEGMENTS` segments through a serve
/// session (for the serve and cluster stamps), then trace rounds over the
/// same jobs in process.
fn serve_traced(args: &Args) -> Result<Report, String> {
    let run_start = Instant::now();
    let digests = load_digests(args)?;
    let mut jobs = vec![workloads::warmup_job()];
    for index in 0..TRACE_SEGMENTS {
        jobs.extend(workloads::serve_segment(args.seed, index));
    }
    let mut report = LayerReport::new();

    let dir = fresh_dir(&args.work.join("serve-cache-trace"))?;
    let mut session = Session::spawn(&args.msfu, args.threads, &dir, &args.work.join("serve.log"))
        .map_err(|e| format!("cannot start {}: {e}", args.msfu.display()))?;
    let mut transcript: Transcript = Vec::new();
    let (mut overhead_ms, mut occupancy, mut evaluate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut shards, mut retried, mut coordinator_s) = (0.0, 0.0, 0.0);
    for (i, job) in jobs.iter().enumerate() {
        let (latency, line) = session.call(&job.line).map_err(|e| e.to_string())?;
        let value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        let perf = value.get("perf");
        let wall = perf
            .and_then(|p| p.get("wall_seconds"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if i == 0 {
            // The warm-up job is the one that connects the worker pool.
            report.set("cluster.connect_s", secs(latency) - wall);
        } else {
            overhead_ms.push((secs(latency) - wall) * 1e3);
        }
        if job.kind == Kind::Evaluate {
            evaluate_ms.push(secs(latency) * 1e3);
        }
        if let Some(cluster) = perf.and_then(|p| p.get("cluster")) {
            let field = |name: &str| cluster.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            shards += field("shards");
            retried += field("shards_retried");
            coordinator_s += field("coordinator_seconds");
            occupancy.push(field("occupancy"));
        }
        transcript.push((job.clone(), line));
    }
    session.close().map_err(|e| e.to_string())?;
    report.set("serve.overhead_ms", median(&overhead_ms));
    report.set("serve.evaluate_p95_ms", percentile(&evaluate_ms, 0.95));
    report.set("cluster.shards", shards);
    report.set("cluster.shards_retried", retried);
    report.set("cluster.coordinator_s", coordinator_s);
    report.set(
        "cluster.occupancy",
        occupancy.iter().sum::<f64>() / occupancy.len().max(1) as f64,
    );

    let lines: Vec<&str> = jobs.iter().map(|job| job.line.as_str()).collect();
    // One untimed in-process pass first: this process has run nothing yet,
    // and the first round's untraced pass would otherwise pay its cold start.
    for line in &lines {
        let request = Request::from_json(line).map_err(|e| e.error.to_string())?;
        black_box(Service::new().run(&request.with_serial(true), &JobHandle::new(), &NoProgress));
    }
    let rounds = trace_rounds(args, &lines, true, run_start)?;
    let last = rounds.last().expect("at least one round");
    report.layers(&last.pass);
    report.health(&rounds);
    report.cache(rounds[0].cache);

    let (a, f) = verify_serve(&transcript, &digests);
    report.attempted += a;
    report.failed += f;
    for round in &rounds {
        for (i, (job, line)) in transcript.iter().enumerate() {
            let served = result_of(line);
            if served.is_err() || round.untraced[i] != served || round.traced[i] != served {
                eprintln!(
                    "job {}: serve, untraced and traced results disagree",
                    job.key
                );
                report.failed += 1;
            }
        }
    }
    write_spans(args, &last.pass)?;
    Ok(report.into_report())
}

/// Records the digest of every output any seed can produce.
fn record_digests(path: &Path) -> Result<(), String> {
    let mut entries = BTreeMap::new();
    let job = workloads::random_mappings_universe();
    let rows = sweep_rows(&in_process_result(&job.line)?)?;
    entries.extend(job.row_keys.into_iter().zip(rows));
    for job in workloads::serve_catalogue() {
        entries.insert(job.key, in_process_result(&job.line)?);
    }
    eprintln!("recorded {} digests", entries.len());
    check::write_digests(path, &entries)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("msfu-benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.record, args.workload.as_str(), args.trace) {
        (Some(path), _, _) => record_digests(path).map(|()| None),
        (None, _, _) if args.ready => ready(&args).map(|()| None),
        (None, _, _) if args.pass => pass(&args).map(|()| None),
        (None, "random-mappings", false) => sweep_timed(&args).map(Some),
        (None, "random-mappings", true) => sweep_traced(&args).map(Some),
        (None, "serve-mixed", false) => serve_timed(&args).map(Some),
        (None, "serve-mixed", true) => serve_traced(&args).map(Some),
        (None, other, _) => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(report) => {
            if let Some(report) = report {
                report.print();
            }
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("msfu-benchmark: {error}");
            ExitCode::from(1)
        }
    }
}
