//! The coordinator: shard fan-out, deterministic merge, supervised fault
//! recovery.
//!
//! A coordinated job never changes *what* is computed — only *where*. The
//! shard plan is a pure function of the spec and the configured pool size
//! (see [`plan_shards`]: one factory's run of points per shard, capped at
//! ⌈n / workers⌉), idle workers pull the next queued shard, each shard is an
//! ordinary serve-protocol sweep request a worker executes with the normal
//! engine, and merging walks the shards in plan order — so the merged rows,
//! incumbents and error codes are byte-identical to a serial run whatever
//! order shards actually finish in, and whichever workers they land on.
//!
//! Supervision ([`Supervision`]): every worker fault — a worker whose
//! output closes mid-shard, one whose shard overruns the shard timeout
//! (the worker is declared hung and killed), or one that answers with an
//! undecodable response — costs one unit of the shard's retry budget and
//! re-dispatches the shard with exponential backoff (`shards_retried` in
//! `perf.cluster` counts these). A shard whose budget is spent fails the
//! job typed with [`E_SHARD_RETRY_EXHAUSTED`] — faults must never loop
//! forever. Dead workers are replaced by clean respawns at fresh ranks, up
//! to the session's respawn budget (`workers_respawned`); if the whole pool
//! is gone and the budget is spent, the coordinator finishes the remaining
//! shards in-process through the ordinary [`Service`] path
//! (`shards_local_fallback`) rather than failing the job. Cancellation and
//! deadlines fan out: the coordinator forwards a cancel line for every
//! in-flight shard and skips the queued ones, then merges the longest
//! completed prefix exactly like a serial cancelled run — and a cancelled
//! worker that never answers is killed after a grace period, so an
//! interrupt always terminates the job.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;

use msfu_core::wire;
use msfu_core::{CoreError, ProgressEvent, ProgressSink, RunControl, SweepResults, SweepRow};
use msfu_core::{SearchSpec, SweepSpec};

use crate::cluster::comm::{self, ClusterBackend, WorkerEvent, WorkerTx};
use crate::cluster::planner::plan_shards;
use crate::error_code::{E_REMOTE, E_SHARD_RETRY_EXHAUSTED};
use crate::faults::{FaultPlan, WorkerFaultSpec};
use crate::ndjson::progress_to_value;
use crate::protocol::{
    ClusterPerf, Job, Payload, Request, Response, ResponsePerf, ServiceError, SessionLine,
    PROTOCOL_VERSION,
};
use crate::service::{JobHandle, Service};

/// How long a busy worker may sit on a cancelled shard before the
/// supervisor kills it anyway (used when no shard timeout is configured).
const INTERRUPT_GRACE: Duration = Duration::from_secs(2);

/// Longest event wait when no interrupt can arrive (search batches): the
/// loop only needs to wake for worker events and supervision edges, and
/// every edge bounds the wait below this.
const MAX_WAIT: Duration = Duration::from_secs(1);

/// Longest event wait while a cancel could arrive at any moment (cancel
/// tokens flip asynchronously, without an event to wake on).
const MAX_WAIT_INTERRUPTIBLE: Duration = Duration::from_millis(100);

/// Shortest event wait: a zero-duration `recv_timeout` would busy-spin.
const MIN_WAIT: Duration = Duration::from_millis(1);

/// Supervision policy of a worker pool: how patient the coordinator is with
/// faulty workers before it re-plans, replaces, or fails typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Supervision {
    /// How long one dispatched shard may stay in flight before its worker
    /// is declared hung, killed, and the shard re-dispatched (`None` = no
    /// timeout; a job deadline still interrupts, and interrupted workers
    /// get a short grace period (`INTERRUPT_GRACE`) before being killed).
    pub shard_timeout: Option<Duration>,
    /// How many times one shard may be re-dispatched after worker faults
    /// before the job fails with [`E_SHARD_RETRY_EXHAUSTED`].
    pub retry_budget: u32,
    /// How many replacement workers may be spawned over the pool's
    /// lifetime. Respawns land at fresh ranks with no fault injection.
    pub max_respawns: u32,
    /// First re-dispatch delay; doubles per attempt (capped at ×64).
    pub backoff_base: Duration,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            shard_timeout: None,
            retry_budget: 3,
            max_respawns: 0,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// A connected worker pool, reusable across the jobs of a serve session.
///
/// Workers are connected once and kept until the pool is dropped; a worker
/// that dies stays dead (its shards re-dispatch to the survivors, and the
/// supervisor may append a clean replacement at a fresh rank), and the
/// shard *plan* always uses the configured pool size, so results do not
/// depend on which workers happen to be alive.
pub(crate) struct Cluster {
    workers: Vec<WorkerSlot>,
    events: mpsc::Receiver<WorkerEvent>,
    /// Respawn source and keepalive: replacement workers clone this sender,
    /// and holding it keeps `recv_timeout` reporting timeouts (never
    /// disconnection) even while no worker is alive.
    event_tx: mpsc::Sender<WorkerEvent>,
    backend: ClusterBackend,
    backend_name: &'static str,
    /// The pool size the shard plan uses, fixed at connect time.
    configured: usize,
    supervision: Supervision,
    /// Replacement workers spawned so far (counts against
    /// [`Supervision::max_respawns`], failed spawn attempts included).
    respawned: u32,
}

struct WorkerSlot {
    tx: Box<dyn WorkerTx>,
    alive: bool,
    /// Index (into the current shard set) of the in-flight shard.
    busy: Option<usize>,
    busy_since: Option<Instant>,
}

impl Cluster {
    /// Connects a pool of `workers` workers (at least one) over `backend`,
    /// handing each rank its slice of the fault plan (when given).
    ///
    /// # Errors
    ///
    /// Fails when a child worker process cannot be spawned; the
    /// [`ClusterBackend::LocalThreads`] backend is infallible.
    pub fn connect(
        backend: &ClusterBackend,
        workers: usize,
        plan: Option<&FaultPlan>,
    ) -> io::Result<Cluster> {
        let (tx, rx) = mpsc::channel();
        let txs = comm::connect(backend, workers.max(1), plan, &tx)?;
        let configured = txs.len();
        Ok(Cluster {
            workers: txs
                .into_iter()
                .map(|tx| WorkerSlot {
                    tx,
                    alive: true,
                    busy: None,
                    busy_since: None,
                })
                .collect(),
            events: rx,
            event_tx: tx,
            backend: backend.clone(),
            backend_name: backend.name(),
            configured,
            supervision: Supervision::default(),
            respawned: 0,
        })
    }

    /// Sets the pool's supervision policy (builder style).
    pub fn with_supervision(mut self, supervision: Supervision) -> Cluster {
        self.supervision = supervision;
        self
    }

    /// The configured pool size (dead workers included — the shard plan
    /// never shrinks with the pool, and never grows with respawns).
    pub fn world(&self) -> usize {
        self.configured
    }

    /// Spawns clean replacement workers at fresh ranks until the alive
    /// count is back at the configured pool size or the respawn budget is
    /// spent; returns how many were spawned. Replacements carry no fault
    /// injection — a faulty replacement could loop recovery forever.
    fn respawn_dead(&mut self) -> u64 {
        let mut spawned = 0;
        while self.respawned < self.supervision.max_respawns {
            let alive = self.workers.iter().filter(|w| w.alive).count();
            if alive >= self.configured {
                break;
            }
            let rank = self.workers.len();
            // A failed spawn attempt consumes budget too: retrying a spawn
            // that just failed would spin without making progress.
            self.respawned += 1;
            match comm::connect_rank(
                &self.backend,
                rank,
                WorkerFaultSpec::default(),
                self.event_tx.clone(),
            ) {
                Ok(tx) => {
                    self.workers.push(WorkerSlot {
                        tx,
                        alive: true,
                        busy: None,
                        busy_since: None,
                    });
                    spawned += 1;
                }
                Err(_) => break,
            }
        }
        spawned
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("backend", &self.backend_name)
            .field("workers", &self.workers.len())
            .field("alive", &self.workers.iter().filter(|w| w.alive).count())
            .field("respawned", &self.respawned)
            .finish()
    }
}

/// One planned shard: a sub-range of the job, as a ready-to-send request.
struct ShardSpec {
    id: String,
    range: Range<usize>,
    body: Value,
}

/// How one shard ended.
enum ShardDone {
    /// The worker responded with rows (possibly a cancelled partial prefix).
    Rows {
        rows: Vec<SweepRow>,
        cancelled: bool,
    },
    /// The worker responded with a typed error.
    Failed { code: String, message: String },
    /// The shard never completed: skipped after a cancel/deadline, or
    /// abandoned when the job failed fatally.
    Skipped,
}

/// What the shard executor tells the caller as the job unfolds.
enum ShardSignal<'a> {
    /// A progress line from the shard's worker (verbatim, shard-local ids
    /// and indices).
    Progress(&'a Value),
    /// The shard finished.
    Done(&'a ShardDone),
}

/// Dispatch/occupancy counters accumulated across one job's shard sets.
#[derive(Default)]
struct ShardStats {
    dispatched: u64,
    retried: u64,
    respawned: u64,
    local_fallback: u64,
    busy_seconds: f64,
}

impl ShardStats {
    fn perf(&self, backend: &'static str, workers: usize, wall_seconds: f64) -> ClusterPerf {
        let pool = workers.max(1) as f64;
        let ideal = self.busy_seconds / pool;
        ClusterPerf {
            backend,
            workers,
            shards: self.dispatched,
            shards_retried: self.retried,
            workers_respawned: self.respawned,
            shards_local_fallback: self.local_fallback,
            occupancy: if wall_seconds > 0.0 {
                (self.busy_seconds / (wall_seconds * pool)).min(1.0)
            } else {
                0.0
            },
            coordinator_seconds: (wall_seconds - ideal).max(0.0),
        }
    }
}

/// Per-shard retry accounting of one shard set: how many faults each shard
/// has absorbed, and when each queued shard's backoff expires.
struct RetryState {
    attempts: Vec<u32>,
    not_before: Vec<Instant>,
}

impl RetryState {
    fn new(shards: usize) -> Self {
        let now = Instant::now();
        RetryState {
            attempts: vec![0; shards],
            not_before: vec![now; shards],
        }
    }

    /// Books one worker fault against `shard`: counts the retry and either
    /// requeues the shard with exponential backoff, or — once the retry
    /// budget is spent — returns the job's fatal error. Checked *before*
    /// any pool-loss handling, so a shard that keeps killing its workers
    /// fails typed instead of consuming the whole session.
    fn fault(
        &mut self,
        shard: usize,
        reason: &str,
        supervision: &Supervision,
        queue: &mut VecDeque<usize>,
        stats: &mut ShardStats,
    ) -> Option<(&'static str, String)> {
        stats.retried += 1;
        self.attempts[shard] += 1;
        let attempts = self.attempts[shard];
        if attempts > supervision.retry_budget {
            return Some((
                E_SHARD_RETRY_EXHAUSTED,
                format!(
                    "shard {shard} hit {attempts} worker fault(s) (last: {reason}) \
                     with a re-dispatch budget of {}",
                    supervision.retry_budget
                ),
            ));
        }
        // Exponential backoff: base, ×2, ×4, ... capped at ×64.
        let backoff = supervision.backoff_base * (1u32 << (attempts - 1).min(6));
        self.not_before[shard] = Instant::now() + backoff;
        queue.push_back(shard);
        None
    }
}

/// Cancellation/deadline source of the job being coordinated.
struct Interrupt<'a> {
    handle: &'a JobHandle,
    deadline: Option<Instant>,
}

impl Interrupt<'_> {
    fn triggered(&self) -> bool {
        self.handle.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Milliseconds left until the deadline (saturating at zero), if any.
    fn remaining_ms(&self) -> Option<u64> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
    }
}

/// When a busy worker crosses from "still working" to "declared hung": its
/// shard timeout, tightened after an interrupt to a grace period (a
/// cancelled worker that never answers must not hold the session open).
fn busy_edge(
    since: Instant,
    supervision: &Supervision,
    interrupted_at: Option<Instant>,
) -> Option<Instant> {
    let timeout = supervision.shard_timeout.map(|t| since + t);
    let grace = interrupted_at.map(|at| at + supervision.shard_timeout.unwrap_or(INTERRUPT_GRACE));
    match (timeout, grace) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (edge, other) => edge.or(other),
    }
}

/// Executes one request against the pool, streaming merged progress lines
/// to `progress` (when given) and returning the merged response.
///
/// Sweeps are sharded directly; searches run their deterministic fold on
/// the coordinator and shard each candidate batch. `Evaluate` jobs are a
/// single bounded simulation — they run in-process, exactly like an
/// uncoordinated serve session would run them.
pub(crate) fn run_clustered<W: Write>(
    cluster: &mut Cluster,
    request: &Request,
    handle: &JobHandle,
    progress: Option<&Mutex<W>>,
) -> Response {
    let start = Instant::now();
    match &request.job {
        Job::Sweep { spec } => run_sweep(cluster, request, spec, handle, progress, start),
        Job::Search { spec } => run_search(cluster, request, spec, handle, progress, start),
        _ => {
            let sink = OptionalSink {
                id: &request.id,
                out: progress,
            };
            Service::new().run(request, handle, &sink)
        }
    }
}

fn run_sweep<W: Write>(
    cluster: &mut Cluster,
    request: &Request,
    spec: &SweepSpec,
    handle: &JobHandle,
    progress: Option<&Mutex<W>>,
    start: Instant,
) -> Response {
    let total = spec.points.len();
    let world = cluster.world();
    let backend = cluster.backend_name;
    let factories = spec.points.iter().map(|p| p.factory);
    let shards: Vec<ShardSpec> = plan_shards(factories, world)
        .into_iter()
        .enumerate()
        .map(|(k, range)| {
            let id = format!("{}#s{k}", request.id);
            let body = shard_request(
                &id,
                request.serial,
                wire::sweep_spec_to_value(&spec.slice(range.clone())),
            );
            ShardSpec { id, range, body }
        })
        .collect();
    let interrupt = Interrupt {
        handle,
        deadline: request
            .deadline_ms
            .map(|ms| start + Duration::from_millis(ms)),
    };
    let offsets: Vec<usize> = shards.iter().map(|s| s.range.start).collect();
    let mut stats = ShardStats::default();
    let mut completed = 0usize;
    let outcome = execute_shards(
        cluster,
        &shards,
        Some(&interrupt),
        &mut stats,
        |shard, signal| match signal {
            // Worker row events pass through with the parent id and the
            // global index/total. They appear as workers produce them, so
            // (unlike single-process runs) global index order is not
            // guaranteed across shards — each line is still exact.
            ShardSignal::Progress(value) => {
                if let Some(text) = patch_row_line(value, &request.id, offsets[shard], total) {
                    emit_line(progress, &text);
                }
            }
            // Worker batch events are dropped (their totals are
            // shard-local); the coordinator emits its own merged
            // `batch_finished` as each shard lands.
            ShardSignal::Done(done) => {
                if let ShardDone::Rows { rows, .. } = done {
                    completed += rows.len();
                    let event = ProgressEvent::BatchFinished {
                        name: &spec.name,
                        completed,
                        total,
                    };
                    if let Ok(text) = serde_json::to_string(&progress_to_value(&request.id, &event))
                    {
                        emit_line(progress, &text);
                    }
                }
            }
        },
    );

    let wall = start.elapsed().as_secs_f64();
    let perf =
        ResponsePerf::new(wall, request.serial).with_cluster(stats.perf(backend, world, wall));
    if let Some((code, message)) = outcome.fatal {
        return Response::new(
            request.id.clone(),
            "sweep",
            false,
            perf,
            Err(ServiceError::new(code, message)),
        );
    }
    // The lowest failed shard wins: it contains the lowest failing point,
    // which is the error a serial run would have stopped at.
    for done in &outcome.done {
        if let ShardDone::Failed { code, message } = done {
            let error = ServiceError::from_core(&CoreError::Remote {
                code: code.clone(),
                message: message.clone(),
            });
            return Response::new(request.id.clone(), "sweep", false, perf, Err(error));
        }
    }
    // Merge in shard (= point) order, stopping at the first incomplete
    // shard so a cancelled job reports a clean prefix, like a serial run.
    let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
    let mut cancelled = outcome.interrupted;
    for done in outcome.done {
        match done {
            ShardDone::Rows {
                rows: mut shard_rows,
                cancelled: shard_cancelled,
            } => {
                rows.append(&mut shard_rows);
                if shard_cancelled {
                    cancelled = true;
                    break;
                }
            }
            ShardDone::Skipped => {
                cancelled = true;
                break;
            }
            ShardDone::Failed { .. } => unreachable!("failed shards returned above"),
        }
    }
    Response::new(
        request.id.clone(),
        "sweep",
        cancelled,
        perf,
        Ok(Payload::Sweep(SweepResults {
            name: spec.name.clone(),
            rows,
        })),
    )
}

fn run_search<W: Write>(
    cluster: &mut Cluster,
    request: &Request,
    spec: &SearchSpec,
    handle: &JobHandle,
    progress: Option<&Mutex<W>>,
    start: Instant,
) -> Response {
    let world = cluster.world();
    let backend = cluster.backend_name;
    let sink = OptionalSink {
        id: &request.id,
        out: progress,
    };
    let mut ctrl = RunControl::default()
        .with_progress(&sink)
        .with_cancel(handle.token());
    if let Some(ms) = request.deadline_ms {
        ctrl = ctrl.with_deadline(start + Duration::from_millis(ms));
    }
    let mut stats = ShardStats::default();
    let mut batch_seq = 0usize;
    // The deterministic fold (candidate stream, incumbents, stop reasons)
    // runs right here on the coordinator; only the batch evaluations fan
    // out, as ordinary sweep requests over the batch's candidates. That is
    // exactly the serial fold with a different evaluator, so the report is
    // byte-identical to a serial run.
    let result = spec.run_with_evaluator(&ctrl, |batch| {
        batch_seq += 1;
        let shards: Vec<ShardSpec> = plan_shards(batch.iter().map(|_| spec.factory), world)
            .into_iter()
            .enumerate()
            .map(|(k, range)| {
                let mut sub = SweepSpec::new(spec.name.clone(), spec.eval);
                sub.use_eval_cache = spec.use_eval_cache;
                sub.cache_dir = spec.cache_dir.clone();
                for (g, strategy) in &batch[range.clone()] {
                    sub = sub.point(format!("c{g}"), spec.factory, strategy.clone());
                }
                let id = format!("{}#b{batch_seq}s{k}", request.id);
                let body = shard_request(&id, request.serial, wire::sweep_spec_to_value(&sub));
                ShardSpec { id, range, body }
            })
            .collect();
        // No interrupt here: like a serial run, an in-flight batch always
        // completes — the fold honours cancellation and deadlines between
        // batches. Sub-request progress stays internal (shard-local labels
        // would only confuse a client); search progress comes from the fold.
        let outcome = execute_shards(cluster, &shards, None, &mut stats, |_, _| {});
        if let Some((code, message)) = outcome.fatal {
            return Err(CoreError::Remote {
                code: code.to_string(),
                message,
            });
        }
        // Exactly one evaluation per candidate, in stream order. A failed
        // shard fails each of its candidates with the shard's error, so the
        // fold surfaces the lowest failing candidate — the error a serial
        // run would report.
        let mut evaluations = Vec::with_capacity(batch.len());
        for (k, done) in outcome.done.into_iter().enumerate() {
            let len = shards[k].range.len();
            match done {
                ShardDone::Rows {
                    rows,
                    cancelled: false,
                } if rows.len() == len => {
                    evaluations.extend(rows.into_iter().map(|row| Ok(row.evaluation)));
                }
                ShardDone::Rows { .. } => {
                    for _ in 0..len {
                        evaluations.push(Err(CoreError::Remote {
                            code: E_REMOTE.to_string(),
                            message: format!(
                                "search `{}`: a worker returned a partial shard",
                                spec.name
                            ),
                        }));
                    }
                }
                ShardDone::Failed { code, message } => {
                    for _ in 0..len {
                        evaluations.push(Err(CoreError::Remote {
                            code: code.clone(),
                            message: message.clone(),
                        }));
                    }
                }
                ShardDone::Skipped => {
                    for _ in 0..len {
                        evaluations.push(Err(CoreError::Remote {
                            code: E_REMOTE.to_string(),
                            message: "a shard was abandoned before it completed".to_string(),
                        }));
                    }
                }
            }
        }
        Ok(evaluations)
    });

    let wall = start.elapsed().as_secs_f64();
    let perf =
        ResponsePerf::new(wall, request.serial).with_cluster(stats.perf(backend, world, wall));
    match result {
        Ok(outcome) => Response::new(
            request.id.clone(),
            "search",
            outcome.interrupted,
            perf,
            Ok(Payload::Search(Box::new(outcome.report))),
        ),
        Err(e) => Response::new(
            request.id.clone(),
            "search",
            false,
            perf,
            Err(ServiceError::from_core(&e)),
        ),
    }
}

/// Outcome of one shard set.
struct ShardSetOutcome {
    /// One entry per shard, in shard order.
    done: Vec<ShardDone>,
    /// Whether a cancel/deadline interrupted the set.
    interrupted: bool,
    /// Set when the set failed fatally: the typed code and message the job
    /// reports (today only [`E_SHARD_RETRY_EXHAUSTED`]).
    fatal: Option<(&'static str, String)>,
}

/// Runs one set of shards over the pool: at most one in-flight shard per
/// worker, supervised re-dispatch (with backoff) on worker death, hang or
/// garbled output, worker respawn, forwarding cancellation when an
/// `interrupt` is given, and reporting shard events through `on_signal`.
/// When the whole pool is gone and no respawn budget remains, the
/// remaining shards run in-process instead of failing the job.
fn execute_shards(
    cluster: &mut Cluster,
    shards: &[ShardSpec],
    interrupt: Option<&Interrupt<'_>>,
    stats: &mut ShardStats,
    mut on_signal: impl FnMut(usize, ShardSignal<'_>),
) -> ShardSetOutcome {
    let supervision = cluster.supervision;
    let mut done: Vec<Option<ShardDone>> = shards.iter().map(|_| None).collect();
    let mut queue: VecDeque<usize> = (0..shards.len()).collect();
    let mut retries = RetryState::new(shards.len());
    let mut interrupted = false;
    let mut interrupted_at: Option<Instant> = None;
    let mut fatal: Option<(&'static str, String)> = None;

    loop {
        // Cancellation/deadline: drop what has not started, tell every busy
        // worker to stop its shard at the next batch boundary, then keep
        // looping to collect the (partial) in-flight responses.
        if !interrupted && interrupt.is_some_and(Interrupt::triggered) {
            interrupted = true;
            interrupted_at = Some(Instant::now());
            while let Some(shard) = queue.pop_front() {
                done[shard] = Some(ShardDone::Skipped);
            }
            for slot in cluster.workers.iter_mut() {
                if slot.alive {
                    if let Some(shard) = slot.busy {
                        let _ = slot.tx.send_line(&cancel_line(&shards[shard].id));
                    }
                }
            }
        }

        if done.iter().all(Option::is_some) {
            break;
        }

        // Declare hung workers dead: a busy worker past its timeout edge is
        // killed, and its shard re-planned (or skipped after an interrupt —
        // the shard was cancelled; there is nothing left to compute).
        let now = Instant::now();
        let timed_out: Vec<(usize, usize)> = cluster
            .workers
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.alive)
            .filter_map(|(rank, slot)| {
                let (shard, since) = slot.busy.zip(slot.busy_since)?;
                let edge = busy_edge(since, &supervision, interrupted_at)?;
                (now >= edge).then_some((rank, shard))
            })
            .collect();
        for (rank, shard) in timed_out {
            let slot = &mut cluster.workers[rank];
            slot.alive = false;
            slot.busy = None;
            slot.busy_since = None;
            slot.tx.kill();
            if interrupted {
                let outcome = ShardDone::Skipped;
                on_signal(shard, ShardSignal::Done(&outcome));
                done[shard] = Some(outcome);
            } else if let Some(error) = retries.fault(
                shard,
                &format!("worker {rank} timed out mid-shard"),
                &supervision,
                &mut queue,
                stats,
            ) {
                fatal = Some(error);
            }
        }
        if fatal.is_some() {
            break;
        }

        // Replace dead workers while the respawn budget lasts, so the pool
        // recovers its parallelism instead of limping on survivors.
        stats.respawned += cluster.respawn_dead();

        // Fill idle workers with due shards (a requeued shard waits out its
        // backoff before re-dispatching).
        let now = Instant::now();
        for rank in 0..cluster.workers.len() {
            {
                let slot = &cluster.workers[rank];
                if !slot.alive || slot.busy.is_some() {
                    continue;
                }
            }
            let Some(pos) = queue.iter().position(|&s| retries.not_before[s] <= now) else {
                break;
            };
            let shard = queue.remove(pos).expect("position is in range");
            let line = dispatch_line(&shards[shard], interrupt);
            let slot = &mut cluster.workers[rank];
            match slot.tx.send_line(&line) {
                Ok(()) => {
                    slot.busy = Some(shard);
                    slot.busy_since = Some(Instant::now());
                }
                Err(_) => {
                    // Found out the worker is gone at send time; its Closed
                    // event (if any) is still coming, but the shard goes
                    // back to the front of the queue right away (the send
                    // never reached a worker, so it costs no retry).
                    slot.alive = false;
                    queue.push_front(shard);
                }
            }
        }

        // Pool fully lost with the respawn budget spent: finish the
        // remaining shards in-process through the ordinary Service path.
        // Slower, and without progress streaming for those shards — but the
        // merged response stays byte-identical, which beats failing the
        // job. (Interrupted sets never reach here: a dead worker's shard is
        // skipped, not requeued, once the interrupt fired.)
        if cluster.workers.iter().all(|slot| !slot.alive) && done.iter().any(Option::is_none) {
            while let Some(shard) = queue.pop_front() {
                if interrupt.is_some_and(Interrupt::triggered) {
                    done[shard] = Some(ShardDone::Skipped);
                    continue;
                }
                let started = Instant::now();
                let outcome = run_shard_locally(&shards[shard], interrupt);
                stats.dispatched += 1;
                stats.local_fallback += 1;
                stats.busy_seconds += started.elapsed().as_secs_f64();
                on_signal(shard, ShardSignal::Done(&outcome));
                done[shard] = Some(outcome);
            }
            continue;
        }

        // Deadline-aware wait: sleep exactly until the next actionable edge
        // — a busy worker's timeout, a backoff expiry, or the job deadline
        // — instead of polling on a fixed interval.
        let now = Instant::now();
        let mut wait = if interrupt.is_some() {
            // A cancel token can flip at any moment without an event.
            MAX_WAIT_INTERRUPTIBLE
        } else {
            MAX_WAIT
        };
        for slot in &cluster.workers {
            if !slot.alive {
                continue;
            }
            let Some(since) = slot.busy_since else {
                continue;
            };
            if let Some(edge) = busy_edge(since, &supervision, interrupted_at) {
                wait = wait.min(edge.saturating_duration_since(now));
            }
        }
        for &shard in &queue {
            wait = wait.min(retries.not_before[shard].saturating_duration_since(now));
        }
        if !interrupted {
            if let Some(deadline) = interrupt.and_then(|i| i.deadline) {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }

        match cluster.events.recv_timeout(wait.max(MIN_WAIT)) {
            Ok(WorkerEvent::Line(rank, line)) => {
                let Some(shard) = cluster.workers[rank].busy else {
                    continue; // stray output from an idle worker
                };
                let Ok(value) = serde_json::from_str(&line) else {
                    continue;
                };
                if value.get("id").and_then(Value::as_str) != Some(shards[shard].id.as_str()) {
                    continue;
                }
                match value.get("type").and_then(Value::as_str) {
                    Some("progress") => on_signal(shard, ShardSignal::Progress(&value)),
                    Some("response") => {
                        let slot = &mut cluster.workers[rank];
                        slot.busy = None;
                        if let Some(since) = slot.busy_since.take() {
                            stats.busy_seconds += since.elapsed().as_secs_f64();
                        }
                        match decode_response(&value) {
                            Decoded::Done(outcome) => {
                                stats.dispatched += 1;
                                on_signal(shard, ShardSignal::Done(&outcome));
                                done[shard] = Some(outcome);
                            }
                            // A response the coordinator cannot decode is a
                            // worker fault, not a job error: re-dispatch
                            // (the worker stays alive — it answered).
                            Decoded::Garbled(reason) => {
                                if interrupted {
                                    let outcome = ShardDone::Skipped;
                                    on_signal(shard, ShardSignal::Done(&outcome));
                                    done[shard] = Some(outcome);
                                } else if let Some(error) = retries.fault(
                                    shard,
                                    &format!("worker {rank} answered garbage: {reason}"),
                                    &supervision,
                                    &mut queue,
                                    stats,
                                ) {
                                    fatal = Some(error);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            Ok(WorkerEvent::Closed(rank)) => {
                let slot = &mut cluster.workers[rank];
                slot.alive = false;
                slot.busy_since = None;
                if let Some(shard) = slot.busy.take() {
                    if interrupted {
                        let outcome = ShardDone::Skipped;
                        on_signal(shard, ShardSignal::Done(&outcome));
                        done[shard] = Some(outcome);
                    } else if let Some(error) = retries.fault(
                        shard,
                        &format!("worker {rank} died mid-shard"),
                        &supervision,
                        &mut queue,
                        stats,
                    ) {
                        fatal = Some(error);
                    }
                }
            }
            // Timeout: loop back around to re-check interrupts and edges.
            // Disconnection cannot happen (the cluster holds a keepalive
            // sender), but treat it like a timeout if it ever did.
            Err(_) => {}
        }
        if fatal.is_some() {
            break;
        }
    }

    if fatal.is_some() {
        // Fatal exit can leave live workers mid-shard: cancel their work so
        // the pool is reusable, and mark the abandoned shards. Late lines
        // from those shards are dropped by the id checks of the next set.
        for slot in cluster.workers.iter_mut() {
            if slot.alive {
                if let Some(shard) = slot.busy.take() {
                    let _ = slot.tx.send_line(&cancel_line(&shards[shard].id));
                }
                slot.busy_since = None;
            }
        }
        for done in done.iter_mut() {
            if done.is_none() {
                *done = Some(ShardDone::Skipped);
            }
        }
    }

    ShardSetOutcome {
        done: done
            .into_iter()
            .map(|d| d.expect("loop exits only once every shard is done"))
            .collect(),
        interrupted,
        fatal,
    }
}

/// Runs one shard in-process — the coordinator's last resort when the
/// whole pool is gone and the respawn budget is spent. The shard executes
/// through the ordinary [`Service`] path on the exact request a worker
/// would have received (remaining deadline included), so its rows are the
/// rows a worker would have produced.
fn run_shard_locally(shard: &ShardSpec, interrupt: Option<&Interrupt<'_>>) -> ShardDone {
    let line = dispatch_line(shard, interrupt);
    let request = match SessionLine::from_json(&line) {
        Ok(SessionLine::Request(request)) => request,
        _ => {
            return ShardDone::Failed {
                code: E_REMOTE.to_string(),
                message: "internal: a shard request did not parse back".to_string(),
            }
        }
    };
    let fresh;
    let handle = match interrupt {
        Some(interrupt) => interrupt.handle,
        None => {
            fresh = JobHandle::new();
            &fresh
        }
    };
    let sink = OptionalSink::<std::io::Sink> {
        id: &shard.id,
        out: None,
    };
    let response = Service::new().run(&request, handle, &sink);
    match decode_response(&response.to_value()) {
        Decoded::Done(done) => done,
        Decoded::Garbled(reason) => ShardDone::Failed {
            code: E_REMOTE.to_string(),
            message: format!("local fallback produced an undecodable response: {reason}"),
        },
    }
}

/// Builds a shard's sweep request object (without a deadline; the remaining
/// deadline is attached per dispatch).
fn shard_request(id: &str, serial: bool, sweep: Value) -> Value {
    Value::Object(vec![
        (
            "protocol_version".to_string(),
            Value::UInt(PROTOCOL_VERSION),
        ),
        ("id".to_string(), Value::Str(id.to_string())),
        ("kind".to_string(), Value::Str("sweep".to_string())),
        ("serial".to_string(), Value::Bool(serial)),
        ("sweep".to_string(), sweep),
    ])
}

/// Renders a shard's dispatch line, attaching the job's remaining deadline
/// so a re-dispatched shard never outlives the job's budget.
fn dispatch_line(shard: &ShardSpec, interrupt: Option<&Interrupt<'_>>) -> String {
    let mut body = shard.body.clone();
    if let Some(ms) = interrupt.and_then(Interrupt::remaining_ms) {
        if let Value::Object(entries) = &mut body {
            entries.push(("deadline_ms".to_string(), Value::UInt(ms)));
        }
    }
    serde_json::to_string(&body).expect("request values serialise")
}

fn cancel_line(id: &str) -> String {
    serde_json::to_string(&Value::Object(vec![
        (
            "protocol_version".to_string(),
            Value::UInt(PROTOCOL_VERSION),
        ),
        ("cancel".to_string(), Value::Str(id.to_string())),
    ]))
    .expect("cancel lines serialise")
}

/// What a worker's response line decoded into.
enum Decoded {
    /// A decodable response: the shard's outcome.
    Done(ShardDone),
    /// Output that is not a usable response — `status: "ok"` without
    /// decodable results, or no recognisable status at all. A supervision
    /// fault (re-dispatch), distinct from a typed job error.
    Garbled(String),
}

/// Decodes a worker's response line into the shard's outcome.
fn decode_response(value: &Value) -> Decoded {
    let cancelled = matches!(value.get("cancelled"), Some(Value::Bool(true)));
    match value.get("status").and_then(Value::as_str) {
        Some("ok") => match value
            .get("result")
            .and_then(|r| r.get("results"))
            .map(wire::sweep_results_from_value)
        {
            Some(Ok(results)) => Decoded::Done(ShardDone::Rows {
                rows: results.rows,
                cancelled,
            }),
            Some(Err(e)) => Decoded::Garbled(format!("sweep results did not decode: {e}")),
            None => Decoded::Garbled("the response carried no sweep results".to_string()),
        },
        Some("error") => {
            let field = |key: &str| {
                value
                    .get("error")
                    .and_then(|e| e.get(key))
                    .and_then(Value::as_str)
            };
            Decoded::Done(ShardDone::Failed {
                code: field("code").unwrap_or(E_REMOTE).to_string(),
                message: field("message")
                    .unwrap_or("worker reported an error")
                    .to_string(),
            })
        }
        _ => Decoded::Garbled("the response carried no status".to_string()),
    }
}

/// Re-tags a worker's `row_completed` line with the parent job's id and the
/// point's global index/total. Other progress lines map to `None`.
fn patch_row_line(value: &Value, id: &str, offset: usize, total: usize) -> Option<String> {
    if value.get("event").and_then(Value::as_str) != Some("row_completed") {
        return None;
    }
    let Value::Object(entries) = value else {
        return None;
    };
    let patched: Vec<(String, Value)> = entries
        .iter()
        .map(|(key, v)| {
            let v = match key.as_str() {
                "id" => Value::Str(id.to_string()),
                "index" => Value::UInt(v.as_u64().unwrap_or(0) + offset as u64),
                "total" => Value::UInt(total as u64),
                _ => v.clone(),
            };
            (key.clone(), v)
        })
        .collect();
    serde_json::to_string(&Value::Object(patched)).ok()
}

/// Writes one NDJSON line, flushing immediately (the serve-session
/// guarantee: lines are visible the moment their event happens).
fn emit_line<W: Write>(out: Option<&Mutex<W>>, text: &str) {
    if let Some(out) = out {
        let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{text}");
        let _ = out.flush();
    }
}

/// A [`ProgressSink`] over an optional shared writer: the coordinator's
/// local search fold streams through this, and `msfu run --workers` without
/// `--progress` passes `None`.
struct OptionalSink<'a, W: Write> {
    id: &'a str,
    out: Option<&'a Mutex<W>>,
}

impl<W: Write> ProgressSink for OptionalSink<'_, W> {
    fn emit(&self, event: &ProgressEvent<'_>) {
        if let Ok(text) = serde_json::to_string(&progress_to_value(self.id, event)) {
            emit_line(self.out, &text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{serve, ServeOptions};

    /// Runs one serve session over the given lines and returns its parsed
    /// output lines.
    fn session(options: &ServeOptions, lines: &str) -> Vec<Value> {
        let mut output: Vec<u8> = Vec::new();
        let input = std::io::Cursor::new(lines.to_string().into_bytes());
        serve(input, &mut output, options).unwrap();
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).expect("output lines are JSON"))
            .collect()
    }

    fn response_of<'a>(values: &'a [Value], id: &str) -> &'a Value {
        values
            .iter()
            .find(|v| {
                v.get("type").and_then(Value::as_str) == Some("response")
                    && v.get("id").and_then(Value::as_str) == Some(id)
            })
            .expect("session produced the response")
    }

    /// The fields of a response that must be byte-identical between serial
    /// and sharded execution (everything except the perf stamp).
    fn stable_fields(response: &Value) -> String {
        let stripped: Vec<(String, Value)> = match response {
            Value::Object(entries) => entries
                .iter()
                .filter(|(k, _)| k != "perf")
                .cloned()
                .collect(),
            _ => panic!("responses are objects"),
        };
        serde_json::to_string(&Value::Object(stripped)).unwrap()
    }

    fn cluster_perf_of<'a>(response: &'a Value, key: &str) -> &'a Value {
        response
            .get("perf")
            .and_then(|p| p.get("cluster"))
            .and_then(|c| c.get(key))
            .expect("clustered responses carry perf.cluster")
    }

    const SWEEP_LINE: &str = concat!(
        r#"{"protocol_version": 1, "id": "j", "kind": "sweep", "sweep": {"name": "t", "points": ["#,
        r#"{"label": "p0", "factory": {"k": 2}, "strategy": {"strategy": "linear"}},"#,
        r#"{"label": "p1", "factory": {"k": 2}, "strategy": {"strategy": "random", "seed": 1}},"#,
        r#"{"label": "p2", "factory": {"k": 3}, "strategy": {"strategy": "random", "seed": 2, "expansion": 1.5}},"#,
        r#"{"label": "p3", "factory": {"k": 2, "reuse": "NR"}, "strategy": {"strategy": "linear"}},"#,
        r#"{"label": "p4", "factory": {"k": 2}, "strategy": {"strategy": "graph_partition", "seed": 3}}]}}"#,
        "\n",
    );

    const SEARCH_LINE: &str = concat!(
        r#"{"protocol_version": 1, "id": "s", "kind": "search", "search": {"#,
        r#""name": "srch", "factory": {"k": 2}, "budget": 10, "batch_size": 4, "seed": 7,"#,
        r#""portfolio": [{"strategy": {"strategy": "random"}, "seeded": true},"#,
        r#"{"strategy": {"strategy": "linear"}, "seeded": false}]}}"#,
        "\n",
    );

    #[test]
    fn sharded_sweep_is_byte_identical_to_serial_at_any_worker_count() {
        let serial = session(&ServeOptions::new(), SWEEP_LINE);
        let reference = stable_fields(response_of(&serial, "j"));
        assert!(reference.contains(r#""status":"ok""#), "{reference}");
        // The fixture spans three factories (k = 2 R, k = 3, k = 2 NR), so
        // the plan cuts at factory changes as well as at the size cap.
        let request = Request::from_json(SWEEP_LINE).expect("the fixture is a request");
        let Job::Sweep { spec } = &request.job else {
            panic!("the fixture is a sweep");
        };
        let factories: Vec<_> = spec.points.iter().map(|p| p.factory).collect();
        assert_eq!(
            plan_shards(factories.iter(), 2),
            vec![0..2, 2..3, 3..4, 4..5]
        );
        for workers in [1, 2, 4, 7] {
            let clustered = session(&ServeOptions::new().with_workers(workers), SWEEP_LINE);
            let response = response_of(&clustered, "j");
            assert_eq!(
                stable_fields(response),
                reference,
                "workers={workers} diverged"
            );
            assert_eq!(
                cluster_perf_of(response, "workers"),
                &Value::UInt(workers as u64)
            );
            assert_eq!(cluster_perf_of(response, "shards_retried"), &Value::UInt(0));
            assert_eq!(
                cluster_perf_of(response, "shards"),
                &Value::UInt(plan_shards(factories.iter(), workers).len() as u64),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn sharded_search_is_byte_identical_to_serial_at_any_worker_count() {
        let serial = session(&ServeOptions::new(), SEARCH_LINE);
        let reference = stable_fields(response_of(&serial, "s"));
        assert!(reference.contains(r#""incumbent""#), "{reference}");
        for workers in [1, 2, 4] {
            let clustered = session(&ServeOptions::new().with_workers(workers), SEARCH_LINE);
            assert_eq!(
                stable_fields(response_of(&clustered, "s")),
                reference,
                "workers={workers} diverged"
            );
        }
    }

    #[test]
    fn clustered_sweep_streams_patched_row_progress_and_merged_batches() {
        let clustered = session(&ServeOptions::new().with_workers(2), SWEEP_LINE);
        let rows: Vec<&Value> = clustered
            .iter()
            .filter(|v| v.get("event").and_then(Value::as_str) == Some("row_completed"))
            .collect();
        assert_eq!(rows.len(), 5, "one row event per point");
        let mut indices: Vec<u64> = rows
            .iter()
            .map(|v| {
                assert_eq!(v.get("id").and_then(Value::as_str), Some("j"));
                assert_eq!(v.get("total").and_then(Value::as_u64), Some(5));
                v.get("index").and_then(Value::as_u64).unwrap()
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3, 4], "global indices, each once");
        let last_batch = clustered
            .iter()
            .rfind(|v| v.get("event").and_then(Value::as_str) == Some("batch_finished"))
            .expect("coordinator emits merged batch events");
        assert_eq!(last_batch.get("completed").and_then(Value::as_u64), Some(5));
        assert_eq!(last_batch.get("total").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn a_worker_crash_re_dispatches_its_shard_and_rows_are_identical() {
        let serial = session(&ServeOptions::new(), SWEEP_LINE);
        let reference = stable_fields(response_of(&serial, "j"));
        // Rank 1 dies upon receiving its first request, so its shard must
        // be re-dispatched (no respawn budget: recovery must work on the
        // survivors alone).
        let options = ServeOptions::new()
            .with_workers(2)
            .with_fault_plan(FaultPlan::new().with_crash(1, 0))
            .with_max_respawns(0);
        let faulted = session(&options, SWEEP_LINE);
        let response = response_of(&faulted, "j");
        assert_eq!(stable_fields(response), reference, "recovered run diverged");
        let retried = cluster_perf_of(response, "shards_retried")
            .as_u64()
            .unwrap();
        assert!(retried >= 1, "the lost shard counts as retried");
    }

    #[test]
    fn a_crashed_worker_is_respawned_and_rows_are_identical() {
        let serial = session(&ServeOptions::new(), SWEEP_LINE);
        let reference = stable_fields(response_of(&serial, "j"));
        // Rank 1 dies on its first request; the default respawn budget (one
        // per configured worker) replaces it with a clean worker at a fresh
        // rank, so the pool recovers its parallelism.
        let options = ServeOptions::new()
            .with_workers(2)
            .with_fault_plan(FaultPlan::new().with_crash(1, 0));
        let respawned = session(&options, SWEEP_LINE);
        let response = response_of(&respawned, "j");
        assert_eq!(stable_fields(response), reference, "respawned run diverged");
        let respawns = cluster_perf_of(response, "workers_respawned")
            .as_u64()
            .unwrap();
        assert!(respawns >= 1, "the dead worker was replaced");
        assert_eq!(
            cluster_perf_of(response, "workers"),
            &Value::UInt(2),
            "the plan still uses the configured pool size"
        );
    }

    #[test]
    fn losing_every_worker_falls_back_to_in_process_execution() {
        let serial = session(&ServeOptions::new(), SWEEP_LINE);
        let reference = stable_fields(response_of(&serial, "j"));
        // The whole pool is one worker, it dies on its first request, and
        // no respawns are allowed: the coordinator must finish the job
        // in-process rather than fail it.
        let options = ServeOptions::new()
            .with_workers(1)
            .with_fault_plan(FaultPlan::new().with_crash(0, 0))
            .with_max_respawns(0);
        let values = session(&options, SWEEP_LINE);
        let response = response_of(&values, "j");
        assert_eq!(stable_fields(response), reference, "fallback run diverged");
        let fallback = cluster_perf_of(response, "shards_local_fallback")
            .as_u64()
            .unwrap();
        assert!(fallback >= 1, "remaining shards ran in-process");
    }

    #[test]
    fn a_stalled_worker_times_out_and_its_shard_is_re_dispatched() {
        let serial = session(&ServeOptions::new(), SWEEP_LINE);
        let reference = stable_fields(response_of(&serial, "j"));
        // Rank 1 hangs forever on its first request. The shard timeout
        // declares it dead; its shard re-dispatches to rank 0 and the
        // merged rows stay byte-identical.
        let plan = FaultPlan::new().with_stall(1, 0, 60_000);
        let options = ServeOptions::new()
            .with_workers(2)
            .with_fault_plan(plan)
            .with_shard_timeout_ms(150)
            .with_max_respawns(0);
        let values = session(&options, SWEEP_LINE);
        let response = response_of(&values, "j");
        assert_eq!(stable_fields(response), reference, "recovered run diverged");
        let retried = cluster_perf_of(response, "shards_retried")
            .as_u64()
            .unwrap();
        assert!(retried >= 1, "the timed-out shard counts as retried");
    }

    #[test]
    fn a_stall_outlasting_every_retry_fails_typed_instead_of_hanging() {
        // One point, so one shard; both workers hang forever; retry budget
        // of 1 and no respawns. The first timeout consumes the budget's one
        // re-dispatch, the second exhausts it — the job must come back as a
        // typed E_SHARD_RETRY_EXHAUSTED error within a bounded time, never
        // hang.
        let line = concat!(
            r#"{"protocol_version": 1, "id": "x", "kind": "sweep", "sweep": {"name": "t", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let plan = FaultPlan::new()
            .with_stall(0, 0, 60_000)
            .with_stall(1, 0, 60_000);
        let options = ServeOptions::new()
            .with_workers(2)
            .with_fault_plan(plan)
            .with_shard_timeout_ms(100)
            .with_retry_budget(1)
            .with_max_respawns(0);
        let started = Instant::now();
        let values = session(&options, line);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "exhaustion must resolve long before the stalls would"
        );
        let response = response_of(&values, "x");
        assert_eq!(
            response.get("status").and_then(Value::as_str),
            Some("error")
        );
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some(E_SHARD_RETRY_EXHAUSTED)
        );
        let retried = cluster_perf_of(response, "shards_retried")
            .as_u64()
            .unwrap();
        assert!(retried >= 2, "both timeouts count as retries");
    }

    #[test]
    fn a_garbled_response_is_retried_and_rows_are_identical() {
        let serial = session(&ServeOptions::new(), SWEEP_LINE);
        let reference = stable_fields(response_of(&serial, "j"));
        // Rank 1 answers its first request with an undecodable response
        // line. The coordinator books a retry (the worker stays alive) and
        // the re-dispatched shard completes normally.
        let plan = FaultPlan::new().with_corrupt_response(1, 0);
        let options = ServeOptions::new()
            .with_workers(2)
            .with_fault_plan(plan)
            .with_max_respawns(0);
        let values = session(&options, SWEEP_LINE);
        let response = response_of(&values, "j");
        assert_eq!(stable_fields(response), reference, "recovered run diverged");
        let retried = cluster_perf_of(response, "shards_retried")
            .as_u64()
            .unwrap();
        assert!(retried >= 1, "the garbled shard counts as retried");
    }

    #[test]
    fn pre_cancel_and_zero_deadline_reach_the_whole_pool() {
        let pre_cancel = concat!(
            r#"{"protocol_version": 1, "cancel": "j"}"#,
            "\n",
            r#"{"protocol_version": 1, "id": "j", "kind": "sweep", "sweep": {"name": "t", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let values = session(&ServeOptions::new().with_workers(2), pre_cancel);
        let response = response_of(&values, "j");
        assert_eq!(response.get("cancelled"), Some(&Value::Bool(true)));
        let rows = response
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(|r| r.get("rows"))
            .and_then(Value::as_array)
            .expect("cancelled sweeps report partial rows");
        assert!(rows.is_empty(), "nothing ran before the cancel");

        let deadline = concat!(
            r#"{"protocol_version": 1, "id": "d", "kind": "sweep", "deadline_ms": 0, "sweep": {"name": "t", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let values = session(&ServeOptions::new().with_workers(2), deadline);
        let response = response_of(&values, "d");
        assert_eq!(response.get("cancelled"), Some(&Value::Bool(true)));
    }

    #[test]
    fn a_deadline_over_a_stalled_pool_terminates_within_the_grace_period() {
        // Every worker hangs forever and no shard timeout is configured:
        // only the job deadline interrupts, and the post-interrupt grace
        // must kill the hung workers instead of waiting for responses that
        // will never come.
        let line = concat!(
            r#"{"protocol_version": 1, "id": "g", "kind": "sweep", "deadline_ms": 100, "sweep": {"name": "t", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let plan = FaultPlan::new()
            .with_stall(0, 0, 60_000)
            .with_stall(1, 0, 60_000);
        let options = ServeOptions::new()
            .with_workers(2)
            .with_fault_plan(plan)
            .with_max_respawns(0);
        let started = Instant::now();
        let values = session(&options, line);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the session must not wait out the stalls"
        );
        let response = response_of(&values, "g");
        assert_eq!(response.get("cancelled"), Some(&Value::Bool(true)));
    }

    #[test]
    fn errors_keep_their_serial_codes_and_messages_across_the_cluster() {
        // k=0 fails factory validation inside a worker; the coordinator
        // must surface the exact serial code and message.
        let line = concat!(
            r#"{"protocol_version": 1, "id": "bad", "kind": "sweep", "sweep": {"name": "t", "points": [{"label": "p", "factory": {"capacity": 0}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let serial = session(&ServeOptions::new(), line);
        let clustered = session(&ServeOptions::new().with_workers(2), line);
        assert_eq!(
            stable_fields(response_of(&serial, "bad")),
            stable_fields(response_of(&clustered, "bad"))
        );
    }
}
