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
//! Every shard runs one way: dispatched to a pool slot, answered through the
//! shared event channel, decoded and merged. Supervision ([`Supervision`]):
//! every worker fault — a worker whose output closes mid-shard, one whose
//! shard overruns the shard timeout (the worker is declared hung and
//! killed), or one that answers with an undecodable response — goes through
//! one handler. It costs one unit of the shard's retry budget
//! ([`RETRY_BUDGET`]) and re-dispatches the shard with exponential backoff
//! (`shards_retried` in `perf.cluster` counts these). A shard whose budget is
//! spent fails the job typed with [`E_SHARD_RETRY_EXHAUSTED`] — faults must
//! never loop forever. Dead workers are replaced by clean respawns at fresh
//! ranks, up to the session's respawn budget (`workers_respawned`); if the
//! whole pool is gone with shards still queued, the coordinator appends one
//! in-process slot — an ordinary serve loop on a thread, exempt from the
//! shard timeout — and the remaining shards run there, progress streamed
//! like any worker's (`shards_local_fallback` counts the shards it takes),
//! rather than failing the job. Cancellation and deadlines fan out: the
//! coordinator forwards a cancel line for every in-flight shard and skips
//! the queued ones, then merges the longest completed prefix exactly like a
//! serial cancelled run — and a cancelled worker that never answers is
//! killed after a grace period, so an interrupt always terminates the job.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;

use msfu_core::wire;
use msfu_core::{CoreError, ProgressEvent, RunControl, SweepResults, SweepRow};
use msfu_core::{SearchSpec, SweepSpec};

use crate::cluster::comm::{self, ClusterBackend, WorkerEvent, WorkerTx};
use crate::cluster::planner::plan_shards;
use crate::error_code::{E_REMOTE, E_SHARD_RETRY_EXHAUSTED};
use crate::faults::{FaultPlan, WorkerFaultSpec};
use crate::protocol::{ClusterPerf, Payload, Request, ServiceError, PROTOCOL_VERSION};

/// How many times one shard may be re-dispatched after worker faults before
/// the job fails with [`E_SHARD_RETRY_EXHAUSTED`].
const RETRY_BUDGET: u32 = 3;

/// First re-dispatch delay; doubles per attempt (capped at ×64).
const BACKOFF_BASE: Duration = Duration::from_millis(25);

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
/// faulty workers before it replaces them or falls back in-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Supervision {
    /// How long one dispatched shard may stay in flight before its worker
    /// is declared hung, killed, and the shard re-dispatched (`None` = no
    /// timeout; a job deadline still interrupts, and interrupted workers
    /// get a short grace period (`INTERRUPT_GRACE`) before being killed).
    pub shard_timeout: Option<Duration>,
    /// How many replacement workers may be spawned over the pool's
    /// lifetime. Respawns land at fresh ranks with no fault injection.
    pub max_respawns: u32,
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
    /// The in-process fallback slot: exempt from the shard timeout, and
    /// every shard it takes counts as `shards_local_fallback`.
    local: bool,
    /// The in-flight shard (an index into the current shard set) and when
    /// it was dispatched.
    busy: Option<(usize, Instant)>,
}

impl WorkerSlot {
    fn new(tx: Box<dyn WorkerTx>, local: bool) -> Self {
        WorkerSlot {
            tx,
            alive: true,
            local,
            busy: None,
        }
    }
}

impl Cluster {
    /// Connects a pool of `workers` workers (at least one) over `backend`,
    /// handing each rank its slice of the fault plan (when given), under
    /// the given supervision policy.
    ///
    /// # Errors
    ///
    /// Fails when a child worker process cannot be spawned; the
    /// [`ClusterBackend::LocalThreads`] backend is infallible.
    pub fn connect(
        backend: &ClusterBackend,
        workers: usize,
        plan: Option<&FaultPlan>,
        supervision: Supervision,
    ) -> io::Result<Cluster> {
        let (tx, rx) = mpsc::channel();
        let txs = comm::connect(backend, workers.max(1), plan, &tx)?;
        Ok(Cluster {
            configured: txs.len(),
            workers: txs
                .into_iter()
                .map(|tx| WorkerSlot::new(tx, false))
                .collect(),
            events: rx,
            event_tx: tx,
            backend: backend.clone(),
            supervision,
            respawned: 0,
        })
    }

    fn alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Connects one clean worker (no fault injection — a faulty replacement
    /// could loop recovery forever) at the next rank: a replacement over
    /// the pool's backend, or (`local`) the in-process fallback slot.
    fn connect_slot(&mut self, local: bool) -> io::Result<()> {
        let backend = if local {
            &ClusterBackend::LocalThreads
        } else {
            &self.backend
        };
        let tx = comm::connect_rank(
            backend,
            self.workers.len(),
            WorkerFaultSpec::default(),
            self.event_tx.clone(),
        )?;
        self.workers.push(WorkerSlot::new(tx, local));
        Ok(())
    }

    /// Spawns replacement workers until the alive count is back at the
    /// configured pool size or the respawn budget is spent; returns how
    /// many were spawned.
    fn respawn_dead(&mut self) -> u64 {
        let mut spawned = 0;
        while self.respawned < self.supervision.max_respawns && self.alive() < self.configured {
            // A failed spawn attempt consumes budget too: retrying a spawn
            // that just failed would spin without making progress.
            self.respawned += 1;
            if self.connect_slot(false).is_err() {
                break;
            }
            spawned += 1;
        }
        spawned
    }
}

/// One planned shard: a sub-range of the job, as a ready-to-send request.
struct ShardSpec {
    id: String,
    range: Range<usize>,
    body: Value,
}

/// How one shard ended.
#[derive(Debug, PartialEq)]
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
    /// The shard's worker answered with this outcome.
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
    /// The `perf.cluster` stamp of a job on `cluster` timed from `start`.
    fn perf(&self, cluster: &Cluster, start: Instant) -> ClusterPerf {
        let wall_seconds = start.elapsed().as_secs_f64();
        let workers = cluster.configured;
        let pool = workers.max(1) as f64;
        let ideal = self.busy_seconds / pool;
        ClusterPerf {
            backend: cluster.backend.name(),
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

/// When a busy worker crosses from "still working" to "declared hung": its
/// shard timeout (never for the in-process slot), tightened after an
/// interrupt to a grace period (a cancelled worker that never answers must
/// not hold the session open).
fn busy_edge(
    slot: &WorkerSlot,
    since: Instant,
    supervision: &Supervision,
    interrupted_at: Option<Instant>,
) -> Option<Instant> {
    let timeout = supervision
        .shard_timeout
        .filter(|_| !slot.local)
        .map(|t| since + t);
    let grace = interrupted_at.map(|at| at + supervision.shard_timeout.unwrap_or(INTERRUPT_GRACE));
    match (timeout, grace) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (edge, other) => edge.or(other),
    }
}

/// Cuts `spec` into shards (see [`plan_shards`]), each a ready-to-send
/// sweep request with id `{prefix}s{k}` over its slice of the points, run
/// in the mode of the job's control `ctrl`.
fn plan(prefix: &str, ctrl: &RunControl<'_>, spec: &SweepSpec, world: usize) -> Vec<ShardSpec> {
    plan_shards(spec.points.iter().map(|p| p.factory), world)
        .into_iter()
        .enumerate()
        .map(|(k, range)| {
            let id = format!("{prefix}s{k}");
            let body = Value::Object(vec![
                (
                    "protocol_version".to_string(),
                    Value::UInt(PROTOCOL_VERSION),
                ),
                ("id".to_string(), Value::Str(id.clone())),
                ("kind".to_string(), Value::Str("sweep".to_string())),
                ("serial".to_string(), Value::Bool(ctrl.serial())),
                (
                    "sweep".to_string(),
                    wire::sweep_spec_to_value(&spec.slice(range.clone())),
                ),
            ]);
            ShardSpec { id, range, body }
        })
        .collect()
}

/// Runs one sweep across the pool under the job's run control `ctrl`
/// (started at `start`), streaming patched worker row lines to `progress`
/// and merged `batch_finished` events to the control's sink.
pub(crate) fn run_sweep<W: Write>(
    cluster: &mut Cluster,
    request: &Request,
    spec: &SweepSpec,
    ctrl: &RunControl<'_>,
    start: Instant,
    progress: Option<&Mutex<W>>,
) -> (Result<Payload, ServiceError>, bool, ClusterPerf) {
    let total = spec.points.len();
    let prefix = format!("{}#", request.id);
    let shards = plan(&prefix, ctrl, spec, cluster.configured);
    let mut stats = ShardStats::default();
    let mut completed = 0usize;
    let outcome =
        execute_shards(
            cluster,
            &shards,
            Some(ctrl),
            &mut stats,
            |shard, signal| match signal {
                // Worker row events pass through with the parent id and the
                // global index/total. They appear as workers produce them, so
                // (unlike single-process runs) global index order is not
                // guaranteed across shards — each line is still exact.
                ShardSignal::Progress(value) => {
                    let offset = shards[shard].range.start;
                    if let Some(text) = patch_row_line(value, &request.id, offset, total) {
                        emit_line(progress, &text);
                    }
                }
                // Worker batch events are dropped (their totals are
                // shard-local); the coordinator emits its own merged
                // `batch_finished` as each shard lands.
                ShardSignal::Done(ShardDone::Rows { rows, .. }) => {
                    completed += rows.len();
                    ctrl.emit(&ProgressEvent::BatchFinished {
                        name: &spec.name,
                        completed,
                        total,
                    });
                }
                ShardSignal::Done(_) => {}
            },
        );
    let perf = stats.perf(cluster, start);
    let merged = match outcome.fatal {
        Some((code, message)) => Err(ServiceError::new(code, message)),
        None => merge_sweep(outcome.done).map_err(|e| ServiceError::from_core(&e)),
    };
    match merged {
        Ok((rows, cancelled)) => (
            Ok(Payload::Sweep(SweepResults {
                name: spec.name.clone(),
                rows,
            })),
            cancelled || outcome.interrupted,
            perf,
        ),
        Err(error) => (Err(error), false, perf),
    }
}

/// Merges a sweep's shard outcomes the way a serial run would have stopped:
/// walking shards in plan (= point) order, rows append until the first
/// incomplete shard — a cancelled partial or a skipped one — which ends the
/// merge as a cancelled prefix (`true`). A failed shard reached before that
/// stop is the job's error: it holds the lowest failing point.
fn merge_sweep(done: Vec<ShardDone>) -> Result<(Vec<SweepRow>, bool), CoreError> {
    let mut rows = Vec::new();
    for done in done {
        match done {
            ShardDone::Rows {
                rows: mut shard_rows,
                cancelled,
            } => {
                rows.append(&mut shard_rows);
                if cancelled {
                    return Ok((rows, true));
                }
            }
            ShardDone::Skipped => return Ok((rows, true)),
            ShardDone::Failed { code, message } => return Err(CoreError::Remote { code, message }),
        }
    }
    Ok((rows, false))
}

/// Runs one search across the pool under the job's run control `ctrl`
/// (started at `start`): the fold runs here and reports to the control's
/// sink; each candidate batch is sharded.
pub(crate) fn run_search(
    cluster: &mut Cluster,
    request: &Request,
    spec: &SearchSpec,
    ctrl: &RunControl<'_>,
    start: Instant,
) -> (Result<Payload, ServiceError>, bool, ClusterPerf) {
    let mut stats = ShardStats::default();
    let mut batch_seq = 0usize;
    // The deterministic fold (candidate stream, incumbents, stop reasons)
    // runs right here on the coordinator; only the batch evaluations fan
    // out, as ordinary sweep requests over the batch's candidates. That is
    // exactly the serial fold with a different evaluator, so the report is
    // byte-identical to a serial run.
    let result = spec.run_with_evaluator(ctrl, |batch| {
        batch_seq += 1;
        let mut sub = SweepSpec::new(spec.name.clone(), spec.eval);
        sub.use_eval_cache = spec.use_eval_cache;
        sub.cache_dir = spec.cache_dir.clone();
        for (g, strategy) in batch {
            sub = sub.point(format!("c{g}"), spec.factory, strategy.clone());
        }
        let prefix = format!("{}#b{batch_seq}", request.id);
        let shards = plan(&prefix, ctrl, &sub, cluster.configured);
        // No run control here: like a serial run, an in-flight batch always
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
        // Exactly one evaluation per candidate, in stream order. A shard
        // that did not complete fails each of its candidates with its
        // error, so the fold surfaces the lowest failing candidate — the
        // error a serial run would report.
        let mut evaluations = Vec::with_capacity(batch.len());
        for (shard, done) in shards.iter().zip(outcome.done) {
            let len = shard.range.len();
            match search_rows(done, len, &spec.name) {
                Ok(rows) => evaluations.extend(rows.into_iter().map(|row| Ok(row.evaluation))),
                Err(e) => evaluations.extend((0..len).map(|_| Err(e.clone()))),
            }
        }
        Ok(evaluations)
    });
    let perf = stats.perf(cluster, start);
    match result {
        Ok(outcome) => (
            Ok(Payload::Search(Box::new(outcome.payload))),
            outcome.interrupted,
            perf,
        ),
        Err(e) => (Err(ServiceError::from_core(&e)), false, perf),
    }
}

/// A search shard's rows when it evaluated all `len` of its candidates,
/// else the error each of them reports.
fn search_rows(done: ShardDone, len: usize, name: &str) -> Result<Vec<SweepRow>, CoreError> {
    let (code, message) = match done {
        ShardDone::Rows {
            rows,
            cancelled: false,
        } if rows.len() == len => return Ok(rows),
        ShardDone::Rows { .. } => (
            E_REMOTE.to_string(),
            format!("search `{name}`: a worker returned a partial shard"),
        ),
        ShardDone::Failed { code, message } => (code, message),
        ShardDone::Skipped => (
            E_REMOTE.to_string(),
            "a shard was abandoned before it completed".to_string(),
        ),
    };
    Err(CoreError::Remote { code, message })
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

/// The bookkeeping of one shard set in flight.
struct ShardSet {
    /// Each shard's outcome, once it has one.
    done: Vec<Option<ShardDone>>,
    /// Shards waiting for a worker, in dispatch order.
    queue: VecDeque<usize>,
    /// Worker faults each shard has absorbed.
    attempts: Vec<u32>,
    /// When each queued shard's backoff expires.
    not_before: Vec<Instant>,
    /// When a cancel/deadline interrupted the set.
    interrupted_at: Option<Instant>,
    /// The job's fatal error, once a shard's retry budget is spent.
    fatal: Option<(&'static str, String)>,
}

impl ShardSet {
    fn new(shards: usize) -> Self {
        ShardSet {
            done: (0..shards).map(|_| None).collect(),
            queue: (0..shards).collect(),
            attempts: vec![0; shards],
            not_before: vec![Instant::now(); shards],
            interrupted_at: None,
            fatal: None,
        }
    }

    /// Handles one worker fault on `shard` — its worker died, hung past its
    /// edge, or answered garbage. After an interrupt the shard is skipped:
    /// it was cancelled, there is nothing left to compute. Otherwise the
    /// fault costs one unit of the shard's retry budget and requeues the
    /// shard with exponential backoff, or — once the budget is spent — sets
    /// the job's fatal error. Checked *before* any pool-loss handling, so a
    /// shard that keeps killing its workers fails typed instead of
    /// consuming the whole session.
    fn fault(&mut self, shard: usize, reason: String, stats: &mut ShardStats) {
        if self.interrupted_at.is_some() {
            self.done[shard] = Some(ShardDone::Skipped);
            return;
        }
        stats.retried += 1;
        self.attempts[shard] += 1;
        let attempts = self.attempts[shard];
        if attempts > RETRY_BUDGET {
            self.fatal = Some((
                E_SHARD_RETRY_EXHAUSTED,
                format!(
                    "shard {shard} hit {attempts} worker fault(s) (last: {reason}) \
                     with a re-dispatch budget of {RETRY_BUDGET}"
                ),
            ));
            return;
        }
        // Exponential backoff: base, ×2, ×4, ... capped at ×64.
        self.not_before[shard] = Instant::now() + BACKOFF_BASE * (1u32 << (attempts - 1).min(6));
        self.queue.push_back(shard);
    }
}

/// Runs one set of shards over the pool: at most one in-flight shard per
/// worker, supervised re-dispatch (with backoff) on worker death, hang or
/// garbled output, worker respawn, forwarding cancellation when the job's
/// run control `ctrl` is given and interrupted, and reporting shard events
/// through `on_signal`.
/// When the whole pool is gone with shards still queued, an in-process
/// slot joins the pool instead of the job failing.
fn execute_shards(
    cluster: &mut Cluster,
    shards: &[ShardSpec],
    ctrl: Option<&RunControl<'_>>,
    stats: &mut ShardStats,
    mut on_signal: impl FnMut(usize, ShardSignal<'_>),
) -> ShardSetOutcome {
    let supervision = cluster.supervision;
    let mut set = ShardSet::new(shards.len());

    loop {
        // Cancellation/deadline: drop what has not started, tell every busy
        // worker to stop its shard at the next batch boundary, then keep
        // looping to collect the (partial) in-flight responses.
        if set.interrupted_at.is_none() && ctrl.is_some_and(RunControl::interrupted) {
            set.interrupted_at = Some(Instant::now());
            while let Some(shard) = set.queue.pop_front() {
                set.done[shard] = Some(ShardDone::Skipped);
            }
            for slot in cluster.workers.iter_mut().filter(|slot| slot.alive) {
                if let Some((shard, _)) = slot.busy {
                    let _ = slot.tx.send_line(&cancel_line(&shards[shard].id));
                }
            }
        }

        if set.done.iter().all(Option::is_some) {
            break;
        }

        // Declare hung workers dead: a busy worker past its edge is killed
        // and its shard handed to the fault handler.
        let now = Instant::now();
        for (rank, slot) in cluster.workers.iter_mut().enumerate() {
            let Some((shard, since)) = slot.busy.filter(|_| slot.alive) else {
                continue;
            };
            if busy_edge(slot, since, &supervision, set.interrupted_at).is_some_and(|e| now >= e) {
                slot.alive = false;
                slot.busy = None;
                slot.tx.kill();
                set.fault(shard, format!("worker {rank} timed out mid-shard"), stats);
            }
        }
        if set.fatal.is_some() {
            break;
        }

        // Replace dead workers while the respawn budget lasts, so the pool
        // recovers its parallelism instead of limping on survivors. With
        // the whole pool lost and shards still queued (never after an
        // interrupt: that empties the queue), the in-process slot takes
        // over: slower, but the merged response stays byte-identical,
        // which beats failing the job.
        stats.respawned += cluster.respawn_dead();
        if !set.queue.is_empty() && cluster.alive() == 0 {
            cluster
                .connect_slot(true)
                .expect("in-process workers connect infallibly");
        }

        // Fill idle workers with due shards (a requeued shard waits out its
        // backoff before re-dispatching).
        let now = Instant::now();
        for slot in cluster.workers.iter_mut() {
            if !slot.alive || slot.busy.is_some() {
                continue;
            }
            let Some(pos) = set.queue.iter().position(|&s| set.not_before[s] <= now) else {
                break;
            };
            let shard = set.queue.remove(pos).expect("position is in range");
            match slot.tx.send_line(&dispatch_line(&shards[shard], ctrl)) {
                Ok(()) => {
                    slot.busy = Some((shard, Instant::now()));
                    stats.local_fallback += u64::from(slot.local);
                }
                Err(_) => {
                    // Found out the worker is gone at send time; its Closed
                    // event (if any) is still coming, but the shard goes
                    // back to the front of the queue right away (the send
                    // never reached a worker, so it costs no retry).
                    slot.alive = false;
                    set.queue.push_front(shard);
                }
            }
        }

        // Deadline-aware wait: sleep exactly until the next actionable edge
        // — a busy worker's timeout, a backoff expiry, or the job deadline
        // — instead of polling on a fixed interval.
        let now = Instant::now();
        let mut wait = if ctrl.is_some() {
            // A cancel token can flip at any moment without an event.
            MAX_WAIT_INTERRUPTIBLE
        } else {
            MAX_WAIT
        };
        for slot in cluster.workers.iter().filter(|slot| slot.alive) {
            let Some((_, since)) = slot.busy else {
                continue;
            };
            if let Some(edge) = busy_edge(slot, since, &supervision, set.interrupted_at) {
                wait = wait.min(edge.saturating_duration_since(now));
            }
        }
        for &shard in &set.queue {
            wait = wait.min(set.not_before[shard].saturating_duration_since(now));
        }
        if set.interrupted_at.is_none() {
            if let Some(deadline) = ctrl.and_then(RunControl::deadline) {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }

        match cluster.events.recv_timeout(wait.max(MIN_WAIT)) {
            Ok(WorkerEvent::Line(rank, line)) => {
                let Some((shard, since)) = cluster.workers[rank].busy else {
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
                        cluster.workers[rank].busy = None;
                        stats.busy_seconds += since.elapsed().as_secs_f64();
                        match decode_response(&value) {
                            Ok(outcome) => {
                                stats.dispatched += 1;
                                on_signal(shard, ShardSignal::Done(&outcome));
                                set.done[shard] = Some(outcome);
                            }
                            // A response the coordinator cannot decode is a
                            // worker fault, not a job error (the worker
                            // stays alive — it answered).
                            Err(reason) => set.fault(
                                shard,
                                format!("worker {rank} answered garbage: {reason}"),
                                stats,
                            ),
                        }
                    }
                    _ => {}
                }
            }
            Ok(WorkerEvent::Closed(rank)) => {
                let slot = &mut cluster.workers[rank];
                slot.alive = false;
                if let Some((shard, _)) = slot.busy.take() {
                    set.fault(shard, format!("worker {rank} died mid-shard"), stats);
                }
            }
            // Timeout: loop back around to re-check interrupts and edges.
            // Disconnection cannot happen (the cluster holds a keepalive
            // sender), but treat it like a timeout if it ever did.
            Err(_) => {}
        }
        if set.fatal.is_some() {
            break;
        }
    }

    if set.fatal.is_some() {
        // Fatal exit can leave live workers mid-shard: cancel their work so
        // the pool is reusable. Late lines from those shards are dropped by
        // the id checks of the next set.
        for slot in cluster.workers.iter_mut().filter(|slot| slot.alive) {
            if let Some((shard, _)) = slot.busy.take() {
                let _ = slot.tx.send_line(&cancel_line(&shards[shard].id));
            }
        }
    }

    ShardSetOutcome {
        // Shards still open here were abandoned by a fatal exit.
        done: set
            .done
            .into_iter()
            .map(|d| d.unwrap_or(ShardDone::Skipped))
            .collect(),
        interrupted: set.interrupted_at.is_some(),
        fatal: set.fatal,
    }
}

/// Renders a shard's dispatch line, attaching the time left before the
/// job's deadline (per `ctrl`) as `deadline_ms`, so a re-dispatched shard
/// never outlives the job's budget.
fn dispatch_line(shard: &ShardSpec, ctrl: Option<&RunControl<'_>>) -> String {
    let mut body = shard.body.clone();
    if let Some(deadline) = ctrl.and_then(RunControl::deadline) {
        let ms = deadline
            .saturating_duration_since(Instant::now())
            .as_millis() as u64;
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

/// Decodes a worker's response line into the shard's outcome. Output that
/// is not a usable response — `status: "ok"` without decodable results, or
/// no recognisable status at all — is `Err`: a supervision fault
/// (re-dispatch), distinct from a typed job error.
fn decode_response(value: &Value) -> Result<ShardDone, String> {
    let cancelled = matches!(value.get("cancelled"), Some(Value::Bool(true)));
    match value.get("status").and_then(Value::as_str) {
        Some("ok") => match value
            .get("result")
            .and_then(|r| r.get("results"))
            .map(wire::sweep_results_from_value)
        {
            Some(Ok(results)) => Ok(ShardDone::Rows {
                rows: results.rows,
                cancelled,
            }),
            Some(Err(e)) => Err(format!("sweep results did not decode: {e}")),
            None => Err("the response carried no sweep results".to_string()),
        },
        Some("error") => {
            let field = |key: &str| {
                value
                    .get("error")
                    .and_then(|e| e.get(key))
                    .and_then(Value::as_str)
            };
            Ok(ShardDone::Failed {
                code: field("code").unwrap_or(E_REMOTE).to_string(),
                message: field("message")
                    .unwrap_or("worker reported an error")
                    .to_string(),
            })
        }
        _ => Err("the response carried no status".to_string()),
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

/// Writes one patched worker row line, flushing immediately (the
/// serve-session guarantee: lines are visible the moment their event
/// happens).
fn emit_line<W: Write>(out: Option<&Mutex<W>>, text: &str) {
    if let Some(out) = out {
        let mut out = out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{text}");
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Job;
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
    fn fallback_shards_stream_row_progress() {
        // The only worker dies on its first request and no respawns are
        // allowed, so every shard runs on the in-process slot — whose row
        // events must stream like any worker's, re-tagged with the parent
        // id and global indices. Each shard takes far longer than the 1 ms
        // shard timeout, which the in-process slot is exempt from.
        let options = ServeOptions::new()
            .with_workers(1)
            .with_fault_plan(FaultPlan::new().with_crash(0, 0))
            .with_shard_timeout_ms(1)
            .with_max_respawns(0);
        let values = session(&options, SWEEP_LINE);
        let rows: Vec<&Value> = values
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
        let response = response_of(&values, "j");
        assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        let fallback = cluster_perf_of(response, "shards_local_fallback");
        assert_eq!(fallback, &Value::UInt(4), "all four shards ran in-process");
    }

    /// Two completed rows of a tiny sweep, for the merge tests.
    fn two_rows() -> Vec<SweepRow> {
        use msfu_core::{EvaluationConfig, Strategy};
        use msfu_distill::FactoryConfig;
        SweepSpec::new("t", EvaluationConfig::default())
            .point("a", FactoryConfig::single_level(2), Strategy::linear())
            .point("b", FactoryConfig::single_level(2), Strategy::random(1))
            .run()
            .unwrap()
            .rows
    }

    fn failed() -> ShardDone {
        ShardDone::Failed {
            code: "E_X".to_string(),
            message: "boom".to_string(),
        }
    }

    #[test]
    fn a_failure_beyond_the_cancelled_prefix_is_not_the_answer() {
        let rows = two_rows();
        let complete = |rows: &[SweepRow]| ShardDone::Rows {
            rows: rows.to_vec(),
            cancelled: false,
        };
        // A cancelled partial shard ends the merge before the failure.
        let merged = merge_sweep(vec![
            ShardDone::Rows {
                rows: rows[..1].to_vec(),
                cancelled: true,
            },
            failed(),
        ]);
        assert_eq!(merged, Ok((rows[..1].to_vec(), true)));
        // So does a skipped shard.
        let merged = merge_sweep(vec![complete(&rows), ShardDone::Skipped, failed()]);
        assert_eq!(merged, Ok((rows.clone(), true)));
        // A failure inside the prefix is the job's error.
        let merged = merge_sweep(vec![complete(&rows), failed()]);
        assert_eq!(
            merged,
            Err(CoreError::Remote {
                code: "E_X".to_string(),
                message: "boom".to_string(),
            })
        );
        // A clean run merges every row, uncancelled.
        let merged = merge_sweep(vec![complete(&rows[..1]), complete(&rows[1..])]);
        assert_eq!(merged, Ok((rows, false)));
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
        // One point, so one shard; all four workers hang forever and no
        // respawns are allowed. Each timeout costs one re-dispatch of the
        // budget of 3, and the fourth exhausts it while a stalled worker is
        // still left (so the pool is never lost to the in-process
        // fallback) — the job must come back as a typed
        // E_SHARD_RETRY_EXHAUSTED error within a bounded time, never hang.
        let line = concat!(
            r#"{"protocol_version": 1, "id": "x", "kind": "sweep", "sweep": {"name": "t", "points": [{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
            "\n",
        );
        let plan = (0..4).fold(FaultPlan::new(), |plan, rank| {
            plan.with_stall(rank, 0, 60_000)
        });
        let options = ServeOptions::new()
            .with_workers(4)
            .with_fault_plan(plan)
            .with_shard_timeout_ms(100)
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
        assert!(retried >= 4, "every timeout counts as a retry");
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
    fn dispatch_lines_carry_the_time_left_before_the_job_deadline() {
        let request = Request::from_json(SWEEP_LINE).expect("the fixture is a request");
        let Job::Sweep { spec } = &request.job else {
            panic!("the fixture is a sweep");
        };
        let shards = plan("j#", &RunControl::default(), spec, 2);
        assert_eq!(shards[1].id, "j#s1");
        let deadline_ms = |ctrl: Option<&RunControl<'_>>| {
            let line: Value = serde_json::from_str(&dispatch_line(&shards[0], ctrl)).unwrap();
            assert_eq!(line.get("id").and_then(Value::as_str), Some("j#s0"));
            line.get("deadline_ms")
                .map(|ms| ms.as_u64().expect("a count"))
        };
        let soon = RunControl::default().with_deadline(Instant::now() + Duration::from_secs(5));
        let ms = deadline_ms(Some(&soon)).expect("a deadline is attached");
        assert!((1..=5000).contains(&ms), "{ms} ms left of 5 s");
        assert_eq!(deadline_ms(Some(&RunControl::default())), None);
        assert_eq!(deadline_ms(None), None);
        let past = RunControl::default().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(deadline_ms(Some(&past)), Some(0));
    }

    #[test]
    fn shard_requests_carry_the_requests_serial_mode() {
        let handle = crate::JobHandle::new();
        for serial in [false, true] {
            let request = Request::from_json(SWEEP_LINE)
                .expect("the fixture is a request")
                .with_serial(serial);
            let Job::Sweep { spec } = &request.job else {
                panic!("the fixture is a sweep");
            };
            let ctrl = crate::service::run_control(
                &request,
                &handle,
                &msfu_core::NoProgress,
                Instant::now(),
            );
            let shards = plan("j#", &ctrl, spec, 2);
            assert!(shards.len() > 1, "the fixture spans several shards");
            for shard in &shards {
                let line: Value = serde_json::from_str(&dispatch_line(shard, Some(&ctrl))).unwrap();
                assert_eq!(
                    line.get("serial"),
                    Some(&Value::Bool(serial)),
                    "{}",
                    shard.id
                );
            }
        }
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
