//! The run scheduler behind every sweep and search batch: one worker pool
//! per run.
//!
//! A run's points are cut into chunks of consecutive points
//! ([`SWEEP_BATCH`](crate::sweep) for a sweep, one chunk per candidate batch
//! for a search), and each point goes through four steps:
//!
//! 1. **Map** — a task per point: the layout, the rewired factory copy of a
//!    port-rewiring strategy and the content address, rendered and hashed
//!    once here, on the worker (a [`ContentKey`]). The first task that needs
//!    a factory builds it.
//! 2. **Plan** — on the calling thread, in point order across the whole run
//!    (see [`Run::decide`]): answered from the cache, following an earlier
//!    point of the run that computes the same key, or computing in a lane
//!    group of its chunk. Both maps probe with the key's stored hash, so
//!    the calling thread hashes no key bytes. A group is queued as soon as
//!    it is full, and the rest of a chunk's groups once its last point is
//!    planned.
//! 3. **Simulate** — a task per lane group, through the worker's one
//!    [`BatchEngine`](msfu_sim::BatchEngine).
//! 4. **Resolve** — on the calling thread, chunk by chunk and in point
//!    order, once every group of the chunk simulated: each computed key is
//!    recorded in the cache (a miss) and followers copy their leader's
//!    result. Rows with breakdowns or metrics to collect are then
//!    **finished** by a task per row.
//!
//! Workers take tasks earliest chunk first; within a chunk, map tasks first
//! (the plan waits for them), then the largest lane group first (cost =
//! lanes × circuit gates). So chunks overlap: while the last groups of one
//! chunk simulate, idle workers map and simulate the next, and a serial run
//! still maps a whole chunk before simulating it. At most [`WINDOW`] chunks are mapped ahead of the oldest chunk
//! whose rows are not yet streamed. Lane groups never cross a chunk and
//! form in point order, so the simulations of a run do not depend on its
//! thread count.
//!
//! A follower of a leader in an earlier, unresolved chunk counts the same
//! hit the cache lookup counts once the leader is recorded, so no key
//! simulates twice and the cache counters of a completed run are the same
//! serial or parallel.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use msfu_distill::{Factory, FactoryConfig};
use msfu_graph::{metrics::MappingMetrics, InteractionGraph};
use msfu_layout::Layout;
use msfu_sim::BatchLane;

use crate::cache::{evaluation_key, ContentKey, EvalCache, KeyMap};
use crate::evaluate::{evaluation_record, with_thread_batch_engine};
use crate::pipeline::per_round_breakdown_with;
use crate::progress::RunControl;
use crate::sweep::{SweepRow, SweepSpec};
use crate::{CoreError, Evaluation, Result};

/// Chunks mapped ahead of the oldest chunk whose rows are not yet streamed.
const WINDOW: usize = 2;

/// Threads of a parallel run's pool: `RAYON_NUM_THREADS` when it holds a
/// positive number (the variable the `rayon` crate reads), else the
/// machine's available parallelism.
fn pool_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// A built factory plus lazily derived, factory-invariant artifacts shared
/// by every point that maps it.
pub(crate) struct FactoryEntry {
    factory: Factory,
    graph: OnceLock<InteractionGraph>,
}

/// The factories of a run: one slot per distinct configuration, built by the
/// first task that needs it and kept with its outcome, so a failed build
/// fails exactly the points that use it.
pub(crate) struct FactoryTable(HashMap<FactoryConfig, OnceLock<Result<FactoryEntry>>>);

impl FactoryTable {
    /// An unbuilt table of `configs` (duplicates share one slot).
    pub(crate) fn new<'c>(configs: impl IntoIterator<Item = &'c FactoryConfig>) -> Self {
        FactoryTable(configs.into_iter().map(|c| (*c, OnceLock::new())).collect())
    }

    /// The factory of `config`, built on first use.
    ///
    /// # Panics
    ///
    /// Panics if `config` is not one of the table's.
    pub(crate) fn get(&self, config: &FactoryConfig) -> Result<&FactoryEntry> {
        self.0[config]
            .get_or_init(|| {
                Ok(FactoryEntry {
                    factory: Factory::build(config)?,
                    graph: OnceLock::new(),
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// One scheduled run: the points of `spec`, in chunks of `chunk_len`.
pub(crate) struct Job<'s> {
    pub(crate) spec: &'s SweepSpec,
    pub(crate) factories: &'s FactoryTable,
    pub(crate) cache: Option<&'s EvalCache>,
    pub(crate) chunk_len: usize,
}

/// A mapped point, as the simulate and finish tasks read it.
struct Placed<'s> {
    entry: &'s FactoryEntry,
    layout: Layout,
    /// The private rewired factory copy of a port-rewiring strategy.
    rewired: Option<Factory>,
}

impl Placed<'_> {
    /// The factory the layout is simulated against.
    fn factory(&self) -> &Factory {
        self.rewired.as_ref().unwrap_or(&self.entry.factory)
    }
}

/// A map task's output: the mapped point and its content address (when
/// caching).
type Mapped<'s> = Result<(Placed<'s>, Option<ContentKey>)>;

/// A unit of work a worker takes from the queue.
enum Task<'s> {
    /// Map this point.
    Map(usize),
    /// Simulate this lane group of this chunk: its points and placements.
    Simulate(usize, usize, Vec<(usize, Arc<Placed<'s>>)>),
    /// Finish the row of this point.
    Finish(usize, Arc<Placed<'s>>, Evaluation),
}

/// A finished [`Task`], sent back to the calling thread.
enum Done<'s> {
    Mapped(usize, Mapped<'s>),
    Simulated(usize, usize, Vec<Result<Evaluation>>),
    Finished(usize, Result<SweepRow>),
}

impl<'s> Job<'s> {
    fn run(&self, task: Task<'s>) -> Done<'s> {
        match task {
            Task::Map(point) => Done::Mapped(point, self.map(point)),
            Task::Simulate(chunk, group, lanes) => {
                Done::Simulated(chunk, group, self.simulate(&lanes))
            }
            Task::Finish(point, placed, evaluation) => {
                Done::Finished(point, self.finish(point, &placed, evaluation))
            }
        }
    }

    fn map(&self, point: usize) -> Mapped<'s> {
        let point = &self.spec.points[point];
        let entry = self.factories.get(&point.factory)?;
        let layout = point.strategy.map(&entry.factory)?;
        let rewired = if layout.requires_port_rewiring() {
            Some(entry.factory.apply_port_assignment(&layout.ports)?)
        } else {
            None
        };
        let key = self
            .spec
            .use_eval_cache
            .then(|| evaluation_key(entry.factory.config(), &layout, &self.spec.eval));
        let placed = Placed {
            entry,
            layout,
            rewired,
        };
        Ok((placed, key))
    }

    /// Simulates one lane group through one shared event wheel — a one-lane
    /// group on its own (possibly rewired) circuit. The batch engine
    /// guarantees each lane's result is byte-identical to a solo run.
    fn simulate(&self, lanes: &[(usize, Arc<Placed<'s>>)]) -> Vec<Result<Evaluation>> {
        let factory = lanes[0].1.factory();
        let circuit = factory.circuit();
        let critical_path_cycles = circuit.critical_path_cycles(&self.spec.eval.sim.latency);
        let batch: Vec<BatchLane<'_>> = lanes
            .iter()
            .map(|(_, placed)| BatchLane::new(&placed.layout))
            .collect();
        let outcome =
            with_thread_batch_engine(self.spec.eval.sim, |engine| engine.run(circuit, &batch));
        match outcome {
            Err(e) => lanes
                .iter()
                .map(|_| Err(CoreError::from(e.clone())))
                .collect(),
            Ok(results) => lanes
                .iter()
                .zip(results)
                .map(|((point, _), lane)| {
                    let name = self.spec.points[*point].strategy.short_name();
                    lane.map(|sim| evaluation_record(factory, name, &sim, critical_path_cycles))
                        .map_err(CoreError::from)
                })
                .collect(),
        }
    }

    /// The row of `point`: its evaluation plus the requested breakdown and
    /// metrics.
    fn finish(
        &self,
        point: usize,
        placed: &Placed<'_>,
        evaluation: Evaluation,
    ) -> Result<SweepRow> {
        let spec = self.spec;
        let effective = placed.factory();
        let breakdown = if spec.collect_breakdowns {
            Some(with_thread_batch_engine(spec.eval.sim, |engine| {
                per_round_breakdown_with(engine, effective, &placed.layout)
            })?)
        } else {
            None
        };
        let metrics = spec.collect_mapping_metrics.then(|| {
            let computed;
            let graph = if placed.layout.requires_port_rewiring() {
                computed = InteractionGraph::from_circuit(effective.circuit());
                &computed
            } else {
                let factory = &placed.entry.factory;
                placed
                    .entry
                    .graph
                    .get_or_init(|| InteractionGraph::from_circuit(factory.circuit()))
            };
            MappingMetrics::compute(graph, &placed.layout.mapping.to_points())
        });
        Ok(SweepRow {
            label: spec.points[point].label.clone(),
            evaluation,
            breakdown,
            metrics,
        })
    }
}

/// A queued task's rank, highest first: earliest chunk, then map tasks (the
/// chunk's plan waits for them), then largest cost, then first queued (so
/// ranks are unique).
type Rank = (Reverse<usize>, bool, u64, Reverse<u64>);

/// The tasks of a run waiting for a worker.
#[derive(Default)]
struct Queue<'s> {
    state: Mutex<Pending<'s>>,
    ready: Condvar,
}

#[derive(Default)]
struct Pending<'s> {
    tasks: BTreeMap<Rank, Task<'s>>,
    queued: u64,
    /// Workers waiting for a task: a push wakes one only when there is one,
    /// so a run on the calling thread makes no wake-up calls.
    waiting: usize,
    closed: bool,
}

impl<'s> Queue<'s> {
    /// Every update leaves the queue valid, so the lock a panicking worker
    /// poisoned is taken over as is (and the close on unwind still runs).
    fn lock(&self) -> MutexGuard<'_, Pending<'s>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, chunk: usize, cost: u64, task: Task<'s>) {
        let mut pending = self.lock();
        let map = matches!(task, Task::Map(_));
        let rank = (Reverse(chunk), map, cost, Reverse(pending.queued));
        pending.queued += 1;
        pending.tasks.insert(rank, task);
        if pending.waiting > 0 {
            self.ready.notify_one();
        }
    }

    /// The best-ranked task, without waiting.
    fn try_pop(&self) -> Option<Task<'s>> {
        self.lock().tasks.pop_last().map(|(_, task)| task)
    }

    /// The best-ranked task, waiting for one; `None` once the queue is
    /// closed or the run is interrupted.
    fn pop(&self, interrupted: impl Fn() -> bool) -> Option<Task<'s>> {
        let mut pending = self.lock();
        loop {
            if pending.closed || interrupted() {
                return None;
            }
            if let Some((_, task)) = pending.tasks.pop_last() {
                return Some(task);
            }
            pending.waiting += 1;
            pending = self
                .ready
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
            pending.waiting -= 1;
        }
    }
}

/// Closes the queue when dropped — when its holder returns or unwinds — so
/// no worker waits for a task that will never come.
struct CloseOnDrop<'q, 's>(&'q Queue<'s>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.ready.notify_all();
    }
}

/// How one point of a chunk gets its row.
enum Slot<'s> {
    /// Its map task is out.
    Mapping,
    Mapped(Mapped<'s>),
    Planned(Arc<Placed<'s>>, Plan),
    /// Its finish task is out.
    Finishing,
    Done(Result<SweepRow>),
    Streamed,
}

/// How a mapped point gets its evaluation, as the plan decided it.
enum Plan {
    /// The evaluation cache held the key (a hit, counted at lookup).
    Cached(Evaluation),
    /// The earlier point of the run at this index computes the same key (a
    /// hit).
    Follow(usize),
    /// Simulated as a member of this group of its chunk (possibly a one-lane
    /// group); its key, when caching, is recorded at resolve.
    Compute(usize, Option<Rc<ContentKey>>),
}

/// The calling thread's state of one admitted chunk.
struct Chunk<'s> {
    start: usize,
    slots: Vec<Slot<'s>>,
    unplanned: usize,
    /// Members of each lane group of the chunk; a group's members leave
    /// when it is queued.
    groups: Vec<Vec<(usize, Arc<Placed<'s>>)>>,
    /// The group still taking points, per (built factory, grid size).
    open: HashMap<(usize, usize, usize), usize>,
    /// Groups not simulated yet, queued or still taking points.
    unsimulated: usize,
    /// Per lane group, its members' results in member order.
    simulated: Vec<std::vec::IntoIter<Result<Evaluation>>>,
    /// Slots in [`Slot::Done`] or [`Slot::Streamed`].
    done: usize,
    streamed: usize,
}

/// The calling thread's side of a run: it admits chunks, plans points and
/// resolves chunks in order, and streams their rows in point order.
struct Run<'a, 's> {
    job: &'a Job<'s>,
    queue: &'a Queue<'s>,
    ctrl: &'a RunControl<'a>,
    on_row: &'a mut dyn FnMut(Result<SweepRow>) -> Result<()>,
    total_chunks: usize,
    /// The admitted, unstreamed chunks `oldest..admitted`.
    chunks: VecDeque<Chunk<'s>>,
    oldest: usize,
    admitted: usize,
    /// Points `0..planned` are planned.
    planned: usize,
    /// Chunks `0..resolved` are resolved.
    resolved: usize,
    /// Keys computed by points of unresolved chunks, and who computes them.
    leaders: KeyMap<Rc<ContentKey>, usize>,
    /// Leader results that a planned follower may still copy.
    leader_results: HashMap<usize, Result<Evaluation>>,
    rows_streamed: usize,
    interrupted: bool,
    error: Option<CoreError>,
}

/// Queues lane group `group` of chunk `chunk`, ranked by its cost.
fn queue_group<'s>(
    queue: &Queue<'s>,
    chunk: usize,
    group: usize,
    lanes: Vec<(usize, Arc<Placed<'s>>)>,
) {
    let gates = lanes[0].1.factory().circuit().num_gates() as u64;
    let cost = lanes.len() as u64 * gates;
    queue.push(chunk, cost, Task::Simulate(chunk, group, lanes));
}

impl<'a, 's> Run<'a, 's> {
    fn running(&self) -> bool {
        !self.interrupted && self.error.is_none() && self.oldest < self.total_chunks
    }

    fn chunk(&mut self, chunk: usize) -> &mut Chunk<'s> {
        &mut self.chunks[chunk - self.oldest]
    }

    /// Queues the map tasks of every chunk the window admits.
    fn admit(&mut self) {
        let len = self.job.chunk_len;
        let points = self.job.spec.points.len();
        while self.admitted < self.total_chunks && self.admitted <= self.oldest + WINDOW {
            let c = self.admitted;
            let range = c * len..((c + 1) * len).min(points);
            self.chunks.push_back(Chunk {
                start: range.start,
                slots: range.clone().map(|_| Slot::Mapping).collect(),
                unplanned: range.len(),
                groups: Vec::new(),
                open: HashMap::new(),
                unsimulated: 0,
                simulated: Vec::new(),
                done: 0,
                streamed: 0,
            });
            for point in range {
                self.queue.push(c, 0, Task::Map(point));
            }
            self.admitted += 1;
        }
    }

    fn complete(&mut self, done: Done<'s>) {
        let len = self.job.chunk_len;
        match done {
            Done::Mapped(point, mapped) => {
                let chunk = self.chunk(point / len);
                chunk.slots[point - chunk.start] = Slot::Mapped(mapped);
            }
            Done::Simulated(chunk, group, results) => {
                let chunk = self.chunk(chunk);
                chunk.simulated[group] = results.into_iter();
                chunk.unsimulated -= 1;
            }
            Done::Finished(point, row) => {
                let chunk = self.chunk(point / len);
                chunk.slots[point - chunk.start] = Slot::Done(row);
                chunk.done += 1;
            }
        }
        self.advance();
    }

    /// Plans every mapped point whose predecessors are planned and resolves
    /// every chunk that is ready, in order, then streams what is done.
    fn advance(&mut self) {
        let len = self.job.chunk_len;
        loop {
            let admitted = (self.admitted * len).min(self.job.spec.points.len());
            if self.planned < admitted && {
                let point = self.planned;
                let chunk = self.chunk(point / len);
                matches!(chunk.slots[point - chunk.start], Slot::Mapped(_))
            } {
                self.plan(self.planned);
                self.planned += 1;
            } else if self.resolved < self.admitted && {
                let chunk = self.chunk(self.resolved);
                chunk.unplanned == 0 && chunk.unsimulated == 0
            } {
                self.resolve(self.resolved);
                self.resolved += 1;
            } else {
                break;
            }
        }
        self.stream();
    }

    /// Plans point `point`, whose predecessors are planned. The chunk's lane
    /// groups still taking points are queued once its last point is
    /// planned.
    fn plan(&mut self, point: usize) {
        let c = point / self.job.chunk_len;
        let chunk = self.chunk(c);
        chunk.unplanned -= 1;
        let k = point - chunk.start;
        let slot = match std::mem::replace(&mut chunk.slots[k], Slot::Mapping) {
            Slot::Mapped(Err(e)) => {
                chunk.done += 1;
                Slot::Done(Err(e))
            }
            Slot::Mapped(Ok((placed, key))) => {
                let placed = Arc::new(placed);
                let plan = self.decide(c, point, &placed, key);
                Slot::Planned(placed, plan)
            }
            _ => unreachable!("points are planned once, after they are mapped"),
        };
        let queue = self.queue;
        let chunk = self.chunk(c);
        chunk.slots[k] = slot;
        if chunk.unplanned == 0 {
            chunk.open.clear();
            for (g, lanes) in chunk.groups.iter_mut().enumerate() {
                if !lanes.is_empty() {
                    queue_group(queue, c, g, std::mem::take(lanes));
                }
            }
        }
    }

    /// How mapped point `point` of chunk `c` gets its evaluation. A key the
    /// cache holds is answered from it; a key an earlier point of the run
    /// computes follows that point; every other point computes, in a lane
    /// group with points of the same built factory and grid size, or as a
    /// one-lane group of its own when it is lane-incompatible (batching off,
    /// a port-rewired circuit, or circuit × lanes would overflow the wheel's
    /// event payload). A group is queued as soon as it is full, a one-lane
    /// group right away.
    fn decide(
        &mut self,
        c: usize,
        point: usize,
        placed: &Arc<Placed<'s>>,
        key: Option<ContentKey>,
    ) -> Plan {
        let job = self.job;
        let key = match (job.cache, key) {
            (Some(cache), Some(key)) => {
                if let Some(&leader) = self.leaders.get(&key) {
                    cache.count_hit(false);
                    return Plan::Follow(leader);
                }
                let name = job.spec.points[point].strategy.short_name();
                if let Some(evaluation) = cache.lookup(&key, name) {
                    return Plan::Cached(evaluation);
                }
                let key = Rc::new(key);
                self.leaders.insert(key.clone(), point);
                Some(key)
            }
            _ => None,
        };
        let lane_cap = job.spec.lane_width();
        let gates = placed.entry.factory.circuit().num_gates() as u64;
        let lane_compatible = lane_cap > 1
            && placed.rewired.is_none()
            && (lane_cap as u64).saturating_mul(gates) <= u64::from(u32::MAX);
        let group_key = (
            placed.entry as *const FactoryEntry as usize,
            placed.layout.mapping.width(),
            placed.layout.mapping.height(),
        );
        let queue = self.queue;
        let chunk = self.chunk(c);
        let g = match chunk.open.get(&group_key) {
            Some(&g) if lane_compatible => g,
            _ => {
                if lane_compatible {
                    chunk.open.insert(group_key, chunk.groups.len());
                }
                chunk.groups.push(Vec::new());
                chunk.simulated.push(Vec::new().into_iter());
                chunk.unsimulated += 1;
                chunk.groups.len() - 1
            }
        };
        chunk.groups[g].push((point, placed.clone()));
        if !lane_compatible {
            queue_group(queue, c, g, std::mem::take(&mut chunk.groups[g]));
        } else if chunk.groups[g].len() == lane_cap {
            chunk.open.remove(&group_key);
            queue_group(queue, c, g, std::mem::take(&mut chunk.groups[g]));
        }
        Plan::Compute(g, key)
    }

    /// Settles, in point order, the evaluation of each planned point of
    /// chunk `c`: computed keys are recorded in the cache (a miss, plus the
    /// disk append) and followers copy their leader's result. Rows with
    /// work left are queued; the rest are done.
    fn resolve(&mut self, c: usize) {
        let job = self.job;
        // Chunk `c`'s leaders leave the map without rehashing their keys
        // (later chunks' lookups find them in the cache from now on), which
        // leaves each computed key with one owner to move into the cache.
        let end = (c + 1) * job.chunk_len;
        self.leaders.retain(|_, &mut leader| leader >= end);
        let chunk = &mut self.chunks[c - self.oldest];
        for (k, slot) in chunk.slots.iter_mut().enumerate() {
            let point = chunk.start + k;
            if !matches!(slot, Slot::Planned(..)) {
                continue; // its mapping failed: the row is already done
            }
            let Slot::Planned(placed, plan) = std::mem::replace(slot, Slot::Finishing) else {
                unreachable!("checked above")
            };
            let evaluation = match plan {
                Plan::Cached(evaluation) => Ok(evaluation),
                Plan::Follow(leader) => {
                    self.leader_results[&leader].clone().map(|mut evaluation| {
                        evaluation.strategy =
                            job.spec.points[point].strategy.short_name().to_string();
                        evaluation
                    })
                }
                Plan::Compute(group, key) => {
                    let result = chunk.simulated[group]
                        .next()
                        .expect("one result per group member");
                    if let Some(key) = key {
                        let key = Rc::try_unwrap(key).unwrap_or_else(|key| ContentKey::clone(&key));
                        if let (Some(cache), Ok(evaluation)) = (job.cache, &result) {
                            cache.record(key, evaluation.clone());
                        }
                        self.leader_results.insert(point, result.clone());
                    }
                    result
                }
            };
            match evaluation {
                // Breakdowns and metrics are worth a task of their own.
                Ok(evaluation)
                    if job.spec.collect_breakdowns || job.spec.collect_mapping_metrics =>
                {
                    self.queue
                        .push(c, 0, Task::Finish(point, placed, evaluation));
                }
                evaluation => {
                    *slot = Slot::Done(evaluation.and_then(|e| job.finish(point, &placed, e)));
                    chunk.done += 1;
                }
            }
        }
        // Followers sit at most WINDOW chunks after their leader.
        let len = job.chunk_len;
        self.leader_results
            .retain(|&leader, _| leader / len + WINDOW > c);
    }

    /// Streams done rows in point order: a parallel run whole chunks, each
    /// followed by one `BatchFinished` and an interruption check; a serial
    /// run row by row, checking for interruption before each.
    fn stream(&mut self) {
        let parallel = !self.ctrl.serial();
        while self.running() {
            let chunk = self
                .chunks
                .front_mut()
                .expect("an unstreamed chunk is admitted");
            if parallel && chunk.done < chunk.slots.len() {
                return;
            }
            while chunk.streamed < chunk.slots.len() {
                let slot = &mut chunk.slots[chunk.streamed];
                if !matches!(slot, Slot::Done(_)) {
                    return;
                }
                if !parallel && self.ctrl.interrupted() {
                    self.interrupted = true;
                    return;
                }
                let Slot::Done(row) = std::mem::replace(slot, Slot::Streamed) else {
                    unreachable!("checked above")
                };
                chunk.streamed += 1;
                if let Err(e) = (self.on_row)(row) {
                    self.error = Some(e);
                    return;
                }
                self.rows_streamed += 1;
            }
            self.chunks.pop_front();
            self.oldest += 1;
            if parallel {
                self.job
                    .spec
                    .emit_batch_finished(self.ctrl, self.rows_streamed);
                if self.oldest < self.total_chunks && self.ctrl.interrupted() {
                    self.interrupted = true;
                    return;
                }
            }
            self.admit();
        }
    }
}

/// Runs `job` in the mode `ctrl` sets, handing each row to `on_row` in
/// point order; an `Err` from `on_row` stops the run with that error.
/// Returns whether the run was interrupted (see [`SweepSpec::run_with`] for
/// when each mode checks).
///
/// A parallel run of more than one point spawns its pool once, sized by
/// [`pool_threads`]; at one thread, and in a serial run, the calling thread
/// runs every task itself. Tasks are taken only while the run is not
/// interrupted, so an interrupted run overruns by at most one task per
/// worker.
pub(crate) fn schedule<'s>(
    job: &Job<'s>,
    ctrl: &RunControl<'_>,
    on_row: &mut dyn FnMut(Result<SweepRow>) -> Result<()>,
) -> Result<bool> {
    let queue = Queue::default();
    let points = job.spec.points.len();
    let mut run = Run {
        job,
        queue: &queue,
        ctrl,
        on_row,
        total_chunks: points.div_ceil(job.chunk_len),
        chunks: VecDeque::new(),
        oldest: 0,
        admitted: 0,
        planned: 0,
        resolved: 0,
        leaders: KeyMap::default(),
        leader_results: HashMap::new(),
        rows_streamed: 0,
        interrupted: false,
        error: None,
    };
    run.admit();
    let threads = if ctrl.serial() {
        1
    } else {
        pool_threads().min(points)
    };
    if threads <= 1 {
        while run.running() {
            if ctrl.interrupted() {
                run.interrupted = true;
                break;
            }
            let task = queue.try_pop().expect("a running run has a task queued");
            run.complete(job.run(task));
        }
    } else {
        let interrupted = ctrl.interrupt();
        std::thread::scope(|scope| {
            let _close = CloseOnDrop(&queue);
            let (tx, rx) = mpsc::channel();
            for _ in 0..threads {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || {
                    let _close = CloseOnDrop(queue);
                    while let Some(task) = queue.pop(interrupted) {
                        if tx.send(job.run(task)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            while run.running() {
                if ctrl.interrupted() {
                    run.interrupted = true;
                    break;
                }
                match rx.recv() {
                    Ok(done) => run.complete(done),
                    // Every worker stopped: the run was interrupted.
                    Err(_) => run.interrupted = true,
                }
            }
        });
    }
    match run.error {
        Some(e) => Err(e),
        None => Ok(run.interrupted),
    }
}
