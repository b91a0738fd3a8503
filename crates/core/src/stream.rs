//! Streaming job scheduler: online distillation traffic over a fixed fleet.
//!
//! The paper evaluates factory mappings only under static sweeps; this module
//! opens the "heavy traffic" scenario on top of them. A [`StreamSpec`]
//! declares a fixed **fleet** of factory configurations, a set of job
//! **classes** (distillation requests with level/capacity/volume demands and
//! a mapping strategy), a seeded **arrival process** ([`ArrivalProcess`]:
//! Poisson, bursty/MMPP, or an explicit adversarial trace), and one or more
//! **schedulers** to compare. A discrete-event simulator advances a shared
//! integer cycle clock: jobs arrive, wait in a queue, are placed onto free
//! servers by the scheduler, occupy them for a service time derived from the
//! real evaluation pipeline (one serial sub-sweep over the feasible
//! (class, fleet entry) pairs, through the sweep's evaluation cache, so
//! repeated (config, strategy) lookups are near-free), and retire.
//!
//! Schedulers are named like mappers, from a closed line-up of four: `fifo`,
//! `priority`, `capacity_aware` and `reuse_aware`.
//!
//! Determinism is non-negotiable: arrivals come from a `ChaCha8` stream
//! seeded by the spec, every tie-break is fixed (completions before arrivals
//! at the same cycle, queue in arrival order, servers by ascending index),
//! and every scheduler replays the identical arrival sequence — so a fixed
//! spec yields a byte-identical [`StreamReport`] on every run.
//!
//! # Example
//!
//! ```
//! use msfu_core::stream::{ArrivalProcess, JobClass, StreamSpec};
//! use msfu_core::Strategy;
//! use msfu_distill::FactoryConfig;
//!
//! let spec = StreamSpec::new("quick")
//!     .with_horizon(2_000)
//!     .with_seed(7)
//!     .with_arrivals(ArrivalProcess::Poisson { rate: 0.004 })
//!     .server(FactoryConfig::single_level(2), 2)
//!     .class(JobClass::new("probe", Strategy::linear()));
//! let report = spec.run().unwrap();
//! assert_eq!(report.runs.len(), spec.schedulers.len());
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::path::PathBuf;

use msfu_distill::FactoryConfig;
use msfu_layout::check_mapper_name;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};

use crate::cache::CacheStats;
use crate::progress::{ProgressEvent, RunControl};
use crate::spec::{eval_from_json, factory_from_json, strategy_from_json, Fields};
use crate::stats::percentiles;
use crate::strategy::Strategy;
use crate::sweep::{SweepResults, SweepRow, SweepSpec};
use crate::{CoreError, Evaluation, EvaluationConfig, Result};

/// Hard cap on the number of generated arrivals, so a typo'd rate fails fast
/// as a typed spec error instead of exhausting memory.
const MAX_ARRIVALS: u64 = 2_000_000;

/// Hard cap on the expanded fleet size (the sum of every entry's `count`),
/// so a typo'd count fails fast instead of exhausting memory.
const MAX_SERVERS: u64 = 10_000;

fn stream_err(reason: String) -> CoreError {
    CoreError::StreamSpec { reason }
}

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

/// The built-in scheduler names, sorted — the `known` list of
/// [`CoreError::UnknownScheduler`].
const SCHEDULER_NAMES: [&str; 4] = ["capacity_aware", "fifo", "priority", "reuse_aware"];

/// The closed scheduler line-up. [`Scheduler::select`] decides from the
/// replay's own queue and servers, and every pick it returns is a queued job
/// and a free server feasible for that job's class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheduler {
    /// `fifo`: oldest job first, placed on the lowest-index free feasible
    /// server.
    Fifo,
    /// `priority`: highest class priority first (ties in arrival order),
    /// placed on the lowest-index free feasible server.
    Priority,
    /// `capacity_aware`: oldest job first, best-fit server — the free
    /// feasible server with the smallest capacity (ties by index), keeping
    /// big factories available for bulk classes.
    CapacityAware,
    /// `reuse_aware`: oldest job first, preferring a free feasible server
    /// whose last job had the same class (no setup cost), then a cold
    /// (never-used) server — leaving other classes' warm servers intact —
    /// then best-fit.
    ReuseAware,
}

impl Scheduler {
    /// The built-in scheduler named `name`.
    fn from_name(name: &str) -> Result<Self> {
        Ok(match name {
            "fifo" => Scheduler::Fifo,
            "priority" => Scheduler::Priority,
            "capacity_aware" => Scheduler::CapacityAware,
            "reuse_aware" => Scheduler::ReuseAware,
            _ => {
                return Err(CoreError::UnknownScheduler {
                    name: name.to_string(),
                    known: &SCHEDULER_NAMES,
                })
            }
        })
    }

    /// The queue key of job `job` of class `class`: `(Reverse(priority),
    /// job id)`, where the priority is the class's under `priority` and 0
    /// under every other scheduler. Job ids follow arrival order, so the
    /// queue iterates in each scheduler's own order.
    fn queue_key(self, job: u64, class: &JobClass) -> QueueKey {
        let priority = if self == Scheduler::Priority {
            class.priority
        } else {
            0
        };
        (Reverse(priority), job)
    }

    /// Picks the next `(queued key, server_index)` assignment: the first
    /// queued job, in key order, that has a free feasible server, or `None`
    /// when none does. `feasible[class][server]` is the level/capacity fit.
    /// The engine only calls this while a server is free, so a pick is
    /// usually the queue's first key.
    fn select(
        self,
        queue: &BTreeSet<QueueKey>,
        jobs: &[Job],
        servers: &[Server],
        feasible: &[Vec<bool>],
    ) -> Option<(QueueKey, usize)> {
        // Free servers feasible for `class`, ascending.
        let free_feasible = |class: usize| {
            (0..servers.len()).filter(move |&si| !servers[si].busy && feasible[class][si])
        };
        let best_fit = |si: &usize| (servers[*si].capacity, *si);
        queue.iter().find_map(|&key| {
            let class = jobs[key.1 as usize].class;
            let si = match self {
                Scheduler::Fifo | Scheduler::Priority => free_feasible(class).next(),
                Scheduler::CapacityAware => free_feasible(class).min_by_key(best_fit),
                Scheduler::ReuseAware => free_feasible(class)
                    .find(|&si| servers[si].last_class == Some(class))
                    .or_else(|| {
                        free_feasible(class)
                            .filter(|&si| servers[si].last_class.is_none())
                            .min_by_key(best_fit)
                    })
                    .or_else(|| free_feasible(class).min_by_key(best_fit)),
            };
            si.map(|si| (key, si))
        })
    }
}

/// A queued job's place in the replay queue: `(Reverse(priority), job id)`
/// (see [`Scheduler::queue_key`]).
type QueueKey = (Reverse<u64>, u64);

/// A job of one scheduler replay.
struct Job {
    class: usize,
    arrived: u64,
    finished: Option<u64>,
}

/// A fleet server of one scheduler replay.
struct Server {
    entry: usize,
    /// Output states per factory execution (`FactoryConfig::capacity`).
    capacity: usize,
    busy: bool,
    /// Class of the last job the server ran, if any (reuse signal).
    last_class: Option<usize>,
    busy_cycles: u64,
}

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

/// One generated job arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival cycle (non-decreasing across a generated sequence).
    pub at: u64,
    /// Index of the job's class in the spec's `classes`.
    pub class: usize,
}

/// One event of an explicit (adversarial) arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival cycle.
    pub at: u64,
    /// Index of the job's class in the spec's `classes`.
    pub class: usize,
}

/// A seeded arrival process: how job arrivals are laid onto the clock.
///
/// Generation is a pure function of `(process, seed, horizon, class weights)`
/// — the same inputs always produce the identical event sequence, and
/// distinct seeds diverge.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times at `rate` jobs
    /// per cycle.
    Poisson {
        /// Mean arrival rate in jobs per cycle (positive, finite).
        rate: f64,
    },
    /// A two-state Markov-modulated Poisson process: `rate` while calm,
    /// `burst_rate` while bursting, with exponentially distributed dwell
    /// times of mean `mean_calm` / `mean_burst` cycles.
    Bursty {
        /// Calm-state arrival rate in jobs per cycle (positive, finite).
        rate: f64,
        /// Burst-state arrival rate in jobs per cycle (positive, finite).
        burst_rate: f64,
        /// Mean calm-state dwell time in cycles (positive, finite).
        mean_calm: f64,
        /// Mean burst-state dwell time in cycles (positive, finite).
        mean_burst: f64,
    },
    /// An explicit trace of arrivals — the adversarial case. Events may be
    /// given in any order; they are sorted by cycle (stable on ties).
    Trace {
        /// The arrivals, each naming a class by index.
        events: Vec<TraceEvent>,
    },
}

impl ArrivalProcess {
    /// The process's JSON name: `poisson`, `bursty` or `trace`.
    pub fn kind(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Trace { .. } => "trace",
        }
    }

    /// Validates the process parameters against `horizon` and the class
    /// weights, and returns the total weight a stochastic process samples
    /// classes by (0 for a trace, which names its classes and ignores
    /// weights).
    fn validate(&self, horizon: u64, weights: &[u64]) -> Result<u64> {
        let positive = |name: &str, v: f64| -> Result<()> {
            if !v.is_finite() || v <= 0.0 {
                return Err(stream_err(format!(
                    "arrivals: `{name}` must be a positive, finite number (got {v})"
                )));
            }
            Ok(())
        };
        let bounded = |rate: f64| -> Result<()> {
            let expected = rate * horizon as f64;
            if expected > MAX_ARRIVALS as f64 {
                return Err(stream_err(format!(
                    "arrivals: rate {rate} over horizon {horizon} implies more than \
                     {MAX_ARRIVALS} expected arrivals"
                )));
            }
            Ok(())
        };
        let total_weight = || -> Result<u64> {
            let total = weights.iter().try_fold(0_u64, |t, &w| t.checked_add(w));
            match total {
                Some(0) => Err(stream_err(
                    "classes: total weight is zero, stochastic arrivals cannot sample a class"
                        .to_string(),
                )),
                Some(total) => Ok(total),
                None => Err(stream_err(
                    "classes: total weight overflows a 64-bit integer".to_string(),
                )),
            }
        };
        match self {
            ArrivalProcess::Poisson { rate } => {
                positive("rate", *rate)?;
                bounded(*rate)?;
                total_weight()
            }
            ArrivalProcess::Bursty {
                rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => {
                positive("rate", *rate)?;
                positive("burst_rate", *burst_rate)?;
                positive("mean_calm", *mean_calm)?;
                positive("mean_burst", *mean_burst)?;
                // Each calm + burst cycle of the phase-flip loop takes two
                // iterations, whatever the rates.
                let switches = 2.0 * horizon as f64 / (mean_calm + mean_burst);
                if switches > MAX_ARRIVALS as f64 {
                    return Err(stream_err(format!(
                        "arrivals: mean dwell times {mean_calm:?} and {mean_burst:?} over horizon \
                         {horizon} imply more than {MAX_ARRIVALS} expected phase switches"
                    )));
                }
                bounded(rate.max(*burst_rate))?;
                total_weight()
            }
            ArrivalProcess::Trace { events } => {
                if events.len() as u64 > MAX_ARRIVALS {
                    return Err(stream_err(format!(
                        "arrivals: trace has {} events (max {MAX_ARRIVALS})",
                        events.len()
                    )));
                }
                for (i, event) in events.iter().enumerate() {
                    if event.class >= weights.len() {
                        return Err(stream_err(format!(
                            "arrivals: trace event {i} names class index {} but only {} \
                             classes are declared",
                            event.class,
                            weights.len()
                        )));
                    }
                    if event.at > horizon {
                        return Err(stream_err(format!(
                            "arrivals: trace event {i} at cycle {} is beyond the horizon \
                             ({horizon})",
                            event.at
                        )));
                    }
                }
                Ok(0)
            }
        }
    }

    /// Generates the deterministic arrival sequence for `seed` over
    /// `[0, horizon]` cycles, sampling classes by `weights`.
    ///
    /// The sequence is sorted by cycle; ties keep generation order. Calling
    /// this twice with the same inputs returns the identical sequence.
    pub fn generate(&self, seed: u64, horizon: u64, weights: &[u64]) -> Result<Vec<Arrival>> {
        let total = self.validate(horizon, weights)?;
        match self {
            ArrivalProcess::Trace { events } => {
                let mut arrivals: Vec<Arrival> = events
                    .iter()
                    .map(|e| Arrival {
                        at: e.at,
                        class: e.class,
                    })
                    .collect();
                arrivals.sort_by_key(|a| a.at);
                Ok(arrivals)
            }
            ArrivalProcess::Poisson { rate } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut t = 0.0_f64;
                let mut arrivals = Vec::new();
                loop {
                    t += exponential(&mut rng, *rate);
                    let at = t.ceil().max(1.0) as u64;
                    if at > horizon || arrivals.len() as u64 >= MAX_ARRIVALS {
                        break;
                    }
                    let class = pick_class(&mut rng, weights, total);
                    arrivals.push(Arrival { at, class });
                }
                Ok(arrivals)
            }
            ArrivalProcess::Bursty {
                rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut t = 0.0_f64;
                let mut bursting = false;
                let mut state_end = exponential(&mut rng, 1.0 / mean_calm);
                let mut arrivals = Vec::new();
                loop {
                    let current_rate = if bursting { *burst_rate } else { *rate };
                    let dt = exponential(&mut rng, current_rate);
                    if t + dt >= state_end {
                        // State flips before the next arrival would land; the
                        // exponential is memoryless, so resampling from the
                        // flip point is exact.
                        t = state_end;
                        bursting = !bursting;
                        let mean = if bursting { *mean_burst } else { *mean_calm };
                        state_end = t + exponential(&mut rng, 1.0 / mean);
                        if t > horizon as f64 {
                            break;
                        }
                        continue;
                    }
                    t += dt;
                    let at = t.ceil().max(1.0) as u64;
                    if at > horizon || arrivals.len() as u64 >= MAX_ARRIVALS {
                        break;
                    }
                    let class = pick_class(&mut rng, weights, total);
                    arrivals.push(Arrival { at, class });
                }
                Ok(arrivals)
            }
        }
    }
}

/// Samples an exponential inter-arrival time with the given rate; clamped
/// strictly positive so the clock always advances.
fn exponential(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() / rate).max(1e-9)
}

/// Weighted class draw; `total` is the precomputed (non-zero) weight sum.
fn pick_class(rng: &mut ChaCha8Rng, weights: &[u64], total: u64) -> usize {
    let mut x = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One fleet entry: a factory configuration replicated `count` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEntry {
    /// The factory configuration every server of this entry runs.
    pub factory: FactoryConfig,
    /// Number of identical servers (at least 1).
    pub count: usize,
}

/// A job class: what a distillation request demands and how it is mapped.
#[derive(Debug, Clone, PartialEq)]
pub struct JobClass {
    /// Class name (unique within a spec; referenced by trace events).
    pub name: String,
    /// Mapping strategy used to evaluate the class on a server's factory.
    pub strategy: Strategy,
    /// Sampling weight for stochastic arrival processes (default 1).
    pub weight: u64,
    /// Scheduling priority — higher is more urgent (default 0).
    pub priority: u64,
    /// Demanded output states; servers run `ceil(volume / capacity)` factory
    /// executions back-to-back (default 1).
    pub volume: u64,
    /// Minimum distillation levels a server must have (default 0).
    pub min_levels: usize,
    /// Minimum per-execution output capacity a server must have (default 0).
    pub min_capacity: usize,
}

impl JobClass {
    /// A class named `name` mapped with `strategy`; weight 1, priority 0,
    /// volume 1, no level/capacity demands.
    pub fn new(name: impl Into<String>, strategy: Strategy) -> Self {
        JobClass {
            name: name.into(),
            strategy,
            weight: 1,
            priority: 0,
            volume: 1,
            min_levels: 0,
            min_capacity: 0,
        }
    }

    /// Replaces the sampling weight (builder style).
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Replaces the priority (builder style).
    pub fn with_priority(mut self, priority: u64) -> Self {
        self.priority = priority;
        self
    }

    /// Replaces the demanded output volume (builder style).
    pub fn with_volume(mut self, volume: u64) -> Self {
        self.volume = volume;
        self
    }

    /// Requires at least `levels` distillation levels (builder style).
    pub fn with_min_levels(mut self, levels: usize) -> Self {
        self.min_levels = levels;
        self
    }

    /// Requires at least `capacity` output states per execution (builder
    /// style).
    pub fn with_min_capacity(mut self, capacity: usize) -> Self {
        self.min_capacity = capacity;
        self
    }

    fn feasible_on(&self, factory: &FactoryConfig) -> bool {
        factory.levels >= self.min_levels && factory.capacity() >= self.min_capacity
    }
}

/// A declarative streaming-workload specification.
///
/// Mirrors [`crate::SweepSpec`] / [`crate::SearchSpec`]: plain data,
/// constructible in Rust (builder style) or from JSON
/// ([`StreamSpec::from_json`]), validated as typed errors, executed with
/// [`StreamSpec::run`] / [`StreamSpec::run_with`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StreamSpec {
    /// Report name.
    pub name: String,
    /// Evaluation configuration used for per-class service times.
    pub eval: EvaluationConfig,
    /// Seed of the arrival process's rng stream.
    pub seed: u64,
    /// Length of the arrival window in cycles; jobs arriving by this cycle
    /// are still drained to completion afterwards.
    pub horizon: u64,
    /// Cycles a server spends reconfiguring when it switches to a different
    /// job class (0 = free switching; what makes `reuse_aware` matter).
    pub setup_cycles: u64,
    /// The arrival process laying jobs onto the clock.
    pub arrivals: ArrivalProcess,
    /// The fixed factory fleet.
    pub fleet: Vec<FleetEntry>,
    /// The job classes traffic is drawn from.
    pub classes: Vec<JobClass>,
    /// Scheduler names to compare, each run over the identical arrivals.
    pub schedulers: Vec<String>,
    /// Whether the per-(class, fleet entry) evaluations share one
    /// [`EvalCache`](crate::EvalCache) for the run.
    pub use_eval_cache: bool,
    /// Directory of the persistent evaluation-cache tier, if any.
    pub cache_dir: Option<PathBuf>,
}

impl StreamSpec {
    /// A spec named `name` with an empty fleet and class list, the default
    /// evaluation config, a gentle Poisson process (rate 0.01), horizon
    /// 10 000 cycles, seed 0, no setup cost, and all four built-in
    /// schedulers.
    pub fn new(name: impl Into<String>) -> Self {
        StreamSpec {
            name: name.into(),
            eval: EvaluationConfig::default(),
            seed: 0,
            horizon: 10_000,
            setup_cycles: 0,
            arrivals: ArrivalProcess::Poisson { rate: 0.01 },
            fleet: Vec::new(),
            classes: Vec::new(),
            schedulers: vec![
                "fifo".to_string(),
                "priority".to_string(),
                "capacity_aware".to_string(),
                "reuse_aware".to_string(),
            ],
            use_eval_cache: true,
            cache_dir: None,
        }
    }

    /// Replaces the evaluation configuration (builder style).
    pub fn with_eval(mut self, eval: EvaluationConfig) -> Self {
        self.eval = eval;
        self
    }

    /// Replaces the arrival seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the arrival horizon (builder style).
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Replaces the class-switch setup cost (builder style).
    pub fn with_setup_cycles(mut self, cycles: u64) -> Self {
        self.setup_cycles = cycles;
        self
    }

    /// Replaces the arrival process (builder style).
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Adds `count` servers of `factory` to the fleet (builder style).
    pub fn server(mut self, factory: FactoryConfig, count: usize) -> Self {
        self.fleet.push(FleetEntry { factory, count });
        self
    }

    /// Adds a job class (builder style).
    pub fn class(mut self, class: JobClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Replaces the scheduler line-up (builder style).
    pub fn with_schedulers(mut self, names: &[&str]) -> Self {
        self.schedulers = names.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Disables or re-enables the shared evaluation cache (builder style).
    pub fn with_eval_cache(mut self, enabled: bool) -> Self {
        self.use_eval_cache = enabled;
        self
    }

    /// Validates the spec without running it.
    ///
    /// # Errors
    ///
    /// [`CoreError::StreamSpec`] for structural problems (zero horizon,
    /// empty fleet/classes, non-positive rates, infeasible classes, poisson or
    /// bursty class weights that sum to zero or overflow `u64`, duplicate
    /// scheduler names, …); [`CoreError::UnknownScheduler`] when a scheduler
    /// name is not one of the four built-ins.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| -> CoreError {
            stream_err(format!("stream `{}`: {reason}", self.name))
        };
        if self.name.is_empty() {
            return Err(stream_err("stream: `name` must not be empty".to_string()));
        }
        if self.horizon == 0 {
            return Err(fail("`horizon` must be at least 1 cycle".to_string()));
        }
        if self.fleet.is_empty() {
            return Err(fail(
                "the fleet is empty — declare at least one server".to_string(),
            ));
        }
        let mut servers = 0_u64;
        for (i, entry) in self.fleet.iter().enumerate() {
            if entry.count == 0 {
                return Err(fail(format!("fleet[{i}]: `count` must be at least 1")));
            }
            servers = servers.saturating_add(entry.count as u64);
            if servers > MAX_SERVERS {
                return Err(fail(format!(
                    "the fleet holds more than {MAX_SERVERS} servers"
                )));
            }
            entry
                .factory
                .validate()
                .map_err(|e| fail(format!("fleet[{i}]: {e}")))?;
        }
        if self.classes.is_empty() {
            return Err(fail("no job classes declared".to_string()));
        }
        let mut seen_classes: Vec<&str> = Vec::new();
        for (i, class) in self.classes.iter().enumerate() {
            if class.name.is_empty() {
                return Err(fail(format!("classes[{i}]: `name` must not be empty")));
            }
            if seen_classes.contains(&class.name.as_str()) {
                return Err(fail(format!(
                    "classes[{i}]: duplicate class name `{}`",
                    class.name
                )));
            }
            seen_classes.push(&class.name);
            if class.volume == 0 {
                return Err(fail(format!(
                    "classes[{i}] (`{}`): `volume` must be at least 1",
                    class.name
                )));
            }
            if !self.fleet.iter().any(|e| class.feasible_on(&e.factory)) {
                return Err(fail(format!(
                    "class `{}` fits no fleet server (needs levels >= {}, capacity >= {})",
                    class.name, class.min_levels, class.min_capacity
                )));
            }
        }
        let weights: Vec<u64> = self.classes.iter().map(|c| c.weight).collect();
        self.arrivals
            .validate(self.horizon, &weights)
            .map_err(|e| match e {
                CoreError::StreamSpec { reason } => fail(reason),
                other => other,
            })?;
        if self.schedulers.is_empty() {
            return Err(fail("no schedulers requested".to_string()));
        }
        let mut seen: Vec<&str> = Vec::new();
        for name in &self.schedulers {
            if seen.contains(&name.as_str()) {
                return Err(fail(format!("schedulers: duplicate scheduler `{name}`")));
            }
            seen.push(name);
            Scheduler::from_name(name)?;
        }
        Ok(())
    }

    /// Runs the streaming simulation for every requested scheduler and
    /// returns the report.
    ///
    /// # Errors
    ///
    /// Everything [`StreamSpec::validate`] reports, plus evaluation-pipeline
    /// errors while deriving per-class service times.
    pub fn run(&self) -> Result<StreamReport> {
        Ok(self.run_with(&RunControl::default())?.report)
    }

    /// Runs the streaming simulation under execution controls (progress
    /// events, cooperative cancellation, deadline).
    ///
    /// One [`ProgressEvent::BatchFinished`] is emitted per completed
    /// scheduler; interruption is honoured between schedulers and yields a
    /// prefix of the runs with `interrupted == true`.
    ///
    /// # Errors
    ///
    /// Same as [`StreamSpec::run`].
    pub fn run_with(&self, ctrl: &RunControl<'_>) -> Result<StreamOutcome> {
        self.validate()?;
        let schedulers: Vec<Scheduler> = self
            .schedulers
            .iter()
            .map(|name| Scheduler::from_name(name))
            .collect::<Result<_>>()?;

        // Expand fleet entries into servers, in spec order.
        let mut server_entry: Vec<usize> = Vec::new();
        for (e, entry) in self.fleet.iter().enumerate() {
            server_entry.extend(std::iter::repeat(e).take(entry.count));
        }
        let entry_configs: Vec<FactoryConfig> = self.fleet.iter().map(|e| e.factory).collect();

        // Per-(class, entry) service times from the real evaluation pipeline,
        // through the stream's cache.
        let (service, cache) = self.service_matrix(&entry_configs)?;
        let feasible: Vec<Vec<bool>> = self
            .classes
            .iter()
            .map(|class| {
                server_entry
                    .iter()
                    .map(|&e| class.feasible_on(&entry_configs[e]))
                    .collect()
            })
            .collect();

        let weights: Vec<u64> = self.classes.iter().map(|c| c.weight).collect();
        let arrivals = self.arrivals.generate(self.seed, self.horizon, &weights)?;
        self.check_cycle_range(&service, arrivals.len(), server_entry.len())?;

        let mut runs = Vec::with_capacity(self.schedulers.len());
        let mut interrupted = false;
        for (i, &scheduler) in schedulers.iter().enumerate() {
            if ctrl.interrupted() {
                interrupted = true;
                break;
            }
            runs.push(self.simulate(
                &self.schedulers[i],
                scheduler,
                &arrivals,
                &server_entry,
                &service,
                &feasible,
            ));
            ctrl.emit(&ProgressEvent::BatchFinished {
                name: &self.name,
                completed: i + 1,
                total: self.schedulers.len(),
            });
        }

        let fleet: Vec<FactoryConfig> = server_entry.iter().map(|&e| entry_configs[e]).collect();
        Ok(StreamOutcome {
            report: StreamReport {
                name: self.name.clone(),
                seed: self.seed,
                horizon: self.horizon,
                setup_cycles: self.setup_cycles,
                arrivals: arrivals.len() as u64,
                fleet,
                runs,
            },
            interrupted,
            cache,
        })
    }

    /// Evaluates each class on each feasible fleet entry and returns
    /// `service[class][entry]` in cycles — the evaluated factory latency
    /// times the executions needed to meet the class's volume demand —
    /// with the evaluation-cache counters. The evaluations are one serial
    /// sub-sweep over the feasible (class, entry) pairs in class-major
    /// order, under the stream's evaluation and cache settings.
    fn service_matrix(
        &self,
        entry_configs: &[FactoryConfig],
    ) -> Result<(Vec<Vec<Option<u64>>>, CacheStats)> {
        for class in &self.classes {
            check_mapper_name(class.strategy.key())?;
        }
        let mut sweep =
            SweepSpec::new(self.name.clone(), self.eval).with_eval_cache(self.use_eval_cache);
        sweep.cache_dir = self.cache_dir.clone();
        for class in &self.classes {
            for config in entry_configs {
                if class.feasible_on(config) {
                    sweep = sweep.point("", *config, class.strategy.clone());
                }
            }
        }
        let outcome = sweep.run_serial_with(&RunControl::default())?;
        let mut rows = outcome.results.rows.into_iter();
        let mut matrix = Vec::with_capacity(self.classes.len());
        for class in &self.classes {
            let mut row = Vec::with_capacity(entry_configs.len());
            for config in entry_configs {
                if !class.feasible_on(config) {
                    row.push(None);
                    continue;
                }
                let evaluation = rows.next().expect("one row per feasible pair").evaluation;
                let executions = class.volume.div_ceil(config.capacity() as u64).max(1);
                let cycles = evaluation.latency_cycles.max(1).checked_mul(executions);
                row.push(Some(cycles.ok_or_else(|| {
                    stream_err(format!(
                        "stream `{}`: class `{}` needs more than 2^64 service cycles",
                        self.name, class.name
                    ))
                })?));
            }
            matrix.push(row);
        }
        Ok((matrix, outcome.cache))
    }

    /// Bounds every cycle count [`StreamSpec::simulate`] can produce, so its
    /// arithmetic never wraps. Each completion lands at most one occupancy
    /// (setup plus the longest service time) after an earlier event, so no
    /// event passes `horizon + arrivals × occupancy`; latency sums and
    /// utilisation denominators scale that by the arrival or server count.
    fn check_cycle_range(
        &self,
        service: &[Vec<Option<u64>>],
        arrivals: usize,
        servers: usize,
    ) -> Result<()> {
        let longest = service.iter().flatten().flatten().copied().max();
        let latest = longest
            .unwrap_or(0)
            .checked_add(self.setup_cycles)
            .and_then(|occupancy| occupancy.checked_mul(arrivals as u64))
            .and_then(|busy| busy.checked_add(self.horizon))
            .and_then(|latest| latest.checked_mul(arrivals.max(servers) as u64));
        match latest {
            Some(_) => Ok(()),
            None => Err(stream_err(format!(
                "stream `{}`: `setup_cycles` plus service times overflow the 64-bit cycle clock",
                self.name
            ))),
        }
    }

    /// Replays `arrivals` under one scheduler. Event order is fixed: at each
    /// cycle, completions retire first, then arrivals join the queue, then
    /// the scheduler dispatches until it passes — so identical inputs yield
    /// identical runs.
    fn simulate(
        &self,
        scheduler_name: &str,
        scheduler: Scheduler,
        arrivals: &[Arrival],
        server_entry: &[usize],
        service: &[Vec<Option<u64>>],
        feasible: &[Vec<bool>],
    ) -> SchedulerRun {
        let mut jobs: Vec<Job> = arrivals
            .iter()
            .map(|a| Job {
                class: a.class,
                arrived: a.at,
                finished: None,
            })
            .collect();
        let mut servers: Vec<Server> = server_entry
            .iter()
            .map(|&e| Server {
                entry: e,
                capacity: self.fleet[e].factory.capacity(),
                busy: false,
                last_class: None,
                busy_cycles: 0,
            })
            .collect();
        // Min-heap of (finish cycle, job id, server index) — the job id makes
        // same-cycle completion order deterministic.
        let mut completions: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut queue: BTreeSet<QueueKey> = BTreeSet::new();
        // Free servers: with none, no pick can exist, so dispatch is skipped
        // instead of scanning a saturated fleet's whole queue every event.
        let mut free = servers.len();
        let mut timeline: Vec<QueueSample> = Vec::new();
        let mut last_depth = 0_u64;
        let mut max_depth = 0_u64;
        let mut next_arrival = 0_usize;
        let mut completed = 0_u64;
        let mut makespan = 0_u64;
        let mut setup_switches = 0_u64;

        while next_arrival < jobs.len() || !completions.is_empty() {
            let arrival_at = jobs.get(next_arrival).map(|j| j.arrived);
            let completion_at = completions.peek().map(|Reverse((at, _, _))| *at);
            let now = match (arrival_at, completion_at) {
                (Some(a), Some(c)) => a.min(c),
                (Some(a), None) => a,
                (None, Some(c)) => c,
                (None, None) => unreachable!("loop condition guarantees an event"),
            };
            // 1. Completions retire first (fixed tie-break).
            while let Some(&Reverse((at, job, si))) = completions.peek() {
                if at != now {
                    break;
                }
                completions.pop();
                servers[si].busy = false;
                free += 1;
                jobs[job as usize].finished = Some(at);
                completed += 1;
                makespan = makespan.max(at);
            }
            // 2. Arrivals join the queue in generation order.
            while next_arrival < jobs.len() && jobs[next_arrival].arrived == now {
                let class = &self.classes[jobs[next_arrival].class];
                queue.insert(scheduler.queue_key(next_arrival as u64, class));
                next_arrival += 1;
            }
            // 3. Dispatch until the scheduler passes or no server is free.
            while free > 0 {
                let Some((key, si)) = scheduler.select(&queue, &jobs, &servers, feasible) else {
                    break;
                };
                queue.remove(&key);
                let job = key.1;
                let class = jobs[job as usize].class;
                let base = service[class][servers[si].entry]
                    .expect("feasibility check guarantees a service time");
                let setup = if servers[si].last_class == Some(class) {
                    0
                } else {
                    self.setup_cycles
                };
                if setup > 0 {
                    setup_switches += 1;
                }
                let occupancy = setup + base;
                servers[si].busy = true;
                free -= 1;
                servers[si].last_class = Some(class);
                servers[si].busy_cycles += occupancy;
                completions.push(Reverse((now + occupancy, job, si)));
            }
            // 4. Sample the queue-depth timeline on change.
            let depth = queue.len() as u64;
            max_depth = max_depth.max(depth);
            if depth != last_depth || timeline.is_empty() {
                timeline.push(QueueSample { cycle: now, depth });
                last_depth = depth;
            }
        }

        let mut latencies: Vec<u64> = jobs
            .iter()
            .filter_map(|j| j.finished.map(|f| f - j.arrived))
            .collect();
        let latency_sum: u64 = latencies.iter().sum();
        let summary = percentiles(&mut latencies);
        let per_class = self
            .classes
            .iter()
            .enumerate()
            .map(|(c, class)| {
                let mut class_latencies: Vec<u64> = jobs
                    .iter()
                    .filter(|j| j.class == c)
                    .filter_map(|j| j.finished.map(|f| f - j.arrived))
                    .collect();
                let count = class_latencies.len() as u64;
                let class_summary = percentiles(&mut class_latencies);
                ClassStats {
                    class: class.name.clone(),
                    completed: count,
                    latency_p50: class_summary.map_or(0, |p| p.p50),
                    latency_p99: class_summary.map_or(0, |p| p.p99),
                }
            })
            .collect();
        let busy_total: u64 = servers.iter().map(|s| s.busy_cycles).sum();
        let denom = servers.len() as u64 * makespan;
        SchedulerRun {
            scheduler: scheduler_name.to_string(),
            completed,
            makespan_cycles: makespan,
            latency_p50: summary.map_or(0, |p| p.p50),
            latency_p95: summary.map_or(0, |p| p.p95),
            latency_p99: summary.map_or(0, |p| p.p99),
            mean_latency: if completed == 0 {
                0.0
            } else {
                latency_sum as f64 / completed as f64
            },
            throughput_jobs_per_kcycle: if makespan == 0 {
                0.0
            } else {
                completed as f64 * 1_000.0 / makespan as f64
            },
            utilization: if denom == 0 {
                0.0
            } else {
                busy_total as f64 / denom as f64
            },
            max_queue_depth: max_depth,
            setup_switches,
            queue_timeline: timeline,
            per_class,
        }
    }

    /// Decodes a streaming workload declared as JSON data.
    ///
    /// # Errors
    ///
    /// [`CoreError::StreamSpec`] naming the offending field for malformed
    /// documents; everything [`StreamSpec::validate`] reports once decoded.
    ///
    /// # Example
    ///
    /// ```
    /// let spec = msfu_core::StreamSpec::from_json(
    ///     r#"{
    ///         "name": "quick",
    ///         "horizon": 2000,
    ///         "seed": 7,
    ///         "arrivals": {"process": "poisson", "rate": 0.004},
    ///         "fleet": [{"factory": {"k": 2}, "count": 2}],
    ///         "classes": [{"name": "probe", "strategy": {"strategy": "linear"}}],
    ///         "schedulers": ["fifo", "priority"]
    ///     }"#,
    /// )
    /// .unwrap();
    /// assert_eq!(spec.schedulers, vec!["fifo", "priority"]);
    /// ```
    pub fn from_json(text: &str) -> Result<Self> {
        let root = serde_json::from_str(text)
            .map_err(|e| stream_err(format!("stream spec is not valid JSON: {e}")))?;
        Self::from_value(&root)
    }

    /// Decodes an already-parsed stream-spec document — the embedded form
    /// used by the service protocol, where the spec is one field of a
    /// request object.
    ///
    /// # Errors
    ///
    /// Same as [`StreamSpec::from_json`].
    pub fn from_value(root: &Value) -> Result<Self> {
        let mut f = Fields::new(root, "stream", stream_err)?;
        let mut spec = StreamSpec::new(f.str("name")?);
        if let Some(eval) = f.opt_value("eval") {
            spec.eval = eval_from_json(eval)?;
        }
        spec.seed = f.opt_u64("seed")?.unwrap_or(spec.seed);
        spec.horizon = f.opt_u64("horizon")?.unwrap_or(spec.horizon);
        spec.setup_cycles = f.opt_u64("setup_cycles")?.unwrap_or(spec.setup_cycles);
        let arrivals = f.value("arrivals")?;
        if let Some(fleet) = f.opt_array("fleet")? {
            spec.fleet = fleet_from_json(fleet)?;
        }
        if let Some(classes) = f.opt_array("classes")? {
            spec.classes = classes_from_json(classes)?;
        }
        if let Some(list) = f.opt_array("schedulers")? {
            spec.schedulers = list
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| f.error(format_args!("schedulers[{i}] must be a string")))
                })
                .collect::<Result<_>>()?;
        }
        spec.use_eval_cache = f.opt_bool("cache")?.unwrap_or(spec.use_eval_cache);
        spec.cache_dir = f.opt_str("cache_dir")?.map(PathBuf::from);
        f.finish()?;
        spec.arrivals = arrivals_from_json(arrivals, &spec.classes)?;
        spec.validate()?;
        Ok(spec)
    }
}

fn fleet_from_json(list: &[Value]) -> Result<Vec<FleetEntry>> {
    let mut fleet = Vec::with_capacity(list.len());
    for (i, item) in list.iter().enumerate() {
        let mut f = Fields::item(item, "stream: fleet", i, stream_err)?;
        let factory = factory_from_json(f.value("factory")?)?;
        let count = f.opt_u64("count")?.unwrap_or(1) as usize;
        f.finish()?;
        fleet.push(FleetEntry { factory, count });
    }
    Ok(fleet)
}

fn classes_from_json(list: &[Value]) -> Result<Vec<JobClass>> {
    let mut classes = Vec::with_capacity(list.len());
    for (i, item) in list.iter().enumerate() {
        let mut f = Fields::item(item, "stream: classes", i, stream_err)?;
        let class = JobClass {
            name: f.str("name")?.to_string(),
            strategy: strategy_from_json(f.value("strategy")?)?,
            weight: f.opt_u64("weight")?.unwrap_or(1),
            priority: f.opt_u64("priority")?.unwrap_or(0),
            volume: f.opt_u64("volume")?.unwrap_or(1),
            min_levels: f.opt_u64("min_levels")?.unwrap_or(0) as usize,
            min_capacity: f.opt_u64("min_capacity")?.unwrap_or(0) as usize,
        };
        f.finish()?;
        classes.push(class);
    }
    Ok(classes)
}

fn arrivals_from_json(value: &Value, classes: &[JobClass]) -> Result<ArrivalProcess> {
    let mut f = Fields::new(value, "stream: arrivals", stream_err)?;
    let process = match f.str("process")? {
        "poisson" => ArrivalProcess::Poisson {
            rate: f.f64("rate")?,
        },
        "bursty" => ArrivalProcess::Bursty {
            rate: f.f64("rate")?,
            burst_rate: f.f64("burst_rate")?,
            mean_calm: f.f64("mean_calm")?,
            mean_burst: f.f64("mean_burst")?,
        },
        "trace" => {
            let list = f.array("events")?;
            let mut events = Vec::with_capacity(list.len());
            for (i, item) in list.iter().enumerate() {
                let mut e = Fields::item(item, "stream: arrivals: events", i, stream_err)?;
                let at = e.u64("at")?;
                let name = e.str("class")?;
                let class = classes
                    .iter()
                    .position(|c| c.name == name)
                    .ok_or_else(|| e.error(format_args!("unknown class `{name}`")))?;
                e.finish()?;
                events.push(TraceEvent { at, class });
            }
            ArrivalProcess::Trace { events }
        }
        other => {
            return Err(f.error(format_args!(
                "unknown process `{other}` (expected poisson, bursty or trace)"
            )))
        }
    };
    f.finish()?;
    Ok(process)
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One sample of the queue-depth timeline, recorded whenever the depth
/// changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueSample {
    /// Simulation cycle of the sample.
    pub cycle: u64,
    /// Jobs waiting (not yet placed) after the cycle's events.
    pub depth: u64,
}

/// Per-class latency breakdown within one scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// The class name.
    pub class: String,
    /// Jobs of this class completed.
    pub completed: u64,
    /// Nearest-rank p50 of the class's sojourn latency, in cycles.
    pub latency_p50: u64,
    /// Nearest-rank p99 of the class's sojourn latency, in cycles.
    pub latency_p99: u64,
}

/// The metrics of one scheduler's replay of the arrival sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerRun {
    /// The scheduler's name.
    pub scheduler: String,
    /// Jobs completed (every admitted job drains, so this equals the arrival
    /// count).
    pub completed: u64,
    /// Cycle the last job completed at.
    pub makespan_cycles: u64,
    /// Nearest-rank p50 sojourn latency (arrival to completion), in cycles.
    pub latency_p50: u64,
    /// Nearest-rank p95 sojourn latency, in cycles.
    pub latency_p95: u64,
    /// Nearest-rank p99 sojourn latency, in cycles.
    pub latency_p99: u64,
    /// Mean sojourn latency, in cycles.
    pub mean_latency: f64,
    /// Completed jobs per thousand cycles of makespan.
    pub throughput_jobs_per_kcycle: f64,
    /// Busy server-cycles over total server-cycles of the makespan.
    pub utilization: f64,
    /// Largest queue depth observed.
    pub max_queue_depth: u64,
    /// Assignments that paid the class-switch setup cost.
    pub setup_switches: u64,
    /// Queue-depth timeline, one sample per change.
    pub queue_timeline: Vec<QueueSample>,
    /// Per-class latency breakdown.
    pub per_class: Vec<ClassStats>,
}

/// The deterministic result of a streaming run: one [`SchedulerRun`] per
/// requested scheduler, over the identical arrival sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// The spec's name.
    pub name: String,
    /// The arrival seed.
    pub seed: u64,
    /// The arrival window, in cycles.
    pub horizon: u64,
    /// The class-switch setup cost, in cycles.
    pub setup_cycles: u64,
    /// Jobs generated by the arrival process.
    pub arrivals: u64,
    /// The expanded fleet: one factory config per server, in spec order.
    pub fleet: Vec<FactoryConfig>,
    /// One run per scheduler, in the spec's scheduler order.
    pub runs: Vec<SchedulerRun>,
}

impl StreamReport {
    /// Projects the report onto the sweep-row shape every bench report uses,
    /// so `bench-diff` gates streaming results like any other harness.
    ///
    /// Each scheduler contributes three gated rows keyed
    /// `p50/<scheduler>`, `p99/<scheduler>` and `throughput/<scheduler>`:
    /// `latency_cycles` carries the metric (throughput as completed jobs per
    /// million cycles of makespan) and `volume` scales it by the fleet size;
    /// both are clamped to at least 1 so relative tolerances stay defined.
    pub fn to_sweep_results(&self) -> SweepResults {
        let factory = self
            .fleet
            .first()
            .copied()
            .unwrap_or_else(|| FactoryConfig::single_level(2));
        let servers = self.fleet.len().max(1);
        let mut rows = Vec::with_capacity(self.runs.len() * 3);
        for run in &self.runs {
            let throughput = run.completed * 1_000_000 / run.makespan_cycles.max(1);
            for (label, value) in [
                ("p50", run.latency_p50),
                ("p99", run.latency_p99),
                ("throughput", throughput),
            ] {
                let value = value.max(1);
                rows.push(SweepRow {
                    label: label.to_string(),
                    evaluation: Evaluation {
                        strategy: run.scheduler.clone(),
                        factory,
                        latency_cycles: value,
                        area: servers,
                        volume: value * servers as u64,
                        stall_cycles: 0,
                        routing_conflicts: 0,
                        critical_path_cycles: 0,
                        critical_volume: 0,
                        logical_qubits: 0,
                    },
                    breakdown: None,
                    metrics: None,
                });
            }
        }
        SweepResults {
            name: self.name.clone(),
            rows,
        }
    }
}

/// The outcome of a controllable stream run: the report (a prefix of the
/// scheduler runs when interrupted), the interruption flag, and the
/// evaluation-cache statistics of the service-time derivation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StreamOutcome {
    /// The report — all requested schedulers when `interrupted == false`, a
    /// prefix otherwise.
    pub report: StreamReport,
    /// `true` when the run stopped between schedulers (cancelled or past its
    /// deadline).
    pub interrupted: bool,
    /// Evaluation-cache statistics for the service-time matrix.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::CancelToken;

    fn quick_spec() -> StreamSpec {
        StreamSpec::new("quick")
            .with_horizon(3_000)
            .with_seed(11)
            .with_setup_cycles(25)
            .with_arrivals(ArrivalProcess::Poisson { rate: 0.02 })
            .server(FactoryConfig::single_level(4), 1)
            .server(FactoryConfig::single_level(2), 2)
            .class(
                JobClass::new("probe", Strategy::linear())
                    .with_weight(3)
                    .with_volume(2),
            )
            .class(
                JobClass::new("bulk", Strategy::linear())
                    .with_priority(2)
                    .with_volume(8)
                    .with_min_capacity(2),
            )
    }

    #[test]
    fn repeat_runs_are_byte_identical() {
        let spec = quick_spec();
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.to_value()).unwrap(),
            serde_json::to_string(&b.to_value()).unwrap()
        );
        assert_eq!(a.runs.len(), 4);
        assert_eq!(a.arrivals, a.runs[0].completed);
    }

    #[test]
    fn every_scheduler_drains_all_arrivals() {
        let report = quick_spec().run().unwrap();
        assert!(report.arrivals > 0, "quick spec should generate traffic");
        for run in &report.runs {
            assert_eq!(run.completed, report.arrivals, "{}", run.scheduler);
            assert!(run.makespan_cycles > 0);
            assert!(run.latency_p50 <= run.latency_p95);
            assert!(run.latency_p95 <= run.latency_p99);
            assert!(run.utilization > 0.0 && run.utilization <= 1.0);
            let drained = run.queue_timeline.last().unwrap();
            assert_eq!(drained.depth, 0, "{} queue must drain", run.scheduler);
        }
    }

    #[test]
    fn schedulers_are_not_interchangeable() {
        let report = quick_spec().run().unwrap();
        let by_name = |name: &str| {
            report
                .runs
                .iter()
                .find(|r| r.scheduler == name)
                .unwrap_or_else(|| panic!("run for {name}"))
        };
        let fifo = by_name("fifo");
        let reuse = by_name("reuse_aware");
        // Reuse-aware pays the setup cost no more often than FIFO by
        // construction, and the quick spec is contended enough to separate
        // the policies outright.
        assert!(reuse.setup_switches <= fifo.setup_switches);
        let signatures: std::collections::BTreeSet<(u64, u64)> = report
            .runs
            .iter()
            .map(|r| (r.latency_p50, r.latency_p99))
            .collect();
        assert!(
            signatures.len() > 1,
            "schedulers should produce distinct latency profiles: {signatures:?}"
        );
    }

    #[test]
    fn priority_preempts_queue_order() {
        // One server; low-priority "first" arrives at the same cycle as
        // high-priority "urgent" but is declared earlier. Both compete for
        // the single server at cycle 1.
        let spec = StreamSpec::new("prio")
            .with_horizon(10)
            .with_arrivals(ArrivalProcess::Trace {
                events: vec![
                    TraceEvent { at: 1, class: 0 },
                    TraceEvent { at: 1, class: 1 },
                ],
            })
            .server(FactoryConfig::single_level(2), 1)
            .class(JobClass::new("first", Strategy::linear()))
            .class(JobClass::new("urgent", Strategy::linear()).with_priority(5))
            .with_schedulers(&["fifo", "priority"]);
        let report = spec.run().unwrap();
        let latency = |run: &SchedulerRun, class: &str| {
            run.per_class
                .iter()
                .find(|c| c.class == class)
                .unwrap()
                .latency_p50
        };
        let fifo = &report.runs[0];
        let prio = &report.runs[1];
        // FIFO serves `first` first; priority serves `urgent` first.
        assert!(latency(fifo, "first") < latency(fifo, "urgent"));
        assert!(latency(prio, "urgent") < latency(prio, "first"));
    }

    #[test]
    fn reuse_aware_prefers_warm_servers() {
        // Two servers, alternating classes, expensive setup: reuse-aware
        // pins each class to its warm server and pays exactly two cold
        // setups; fifo keeps bouncing classes across servers.
        let events = (0..8)
            .map(|i| TraceEvent {
                at: 1 + i * 10_000,
                class: (i % 2) as usize,
            })
            .collect();
        let spec = StreamSpec::new("warm")
            .with_horizon(100_000)
            .with_setup_cycles(50)
            .with_arrivals(ArrivalProcess::Trace { events })
            .server(FactoryConfig::single_level(2), 2)
            .class(JobClass::new("a", Strategy::linear()))
            .class(JobClass::new("b", Strategy::linear()).with_volume(2))
            .with_schedulers(&["reuse_aware"]);
        let report = spec.run().unwrap();
        assert_eq!(report.runs[0].setup_switches, 2);
    }

    #[test]
    fn arrival_processes_are_deterministic_and_seed_sensitive() {
        let weights = [3, 1];
        let poisson = ArrivalProcess::Poisson { rate: 0.01 };
        let bursty = ArrivalProcess::Bursty {
            rate: 0.002,
            burst_rate: 0.05,
            mean_calm: 500.0,
            mean_burst: 100.0,
        };
        for process in [&poisson, &bursty] {
            let a = process.generate(42, 10_000, &weights).unwrap();
            let b = process.generate(42, 10_000, &weights).unwrap();
            assert_eq!(a, b, "{} must be repeatable", process.kind());
            assert!(!a.is_empty(), "{} should emit arrivals", process.kind());
            assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
            let c = process.generate(43, 10_000, &weights).unwrap();
            assert_ne!(a, c, "{} must diverge across seeds", process.kind());
        }
    }

    #[test]
    fn arrivals_identical_after_engine_reuse() {
        // Interleave a full simulation between two generate() calls: the
        // process is a pure function of its inputs, so the engine run in
        // between must not perturb the sequence.
        let spec = quick_spec();
        let weights: Vec<u64> = spec.classes.iter().map(|c| c.weight).collect();
        let before = spec
            .arrivals
            .generate(spec.seed, spec.horizon, &weights)
            .unwrap();
        let _ = spec.run().unwrap();
        let after = spec
            .arrivals
            .generate(spec.seed, spec.horizon, &weights)
            .unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let cases: Vec<(StreamSpec, &str)> = vec![
            (
                quick_spec().with_arrivals(ArrivalProcess::Poisson { rate: 0.0 }),
                "`rate` must be a positive",
            ),
            (
                quick_spec().with_arrivals(ArrivalProcess::Poisson { rate: -1.0 }),
                "`rate` must be a positive",
            ),
            (
                quick_spec().with_arrivals(ArrivalProcess::Bursty {
                    rate: 0.01,
                    burst_rate: 0.1,
                    mean_calm: 0.0,
                    mean_burst: 10.0,
                }),
                "`mean_calm` must be a positive",
            ),
            (quick_spec().with_horizon(0), "`horizon` must be at least 1"),
            (
                {
                    let mut s = quick_spec();
                    s.fleet.clear();
                    s
                },
                "the fleet is empty",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.fleet[0].count = 0;
                    s
                },
                "`count` must be at least 1",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.classes.clear();
                    s
                },
                "no job classes",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.classes[0].volume = 0;
                    s
                },
                "`volume` must be at least 1",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.classes[1].name = "probe".to_string();
                    s
                },
                "duplicate class name `probe`",
            ),
            (
                quick_spec()
                    .class(JobClass::new("huge", Strategy::linear()).with_min_capacity(1_000)),
                "class `huge` fits no fleet server",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.schedulers.clear();
                    s
                },
                "no schedulers requested",
            ),
            (
                quick_spec().with_schedulers(&["fifo", "fifo"]),
                "duplicate scheduler `fifo`",
            ),
            (
                quick_spec().with_arrivals(ArrivalProcess::Trace {
                    events: vec![TraceEvent {
                        at: 9_999,
                        class: 0,
                    }],
                }),
                "beyond the horizon",
            ),
            (
                quick_spec().with_arrivals(ArrivalProcess::Trace {
                    events: vec![TraceEvent { at: 1, class: 9 }],
                }),
                "names class index 9",
            ),
            (
                quick_spec().with_arrivals(ArrivalProcess::Poisson { rate: 1e9 }),
                "expected arrivals",
            ),
            (
                quick_spec()
                    .with_horizon(3_000)
                    .with_arrivals(ArrivalProcess::Bursty {
                        rate: 0.01,
                        burst_rate: 0.02,
                        mean_calm: 1e-300,
                        mean_burst: 1e-300,
                    }),
                "expected phase switches",
            ),
            (
                quick_spec()
                    .with_horizon(1_000_000_000_000_000)
                    .with_arrivals(ArrivalProcess::Bursty {
                        rate: 1e-12,
                        burst_rate: 1e-12,
                        mean_calm: 1.0,
                        mean_burst: 1.0,
                    }),
                "expected phase switches",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.fleet[0].count = 1_000_000_000_000_000;
                    s
                },
                "the fleet holds more than 10000 servers",
            ),
            (
                {
                    let mut s = quick_spec();
                    s.classes[0].volume = u64::MAX;
                    s
                },
                "class `probe` needs more than 2^64 service cycles",
            ),
            (
                quick_spec().with_setup_cycles(u64::MAX - 10),
                "overflow the 64-bit cycle clock",
            ),
        ];
        for (spec, needle) in cases {
            let err = spec.run().unwrap_err();
            assert!(
                matches!(err, CoreError::StreamSpec { .. }),
                "expected a stream-spec error, got `{err}`"
            );
            let err = err.to_string();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
    }

    #[test]
    fn capacity_aware_places_on_the_best_fit_server() {
        // One job that fits both the k=4 server (index 0) and the k=2 one:
        // capacity_aware takes the smaller server, fifo the lowest index.
        let latency = |fleet: &[usize], scheduler: &str| {
            let mut spec = StreamSpec::new("fit")
                .with_horizon(10)
                .with_arrivals(ArrivalProcess::Trace {
                    events: vec![TraceEvent { at: 1, class: 0 }],
                })
                .class(JobClass::new("only", Strategy::linear()))
                .with_schedulers(&[scheduler]);
            for &k in fleet {
                spec = spec.server(FactoryConfig::single_level(k), 1);
            }
            spec.run().unwrap().runs[0].latency_p50
        };
        let small = latency(&[2], "fifo");
        let big = latency(&[4], "fifo");
        assert_ne!(small, big, "the two servers must be told apart");
        assert_eq!(latency(&[4, 2], "capacity_aware"), small);
        assert_eq!(latency(&[4, 2], "fifo"), big);
    }

    #[test]
    fn stochastic_class_weights_must_sum_to_a_nonzero_u64() {
        let weighted = |weights: [u64; 2]| {
            let mut spec = quick_spec();
            for (class, weight) in spec.classes.iter_mut().zip(weights) {
                class.weight = weight;
            }
            spec
        };
        let bursty = ArrivalProcess::Bursty {
            rate: 0.01,
            burst_rate: 0.05,
            mean_calm: 500.0,
            mean_burst: 100.0,
        };
        let trace = ArrivalProcess::Trace {
            events: vec![TraceEvent { at: 1, class: 0 }],
        };
        for (weights, needle) in [
            ([u64::MAX, u64::MAX], "total weight overflows"),
            ([u64::MAX, 1], "total weight overflows"),
            ([0, 0], "total weight is zero"),
        ] {
            for spec in [
                weighted(weights),
                weighted(weights).with_arrivals(bursty.clone()),
            ] {
                let err = spec.validate().unwrap_err();
                assert!(
                    matches!(err, CoreError::StreamSpec { .. }),
                    "{weights:?}: {err}"
                );
                assert!(
                    err.to_string().contains(needle),
                    "expected `{needle}` in `{err}`"
                );
            }
            weighted(weights)
                .with_arrivals(trace.clone())
                .validate()
                .unwrap_or_else(|e| panic!("a trace ignores weights {weights:?}: {e}"));
        }
    }

    #[test]
    fn unknown_scheduler_lists_known_names() {
        let err = quick_spec()
            .with_schedulers(&["dance"])
            .validate()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown stream scheduler `dance` (known: capacity_aware, fifo, priority, reuse_aware)"
        );
        for name in SCHEDULER_NAMES {
            assert!(Scheduler::from_name(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn cancellation_yields_a_prefix() {
        let token = CancelToken::new();
        token.cancel();
        let ctrl = RunControl::default().with_cancel(&token);
        let outcome = quick_spec().run_with(&ctrl).unwrap();
        assert!(outcome.interrupted);
        assert!(outcome.report.runs.is_empty());
    }

    #[test]
    fn sweep_projection_rows_are_gateable() {
        let report = quick_spec().run().unwrap();
        let results = report.to_sweep_results();
        assert_eq!(results.rows.len(), report.runs.len() * 3);
        let keys: Vec<String> = results
            .rows
            .iter()
            .map(|r| format!("{}/{}", r.label, r.evaluation.strategy))
            .collect();
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "row keys must be unique");
        for row in &results.rows {
            assert!(row.evaluation.latency_cycles >= 1);
            assert!(row.evaluation.volume >= 1);
        }
    }

    #[test]
    fn json_round_trip_and_parse_errors() {
        let text = r#"{
            "name": "json_quick",
            "horizon": 2000,
            "seed": 7,
            "setup_cycles": 10,
            "arrivals": {"process": "poisson", "rate": 0.004},
            "fleet": [
                {"factory": {"k": 4}, "count": 1},
                {"factory": {"k": 2}, "count": 2}
            ],
            "classes": [
                {"name": "probe", "strategy": {"strategy": "linear"}, "weight": 3},
                {"name": "bulk", "strategy": {"strategy": "linear"}, "priority": 2, "volume": 6}
            ],
            "schedulers": ["fifo", "reuse_aware"],
            "cache": true
        }"#;
        let spec = StreamSpec::from_json(text).unwrap();
        assert_eq!(spec.name, "json_quick");
        assert_eq!(spec.fleet.len(), 2);
        assert_eq!(spec.classes[1].priority, 2);
        assert_eq!(spec.schedulers, vec!["fifo", "reuse_aware"]);
        let report = spec.run().unwrap();
        assert_eq!(report.runs.len(), 2);

        let trace = r#"{
            "name": "trace",
            "horizon": 100,
            "arrivals": {"process": "trace", "events": [
                {"at": 1, "class": "probe"},
                {"at": 2, "class": "probe"}
            ]},
            "fleet": [{"factory": {"k": 2}, "count": 1}],
            "classes": [{"name": "probe", "strategy": {"strategy": "linear"}}],
            "schedulers": ["fifo"]
        }"#;
        let spec = StreamSpec::from_json(trace).unwrap();
        assert_eq!(
            spec.arrivals,
            ArrivalProcess::Trace {
                events: vec![
                    TraceEvent { at: 1, class: 0 },
                    TraceEvent { at: 2, class: 0 }
                ]
            }
        );

        let base = |patch: &str| -> String {
            format!(
                r#"{{
                    "name": "bad",
                    "horizon": 100,
                    "arrivals": {{"process": "poisson", "rate": 0.01}},
                    "fleet": [{{"factory": {{"k": 2}}, "count": 1}}],
                    "classes": [{{"name": "c", "strategy": {{"strategy": "linear"}}}}]{patch}
                }}"#
            )
        };
        let cases: Vec<(String, &str)> = vec![
            ("not json".to_string(), "not valid JSON"),
            ("[1, 2]".to_string(), "must be a JSON object"),
            (r#"{"horizon": 1}"#.to_string(), "missing `name`"),
            (base(r#", "mystery": 1"#), "unknown field `mystery`"),
            (
                base(r#", "schedulers": [1]"#),
                "schedulers[0] must be a string",
            ),
            (base(r#", "cache": "yes""#), "`cache` must be a boolean"),
            (
                r#"{"name": "x", "horizon": 1, "fleet": [], "classes": []}"#.to_string(),
                "missing `arrivals`",
            ),
            (
                base("").replace(r#""process": "poisson""#, r#""process": "sneaky""#),
                "unknown process `sneaky`",
            ),
            (base("").replace(r#", "rate": 0.01"#, ""), "missing `rate`"),
            (
                base("").replace(
                    r#""arrivals": {"process": "poisson", "rate": 0.01}"#,
                    r#""arrivals": {"process": "trace", "events": [{"at": 1, "class": "ghost"}]}"#,
                ),
                "unknown class `ghost`",
            ),
            (
                base("").replace(r#""count": 1"#, r#""count": 1, "extra": 2"#),
                "fleet[0]: unknown field `extra`",
            ),
            (
                base("").replace(r#""name": "c", "#, r#""name": "c", "tier": 3, "#),
                "classes[0]: unknown field `tier`",
            ),
        ];
        for (bad, needle) in cases {
            let err = StreamSpec::from_json(&bad).unwrap_err().to_string();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
    }
}
