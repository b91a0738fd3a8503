//! The parallel sweep engine: declarative grids of
//! `FactoryConfig × Strategy` points evaluated with a shared factory cache.
//!
//! The paper's entire evaluation (Figs. 6–10, Table I) is a grid sweep over
//! factory capacity, level count, reuse policy, mapping strategy and seed.
//! This module turns such a sweep into data: a [`SweepSpec`] lists the points
//! once, and [`SweepSpec::run`] executes them in parallel with each distinct
//! [`FactoryConfig`] built exactly once and shared (immutably, via `Arc`)
//! across every strategy and seed that maps it. Strategies never mutate the
//! factory — port-rewiring decisions travel on the layout as a
//! `PortAssignment` and are applied to a private copy per point — which is
//! what makes the sharing sound.
//!
//! This is the crate's one evaluation path: [`crate::evaluate`] is a
//! one-point sweep, a portfolio search evaluates each candidate batch as a
//! sub-sweep chunk, and a stream derives its service times from one
//! sub-sweep. Every simulation runs on the thread's one
//! [`BatchEngine`](msfu_sim::BatchEngine) — lane groups as wide batches,
//! every other point and each round breakdown as a one-lane batch.
//!
//! Results are deterministic: [`SweepSpec::run`] and [`SweepSpec::run_serial`]
//! produce identical [`SweepResults`] regardless of thread count or
//! interleaving, because every point's evaluation is a pure function of the
//! point and row order follows point order.
//!
//! # Example
//!
//! ```
//! use msfu_core::{EvaluationConfig, Strategy, SweepSpec};
//! use msfu_distill::FactoryConfig;
//!
//! let results = SweepSpec::new("demo", EvaluationConfig::default())
//!     .point("a", FactoryConfig::single_level(2), Strategy::linear())
//!     .point("b", FactoryConfig::single_level(2), Strategy::random(1))
//!     .run()
//!     .unwrap();
//! assert_eq!(results.rows.len(), 2);
//! // The linear baseline beats random placement on volume.
//! assert!(results.rows[0].evaluation.volume < results.rows[1].evaluation.volume);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use msfu_distill::{Factory, FactoryConfig};
use msfu_graph::{metrics::MappingMetrics, InteractionGraph};
use msfu_layout::Layout;
use msfu_sim::{BatchLane, MAX_LANES};

use crate::cache::{evaluation_key, open_eval_cache, CacheStats, EvalCache};
use crate::evaluate::{evaluation_record, with_thread_batch_engine};
use crate::pipeline::{per_round_breakdown_with, RoundBreakdown};
use crate::progress::{ProgressEvent, RunControl};
use crate::{CoreError, Evaluation, EvaluationConfig, Result, Strategy};

/// Points evaluated per parallel batch. Cancellation and deadlines are
/// honoured between batches, so this bounds how much work a cancelled sweep
/// still finishes; it is a fixed constant (not thread-count derived) so the
/// progress-event stream of a given spec is identical on every machine.
const SWEEP_BATCH: usize = 32;

/// Default lane-batching width of a [`SweepSpec`]: compatible points are
/// simulated up to this many at a time through one
/// [`BatchEngine`](msfu_sim::BatchEngine).
pub const DEFAULT_LANES: usize = 8;

/// One point of a sweep grid: map `factory` with `strategy` and simulate.
///
/// `#[non_exhaustive]`: construct with [`SweepPoint::new`] (or the
/// [`SweepSpec::point`]/[`SweepSpec::grid`] builders) so new per-point knobs
/// can be added without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepPoint {
    /// Caller-chosen tag used to select rows out of the results (e.g. the
    /// figure panel the point belongs to).
    pub label: String,
    /// The factory configuration to build (deduplicated across points).
    pub factory: FactoryConfig,
    /// The mapping strategy to apply.
    pub strategy: Strategy,
}

/// A declarative sweep: an evaluation configuration plus the list of points.
///
/// `#[non_exhaustive]`: construct with [`SweepSpec::new`] and the builder
/// methods so the spec (and the JSON protocol carrying it) can grow fields
/// without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepSpec {
    /// Sweep name (carried into [`SweepResults`] and JSON reports).
    pub name: String,
    /// Simulator configuration shared by every point.
    pub eval: EvaluationConfig,
    /// The grid, in result order.
    pub points: Vec<SweepPoint>,
    /// Also simulate each round / permutation step in isolation
    /// ([`SweepRow::breakdown`]).
    pub collect_breakdowns: bool,
    /// Also compute the Fig. 6 congestion metrics of each mapping
    /// ([`SweepRow::metrics`]).
    pub collect_mapping_metrics: bool,
    /// Share one content-addressed [`EvalCache`] across the run's workers so
    /// duplicate `(factory, layout, eval config)` points simulate once.
    /// Enabled by default; results are byte-identical either way (the cache
    /// key is the full content, never a lossy hash).
    pub use_eval_cache: bool,
    /// Lane-batching width: lane-compatible points (same built factory, same
    /// grid dimensions) are simulated up to `lanes` at a time through one
    /// shared event wheel ([`BatchEngine`](msfu_sim::BatchEngine)). Rows are
    /// byte-identical at any width; `0` or `1` disables batching, so every
    /// point simulates solo through the same chunk pipeline. Defaults to
    /// [`DEFAULT_LANES`]; values above [`MAX_LANES`] are clamped. At any
    /// width, runs map and simulate [`SWEEP_BATCH`](self) points at a time,
    /// so a serial run's cancel or deadline can overrun by up to one chunk
    /// of work.
    pub lanes: usize,
    /// Root directory of the persistent cache tier: previously simulated
    /// evaluations load from hash-bucketed segment files under it on open,
    /// and new simulations append to them, so repeated runs — and cluster
    /// workers sharing one directory — warm each other across processes.
    /// Rows are byte-identical with or without it. `None` (default) keeps
    /// the cache memory-only; ignored when `use_eval_cache` is off.
    pub cache_dir: Option<std::path::PathBuf>,
}

/// The outcome of one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// The point's label.
    pub label: String,
    /// End-to-end evaluation (latency, area, volume, bounds).
    pub evaluation: Evaluation,
    /// Per-round latency breakdown, when requested.
    pub breakdown: Option<Vec<RoundBreakdown>>,
    /// Congestion metrics of the mapping, when requested.
    pub metrics: Option<MappingMetrics>,
}

/// All rows of an executed sweep, in point order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// The sweep's name.
    pub name: String,
    /// One row per point, in the spec's point order.
    pub rows: Vec<SweepRow>,
}

/// The outcome of a controllable sweep run: the rows that completed, plus
/// whether the run was interrupted (cancelled or past its deadline) before
/// evaluating every point.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SweepOutcome {
    /// The completed rows, in point order — all of them when
    /// `interrupted == false`, a prefix otherwise.
    pub results: SweepResults,
    /// `true` when the run stopped at a batch boundary before finishing.
    pub interrupted: bool,
    /// Evaluation-cache counters of this run (all zero when the cache is
    /// disabled). Each distinct key misses exactly once: the chunk planner
    /// decides in point order which point computes it, and every other point
    /// with that key counts as a hit — making the counters identical for
    /// parallel and serial runs of a completed sweep.
    pub cache: CacheStats,
}

impl SweepResults {
    /// The first row matching label, strategy short name and total factory
    /// capacity.
    ///
    /// This is a linear scan; callers looping over table cells should build a
    /// [`SweepIndex`] once via [`SweepResults::index`] instead.
    pub fn find(&self, label: &str, strategy: &str, capacity: usize) -> Option<&SweepRow> {
        self.rows.iter().find(|r| {
            r.label == label
                && r.evaluation.strategy == strategy
                && r.evaluation.factory.capacity() == capacity
        })
    }

    /// Builds the `(label, strategy, capacity)` row index in one pass over
    /// the results, making every subsequent per-cell lookup O(1). The figure
    /// and table binaries print grids of `labels × strategies × capacities`,
    /// which a [`SweepResults::find`] per cell turns quadratic.
    pub fn index(&self) -> SweepIndex<'_> {
        let mut by_key: IndexMap<'_> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            by_key
                .entry(row.label.as_str())
                .or_default()
                .entry(row.evaluation.strategy.as_str())
                .or_default()
                .entry(row.evaluation.factory.capacity())
                .or_default()
                .push(i);
        }
        SweepIndex {
            results: self,
            by_key,
        }
    }
}

/// Nested borrowed-key maps so lookups with short-lived `&str`s allocate
/// nothing: `label -> strategy -> capacity -> row indices`.
type IndexMap<'a> = HashMap<&'a str, HashMap<&'a str, HashMap<usize, Vec<usize>>>>;

/// A one-pass index over [`SweepResults`] rows keyed by
/// `(label, strategy short name, total factory capacity)`.
#[derive(Debug)]
pub struct SweepIndex<'a> {
    results: &'a SweepResults,
    by_key: IndexMap<'a>,
}

impl<'a> SweepIndex<'a> {
    /// All rows under the key, in point order.
    pub fn rows(
        &self,
        label: &str,
        strategy: &str,
        capacity: usize,
    ) -> impl Iterator<Item = &'a SweepRow> + '_ {
        self.by_key
            .get(label)
            .and_then(|by_strategy| by_strategy.get(strategy))
            .and_then(|by_capacity| by_capacity.get(&capacity))
            .into_iter()
            .flatten()
            .map(|&i| &self.results.rows[i])
    }

    /// The first row under the key ([`SweepResults::find`], indexed).
    pub fn find(&self, label: &str, strategy: &str, capacity: usize) -> Option<&'a SweepRow> {
        self.rows(label, strategy, capacity).next()
    }

    /// Of the rows under the key, the one with the smallest quantum volume —
    /// how the paper picks each strategy's better reuse policy for its final
    /// plots (Section VIII-C1).
    pub fn best_reuse(&self, label: &str, strategy: &str, capacity: usize) -> Option<&'a SweepRow> {
        self.rows(label, strategy, capacity)
            .min_by_key(|r| r.evaluation.volume)
    }
}

impl SweepPoint {
    /// Creates a point.
    pub fn new(label: impl Into<String>, factory: FactoryConfig, strategy: Strategy) -> Self {
        SweepPoint {
            label: label.into(),
            factory,
            strategy,
        }
    }
}

impl SweepSpec {
    /// Creates an empty sweep.
    pub fn new(name: impl Into<String>, eval: EvaluationConfig) -> Self {
        SweepSpec {
            name: name.into(),
            eval,
            points: Vec::new(),
            collect_breakdowns: false,
            collect_mapping_metrics: false,
            use_eval_cache: true,
            lanes: DEFAULT_LANES,
            cache_dir: None,
        }
    }

    /// Enables or disables the shared evaluation cache (builder style). Rows
    /// are byte-identical either way; disabling only forces duplicate points
    /// to re-simulate (the reference mode of the cache-correctness tests).
    pub fn with_eval_cache(mut self, enabled: bool) -> Self {
        self.use_eval_cache = enabled;
        self
    }

    /// Sets the lane-batching width (builder style). `0` or `1` disables
    /// batching (every point simulates solo); rows are byte-identical at any
    /// width.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Attaches the persistent cache tier rooted at `dir` (builder style):
    /// evaluations already on disk are served without simulating, new ones
    /// are appended. Rows are byte-identical with or without the tier.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The sub-sweep covering `points[range]` — the shard a cluster
    /// coordinator dispatches to one worker. Every other knob (eval config,
    /// cache, lanes, collection flags, name) is carried unchanged, so
    /// concatenating the rows of the slices `0..a`, `a..b`, …, `z..len` in
    /// order reproduces the full sweep's rows byte-for-byte: each row is a
    /// pure function of its point and the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, like slice indexing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> SweepSpec {
        let mut shard = self.clone();
        shard.points = self.points[range].to_vec();
        shard
    }

    /// Appends one point (builder style).
    pub fn point(
        mut self,
        label: impl Into<String>,
        factory: FactoryConfig,
        strategy: Strategy,
    ) -> Self {
        self.points.push(SweepPoint {
            label: label.into(),
            factory,
            strategy,
        });
        self
    }

    /// Appends the full `factories × strategies(factory)` grid under one
    /// label. The strategy list may depend on the factory (e.g. size-scaled
    /// force-directed parameters).
    pub fn grid(
        mut self,
        label: impl Into<String>,
        factories: &[FactoryConfig],
        strategies: impl Fn(&FactoryConfig) -> Vec<Strategy>,
    ) -> Self {
        let label = label.into();
        for factory in factories {
            for strategy in strategies(factory) {
                self.points.push(SweepPoint {
                    label: label.clone(),
                    factory: *factory,
                    strategy,
                });
            }
        }
        self
    }

    /// Requests per-round latency breakdowns on every row.
    pub fn with_breakdowns(mut self) -> Self {
        self.collect_breakdowns = true;
        self
    }

    /// Requests Fig. 6 congestion metrics on every row.
    pub fn with_mapping_metrics(mut self) -> Self {
        self.collect_mapping_metrics = true;
        self
    }

    /// Executes every point in parallel across the machine's cores.
    ///
    /// Each distinct `FactoryConfig` is built once, shared immutably by all
    /// points that use it. Results are in point order and identical to
    /// [`SweepSpec::run_serial`].
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error — the same error [`SweepSpec::run_serial`] returns:
    /// a factory that fails to build fails at the first point using it, not
    /// before the run starts.
    pub fn run(&self) -> Result<SweepResults> {
        Ok(self.run_with(&RunControl::default())?.results)
    }

    /// [`SweepSpec::run`] under a [`RunControl`]: progress events stream to
    /// the control's sink as batches complete, and cancellation/deadline are
    /// honoured between batches of [`SWEEP_BATCH`](self) points. An
    /// interrupted run returns the rows completed so far with
    /// [`SweepOutcome::interrupted`] set, never an error.
    ///
    /// Row values are identical to [`SweepSpec::run`]; a run with the default
    /// control behaves byte-for-byte like it.
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error among the batches that ran.
    pub fn run_with(&self, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        self.execute(true, ctrl)
    }

    /// Executes every point on the calling thread (the reference
    /// implementation for determinism tests). The factory cache applies here
    /// too.
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error, as [`SweepSpec::run`] does.
    pub fn run_serial(&self) -> Result<SweepResults> {
        Ok(self.run_serial_with(&RunControl::default())?.results)
    }

    /// [`SweepSpec::run_serial`] under a [`RunControl`]: rows stream to the
    /// control's sink one at a time, and cancellation/deadline are honoured
    /// between rows, so an interrupted run returns a row prefix cut at the
    /// point where it noticed. Points are still mapped and simulated a
    /// [`SWEEP_BATCH`](self)-point chunk at a time, so a cancel or deadline
    /// can overrun by up to one chunk of work.
    ///
    /// The calling thread's simulator engine is reused across calls, so a
    /// long-lived process (e.g. `msfu serve`) pays the arena allocations
    /// once, not per job.
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error among the points that ran.
    pub fn run_serial_with(&self, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        self.execute(false, ctrl)
    }

    /// The one chunk walk behind every run. Every distinct factory is built
    /// once before the first chunk (across the worker pool when parallel)
    /// and each build's result is kept, so a failed build surfaces at the
    /// first point that uses it: both modes return the first error in point
    /// order, after the rows before it. A parallel run evaluates each chunk
    /// across the pool and reports once per chunk; a serial run checks for
    /// interruption between rows and reports once at the end. A run whose
    /// control is already interrupted builds nothing.
    fn execute(&self, parallel: bool, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        let total = self.points.len();
        let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
        let mut interrupted = ctrl.interrupted();
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        let factories = if interrupted {
            FactoryCache::new()
        } else {
            self.build_factories(parallel)
        };

        'chunks: for chunk in self.points.chunks(SWEEP_BATCH) {
            if interrupted || ctrl.interrupted() {
                interrupted = true;
                break;
            }
            let entries: Vec<Result<Arc<FactoryEntry>>> = chunk
                .iter()
                .map(|point| factories[&point.factory].clone())
                .collect();
            let batch = self.evaluate_chunk(chunk, &entries, eval_cache.as_ref(), parallel);
            for row in batch {
                if !parallel && ctrl.interrupted() {
                    interrupted = true;
                    break 'chunks;
                }
                let index = rows.len();
                rows.push(row?);
                ctrl.emit(&ProgressEvent::RowCompleted {
                    name: &self.name,
                    index,
                    total,
                    row: &rows[index],
                });
            }
            if parallel {
                self.emit_batch_finished(ctrl, rows.len());
            }
        }
        if !parallel {
            self.emit_batch_finished(ctrl, rows.len());
        }

        Ok(SweepOutcome {
            results: SweepResults {
                name: self.name.clone(),
                rows,
            },
            interrupted,
            cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
        })
    }

    /// Builds each distinct factory configuration of the spec once, keeping
    /// every build's result.
    fn build_factories(&self, parallel: bool) -> FactoryCache {
        let mut distinct: Vec<FactoryConfig> = Vec::new();
        for p in &self.points {
            if !distinct.contains(&p.factory) {
                distinct.push(p.factory);
            }
        }
        let built = map_indices(parallel, distinct.len(), |i| {
            FactoryEntry::build(&distinct[i]).map(Arc::new)
        });
        distinct.into_iter().zip(built).collect()
    }

    fn emit_batch_finished(&self, ctrl: &RunControl<'_>, completed: usize) {
        ctrl.emit(&ProgressEvent::BatchFinished {
            name: &self.name,
            completed,
            total: self.points.len(),
        });
    }

    /// The effective lane width: `lanes` clamped to [`MAX_LANES`], or 0 when
    /// batching is off.
    fn lane_width(&self) -> usize {
        if self.lanes > 1 {
            self.lanes.min(MAX_LANES)
        } else {
            0
        }
    }

    /// Maps one point: layout, rewired factory copy (for port-rewiring
    /// strategies) and content address (when the evaluation cache is on).
    fn map_point(&self, point: &SweepPoint, entry: &FactoryEntry) -> Result<MappedPoint> {
        let layout = point.strategy.map(&entry.factory)?;
        let rewired = if layout.requires_port_rewiring() {
            Some(entry.factory.apply_port_assignment(&layout.ports)?)
        } else {
            None
        };
        let key = self
            .use_eval_cache
            .then(|| evaluation_key(entry.factory.config(), &layout, &self.eval));
        Ok(MappedPoint {
            layout,
            rewired,
            key,
        })
    }

    /// Evaluates one chunk: maps every point, plans how each one gets its
    /// evaluation, simulates every group of computing points through one
    /// [`BatchEngine`](msfu_sim::BatchEngine) run, then finalizes rows in
    /// point order. With batching off every computing point is a one-lane
    /// group of its own — the reference the lane-equivalence tests compare
    /// against.
    pub(crate) fn evaluate_chunk(
        &self,
        chunk: &[SweepPoint],
        entries: &[Result<Arc<FactoryEntry>>],
        eval_cache: Option<&EvalCache>,
        parallel: bool,
    ) -> Vec<Result<SweepRow>> {
        let len = chunk.len();

        // Phase A: map every point. The mapping phase always runs: it
        // produces the content address.
        let mut mapped: Vec<Result<MappedPoint>> = map_indices(parallel, len, |i| {
            let entry = entries[i].as_ref().map_err(Clone::clone)?;
            self.map_point(&chunk[i], entry)
        });

        // Phase B: plan, sequentially in point order so the plan is
        // identical for serial and parallel runs. This is the only place
        // that decides how a point gets its evaluation: a key the cache
        // holds is answered from it; a key an earlier point of the chunk
        // computes follows that point; every other point computes — in a
        // lane group with points of the same built factory and grid size,
        // or as a one-lane group of its own when it is lane-incompatible
        // (batching off, a port-rewired circuit, or circuit × lanes would
        // overflow the wheel's event payload).
        let lane_cap = self.lane_width();
        let mut plan: Vec<Option<Plan>> = vec![None; len];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut leaders: HashMap<&str, usize> = HashMap::new();
        for i in 0..len {
            let (Ok(entry), Ok(m)) = (&entries[i], &mapped[i]) else {
                continue;
            };
            if let (Some(cache), Some(key)) = (eval_cache, m.key.as_deref()) {
                if let Some(&leader) = leaders.get(key) {
                    cache.count_hit(false);
                    plan[i] = Some(Plan::Follow(leader));
                    continue;
                }
                if let Some(evaluation) = cache.lookup(key, chunk[i].strategy.short_name()) {
                    plan[i] = Some(Plan::Cached(evaluation));
                    continue;
                }
                leaders.insert(key, i);
            }
            let gates = entry.factory.circuit().num_gates() as u64;
            let lane_compatible = lane_cap > 1
                && m.rewired.is_none()
                && (lane_cap as u64).saturating_mul(gates) <= u64::from(u32::MAX);
            let group_key = (
                Arc::as_ptr(entry) as usize,
                m.layout.mapping.width(),
                m.layout.mapping.height(),
            );
            let g = match open.get(&group_key) {
                Some(&g) if lane_compatible && groups[g].len() < lane_cap => g,
                _ => {
                    if lane_compatible {
                        open.insert(group_key, groups.len());
                    }
                    groups.push(Vec::new());
                    groups.len() - 1
                }
            };
            groups[g].push(i);
            plan[i] = Some(Plan::Compute(g));
        }

        // Phase C: simulate each group through one shared event wheel — a
        // one-lane group on its own (possibly rewired) circuit. The batch
        // engine guarantees each lane's SimResult is byte-identical to a
        // solo run.
        let simulated = map_indices(parallel, groups.len(), |g| {
            let members = &groups[g];
            let lead = mapped[members[0]].as_ref().expect("planned points mapped");
            let entry = entries[members[0]]
                .as_ref()
                .expect("planned points have a factory");
            let factory: &Factory = lead.rewired.as_ref().unwrap_or(&entry.factory);
            let circuit = factory.circuit();
            let critical_path_cycles = circuit.critical_path_cycles(&self.eval.sim.latency);
            let lanes: Vec<BatchLane<'_>> = members
                .iter()
                .map(|&i| {
                    BatchLane::new(&mapped[i].as_ref().expect("planned points mapped").layout)
                })
                .collect();
            let outcome = with_thread_batch_engine(self.eval.sim, |batch_engine| {
                batch_engine.run(circuit, &lanes)
            });
            match outcome {
                Err(e) => members
                    .iter()
                    .map(|_| Err(CoreError::from(e.clone())))
                    .collect(),
                Ok(results) => members
                    .iter()
                    .zip(results)
                    .map(|(&i, lane)| {
                        let name = chunk[i].strategy.short_name();
                        lane.map(|sim| evaluation_record(factory, name, &sim, critical_path_cycles))
                            .map_err(CoreError::from)
                    })
                    .collect::<Vec<_>>(),
            }
        });

        // Phase D: finalize rows. In point order, each computing point is
        // recorded in the cache (a miss, plus the disk append; its key moves
        // into the cache) and followers copy their leader's result; then
        // rows gain their breakdowns and metrics.
        let mut simulated: Vec<_> = simulated.into_iter().map(Vec::into_iter).collect();
        let mut evaluations: Vec<Option<Result<Evaluation>>> = Vec::with_capacity(len);
        for i in 0..len {
            let evaluation = match plan[i].take() {
                None => None,
                Some(Plan::Cached(evaluation)) => Some(Ok(evaluation)),
                Some(Plan::Follow(leader)) => evaluations[leader].clone().map(|result| {
                    result.map(|mut evaluation| {
                        evaluation.strategy = chunk[i].strategy.short_name().to_string();
                        evaluation
                    })
                }),
                Some(Plan::Compute(g)) => {
                    let result = simulated[g].next().expect("one result per group member");
                    let key = mapped[i].as_mut().ok().and_then(|m| m.key.take());
                    if let (Some(cache), Some(key), Ok(evaluation)) = (eval_cache, key, &result) {
                        cache.record(key, evaluation.clone());
                    }
                    Some(result)
                }
            };
            evaluations.push(evaluation);
        }
        map_indices(parallel, len, |i| {
            let point = &chunk[i];
            let entry = entries[i].as_ref().map_err(Clone::clone)?;
            let m = mapped[i].as_ref().map_err(Clone::clone)?;
            let evaluation = evaluations[i]
                .clone()
                .expect("mapped points were planned")?;
            let factory = &entry.factory;
            let effective: &Factory = m.rewired.as_ref().unwrap_or(factory);
            let breakdown = if self.collect_breakdowns {
                Some(with_thread_batch_engine(self.eval.sim, |engine| {
                    per_round_breakdown_with(engine, effective, &m.layout)
                })?)
            } else {
                None
            };
            let metrics = if self.collect_mapping_metrics {
                let computed;
                let graph = if m.layout.requires_port_rewiring() {
                    computed = InteractionGraph::from_circuit(effective.circuit());
                    &computed
                } else {
                    entry
                        .graph
                        .get_or_init(|| InteractionGraph::from_circuit(factory.circuit()))
                };
                Some(MappingMetrics::compute(
                    graph,
                    &m.layout.mapping.to_points(),
                ))
            } else {
                None
            };
            Ok(SweepRow {
                label: point.label.clone(),
                evaluation,
                breakdown,
                metrics,
            })
        })
    }
}

/// `f` over `0..len`, in index order; across the worker pool when
/// `parallel`.
fn map_indices<T: Send>(parallel: bool, len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let indices: Vec<usize> = (0..len).collect();
    if parallel {
        indices.par_iter().map(|&i| f(i)).collect()
    } else {
        indices.iter().map(|&i| f(i)).collect()
    }
}

/// One mapped chunk point: the layout, the private rewired factory copy (for
/// port-rewiring strategies) and the content address (when caching).
struct MappedPoint {
    layout: Layout,
    rewired: Option<Factory>,
    key: Option<String>,
}

/// How one chunk point gets its evaluation, as phase B of
/// [`SweepSpec::evaluate_chunk`] decided it.
#[derive(Clone)]
enum Plan {
    /// The evaluation cache held the key (a hit, counted at lookup).
    Cached(Evaluation),
    /// The earlier chunk point at this index computes the same key (a hit).
    Follow(usize),
    /// Simulated as a member of this group (possibly a one-lane group).
    Compute(usize),
}

/// A cached factory plus lazily derived, factory-invariant artifacts shared
/// by every point that maps it.
pub(crate) struct FactoryEntry {
    factory: Factory,
    graph: OnceLock<InteractionGraph>,
}

impl FactoryEntry {
    pub(crate) fn build(config: &FactoryConfig) -> Result<Self> {
        Ok(FactoryEntry {
            factory: Factory::build(config)?,
            graph: OnceLock::new(),
        })
    }
}

type FactoryCache = HashMap<FactoryConfig, Result<Arc<FactoryEntry>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use msfu_distill::ReusePolicy;
    use msfu_layout::StitchingConfig;

    fn small_spec() -> SweepSpec {
        let caps = [
            FactoryConfig::single_level(2),
            FactoryConfig::single_level(4),
        ];
        SweepSpec::new("test", EvaluationConfig::default())
            .grid("g", &caps, |_| {
                vec![Strategy::linear(), Strategy::random(7)]
            })
            .point(
                "hs",
                FactoryConfig::two_level(2),
                Strategy::hierarchical_stitching(StitchingConfig::default()),
            )
    }

    #[test]
    fn grid_builder_enumerates_every_combination() {
        let spec = small_spec();
        assert_eq!(spec.points.len(), 5);
        assert_eq!(spec.points[0].label, "g");
        assert_eq!(spec.points[4].label, "hs");
    }

    #[test]
    fn parallel_and_serial_runs_are_identical() {
        let spec = small_spec().with_breakdowns();
        let parallel = spec.run().unwrap();
        let serial = spec.run_serial().unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn cached_factories_match_fresh_builds() {
        // The same config appears in several points; the engine builds it
        // once. Results must equal per-point fresh builds via evaluate().
        let spec = small_spec();
        let results = spec.run().unwrap();
        for (point, row) in spec.points.iter().zip(&results.rows) {
            let fresh = evaluate(&point.factory, &point.strategy, &spec.eval).unwrap();
            assert_eq!(row.evaluation, fresh, "{}", point.label);
        }
    }

    #[test]
    fn optional_collections_default_off() {
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("p", FactoryConfig::single_level(2), Strategy::linear())
            .run()
            .unwrap();
        assert!(results.rows[0].breakdown.is_none());
        assert!(results.rows[0].metrics.is_none());
    }

    #[test]
    fn mapping_metrics_are_collected_on_request() {
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("p", FactoryConfig::single_level(4), Strategy::random(3))
            .with_mapping_metrics()
            .run()
            .unwrap();
        let metrics = results.rows[0].metrics.unwrap();
        assert!(metrics.avg_edge_length > 0.0);
    }

    #[test]
    fn breakdowns_cover_every_round() {
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("p", FactoryConfig::two_level(2), Strategy::linear())
            .with_breakdowns()
            .run()
            .unwrap();
        let breakdown = results.rows[0].breakdown.as_ref().unwrap();
        assert_eq!(breakdown.len(), 2);
        assert!(breakdown[0].permutation_cycles > 0);
    }

    #[test]
    fn errors_propagate_in_point_order() {
        let spec = SweepSpec::new("t", EvaluationConfig::default())
            .point("ok", FactoryConfig::single_level(2), Strategy::linear())
            .point("bad", FactoryConfig::new(0, 1), Strategy::linear());
        assert!(spec.run().is_err());
        assert!(spec.run_serial().is_err());
        // A placement error at point 1 comes before a factory error at point
        // 2 in both modes: factories build up front, but a failed build
        // surfaces only at the first point that uses it.
        let spec = SweepSpec::new("t", EvaluationConfig::default())
            .point("ok", FactoryConfig::single_level(2), Strategy::linear())
            .point(
                "unplaceable",
                FactoryConfig::single_level(2),
                Strategy::new("bogus", msfu_layout::MapperParams::new()),
            )
            .point("unbuildable", FactoryConfig::new(0, 1), Strategy::linear());
        let parallel = spec.run().unwrap_err().to_string();
        assert_eq!(parallel, spec.run_serial().unwrap_err().to_string());
        assert!(parallel.contains("bogus"), "{parallel}");
    }

    #[test]
    fn find_selects_by_label_strategy_and_capacity() {
        let results = small_spec().run().unwrap();
        let row = results.find("g", "Line", 4).unwrap();
        assert_eq!(row.evaluation.factory.capacity(), 4);
        assert!(results.find("g", "HS", 4).is_none());
    }

    #[test]
    fn index_agrees_with_linear_find() {
        let results = small_spec().run().unwrap();
        let index = results.index();
        for row in &results.rows {
            let key = (
                row.label.as_str(),
                row.evaluation.strategy.as_str(),
                row.evaluation.factory.capacity(),
            );
            assert_eq!(
                index.find(key.0, key.1, key.2).map(|r| r as *const _),
                results.find(key.0, key.1, key.2).map(|r| r as *const _),
            );
        }
        assert!(index.find("g", "HS", 4).is_none());
        assert_eq!(index.rows("g", "Line", 4).count(), 1);
    }

    #[test]
    fn index_best_reuse_picks_the_smaller_volume() {
        use msfu_distill::ReusePolicy;
        let base = FactoryConfig::two_level(2);
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("x", base.with_reuse(ReusePolicy::Reuse), Strategy::linear())
            .point(
                "x",
                base.with_reuse(ReusePolicy::NoReuse),
                Strategy::linear(),
            )
            .run()
            .unwrap();
        let index = results.index();
        let best = index.best_reuse("x", "Line", 4).unwrap();
        let min = results.rows.iter().map(|r| r.evaluation.volume).min();
        assert_eq!(Some(best.evaluation.volume), min);
    }

    #[test]
    fn lane_widths_do_not_change_rows() {
        // The same spec at every batching mode — off, narrow, default, wide,
        // serial — must produce byte-identical rows.
        let spec = small_spec().with_breakdowns().with_mapping_metrics();
        let reference = spec.clone().with_lanes(0).run().unwrap();
        for lanes in [2, DEFAULT_LANES, MAX_LANES] {
            let batched = spec.clone().with_lanes(lanes);
            assert_eq!(batched.run().unwrap(), reference, "parallel, {lanes} lanes");
            assert_eq!(
                batched.run_serial().unwrap(),
                reference,
                "serial, {lanes} lanes"
            );
        }
    }

    #[test]
    fn lane_widths_do_not_change_rows_without_cache() {
        let spec = small_spec().with_eval_cache(false);
        let reference = spec.clone().with_lanes(0).run().unwrap();
        assert_eq!(spec.clone().with_lanes(4).run().unwrap(), reference);
        assert_eq!(spec.with_lanes(4).run_serial().unwrap(), reference);
    }

    #[test]
    fn duplicate_points_share_one_lane_via_the_cache() {
        // Four copies of one point: one occupies a lane, the rest follow it
        // through the eval cache, and the cache counters match an unbatched
        // run.
        let mut spec = SweepSpec::new("dup", EvaluationConfig::default());
        for _ in 0..4 {
            spec = spec.point("p", FactoryConfig::single_level(2), Strategy::linear());
        }
        let outcome = spec.run_with(&RunControl::default()).unwrap();
        assert_eq!(
            outcome.cache,
            CacheStats {
                hits: 3,
                misses: 1,
                ..CacheStats::default()
            }
        );
        let unbatched = spec
            .clone()
            .with_lanes(0)
            .run_with(&RunControl::default())
            .unwrap();
        assert_eq!(outcome.results, unbatched.results);
        assert_eq!(outcome.cache, unbatched.cache);
    }

    #[test]
    fn batched_errors_propagate_in_point_order() {
        let spec = SweepSpec::new("t", EvaluationConfig::default())
            .point("ok", FactoryConfig::single_level(2), Strategy::linear())
            .point("bad", FactoryConfig::new(0, 1), Strategy::linear())
            .with_lanes(4);
        assert!(spec.run().is_err());
        assert!(spec.run_serial().is_err());
    }

    /// Records each progress event as a compact tag.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<String>>);

    impl crate::progress::ProgressSink for Recorder {
        fn emit(&self, event: &ProgressEvent<'_>) {
            let tag = match event {
                ProgressEvent::RowCompleted { index, .. } => format!("row {index}"),
                ProgressEvent::BatchFinished {
                    completed, total, ..
                } => format!("batch {completed}/{total}"),
                _ => "other".to_string(),
            };
            self.0.lock().unwrap().push(tag);
        }
    }

    fn events(spec: &SweepSpec, parallel: bool, token: &crate::CancelToken) -> Vec<String> {
        let recorder = Recorder::default();
        let ctrl = RunControl::default()
            .with_progress(&recorder)
            .with_cancel(token);
        if parallel {
            spec.run_with(&ctrl).unwrap();
        } else {
            spec.run_serial_with(&ctrl).unwrap();
        }
        recorder.0.into_inner().unwrap()
    }

    #[test]
    fn progress_events_keep_their_shape_in_every_mode() {
        // A parallel run reports per chunk; a serial run streams rows and
        // reports once at the end. A run cancelled up front evaluates nothing.
        let mut spec = SweepSpec::new("events", EvaluationConfig::default());
        for seed in 0..36 {
            spec = spec.point("p", FactoryConfig::single_level(2), Strategy::random(seed));
        }
        let rows = |range: std::ops::Range<usize>| range.map(|i| format!("row {i}"));
        let parallel: Vec<String> = rows(0..32)
            .chain(["batch 32/36".to_string()])
            .chain(rows(32..36))
            .chain(["batch 36/36".to_string()])
            .collect();
        let serial: Vec<String> = rows(0..36).chain(["batch 36/36".to_string()]).collect();
        let live = crate::CancelToken::new();
        let cancelled = crate::CancelToken::new();
        cancelled.cancel();
        for lanes in [0, DEFAULT_LANES] {
            let spec = spec.clone().with_lanes(lanes);
            assert_eq!(
                events(&spec, true, &live),
                parallel,
                "parallel, {lanes} lanes"
            );
            assert_eq!(events(&spec, false, &live), serial, "serial, {lanes} lanes");
            assert!(
                events(&spec, true, &cancelled).is_empty(),
                "cancelled parallel, {lanes} lanes"
            );
            assert_eq!(
                events(&spec, false, &cancelled),
                ["batch 0/36"],
                "cancelled serial, {lanes} lanes"
            );
        }
    }

    #[test]
    fn reuse_policies_are_distinct_cache_keys() {
        let reuse = FactoryConfig::two_level(2).with_reuse(ReusePolicy::Reuse);
        let no_reuse = FactoryConfig::two_level(2).with_reuse(ReusePolicy::NoReuse);
        let results = SweepSpec::new("t", EvaluationConfig::default())
            .point("r", reuse, Strategy::linear())
            .point("nr", no_reuse, Strategy::linear())
            .run()
            .unwrap();
        assert!(
            results.rows[0].evaluation.logical_qubits < results.rows[1].evaluation.logical_qubits
        );
    }
}
