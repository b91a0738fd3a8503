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

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use msfu_distill::{Factory, FactoryConfig};
use msfu_graph::{metrics::MappingMetrics, InteractionGraph};
use msfu_layout::Layout;
use msfu_sim::{BatchLane, SimEngine, MAX_LANES};

use crate::cache::{evaluation_key, open_eval_cache, CacheStats, EvalCache};
use crate::evaluate::{
    effective_factory, evaluate_mapped_with, with_thread_batch_engine, with_thread_engine,
};
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
    /// byte-identical at any width; `0` or `1` disables batching. Defaults to
    /// [`DEFAULT_LANES`]; values above [`MAX_LANES`] are clamped.
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
    /// disabled). Each distinct key misses exactly once — racing workers
    /// serialize on the slot's compute guard, so late arrivals count as hits
    /// — making the counters identical for parallel and serial runs of a
    /// completed sweep.
    pub cache: CacheStats,
    /// Lane-batching occupancy counters of this run (all zero when batching
    /// is disabled). Planning is chunk-sequential and content-addressed, so
    /// the counters are identical for parallel and serial runs of a
    /// completed sweep.
    pub batch: BatchStats,
}

/// Lane-occupancy counters of one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct BatchStats {
    /// The lane width the run batched at (0 when batching was disabled).
    pub lane_capacity: usize,
    /// Batches dispatched to the batch engine (singleton groups included).
    pub batches: u64,
    /// Total lanes occupied across all batches.
    pub lanes_filled: u64,
    /// Points that occupied a batch lane.
    pub points_batched: u64,
    /// Points simulated solo (port-rewired circuits and other
    /// lane-incompatible points).
    pub points_solo: u64,
    /// Points that never occupied a lane because the evaluation cache
    /// already held (or was about to hold) their content address.
    pub points_from_cache: u64,
}

impl BatchStats {
    /// Mean fraction of lanes occupied per batch:
    /// `lanes_filled / (batches × lane_capacity)`, or 0 for an unbatched run.
    pub fn occupancy(&self) -> f64 {
        if self.batches == 0 || self.lane_capacity == 0 {
            return 0.0;
        }
        self.lanes_filled as f64 / (self.batches * self.lane_capacity as u64) as f64
    }
}

impl SweepResults {
    /// Rows carrying the given label, in order.
    pub fn labeled<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a SweepRow> {
        self.rows.iter().filter(move |r| r.label == label)
    }

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
    /// batching; rows are byte-identical at any width.
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
    /// simulation error.
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
        let total = self.points.len();
        let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
        let mut interrupted = ctrl.interrupted();
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        let mut batch_stats = self.fresh_batch_stats();

        if !interrupted {
            // Build each distinct factory once, in parallel.
            let mut distinct: Vec<FactoryConfig> = Vec::new();
            for p in &self.points {
                if !distinct.contains(&p.factory) {
                    distinct.push(p.factory);
                }
            }
            let built: Vec<crate::Result<Arc<FactoryEntry>>> = distinct
                .par_iter()
                .map(|config| Ok(Arc::new(FactoryEntry::build(config)?)))
                .collect();
            let mut cache: FactoryCache = HashMap::new();
            for (config, entry) in distinct.iter().zip(built) {
                cache.insert(*config, entry?);
            }

            for chunk in self.points.chunks(SWEEP_BATCH) {
                if ctrl.interrupted() {
                    interrupted = true;
                    break;
                }
                let batch: Vec<crate::Result<SweepRow>> = if self.lanes > 1 {
                    let entries: Vec<Result<Arc<FactoryEntry>>> = chunk
                        .iter()
                        .map(|point| {
                            Ok(cache
                                .get(&point.factory)
                                .expect("every point's config was pre-built")
                                .clone())
                        })
                        .collect();
                    self.evaluate_chunk_batched(
                        chunk,
                        &entries,
                        eval_cache.as_ref(),
                        &mut batch_stats,
                        true,
                    )
                } else {
                    chunk
                        .par_iter()
                        .map(|point| {
                            let entry = cache
                                .get(&point.factory)
                                .expect("every point's config was pre-built")
                                .clone();
                            // Each worker thread reuses one simulator engine
                            // across every point it evaluates (arena reuse;
                            // results are unaffected).
                            with_thread_engine(self.eval.sim, |engine| {
                                self.evaluate_point(point, &entry, engine, eval_cache.as_ref())
                            })
                        })
                        .collect()
                };
                for row in batch {
                    let index = rows.len();
                    rows.push(row?);
                    ctrl.emit(&ProgressEvent::RowCompleted {
                        name: &self.name,
                        index,
                        total,
                        row: &rows[index],
                    });
                }
                ctrl.emit(&ProgressEvent::BatchFinished {
                    name: &self.name,
                    completed: rows.len(),
                    total,
                });
            }
        }

        Ok(SweepOutcome {
            results: SweepResults {
                name: self.name.clone(),
                rows,
            },
            interrupted,
            cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
            batch: batch_stats,
        })
    }

    /// Executes every point sequentially on the calling thread (reference
    /// implementation for determinism tests, and a baseline for measuring the
    /// parallel speedup). The factory cache applies here too.
    ///
    /// # Errors
    ///
    /// Returns the first factory-construction, placement or simulation error.
    pub fn run_serial(&self) -> Result<SweepResults> {
        Ok(self.run_serial_with(&RunControl::default())?.results)
    }

    /// [`SweepSpec::run_serial`] under a [`RunControl`]: rows stream to the
    /// control's sink as each point completes, and cancellation/deadline are
    /// honoured between points (a serial "batch" is one point).
    ///
    /// The calling thread's simulator engine is reused across calls, so a
    /// long-lived process (e.g. `msfu serve`) pays the arena allocations
    /// once, not per job.
    ///
    /// # Errors
    ///
    /// Returns the first factory-construction, placement or simulation error
    /// among the points that ran.
    pub fn run_serial_with(&self, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        if self.lanes > 1 {
            return self.run_serial_batched_with(ctrl);
        }
        let total = self.points.len();
        let mut cache: FactoryCache = HashMap::new();
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        with_thread_engine(self.eval.sim, |engine| {
            let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
            let mut interrupted = false;
            for point in &self.points {
                if ctrl.interrupted() {
                    interrupted = true;
                    break;
                }
                let entry = self.entry_for(&mut cache, point.factory)?;
                let index = rows.len();
                rows.push(self.evaluate_point(point, &entry, engine, eval_cache.as_ref())?);
                ctrl.emit(&ProgressEvent::RowCompleted {
                    name: &self.name,
                    index,
                    total,
                    row: &rows[index],
                });
            }
            ctrl.emit(&ProgressEvent::BatchFinished {
                name: &self.name,
                completed: rows.len(),
                total,
            });
            Ok(SweepOutcome {
                results: SweepResults {
                    name: self.name.clone(),
                    rows,
                },
                interrupted,
                cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
                batch: BatchStats::default(),
            })
        })
    }

    /// [`SweepSpec::run_serial_with`] when lane batching is on: chunks are
    /// planned exactly like the parallel run (same groups, same counters) but
    /// every group and solo point simulates on the calling thread.
    /// Cancellation is honoured between chunks and between row emissions, so
    /// a cancelled run still streams the same row prefix the unbatched serial
    /// path would.
    fn run_serial_batched_with(&self, ctrl: &RunControl<'_>) -> Result<SweepOutcome> {
        let total = self.points.len();
        let mut cache: FactoryCache = HashMap::new();
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        let mut batch_stats = self.fresh_batch_stats();
        let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
        let mut interrupted = false;
        'chunks: for chunk in self.points.chunks(SWEEP_BATCH) {
            if ctrl.interrupted() {
                interrupted = true;
                break;
            }
            let entries: Vec<Result<Arc<FactoryEntry>>> = chunk
                .iter()
                .map(|point| self.entry_for(&mut cache, point.factory))
                .collect();
            let batch = self.evaluate_chunk_batched(
                chunk,
                &entries,
                eval_cache.as_ref(),
                &mut batch_stats,
                false,
            );
            for row in batch {
                if ctrl.interrupted() {
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
        }
        ctrl.emit(&ProgressEvent::BatchFinished {
            name: &self.name,
            completed: rows.len(),
            total,
        });
        Ok(SweepOutcome {
            results: SweepResults {
                name: self.name.clone(),
                rows,
            },
            interrupted,
            cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
            batch: batch_stats,
        })
    }

    /// Zeroed run-level counters carrying this spec's effective lane width.
    fn fresh_batch_stats(&self) -> BatchStats {
        BatchStats {
            lane_capacity: if self.lanes > 1 {
                self.lanes.min(MAX_LANES)
            } else {
                0
            },
            ..BatchStats::default()
        }
    }

    fn entry_for(
        &self,
        cache: &mut FactoryCache,
        config: FactoryConfig,
    ) -> Result<Arc<FactoryEntry>> {
        if let Some(entry) = cache.get(&config) {
            return Ok(entry.clone());
        }
        let entry = Arc::new(FactoryEntry::build(&config)?);
        cache.insert(config, entry.clone());
        Ok(entry)
    }

    /// Evaluates one point against a shared, immutable factory, simulating
    /// through the caller's reusable engine. With a cache, the mapping phase
    /// always runs (it produces the content address) but the simulation of a
    /// duplicate `(factory, layout, eval)` is answered from the shared map.
    fn evaluate_point(
        &self,
        point: &SweepPoint,
        entry: &FactoryEntry,
        engine: &mut SimEngine,
        cache: Option<&EvalCache>,
    ) -> Result<SweepRow> {
        let factory = &entry.factory;
        let layout = point.strategy.map(factory)?;
        let effective = effective_factory(factory, &layout)?;
        let simulate = |engine: &mut SimEngine| {
            evaluate_mapped_with(
                engine,
                &effective,
                &layout,
                point.strategy.short_name(),
                &self.eval,
            )
        };
        let evaluation = match cache {
            Some(cache) => cache.get_or_compute(
                evaluation_key(factory.config(), &layout, &self.eval),
                point.strategy.short_name(),
                || simulate(engine),
            )?,
            None => simulate(engine)?,
        };
        let breakdown = if self.collect_breakdowns {
            Some(per_round_breakdown_with(
                engine,
                &effective,
                &layout,
                &self.eval.sim,
            )?)
        } else {
            None
        };
        let metrics = if self.collect_mapping_metrics {
            // The interaction graph depends only on the circuit, so points
            // sharing an unrewired factory share one lazily built graph; a
            // port-rewired circuit differs and gets its own.
            let computed;
            let graph = if layout.requires_port_rewiring() {
                computed = InteractionGraph::from_circuit(effective.circuit());
                &computed
            } else {
                entry
                    .graph
                    .get_or_init(|| InteractionGraph::from_circuit(factory.circuit()))
            };
            Some(MappingMetrics::compute(graph, &layout.mapping.to_points()))
        } else {
            None
        };
        Ok(SweepRow {
            label: point.label.clone(),
            evaluation,
            breakdown,
            metrics,
        })
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

    /// Evaluates one chunk with lane batching: maps every point, plans
    /// lane-compatible groups, simulates each group through one
    /// [`BatchEngine`](msfu_sim::BatchEngine), then finalizes rows in point
    /// order through the same cache accounting as the unbatched path — so
    /// rows, errors and cache counters are byte-identical to it.
    fn evaluate_chunk_batched(
        &self,
        chunk: &[SweepPoint],
        entries: &[Result<Arc<FactoryEntry>>],
        eval_cache: Option<&EvalCache>,
        stats: &mut BatchStats,
        parallel: bool,
    ) -> Vec<Result<SweepRow>> {
        let len = chunk.len();
        let indices: Vec<usize> = (0..len).collect();

        // Phase A: map every point. The mapping phase always runs (it
        // produces the content address), exactly as in the unbatched path.
        let map_one = |i: usize| -> Result<MappedPoint> {
            let entry = entries[i].as_ref().map_err(Clone::clone)?;
            self.map_point(&chunk[i], entry)
        };
        let mapped: Vec<Result<MappedPoint>> = if parallel {
            indices.par_iter().map(|&i| map_one(i)).collect()
        } else {
            indices.iter().map(|&i| map_one(i)).collect()
        };

        // Phase B: plan lanes, sequentially in point order so the grouping
        // (and the counters) are identical for serial and parallel runs. The
        // first occurrence of each cacheable key gets a lane; chunk-internal
        // duplicates follow that lane; keys the cache already holds never
        // occupy a lane; port-rewired points simulate a private circuit and
        // go solo.
        let lane_cap = self.lanes.min(MAX_LANES);
        let mut roles: Vec<Option<PointRole>> = vec![None; len];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut seen: HashSet<&str> = HashSet::new();
        for i in 0..len {
            let Ok(entry) = entries[i].as_ref() else {
                continue;
            };
            let Ok(m) = mapped[i].as_ref() else {
                continue;
            };
            if let (Some(cache), Some(key)) = (eval_cache, m.key.as_deref()) {
                if seen.contains(key) {
                    roles[i] = Some(PointRole::Follower);
                    stats.points_from_cache += 1;
                    continue;
                }
                if cache.peek(key) {
                    roles[i] = Some(PointRole::Cached);
                    stats.points_from_cache += 1;
                    continue;
                }
            }
            let gates = entry.factory.circuit().num_gates() as u64;
            if m.rewired.is_some() || (lane_cap as u64).saturating_mul(gates) > u64::from(u32::MAX)
            {
                roles[i] = Some(PointRole::Solo);
                stats.points_solo += 1;
                continue;
            }
            let group_key = (
                Arc::as_ptr(entry) as usize,
                m.layout.mapping.width(),
                m.layout.mapping.height(),
            );
            let slot = match open.get(&group_key) {
                Some(&gi) if groups[gi].len() < lane_cap => gi,
                _ => {
                    groups.push(Vec::new());
                    let gi = groups.len() - 1;
                    open.insert(group_key, gi);
                    gi
                }
            };
            groups[slot].push(i);
            roles[i] = Some(PointRole::Lane);
            stats.points_batched += 1;
            if let Some(key) = m.key.as_deref() {
                seen.insert(key);
            }
        }
        stats.batches += groups.len() as u64;
        for members in &groups {
            stats.lanes_filled += members.len() as u64;
        }

        // Phase C: simulate each group through one shared event wheel. The
        // Evaluation assembly mirrors `evaluate_mapped_with` field for field;
        // the batch engine guarantees each lane's SimResult is byte-identical
        // to a solo run.
        let simulate_group = |members: &Vec<usize>| -> Vec<(usize, Result<Evaluation>)> {
            let first = members[0];
            let entry = entries[first]
                .as_ref()
                .expect("grouped points have a factory");
            let factory = &entry.factory;
            let circuit = factory.circuit();
            let critical_path_cycles = circuit.critical_path_cycles(&self.eval.sim.latency);
            let logical_qubits = factory.num_qubits();
            let lanes: Vec<BatchLane<'_>> = members
                .iter()
                .map(|&i| {
                    BatchLane::new(&mapped[i].as_ref().expect("grouped points mapped").layout)
                })
                .collect();
            let outcome = with_thread_batch_engine(self.eval.sim, |batch_engine| {
                batch_engine.run(circuit, &lanes)
            });
            match outcome {
                Err(e) => members
                    .iter()
                    .map(|&i| (i, Err(CoreError::from(e.clone()))))
                    .collect(),
                Ok(results) => members
                    .iter()
                    .zip(results)
                    .map(|(&i, lane)| {
                        let evaluation = lane
                            .map(|sim| Evaluation {
                                strategy: chunk[i].strategy.short_name().to_string(),
                                factory: *factory.config(),
                                latency_cycles: sim.cycles,
                                area: sim.area,
                                volume: sim.volume(),
                                stall_cycles: sim.stall_cycles,
                                routing_conflicts: sim.routing_conflicts,
                                critical_path_cycles,
                                critical_volume: critical_path_cycles * logical_qubits as u64,
                                logical_qubits,
                            })
                            .map_err(CoreError::from);
                        (i, evaluation)
                    })
                    .collect(),
            }
        };
        let group_results: Vec<Vec<(usize, Result<Evaluation>)>> = if parallel {
            groups.par_iter().map(simulate_group).collect()
        } else {
            groups.iter().map(simulate_group).collect()
        };
        let mut lane_eval: Vec<Option<Result<Evaluation>>> = vec![None; len];
        for (i, evaluation) in group_results.into_iter().flatten() {
            lane_eval[i] = Some(evaluation);
        }

        // Follower points clone their lane's result through the cache.
        let mut by_key: HashMap<&str, usize> = HashMap::new();
        for i in 0..len {
            if matches!(roles[i], Some(PointRole::Lane)) {
                if let Ok(m) = &mapped[i] {
                    if let Some(key) = m.key.as_deref() {
                        by_key.entry(key).or_insert(i);
                    }
                }
            }
        }

        // Phase D: finalize rows in point order through the exact cache
        // accounting of the unbatched path — every cacheable point goes
        // through `get_or_compute`, with the already-simulated value as its
        // compute closure, so hit/miss counters and cached values match the
        // unbatched run.
        let finalize = |i: usize, engine: &mut SimEngine| -> Result<SweepRow> {
            let point = &chunk[i];
            let entry = entries[i].as_ref().map_err(Clone::clone)?;
            let m = mapped[i].as_ref().map_err(Clone::clone)?;
            let role = roles[i].expect("mapped points were planned");
            let factory = &entry.factory;
            let effective: &Factory = m.rewired.as_ref().unwrap_or(factory);
            let name = point.strategy.short_name();
            let lane_result = |i: usize| lane_eval[i].clone().expect("lane points were simulated");
            let evaluation = match (eval_cache, m.key.clone()) {
                (Some(cache), Some(key)) => cache.get_or_compute(key, name, || match role {
                    PointRole::Lane => lane_result(i),
                    PointRole::Follower => match by_key.get(m.key.as_deref().unwrap_or_default()) {
                        Some(&lane) => lane_result(lane).map(|mut evaluation| {
                            evaluation.strategy = name.to_string();
                            evaluation
                        }),
                        // Unreachable (a follower always has a lane in its
                        // chunk); recompute solo for safety.
                        None => {
                            evaluate_mapped_with(engine, effective, &m.layout, name, &self.eval)
                        }
                    },
                    PointRole::Cached | PointRole::Solo => {
                        evaluate_mapped_with(engine, effective, &m.layout, name, &self.eval)
                    }
                })?,
                _ => match role {
                    PointRole::Lane => lane_result(i)?,
                    _ => evaluate_mapped_with(engine, effective, &m.layout, name, &self.eval)?,
                },
            };
            let breakdown = if self.collect_breakdowns {
                Some(per_round_breakdown_with(
                    engine,
                    effective,
                    &m.layout,
                    &self.eval.sim,
                )?)
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
        };
        if parallel {
            indices
                .par_iter()
                .map(|&i| with_thread_engine(self.eval.sim, |engine| finalize(i, engine)))
                .collect()
        } else {
            indices
                .iter()
                .map(|&i| with_thread_engine(self.eval.sim, |engine| finalize(i, engine)))
                .collect()
        }
    }
}

/// One mapped chunk point: the layout, the private rewired factory copy (for
/// port-rewiring strategies) and the content address (when caching).
struct MappedPoint {
    layout: Layout,
    rewired: Option<Factory>,
    key: Option<String>,
}

/// How one chunk point obtains its evaluation under lane batching.
#[derive(Debug, Clone, Copy)]
enum PointRole {
    /// Occupies a batch lane (first occurrence of its key in the chunk).
    Lane,
    /// Duplicate of an earlier lane point in the same chunk: answered by
    /// that lane's result through the cache.
    Follower,
    /// The evaluation cache already holds the key: never occupies a lane.
    Cached,
    /// Lane-incompatible (port-rewired circuit, or circuit × lanes would
    /// overflow the wheel's event payload): simulated alone.
    Solo,
}

/// A cached factory plus lazily derived, factory-invariant artifacts shared
/// by every point that maps it.
struct FactoryEntry {
    factory: Factory,
    graph: OnceLock<InteractionGraph>,
}

impl FactoryEntry {
    fn build(config: &FactoryConfig) -> Result<Self> {
        Ok(FactoryEntry {
            factory: Factory::build(config)?,
            graph: OnceLock::new(),
        })
    }
}

type FactoryCache = HashMap<FactoryConfig, Arc<FactoryEntry>>;

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
    }

    #[test]
    fn find_selects_by_label_strategy_and_capacity() {
        let results = small_spec().run().unwrap();
        let row = results.find("g", "Line", 4).unwrap();
        assert_eq!(row.evaluation.factory.capacity(), 4);
        assert!(results.find("g", "HS", 4).is_none());
        assert_eq!(results.labeled("g").count(), 4);
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
    fn batch_stats_account_for_every_point() {
        let spec = small_spec();
        let outcome = spec.run_with(&RunControl::default()).unwrap();
        let stats = outcome.batch;
        assert_eq!(stats.lane_capacity, DEFAULT_LANES);
        assert_eq!(
            stats.points_batched + stats.points_solo + stats.points_from_cache,
            spec.points.len() as u64
        );
        // The HS point rewires ports and must go solo.
        assert!(stats.points_solo >= 1);
        assert!(stats.points_batched >= 1);
        assert_eq!(stats.lanes_filled, stats.points_batched);
        assert!(stats.occupancy() > 0.0 && stats.occupancy() <= 1.0);
        // Serial planning produces the same counters.
        let serial = spec.run_serial_with(&RunControl::default()).unwrap();
        assert_eq!(serial.batch, stats);
    }

    #[test]
    fn batch_stats_are_zero_when_batching_is_off() {
        let outcome = small_spec()
            .with_lanes(0)
            .run_with(&RunControl::default())
            .unwrap();
        assert_eq!(outcome.batch, BatchStats::default());
        assert_eq!(outcome.batch.occupancy(), 0.0);
    }

    #[test]
    fn duplicate_points_share_one_lane_via_the_cache() {
        // Four copies of one point: one occupies a lane, the rest follow it
        // through the eval cache, and the counters match an unbatched run.
        let mut spec = SweepSpec::new("dup", EvaluationConfig::default());
        for _ in 0..4 {
            spec = spec.point("p", FactoryConfig::single_level(2), Strategy::linear());
        }
        let outcome = spec.run_with(&RunControl::default()).unwrap();
        assert_eq!(outcome.batch.points_batched, 1);
        assert_eq!(outcome.batch.points_from_cache, 3);
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
