//! The parallel sweep engine: declarative grids of
//! `FactoryConfig × Strategy` points evaluated with a shared factory cache.
//!
//! The paper's entire evaluation (Figs. 6–10, Table I) is a grid sweep over
//! factory capacity, level count, reuse policy, mapping strategy and seed.
//! This module turns such a sweep into data: a [`SweepSpec`] lists the points
//! once, and [`SweepSpec::run`] executes them in parallel with each distinct
//! [`FactoryConfig`] built exactly once and shared immutably across every
//! strategy and seed that maps it. Strategies never mutate the factory —
//! port-rewiring decisions travel on the layout as a `PortAssignment` and
//! are applied to a private copy per point — which is what makes the sharing
//! sound.
//!
//! This is the crate's one evaluation path: [`crate::evaluate`] is a
//! one-point sweep, a portfolio search evaluates each candidate batch as a
//! one-chunk sub-sweep, and a stream derives its service times from one
//! sub-sweep. Every simulation runs on the thread's one
//! [`BatchEngine`](msfu_sim::BatchEngine) — lane groups as wide batches,
//! every other point and each round breakdown as a one-lane batch.
//!
//! A parallel run keeps one worker pool for its whole length
//! (`std::thread::scope`, sized by `RAYON_NUM_THREADS` when set, else by the
//! CPU count). Its 32-point chunks overlap: workers map, simulate and
//! finish points earliest chunk first and, within a chunk, the largest lane
//! group first, while the calling thread plans each point in point order,
//! records evaluations to the cache and streams rows. At most two chunks
//! are mapped ahead of the oldest chunk whose rows are not yet streamed,
//! and lane groups never cross a chunk. A serial run — or a pool of one
//! thread — runs the same tasks on the calling thread.
//!
//! Results are deterministic: a parallel and a serial run (the mode rides
//! the [`RunControl`] given to [`SweepSpec::run_with`]) produce identical
//! [`SweepResults`] regardless of thread count or interleaving, because
//! every point's evaluation is a pure function of the point and row order
//! follows point order.
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

use serde::Serialize;

use msfu_distill::FactoryConfig;
use msfu_graph::metrics::MappingMetrics;
use msfu_sim::MAX_LANES;

use crate::cache::open_eval_cache;
use crate::pipeline::RoundBreakdown;
use crate::progress::{Outcome, ProgressEvent, RunControl};
use crate::schedule::{schedule, FactoryTable, Job};
use crate::{Evaluation, EvaluationConfig, Result, Strategy};

/// Points per chunk: the unit lane groups are formed in and parallel runs
/// stream and report (one `BatchFinished` event per chunk). It is a fixed
/// constant (not thread-count derived) so the lane groups, and with them
/// the simulations, and the progress-event stream of a given spec are
/// identical on every machine; a parallel run maps at most two chunks
/// beyond the oldest unstreamed one, which bounds the rows it holds back.
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
    /// Share one content-addressed [`EvalCache`](crate::EvalCache) across
    /// the run's workers so duplicate `(factory, layout, eval config)` points
    /// simulate once.
    /// Enabled by default; results are byte-identical either way (the cache
    /// key is the full content, never a lossy hash).
    pub use_eval_cache: bool,
    /// Lane-batching width: lane-compatible points (same built factory, same
    /// grid dimensions) are simulated up to `lanes` at a time through one
    /// shared event wheel ([`BatchEngine`](msfu_sim::BatchEngine)). Rows are
    /// byte-identical at any width; `0` or `1` disables batching, so every
    /// point simulates solo through the same scheduler. Defaults to
    /// [`DEFAULT_LANES`]; values above [`MAX_LANES`] are clamped. Groups
    /// form within one [`SWEEP_BATCH`](self)-point chunk, in point order, so
    /// they are the same serial or parallel at any thread count; a parallel
    /// pool simulates each chunk's largest group (lanes × circuit gates)
    /// first.
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepResults {
    /// The sweep's name.
    pub name: String,
    /// One row per point, in the spec's point order.
    pub rows: Vec<SweepRow>,
}

impl SweepResults {
    /// The rows of `label` mapped by the strategy with short name `strategy`
    /// at total factory capacity `capacity`, in point order. A linear scan:
    /// the largest harness report has about a hundred rows.
    pub fn rows<'s: 'a, 'a>(
        &'s self,
        label: &'a str,
        strategy: &'a str,
        capacity: usize,
    ) -> impl Iterator<Item = &'s SweepRow> + 'a {
        self.rows.iter().filter(move |r| {
            r.label == label
                && r.evaluation.strategy == strategy
                && r.evaluation.factory.capacity() == capacity
        })
    }

    /// The first of [`SweepResults::rows`].
    pub fn find(&self, label: &str, strategy: &str, capacity: usize) -> Option<&SweepRow> {
        self.rows(label, strategy, capacity).next()
    }

    /// Of [`SweepResults::rows`], the one with the smallest quantum volume —
    /// how the paper picks each strategy's better reuse policy for its final
    /// plots (Section VIII-C1).
    pub fn best_reuse(&self, label: &str, strategy: &str, capacity: usize) -> Option<&SweepRow> {
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
    /// The run spawns one worker pool for its whole length, of
    /// `RAYON_NUM_THREADS` threads when that variable holds a positive
    /// number (the variable the `rayon` crate reads, so existing pins keep
    /// working), else one per available CPU. At one thread the calling
    /// thread runs everything and nothing is spawned. Each distinct
    /// `FactoryConfig` is built once, by the first task that needs it, and
    /// shared immutably by all points that use it. Results are in point
    /// order and identical to a serial run's (see [`SweepSpec::run_with`]).
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error — the same error a serial run returns: a factory
    /// that fails to build fails at the first point using it, not before the
    /// run starts.
    pub fn run(&self) -> Result<SweepResults> {
        Ok(self.run_with(&RunControl::default())?.payload)
    }

    /// [`SweepSpec::run`] under a [`RunControl`], in the mode it sets. Rows
    /// stream to the control's sink in point order, and a run whose control
    /// is already interrupted builds nothing.
    ///
    /// * **Parallel** (the default): rows stream a whole
    ///   [`SWEEP_BATCH`](self)-point chunk at a time, each chunk followed by
    ///   one `BatchFinished` event and a check for cancellation/deadline.
    ///   Chunks overlap on the pool: while the last lane groups of one chunk
    ///   simulate, idle workers map and simulate the next ones (at most two
    ///   ahead of the oldest unstreamed chunk), taking each chunk's largest
    ///   lane group first. Workers take no task once the control is
    ///   interrupted, so an interrupted run overruns by at most one task per
    ///   worker, and it returns the whole chunks streamed so far.
    /// * **Serial** ([`RunControl::with_serial`]): the calling thread runs
    ///   the same tasks, one at a time and earliest chunk first, so lane
    ///   groups still form per chunk and nothing is spawned. Rows stream one
    ///   at a time, followed by one `BatchFinished` event at the end, and
    ///   cancellation/deadline are honoured between rows and between tasks,
    ///   so an interrupted run returns a row prefix cut where it noticed,
    ///   after at most one task of overrun. The calling thread's simulator
    ///   engine is reused across calls, so a long-lived process (e.g.
    ///   `msfu serve`) pays the arena allocations once, not per job.
    ///
    /// An interrupted run sets [`Outcome::interrupted`]; it is never an
    /// error. Row values are identical in both modes, and a run with the
    /// default control behaves byte-for-byte like [`SweepSpec::run`].
    ///
    /// # Errors
    ///
    /// Returns the first (in point order) factory-construction, placement or
    /// simulation error among the points that ran, after the rows before it.
    pub fn run_with(&self, ctrl: &RunControl<'_>) -> Result<Outcome<SweepResults>> {
        let total = self.points.len();
        let mut rows: Vec<SweepRow> = Vec::with_capacity(total);
        let eval_cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        let interrupted = ctrl.interrupted() || {
            let factories = FactoryTable::new(self.points.iter().map(|p| &p.factory));
            let job = Job {
                spec: self,
                factories: &factories,
                cache: eval_cache.as_ref(),
                chunk_len: SWEEP_BATCH,
            };
            schedule(&job, ctrl, &mut |row| {
                let index = rows.len();
                rows.push(row?);
                ctrl.emit(&ProgressEvent::RowCompleted {
                    name: &self.name,
                    index,
                    total,
                    row: &rows[index],
                });
                Ok(())
            })?
        };
        if ctrl.serial() {
            self.emit_batch_finished(ctrl, rows.len());
        }

        Ok(Outcome {
            payload: SweepResults {
                name: self.name.clone(),
                rows,
            },
            interrupted,
            cache: eval_cache.map(|c| c.stats()).unwrap_or_default(),
        })
    }

    pub(crate) fn emit_batch_finished(&self, ctrl: &RunControl<'_>, completed: usize) {
        ctrl.emit(&ProgressEvent::BatchFinished {
            name: &self.name,
            completed,
            total: self.points.len(),
        });
    }

    /// The effective lane width: `lanes` clamped to [`MAX_LANES`], or 0 when
    /// batching is off.
    pub(crate) fn lane_width(&self) -> usize {
        if self.lanes > 1 {
            self.lanes.min(MAX_LANES)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, CacheStats};
    use msfu_distill::ReusePolicy;
    use msfu_layout::StitchingConfig;

    /// A serial run's rows.
    fn run_serial(spec: &SweepSpec) -> Result<SweepResults> {
        Ok(spec
            .run_with(&RunControl::default().with_serial(true))?
            .payload)
    }

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
        let serial = run_serial(&spec).unwrap();
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
        assert!(run_serial(&spec).is_err());
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
        assert_eq!(parallel, run_serial(&spec).unwrap_err().to_string());
        assert!(parallel.contains("bogus"), "{parallel}");
    }

    #[test]
    fn find_selects_by_label_strategy_and_capacity() {
        let results = small_spec().run().unwrap();
        let row = results.find("g", "Line", 4).unwrap();
        assert_eq!(row.evaluation.factory.capacity(), 4);
        assert!(results.find("g", "HS", 4).is_none());
        assert_eq!(results.rows("g", "Line", 4).count(), 1);
    }

    #[test]
    fn best_reuse_picks_the_smaller_volume() {
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
        let best = results.best_reuse("x", "Line", 4).unwrap();
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
                run_serial(&batched).unwrap(),
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
        assert_eq!(run_serial(&spec.with_lanes(4)).unwrap(), reference);
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
        assert_eq!(outcome.payload, unbatched.payload);
        assert_eq!(outcome.cache, unbatched.cache);
    }

    #[test]
    fn batched_errors_propagate_in_point_order() {
        let spec = SweepSpec::new("t", EvaluationConfig::default())
            .point("ok", FactoryConfig::single_level(2), Strategy::linear())
            .point("bad", FactoryConfig::new(0, 1), Strategy::linear())
            .with_lanes(4);
        assert!(spec.run().is_err());
        assert!(run_serial(&spec).is_err());
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
            .with_cancel(token)
            .with_serial(!parallel);
        spec.run_with(&ctrl).unwrap();
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
