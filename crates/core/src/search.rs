//! Portfolio search over the strategy line-up.
//!
//! The paper compares a fixed line-up of five strategies; with the
//! event-driven engine making simulation cheap and strategies being plain
//! data, a better question becomes *which strategy variant and seed
//! minimises the objective for this factory*. This module answers it with a
//! portfolio search: a set of [`PortfolioEntry`] templates (e.g. randomised
//! placement over an expansion ladder, force-directed over a temperature
//! ladder, graph partitioning over seeds) is expanded into a deterministic
//! candidate stream, evaluated in parallel batches through the sweep
//! engine's lane-batched run scheduler — with the best-so-far
//! *incumbent* tracked after every batch and the search stopping early when
//! the incumbent stops improving (or a target is reached).
//!
//! Results are deterministic: a parallel and a serial run (the mode rides
//! the [`RunControl`] given to [`SearchSpec::run_with`]) report the same
//! search regardless of thread count, because candidate generation is
//! index-based, every evaluation is a pure function of the candidate, and
//! incumbents are folded in candidate order.
//!
//! # Example
//!
//! ```
//! use msfu_core::{EvaluationConfig, SearchSpec};
//! use msfu_distill::FactoryConfig;
//!
//! let mut spec = SearchSpec::new(
//!     "demo",
//!     EvaluationConfig::default(),
//!     FactoryConfig::single_level(2),
//! );
//! spec.budget = 8;
//! spec.batch_size = 4;
//! spec.portfolio = SearchSpec::paper_portfolio(0);
//! let report = spec.run().unwrap();
//! assert!(report.evaluations <= 8);
//! assert!(report.incumbent.is_some());
//! ```

use serde::{Serialize, Value};

use msfu_distill::FactoryConfig;
use msfu_layout::{
    check_mapper_name, ForceDirectedConfig, MapperParams, ParamValue, StitchingConfig,
};

use crate::cache::{open_eval_cache, CacheStats};
use crate::progress::{Outcome, ProgressEvent, RunControl};
use crate::schedule::{schedule, FactoryTable, Job};
use crate::spec::{
    eval_from_json, factory_from_json, fields, params_from_json, spec_err, strategy_from_json,
    Fields,
};
use crate::sweep::{SweepPoint, SweepResults, SweepRow, SweepSpec};
use crate::{CoreError, Evaluation, EvaluationConfig, Result, Strategy};

/// Hard cap on `batch_size`, so a typo'd size fails fast as a typed spec
/// error instead of reserving memory for the batch up front.
const MAX_BATCH_SIZE: usize = 4_096;

/// What the search minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Objective {
    /// Realised circuit latency in cycles.
    Latency,
    /// Space-time (quantum) volume — the paper's headline metric.
    #[default]
    Volume,
}

impl Objective {
    /// The objective's value on an evaluation.
    pub fn value(self, evaluation: &Evaluation) -> u64 {
        match self {
            Objective::Latency => evaluation.latency_cycles,
            Objective::Volume => evaluation.volume,
        }
    }

    /// Short name used by specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Latency => "latency",
            Objective::Volume => "volume",
        }
    }

    /// Parses [`Objective::name`] back.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "latency" => Some(Objective::Latency),
            "volume" => Some(Objective::Volume),
            _ => None,
        }
    }
}

/// Why a search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub enum StopReason {
    /// The evaluation budget was exhausted.
    BudgetExhausted,
    /// Every portfolio entry ran out of distinct candidates before the
    /// budget did (only possible when no entry is seeded).
    PortfolioExhausted,
    /// No batch improved the incumbent for `patience` consecutive batches.
    Converged,
    /// The incumbent reached the requested target value.
    TargetReached,
    /// The run was cancelled (or hit its deadline) at a batch boundary; the
    /// report covers the batches that completed.
    Cancelled,
}

/// One template of the search portfolio: a strategy plus the parameter
/// ladder and seeding rule its candidates are expanded from.
///
/// `#[non_exhaustive]`: construct with [`PortfolioEntry::seed_scan`] or
/// [`PortfolioEntry::fixed`] and refine with the builder methods.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PortfolioEntry {
    /// Report label for candidates of this entry (becomes
    /// [`Evaluation::strategy`]).
    pub label: String,
    /// The base strategy (line-up key + base parameters).
    pub template: Strategy,
    /// Parameter overrides cycled over the entry's candidate stream
    /// (candidate *n* applies `ladder[n % ladder.len()]`); empty for a plain
    /// seed scan.
    pub ladder: Vec<MapperParams>,
    /// Whether candidate *n* overrides the `seed` parameter with
    /// `base seed + n` (disable for deterministic mappers such as `linear`,
    /// which reject a seed parameter).
    pub seeded: bool,
}

impl PortfolioEntry {
    /// A seeded entry with no parameter ladder, labelled by the template's
    /// short name.
    pub fn seed_scan(template: Strategy) -> Self {
        PortfolioEntry {
            label: template.short_name().to_string(),
            template,
            ladder: Vec::new(),
            seeded: true,
        }
    }

    /// A single fixed candidate (no ladder, no seeding) — e.g. the
    /// deterministic linear baseline.
    pub fn fixed(template: Strategy) -> Self {
        PortfolioEntry {
            label: template.short_name().to_string(),
            template,
            ladder: Vec::new(),
            seeded: false,
        }
    }

    /// Attaches a parameter ladder (builder style).
    pub fn with_ladder(mut self, ladder: Vec<MapperParams>) -> Self {
        self.ladder = ladder;
        self
    }

    /// How many *distinct* candidates the entry can produce: unbounded for
    /// seeded entries, one per ladder rung otherwise. The search skips an
    /// entry once its distinct candidates are used up, so a fixed entry (the
    /// linear baseline) is evaluated exactly once instead of burning budget
    /// on identical re-runs every round-robin pass.
    fn distinct_candidates(&self) -> usize {
        if self.seeded {
            usize::MAX
        } else {
            self.ladder.len().max(1)
        }
    }

    /// The entry's `n`-th candidate strategy, derived from `base_seed`.
    fn candidate(&self, n: usize, base_seed: u64) -> Strategy {
        let mut strategy = self.template.clone().with_label(self.label.clone());
        if !self.ladder.is_empty() {
            for (key, value) in self.ladder[n % self.ladder.len()].iter() {
                strategy = strategy.with_param(key, value.clone());
            }
        }
        if self.seeded {
            let seed = match self.template.params().get("seed") {
                Some(ParamValue::U64(s)) => *s,
                _ => base_seed,
            };
            strategy = strategy.with_param("seed", ParamValue::U64(seed.wrapping_add(n as u64)));
        }
        strategy
    }
}

/// A declarative portfolio search: one factory configuration, an objective,
/// a candidate budget and the portfolio to draw candidates from.
///
/// `#[non_exhaustive]`: construct with [`SearchSpec::new`] (fields remain
/// public for reads and assignment) so the spec — and the JSON protocol
/// carrying it — can grow fields without a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchSpec {
    /// Search name (carried into reports).
    pub name: String,
    /// Simulator configuration shared by every candidate.
    pub eval: EvaluationConfig,
    /// The factory configuration to optimise (built once, shared immutably).
    pub factory: FactoryConfig,
    /// The metric to minimise.
    pub objective: Objective,
    /// Maximum number of candidate evaluations.
    pub budget: usize,
    /// Candidates evaluated per parallel batch (early stopping is checked
    /// between batches).
    pub batch_size: usize,
    /// Stop after this many consecutive batches without incumbent
    /// improvement; `0` disables convergence-based stopping.
    pub patience: usize,
    /// Stop as soon as the incumbent objective is ≤ this value.
    pub target: Option<u64>,
    /// Base seed for entries whose template carries no explicit `seed`.
    pub seed: u64,
    /// The candidate templates, interleaved round-robin.
    pub portfolio: Vec<PortfolioEntry>,
    /// Share one content-addressed [`EvalCache`](crate::EvalCache) across
    /// the search's workers so candidates converging to the same layout
    /// simulate once. Enabled by default; reports are byte-identical either
    /// way.
    pub use_eval_cache: bool,
    /// Root directory of the persistent cache tier (see
    /// [`SweepSpec::cache_dir`]): candidates already simulated by an
    /// earlier run — or by another process sharing the directory — are
    /// served from disk. Reports are byte-identical with or without it.
    /// `None` (default) keeps the cache memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl SearchSpec {
    /// Creates a search with an empty portfolio and defaults: volume
    /// objective, budget 64, batch size 16, patience 2, no target, seed 0.
    pub fn new(name: impl Into<String>, eval: EvaluationConfig, factory: FactoryConfig) -> Self {
        SearchSpec {
            name: name.into(),
            eval,
            factory,
            objective: Objective::Volume,
            budget: 64,
            batch_size: 16,
            patience: 2,
            target: None,
            seed: 0,
            portfolio: Vec::new(),
            use_eval_cache: true,
            cache_dir: None,
        }
    }

    /// The default portfolio built from the paper line-up: the deterministic
    /// linear baseline, a graph-partitioning seed scan, randomised placement
    /// over an expansion ladder (packed → slack), a force-directed
    /// temperature ladder, and hierarchical stitching over seeds (HS targets
    /// multi-level factories but maps single-level ones too, so it is always
    /// included). Candidate 0 of every entry is the exact paper line-up
    /// member, so the search incumbent is never worse than the best paper
    /// strategy once one full round-robin pass has been evaluated.
    pub fn paper_portfolio(seed: u64) -> Vec<PortfolioEntry> {
        vec![
            PortfolioEntry::fixed(Strategy::linear()),
            PortfolioEntry::seed_scan(Strategy::graph_partition(seed)),
            PortfolioEntry::seed_scan(Strategy::random(seed)).with_ladder(vec![
                MapperParams::new(),
                MapperParams::new().with_f64("expansion", 1.2),
                MapperParams::new().with_f64("expansion", 1.5),
            ]),
            PortfolioEntry::seed_scan(Strategy::force_directed(ForceDirectedConfig {
                seed,
                ..ForceDirectedConfig::default()
            }))
            .with_ladder(vec![
                MapperParams::new(),
                MapperParams::new().with_f64("temperature", 1.0),
                MapperParams::new().with_f64("temperature", 4.0),
            ]),
            PortfolioEntry::seed_scan(Strategy::hierarchical_stitching(StitchingConfig {
                seed,
                ..StitchingConfig::default()
            })),
        ]
    }

    /// The `g`-th candidate of the interleaved stream: entries round-robin,
    /// each advancing its own ladder/seed counter.
    fn candidate(&self, g: usize) -> Strategy {
        let entries = self.portfolio.len();
        let entry = &self.portfolio[g % entries];
        entry.candidate(g / entries, self.seed)
    }

    fn validate(&self) -> Result<()> {
        let fail = |reason: &str| {
            Err(CoreError::Spec {
                reason: format!("search `{}`: {reason}", self.name),
            })
        };
        if self.portfolio.is_empty() {
            return fail("the portfolio is empty");
        }
        if self.budget == 0 {
            return fail("budget must be at least 1");
        }
        if self.batch_size == 0 {
            return fail("batch_size must be at least 1");
        }
        if self.batch_size > MAX_BATCH_SIZE {
            return fail(&format!("batch_size must be at most {MAX_BATCH_SIZE}"));
        }
        Ok(())
    }

    /// Runs the search with batches evaluated across all cores.
    ///
    /// # Errors
    ///
    /// Returns a spec error for an empty portfolio, a zero budget, or a batch
    /// size of zero or above 4 096, and propagates the first (in candidate
    /// order) factory, mapping or simulation failure.
    pub fn run(&self) -> Result<SearchReport> {
        Ok(self.run_with(&RunControl::default())?.payload)
    }

    /// [`SearchSpec::run`] under a [`RunControl`]: incumbent improvements and
    /// batch completions stream to the control's sink, and
    /// cancellation/deadline are honoured between batches. A serial control
    /// evaluates each batch on the calling thread; the report is identical
    /// either way. An interrupted search ends with [`StopReason::Cancelled`]
    /// and reports the candidates evaluated so far.
    ///
    /// # Errors
    ///
    /// As [`SearchSpec::run`].
    pub fn run_with(&self, ctrl: &RunControl<'_>) -> Result<Outcome<SearchReport>> {
        self.validate()?;
        // The one factory is built now, so a failed build fails the search
        // before its first batch.
        let factories = FactoryTable::new([&self.factory]);
        factories.get(&self.factory)?;
        // Check every entry's key up front, so an unknown key fails before
        // the first batch rather than when its candidate comes up.
        for entry in &self.portfolio {
            check_mapper_name(entry.template.key())?;
        }
        let cache = open_eval_cache(self.use_eval_cache, self.cache_dir.as_deref())?;
        // Each candidate batch is a one-chunk sub-sweep over the one shared
        // factory, run through the sweep's scheduler and the search's cache.
        // Its control carries only the mode: the fold honours cancellation
        // and deadlines between batches, so an in-flight batch completes.
        let batch_ctrl = RunControl::default().with_serial(ctrl.serial());
        let mut sweep =
            SweepSpec::new(self.name.clone(), self.eval).with_eval_cache(self.use_eval_cache);
        let mut outcome = self.run_with_evaluator(ctrl, |batch| {
            sweep.points = batch
                .iter()
                .map(|(_, strategy)| SweepPoint::new("", self.factory, strategy.clone()))
                .collect();
            let job = Job {
                spec: &sweep,
                factories: &factories,
                cache: cache.as_ref(),
                chunk_len: batch.len(),
            };
            let mut evaluations = Vec::with_capacity(batch.len());
            schedule(&job, &batch_ctrl, &mut |row| {
                evaluations.push(row.map(|row| row.evaluation));
                Ok(())
            })?;
            Ok(evaluations)
        })?;
        outcome.cache = cache.map(|c| c.stats()).unwrap_or_default();
        Ok(outcome)
    }

    /// The search fold with candidate evaluation delegated to a caller
    /// closure: the batch-building, incumbent-tracking and stopping logic of
    /// [`SearchSpec::run_with`], with each batch of `(position, candidate)`
    /// pairs handed to `evaluate_batch` instead of being evaluated locally.
    ///
    /// This is the hook a cluster coordinator uses to fan candidate batches
    /// out to remote workers while keeping the fold — and therefore the
    /// report, trajectory and stop reason — byte-identical to a serial run.
    /// The closure must return exactly one `Result<Evaluation>` per
    /// candidate, in batch order; a batch-level failure (`Err` on the outer
    /// `Result`) aborts the search. The returned outcome carries default
    /// (all-zero) cache counters, since this fold never sees a cache.
    ///
    /// # Errors
    ///
    /// Returns a spec error for an empty portfolio, a zero budget, or a batch
    /// size of zero or above 4 096, and propagates the first (in candidate
    /// order) evaluation error the closure reports.
    pub fn run_with_evaluator<F>(
        &self,
        ctrl: &RunControl<'_>,
        mut evaluate_batch: F,
    ) -> Result<Outcome<SearchReport>>
    where
        F: FnMut(&[(usize, Strategy)]) -> Result<Vec<Result<Evaluation>>>,
    {
        self.validate()?;

        // Positions in the stream beyond an entry's distinct-candidate count
        // are skipped, so the effective budget is capped by the number of
        // distinct candidates the whole portfolio can produce.
        let distinct: Vec<usize> = self
            .portfolio
            .iter()
            .map(PortfolioEntry::distinct_candidates)
            .collect();
        let total_distinct = distinct
            .iter()
            .fold(0usize, |acc, &d| acc.saturating_add(d));
        let effective_budget = self.budget.min(total_distinct);
        let exhausted = |evaluated: usize| {
            if evaluated >= self.budget {
                StopReason::BudgetExhausted
            } else {
                StopReason::PortfolioExhausted
            }
        };

        let mut incumbent: Option<Incumbent> = None;
        let mut entry_bests: Vec<Option<Incumbent>> = vec![None; self.portfolio.len()];
        let mut trajectory: Vec<TrajectoryPoint> = Vec::new();
        let mut evaluated = 0usize;
        let mut batches = 0usize;
        let mut stalled = 0usize;
        let mut next_g = 0usize;
        let stop;

        'search: loop {
            if ctrl.interrupted() {
                stop = StopReason::Cancelled;
                break;
            }
            let mut batch: Vec<(usize, Strategy)> = Vec::with_capacity(self.batch_size);
            // Terminates: the stream holds at least `effective_budget`
            // distinct positions, and `evaluated + batch.len()` is bounded
            // by it.
            while batch.len() < self.batch_size && evaluated + batch.len() < effective_budget {
                let g = next_g;
                next_g += 1;
                if g / self.portfolio.len() >= distinct[g % self.portfolio.len()] {
                    continue; // this entry has no further distinct candidates
                }
                batch.push((g, self.candidate(g)));
            }
            if batch.is_empty() {
                stop = exhausted(evaluated);
                break;
            }
            let evaluations = evaluate_batch(&batch)?;
            if evaluations.len() != batch.len() {
                return Err(CoreError::Remote {
                    code: "E_REMOTE".to_string(),
                    message: format!(
                        "search `{}`: evaluator returned {} evaluations for a batch of {}",
                        self.name,
                        evaluations.len(),
                        batch.len()
                    ),
                });
            }

            let mut improved = false;
            for ((g, strategy), evaluation) in batch.iter().zip(evaluations) {
                let evaluation = evaluation?;
                evaluated += 1;
                let value = self.objective.value(&evaluation);
                let entry = g % self.portfolio.len();
                let candidate = Incumbent {
                    candidate: *g,
                    entry: entry as u64,
                    strategy: strategy.clone(),
                    value,
                    evaluation,
                };
                if entry_bests[entry]
                    .as_ref()
                    .map_or(true, |best| value < best.value)
                {
                    entry_bests[entry] = Some(candidate.clone());
                }
                if incumbent.as_ref().map_or(true, |best| value < best.value) {
                    trajectory.push(TrajectoryPoint {
                        evaluation: *g as u64,
                        value,
                    });
                    ctrl.emit(&ProgressEvent::IncumbentImproved {
                        name: &self.name,
                        candidate: *g,
                        value,
                        strategy,
                    });
                    incumbent = Some(candidate);
                    improved = true;
                }
                if let (Some(target), Some(best)) = (self.target, &incumbent) {
                    if best.value <= target {
                        batches += 1;
                        self.emit_batch(ctrl, batches, evaluated, &incumbent);
                        stop = StopReason::TargetReached;
                        break 'search;
                    }
                }
            }
            batches += 1;
            self.emit_batch(ctrl, batches, evaluated, &incumbent);
            stalled = if improved { 0 } else { stalled + 1 };
            if evaluated >= effective_budget {
                stop = exhausted(evaluated);
                break;
            }
            if self.patience > 0 && stalled >= self.patience {
                stop = StopReason::Converged;
                break;
            }
        }

        Ok(Outcome {
            interrupted: stop == StopReason::Cancelled,
            cache: CacheStats::default(),
            payload: SearchReport {
                name: self.name.clone(),
                objective: self.objective,
                factory: self.factory,
                evaluations: evaluated,
                batches,
                stop,
                incumbent,
                trajectory,
                entry_bests: entry_bests.into_iter().flatten().collect(),
            },
        })
    }

    /// Emits one `SearchBatchFinished` event.
    fn emit_batch(
        &self,
        ctrl: &RunControl<'_>,
        batch: usize,
        evaluated: usize,
        incumbent: &Option<Incumbent>,
    ) {
        ctrl.emit(&ProgressEvent::SearchBatchFinished {
            name: &self.name,
            batch,
            evaluated,
            incumbent: incumbent.as_ref().map(|i| i.value),
        });
    }

    /// Decodes a search declared as JSON data.
    ///
    /// The document mirrors [`SweepSpec::from_json`](crate::SweepSpec) for
    /// the shared pieces (`eval`, `factory`, strategy objects) and adds:
    /// `objective` (`"latency"`/`"volume"`), `budget`, `batch_size`,
    /// `patience`, `target`, `seed`, and `portfolio` — an array of
    /// `{label?, strategy, ladder?, seeded?}` entries whose `ladder` is an
    /// array of parameter-override objects.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Spec`] naming the offending field.
    pub fn from_json(text: &str) -> Result<Self> {
        let root = serde_json::from_str(text).map_err(|e| CoreError::Spec {
            reason: format!("search spec is not valid JSON: {e}"),
        })?;
        Self::from_value(&root)
    }

    /// Decodes an already-parsed search-spec document — the embedded form
    /// used by the service protocol, where the spec is one field of a
    /// request object.
    ///
    /// # Errors
    ///
    /// As [`SearchSpec::from_json`].
    pub fn from_value(root: &Value) -> Result<Self> {
        let mut f = fields(root, "search")?;
        let name = f.str("name")?;
        let eval = match f.opt_value("eval") {
            Some(v) => eval_from_json(v)?,
            None => EvaluationConfig::default(),
        };
        let factory = factory_from_json(f.value("factory")?)?;
        let mut spec = SearchSpec::new(name, eval, factory);
        if let Some(objective) = f.opt_str("objective")? {
            spec.objective = Objective::from_name(objective).ok_or_else(|| {
                f.error(format_args!(
                    "unknown objective `{objective}` (expected latency or volume)"
                ))
            })?;
        }
        if let Some(budget) = f.opt_u64("budget")? {
            spec.budget = budget as usize;
        }
        if let Some(batch) = f.opt_u64("batch_size")? {
            spec.batch_size = batch as usize;
        }
        if let Some(patience) = f.opt_u64("patience")? {
            spec.patience = patience as usize;
        }
        spec.target = f.opt_u64("target")?;
        if let Some(seed) = f.opt_u64("seed")? {
            spec.seed = seed;
        }
        if let Some(cache) = f.opt_bool("cache")? {
            spec.use_eval_cache = cache;
        }
        spec.cache_dir = f.opt_str("cache_dir")?.map(std::path::PathBuf::from);
        for (i, entry) in f.array("portfolio")?.iter().enumerate() {
            let mut e = Fields::item(entry, "portfolio", i, spec_err)?;
            let template = strategy_from_json(e.value("strategy")?)?;
            let label = match e.opt_str("label")? {
                Some(label) => label,
                None => template.short_name(),
            }
            .to_string();
            let ladder = e
                .opt_array("ladder")?
                .unwrap_or_default()
                .iter()
                .map(params_from_json)
                .collect::<Result<_>>()?;
            let seeded = e.opt_bool("seeded")?.unwrap_or(true);
            e.finish()?;
            spec.portfolio.push(PortfolioEntry {
                label,
                template,
                ladder,
                seeded,
            });
        }
        f.finish()?;
        Ok(spec)
    }
}

/// A best-so-far candidate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Incumbent {
    /// Global candidate index (order in the deterministic stream).
    pub candidate: usize,
    /// Index of the portfolio entry the candidate came from.
    pub entry: u64,
    /// The concrete strategy (key + resolved parameters).
    pub strategy: Strategy,
    /// Objective value.
    pub value: u64,
    /// Full evaluation record.
    pub evaluation: Evaluation,
}

/// One improvement of the incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TrajectoryPoint {
    /// Candidate index at which the improvement happened.
    pub evaluation: u64,
    /// The new incumbent objective value.
    pub value: u64,
}

/// The outcome of a portfolio search.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SearchReport {
    /// The search's name.
    pub name: String,
    /// The minimised objective.
    pub objective: Objective,
    /// The factory configuration searched over.
    pub factory: FactoryConfig,
    /// Number of candidates evaluated.
    pub evaluations: usize,
    /// Number of batches executed.
    pub batches: usize,
    /// Why the search ended.
    pub stop: StopReason,
    /// The best candidate found (`None` only for an unreachable empty run —
    /// validation requires budget ≥ 1, so a completed search always has one).
    pub incumbent: Option<Incumbent>,
    /// Incumbent improvements in candidate order.
    pub trajectory: Vec<TrajectoryPoint>,
    /// The best candidate of every portfolio entry that produced one.
    pub entry_bests: Vec<Incumbent>,
}

impl SearchReport {
    /// Renders the report as [`SweepResults`] rows so search outputs plug
    /// into the existing report tooling (`bench-diff` gating, JSON reports):
    /// one `portfolio/<label>` row per entry best plus an `incumbent` row.
    pub fn to_sweep_results(&self) -> SweepResults {
        let mut rows: Vec<SweepRow> = self
            .entry_bests
            .iter()
            .map(|best| SweepRow {
                label: "portfolio".to_string(),
                evaluation: best.evaluation.clone(),
                breakdown: None,
                metrics: None,
            })
            .collect();
        if let Some(incumbent) = &self.incumbent {
            rows.push(SweepRow {
                label: "incumbent".to_string(),
                evaluation: incumbent.evaluation.clone(),
                breakdown: None,
                metrics: None,
            });
        }
        SweepResults {
            name: self.name.clone(),
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_sim::SimConfig;

    /// A serial run's report.
    fn run_serial(spec: &SearchSpec) -> Result<SearchReport> {
        Ok(spec
            .run_with(&RunControl::default().with_serial(true))?
            .payload)
    }

    fn quick_spec() -> SearchSpec {
        let eval = EvaluationConfig::default().with_sim(SimConfig::dimension_ordered());
        let mut spec = SearchSpec::new("t", eval, FactoryConfig::single_level(2));
        spec.budget = 12;
        spec.batch_size = 4;
        spec.patience = 2;
        spec.portfolio = vec![
            PortfolioEntry::fixed(Strategy::linear()),
            PortfolioEntry::seed_scan(Strategy::random(1)).with_ladder(vec![
                MapperParams::new(),
                MapperParams::new().with_f64("expansion", 1.5),
            ]),
        ];
        spec
    }

    #[test]
    fn parallel_and_serial_searches_are_identical() {
        let spec = quick_spec();
        let parallel = spec.run().unwrap();
        let serial = run_serial(&spec).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn incumbent_is_the_minimum_of_all_entry_bests() {
        let report = quick_spec().run().unwrap();
        let incumbent = report.incumbent.as_ref().unwrap();
        let min = report
            .entry_bests
            .iter()
            .map(|b| b.value)
            .min()
            .expect("entries produced candidates");
        assert_eq!(incumbent.value, min);
        // Trajectory is strictly decreasing and ends at the incumbent.
        for pair in report.trajectory.windows(2) {
            assert!(pair[1].value < pair[0].value);
        }
        assert_eq!(report.trajectory.last().unwrap().value, incumbent.value);
    }

    #[test]
    fn budget_caps_evaluations() {
        let mut spec = quick_spec();
        spec.patience = 0; // never converge
        spec.budget = 5;
        spec.batch_size = 4;
        let report = spec.run().unwrap();
        assert_eq!(report.evaluations, 5);
        assert_eq!(report.stop, StopReason::BudgetExhausted);
        assert_eq!(report.batches, 2);
    }

    #[test]
    fn target_stops_the_search_early() {
        let mut spec = quick_spec();
        spec.target = Some(u64::MAX); // any candidate reaches it
        let report = spec.run().unwrap();
        assert_eq!(report.stop, StopReason::TargetReached);
        assert_eq!(report.evaluations, 1);
    }

    #[test]
    fn convergence_respects_patience() {
        let mut spec = quick_spec();
        // Two unseeded ladder rungs produce identical layouts (only the
        // grid expansion rounds to the same side), so batch 2 cannot
        // improve on batch 1 and patience 1 converges the search.
        spec.portfolio = vec![PortfolioEntry::fixed(Strategy::random(5)).with_ladder(vec![
            MapperParams::new().with_f64("expansion", 1.0),
            MapperParams::new().with_f64("expansion", 1.001),
            MapperParams::new().with_f64("expansion", 1.002),
        ])];
        spec.batch_size = 1;
        spec.patience = 1;
        spec.budget = 100;
        let report = spec.run().unwrap();
        assert_eq!(report.stop, StopReason::Converged);
        // Batch 1 improves; batch 2 stalls.
        assert_eq!(report.evaluations, 2);
    }

    #[test]
    fn fixed_entries_are_evaluated_exactly_once() {
        let mut spec = quick_spec();
        spec.portfolio = vec![PortfolioEntry::fixed(Strategy::linear())];
        spec.batch_size = 4;
        spec.patience = 0;
        spec.budget = 100;
        let report = spec.run().unwrap();
        // One distinct candidate exists; the search must not re-simulate it.
        assert_eq!(report.evaluations, 1);
        assert_eq!(report.stop, StopReason::PortfolioExhausted);
    }

    #[test]
    fn paper_portfolio_contains_the_full_lineup_as_first_candidates() {
        let seed = 42;
        let portfolio = SearchSpec::paper_portfolio(seed);
        let candidate_zeros: Vec<Strategy> = portfolio
            .iter()
            .map(|e| e.candidate(0, seed).with_label(e.template.short_name()))
            .collect();
        for lineup in Strategy::paper_lineup(seed) {
            assert!(
                candidate_zeros.contains(&lineup),
                "{} missing from the portfolio's first round",
                lineup.short_name()
            );
        }
    }

    #[test]
    fn empty_portfolio_and_zero_budget_are_spec_errors() {
        let mut spec = quick_spec();
        spec.portfolio.clear();
        assert!(spec.run().is_err());
        let mut spec = quick_spec();
        spec.budget = 0;
        assert!(spec.run().is_err());
        let mut spec = quick_spec();
        spec.batch_size = 0;
        assert!(spec.run().is_err());
    }

    #[test]
    fn huge_batch_size_is_a_spec_error() {
        let mut spec = quick_spec();
        spec.batch_size = 1_000_000_000_000_000;
        for err in [spec.run().unwrap_err(), run_serial(&spec).unwrap_err()] {
            assert_eq!(
                err,
                CoreError::Spec {
                    reason: format!("search `{}`: batch_size must be at most 4096", spec.name),
                }
            );
        }
    }

    #[test]
    fn seeded_entries_vary_their_seed_per_candidate() {
        let entry = PortfolioEntry::seed_scan(Strategy::random(10));
        let a = entry.candidate(0, 0);
        let b = entry.candidate(1, 0);
        assert_eq!(a.params().get("seed"), Some(&ParamValue::U64(10)));
        assert_eq!(b.params().get("seed"), Some(&ParamValue::U64(11)));
        // Ladder cycling composes with seeding.
        let laddered = entry.with_ladder(vec![
            MapperParams::new(),
            MapperParams::new().with_f64("expansion", 1.5),
        ]);
        let c = laddered.candidate(3, 0);
        assert_eq!(c.params().get("expansion"), Some(&ParamValue::F64(1.5)));
        assert_eq!(c.params().get("seed"), Some(&ParamValue::U64(13)));
    }

    #[test]
    fn search_spec_parses_from_json() {
        let json = r#"{
            "name": "smoke",
            "eval": {"routing": "dimension-ordered"},
            "factory": {"k": 2},
            "objective": "latency",
            "budget": 6,
            "batch_size": 3,
            "patience": 1,
            "seed": 9,
            "portfolio": [
                {"strategy": {"strategy": "linear"}, "seeded": false},
                {"label": "Rnd", "strategy": {"strategy": "random"},
                 "ladder": [{"expansion": 1.5}]}
            ]
        }"#;
        let spec = SearchSpec::from_json(json).unwrap();
        assert_eq!(spec.objective, Objective::Latency);
        assert_eq!(spec.budget, 6);
        assert_eq!(spec.portfolio.len(), 2);
        assert!(!spec.portfolio[0].seeded);
        assert_eq!(spec.portfolio[1].label, "Rnd");
        assert_eq!(spec.portfolio[1].ladder.len(), 1);
        let report = spec.run().unwrap();
        assert!(report.incumbent.is_some());

        for (bad, needle) in [
            (r#"{"factory": {"k": 2}, "portfolio": []}"#, "name"),
            (r#"{"name": "x", "portfolio": []}"#, "factory"),
            (r#"{"name": "x", "factory": {"k": 2}}"#, "portfolio"),
            (
                r#"{"name": "x", "factory": {"k": 2}, "objective": "beauty", "portfolio": []}"#,
                "objective",
            ),
            // A typo must not silently fall back to a default.
            (
                r#"{"name": "x", "factory": {"k": 2}, "bugdet": 9,
                    "portfolio": [{"strategy": {"strategy": "linear"}}]}"#,
                "bugdet",
            ),
            (
                r#"{"name": "x", "factory": {"k": 2},
                    "portfolio": [{"strategy": {"strategy": "linear"}, "sedeed": true}]}"#,
                "sedeed",
            ),
        ] {
            let err = SearchSpec::from_json(bad).expect_err("must fail");
            assert!(err.to_string().contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn unknown_strategy_keys_fail_before_the_first_batch() {
        // The first candidate meets the target, so only the up-front resolve
        // of every portfolio entry can surface the unknown key.
        let mut spec = quick_spec();
        spec.portfolio.push(PortfolioEntry::fixed(Strategy::new(
            "no_such_mapper",
            MapperParams::new(),
        )));
        spec.batch_size = 1;
        spec.target = Some(u64::MAX);
        for err in [spec.run().unwrap_err(), run_serial(&spec).unwrap_err()] {
            assert!(
                matches!(
                    &err,
                    CoreError::Layout(msfu_layout::LayoutError::UnknownMapper { name, .. })
                        if name == "no_such_mapper"
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn report_rows_plug_into_sweep_results() {
        let report = quick_spec().run().unwrap();
        let results = report.to_sweep_results();
        assert_eq!(results.rows.len(), report.entry_bests.len() + 1);
        assert_eq!(results.rows.last().unwrap().label, "incumbent");
    }
}
