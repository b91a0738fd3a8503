//! The traced run: the benchmark's own code calls each layer of a job in
//! turn — `Request::from_json`, `Factory::build`, `Strategy::map`, the
//! evaluation-cache lookup, the simulation, `Response::to_json` — and
//! records a span around each call. Spans stay in memory and are written out
//! when the run ends.
//!
//! A sweep simulates the way `SweepSpec` does: in chunks of 32 points,
//! lane-compatible points (same factory, same grid size) together through one
//! `BatchEngine`, the rest alone through `effective_factory` +
//! `evaluate_mapped_with` on one `SimEngine`. So `sim.*` sees changes to the
//! lane batcher as the timed runs do.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use msfu_core::{effective_factory, evaluate_mapped_with, Evaluation, EvaluationConfig, Strategy};
use msfu_distill::{Factory, FactoryConfig};
use msfu_layout::Layout;
use msfu_service::{Job, JobHandle, Payload, Request, Response, ResponsePerf, Service};
use msfu_sim::{BatchEngine, BatchLane, SimEngine, SimResult, MAX_LANES};
use serde_json::Value;

/// Points per sweep chunk; `SweepSpec` plans its lane batches per chunk of
/// this many points.
const SWEEP_CHUNK: usize = 32;

/// One recorded span: a layer call of one job.
pub struct Span {
    pub name: String,
    pub job: usize,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// An in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, job: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            job,
            parent: self.stack.last().copied(),
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Self time (span time minus the time its children cover) and call
    /// count per span name.
    pub fn self_times(&self) -> BTreeMap<String, (f64, u64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut totals: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.0 += (span.end - span.start - children).max(0.0);
            entry.1 += 1;
        }
        totals
    }

    /// Σ self time over every span: the time the traced layers account for.
    pub fn layer_total(&self) -> f64 {
        self.self_times().values().map(|(s, _)| s).sum()
    }

    /// Writes every span as one JSON array (name, job, parent, start/end in
    /// seconds from the start of the traced pass).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("job".to_string(), Value::UInt(s.job as u64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("start_s".to_string(), Value::Float(s.start)),
                    ("end_s".to_string(), Value::Float(s.end)),
                ])
            })
            .collect();
        let text = serde_json::to_string(&Value::Array(spans)).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

/// Counters the traced layers produce besides time.
#[derive(Default)]
pub struct LayerCounts {
    pub sim_runs: u64,
    pub sim_cycles: u64,
    pub stall_cycles: u64,
    pub routing_conflicts: u64,
    pub stream_arrivals: u64,
}

/// State shared by the traced jobs of one pass: one solo and one batch
/// simulator engine, the content-addressed evaluation memo standing in for
/// the sweep's cache (it lives for the whole pass, as a persistent cache
/// directory would), and a cache directory for the jobs that run whole
/// through `Service::run`.
pub struct TracedPass {
    pub tracer: Tracer,
    pub counts: LayerCounts,
    engine: SimEngine,
    batch: BatchEngine,
    memo: HashMap<String, Evaluation>,
    cache_dir: Option<PathBuf>,
}

/// The `Evaluation` of a simulated layout, assembled as
/// `evaluate_mapped_with` does.
fn evaluation_of(
    factory: &Factory,
    sim: SimResult,
    strategy: &Strategy,
    critical_path_cycles: u64,
) -> Evaluation {
    let logical_qubits = factory.num_qubits();
    Evaluation {
        strategy: strategy.short_name().to_string(),
        factory: *factory.config(),
        latency_cycles: sim.cycles,
        area: sim.area,
        volume: sim.volume(),
        stall_cycles: sim.stall_cycles,
        routing_conflicts: sim.routing_conflicts,
        critical_path_cycles,
        critical_volume: critical_path_cycles * logical_qubits as u64,
        logical_qubits,
    }
}

/// The `map` span name of a strategy: its report label, with the slack
/// variant of Random folded into Random.
fn map_span_name(strategy: &Strategy) -> String {
    let name = strategy.short_name();
    let name = name.strip_suffix("+S").unwrap_or(name);
    format!("layout.map_s.{name}")
}

/// The evaluation cache's content address: the same fields in the same
/// rendering as `msfu_core`'s internal key, so the traced lookup costs what
/// the real one does.
fn cache_key(factory: &FactoryConfig, layout: &Layout, eval: &EvaluationConfig) -> String {
    let mut hints: Vec<_> = layout
        .hints
        .iter()
        .map(|(pair, waypoint)| (*pair, *waypoint))
        .collect();
    hints.sort_by_key(|(pair, _)| *pair);
    format!(
        "{factory:?}|{eval:?}|{:?}|{:?}|{hints:?}",
        layout.mapping, layout.ports
    )
}

impl TracedPass {
    pub fn new(cache_dir: Option<PathBuf>) -> Self {
        TracedPass {
            tracer: Tracer::new(),
            counts: LayerCounts::default(),
            engine: SimEngine::default(),
            batch: BatchEngine::default(),
            memo: HashMap::new(),
            cache_dir,
        }
    }

    fn count(&mut self, evaluation: &Evaluation) {
        self.counts.sim_runs += 1;
        self.counts.sim_cycles += evaluation.latency_cycles;
        self.counts.stall_cycles += evaluation.stall_cycles;
        self.counts.routing_conflicts += evaluation.routing_conflicts;
    }

    fn map(
        &mut self,
        job: usize,
        factory: &Factory,
        strategy: &Strategy,
    ) -> Result<Layout, String> {
        self.tracer
            .span(&map_span_name(strategy), job, |_| strategy.map(factory))
            .map_err(|e| e.to_string())
    }

    /// Simulates one layout alone on the pass's `SimEngine`.
    fn simulate_solo(
        &mut self,
        job: usize,
        factory: &Factory,
        layout: &Layout,
        strategy: &Strategy,
        eval: &EvaluationConfig,
    ) -> Result<Evaluation, String> {
        let engine = &mut self.engine;
        let evaluation = self
            .tracer
            .span("sim", job, |_| {
                let effective = effective_factory(factory, layout)?;
                evaluate_mapped_with(engine, &effective, layout, strategy.short_name(), eval)
            })
            .map_err(|e| e.to_string())?;
        self.count(&evaluation);
        Ok(evaluation)
    }

    /// Evaluates one sweep chunk the way `SweepSpec`'s lane batcher does:
    /// maps every point, answers content the memo holds or an earlier point
    /// of the chunk simulates, groups the rest by (factory, grid size) into
    /// batches of at most `lanes`, and simulates port-rewired points (and
    /// every point when `lanes` ≤ 1) alone.
    fn chunk(
        &mut self,
        job: usize,
        factories: &[Factory],
        points: &[(usize, &Strategy)],
        eval: &EvaluationConfig,
        lanes: usize,
    ) -> Result<Vec<Evaluation>, String> {
        let mut layouts = Vec::with_capacity(points.len());
        for &(f, strategy) in points {
            layouts.push(self.map(job, &factories[f], strategy)?);
        }
        let mut done: Vec<Option<Evaluation>> = vec![None; points.len()];
        let mut keys: Vec<Option<String>> = vec![None; points.len()];
        let mut followers = Vec::new();
        let mut first: HashMap<String, usize> = HashMap::new();
        let mut solo = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open: HashMap<(usize, usize, usize), usize> = HashMap::new();
        for (i, &(f, strategy)) in points.iter().enumerate() {
            let (factory, layout) = (&factories[f], &layouts[i]);
            let (key, hit) = self.tracer.span("core.cache", job, |_| {
                let key = cache_key(factory.config(), layout, eval);
                let hit = self.memo.get(&key).cloned();
                (key, hit)
            });
            if let Some(mut hit) = hit {
                hit.strategy = strategy.short_name().to_string();
                done[i] = Some(hit);
                continue;
            }
            if let Some(&lead) = first.get(&key) {
                followers.push((i, lead));
                continue;
            }
            first.insert(key.clone(), i);
            keys[i] = Some(key);
            let gates = factory.circuit().num_gates() as u64;
            if lanes <= 1
                || layout.requires_port_rewiring()
                || (lanes as u64).saturating_mul(gates) > u64::from(u32::MAX)
            {
                solo.push(i);
                continue;
            }
            let group_key = (f, layout.mapping.width(), layout.mapping.height());
            match open.get(&group_key) {
                Some(&g) if groups[g].len() < lanes => groups[g].push(i),
                _ => {
                    open.insert(group_key, groups.len());
                    groups.push(vec![i]);
                }
            }
        }
        for i in solo {
            let (f, strategy) = points[i];
            done[i] = Some(self.simulate_solo(job, &factories[f], &layouts[i], strategy, eval)?);
        }
        for members in groups {
            let factory = &factories[points[members[0]].0];
            let batch = &mut self.batch;
            let (results, critical_path_cycles) = self.tracer.span("sim", job, |_| {
                batch.set_config(eval.sim);
                let lanes: Vec<BatchLane<'_>> = members
                    .iter()
                    .map(|&i| BatchLane::new(&layouts[i]))
                    .collect();
                let results = batch.run(factory.circuit(), &lanes);
                (
                    results,
                    factory.circuit().critical_path_cycles(&eval.sim.latency),
                )
            });
            let results = results.map_err(|e| e.to_string())?;
            for (&i, sim) in members.iter().zip(results) {
                let sim = sim.map_err(|e| e.to_string())?;
                let evaluation = evaluation_of(factory, sim, points[i].1, critical_path_cycles);
                self.count(&evaluation);
                done[i] = Some(evaluation);
            }
        }
        for (i, key) in keys.iter().enumerate() {
            if let (Some(key), Some(evaluation)) = (key, &done[i]) {
                self.memo.insert(key.clone(), evaluation.clone());
            }
        }
        for (i, lead) in followers {
            let mut evaluation = done[lead].clone().expect("a lead point is evaluated");
            evaluation.strategy = points[i].1.short_name().to_string();
            done[i] = Some(evaluation);
        }
        Ok(done
            .into_iter()
            .map(|e| e.expect("every point is evaluated"))
            .collect())
    }

    fn build(&mut self, job: usize, config: &FactoryConfig) -> Result<Factory, String> {
        self.tracer
            .span("distill.build", job, |_| Factory::build(config))
            .map_err(|e| e.to_string())
    }

    /// Runs one request line layer by layer and returns its response line.
    pub fn job(&mut self, job: usize, line: &str) -> Result<String, String> {
        let request = self
            .tracer
            .span("service.decode", job, |_| Request::from_json(line))
            .map_err(|e| e.error.to_string())?;
        let perf = ResponsePerf::new(0.0, true);
        let response = match &request.job {
            Job::Evaluate {
                factory,
                strategy,
                eval,
            } => {
                let built = self.build(job, factory)?;
                let layout = self.map(job, &built, strategy)?;
                let evaluation = self.simulate_solo(job, &built, &layout, strategy, eval)?;
                Response::new(
                    request.id.clone(),
                    "evaluate",
                    false,
                    perf,
                    Ok(Payload::Evaluate(Box::new(evaluation))),
                )
            }
            Job::Sweep { spec } => {
                let (mut configs, mut factories): (Vec<FactoryConfig>, Vec<Factory>) =
                    (Vec::new(), Vec::new());
                for point in &spec.points {
                    if !configs.contains(&point.factory) {
                        factories.push(self.build(job, &point.factory)?);
                        configs.push(point.factory);
                    }
                }
                let lanes = spec.lanes.min(MAX_LANES);
                let mut rows = Vec::with_capacity(spec.points.len());
                for chunk in spec.points.chunks(SWEEP_CHUNK) {
                    let points: Vec<(usize, &Strategy)> = chunk
                        .iter()
                        .map(|point| {
                            let f = configs.iter().position(|c| *c == point.factory);
                            (f.expect("every factory was built above"), &point.strategy)
                        })
                        .collect();
                    let evaluations = self.chunk(job, &factories, &points, &spec.eval, lanes)?;
                    rows.extend(chunk.iter().zip(evaluations).map(|(point, evaluation)| {
                        msfu_core::SweepRow {
                            label: point.label.clone(),
                            evaluation,
                            breakdown: None,
                            metrics: None,
                        }
                    }));
                }
                Response::new(
                    request.id.clone(),
                    "sweep",
                    false,
                    perf,
                    Ok(Payload::Sweep(msfu_core::SweepResults {
                        name: spec.name.clone(),
                        rows,
                    })),
                )
            }
            Job::Search { .. } | Job::Stream { .. } => {
                // Searches and streams run whole: their folds and clocks are
                // the core layer itself, with map and sim inside.
                let name = if matches!(request.job, Job::Search { .. }) {
                    "core.search"
                } else {
                    "stream"
                };
                let request =
                    with_cache_dir(request.clone(), self.cache_dir.as_deref()).with_serial(true);
                let response = self.tracer.span(name, job, |_| {
                    Service::new().run(&request, &JobHandle::new(), &msfu_core::NoProgress)
                });
                if let Ok(Payload::Stream(report)) = &response.result {
                    self.counts.stream_arrivals += report.arrivals;
                }
                response
            }
            _ => return Err("unknown job kind".to_string()),
        };
        Ok(self
            .tracer
            .span("service.encode", job, |_| response.to_json()))
    }
}

/// Points a sweep, search or stream request at the session's cache
/// directory, the way `msfu serve --cache-dir` does.
pub fn with_cache_dir(mut request: Request, dir: Option<&Path>) -> Request {
    if let Some(dir) = dir {
        match &mut request.job {
            Job::Sweep { spec } => spec.cache_dir = Some(dir.to_path_buf()),
            Job::Search { spec } => spec.cache_dir = Some(dir.to_path_buf()),
            Job::Stream { spec } => spec.cache_dir = Some(dir.to_path_buf()),
            _ => {}
        }
    }
    request
}

/// The `result` object of a response line as compact JSON, or the error it
/// carries.
pub fn result_of(response_line: &str) -> Result<String, String> {
    let value = serde_json::from_str(response_line).map_err(|e| e.to_string())?;
    if value.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("status is not ok: {response_line}"));
    }
    if value.get("cancelled") != Some(&Value::Bool(false)) {
        return Err("response was cancelled".to_string());
    }
    let result = value.get("result").ok_or("response has no result")?;
    serde_json::to_string(result).map_err(|e| e.to_string())
}
