//! # msfu-bench
//!
//! Benchmark harness that regenerates every table and figure of the MSFU
//! paper's evaluation (Section VIII).
//!
//! Every binary is a thin *declarative* layer over the parallel sweep engine
//! of `msfu_core::sweep`: it assembles one [`SweepSpec`] naming all of its
//! `FactoryConfig × Strategy` points, hands it to [`run_spec`] (which executes
//! the grid across all cores with each distinct factory built exactly once),
//! and then only formats rows out of the returned [`SweepResults`]. None of
//! the binaries contains an evaluation loop of its own.
//!
//! | Binary    | Paper artefact | Content |
//! |-----------|----------------|---------|
//! | `fig6`    | Fig. 6         | correlation of edge crossings / length / spacing with simulated latency over randomised mappings |
//! | `fig7`    | Fig. 7a/7b     | FD and GP latency vs capacity against the critical-path lower bound |
//! | `fig9`    | Fig. 9a–9d     | qubit reuse vs no-reuse volume differentials; permutation-step latency per hop strategy |
//! | `fig10`   | Fig. 10a–10f   | latency / area / volume for every strategy, single- and two-level |
//! | `table1`  | Table I        | quantum volumes for Random, Line(NR), Line(R), FD, GP, HS and the critical bound |
//!
//! Shared command-line flags (see [`HarnessArgs`]):
//!
//! * `full` — sweep the paper's complete capacity range (default: a reduced
//!   grid that completes in minutes on a laptop);
//! * `serial` — run the sweep sequentially instead of in parallel (the
//!   baseline for speedup measurements; results are bit-identical);
//! * `--cache-dir <DIR>` — serve already simulated evaluations from a
//!   persistent cache directory (rows are byte-identical either way);
//! * `--json` — additionally write a [`BenchReport`] to `BENCH_<name>.json`:
//!   the full [`SweepResults`] plus a [`SweepPerf`] stamp of what the run
//!   measured itself (wall time, mode, point count, cache counters), which
//!   `bench-diff` gates run over run.
//!
//! Criterion benches (`cargo bench -p msfu-bench`) measure the runtime
//! scalability of the mapping algorithms themselves (Section VI-B3) and the
//! ablations called out in DESIGN.md.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Duration;

use serde::Serialize;

use msfu_core::{
    EvaluationConfig, NoProgress, SearchReport, SearchSpec, Strategy, StreamReport, StreamSpec,
    SweepIndex, SweepResults, SweepRow, SweepSpec,
};
use msfu_distill::{FactoryConfig, ReusePolicy};
use msfu_layout::{ForceDirectedConfig, StitchingConfig};
use msfu_service::{JobHandle, Payload, Request, Service};

/// Execution mode of a figure/table binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced parameter sweep (default): completes in minutes.
    Quick,
    /// The paper's full parameter sweep.
    Full,
}

impl Mode {
    /// Parses the mode from the process arguments: any argument equal to
    /// `full` selects [`Mode::Full`].
    pub fn from_args() -> Mode {
        if std::env::args().any(|a| a == "full") {
            Mode::Full
        } else {
            Mode::Quick
        }
    }

    /// Single-level capacities to sweep (Fig. 10a/b/e, Table I level 1).
    pub fn single_level_capacities(self) -> Vec<usize> {
        match self {
            Mode::Quick => vec![2, 4, 8],
            Mode::Full => vec![2, 4, 6, 8, 12, 16, 20, 24],
        }
    }

    /// Two-level total capacities to sweep (Fig. 10c/d/f, Table I level 2).
    pub fn two_level_capacities(self) -> Vec<usize> {
        match self {
            Mode::Quick => vec![4, 16],
            Mode::Full => vec![4, 16, 36, 64, 100],
        }
    }

    /// Number of randomised mappings for the Fig. 6 correlation study.
    pub fn fig6_samples(self) -> usize {
        match self {
            Mode::Quick => 40,
            Mode::Full => 200,
        }
    }
}

/// The command-line surface shared by every harness binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Reduced or full parameter sweep.
    pub mode: Mode,
    /// Run the sweep sequentially (speedup baseline) instead of in parallel.
    pub serial: bool,
    /// Also write the sweep results to `BENCH_<name>.json`.
    pub json: bool,
    /// Persistent evaluation-cache directory (`--cache-dir <DIR>`): already
    /// simulated evaluations are served from disk, new ones appended. Rows
    /// are byte-identical with or without it. `None` keeps runs memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl HarnessArgs {
    /// Parses `full`, `serial`, `--json` and `--cache-dir <DIR>` out of the
    /// process arguments.
    ///
    /// # Panics
    ///
    /// Panics when `--cache-dir` is missing its directory.
    pub fn from_env() -> Self {
        let mut args = HarnessArgs {
            mode: Mode::from_args(),
            serial: false,
            json: false,
            cache_dir: None,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "serial" | "--serial" => args.serial = true,
                "--json" => args.json = true,
                "--cache-dir" => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("--cache-dir requires a directory"));
                    args.cache_dir = Some(value.into());
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        args
    }
}

/// Wall-time stamp of a sweep run; `bench-diff` reads `wall_seconds`.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPerf {
    /// End-to-end sweep wall time in seconds (mapping + simulation).
    pub wall_seconds: f64,
    /// Whether the sweep ran on all cores or serially.
    pub parallel: bool,
    /// Number of sweep points evaluated.
    pub points: usize,
    /// Evaluation-cache counters of the run.
    pub cache: msfu_core::CacheStats,
}

/// A `BENCH_<name>.json` report: the sweep results plus the perf stamp the
/// regression gate (`bench-diff`) compares run over run.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// The sweep's name.
    pub name: String,
    /// Wall-time stamp for this run.
    pub perf: SweepPerf,
    /// The sweep results (deterministic across machines and thread counts).
    pub results: SweepResults,
}

/// Executes a sweep according to the harness arguments by submitting it as a
/// [`Request`] to the service façade: parallel by default, serial when
/// requested, timing reported on stderr, and a [`BenchReport`] (results +
/// perf stamp) serialised to `BENCH_<name>.json` when `--json` was passed.
///
/// Every figure/table binary therefore exercises the exact code path a
/// server or queue worker uses; results are identical to calling
/// [`SweepSpec::run`] directly.
///
/// # Panics
///
/// Panics if any sweep point fails to evaluate (the harness sweeps are all
/// valid configurations) or if the JSON report cannot be written.
pub fn run_spec(spec: &SweepSpec, args: &HarnessArgs) -> SweepResults {
    let mut spec = spec.clone();
    if let Some(dir) = &args.cache_dir {
        spec = spec.with_cache_dir(dir.clone());
    }
    let spec = &spec;
    // Cache counters are sampled from the process-wide totals around the
    // service call: the per-run counters live on `SweepOutcome`, which the
    // service facade's pinned `Response` shape does not expose. Each harness
    // binary runs exactly one job per process, so the delta is that job's —
    // a multi-job host must not reuse this sampling pattern.
    let cache_before = msfu_core::process_cache_stats();
    let request = Request::sweep(spec.name.clone(), spec.clone()).with_serial(args.serial);
    let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
    let cache = msfu_core::process_cache_stats().since(&cache_before);
    let results = match response.result {
        Ok(Payload::Sweep(results)) => results,
        Ok(_) => unreachable!("a sweep request yields a sweep payload"),
        Err(error) => panic!("sweep evaluation failed: {error}"),
    };
    let wall_seconds = response.perf.wall_seconds;
    eprintln!(
        "[sweep {}] {} points in {:.2?} ({}); eval cache {} hits / {} misses ({:.0}% hit rate){}",
        spec.name,
        spec.points.len(),
        Duration::from_secs_f64(wall_seconds),
        if args.serial { "serial" } else { "parallel" },
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        disk_summary(&cache, spec.cache_dir.is_some()),
    );
    if args.json {
        let report = BenchReport {
            name: spec.name.clone(),
            perf: SweepPerf {
                wall_seconds,
                parallel: !args.serial,
                points: results.rows.len(),
                cache,
            },
            results: results.clone(),
        };
        let path = format!("BENCH_{}.json", spec.name);
        let text = serde_json::to_string_pretty(&report).expect("results serialise");
        std::fs::write(&path, text).expect("JSON report is writable");
        eprintln!("[sweep {}] wrote {path}", spec.name);
    }
    results
}

/// The persistent-tier suffix of the harness cache log line, printed only
/// when a cache directory is in play (the CI warm-start gate greps it).
fn disk_summary(cache: &msfu_core::CacheStats, persistent: bool) -> String {
    if !persistent {
        return String::new();
    }
    format!(
        "; disk {} hits / {} loaded / {} persisted",
        cache.disk_hits, cache.loaded, cache.persisted
    )
}

/// Wall-time stamp of a search run (the search analogue of
/// [`SweepPerf`]; `bench-diff` reads `wall_seconds`).
#[derive(Debug, Clone, Serialize)]
pub struct SearchPerf {
    /// End-to-end search wall time in seconds.
    pub wall_seconds: f64,
    /// Whether batches ran on all cores or serially.
    pub parallel: bool,
    /// Candidates evaluated.
    pub evaluations: usize,
    /// `evaluations / wall_seconds`.
    pub evaluations_per_second: f64,
    /// Evaluation-cache counters of the run (candidates that converged to an
    /// already simulated layout were answered from the cache).
    pub cache: msfu_core::CacheStats,
}

/// The `BENCH_<name>.json` document for a search run.
#[derive(Debug, Clone, Serialize)]
pub struct SearchBenchReport {
    /// The search's name.
    pub name: String,
    /// Wall-time stamp for this run.
    pub perf: SearchPerf,
    /// Entry-best and incumbent rows in sweep shape (what `bench-diff`
    /// gates).
    pub results: SweepResults,
    /// The full search report.
    pub search: SearchReport,
}

/// Executes a portfolio search by submitting it as a [`Request`] to the
/// service façade: timing reported on stderr and a [`SearchBenchReport`]
/// written to `BENCH_<name>.json` when `json` is set — the exact shape the
/// `bench-diff` regression gate compares.
///
/// # Errors
///
/// Returns the service error message on any spec/mapping/simulation failure
/// or when the report cannot be written.
pub fn run_search_spec(
    spec: &SearchSpec,
    serial: bool,
    json: bool,
    cache_dir: Option<&std::path::Path>,
) -> Result<SearchReport, String> {
    let mut spec = spec.clone();
    if let Some(dir) = cache_dir {
        // An explicit flag overrides the spec's own cache_dir.
        spec.cache_dir = Some(dir.to_path_buf());
    }
    let spec = &spec;
    // Process-wide delta sampling: valid because each harness binary runs a
    // single job per process (see the note in `run_spec`).
    let cache_before = msfu_core::process_cache_stats();
    let request = Request::search(spec.name.clone(), spec.clone()).with_serial(serial);
    let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
    let cache = msfu_core::process_cache_stats().since(&cache_before);
    let report = match response.result {
        Ok(Payload::Search(report)) => *report,
        Ok(_) => unreachable!("a search request yields a search payload"),
        Err(error) => return Err(error.to_string()),
    };
    let wall_seconds = response.perf.wall_seconds;
    eprintln!(
        "[search {}] {} candidates in {:.2?} ({}); eval cache {} hits / {} misses \
         ({:.0}% hit rate){}",
        report.name,
        report.evaluations,
        Duration::from_secs_f64(wall_seconds),
        if serial { "serial" } else { "parallel" },
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        disk_summary(&cache, spec.cache_dir.is_some()),
    );
    if json {
        let bench = SearchBenchReport {
            name: report.name.clone(),
            perf: SearchPerf {
                wall_seconds,
                parallel: !serial,
                evaluations: report.evaluations,
                evaluations_per_second: if wall_seconds > 0.0 {
                    report.evaluations as f64 / wall_seconds
                } else {
                    0.0
                },
                cache,
            },
            results: report.to_sweep_results(),
            search: report.clone(),
        };
        let path = format!("BENCH_{}.json", bench.name);
        let text = serde_json::to_string_pretty(&bench).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[search {}] wrote {path}", bench.name);
    }
    Ok(report)
}

/// Observability-only per-scheduler counters inside a stream perf stamp.
///
/// `bench-diff` ignores unknown perf fields, so nothing in here is gated;
/// regressions are caught through the `results` rows (p50/p99/throughput
/// per scheduler) instead.
#[derive(Debug, Clone, Serialize)]
pub struct StreamSchedulerPerf {
    /// Registered scheduler name.
    pub scheduler: String,
    /// Fraction of fleet server-cycles spent busy.
    pub utilization: f64,
    /// Deepest queue observed during the run.
    pub max_queue_depth: u64,
    /// Setup costs paid on class switches (including cold starts).
    pub setup_switches: u64,
}

/// Wall-time stamp of a streaming run (the stream analogue of
/// [`SweepPerf`]; `bench-diff` reads `wall_seconds`).
#[derive(Debug, Clone, Serialize)]
pub struct StreamPerf {
    /// End-to-end wall time in seconds (all schedulers).
    pub wall_seconds: f64,
    /// Jobs injected per scheduler run.
    pub arrivals: u64,
    /// Jobs completed across all scheduler runs divided by wall time.
    pub jobs_per_second: f64,
    /// Evaluation-cache counters of the run (per-class service times are
    /// answered from the shared cache after the first scheduler's run).
    pub cache: msfu_core::CacheStats,
    /// Per-scheduler observability counters (never gated).
    pub stream: Vec<StreamSchedulerPerf>,
}

/// The `BENCH_<name>.json` document for a streaming run.
#[derive(Debug, Clone, Serialize)]
pub struct StreamBenchReport {
    /// The stream's name.
    pub name: String,
    /// Wall-time stamp for this run.
    pub perf: StreamPerf,
    /// Per-scheduler p50/p99/throughput rows in sweep shape (what
    /// `bench-diff` gates).
    pub results: SweepResults,
    /// The full streaming report.
    pub stream: StreamReport,
}

/// Executes a streaming workload by submitting it as a [`Request`] to the
/// service façade: timing reported on stderr and a [`StreamBenchReport`]
/// written to `BENCH_<name>.json` when `json` is set — the exact shape the
/// `bench-diff` regression gate compares.
///
/// The streaming engine advances one shared clock, so `serial` changes
/// nothing; it is accepted for CLI symmetry with the sweep/search harnesses
/// and recorded nowhere.
///
/// # Errors
///
/// Returns the service error message on any spec/mapping/simulation failure
/// or when the report cannot be written.
pub fn run_stream_spec(
    spec: &StreamSpec,
    serial: bool,
    json: bool,
    cache_dir: Option<&std::path::Path>,
) -> Result<StreamReport, String> {
    let mut spec = spec.clone();
    if let Some(dir) = cache_dir {
        // An explicit flag overrides the spec's own cache_dir.
        spec.cache_dir = Some(dir.to_path_buf());
    }
    let spec = &spec;
    // Process-wide delta sampling: valid because each harness binary runs a
    // single job per process (see the note in `run_spec`).
    let cache_before = msfu_core::process_cache_stats();
    let request = Request::stream(spec.name.clone(), spec.clone()).with_serial(serial);
    let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
    let cache = msfu_core::process_cache_stats().since(&cache_before);
    let report = match response.result {
        Ok(Payload::Stream(report)) => *report,
        Ok(_) => unreachable!("a stream request yields a stream payload"),
        Err(error) => return Err(error.to_string()),
    };
    let wall_seconds = response.perf.wall_seconds;
    let completed: u64 = report.runs.iter().map(|r| r.completed).sum();
    eprintln!(
        "[stream {}] {} arrivals x {} scheduler(s) in {:.2?}; eval cache {} hits / {} misses \
         ({:.0}% hit rate){}",
        report.name,
        report.arrivals,
        report.runs.len(),
        Duration::from_secs_f64(wall_seconds),
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        disk_summary(&cache, spec.cache_dir.is_some()),
    );
    if json {
        let bench = StreamBenchReport {
            name: report.name.clone(),
            perf: StreamPerf {
                wall_seconds,
                arrivals: report.arrivals,
                jobs_per_second: if wall_seconds > 0.0 {
                    completed as f64 / wall_seconds
                } else {
                    0.0
                },
                cache,
                stream: report
                    .runs
                    .iter()
                    .map(|r| StreamSchedulerPerf {
                        scheduler: r.scheduler.clone(),
                        utilization: r.utilization,
                        max_queue_depth: r.max_queue_depth,
                        setup_switches: r.setup_switches,
                    })
                    .collect(),
            },
            results: report.to_sweep_results(),
            stream: report.clone(),
        };
        let path = format!("BENCH_{}.json", bench.name);
        let text = serde_json::to_string_pretty(&bench).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[stream {}] wrote {path}", bench.name);
    }
    Ok(report)
}

/// The evaluation configuration used by every harness binary.
///
/// The paper's simulator routes each braid along a fixed path and inserts a
/// stall whenever two braids would intersect (Section VIII-A); the harness
/// therefore uses dimension-ordered routing, so that mapping quality (edge
/// crossings, lengths) translates into realised latency the same way it does
/// in the paper. Adaptive routing remains available as an ablation
/// (`benches/ablation.rs`).
pub fn harness_eval_config() -> EvaluationConfig {
    EvaluationConfig::default().with_sim(msfu_sim::SimConfig::dimension_ordered())
}

/// Force-directed configuration scaled to the problem size: large factories
/// get fewer sweeps and a smaller repulsion sample so the harness stays
/// tractable, mirroring the paper's observation that FD is the most expensive
/// procedure (Section VI-B3).
pub fn scaled_fd_config(seed: u64, num_qubits: usize) -> ForceDirectedConfig {
    let (iterations, sample) = if num_qubits > 1500 {
        (8, 4_000)
    } else if num_qubits > 500 {
        (15, 8_000)
    } else {
        (30, 20_000)
    };
    ForceDirectedConfig {
        seed,
        iterations,
        repulsion_sample: sample,
        ..ForceDirectedConfig::default()
    }
}

/// The strategy line-up used by the Fig. 10 / Table I sweeps for a given
/// factory configuration (FD iteration counts scale with factory size).
pub fn lineup_for(config: &FactoryConfig, seed: u64) -> Vec<Strategy> {
    let qubits = config.total_modules() * config.qubits_per_module();
    vec![
        Strategy::random(seed),
        Strategy::linear(),
        Strategy::force_directed(scaled_fd_config(seed, qubits)),
        Strategy::graph_partition(seed),
        Strategy::hierarchical_stitching(StitchingConfig {
            seed,
            ..StitchingConfig::default()
        }),
    ]
}

/// The Fig. 7 sweep: single- and two-level factories across the mode's
/// capacity range, mapped by {FD, GP} under qubit reuse. Shared by the
/// `fig7` binary and by the JSON sweep-spec round-trip test
/// (`tests/registry_sweep.rs`), which asserts that the same grid declared as
/// pure JSON data reproduces these results byte-identically.
pub fn fig7_spec(mode: Mode, seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("fig7", harness_eval_config());
    for (label, levels, capacities) in [
        ("single", 1, mode.single_level_capacities()),
        ("double", 2, mode.two_level_capacities()),
    ] {
        for &capacity in &capacities {
            let config = FactoryConfig::from_total_capacity(capacity, levels)
                .expect("capacity is an exact power")
                .with_reuse(ReusePolicy::Reuse);
            spec = spec.grid(label, &[config], |c| {
                let qubits = c.total_modules() * c.qubits_per_module();
                vec![
                    Strategy::force_directed(scaled_fd_config(seed, qubits)),
                    Strategy::graph_partition(seed),
                ]
            });
        }
    }
    spec
}

/// Both reuse variants of a total-capacity configuration, reuse first.
///
/// # Panics
///
/// Panics when `capacity` is not an exact `levels`-th power.
pub fn reuse_variants(capacity: usize, levels: usize) -> [FactoryConfig; 2] {
    let base =
        FactoryConfig::from_total_capacity(capacity, levels).expect("capacity is an exact power");
    [
        base.with_reuse(ReusePolicy::Reuse),
        base.with_reuse(ReusePolicy::NoReuse),
    ]
}

/// Of the rows matching `label`, `strategy` and `capacity`, returns the one
/// with the smallest quantum volume — how the paper picks each strategy's
/// better reuse policy for its final plots (Section VIII-C1).
///
/// Takes the results' [`SweepIndex`] (build it once per table with
/// [`SweepResults::index`]) so per-cell lookups are O(1) instead of a scan
/// over every row.
pub fn best_reuse_row<'a>(
    index: &SweepIndex<'a>,
    label: &str,
    strategy: &str,
    capacity: usize,
) -> Option<&'a SweepRow> {
    index.best_reuse(label, strategy, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_sweeps_are_subsets_of_full() {
        let q1 = Mode::Quick.single_level_capacities();
        let f1 = Mode::Full.single_level_capacities();
        assert!(q1.iter().all(|c| f1.contains(c)));
        let q2 = Mode::Quick.two_level_capacities();
        let f2 = Mode::Full.two_level_capacities();
        assert!(q2.iter().all(|c| f2.contains(c)));
        assert!(Mode::Quick.fig6_samples() < Mode::Full.fig6_samples());
    }

    #[test]
    fn full_mode_matches_paper_capacities() {
        assert_eq!(Mode::Full.two_level_capacities(), vec![4, 16, 36, 64, 100]);
        assert!(Mode::Full.single_level_capacities().contains(&24));
    }

    #[test]
    fn scaled_fd_config_shrinks_with_size() {
        let small = scaled_fd_config(1, 100);
        let big = scaled_fd_config(1, 3000);
        assert!(big.iterations < small.iterations);
        assert!(big.repulsion_sample < small.repulsion_sample);
    }

    #[test]
    fn lineup_contains_all_five_strategies() {
        let lineup = lineup_for(&FactoryConfig::two_level(2), 1);
        let names: Vec<&str> = lineup.iter().map(|s| s.short_name()).collect();
        assert_eq!(names, vec!["Random", "Line", "FD", "GP", "HS"]);
    }

    #[test]
    fn reuse_variants_cover_both_policies() {
        let [r, nr] = reuse_variants(16, 2);
        assert_eq!(r.reuse, ReusePolicy::Reuse);
        assert_eq!(nr.reuse, ReusePolicy::NoReuse);
        assert_eq!(r.capacity(), 16);
        assert_eq!(nr.k, 4);
    }

    #[test]
    fn best_reuse_row_picks_the_smaller_volume() {
        let spec = SweepSpec::new("t", harness_eval_config())
            .point("x", reuse_variants(4, 2)[0], Strategy::linear())
            .point("x", reuse_variants(4, 2)[1], Strategy::linear());
        let results = spec.run().unwrap();
        let best = best_reuse_row(&results.index(), "x", "Line", 4).unwrap();
        let volumes: Vec<u64> = results.rows.iter().map(|r| r.evaluation.volume).collect();
        assert_eq!(best.evaluation.volume, *volumes.iter().min().unwrap());
    }
}
