//! # msfu-bench
//!
//! Benchmark harness that regenerates every table and figure of the MSFU
//! paper's evaluation (Section VIII).
//!
//! Every binary is a thin *declarative* layer over the parallel sweep engine
//! of `msfu_core::sweep`: it assembles one [`SweepSpec`] naming all of its
//! `FactoryConfig × Strategy` points, hands it to [`run_spec`] (which runs
//! it as a request through the same [`msfu_service::Session`] path as
//! `msfu run` and `msfu serve`, with each distinct factory built exactly
//! once), and then only formats rows out of the returned [`SweepResults`].
//! None of the binaries contains an evaluation loop of its own; the
//! `search` and `stream` binaries go through the same [`run_request`].
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
//!   persistent cache directory, unless the spec names its own (rows are
//!   byte-identical either way);
//! * `--json` — additionally write `BENCH_<name>.json`, the same document
//!   `msfu serve --bench-dir` writes: `{name, perf, results}` (plus the
//!   full `search` / `stream` report), where `perf` is the response's
//!   `{wall_seconds, serial, cache}` stamp that `bench-diff` gates run over
//!   run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::Path;
use std::time::Duration;

use msfu_core::{EvaluationConfig, Strategy, SweepIndex, SweepResults, SweepRow, SweepSpec};
use msfu_distill::{FactoryConfig, ReusePolicy};
use msfu_layout::{ForceDirectedConfig, StitchingConfig};
use msfu_service::{write_bench_report, JobHandle, Payload, Request, ServeOptions, Session};

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

/// Runs `request` through the serve session's request path ([`Session`])
/// with the harness flags as session options: parallel by default, serial
/// when requested, and `--cache-dir` as the default cache directory of a
/// request that names none. Timing and the response's `perf.cache`
/// counters go to stderr, and with `--json` the response is written as
/// `BENCH_<name>.json` to the current directory by the same
/// [`write_bench_report`] that `msfu serve --bench-dir` uses.
///
/// Every figure/table binary therefore exercises the exact code path a
/// server or queue worker uses; results are identical to running the spec
/// directly.
///
/// # Errors
///
/// Returns the service error on any spec/mapping/simulation failure, or a
/// message when the report cannot be written.
pub fn run_request(mut request: Request, args: &HarnessArgs) -> Result<Payload, String> {
    let persistent =
        args.cache_dir.is_some() || request.job.cache_dir_mut().is_some_and(|dir| dir.is_some());
    let mut options = ServeOptions::new().with_serial(args.serial);
    if let Some(dir) = &args.cache_dir {
        options = options.with_cache_dir(dir);
    }
    let kind = request.job.kind();
    let response = Session::new(options).run::<std::io::Sink>(request, &JobHandle::new(), None);
    let payload = response.result.as_ref().map_err(|e| e.to_string())?;
    let name = response.name().unwrap_or(&response.id);
    let size = match payload {
        Payload::Sweep(results) => format!("{} points", results.rows.len()),
        Payload::Search(report) => format!("{} candidates", report.evaluations),
        Payload::Stream(report) => format!(
            "{} arrivals x {} scheduler(s)",
            report.arrivals,
            report.runs.len()
        ),
        _ => "1 evaluation".to_string(),
    };
    let cache = response.perf.cache.unwrap_or_default();
    let disk = if persistent {
        format!(
            "; disk {} hits / {} loaded / {} persisted",
            cache.disk_hits, cache.loaded, cache.persisted
        )
    } else {
        String::new()
    };
    eprintln!(
        "[{kind} {name}] {size} in {:.2?} ({}); eval cache {} hits / {} misses ({:.0}% hit rate){disk}",
        Duration::from_secs_f64(response.perf.wall_seconds),
        if response.perf.serial { "serial" } else { "parallel" },
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
    );
    if args.json {
        if let Some(path) = write_bench_report(Path::new(""), &response)
            .map_err(|e| format!("cannot write BENCH_{name}.json: {e}"))?
        {
            eprintln!("[{kind} {name}] wrote {}", path.display());
        }
    }
    response.result.map_err(|e| e.to_string())
}

/// Runs a harness sweep through [`run_request`] and returns its rows.
///
/// # Panics
///
/// Panics if any sweep point fails to evaluate (the harness sweeps are all
/// valid configurations) or if the JSON report cannot be written.
pub fn run_spec(spec: &SweepSpec, args: &HarnessArgs) -> SweepResults {
    match run_request(Request::sweep(spec.name.clone(), spec.clone()), args) {
        Ok(Payload::Sweep(results)) => results,
        Ok(_) => unreachable!("a sweep request yields a sweep payload"),
        Err(error) => panic!("sweep evaluation failed: {error}"),
    }
}

/// The evaluation configuration used by every harness binary.
///
/// The paper's simulator routes each braid along a fixed path and inserts a
/// stall whenever two braids would intersect (Section VIII-A); the harness
/// therefore uses dimension-ordered routing, so that mapping quality (edge
/// crossings, lengths) translates into realised latency the same way it does
/// in the paper. Adaptive routing stays the library default
/// ([`SimConfig::default`](msfu_sim::SimConfig::default));
/// `tests/end_to_end.rs` checks that it is never slower than
/// dimension-ordered routing.
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
