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
//! once), and then only formats rows out of the returned [`SweepResults`]
//! (`table1` through [`Table`]).
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
//! The `search` and `stream` binaries each take one JSON spec file instead.
//! Every binary is a [`main`] around its body: the one argument parser
//! ([`HarnessArgs::parse`]) and the one exit path. Shared command-line flags:
//!
//! * `full` — sweep the paper's complete capacity range (default: a reduced
//!   grid that completes in minutes on a laptop; figure binaries only);
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
//!
//! Any other argument is a usage error. A binary exits 0 when its run
//! completes, also when its stdout was closed early (`| head`), and 2 with
//! the message on stderr on a usage error or a failed run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use msfu_core::{EvaluationConfig, Strategy, SweepResults, SweepSpec};
use msfu_distill::{FactoryConfig, ReusePolicy};
use msfu_layout::{ForceDirectedConfig, StitchingConfig};
use msfu_service::{write_bench_report, JobHandle, Payload, Request, ServeOptions, Session};

mod table;

pub use table::{format_scientific, Table};

/// Execution mode of a figure/table binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced parameter sweep (default): completes in minutes.
    Quick,
    /// The paper's full parameter sweep.
    Full,
}

impl Mode {
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
    pub cache_dir: Option<PathBuf>,
    /// The spec file of `search` and `stream`; always `None` for the figure
    /// binaries.
    spec: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parses the arguments after the program name: `full`, `serial` (or
    /// `--serial`), `--json` and `--cache-dir <DIR>`. With `takes_spec`
    /// (`search`, `stream`) exactly one spec file is also required, and
    /// `full`, which has no meaning there, counts as a file name.
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unexpected argument, a `--cache-dir`
    /// without its directory, or a missing or second spec file.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        takes_spec: bool,
    ) -> Result<HarnessArgs, String> {
        let mut parsed = HarnessArgs {
            mode: Mode::Quick,
            serial: false,
            json: false,
            cache_dir: None,
            spec: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "full" if !takes_spec => parsed.mode = Mode::Full,
                "serial" | "--serial" => parsed.serial = true,
                "--json" => parsed.json = true,
                "--cache-dir" => {
                    let dir = args.next().ok_or("--cache-dir needs a directory")?;
                    parsed.cache_dir = Some(dir.into());
                }
                _ if takes_spec && !arg.starts_with('-') => {
                    if parsed.spec.replace(arg.into()).is_some() {
                        return Err("exactly one spec file is expected".to_string());
                    }
                }
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        if takes_spec && parsed.spec.is_none() {
            return Err("missing the spec file".to_string());
        }
        Ok(parsed)
    }

    /// The text of the spec file named on the command line.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read, or when these
    /// arguments were parsed without `takes_spec`.
    pub fn spec(&self) -> Result<String, String> {
        let path = self.spec.as_ref().ok_or("no spec file was given")?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    }
}

/// Standard output for a harness body. `write!`/`writeln!` into it return
/// nothing: the first failed write is kept, later writes are dropped, and
/// [`main`] reports it once the body returns.
pub struct Out {
    stdout: io::Stdout,
    error: Option<io::Error>,
}

impl Out {
    /// Writes formatted text unless an earlier write failed (the target of
    /// `write!` and `writeln!`).
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        if self.error.is_none() {
            self.error = self.stdout.write_fmt(args).err();
        }
    }

    /// Flushes, and maps the first write error to the run's outcome: a
    /// reader that closed the pipe early is not a failure of the run.
    fn finish(mut self) -> Result<(), String> {
        if self.error.is_none() {
            self.error = self.stdout.flush().err();
        }
        match self.error {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                Err(format!("cannot write to stdout: {e}"))
            }
            _ => Ok(()),
        }
    }
}

/// The `main` of every harness binary `name`: parses the process arguments
/// with [`HarnessArgs::parse`], runs `body` with them and stdout, and maps
/// the outcome to the exit status — 0 on success (also when stdout closed
/// early), 2 with the message on stderr on a usage error or a failed run.
pub fn main(
    name: &str,
    takes_spec: bool,
    body: impl FnOnce(&HarnessArgs, &mut Out) -> Result<(), String>,
) -> ExitCode {
    let args = match HarnessArgs::parse(std::env::args().skip(1), takes_spec) {
        Ok(args) => args,
        Err(message) => {
            let usage = if takes_spec {
                "<SPEC.json> [serial] [--json] [--cache-dir DIR]"
            } else {
                "[full] [serial] [--json] [--cache-dir DIR]"
            };
            eprintln!("{name}: {message}\nusage: {name} {usage}");
            return ExitCode::from(2);
        }
    };
    let mut out = Out {
        stdout: io::stdout(),
        error: None,
    };
    match body(&args, &mut out).and_then(|()| out.finish()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{name}: {message}");
            ExitCode::from(2)
        }
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
/// # Errors
///
/// Returns `sweep evaluation failed: …` with [`run_request`]'s message: a
/// failed evaluation (say, an unusable `--cache-dir`) or a JSON report that
/// cannot be written.
pub fn run_spec(spec: &SweepSpec, args: &HarnessArgs) -> Result<SweepResults, String> {
    match run_request(Request::sweep(spec.name.clone(), spec.clone()), args) {
        Ok(Payload::Sweep(results)) => Ok(results),
        Ok(_) => unreachable!("a sweep request yields a sweep payload"),
        Err(error) => Err(format!("sweep evaluation failed: {error}")),
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

/// The paper's headline comparison (Section VIII-C): the quantum volume of
/// Line without qubit reuse, `Line(NR)`, over that of HS at its better reuse
/// policy, for the `label` rows at `capacity`. The paper reports 5.64× at
/// two-level K = 100. `None` when either row is missing.
pub fn line_nr_to_hs_reduction(
    results: &SweepResults,
    label: &str,
    capacity: usize,
) -> Option<f64> {
    let line_nr = results
        .rows(label, "Line", capacity)
        .find(|r| r.evaluation.factory.reuse == ReusePolicy::NoReuse)?;
    let hs = results.best_reuse(label, "HS", capacity)?;
    Some(line_nr.evaluation.volume as f64 / hs.evaluation.volume as f64)
}

/// Prints the `# headline:` line `fig10` and `table1` both end with: the
/// [`line_nr_to_hs_reduction`] at the largest of the two-level `capacities`.
pub fn print_headline(out: &mut Out, results: &SweepResults, label: &str, capacities: &[usize]) {
    if let Some(reduction) = capacities
        .last()
        .and_then(|&capacity| line_nr_to_hs_reduction(results, label, capacity))
    {
        writeln!(
            out,
            "# headline: Line(NR) -> HS volume reduction at the largest evaluated two-level capacity = {reduction:.2}x (paper: 5.64x at K = 100)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_core::SweepRow;

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
    fn headline_divides_line_without_reuse_even_when_reuse_is_smaller() {
        let base = msfu_core::evaluate(
            &reuse_variants(4, 2)[0],
            &Strategy::linear(),
            &harness_eval_config(),
        )
        .unwrap();
        let row = |strategy: &str, reuse, volume| {
            let mut evaluation = base.clone();
            evaluation.strategy = strategy.to_string();
            evaluation.factory.reuse = reuse;
            evaluation.volume = volume;
            SweepRow {
                label: "x".to_string(),
                evaluation,
                breakdown: None,
                metrics: None,
            }
        };
        let results = SweepResults {
            name: "t".to_string(),
            rows: vec![
                row("Line", ReusePolicy::Reuse, 100),
                row("Line", ReusePolicy::NoReuse, 400),
                row("HS", ReusePolicy::Reuse, 80),
                row("HS", ReusePolicy::NoReuse, 50),
            ],
        };
        // Line(R) has the smaller Line volume, yet the headline divides
        // Line(NR) by HS's better policy: 400 / 50.
        assert_eq!(line_nr_to_hs_reduction(&results, "x", 4), Some(8.0));
    }

    fn parse(args: &[&str], takes_spec: bool) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|a| a.to_string()), takes_spec)
    }

    #[test]
    fn parse_accepts_every_documented_form() {
        let quick = HarnessArgs {
            mode: Mode::Quick,
            serial: false,
            json: false,
            cache_dir: None,
            spec: None,
        };
        let all = HarnessArgs {
            mode: Mode::Full,
            serial: true,
            json: true,
            cache_dir: Some("c".into()),
            spec: None,
        };
        let figure_cases: [(&[&str], HarnessArgs); 5] = [
            (&[], quick.clone()),
            (
                &["full", "serial", "--json", "--cache-dir", "c"],
                all.clone(),
            ),
            (&["--cache-dir", "c", "--json", "--serial", "full"], all),
            (
                &["--serial"],
                HarnessArgs {
                    serial: true,
                    ..quick.clone()
                },
            ),
            // The directory is taken verbatim, even one spelled like a flag.
            (
                &["--cache-dir", "--json"],
                HarnessArgs {
                    cache_dir: Some("--json".into()),
                    ..quick.clone()
                },
            ),
        ];
        for (args, expected) in figure_cases {
            assert_eq!(parse(args, false), Ok(expected), "{args:?}");
        }
        for args in [&["s.json"][..], &["--json", "s.json", "serial"]] {
            let parsed = parse(args, true).unwrap();
            assert_eq!(parsed.spec, Some("s.json".into()), "{args:?}");
            assert_eq!(parsed.mode, Mode::Quick);
        }
        let spec = parse(&["s.json", "--cache-dir", "c", "--json", "serial"], true).unwrap();
        assert_eq!((spec.serial, spec.json), (true, true));
        assert_eq!(spec.cache_dir, Some("c".into()));
    }

    #[test]
    fn parse_rejects_malformed_arguments() {
        let cases: [(&[&str], bool, &str); 8] = [
            (&["--jsn"], false, "unexpected argument `--jsn`"),
            (&["s.json"], false, "unexpected argument `s.json`"),
            (
                &["--bogus", "s.json"],
                true,
                "unexpected argument `--bogus`",
            ),
            (&["--cache-dir"], false, "--cache-dir needs a directory"),
            (
                &["s.json", "--cache-dir"],
                true,
                "--cache-dir needs a directory",
            ),
            (&[], true, "missing the spec file"),
            (&["--json"], true, "missing the spec file"),
            (
                &["a.json", "b.json"],
                true,
                "exactly one spec file is expected",
            ),
        ];
        for (args, takes_spec, message) in cases {
            assert_eq!(
                parse(args, takes_spec),
                Err(message.to_string()),
                "{args:?}"
            );
        }
        // `full` selects nothing for a spec binary: it is a second file name.
        assert_eq!(
            parse(&["s.json", "full"], true),
            Err("exactly one spec file is expected".to_string())
        );
    }
}
