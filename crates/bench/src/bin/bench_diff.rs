//! Compares two sets of `BENCH_<name>.json` reports and fails on
//! regressions — the gate behind the `bench-regression` CI job.
//!
//! Usage:
//!
//! ```text
//! bench-diff <BASELINE> <CURRENT> [--tolerance F] [--wall-tolerance F]
//! ```
//!
//! `BASELINE` and `CURRENT` are report files or directories containing
//! `BENCH_*.json` files (matched by file name). Two checks run per report:
//!
//! * **Latency/volume** (deterministic): every row's simulated
//!   `latency_cycles` and `volume` must not exceed the baseline by more than
//!   `--tolerance` (default 0.10). The sweeps are bit-reproducible, so any
//!   drift is a real behaviour change; the tolerance only leaves room for
//!   intentional small refinements.
//! * **Wall time** (machine-dependent): only when `--wall-tolerance` is
//!   given, the report's `perf.wall_seconds` must not exceed the baseline by
//!   more than that fraction. Baselines under 0.1 s are not gated (timer and
//!   scheduler jitter dominate there). Use a generous value when baseline
//!   and current come from different machines.
//!
//! Every other perf field is observability-only and ignored —
//! e.g. `perf.cluster` (stamped by `msfu serve --workers N`) never affects a
//! comparison, which is what lets the CI `cluster-smoke` job diff sharded
//! runs against serial baselines at `--tolerance 0.0`. One structural
//! exception: a *current* report carrying a `perf.cache` stamp is validated
//! for internal consistency (`hits`/`misses` present and finite,
//! `disk_hits <= hits`) so a corrupted cache stamp fails loudly; baselines
//! predating the stamp are untouched.
//!
//! Exit status: 0 when clean, 1 on any regression, 2 on usage/IO errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

/// One metric excursion beyond tolerance.
#[derive(Debug)]
struct Regression {
    report: String,
    what: String,
    baseline: f64,
    current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: {} -> {} ({:+.1}%)",
            self.report,
            self.what,
            self.baseline,
            self.current,
            (self.current / self.baseline - 1.0) * 100.0
        )
    }
}

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    tolerance: f64,
    wall_tolerance: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut tolerance = 0.10;
    let mut wall_tolerance = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--tolerance" => {
                let v = argv.next().ok_or("--tolerance needs a value")?;
                tolerance = v.parse().map_err(|_| format!("bad tolerance `{v}`"))?;
            }
            "--wall-tolerance" => {
                let v = argv.next().ok_or("--wall-tolerance needs a value")?;
                wall_tolerance = Some(v.parse().map_err(|_| format!("bad wall tolerance `{v}`"))?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ => positional.push(arg),
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: bench-diff <BASELINE> <CURRENT> [--tolerance F] [--wall-tolerance F]"
                .to_string(),
        );
    }
    Ok(Args {
        baseline: PathBuf::from(&positional[0]),
        current: PathBuf::from(&positional[1]),
        tolerance,
        wall_tolerance,
    })
}

/// Lists the `BENCH_*.json` reports under `path` (or `path` itself when it is
/// a file), as `(file name, parsed report)` pairs sorted by name.
fn load_reports(path: &Path) -> Result<Vec<(String, Value)>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect()
    } else if path.is_file() {
        vec![path.to_path_buf()]
    } else {
        return Err(format!("{} does not exist", path.display()));
    };
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        out.push((name, value));
    }
    Ok(out)
}

/// The sweep rows of a report — `results.rows` for `BENCH_<name>.json`
/// documents, `rows` for legacy bare `SweepResults` documents.
fn rows(report: &Value) -> Option<&Vec<Value>> {
    report
        .get("results")
        .unwrap_or(report)
        .get("rows")
        .and_then(Value::as_array)
}

/// The `label/strategy` key of one sweep row.
fn row_key(row: &Value) -> String {
    format!(
        "{}/{}",
        row.get("label").and_then(Value::as_str).unwrap_or("?"),
        row.get("evaluation")
            .and_then(|e| e.get("strategy"))
            .and_then(Value::as_str)
            .unwrap_or("?"),
    )
}

/// Verifies that baseline and current cover the same row keys in the same
/// order. Disjoint config sets are reported explicitly — which keys only the
/// baseline has and which only the current run has — instead of a bare count
/// mismatch, so a renamed strategy or dropped capacity is obvious at a
/// glance.
fn check_same_configs(name: &str, base_rows: &[Value], cur_rows: &[Value]) -> Result<(), String> {
    let base_keys: Vec<String> = base_rows.iter().map(row_key).collect();
    let cur_keys: Vec<String> = cur_rows.iter().map(row_key).collect();
    if base_keys == cur_keys {
        return Ok(());
    }
    // Multiset difference: keys may legitimately repeat (reuse variants,
    // seed batches), so count occurrences instead of set-subtracting.
    let count = |keys: &[String]| {
        let mut by_key: std::collections::BTreeMap<String, i64> = Default::default();
        for key in keys {
            *by_key.entry(key.clone()).or_default() += 1;
        }
        by_key
    };
    let (base_count, cur_count) = (count(&base_keys), count(&cur_keys));
    let only_in = |a: &std::collections::BTreeMap<String, i64>,
                   b: &std::collections::BTreeMap<String, i64>| {
        a.iter()
            .filter(|(k, n)| b.get(*k).copied().unwrap_or(0) < **n)
            .map(|(k, _)| k.clone())
            .collect::<Vec<_>>()
    };
    let baseline_only = only_in(&base_count, &cur_count);
    let current_only = only_in(&cur_count, &base_count);
    if baseline_only.is_empty() && current_only.is_empty() {
        return Err(format!(
            "{name}: same configs in a different row order; refresh the baselines if intentional"
        ));
    }
    Err(format!(
        "{name}: config sets are disjoint — baseline-only: [{}], current-only: [{}]; \
         refresh the baselines if intentional",
        baseline_only.join(", "),
        current_only.join(", "),
    ))
}

/// Gates one metric cell: it regresses when it grows past
/// `base * (1 + tolerance)`. Non-finite values and zero baselines (against
/// which a relative tolerance is undefined) are explicit errors, never a
/// silent pass.
fn gate_cell(
    name: &str,
    what: &str,
    base: f64,
    cur: f64,
    tolerance: f64,
    regressions: &mut Vec<Regression>,
) -> Result<(), String> {
    if !base.is_finite() || !cur.is_finite() {
        return Err(format!(
            "{name}: {what} is not a finite number ({base} -> {cur}); the report is corrupt"
        ));
    }
    if base == 0.0 {
        if cur == 0.0 {
            return Ok(());
        }
        return Err(format!(
            "{name}: {what} baseline is zero so a relative tolerance is undefined \
             (current {cur}); refresh the baselines"
        ));
    }
    if cur > base * (1.0 + tolerance) {
        regressions.push(Regression {
            report: name.to_string(),
            what: what.to_string(),
            baseline: base,
            current: cur,
        });
    }
    Ok(())
}

/// Validates the `perf.cache` stamp of a *current* report, when present.
///
/// The eval-cache counters are observability-only and never compared against
/// a baseline (old baselines predate the stamp entirely), but a report that
/// does carry one must be internally consistent: `hits` and `misses` present
/// and finite, and `disk_hits` (disk-served hits are a subset of all hits)
/// never exceeding `hits`. A violated invariant means the stamp — the very
/// signal the warm-start CI gate greps — is corrupt.
fn check_cache_stamp(name: &str, current: &Value) -> Result<(), String> {
    let Some(cache) = current.get("perf").and_then(|p| p.get("cache")) else {
        return Ok(());
    };
    let read = |field: &str| -> Result<f64, String> {
        let value = cache.get(field).and_then(Value::as_f64).ok_or_else(|| {
            format!("{name}: perf.cache.{field} is missing; the cache stamp is corrupt")
        })?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!(
                "{name}: perf.cache.{field} is {value}; the cache stamp is corrupt"
            ));
        }
        Ok(value)
    };
    let hits = read("hits")?;
    read("misses")?;
    // Reports written before the persistent tier lack disk_hits; that is an
    // older-but-valid stamp, not corruption.
    if cache.get("disk_hits").is_some() {
        let disk_hits = read("disk_hits")?;
        if disk_hits > hits {
            return Err(format!(
                "{name}: perf.cache.disk_hits {disk_hits} exceeds hits {hits}; \
                 the cache stamp is corrupt"
            ));
        }
    }
    Ok(())
}

/// Compares one report pair, appending regressions.
fn compare_report(
    name: &str,
    baseline: &Value,
    current: &Value,
    args: &Args,
    regressions: &mut Vec<Regression>,
) -> Result<(), String> {
    let base_rows = rows(baseline).ok_or_else(|| format!("{name}: baseline has no rows"))?;
    let cur_rows = rows(current).ok_or_else(|| format!("{name}: current has no rows"))?;
    check_same_configs(name, base_rows, cur_rows)?;
    check_cache_stamp(name, current)?;
    for (i, (b, c)) in base_rows.iter().zip(cur_rows).enumerate() {
        let b_eval = b
            .get("evaluation")
            .ok_or_else(|| format!("{name} row {i}: no evaluation"))?;
        let c_eval = c
            .get("evaluation")
            .ok_or_else(|| format!("{name} row {i}: no evaluation"))?;
        let key = row_key(b);
        for metric in ["latency_cycles", "volume"] {
            let read = |e: &Value| e.get(metric).and_then(Value::as_f64);
            let (Some(base), Some(cur)) = (read(b_eval), read(c_eval)) else {
                return Err(format!("{name} row {i}: missing {metric}"));
            };
            gate_cell(
                name,
                &format!("row {i} ({key}) {metric}"),
                base,
                cur,
                args.tolerance,
                regressions,
            )?;
        }
    }
    if let Some(wall_tol) = args.wall_tolerance {
        let wall = |v: &Value| v.get("perf")?.get("wall_seconds")?.as_f64();
        // A baseline predating the stamp simply skips the gate; a *current*
        // report that dropped the wall time its baseline carries is
        // structural drift and must fail loudly — otherwise the gate
        // silently disappears.
        match (wall(baseline), wall(current)) {
            (Some(_), None) => {
                return Err(format!(
                    "{name}: baseline records perf.wall_seconds but the current report lacks \
                     it; wall time can no longer be gated — refresh the baselines if intentional"
                ));
            }
            (Some(base), Some(_)) if base < MIN_GATED_WALL_SECONDS => {
                // A sub-noise-floor baseline (e.g. the millisecond search
                // smoke) cannot be ratio-gated: scheduler jitter alone
                // exceeds any reasonable tolerance. Say so instead of
                // flaking or silently skipping.
                eprintln!(
                    "[bench-diff] NOTE: {name}: baseline perf.wall_seconds {base:.4}s is below \
                     the {MIN_GATED_WALL_SECONDS}s gating floor; wall time not gated"
                );
            }
            (Some(base), Some(cur)) => {
                gate_cell(name, "perf.wall_seconds", base, cur, wall_tol, regressions)?;
            }
            (None, _) => {}
        }
    }
    Ok(())
}

/// Baseline wall times below this are not ratio-gated: at millisecond scale,
/// scheduler jitter on a shared CI runner dwarfs any multiplicative
/// tolerance, so gating would only produce flakes.
const MIN_GATED_WALL_SECONDS: f64 = 0.1;

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baselines = load_reports(&args.baseline)?;
    let currents = load_reports(&args.current)?;
    if baselines.is_empty() {
        return Err(format!("no BENCH_*.json under {}", args.baseline.display()));
    }
    let mut regressions = Vec::new();
    for (name, baseline) in &baselines {
        let Some((_, current)) = currents.iter().find(|(n, _)| n == name) else {
            return Err(format!(
                "{name}: present in baseline but missing from {}",
                args.current.display()
            ));
        };
        compare_report(name, baseline, current, &args, &mut regressions)?;
        println!(
            "[bench-diff] {name}: {} rows compared",
            rows(baseline).map(Vec::len).unwrap_or(0)
        );
    }
    // A current report with no baseline is not gated at all — say so loudly
    // rather than letting a newly added benchmark go silently unchecked.
    for (name, _) in &currents {
        if !baselines.iter().any(|(n, _)| n == name) {
            eprintln!(
                "[bench-diff] WARNING: {name} has no baseline under {} and was not compared; \
                 check one in to gate it",
                args.baseline.display()
            );
        }
    }
    if regressions.is_empty() {
        println!(
            "[bench-diff] OK — {} report(s) within {:.0}% tolerance{}",
            baselines.len(),
            args.tolerance * 100.0,
            args.wall_tolerance
                .map(|w| format!(" (wall {:.0}%)", w * 100.0))
                .unwrap_or_else(|| ", wall time not gated".to_string()),
        );
        Ok(true)
    } else {
        eprintln!("[bench-diff] {} regression(s):", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("bench-diff: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: &[u64], wall: f64) -> Value {
        let rows: Vec<Value> = latencies
            .iter()
            .enumerate()
            .map(|(i, &lat)| {
                Value::Object(vec![
                    ("label".into(), Value::Str(format!("l{i}"))),
                    (
                        "evaluation".into(),
                        Value::Object(vec![
                            ("strategy".into(), Value::Str("Line".into())),
                            ("latency_cycles".into(), Value::UInt(lat)),
                            ("volume".into(), Value::UInt(lat * 10)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("name".into(), Value::Str("t".into())),
            (
                "perf".into(),
                Value::Object(vec![("wall_seconds".into(), Value::Float(wall))]),
            ),
            (
                "results".into(),
                Value::Object(vec![("rows".into(), Value::Array(rows))]),
            ),
        ])
    }

    fn args(tolerance: f64, wall_tolerance: Option<f64>) -> Args {
        Args {
            baseline: PathBuf::new(),
            current: PathBuf::new(),
            tolerance,
            wall_tolerance,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[100, 200], 1.0);
        let mut regs = Vec::new();
        compare_report("t", &r, &r, &args(0.10, Some(0.10)), &mut regs).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn injected_twenty_percent_latency_slowdown_fails_at_ten_percent() {
        let base = report(&[100, 200], 1.0);
        let slow = report(&[100, 240], 1.0); // +20% on row 1
        let mut regs = Vec::new();
        compare_report("t", &base, &slow, &args(0.10, None), &mut regs).unwrap();
        // latency_cycles and volume both regress on row 1.
        assert_eq!(regs.len(), 2);
        assert!(regs[0].what.contains("row 1"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = report(&[100], 1.0);
        let ok = report(&[105], 1.0); // +5%
        let mut regs = Vec::new();
        compare_report("t", &base, &ok, &args(0.10, None), &mut regs).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn improvements_always_pass() {
        let base = report(&[100], 1.0);
        let fast = report(&[40], 0.2);
        let mut regs = Vec::new();
        compare_report("t", &base, &fast, &args(0.10, Some(0.10)), &mut regs).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn wall_time_gated_only_when_requested() {
        let base = report(&[100], 1.0);
        let slow_wall = report(&[100], 3.0);
        let mut regs = Vec::new();
        compare_report("t", &base, &slow_wall, &args(0.10, None), &mut regs).unwrap();
        assert!(regs.is_empty(), "wall ungated by default");
        compare_report("t", &base, &slow_wall, &args(0.10, Some(0.5)), &mut regs).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].what, "perf.wall_seconds");
    }

    #[test]
    fn sub_floor_wall_baselines_are_not_gated() {
        // A millisecond-scale baseline (the search smoke) cannot be
        // ratio-gated — runner jitter exceeds any tolerance — so even a
        // 1000x "slowdown" must not regress.
        let tiny = report(&[100], 0.0005);
        let jittery = report(&[100], 0.5);
        let mut regs = Vec::new();
        compare_report("t", &tiny, &jittery, &args(0.10, Some(2.0)), &mut regs).unwrap();
        assert!(regs.is_empty(), "sub-floor wall must not be gated");
        // At or above the floor, gating applies as usual.
        let base = report(&[100], MIN_GATED_WALL_SECONDS);
        let slow = report(&[100], MIN_GATED_WALL_SECONDS * 10.0);
        compare_report("t", &base, &slow, &args(0.10, Some(2.0)), &mut regs).unwrap();
        assert_eq!(regs.len(), 1);
    }

    /// Adds a `perf.cache` stamp to a fixture report.
    fn with_cache(mut r: Value, entries: &[(&str, Value)]) -> Value {
        if let Value::Object(fields) = &mut r {
            if let Some((_, Value::Object(perf))) = fields.iter_mut().find(|(k, _)| k == "perf") {
                perf.push((
                    "cache".into(),
                    Value::Object(
                        entries
                            .iter()
                            .map(|(k, v)| (k.to_string(), v.clone()))
                            .collect(),
                    ),
                ));
            }
        }
        r
    }

    #[test]
    fn consistent_cache_stamps_pass() {
        let base = report(&[100], 1.0);
        let stamped = with_cache(
            report(&[100], 1.0),
            &[
                ("hits", Value::UInt(8)),
                ("misses", Value::UInt(2)),
                ("disk_hits", Value::UInt(5)),
                ("loaded", Value::UInt(10)),
                ("persisted", Value::UInt(2)),
            ],
        );
        let mut regs = Vec::new();
        compare_report("t", &base, &stamped, &args(0.10, None), &mut regs).unwrap();
        assert!(regs.is_empty(), "a valid cache stamp is never a regression");
        // A pre-persistent-tier stamp (no disk_hits) is older-but-valid.
        let legacy = with_cache(
            report(&[100], 1.0),
            &[("hits", Value::UInt(3)), ("misses", Value::UInt(1))],
        );
        compare_report("t", &base, &legacy, &args(0.10, None), &mut regs).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn corrupt_cache_stamps_are_an_explicit_error() {
        let base = report(&[100], 1.0);
        let mut regs = Vec::new();
        // disk_hits exceeding hits breaks the subset invariant.
        let inverted = with_cache(
            report(&[100], 1.0),
            &[
                ("hits", Value::UInt(2)),
                ("misses", Value::UInt(0)),
                ("disk_hits", Value::UInt(5)),
            ],
        );
        let err = compare_report("t", &base, &inverted, &args(0.10, None), &mut regs)
            .expect_err("disk_hits > hits must error");
        assert!(err.contains("disk_hits"), "{err}");
        // A stamp missing its hit counter is corrupt, not skippable.
        let truncated = with_cache(report(&[100], 1.0), &[("misses", Value::UInt(1))]);
        let err = compare_report("t", &base, &truncated, &args(0.10, None), &mut regs)
            .expect_err("missing hits must error");
        assert!(err.contains("perf.cache.hits"), "{err}");
        // Non-finite counters are corrupt.
        let poisoned = with_cache(
            report(&[100], 1.0),
            &[("hits", Value::Float(f64::NAN)), ("misses", Value::UInt(1))],
        );
        let err = compare_report("t", &base, &poisoned, &args(0.10, None), &mut regs)
            .expect_err("NaN hits must error");
        assert!(err.contains("perf.cache.hits"), "{err}");
        // Only the *current* side is validated: a baseline with a corrupt
        // stamp (e.g. hand-edited history) must not block comparisons.
        let current = report(&[100], 1.0);
        compare_report("t", &inverted, &current, &args(0.10, None), &mut regs).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn structural_drift_is_an_error_not_a_pass() {
        let base = report(&[100, 200], 1.0);
        let fewer = report(&[100], 1.0);
        let mut regs = Vec::new();
        assert!(compare_report("t", &base, &fewer, &args(0.10, None), &mut regs).is_err());
    }

    #[test]
    fn disjoint_config_sets_error_names_the_keys() {
        // Same row count, different keys: the error must spell out which
        // keys each side has exclusively, not just fail on a count.
        let base = report(&[100, 200], 1.0);
        let mut renamed = report(&[100, 200], 1.0);
        if let Value::Object(entries) = &mut renamed {
            let results = entries
                .iter_mut()
                .find(|(k, _)| k == "results")
                .map(|(_, v)| v)
                .unwrap();
            if let Value::Object(r) = results {
                if let Some((_, Value::Array(rows))) = r.iter_mut().find(|(k, _)| k == "rows") {
                    if let Value::Object(row) = &mut rows[1] {
                        row[0].1 = Value::Str("l9".into()); // label l1 -> l9
                    }
                }
            }
        }
        let mut regs = Vec::new();
        let err = compare_report("t", &base, &renamed, &args(0.10, None), &mut regs)
            .expect_err("disjoint sets must error");
        assert!(err.contains("baseline-only: [l1/Line]"), "{err}");
        assert!(err.contains("current-only: [l9/Line]"), "{err}");
        assert!(regs.is_empty(), "no cell may be gated after a key error");
    }

    /// Builds a report whose row-0 latency cell is the given float.
    fn report_with_latency_cell(cell: Value) -> Value {
        let mut r = report(&[100], 1.0);
        if let Value::Object(entries) = &mut r {
            let results = entries
                .iter_mut()
                .find(|(k, _)| k == "results")
                .map(|(_, v)| v)
                .unwrap();
            if let Value::Object(res) = results {
                if let Some((_, Value::Array(rows))) = res.iter_mut().find(|(k, _)| k == "rows") {
                    if let Value::Object(row) = &mut rows[0] {
                        if let Some((_, Value::Object(eval))) =
                            row.iter_mut().find(|(k, _)| k == "evaluation")
                        {
                            if let Some(entry) =
                                eval.iter_mut().find(|(k, _)| k == "latency_cycles")
                            {
                                entry.1 = cell;
                            }
                        }
                    }
                }
            }
        }
        r
    }

    #[test]
    fn nan_cells_are_an_explicit_error() {
        let base = report(&[100], 1.0);
        let poisoned = report_with_latency_cell(Value::Float(f64::NAN));
        let mut regs = Vec::new();
        let err = compare_report("t", &base, &poisoned, &args(0.10, None), &mut regs)
            .expect_err("NaN must error, not silently pass");
        assert!(err.contains("not a finite number"), "{err}");
        // NaN in the baseline position must error too.
        let err = compare_report("t", &poisoned, &base, &args(0.10, None), &mut regs)
            .expect_err("NaN baseline must error");
        assert!(err.contains("not a finite number"), "{err}");
    }

    #[test]
    fn zero_baseline_cells_are_an_explicit_error() {
        let zero_base = report_with_latency_cell(Value::UInt(0));
        let current = report(&[100], 1.0);
        let mut regs = Vec::new();
        let err = compare_report("t", &zero_base, &current, &args(0.10, None), &mut regs)
            .expect_err("zero baseline with nonzero current must error");
        assert!(err.contains("baseline is zero"), "{err}");
        assert!(regs.is_empty());
        // Zero against zero is an unchanged cell, not an error.
        let mut regs = Vec::new();
        compare_report("t", &zero_base, &zero_base, &args(0.10, None), &mut regs).unwrap();
        assert!(regs.is_empty());
    }
}
