//! Persistent evaluation-cache correctness: results served from the on-disk
//! tier must be byte-identical to freshly simulated ones, warm runs must not
//! simulate (or append) anything, stale-version segments must be skipped
//! without failing the job, and separate OS processes — including a
//! `--workers 2` cluster session — must share one cache directory safely.

use std::path::PathBuf;
use std::process::Command;

use msfu_core::progress::RunControl;
use msfu_core::{EvaluationConfig, PortfolioEntry, SearchSpec, Strategy, SweepSpec};
use msfu_distill::FactoryConfig;
use msfu_layout::MapperParams;
use msfu_sim::SimConfig;

fn eval() -> EvaluationConfig {
    EvaluationConfig::default().with_sim(SimConfig::dimension_ordered())
}

/// A fresh per-test cache directory under the system temp dir (never inside
/// `target/`, so `cargo clean` does not own it and the test controls its
/// lifetime explicitly).
fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "msfu-persistent-cache-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Eight sweep points with three duplicate pairs (five unique evaluations).
fn duplicate_heavy_spec() -> SweepSpec {
    let single = FactoryConfig::single_level(4);
    let two = FactoryConfig::two_level(2);
    SweepSpec::new("persist-test", eval())
        .point("a", single, Strategy::linear())
        .point("b", single, Strategy::linear())
        .point("a", single, Strategy::random(7))
        .point("b", single, Strategy::random(7))
        .point("g", two, Strategy::graph_partition(3))
        .point("g2", two, Strategy::graph_partition(3))
        .point("f", two, Strategy::random(5))
        .point("l", two, Strategy::linear())
}

/// Total byte size of the segment files in a cache directory — unchanged
/// sizes across a run prove the run appended nothing (pure disk hits).
fn segment_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".bin"))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

#[test]
fn warm_sweep_is_served_from_disk_and_byte_identical() {
    let dir = fresh_cache_dir("sweep");
    let spec = duplicate_heavy_spec().with_cache_dir(&dir);
    let reference = duplicate_heavy_spec().with_eval_cache(false).run().unwrap();

    // Cold run: five unique points simulate and persist, three duplicates
    // hit in memory; nothing comes from disk yet.
    let cold = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(cold.payload, reference, "cold disk-tier run must not drift");
    assert_eq!(cold.cache.misses, 5, "stats: {:?}", cold.cache);
    assert_eq!(cold.cache.hits, 3);
    assert_eq!(cold.cache.disk_hits, 0);
    assert_eq!(cold.cache.loaded, 0);
    assert_eq!(cold.cache.persisted, 5);

    // Warm run (fresh cache instance over the same directory): every point
    // is answered from the disk-loaded slots, nothing simulates or appends.
    let bytes_after_cold = segment_bytes(&dir);
    assert!(bytes_after_cold > 0, "cold run must write segment files");
    let warm = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(warm.payload, reference, "disk hits must be byte-identical");
    assert_eq!(warm.cache.misses, 0, "stats: {:?}", warm.cache);
    assert_eq!(warm.cache.hits, 8);
    assert_eq!(warm.cache.disk_hits, 8);
    assert_eq!(warm.cache.loaded, 5);
    assert_eq!(warm.cache.persisted, 0);
    assert_eq!(segment_bytes(&dir), bytes_after_cold, "warm run appended");

    // The parallel engine reads the same tier with identical results.
    let parallel = spec.run().unwrap();
    assert_eq!(parallel, reference);

    let _ = std::fs::remove_dir_all(&dir);
}

fn search_spec(dir: Option<&std::path::Path>) -> SearchSpec {
    let mut spec = SearchSpec::new("persist-search", eval(), FactoryConfig::single_level(2));
    spec.budget = 18;
    spec.batch_size = 6;
    spec.patience = 0;
    spec.seed = 42;
    spec.cache_dir = dir.map(|d| d.to_path_buf());
    spec.portfolio = vec![
        PortfolioEntry::fixed(Strategy::linear()),
        PortfolioEntry::seed_scan(Strategy::graph_partition(42)),
        PortfolioEntry::seed_scan(Strategy::random(42)).with_ladder(vec![
            MapperParams::new(),
            MapperParams::new().with_f64("expansion", 1.2),
        ]),
    ];
    spec
}

#[test]
fn warm_search_simulates_nothing_and_reports_identically() {
    let dir = fresh_cache_dir("search");
    let reference = search_spec(None).run().unwrap();

    let cold = search_spec(Some(&dir))
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(cold.payload, reference);
    assert!(cold.cache.persisted > 0, "stats: {:?}", cold.cache);

    let warm = search_spec(Some(&dir))
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(warm.payload, reference, "disk hits must be byte-identical");
    assert_eq!(warm.cache.misses, 0, "stats: {:?}", warm.cache);
    assert_eq!(warm.cache.disk_hits, warm.cache.hits);
    assert_eq!(warm.cache.persisted, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// One framed record as a version-1 build wrote it: the version byte, then
/// a positional binary `(key, Evaluation)` with varint-prefixed strings,
/// little-endian `u64` integers and one-byte reuse/barrier flags. Every
/// cache directory written before the JSON records carries this version.
fn version_1_record() -> Vec<u8> {
    let mut payload = vec![1u8];
    for text in ["k", "Line"] {
        payload.push(text.len() as u8);
        payload.extend_from_slice(text.as_bytes());
    }
    for factory_field in [4u64, 1] {
        payload.extend_from_slice(&factory_field.to_le_bytes());
    }
    payload.extend_from_slice(&[0, 1]);
    // latency, area, volume, stalls, conflicts, critical path and volume,
    // logical qubits.
    for field in [60u64, 50, 3000, 2, 0, 40, 2000, 30] {
        payload.extend_from_slice(&field.to_le_bytes());
    }
    let mut record = (payload.len() as u32).to_le_bytes().to_vec();
    record.extend_from_slice(&payload);
    record
}

#[test]
fn stale_version_segments_are_skipped_without_failing_the_sweep() {
    // A record with version byte 0 (valid 4-byte length framing, junk
    // payload) and a genuine version-1 record: neither is the current
    // FORMAT_VERSION, so the open must warn once, skip it, and carry on.
    let version_0 = {
        let payload = [0u8, 1, 2, 3];
        let mut record = (payload.len() as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&payload);
        record
    };
    let reference = duplicate_heavy_spec().with_eval_cache(false).run().unwrap();
    for (version, record) in [(0, version_0), (1, version_1_record())] {
        let dir = fresh_cache_dir(&format!("stale-v{version}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-00.bin"), &record).unwrap();

        let spec = duplicate_heavy_spec().with_cache_dir(&dir);
        let outcome = spec
            .run_with(&RunControl::default().with_serial(true))
            .unwrap();
        assert_eq!(outcome.payload, reference, "version {version}");
        assert_eq!(outcome.cache.loaded, 0, "v{version}: {:?}", outcome.cache);
        assert_eq!(outcome.cache.warnings, 1, "v{version}: {:?}", outcome.cache);
        assert_eq!(outcome.cache.misses, 5, "v{version}: {:?}", outcome.cache);

        // The open quarantined the stale segment, so the warm reopen loads
        // exactly the re-simulated records and warns no more.
        let warm = spec
            .run_with(&RunControl::default().with_serial(true))
            .unwrap();
        assert_eq!(warm.payload, reference, "version {version}");
        assert_eq!(warm.cache.loaded, 5, "v{version}: {:?}", warm.cache);
        assert_eq!(warm.cache.warnings, 0, "v{version}: {:?}", warm.cache);
        assert_eq!(warm.cache.misses, 0, "v{version}: {:?}", warm.cache);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_corrupted_segment_is_quarantined_and_compact_heals_the_directory() {
    let dir = fresh_cache_dir("heal");
    let spec = duplicate_heavy_spec().with_cache_dir(&dir);
    let reference = duplicate_heavy_spec().with_eval_cache(false).run().unwrap();
    let cold = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(cold.payload, reference);
    assert_eq!(cold.cache.persisted, 5, "stats: {:?}", cold.cache);

    // Flip bytes inside one populated segment (deterministic damage).
    let bucket = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.metadata().is_ok_and(|m| m.len() > 0))
        .find_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let hex = name.strip_prefix("seg-")?.strip_suffix(".bin")?;
            usize::from_str_radix(hex, 16).ok()
        })
        .expect("a populated segment to damage");
    let damaged = msfu_core::damage_segment(&dir, bucket, msfu_core::SegmentDamage::FlipBytes, 9)
        .expect("damage applies");

    // The next run must quarantine the bad segment on open, count the damage
    // as a warning, re-simulate whatever the quarantine lost, and still
    // produce byte-identical rows.
    let healed = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(healed.payload, reference, "corruption must not change rows");
    assert!(healed.cache.warnings > 0, "stats: {:?}", healed.cache);
    let quarantined = damaged.with_file_name(format!(
        "{}.quarantined",
        damaged.file_name().unwrap().to_str().unwrap()
    ));
    assert!(
        quarantined.exists(),
        "damaged segment must be renamed aside, not left live"
    );

    // Compaction salvages the quarantined records, drops the damage, and
    // leaves a directory that re-opens warning-free and fully warm.
    let report = msfu_core::compact_dir(&dir).expect("compact succeeds");
    assert_eq!(report.quarantined_removed, 1, "report: {report:?}");
    let verify = msfu_core::verify_dir(&dir).expect("verify succeeds");
    assert!(verify.is_clean(), "after compact: {verify:?}");
    let clean = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(clean.payload, reference);
    assert_eq!(clean.cache.warnings, 0, "stats: {:?}", clean.cache);
    assert_eq!(clean.cache.misses, 0, "stats: {:?}", clean.cache);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A four-point sweep request (two duplicate pairs) for cross-process runs.
const SWEEP_REQUEST: &str = r#"{"protocol_version": 1, "id": "xproc", "kind": "sweep",
 "sweep": {"name": "xproc", "eval": {"routing": "dimension-ordered"}, "grids": [
   {"label": "a", "factories": [{"capacity": 2, "levels": 1, "reuse": "R"}],
    "strategies": [{"strategy": "linear"}, {"strategy": "random", "seed": 7}]},
   {"label": "b", "factories": [{"capacity": 2, "levels": 1, "reuse": "R"}],
    "strategies": [{"strategy": "linear"}, {"strategy": "random", "seed": 7}]}]}}"#;

/// Runs the real `msfu` binary and returns its parsed JSON response.
fn msfu_run_response(request_path: &std::path::Path, extra_args: &[&str]) -> serde_json::Value {
    let output = Command::new(env!("CARGO_BIN_EXE_msfu"))
        .arg("run")
        .arg(request_path)
        .args(extra_args)
        .output()
        .expect("msfu binary runs");
    assert!(
        output.status.success(),
        "msfu run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 response");
    let response = serde_json::from_str(&stdout).expect("JSON response");
    assert_eq!(
        response.get("status").and_then(|s| s.as_str()),
        Some("ok"),
        "response not ok: {stdout}"
    );
    response
}

/// The `result` payload of [`msfu_run_response`] (the job outcome minus the
/// machine-dependent perf stamp, which legitimately differs between serial
/// and clustered runs).
fn msfu_run(request_path: &std::path::Path, extra_args: &[&str]) -> serde_json::Value {
    msfu_run_response(request_path, extra_args)
        .get("result")
        .expect("result payload")
        .clone()
}

#[test]
fn separate_processes_share_one_cache_dir() {
    let dir = fresh_cache_dir("xproc");
    let request = fresh_cache_dir("xproc-req").with_extension("json");
    std::fs::write(&request, SWEEP_REQUEST).unwrap();
    let dir_arg = dir.to_str().unwrap();

    // Process 1 populates the tier; process 2 (a brand-new OS process) must
    // return byte-identical rows without appending a single byte.
    let first = msfu_run(&request, &["--serial", "--cache-dir", dir_arg]);
    let bytes_after_first = segment_bytes(&dir);
    assert!(bytes_after_first > 0, "first process must persist");
    let second = msfu_run_response(&request, &["--serial", "--cache-dir", dir_arg]);
    // The response stamps its cache counters: every lookup came from disk.
    let cache = |key: &str| {
        second
            .get("perf")
            .and_then(|p| p.get("cache"))
            .and_then(|c| c.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("perf.cache.{key} missing"))
    };
    assert_eq!(cache("misses"), 0);
    assert!(cache("hits") > 0);
    assert_eq!(cache("disk_hits"), cache("hits"));
    let second = second.get("result").expect("result payload").clone();
    assert_eq!(first, second, "disk-served rows must be byte-identical");
    assert_eq!(
        segment_bytes(&dir),
        bytes_after_first,
        "second process simulated (and appended) instead of reading the tier"
    );

    // A `--workers 2` cluster session against the same directory: the
    // coordinator fans the cache dir out to every worker shard, so the
    // cluster warm-starts from the serial runs and the merged rows stay
    // byte-identical.
    let clustered = msfu_run(&request, &["--workers", "2", "--cache-dir", dir_arg]);
    assert_eq!(first, clustered, "cluster rows must be byte-identical");
    assert_eq!(
        segment_bytes(&dir),
        bytes_after_first,
        "warm cluster workers appended instead of reading the tier"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&request);
}

#[test]
fn a_requests_own_cache_dir_wins_over_the_cache_dir_flag() {
    let own = fresh_cache_dir("own");
    let flag = fresh_cache_dir("flag");
    // One line, so the same file is also a one-request serve session.
    let request_text = SWEEP_REQUEST
        .replacen(
            r#""name": "xproc","#,
            &format!(r#""name": "xproc", "cache_dir": "{}","#, own.display()),
            1,
        )
        .replace('\n', " ");
    let request = fresh_cache_dir("own-req").with_extension("json");
    std::fs::write(&request, &request_text).unwrap();
    let flag_arg = flag.to_str().unwrap();

    // Through `msfu run`: the flag is only a default.
    msfu_run(&request, &["--serial", "--cache-dir", flag_arg]);
    let after_run = segment_bytes(&own);
    assert!(after_run > 0, "the request's own directory was not used");
    assert_eq!(segment_bytes(&flag), 0, "the flag overrode the request");

    // Through `msfu serve`, on a fresh directory: the same rule.
    let _ = std::fs::remove_dir_all(&own);
    let output = Command::new(env!("CARGO_BIN_EXE_msfu"))
        .args(["serve", "--serial", "--cache-dir", flag_arg])
        .stdin(std::fs::File::open(&request).unwrap())
        .output()
        .expect("msfu binary runs");
    assert!(
        output.status.success(),
        "msfu serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        segment_bytes(&own),
        after_run,
        "serve missed the request's dir"
    );
    assert_eq!(segment_bytes(&flag), 0, "serve let the flag override");

    for dir in [&own, &flag] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_file(&request);
}
