//! Determinism guarantees of the parallel sweep engine: a parallel run must
//! produce byte-identical results to the same grid run serially (same seeds →
//! same volumes and latencies), and the shared factory cache must not change
//! any result relative to building every factory fresh.

use std::sync::Mutex;

use msfu::core::{
    evaluate, CancelToken, EvaluationConfig, ProgressEvent, ProgressSink, RunControl, Strategy,
    SweepSpec,
};
use msfu::distill::{FactoryConfig, ReusePolicy};
use msfu::layout::{ForceDirectedConfig, StitchingConfig};

/// Serialises the tests in this binary: one of them mutates the process
/// environment (RAYON_NUM_THREADS) while the others read it through the sweep
/// engine, and concurrent getenv/setenv is a data race.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A reduced fig10-style grid: both levels, both reuse policies, all five
/// strategy families (FD kept cheap).
fn fig10_style_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("determinism", EvaluationConfig::default()).with_breakdowns();
    let single: Vec<FactoryConfig> = [2usize, 4]
        .iter()
        .flat_map(|&k| {
            [ReusePolicy::Reuse, ReusePolicy::NoReuse]
                .map(|p| FactoryConfig::single_level(k).with_reuse(p))
        })
        .collect();
    let double: Vec<FactoryConfig> = [ReusePolicy::Reuse, ReusePolicy::NoReuse]
        .map(|p| FactoryConfig::two_level(2).with_reuse(p))
        .to_vec();

    let strategies = |c: &FactoryConfig| {
        let mut out = vec![
            Strategy::random(11),
            Strategy::linear(),
            Strategy::force_directed(ForceDirectedConfig {
                seed: 11,
                iterations: 4,
                repulsion_sample: 400,
                ..ForceDirectedConfig::default()
            }),
            Strategy::graph_partition(11),
        ];
        if c.levels > 1 {
            out.push(Strategy::hierarchical_stitching(StitchingConfig {
                seed: 11,
                ..StitchingConfig::default()
            }));
        }
        out
    };
    spec = spec.grid("single", &single, strategies);
    spec.grid("double", &double, strategies)
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let _guard = env_guard();
    // Force real multi-threading even on single-core CI machines so the
    // parallel code path is genuinely exercised. The variable is restored
    // before any assertion can unwind.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let spec = fig10_style_spec();
    let parallel = spec.run().unwrap();
    let serial = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(parallel, serial);
    // Byte-identical serialised reports, not just structural equality.
    let parallel_json = serde_json::to_string(&parallel).unwrap();
    let serial_json = serde_json::to_string(&serial).unwrap();
    assert_eq!(parallel_json, serial_json);
    assert_eq!(parallel.rows.len(), spec.points.len());
}

#[test]
fn factory_cache_matches_fresh_builds() {
    let _guard = env_guard();
    // Every distinct FactoryConfig is built once and shared across points;
    // each row must equal an evaluation against a freshly built factory.
    let spec = fig10_style_spec();
    let results = spec.run().unwrap();
    for (point, row) in spec.points.iter().zip(&results.rows) {
        let fresh = evaluate(&point.factory, &point.strategy, &spec.eval).unwrap();
        assert_eq!(
            row.evaluation,
            fresh,
            "cached factory diverged from fresh build for {:?} / {}",
            point.factory,
            point.strategy.short_name()
        );
    }
}

#[test]
fn repeated_runs_are_stable() {
    let _guard = env_guard();
    let spec = fig10_style_spec();
    let a = spec.run().unwrap();
    let b = spec.run().unwrap();
    assert_eq!(a, b);
}

/// Runs `f` with `RAYON_NUM_THREADS` set to `threads`, restoring the
/// variable before the result is returned (so before any assertion can
/// unwind). The caller holds the env lock.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// 70 random mappings over three 32-point chunks: chunk 0 maps seeds 0..32,
/// chunk 1 repeats them, and chunk 2 repeats seeds 0..6 — so every key of
/// chunks 1 and 2 is first computed in chunk 0.
fn recurring_keys_spec() -> SweepSpec {
    let factory = FactoryConfig::single_level(4);
    let mut spec = SweepSpec::new("recurring", EvaluationConfig::default());
    for seed in (0..32).chain(0..32).chain(0..6) {
        spec = spec.point("r", factory, Strategy::random(seed));
    }
    spec
}

#[test]
fn keys_recurring_across_chunks_simulate_once_at_every_thread_count() {
    let _guard = env_guard();
    let spec = recurring_keys_spec();
    assert_eq!(spec.points.len(), 70);
    let built = msfu::distill::Factory::build(&spec.points[0].factory).unwrap();
    let mut layouts: Vec<msfu::layout::Layout> = Vec::new();
    for point in &spec.points {
        let layout = point.strategy.map(&built).unwrap();
        if !layouts.contains(&layout) {
            layouts.push(layout);
        }
    }
    for lanes in [0, 8] {
        let spec = spec.clone().with_lanes(lanes);
        let serial = spec
            .run_with(&RunControl::default().with_serial(true))
            .unwrap();
        assert_eq!(
            serial.cache.misses,
            layouts.len() as u64,
            "one miss per distinct key, {lanes} lanes"
        );
        assert_eq!(serial.cache.hits + serial.cache.misses, 70);
        for threads in [1, 2, 4] {
            let parallel = with_threads(threads, || spec.run_with(&RunControl::default()));
            let parallel = parallel.unwrap();
            assert_eq!(
                parallel.payload, serial.payload,
                "{threads} threads, {lanes} lanes"
            );
            assert_eq!(
                parallel.cache, serial.cache,
                "{threads} threads, {lanes} lanes"
            );
            assert!(!parallel.interrupted);
        }
    }
}

#[test]
fn a_failed_leader_fails_its_follower_run_the_same_in_both_modes() {
    let _guard = env_guard();
    // The cycle limit lies between a single-level and a two-level factory's
    // latency, so only the two-level point (5) fails to simulate; point 40,
    // in the next chunk, has the same key and follows it.
    let small = FactoryConfig::single_level(2);
    let big = FactoryConfig::two_level(2);
    let eval = EvaluationConfig::default();
    let small_latency = evaluate(&small, &Strategy::linear(), &eval)
        .unwrap()
        .latency_cycles;
    let big_latency = evaluate(&big, &Strategy::linear(), &eval)
        .unwrap()
        .latency_cycles;
    assert!(small_latency < big_latency);
    let eval = eval.with_sim(eval.sim.with_cycle_limit((small_latency + big_latency) / 2));
    let mut spec = SweepSpec::new("failing-leader", eval);
    for i in 0..48 {
        let factory = if i == 5 || i == 40 { big } else { small };
        spec = spec.point("p", factory, Strategy::random(i % 7));
    }
    let serial = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap_err()
        .to_string();
    assert!(serial.contains("cycle limit"), "{serial}");
    for threads in [1, 2, 4] {
        let parallel = with_threads(threads, || spec.run().map_err(|e| e.to_string()));
        assert_eq!(parallel.unwrap_err(), serial, "{threads} threads");
    }
}

/// Cancels its token when the first row arrives.
struct CancelAtFirstRow(CancelToken);

impl ProgressSink for CancelAtFirstRow {
    fn emit(&self, event: &ProgressEvent<'_>) {
        if matches!(event, ProgressEvent::RowCompleted { .. }) {
            self.0.cancel();
        }
    }
}

#[test]
fn a_cancel_at_the_first_row_returns_exactly_the_first_chunk() {
    let _guard = env_guard();
    let spec = recurring_keys_spec();
    let full = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;
    for threads in [1, 2, 4] {
        let token = CancelToken::new();
        let sink = CancelAtFirstRow(token.clone());
        let ctrl = RunControl::default()
            .with_progress(&sink)
            .with_cancel(&token);
        let outcome = with_threads(threads, || spec.run_with(&ctrl)).unwrap();
        assert!(outcome.interrupted, "{threads} threads");
        assert_eq!(outcome.payload.rows.len(), 32, "{threads} threads");
        assert_eq!(outcome.payload.rows[..], full.rows[..32]);
    }
}
