//! Differential test: every lane of a [`msfu::sim::BatchEngine`] batch must
//! produce a byte-identical [`msfu::sim::SimResult`] to a solo
//! [`msfu::sim::SimEngine`] run of the same circuit and layout — same cycles,
//! same per-gate timings, same stall statistics, same routing-conflict counts
//! — across a seeded grid of factory configurations, mapping strategies and
//! routing policies.
//!
//! ONE batch engine is reused for every group, so the suite also proves the
//! lane arenas carry no state from one batch into the next. Edge cases ride
//! along: a single-lane batch, a batch where every lane aborts on the cycle
//! limit, a batch where only one lane aborts, and duplicate sweep points that
//! share a single lane through the evaluation cache. A final sweep-level test
//! pins lanes-on/off × serial/parallel row equality under both routing
//! policies.

use std::collections::BTreeMap;

use msfu::core::{EvaluationConfig, Strategy, SweepSpec};
use msfu::distill::{Factory, FactoryConfig, ReusePolicy};
use msfu::layout::{ForceDirectedConfig, Layout, StitchingConfig};
use msfu::sim::{BatchEngine, BatchLane, SimConfig, SimEngine, SimError};

/// A cheap force-directed configuration so the sweep stays fast.
fn cheap_fd(seed: u64) -> Strategy {
    Strategy::force_directed(ForceDirectedConfig {
        seed,
        iterations: 4,
        repulsion_sample: 500,
        ..ForceDirectedConfig::default()
    })
}

/// The strategy line-up for one seed: the stochastic mappers are perturbed
/// by the seed, the deterministic ones repeat (and must still batch cleanly).
fn seeded_strategies(seed: u64) -> Vec<Strategy> {
    vec![
        Strategy::random(seed),
        Strategy::linear(),
        cheap_fd(seed),
        Strategy::graph_partition(seed),
        Strategy::hierarchical_stitching(StitchingConfig {
            seed,
            ..StitchingConfig::default()
        }),
    ]
}

/// Runs the full seeded grid — 2 shapes × 2 reuse policies × 3 seeds × 5
/// strategies = 60 configs — through ONE reused [`BatchEngine`], batching
/// lane-compatible layouts (same factory circuit, same grid dimensions)
/// together, and asserts each lane byte-identical to a solo [`SimEngine`]
/// run. Port-rewired layouts (hierarchical stitching) simulate a different
/// effective circuit, so each runs as its own single-lane batch — which also
/// exercises the K=1 path.
fn assert_lanes_match_solo(sim: SimConfig) {
    let mut batch = BatchEngine::new(sim);
    let mut solo = SimEngine::new(sim);
    let mut lanes_checked = 0usize;
    let mut multi_lane_batches = 0usize;
    for base in [FactoryConfig::single_level(4), FactoryConfig::two_level(2)] {
        for policy in [ReusePolicy::Reuse, ReusePolicy::NoReuse] {
            let config = base.with_reuse(policy);
            let factory = Factory::build(&config).unwrap();
            // Group lane-compatible layouts: same (shared) circuit, same grid
            // dimensions. Rewired layouts go to their own single-lane batch
            // against the effective factory's circuit.
            let mut groups: BTreeMap<(usize, usize), Vec<Layout>> = BTreeMap::new();
            let mut rewired: Vec<(Factory, Layout)> = Vec::new();
            for seed in 1..=3u64 {
                for strategy in seeded_strategies(seed) {
                    let layout = strategy.map(&factory).unwrap();
                    if layout.requires_port_rewiring() {
                        let effective = factory.apply_port_assignment(&layout.ports).unwrap();
                        rewired.push((effective, layout));
                    } else {
                        let dims = (layout.mapping.width(), layout.mapping.height());
                        groups.entry(dims).or_default().push(layout);
                    }
                }
            }
            for ((w, h), layouts) in &groups {
                let lanes: Vec<BatchLane<'_>> = layouts.iter().map(BatchLane::new).collect();
                if lanes.len() > 1 {
                    multi_lane_batches += 1;
                }
                let results = batch.run(factory.circuit(), &lanes).unwrap();
                assert_eq!(results.len(), layouts.len());
                for (layout, got) in layouts.iter().zip(results) {
                    let expect = solo.run(factory.circuit(), layout).unwrap();
                    assert_eq!(
                        got.as_ref().expect("grid lanes all complete"),
                        &expect,
                        "{config:?} lane on {w}x{h} grid diverged ({:?} routing)",
                        sim.routing,
                    );
                    lanes_checked += 1;
                }
            }
            for (effective, layout) in &rewired {
                let results = batch
                    .run(effective.circuit(), &[BatchLane::new(layout)])
                    .unwrap();
                let expect = solo.run(effective.circuit(), layout).unwrap();
                assert_eq!(
                    results[0].as_ref().expect("rewired lane completes"),
                    &expect,
                    "{config:?} rewired single-lane batch diverged",
                );
                lanes_checked += 1;
            }
        }
    }
    assert!(
        lanes_checked >= 40,
        "the grid must cover at least 40 lane comparisons, got {lanes_checked}"
    );
    assert!(
        multi_lane_batches > 0,
        "at least one batch must actually share the event wheel"
    );
}

#[test]
fn batched_lanes_match_solo_engine_dimension_ordered() {
    assert_lanes_match_solo(SimConfig::dimension_ordered());
}

#[test]
fn batched_lanes_match_solo_engine_adaptive() {
    assert_lanes_match_solo(SimConfig::default());
}

/// Builds one factory and two lane-compatible random placements of distinct
/// quality: the fastest and slowest among a seed scan that share one grid
/// dimension. A cycle limit wedged between their latencies aborts only the
/// slow lane.
fn contrasting_layouts() -> (Factory, Layout, Layout, u64, u64) {
    let factory = Factory::build(&FactoryConfig::single_level(4)).unwrap();
    let mut solo = SimEngine::default();
    let reference_dims = {
        let l = Strategy::random(1).map(&factory).unwrap();
        (l.mapping.width(), l.mapping.height())
    };
    let mut candidates: Vec<(Layout, u64)> = Vec::new();
    for seed in 1..=16u64 {
        let layout = Strategy::random(seed).map(&factory).unwrap();
        if (layout.mapping.width(), layout.mapping.height()) != reference_dims {
            continue;
        }
        let cycles = solo.run(factory.circuit(), &layout).unwrap().cycles;
        candidates.push((layout, cycles));
    }
    let (good, good_cycles) = candidates.iter().min_by_key(|(_, c)| *c).unwrap().clone();
    let (bad, bad_cycles) = candidates.iter().max_by_key(|(_, c)| *c).unwrap().clone();
    assert!(
        bad_cycles > good_cycles,
        "seed scan found no latency contrast ({good_cycles} vs {bad_cycles})"
    );
    (factory, good, bad, good_cycles, bad_cycles)
}

#[test]
fn cycle_limit_aborts_one_lane_without_disturbing_the_others() {
    let (factory, good, bad, good_cycles, bad_cycles) = contrasting_layouts();
    // A limit between the two latencies kills exactly the bad lane.
    let limit = (good_cycles + bad_cycles) / 2;
    let sim = SimConfig::default().with_cycle_limit(limit);
    let mut batch = BatchEngine::new(sim);
    let lanes = [BatchLane::new(&good), BatchLane::new(&bad)];
    let results = batch.run(factory.circuit(), &lanes).unwrap();
    // The surviving lane is byte-identical to its solo run under the same
    // limit; the aborted lane reports exactly the solo engine's error.
    let mut solo = SimEngine::new(sim);
    let expect_good = solo.run(factory.circuit(), &good).unwrap();
    assert_eq!(results[0].as_ref().unwrap(), &expect_good);
    let got_err = results[1].as_ref().expect_err("bad lane must abort");
    let solo_err = solo
        .run(factory.circuit(), &bad)
        .expect_err("solo bad run must abort");
    assert_eq!(got_err, &solo_err);
    assert!(matches!(got_err, SimError::CycleLimitExceeded { .. }));
}

#[test]
fn all_lanes_can_abort_on_the_cycle_limit() {
    let (factory, good, bad, good_cycles, _) = contrasting_layouts();
    // A limit below the best lane kills every lane.
    let sim = SimConfig::default().with_cycle_limit(good_cycles / 2);
    let mut batch = BatchEngine::new(sim);
    let lanes = [BatchLane::new(&good), BatchLane::new(&bad)];
    let results = batch.run(factory.circuit(), &lanes).unwrap();
    let mut solo = SimEngine::new(sim);
    for (layout, got) in [&good, &bad].into_iter().zip(&results) {
        let solo_err = solo.run(factory.circuit(), layout).expect_err("must abort");
        assert_eq!(got.as_ref().expect_err("lane must abort"), &solo_err);
    }
}

/// The fixture sweep for the lane-width equality tests: two factory shapes ×
/// both reuse policies × the five-strategy line-up, plus deliberate duplicate
/// points so the cache path is exercised in every mode.
fn fixture_spec(sim: SimConfig) -> SweepSpec {
    let factories = [
        FactoryConfig::single_level(4),
        FactoryConfig::single_level(4).with_reuse(ReusePolicy::NoReuse),
        FactoryConfig::two_level(2),
    ];
    let eval = EvaluationConfig::default().with_sim(sim);
    let mut spec = SweepSpec::new("batch-equivalence", eval)
        .grid("grid", &factories, |_| seeded_strategies(7));
    // Duplicates: identical (factory, strategy) pairs under another label.
    spec = spec.point("dup", FactoryConfig::single_level(4), Strategy::linear());
    spec.point("dup", FactoryConfig::single_level(4), Strategy::linear())
}

#[test]
fn sweep_rows_are_identical_across_lane_widths_and_run_modes() {
    let ctrl = msfu::core::RunControl::default();
    // Adaptive routing (the library default) and the dimension-ordered
    // routing every figure/table harness simulates with.
    for (routing, sim) in [
        ("adaptive", SimConfig::default()),
        ("dimension-ordered", SimConfig::dimension_ordered()),
    ] {
        let reference = fixture_spec(sim)
            .with_lanes(0)
            .run_serial_with(&ctrl)
            .unwrap();
        assert!(!reference.results.rows.is_empty());
        for lanes in [0usize, 1, 2, 8] {
            let spec = fixture_spec(sim).with_lanes(lanes);
            let parallel = spec.run_with(&ctrl).unwrap();
            let serial = spec.run_serial_with(&ctrl).unwrap();
            assert_eq!(
                parallel.results, reference.results,
                "{routing}: parallel rows diverged at lanes={lanes}"
            );
            assert_eq!(
                serial.results, reference.results,
                "{routing}: serial rows diverged at lanes={lanes}"
            );
        }
    }
}

#[test]
fn duplicate_points_are_deduped_by_the_eval_cache_not_a_lane() {
    // With batching on and the cache on, a batch of identical configs costs
    // one simulation: the first occurrence takes a lane, the rest are cache
    // hits and never occupy one.
    let spec = SweepSpec::new("dups", EvaluationConfig::default())
        .point("a", FactoryConfig::single_level(4), Strategy::linear())
        .point("b", FactoryConfig::single_level(4), Strategy::linear())
        .point("c", FactoryConfig::single_level(4), Strategy::linear())
        .point("d", FactoryConfig::single_level(4), Strategy::linear())
        .with_lanes(8);
    let outcome = spec
        .run_serial_with(&msfu::core::RunControl::default())
        .unwrap();
    assert_eq!(outcome.results.rows.len(), 4);
    let evals: Vec<_> = outcome.results.rows.iter().map(|r| &r.evaluation).collect();
    assert!(evals.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(outcome.batch.points_from_cache, 3, "three cache-hit points");
    assert_eq!(
        outcome.batch.points_batched + outcome.batch.points_solo,
        1,
        "exactly one point consumed a simulation"
    );
}
