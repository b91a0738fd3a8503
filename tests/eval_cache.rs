//! Evaluation-cache correctness: sweep and search results with the
//! content-addressed cache enabled must be byte-identical to cache-disabled
//! runs, in both the parallel and the serial engines, and duplicate points
//! must actually hit the cache.

use msfu_core::{EvaluationConfig, PortfolioEntry, RunControl, SearchSpec, Strategy, SweepSpec};
use msfu_distill::{FactoryConfig, ReusePolicy};
use msfu_layout::{MapperParams, StitchingConfig};
use msfu_sim::SimConfig;

fn eval() -> EvaluationConfig {
    EvaluationConfig::default().with_sim(SimConfig::dimension_ordered())
}

/// A sweep with deliberate duplicates: the same `(factory, strategy)` point
/// under two labels, a reuse-policy pair, and a port-rewiring strategy (HS)
/// whose layouts carry a port assignment in the key.
fn duplicate_heavy_spec() -> SweepSpec {
    let single = FactoryConfig::single_level(4);
    let two = FactoryConfig::two_level(2);
    SweepSpec::new("cache-test", eval())
        .point("a", single, Strategy::linear())
        .point("b", single, Strategy::linear())
        .point("a", single, Strategy::random(7))
        .point("b", single, Strategy::random(7))
        .point("r", two.with_reuse(ReusePolicy::Reuse), Strategy::linear())
        .point(
            "nr",
            two.with_reuse(ReusePolicy::NoReuse),
            Strategy::linear(),
        )
        .point(
            "hs",
            two,
            Strategy::hierarchical_stitching(StitchingConfig::default()),
        )
        .point(
            "hs2",
            two,
            Strategy::hierarchical_stitching(StitchingConfig::default()),
        )
}

#[test]
fn sweep_results_are_identical_with_and_without_the_cache() {
    let cached = duplicate_heavy_spec();
    let uncached = duplicate_heavy_spec().with_eval_cache(false);
    assert!(cached.use_eval_cache);
    assert!(!uncached.use_eval_cache);

    let cached_parallel = cached.run().unwrap();
    let cached_serial = cached
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;
    let uncached_parallel = uncached.run().unwrap();
    let uncached_serial = uncached
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;

    assert_eq!(cached_parallel, uncached_parallel);
    assert_eq!(cached_serial, uncached_serial);
    assert_eq!(cached_parallel, cached_serial);
}

#[test]
fn duplicate_sweep_points_hit_the_cache() {
    let spec = duplicate_heavy_spec();
    // Serial: deterministic counters — every duplicate after the first is a
    // hit. The spec holds three duplicate pairs (linear, random, HS); the
    // reuse-policy pair are distinct factory configs and must NOT collide.
    let outcome = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(outcome.cache.hits, 3, "stats: {:?}", outcome.cache);
    assert_eq!(outcome.cache.misses, 5);
    assert!(outcome.cache.hit_rate() > 0.3);
    // Parallel runs report the serial counters, with lane batching and
    // without it. At width 0 every point, the HS pair included, is a
    // one-lane group of its own, so only the planner keeps each duplicate
    // key to one miss.
    for spec in [spec.clone(), spec.clone().with_lanes(0)] {
        let parallel = spec.run_with(&RunControl::default()).unwrap();
        assert_eq!(parallel.cache, outcome.cache, "lanes {}", spec.lanes);
        assert_eq!(parallel.payload, outcome.payload);
    }
    // Disabled cache reports zeros.
    let disabled = spec
        .with_eval_cache(false)
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(disabled.cache.hits + disabled.cache.misses, 0);
    assert_eq!(outcome.payload, disabled.payload);
}

fn search_spec(cache: bool) -> SearchSpec {
    let mut spec = SearchSpec::new("cache-search", eval(), FactoryConfig::single_level(2));
    spec.budget = 18;
    spec.batch_size = 6;
    spec.patience = 0;
    spec.seed = 42;
    spec.use_eval_cache = cache;
    spec.portfolio = vec![
        PortfolioEntry::fixed(Strategy::linear()),
        PortfolioEntry::seed_scan(Strategy::graph_partition(42)),
        PortfolioEntry::seed_scan(Strategy::random(42)).with_ladder(vec![
            MapperParams::new(),
            MapperParams::new().with_f64("expansion", 1.2),
        ]),
        // Unseeded parameter ladder whose first two rungs resolve to the
        // same mapper (explicit expansion 1.0 == the default): the classic
        // converging-ladder case the cache deduplicates.
        PortfolioEntry::fixed(Strategy::random(7)).with_ladder(vec![
            MapperParams::new(),
            MapperParams::new().with_f64("expansion", 1.0),
            MapperParams::new().with_f64("expansion", 1.4),
        ]),
    ];
    spec
}

#[test]
fn search_reports_are_identical_with_and_without_the_cache() {
    let cached_parallel = search_spec(true).run().unwrap();
    let cached_serial = search_spec(true)
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;
    let uncached_parallel = search_spec(false).run().unwrap();
    let uncached_serial = search_spec(false)
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;

    assert_eq!(cached_parallel, uncached_parallel);
    assert_eq!(cached_serial, uncached_serial);
    assert_eq!(cached_parallel, cached_serial);
}

#[test]
fn converging_search_candidates_hit_the_cache() {
    // Serial run: counters are deterministic. The unseeded ladder's
    // duplicate rung must be answered from the cache.
    let outcome = search_spec(true)
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert!(
        outcome.cache.hits > 0,
        "expected converging ladder rungs to hit the cache: {:?}",
        outcome.cache
    );
    let disabled = search_spec(false)
        .run_with(&RunControl::default().with_serial(true))
        .unwrap();
    assert_eq!(disabled.cache.hits + disabled.cache.misses, 0);
    assert_eq!(outcome.payload, disabled.payload);
}
