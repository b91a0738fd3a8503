//! Integration tests for data-declared sweeps and searches over the
//! strategy line-up: a sweep written purely as JSON must reproduce the
//! hand-coded fig7 quick-mode report byte-identically, and the portfolio
//! search must never end worse than the best paper-lineup strategy (the
//! line-up is contained in the default portfolio).

use msfu::core::{SearchSpec, Strategy, SweepSpec};
use msfu::distill::FactoryConfig;
use msfu_bench::{fig7_spec, harness_eval_config, Mode};

#[test]
fn json_declared_fig7_quick_is_byte_identical_to_the_hand_coded_sweep() {
    let text =
        std::fs::read_to_string("benches/specs/fig7_quick.json").expect("spec file is checked in");
    let from_json = SweepSpec::from_json(&text).unwrap();
    let hand_coded = fig7_spec(Mode::Quick, 42);

    // The decoded spec is structurally identical to the Rust-built one —
    // same name, eval config, point order, strategies and parameters.
    assert_eq!(from_json, hand_coded);

    // And running it reproduces the quick-mode fig7 report byte for byte.
    let json_results = from_json.run().unwrap();
    let hand_results = hand_coded.run().unwrap();
    assert_eq!(json_results, hand_results);
    assert_eq!(
        serde_json::to_string_pretty(&json_results).unwrap(),
        serde_json::to_string_pretty(&hand_results).unwrap(),
    );
}

#[test]
fn search_incumbent_is_at_least_as_good_as_the_best_paper_lineup_strategy() {
    let eval = harness_eval_config();
    let config = FactoryConfig::single_level(2);

    let lineup = SweepSpec::new("lineup", eval)
        .grid("g", &[config], |_| Strategy::paper_lineup(42))
        .run()
        .unwrap();
    let best_lineup_volume = lineup
        .rows
        .iter()
        .map(|r| r.evaluation.volume)
        .min()
        .expect("lineup evaluated");

    let mut search = SearchSpec::new("vs_lineup", eval, config);
    search.seed = 42;
    search.portfolio = SearchSpec::paper_portfolio(42);
    // One batch covers candidate 0 of every entry — exactly the paper
    // line-up — so the incumbent can never be worse than its best member.
    search.batch_size = search.portfolio.len();
    search.budget = 2 * search.portfolio.len();
    let report = search.run().unwrap();
    let incumbent = report.incumbent.expect("search produced an incumbent");
    assert!(
        incumbent.value <= best_lineup_volume,
        "incumbent volume {} worse than best lineup volume {}",
        incumbent.value,
        best_lineup_volume
    );
}
