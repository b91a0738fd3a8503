//! Golden wire bytes: every type that reaches a reader as JSON through a
//! derived `Serialize` renders a fixed value to exactly the compact text
//! checked in below. Reports, serve responses, shard replies and persisted
//! cache records are all built from these renderings, so a change in the
//! serde shims that moves one byte fails here first.

use msfu::core::pipeline::RoundBreakdown;
use msfu::core::stream::{ClassStats, QueueSample};
use msfu::core::{
    CacheStats, CancelToken, Evaluation, Incumbent, Objective, SchedulerRun, SearchReport,
    StopReason, Strategy, StreamReport, SweepResults, SweepRow, TrajectoryPoint,
};
use msfu::distill::{FactoryConfig, ReusePolicy};
use msfu::graph::metrics::MappingMetrics;
use msfu::service::{Request, ServeOptions, ServiceError, Session};
use serde::Serialize;

fn assert_golden<T: Serialize + ?Sized>(value: &T, expected: &str) {
    let actual = serde_json::to_string(value).unwrap();
    assert_eq!(actual, expected, "wire bytes changed");
}

fn factory(reuse: ReusePolicy) -> FactoryConfig {
    FactoryConfig {
        k: 4,
        levels: 2,
        reuse,
        barriers: true,
    }
}

fn evaluation() -> Evaluation {
    Evaluation {
        strategy: "Random+S".to_string(),
        factory: factory(ReusePolicy::NoReuse),
        latency_cycles: 1234,
        area: 56,
        volume: 69_104,
        stall_cycles: 78,
        routing_conflicts: 9,
        critical_path_cycles: 1000,
        critical_volume: 40_000,
        logical_qubits: 40,
    }
}

fn full_row() -> SweepRow {
    SweepRow {
        label: "full".to_string(),
        evaluation: evaluation(),
        breakdown: Some(vec![
            RoundBreakdown {
                round: 0,
                round_cycles: 310,
                permutation_cycles: 42,
            },
            RoundBreakdown {
                round: 1,
                round_cycles: 280,
                permutation_cycles: 0,
            },
        ]),
        metrics: Some(MappingMetrics {
            edge_crossings: 17,
            avg_edge_length: 2.0,
            avg_edge_spacing: 1.0 / 3.0,
        }),
    }
}

fn bare_row() -> SweepRow {
    SweepRow {
        label: "bare".to_string(),
        evaluation: Evaluation {
            strategy: "Line".to_string(),
            factory: factory(ReusePolicy::Reuse),
            ..evaluation()
        },
        breakdown: None,
        metrics: None,
    }
}

const EVALUATION: &str = concat!(
    r#"{"strategy":"Random+S","factory":{"k":4,"levels":2,"reuse":"NoReuse","#,
    r#""barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"stall_cycles":78,"#,
    r#""routing_conflicts":9,"critical_path_cycles":1000,"critical_volume":40000,"#,
    r#""logical_qubits":40}"#,
);
const FACTORY_REUSE: &str = r#"{"k":4,"levels":2,"reuse":"Reuse","barriers":true}"#;
const FACTORY_NO_REUSE: &str = r#"{"k":4,"levels":2,"reuse":"NoReuse","barriers":true}"#;
const ROW_FULL: &str = concat!(
    r#"{"label":"full","evaluation":{"strategy":"Random+S","factory":{"k":4,"levels":2,"#,
    r#""reuse":"NoReuse","barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"#,
    r#""stall_cycles":78,"routing_conflicts":9,"critical_path_cycles":1000,"#,
    r#""critical_volume":40000,"logical_qubits":40},"breakdown":[{"round":0,"#,
    r#""round_cycles":310,"permutation_cycles":42},{"round":1,"round_cycles":280,"#,
    r#""permutation_cycles":0}],"metrics":{"edge_crossings":17,"avg_edge_length":2.0,"#,
    r#""avg_edge_spacing":0.3333333333333333}}"#,
);
const ROW_BARE: &str = concat!(
    r#"{"label":"bare","evaluation":{"strategy":"Line","factory":{"k":4,"levels":2,"#,
    r#""reuse":"Reuse","barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"#,
    r#""stall_cycles":78,"routing_conflicts":9,"critical_path_cycles":1000,"#,
    r#""critical_volume":40000,"logical_qubits":40},"breakdown":null,"metrics":null}"#,
);
const RESULTS: &str = concat!(
    r#"{"name":"golden","rows":[{"label":"full","evaluation":{"strategy":"Random+S","#,
    r#""factory":{"k":4,"levels":2,"reuse":"NoReuse","barriers":true},"#,
    r#""latency_cycles":1234,"area":56,"volume":69104,"stall_cycles":78,"#,
    r#""routing_conflicts":9,"critical_path_cycles":1000,"critical_volume":40000,"#,
    r#""logical_qubits":40},"breakdown":[{"round":0,"round_cycles":310,"#,
    r#""permutation_cycles":42},{"round":1,"round_cycles":280,"permutation_cycles":0}],"#,
    r#""metrics":{"edge_crossings":17,"avg_edge_length":2.0,"#,
    r#""avg_edge_spacing":0.3333333333333333}},{"label":"bare","#,
    r#""evaluation":{"strategy":"Line","factory":{"k":4,"levels":2,"reuse":"Reuse","#,
    r#""barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"stall_cycles":78,"#,
    r#""routing_conflicts":9,"critical_path_cycles":1000,"critical_volume":40000,"#,
    r#""logical_qubits":40},"breakdown":null,"metrics":null}]}"#,
);
const SEARCH_REPORT: &str = concat!(
    r#"{"name":"srch","objective":"Volume","factory":{"k":4,"levels":2,"reuse":"Reuse","#,
    r#""barriers":true},"evaluations":12,"batches":3,"stop":"TargetReached","#,
    r#""incumbent":{"candidate":5,"entry":1,"strategy":{"strategy":"random","#,
    r#""label":"Random+S","params":{"expansion":1.5,"seed":7}},"value":69104,"#,
    r#""evaluation":{"strategy":"Random+S","factory":{"k":4,"levels":2,"reuse":"NoReuse","#,
    r#""barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"stall_cycles":78,"#,
    r#""routing_conflicts":9,"critical_path_cycles":1000,"critical_volume":40000,"#,
    r#""logical_qubits":40}},"trajectory":[{"evaluation":0,"value":80000},{"evaluation":5,"#,
    r#""value":69104}],"entry_bests":[{"candidate":0,"entry":0,"#,
    r#""strategy":{"strategy":"linear","label":"Line","params":{}},"value":80000,"#,
    r#""evaluation":{"strategy":"Line","factory":{"k":4,"levels":2,"reuse":"Reuse","#,
    r#""barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"stall_cycles":78,"#,
    r#""routing_conflicts":9,"critical_path_cycles":1000,"critical_volume":40000,"#,
    r#""logical_qubits":40}},{"candidate":5,"entry":1,"strategy":{"strategy":"random","#,
    r#""label":"Random+S","params":{"expansion":1.5,"seed":7}},"value":69104,"#,
    r#""evaluation":{"strategy":"Random+S","factory":{"k":4,"levels":2,"reuse":"NoReuse","#,
    r#""barriers":true},"latency_cycles":1234,"area":56,"volume":69104,"stall_cycles":78,"#,
    r#""routing_conflicts":9,"critical_path_cycles":1000,"critical_volume":40000,"#,
    r#""logical_qubits":40}}]}"#,
);
const STREAM_REPORT: &str = concat!(
    r#"{"name":"strm","seed":11,"horizon":5000,"setup_cycles":25,"arrivals":2,"#,
    r#""fleet":[{"k":4,"levels":2,"reuse":"Reuse","barriers":true},{"k":4,"levels":2,"#,
    r#""reuse":"NoReuse","barriers":true}],"runs":[{"scheduler":"fifo","completed":2,"#,
    r#""makespan_cycles":900,"latency_p50":300,"latency_p95":410,"latency_p99":420,"#,
    r#""mean_latency":355.5,"throughput_jobs_per_kcycle":2.2222222222222223,"#,
    r#""utilization":0.75,"max_queue_depth":1,"setup_switches":1,"#,
    r#""queue_timeline":[{"cycle":0,"depth":1},{"cycle":120,"depth":0}],"#,
    r#""per_class":[{"class":"small","completed":2,"latency_p50":300,"latency_p99":420}]}]}"#,
);
const CACHE_STATS: &str =
    r#"{"hits":10,"misses":4,"disk_hits":3,"loaded":7,"persisted":4,"warnings":1}"#;
const CLUSTER_PERF: &str = concat!(
    r#"{"backend":"local-threads","workers":2,"shards":6,"shards_retried":1,"#,
    r#""workers_respawned":1,"shards_local_fallback":0,"occupancy":0.625,"#,
    r#""coordinator_seconds":0.0125}"#,
);
const SERVICE_ERROR: &str = r#"{"code":"E_SPEC_PARSE","message":"bad \"quoted\" field\tat 3"}"#;

#[test]
fn evaluation_bytes() {
    assert_golden(&evaluation(), EVALUATION);
}

#[test]
fn factory_config_bytes_under_both_reuse_policies() {
    assert_golden(&factory(ReusePolicy::Reuse), FACTORY_REUSE);
    assert_golden(&factory(ReusePolicy::NoReuse), FACTORY_NO_REUSE);
}

#[test]
fn sweep_row_bytes_with_and_without_optional_parts() {
    assert_golden(&full_row(), ROW_FULL);
    assert_golden(&bare_row(), ROW_BARE);
}

#[test]
fn sweep_results_bytes() {
    let results = SweepResults {
        name: "golden".to_string(),
        rows: vec![full_row(), bare_row()],
    };
    assert_golden(&results, RESULTS);
}

#[test]
fn search_report_bytes() {
    let best = Incumbent {
        candidate: 5,
        entry: 1,
        strategy: Strategy::random_with_slack(7, 1.5),
        value: 69_104,
        evaluation: evaluation(),
    };
    let report = SearchReport {
        name: "srch".to_string(),
        objective: Objective::Volume,
        factory: factory(ReusePolicy::Reuse),
        evaluations: 12,
        batches: 3,
        stop: StopReason::TargetReached,
        incumbent: Some(best.clone()),
        trajectory: vec![
            TrajectoryPoint {
                evaluation: 0,
                value: 80_000,
            },
            TrajectoryPoint {
                evaluation: 5,
                value: 69_104,
            },
        ],
        entry_bests: vec![
            Incumbent {
                candidate: 0,
                entry: 0,
                strategy: Strategy::linear(),
                value: 80_000,
                evaluation: bare_row().evaluation,
            },
            best,
        ],
    };
    assert_golden(&report, SEARCH_REPORT);
    assert_golden(&Objective::Latency, r#""Latency""#);
    for (stop, text) in [
        (StopReason::BudgetExhausted, r#""BudgetExhausted""#),
        (StopReason::PortfolioExhausted, r#""PortfolioExhausted""#),
        (StopReason::Converged, r#""Converged""#),
        (StopReason::Cancelled, r#""Cancelled""#),
    ] {
        assert_golden(&stop, text);
    }
}

#[test]
fn stream_report_bytes() {
    let report = StreamReport {
        name: "strm".to_string(),
        seed: 11,
        horizon: 5000,
        setup_cycles: 25,
        arrivals: 2,
        fleet: vec![factory(ReusePolicy::Reuse), factory(ReusePolicy::NoReuse)],
        runs: vec![SchedulerRun {
            scheduler: "fifo".to_string(),
            completed: 2,
            makespan_cycles: 900,
            latency_p50: 300,
            latency_p95: 410,
            latency_p99: 420,
            mean_latency: 355.5,
            throughput_jobs_per_kcycle: 2.0 / 0.9,
            utilization: 0.75,
            max_queue_depth: 1,
            setup_switches: 1,
            queue_timeline: vec![
                QueueSample { cycle: 0, depth: 1 },
                QueueSample {
                    cycle: 120,
                    depth: 0,
                },
            ],
            per_class: vec![ClassStats {
                class: "small".to_string(),
                completed: 2,
                latency_p50: 300,
                latency_p99: 420,
            }],
        }],
    };
    assert_golden(&report, STREAM_REPORT);
}

#[test]
fn cache_stats_bytes() {
    let stats = CacheStats {
        hits: 10,
        misses: 4,
        disk_hits: 3,
        loaded: 7,
        persisted: 4,
        warnings: 1,
    };
    assert_golden(&stats, CACHE_STATS);
}

#[test]
fn cluster_perf_bytes() {
    // `ClusterPerf` is only built by the coordinator, so take the stamp of a
    // real one-point coordinated sweep and pin every field.
    let request = Request::from_json(concat!(
        r#"{"protocol_version": 1, "id": "c", "kind": "sweep", "sweep": {"name": "c", "points": ["#,
        r#"{"label": "p", "factory": {"k": 2}, "strategy": {"strategy": "linear"}}]}}"#,
    ))
    .unwrap();
    let response = Session::new(ServeOptions::new().with_workers(1)).run::<Vec<u8>>(
        request,
        &CancelToken::new(),
        None,
    );
    let mut perf = response
        .perf
        .cluster
        .expect("a coordinated job stamps perf.cluster");
    perf.backend = "local-threads";
    perf.workers = 2;
    perf.shards = 6;
    perf.shards_retried = 1;
    perf.workers_respawned = 1;
    perf.shards_local_fallback = 0;
    perf.occupancy = 0.625;
    perf.coordinator_seconds = 0.0125;
    assert_golden(&perf, CLUSTER_PERF);
}

#[test]
fn service_error_bytes() {
    let error = ServiceError::new("E_SPEC_PARSE", "bad \"quoted\" field\tat 3");
    assert_golden(&error, SERVICE_ERROR);
}
