//! Integration tests of the service façade: cancellation with partial
//! results, serve-session determinism against the checked-in baselines, and
//! typed protocol errors.

use std::sync::atomic::{AtomicUsize, Ordering};

use msfu::core::{
    CancelToken, EvaluationConfig, NoProgress, ProgressEvent, ProgressSink, RunControl, Strategy,
    SweepSpec,
};
use msfu::distill::FactoryConfig;
use msfu::service::{serve, JobHandle, Payload, Request, ServeOptions, Service};
use msfu_bench::{fig7_spec, Mode};
use serde_json::Value;

/// A sink that cancels a token after observing the given number of
/// `RowCompleted` events (0 = cancel on the first batch boundary).
struct CancelAfterRows {
    token: CancelToken,
    after: usize,
    rows_seen: AtomicUsize,
}

impl CancelAfterRows {
    fn new(token: CancelToken, after: usize) -> Self {
        CancelAfterRows {
            token,
            after,
            rows_seen: AtomicUsize::new(0),
        }
    }
}

impl ProgressSink for CancelAfterRows {
    fn emit(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::RowCompleted { .. } = event {
            let seen = self.rows_seen.fetch_add(1, Ordering::SeqCst) + 1;
            if seen >= self.after {
                self.token.cancel();
            }
        }
    }
}

/// A sweep wide enough to span several parallel batches (the batch size is
/// 32 points).
fn wide_sweep() -> SweepSpec {
    let mut spec = SweepSpec::new("wide", EvaluationConfig::default());
    for seed in 0..18u64 {
        spec = spec
            .point("g", FactoryConfig::single_level(2), Strategy::linear())
            .point("g", FactoryConfig::single_level(2), Strategy::random(seed));
    }
    spec
}

#[test]
fn mid_sweep_cancel_returns_partial_prefix_and_leaves_the_engine_reusable() {
    let spec = wide_sweep();
    let full = spec.run().unwrap();
    assert_eq!(full.rows.len(), 36);

    // Serial: cancellation is honoured between points, so cancelling after
    // row 3 yields exactly the 3-row prefix.
    let token = CancelToken::new();
    let sink = CancelAfterRows::new(token.clone(), 3);
    let ctrl = RunControl::default()
        .with_progress(&sink)
        .with_cancel(&token)
        .with_serial(true);
    let outcome = spec.run_with(&ctrl).unwrap();
    assert!(outcome.interrupted);
    assert_eq!(outcome.payload.rows.len(), 3);
    assert_eq!(outcome.payload.rows[..], full.rows[..3]);

    // Parallel: cancellation is honoured between 32-point batches, so the
    // first batch completes and the second never starts.
    let token = CancelToken::new();
    let sink = CancelAfterRows::new(token.clone(), 1);
    let ctrl = RunControl::default()
        .with_progress(&sink)
        .with_cancel(&token);
    let outcome = spec.run_with(&ctrl).unwrap();
    assert!(outcome.interrupted);
    assert_eq!(outcome.payload.rows.len(), 32, "one full batch completed");
    assert_eq!(outcome.payload.rows[..], full.rows[..32]);

    // The engines the cancelled runs used are reused by the very next run on
    // the same threads; results must equal a fresh, uncancelled run.
    let again = spec
        .run_with(&RunControl::default().with_serial(true))
        .unwrap()
        .payload;
    assert_eq!(again, full, "cancellation must not poison the engine");
}

#[test]
fn cancelled_sweep_response_carries_partial_results_and_cancelled_true() {
    let spec = wide_sweep();
    let full = spec.run().unwrap();
    let request = Request::sweep("job-1", spec);
    let handle = JobHandle::new();
    let sink = CancelAfterRows::new(handle.clone(), 1);
    let response = Service::new().run(&request, &handle, &sink);
    assert!(response.cancelled);
    let Ok(Payload::Sweep(results)) = &response.result else {
        panic!("a cancelled sweep still responds ok with partial results")
    };
    assert!(!results.rows.is_empty());
    assert!(results.rows.len() < full.rows.len());
    assert_eq!(results.rows[..], full.rows[..results.rows.len()]);
    let value = response.to_value();
    assert_eq!(value.get("cancelled"), Some(&Value::Bool(true)));
    assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
}

/// The acceptance gate of the service layer: the checked-in two-request
/// session (the fig7 quick sweep plus the search smoke) through `serve`
/// yields results byte-identical to the `fig7` binary's sweep and to the
/// checked-in baselines.
#[test]
fn serve_session_results_are_byte_identical_to_the_binaries_and_baselines() {
    use serde::Serialize;

    let session = std::fs::read_to_string("benches/specs/serve_session.ndjson")
        .expect("checked-in session fixture");
    let mut output: Vec<u8> = Vec::new();
    let summary = serve(
        std::io::Cursor::new(session.into_bytes()),
        &mut output,
        &ServeOptions::new(),
    )
    .unwrap();
    assert_eq!(summary.responses, 2, "two jobs served by one process");
    assert_eq!(summary.errors, 0);

    let lines: Vec<Value> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).expect("every serve output line is JSON"))
        .collect();
    let response = |id: &str| {
        lines
            .iter()
            .find(|v| {
                v.get("type").and_then(Value::as_str) == Some("response")
                    && v.get("id").and_then(Value::as_str) == Some(id)
            })
            .unwrap_or_else(|| panic!("response for {id}"))
    };
    let progress_count = |id: &str| {
        lines
            .iter()
            .filter(|v| {
                v.get("type").and_then(Value::as_str) == Some("progress")
                    && v.get("id").and_then(Value::as_str) == Some(id)
            })
            .count()
    };
    assert!(progress_count("fig7") > 0, "sweep progress streamed");
    assert!(progress_count("search") > 0, "search progress streamed");

    // fig7 through serve == fig7 binary's sweep run == checked-in baseline.
    let via_serve = response("fig7")
        .get("result")
        .and_then(|r| r.get("results"))
        .expect("fig7 results payload");
    let direct = fig7_spec(Mode::Quick, 42).run().unwrap();
    assert_eq!(
        via_serve,
        &direct.to_value(),
        "serve result differs from the fig7 binary's sweep"
    );
    let baseline: Value = serde_json::from_str(
        &std::fs::read_to_string("benches/baselines/BENCH_fig7.json").unwrap(),
    )
    .unwrap();
    assert_eq!(
        via_serve,
        baseline.get("results").expect("baseline results"),
        "serve result differs from the checked-in baseline"
    );

    // The search response matches the serve baseline rows too. (The serve
    // session embeds its own copy of the search spec; the standalone
    // `benches/specs/search_smoke.json` has since grown a converging-ladder
    // entry for the evaluation-cache smoke, so the session's reference is
    // the serve baseline, not the bench-regression one.)
    let search_rows = response("search")
        .get("result")
        .and_then(|r| r.get("results"))
        .expect("search results payload");
    let search_baseline: Value = serde_json::from_str(
        &std::fs::read_to_string("benches/baselines/serve/BENCH_search.json").unwrap(),
    )
    .unwrap();
    assert_eq!(search_rows, search_baseline.get("results").unwrap());
}

#[test]
fn protocol_version_mismatch_is_a_typed_error_response() {
    let line = r#"{"protocol_version": 99, "id": "old-client", "kind": "sweep"}"#;
    let mut output: Vec<u8> = Vec::new();
    let summary = serve(
        std::io::Cursor::new(format!("{line}\n").into_bytes()),
        &mut output,
        &ServeOptions::new(),
    )
    .unwrap();
    assert_eq!(summary.responses, 1);
    assert_eq!(summary.errors, 1);
    let response: Value = serde_json::from_str(String::from_utf8(output).unwrap().trim()).unwrap();
    assert_eq!(
        response.get("status").and_then(Value::as_str),
        Some("error")
    );
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("E_PROTOCOL_VERSION")
    );
    assert_eq!(
        response.get("id").and_then(Value::as_str),
        Some("old-client"),
        "the error response still correlates by id"
    );
}

#[test]
fn deadline_interrupts_a_sweep_with_partial_results() {
    // Deadline 0: already past when the first batch boundary is checked.
    let request = Request::sweep("d", wide_sweep()).with_deadline_ms(0);
    let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
    assert!(response.cancelled);
    let Ok(Payload::Sweep(results)) = &response.result else {
        panic!("deadline responds ok with partial results")
    };
    assert!(results.rows.is_empty());
}
