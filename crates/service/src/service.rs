//! The job executor: one [`Request`] in, one [`Response`] out, with
//! streaming progress and cooperative cancellation in between.

use std::time::{Duration, Instant};

use msfu_core::{evaluate, CacheStats, CancelToken, Outcome, ProgressSink, RunControl};

use crate::protocol::{Job, Payload, Request, Response, ResponsePerf, ServiceError};

/// A handle onto one running (or about-to-run) job: the job's
/// [`CancelToken`], cancellable from any thread through any clone.
///
/// Cancelling it stops the job at its next batch boundary, after which the
/// response carries the partial results completed so far with
/// `cancelled: true`. The per-thread simulator engines are left intact and
/// reusable — a cancelled job costs nothing beyond the batches it finished.
pub type JobHandle = CancelToken;

/// The run control of `request` started at `start`: progress to `progress`,
/// cancellation through `handle`, `deadline_ms` counted from `start`, and
/// the request's `serial` mode.
pub(crate) fn run_control<'a>(
    request: &Request,
    handle: &'a JobHandle,
    progress: &'a dyn ProgressSink,
    start: Instant,
) -> RunControl<'a> {
    let ctrl = RunControl::default()
        .with_progress(progress)
        .with_cancel(handle)
        .with_serial(request.serial);
    match request.deadline_ms {
        Some(ms) => ctrl.with_deadline(start + Duration::from_millis(ms)),
        None => ctrl,
    }
}

/// The service façade: executes requests against the evaluation pipeline.
///
/// The service itself is stateless; per-worker simulator engines live in
/// thread-local storage and are reused across every job a thread executes,
/// so a long-lived process (e.g. `msfu serve`) pays arena allocations once.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct Service;

impl Service {
    /// Creates the service.
    pub fn new() -> Self {
        Service
    }

    /// Executes one request in-process to completion (or cancellation /
    /// deadline), streaming progress events to `progress`. The request's
    /// `deadline_ms` counts from the call; `perf.wall_seconds` times the
    /// whole job.
    ///
    /// Never panics on bad input: every failure becomes a typed error
    /// response carrying a stable code from
    /// [`crate::error_code::ALL_ERROR_CODES`].
    pub fn run(
        &self,
        request: &Request,
        handle: &JobHandle,
        progress: &dyn ProgressSink,
    ) -> Response {
        let start = Instant::now();
        let ctrl = run_control(request, handle, progress, start);
        // `cache` stays `None` for evaluations (no cache) and failed jobs.
        let (result, cancelled, cache) = match &request.job {
            // A single evaluation is one bounded simulation — it has no batch
            // boundaries, so it runs to completion even if cancelled mid-way.
            Job::Evaluate {
                factory,
                strategy,
                eval,
            } => (
                evaluate(factory, strategy, eval)
                    .map(|e| Payload::Evaluate(Box::new(e)))
                    .map_err(|e| ServiceError::from_core(&e)),
                false,
                None,
            ),
            Job::Sweep { spec } => settle(spec.run_with(&ctrl), Payload::Sweep),
            Job::Search { spec } => settle(spec.run_with(&ctrl), |r| Payload::Search(Box::new(r))),
            // The streaming engine is inherently sequential (one shared
            // clock), so `serial` changes nothing — results are identical
            // either way.
            Job::Stream { spec } => settle(spec.run_with(&ctrl), |r| Payload::Stream(Box::new(r))),
        };
        let mut perf = ResponsePerf::new(start.elapsed().as_secs_f64(), request.serial);
        perf.cache = cache;
        Response::new(
            request.id.clone(),
            request.job.kind(),
            cancelled,
            perf,
            result,
        )
    }
}

/// A run's outcome as the parts of its response: the payload (or the typed
/// error), whether the run was interrupted, and its cache counters.
fn settle<T>(
    outcome: msfu_core::Result<Outcome<T>>,
    payload: impl FnOnce(T) -> Payload,
) -> (Result<Payload, ServiceError>, bool, Option<CacheStats>) {
    match outcome {
        Ok(outcome) => (
            Ok(payload(outcome.payload)),
            outcome.interrupted,
            Some(outcome.cache),
        ),
        Err(e) => (Err(ServiceError::from_core(&e)), false, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msfu_core::{EvaluationConfig, NoProgress, Strategy, SweepSpec};
    use msfu_distill::FactoryConfig;

    fn tiny_sweep(name: &str) -> SweepSpec {
        SweepSpec::new(name, EvaluationConfig::default())
            .point("a", FactoryConfig::single_level(2), Strategy::linear())
            .point("b", FactoryConfig::single_level(2), Strategy::random(1))
    }

    #[test]
    fn evaluate_request_matches_direct_evaluation() {
        let request = Request::evaluate(
            "e",
            FactoryConfig::single_level(2),
            Strategy::linear(),
            EvaluationConfig::default(),
        );
        let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
        let Ok(Payload::Evaluate(from_service)) = response.result else {
            panic!("expected an evaluation payload")
        };
        let direct = evaluate(
            &FactoryConfig::single_level(2),
            &Strategy::linear(),
            &EvaluationConfig::default(),
        )
        .unwrap();
        assert_eq!(*from_service, direct);
        assert!(!response.cancelled);
        assert_eq!(response.kind, "evaluate");
    }

    #[test]
    fn sweep_request_matches_direct_run_serial_and_parallel() {
        let direct = tiny_sweep("t").run().unwrap();
        for serial in [false, true] {
            let request = Request::sweep("s", tiny_sweep("t")).with_serial(serial);
            let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
            let Ok(Payload::Sweep(results)) = &response.result else {
                panic!("expected sweep payload")
            };
            assert_eq!(results, &direct, "serial={serial}");
            assert_eq!(response.perf.serial, serial);
        }
    }

    /// Records each sweep progress event as a compact tag.
    #[derive(Default)]
    struct Recorder(std::sync::Mutex<Vec<String>>);

    impl ProgressSink for Recorder {
        fn emit(&self, event: &msfu_core::ProgressEvent<'_>) {
            let tag = match event {
                msfu_core::ProgressEvent::RowCompleted { index, .. } => format!("row {index}"),
                msfu_core::ProgressEvent::BatchFinished {
                    completed, total, ..
                } => format!("batch {completed}/{total}"),
                _ => "other".to_string(),
            };
            self.0.lock().unwrap().push(tag);
        }
    }

    #[test]
    fn request_serial_flag_reaches_the_scheduler() {
        // A serial run streams row by row and reports one batch at the end;
        // a parallel run reports each 32-point chunk.
        let mut spec = SweepSpec::new("modes", EvaluationConfig::default());
        for seed in 0..36 {
            spec = spec.point("p", FactoryConfig::single_level(2), Strategy::random(seed));
        }
        let rows = |range: std::ops::Range<usize>| range.map(|i| format!("row {i}"));
        let serial: Vec<String> = rows(0..36).chain(["batch 36/36".to_string()]).collect();
        let parallel: Vec<String> = rows(0..32)
            .chain(["batch 32/36".to_string()])
            .chain(rows(32..36))
            .chain(["batch 36/36".to_string()])
            .collect();
        for (flag, expected) in [(true, serial), (false, parallel)] {
            let recorder = Recorder::default();
            let request = Request::sweep("m", spec.clone()).with_serial(flag);
            let response = Service::new().run(&request, &JobHandle::new(), &recorder);
            assert!(response.result.is_ok(), "serial={flag}");
            assert_eq!(recorder.0.into_inner().unwrap(), expected, "serial={flag}");
        }
    }

    #[test]
    fn stream_request_matches_direct_run() {
        let spec = msfu_core::StreamSpec::new("t")
            .with_horizon(500)
            .server(FactoryConfig::single_level(2), 1)
            .class(msfu_core::JobClass::new("c", Strategy::linear()))
            .with_schedulers(&["fifo"])
            .with_eval_cache(false);
        let direct = spec.clone().run().unwrap();
        let request = Request::stream("s", spec);
        let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
        let Ok(Payload::Stream(report)) = response.result else {
            panic!("expected stream payload")
        };
        assert_eq!(*report, direct);
        assert_eq!(response.kind, "stream");
    }

    #[test]
    fn responses_stamp_their_outcomes_cache_counters() {
        let sweep = tiny_sweep("t").point("a", FactoryConfig::single_level(2), Strategy::linear());
        let search = msfu_core::SearchSpec::from_json(
            r#"{"name": "s", "factory": {"k": 2}, "budget": 6, "batch_size": 3,
                "portfolio": [{"strategy": {"strategy": "random"}, "seeded": true},
                              {"strategy": {"strategy": "linear"}, "seeded": false}]}"#,
        )
        .unwrap();
        let stream = msfu_core::StreamSpec::new("t")
            .with_horizon(500)
            .server(FactoryConfig::single_level(2), 1)
            .class(msfu_core::JobClass::new("c", Strategy::linear()))
            .with_schedulers(&["fifo", "priority"]);
        let ctrl = msfu_core::RunControl::default();
        let cases = [
            (
                Request::sweep("a", sweep.clone()),
                sweep.run_with(&ctrl).unwrap().cache,
            ),
            (
                Request::search("b", search.clone()),
                search.run_with(&ctrl).unwrap().cache,
            ),
            (
                Request::stream("c", stream.clone()),
                stream.run_with(&ctrl).unwrap().cache,
            ),
        ];
        for (request, expected) in cases {
            let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
            assert!(response.result.is_ok(), "{}", response.kind);
            assert!(expected.misses > 0, "{}: {expected:?}", response.kind);
            assert_eq!(response.perf.cache, Some(expected), "{}", response.kind);
            assert!(response.to_json().contains(r#""cache":{"hits":"#));
        }
        let request = Request::evaluate(
            "e",
            FactoryConfig::single_level(2),
            Strategy::linear(),
            EvaluationConfig::default(),
        );
        let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
        assert_eq!(response.perf.cache, None);
        assert!(!response.to_json().contains(r#""cache""#));
    }

    #[test]
    fn errors_carry_stable_codes() {
        let request = Request::evaluate(
            "bad",
            FactoryConfig::new(0, 1),
            Strategy::linear(),
            EvaluationConfig::default(),
        );
        let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
        let Err(error) = response.result else {
            panic!("zero-capacity factory must fail")
        };
        assert_eq!(error.code, "E_FACTORY_ZERO_CAPACITY");

        let request = Request::evaluate(
            "bad",
            FactoryConfig::single_level(2),
            Strategy::new("no_such_mapper", msfu_layout::MapperParams::new()),
            EvaluationConfig::default(),
        );
        let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
        assert_eq!(response.result.unwrap_err().code, "E_UNKNOWN_STRATEGY");
    }

    #[test]
    fn pre_cancelled_sweep_returns_empty_partial_results() {
        let handle = JobHandle::new();
        handle.cancel();
        let request = Request::sweep("c", tiny_sweep("t"));
        let response = Service::new().run(&request, &handle, &NoProgress);
        assert!(response.cancelled);
        let Ok(Payload::Sweep(results)) = &response.result else {
            panic!("cancelled sweep still responds ok")
        };
        assert!(results.rows.is_empty());
    }

    #[test]
    fn past_deadline_interrupts_like_a_cancel() {
        let request = Request::sweep("d", tiny_sweep("t")).with_deadline_ms(0);
        let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
        assert!(response.cancelled);
    }
}
