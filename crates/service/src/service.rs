//! The job executor: one [`Request`] in, one [`Response`] out, with
//! streaming progress and cooperative cancellation in between.

use std::time::{Duration, Instant};

use msfu_core::{evaluate, CancelToken, ProgressSink, RunControl};

use crate::protocol::{Job, Payload, Request, Response, ResponsePerf, ServiceError};

/// A handle onto one running (or about-to-run) job: clone-free cancellation
/// from any thread.
///
/// The handle owns a [`CancelToken`]; cancelling it stops the job at its
/// next batch boundary, after which the response carries the partial results
/// completed so far with `cancelled: true`. The per-thread simulator engines
/// are left intact and reusable — a cancelled job costs nothing beyond the
/// batches it finished.
#[derive(Debug, Clone, Default)]
pub struct JobHandle {
    token: CancelToken,
}

impl JobHandle {
    /// Creates a fresh handle.
    pub fn new() -> Self {
        JobHandle::default()
    }

    /// Requests cooperative cancellation (idempotent, any thread).
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.token.is_cancelled()
    }

    /// The underlying token (clone it to share with watchdog threads).
    pub fn token(&self) -> &CancelToken {
        &self.token
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

    /// Executes one request to completion (or cancellation/deadline),
    /// streaming progress events to `progress`.
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
        let mut ctrl = RunControl::default()
            .with_progress(progress)
            .with_cancel(handle.token());
        if let Some(ms) = request.deadline_ms {
            ctrl = ctrl.with_deadline(start + Duration::from_millis(ms));
        }
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
            Job::Sweep { spec } => {
                let outcome = if request.serial {
                    spec.run_serial_with(&ctrl)
                } else {
                    spec.run_with(&ctrl)
                };
                match outcome {
                    Ok(outcome) => (
                        Ok(Payload::Sweep(outcome.results)),
                        outcome.interrupted,
                        Some(outcome.cache),
                    ),
                    Err(e) => (Err(ServiceError::from_core(&e)), false, None),
                }
            }
            Job::Search { spec } => {
                let outcome = if request.serial {
                    spec.run_serial_with(&ctrl)
                } else {
                    spec.run_with(&ctrl)
                };
                match outcome {
                    Ok(outcome) => (
                        Ok(Payload::Search(Box::new(outcome.report))),
                        outcome.interrupted,
                        Some(outcome.cache),
                    ),
                    Err(e) => (Err(ServiceError::from_core(&e)), false, None),
                }
            }
            // The streaming engine is inherently sequential (one shared
            // clock), so `serial` changes nothing — results are identical
            // either way.
            Job::Stream { spec } => match spec.run_with(&ctrl) {
                Ok(outcome) => (
                    Ok(Payload::Stream(Box::new(outcome.report))),
                    outcome.interrupted,
                    Some(outcome.cache),
                ),
                Err(e) => (Err(ServiceError::from_core(&e)), false, None),
            },
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
