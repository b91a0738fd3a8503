//! The wire contract: versioned requests, typed responses, stable error
//! codes.
//!
//! A request is one JSON object (one line of a `serve` session, or a whole
//! file for `msfu run`):
//!
//! ```json
//! {"protocol_version": 1, "id": "job-1", "kind": "sweep", "serial": false,
//!  "sweep": { ...a SweepSpec document (msfu_core::spec)... }}
//! {"protocol_version": 1, "id": "job-2", "kind": "search",
//!  "search": { ...a SearchSpec document... }}
//! {"protocol_version": 1, "id": "job-5", "kind": "stream",
//!  "stream": { ...a StreamSpec document (msfu_core::stream)... }}
//! {"protocol_version": 1, "id": "job-3", "kind": "evaluate",
//!  "factory": {"k": 2}, "strategy": {"strategy": "linear"},
//!  "eval": {"routing": "dimension-ordered"}}
//! {"protocol_version": 1, "cancel": "job-1"}
//! ```
//!
//! Optional request fields: `id` (a string; defaults to `"job"`), `serial`
//! (run the job sequentially; results are identical), `deadline_ms` (stop
//! the job cooperatively after this many milliseconds, like a cancel). As
//! in every JSON document the workspace reads ([`msfu_core::spec::Fields`]),
//! a field set to `null` reads as absent and a repeated or unknown field is
//! an error.
//!
//! A response is one JSON object tagged `"type": "response"`, carrying the
//! echoed `id`, a `status` of `"ok"` or `"error"`, a `cancelled` flag (a
//! cancelled sweep/search still reports the rows/candidates it completed —
//! partial results, not an error), a `perf` stamp, and either the payload
//! under `result` or a stable machine-readable error under `error`. In-process
//! sweep, search and stream responses stamp their evaluation-cache counters
//! as `perf.cache`; `evaluate` and coordinated (`--workers N`) responses
//! carry none:
//!
//! ```json
//! {"type": "response", "protocol_version": 1, "id": "job-1", "kind": "sweep",
//!  "status": "ok", "cancelled": false,
//!  "perf": {"wall_seconds": 1.5, "serial": false,
//!           "cache": {"hits": 3, "misses": 7, "disk_hits": 0, "loaded": 0,
//!                     "persisted": 0, "warnings": 0}},
//!  "result": {"results": {"name": "fig7", "rows": [ ... ]}}}
//! {"type": "response", "protocol_version": 1, "id": "job-9", "kind": "sweep",
//!  "status": "error", "cancelled": false, "perf": {"wall_seconds": 0.0, "serial": false},
//!  "error": {"code": "E_UNKNOWN_STRATEGY", "message": "no mapping strategy ..."}}
//! ```
//!
//! Error `code`s come from the pinned table in [`crate::error_code`](mod@crate::error_code);
//! clients branch on codes, never on messages.

use std::fmt;
use std::path::PathBuf;

use serde::Serialize;
use serde_json::Value;

use msfu_core::spec::{eval_from_json, factory_from_json, strategy_from_json, Fields};
use msfu_core::{
    CacheStats, CoreError, Evaluation, EvaluationConfig, SearchReport, SearchSpec, Strategy,
};
use msfu_core::{StreamReport, StreamSpec, SweepResults, SweepSpec};
use msfu_distill::FactoryConfig;

use crate::error_code::{error_code, E_PROTOCOL_VERSION, E_REQUEST_PARSE};

/// The protocol version this build speaks. Requests carrying any other
/// version are rejected with [`E_PROTOCOL_VERSION`] — a typed error
/// response, never a panic — so old clients fail loudly and newer servers
/// can dispatch on it.
pub const PROTOCOL_VERSION: u64 = 1;

/// A machine-readable job failure: a stable `code` from
/// [`crate::error_code::ALL_ERROR_CODES`] plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ServiceError {
    /// The stable error code (part of the wire contract).
    pub code: &'static str,
    /// Human-readable explanation (not part of the stable contract).
    pub message: String,
}

impl ServiceError {
    /// Creates an error.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
        }
    }

    /// Wraps a pipeline error under its stable code.
    pub fn from_core(error: &CoreError) -> Self {
        ServiceError::new(error_code(error), error.to_string())
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServiceError {}

/// A request that could not be decoded, with the `id` recovered from the
/// document (when there was one) so the error response can still be
/// correlated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id, when the document carried a readable one.
    pub id: Option<String>,
    /// What went wrong.
    pub error: ServiceError,
}

/// The work a request asks for.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Job {
    /// One factory configuration × one strategy → one [`Evaluation`].
    Evaluate {
        /// The factory to build.
        factory: FactoryConfig,
        /// The mapping strategy to apply.
        strategy: Strategy,
        /// Evaluation configuration.
        eval: EvaluationConfig,
    },
    /// A declarative sweep grid.
    Sweep {
        /// The sweep to run.
        spec: SweepSpec,
    },
    /// A portfolio search.
    Search {
        /// The search to run.
        spec: SearchSpec,
    },
    /// A streaming workload over a fixed factory fleet.
    Stream {
        /// The stream to run.
        spec: StreamSpec,
    },
}

impl Job {
    /// The job's wire name (`evaluate`, `sweep`, `search` or `stream`).
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Evaluate { .. } => "evaluate",
            Job::Sweep { .. } => "sweep",
            Job::Search { .. } => "search",
            Job::Stream { .. } => "stream",
        }
    }

    /// The spec's persistent cache directory, for the front ends to fill in
    /// a default; `None` for `evaluate` jobs, which use no cache.
    pub fn cache_dir_mut(&mut self) -> Option<&mut Option<PathBuf>> {
        match self {
            Job::Evaluate { .. } => None,
            Job::Sweep { spec } => Some(&mut spec.cache_dir),
            Job::Search { spec } => Some(&mut spec.cache_dir),
            Job::Stream { spec } => Some(&mut spec.cache_dir),
        }
    }
}

/// A versioned job request.
///
/// `#[non_exhaustive]`: construct with [`Request::evaluate`],
/// [`Request::sweep`], [`Request::search`] or [`Request::stream`] and refine
/// with the `with_*` builders, so the protocol can grow fields without a
/// semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Request {
    /// The protocol version the client speaks (constructors pin
    /// [`PROTOCOL_VERSION`]).
    pub protocol_version: u64,
    /// Caller-chosen correlation id, echoed on every progress event and on
    /// the response.
    pub id: String,
    /// Run the job sequentially on one thread (results are identical to a
    /// parallel run).
    pub serial: bool,
    /// Cooperative deadline in milliseconds from job start; past it the job
    /// stops at the next batch boundary exactly like a cancellation.
    pub deadline_ms: Option<u64>,
    /// The work to do.
    pub job: Job,
}

impl Request {
    fn new(id: impl Into<String>, job: Job) -> Self {
        Request {
            protocol_version: PROTOCOL_VERSION,
            id: id.into(),
            serial: false,
            deadline_ms: None,
            job,
        }
    }

    /// An `evaluate` request.
    pub fn evaluate(
        id: impl Into<String>,
        factory: FactoryConfig,
        strategy: Strategy,
        eval: EvaluationConfig,
    ) -> Self {
        Request::new(
            id,
            Job::Evaluate {
                factory,
                strategy,
                eval,
            },
        )
    }

    /// A `sweep` request.
    pub fn sweep(id: impl Into<String>, spec: SweepSpec) -> Self {
        Request::new(id, Job::Sweep { spec })
    }

    /// A `search` request.
    pub fn search(id: impl Into<String>, spec: SearchSpec) -> Self {
        Request::new(id, Job::Search { spec })
    }

    /// A `stream` request.
    pub fn stream(id: impl Into<String>, spec: StreamSpec) -> Self {
        Request::new(id, Job::Stream { spec })
    }

    /// Requests serial execution (builder style).
    pub fn with_serial(mut self, serial: bool) -> Self {
        self.serial = serial;
        self
    }

    /// Attaches a cooperative deadline in milliseconds (builder style).
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Decodes a request document.
    ///
    /// # Errors
    ///
    /// Returns [`E_REQUEST_PARSE`] for malformed documents,
    /// [`E_PROTOCOL_VERSION`] for a version this build does not speak, and
    /// spec-level codes for undecodable payloads.
    pub fn from_json(text: &str) -> Result<Self, RequestError> {
        match SessionLine::from_json(text)? {
            SessionLine::Request(request) => Ok(*request),
            SessionLine::Cancel(id) => Err(RequestError {
                id: Some(id),
                error: ServiceError::new(
                    E_REQUEST_PARSE,
                    "a cancel line is only valid inside a serve session",
                ),
            }),
        }
    }
}

/// One line of a `serve` session: a job request, or a cancellation of an
/// earlier one.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionLine {
    /// A job request.
    Request(Box<Request>),
    /// `{"cancel": "<id>"}` — cancel the in-flight or queued job with that
    /// id.
    Cancel(String),
}

impl SessionLine {
    /// Decodes one session line.
    ///
    /// # Errors
    ///
    /// As [`Request::from_json`].
    pub fn from_json(text: &str) -> Result<Self, RequestError> {
        let parse_err = |id: &Option<String>, message: String| RequestError {
            id: id.clone(),
            error: ServiceError::new(E_REQUEST_PARSE, message),
        };
        let root = serde_json::from_str(text)
            .map_err(|e| parse_err(&None, format!("request is not valid JSON: {e}")))?;
        let mut f = Fields::new(&root, "request", |message| message)
            .map_err(|message| parse_err(&None, message))?;
        // Recover the id first so even version/shape errors correlate.
        let id = f
            .opt_str("id")
            .map_err(|message| parse_err(&None, message))?
            .map(str::to_string);
        let fail = |message: String| parse_err(&id, message);

        let version = f.u64("protocol_version").map_err(fail)?;
        if version != PROTOCOL_VERSION {
            return Err(RequestError {
                id,
                error: ServiceError::new(
                    E_PROTOCOL_VERSION,
                    format!(
                        "this server speaks protocol version {PROTOCOL_VERSION}, not {version}"
                    ),
                ),
            });
        }

        if let Some(target) = f.opt_str("cancel").map_err(fail)? {
            if id.is_some() {
                return Err(fail(f.error("unknown field `id` on a cancel line")));
            }
            f.finish()
                .map_err(|message| fail(format!("{message} on a cancel line")))?;
            return Ok(SessionLine::Cancel(target.to_string()));
        }

        let kind = f
            .opt_str("kind")
            .map_err(fail)?
            .ok_or_else(|| fail(f.error("missing `kind` (evaluate, sweep, search or stream)")))?;
        let serial = f.opt_bool("serial").map_err(fail)?.unwrap_or(false);
        let deadline_ms = f.opt_u64("deadline_ms").map_err(fail)?;
        // The payload fields are taken before `finish`, so an unknown
        // envelope field is refused before any payload is decoded.
        let (payload, strategy, eval) = match kind {
            "evaluate" => (
                f.opt_value("factory"),
                f.opt_value("strategy"),
                f.opt_value("eval"),
            ),
            "sweep" | "search" | "stream" => (f.opt_value(kind), None, None),
            other => {
                return Err(fail(f.error(format_args!(
                    "unknown kind `{other}` (expected evaluate, sweep, search or stream)"
                ))))
            }
        };
        f.finish().map_err(fail)?;
        let missing = |key: &str| fail(format!("request: missing `{key}`"));
        let spec_fail = |e: CoreError| RequestError {
            id: id.clone(),
            error: ServiceError::from_core(&e),
        };
        let job = match kind {
            "evaluate" => Job::Evaluate {
                factory: factory_from_json(payload.ok_or_else(|| missing("factory"))?)
                    .map_err(spec_fail)?,
                strategy: strategy_from_json(strategy.ok_or_else(|| missing("strategy"))?)
                    .map_err(spec_fail)?,
                eval: match eval {
                    Some(v) => eval_from_json(v).map_err(spec_fail)?,
                    None => EvaluationConfig::default(),
                },
            },
            _ => {
                let payload = payload.ok_or_else(|| missing(kind))?;
                match kind {
                    "sweep" => Job::Sweep {
                        spec: SweepSpec::from_value(payload).map_err(spec_fail)?,
                    },
                    "search" => Job::Search {
                        spec: SearchSpec::from_value(payload).map_err(spec_fail)?,
                    },
                    _ => Job::Stream {
                        spec: StreamSpec::from_value(payload).map_err(spec_fail)?,
                    },
                }
            }
        };
        let mut request = Request::new(id.unwrap_or_else(|| "job".to_string()), job);
        request.serial = serial;
        request.deadline_ms = deadline_ms;
        Ok(SessionLine::Request(Box::new(request)))
    }
}

/// Cluster execution stamp of one coordinated (multi-worker) job, rendered
/// under `perf.cluster` of the response. All fields are observability-only:
/// the merged rows/incumbents are byte-identical to serial regardless.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[non_exhaustive]
pub struct ClusterPerf {
    /// The communicator backend (`"local-threads"` or `"child-process"`).
    pub backend: &'static str,
    /// Worker pool size the job was coordinated over.
    pub workers: usize,
    /// Shard dispatches that completed (re-dispatches included).
    pub shards: u64,
    /// Shards re-dispatched after a worker fault (death, hang past the
    /// shard timeout, or an undecodable response).
    pub shards_retried: u64,
    /// Replacement workers the supervisor spawned after deaths.
    pub workers_respawned: u64,
    /// Shards dispatched to the coordinator's in-process slot, which joins
    /// the pool once every worker is lost with the respawn budget spent.
    pub shards_local_fallback: u64,
    /// Mean fraction of the pool busy over the job's wall time:
    /// `Σ shard wall / (job wall × workers)`.
    pub occupancy: f64,
    /// Coordinator overhead: job wall time minus ideal parallel shard time
    /// (`Σ shard wall / workers`), clamped at zero.
    pub coordinator_seconds: f64,
}

/// Wall-time stamp of one served job.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ResponsePerf {
    /// End-to-end job wall time in seconds.
    pub wall_seconds: f64,
    /// Whether the job ran serially.
    pub serial: bool,
    /// Evaluation-cache counters of an in-process sweep, search or stream
    /// job (observability only; never affects `result`).
    pub cache: Option<CacheStats>,
    /// Cluster stamp, present when the job was coordinated across workers.
    pub cluster: Option<ClusterPerf>,
}

impl ResponsePerf {
    /// Creates a stamp.
    pub fn new(wall_seconds: f64, serial: bool) -> Self {
        ResponsePerf {
            wall_seconds,
            serial,
            cache: None,
            cluster: None,
        }
    }

    /// Attaches a cluster stamp (builder style).
    pub fn with_cluster(mut self, cluster: ClusterPerf) -> Self {
        self.cluster = Some(cluster);
        self
    }

    pub(crate) fn to_value(self) -> Value {
        let mut entries = vec![
            ("wall_seconds".to_string(), Value::Float(self.wall_seconds)),
            ("serial".to_string(), Value::Bool(self.serial)),
        ];
        if let Some(cache) = self.cache {
            entries.push(("cache".to_string(), cache.to_value()));
        }
        if let Some(cluster) = self.cluster {
            entries.push(("cluster".to_string(), cluster.to_value()));
        }
        Value::Object(entries)
    }
}

/// The result payload of a successful job.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Payload {
    /// Outcome of an `evaluate` job.
    Evaluate(Box<Evaluation>),
    /// Outcome of a `sweep` job (all rows, or the completed prefix when the
    /// response is marked cancelled).
    Sweep(SweepResults),
    /// Outcome of a `search` job.
    Search(Box<SearchReport>),
    /// Outcome of a `stream` job (all scheduler runs, or the completed
    /// prefix when the response is marked cancelled).
    Stream(Box<StreamReport>),
}

impl Payload {
    /// The name of the executed spec, when the payload has one (used to name
    /// `BENCH_<name>.json` reports written by a serve session).
    pub fn name(&self) -> Option<&str> {
        match self {
            Payload::Evaluate(_) => None,
            Payload::Sweep(results) => Some(&results.name),
            Payload::Search(report) => Some(&report.name),
            Payload::Stream(report) => Some(&report.name),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            Payload::Evaluate(evaluation) => {
                Value::Object(vec![("evaluation".to_string(), evaluation.to_value())])
            }
            Payload::Sweep(results) => {
                Value::Object(vec![("results".to_string(), results.to_value())])
            }
            Payload::Search(report) => Value::Object(vec![
                ("search".to_string(), report.to_value()),
                // The search's entry-best/incumbent rows in sweep shape, so
                // search responses plug into the same report tooling
                // (bench-diff gating) as sweep responses.
                ("results".to_string(), report.to_sweep_results().to_value()),
            ]),
            Payload::Stream(report) => Value::Object(vec![
                ("stream".to_string(), report.to_value()),
                // The stream's p50/p99/throughput rows in sweep shape, for
                // the same bench-diff gating as sweeps and searches.
                ("results".to_string(), report.to_sweep_results().to_value()),
            ]),
        }
    }
}

/// The typed outcome of one request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Response {
    /// The request's id, echoed.
    pub id: String,
    /// The request's job kind (`"unknown"` when the request itself could not
    /// be decoded).
    pub kind: &'static str,
    /// `true` when the job was cancelled (or hit its deadline) at a batch
    /// boundary; the payload then holds the partial results completed so
    /// far.
    pub cancelled: bool,
    /// Wall-time stamp.
    pub perf: ResponsePerf,
    /// The payload, or a stable machine-readable error.
    pub result: Result<Payload, ServiceError>,
}

impl Response {
    /// Creates a response.
    pub fn new(
        id: impl Into<String>,
        kind: &'static str,
        cancelled: bool,
        perf: ResponsePerf,
        result: Result<Payload, ServiceError>,
    ) -> Self {
        Response {
            id: id.into(),
            kind,
            cancelled,
            perf,
            result,
        }
    }

    /// The error response for a request that never became a job.
    pub fn for_request_error(error: RequestError) -> Self {
        Response::new(
            error.id.unwrap_or_else(|| "?".to_string()),
            "unknown",
            false,
            ResponsePerf::new(0.0, false),
            Err(error.error),
        )
    }

    /// The name of the executed spec, when the payload carries one.
    pub fn name(&self) -> Option<&str> {
        self.result.as_ref().ok().and_then(Payload::name)
    }

    /// Renders the response as its wire JSON object.
    pub fn to_value(&self) -> Value {
        let mut entries = vec![
            ("type".to_string(), Value::Str("response".to_string())),
            (
                "protocol_version".to_string(),
                Value::UInt(PROTOCOL_VERSION),
            ),
            ("id".to_string(), Value::Str(self.id.clone())),
            ("kind".to_string(), Value::Str(self.kind.to_string())),
            (
                "status".to_string(),
                Value::Str(if self.result.is_ok() { "ok" } else { "error" }.to_string()),
            ),
            ("cancelled".to_string(), Value::Bool(self.cancelled)),
            ("perf".to_string(), self.perf.to_value()),
        ];
        match &self.result {
            Ok(payload) => entries.push(("result".to_string(), payload.to_value())),
            Err(error) => entries.push(("error".to_string(), error.to_value())),
        }
        Value::Object(entries)
    }

    /// Renders the response as one compact JSON line (the serve wire form).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("response serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_code::{E_SPEC_PARSE, E_STREAM_SPEC};

    #[test]
    fn request_round_trips_each_kind() {
        let evaluate = Request::from_json(
            r#"{"protocol_version": 1, "id": "e", "kind": "evaluate",
                "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#,
        )
        .unwrap();
        assert_eq!(evaluate.id, "e");
        assert_eq!(evaluate.job.kind(), "evaluate");

        let sweep = Request::from_json(
            r#"{"protocol_version": 1, "kind": "sweep", "serial": true,
                "sweep": {"name": "s", "points": [
                    {"label": "p", "factory": {"k": 2},
                     "strategy": {"strategy": "linear"}}]}}"#,
        )
        .unwrap();
        assert_eq!(sweep.id, "job", "id defaults");
        assert!(sweep.serial);
        let Job::Sweep { spec } = &sweep.job else {
            panic!("expected a sweep job")
        };
        assert_eq!(spec.points.len(), 1);

        let search = Request::from_json(
            r#"{"protocol_version": 1, "id": "s", "kind": "search", "deadline_ms": 250,
                "search": {"name": "x", "factory": {"k": 2},
                           "portfolio": [{"strategy": {"strategy": "linear"},
                                          "seeded": false}]}}"#,
        )
        .unwrap();
        assert_eq!(search.deadline_ms, Some(250));
        assert_eq!(search.job.kind(), "search");

        let stream = Request::from_json(
            r#"{"protocol_version": 1, "id": "t", "kind": "stream",
                "stream": {"name": "quick", "horizon": 100,
                           "arrivals": {"process": "poisson", "rate": 0.01},
                           "fleet": [{"factory": {"k": 2}, "count": 1}],
                           "classes": [{"name": "c",
                                        "strategy": {"strategy": "linear"}}],
                           "schedulers": ["fifo"]}}"#,
        )
        .unwrap();
        assert_eq!(stream.id, "t");
        assert_eq!(stream.job.kind(), "stream");
        let Job::Stream { spec } = &stream.job else {
            panic!("expected a stream job")
        };
        assert_eq!(spec.schedulers, vec!["fifo"]);
    }

    #[test]
    fn version_mismatch_is_a_typed_error_not_a_panic() {
        let err = Request::from_json(r#"{"protocol_version": 99, "id": "v", "kind": "sweep"}"#)
            .expect_err("version 99 must be rejected");
        assert_eq!(err.error.code, E_PROTOCOL_VERSION);
        assert_eq!(err.id.as_deref(), Some("v"), "id still correlates");
        assert!(err.error.message.contains("99"), "{}", err.error.message);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (bad, needle) in [
            ("not json", "JSON"),
            (r#"[1, 2]"#, "object"),
            (r#"{"id": "x"}"#, "protocol_version"),
            (r#"{"protocol_version": 1}"#, "kind"),
            (r#"{"protocol_version": 1, "kind": "dance"}"#, "dance"),
            (
                r#"{"protocol_version": 1, "kind": "sweep", "bogus": 1}"#,
                "bogus",
            ),
            (r#"{"protocol_version": 1, "kind": "sweep"}"#, "sweep"),
            // A numeric id once ran and was answered as "job", which the
            // client could not correlate.
            (
                r#"{"protocol_version": 1, "id": 5, "kind": "evaluate",
                    "factory": {"k": 2}, "strategy": {"strategy": "linear"}}"#,
                "`id` must be a string",
            ),
        ] {
            let err = Request::from_json(bad).expect_err("must fail");
            assert_eq!(err.error.code, E_REQUEST_PARSE, "{bad}");
            assert!(err.error.message.contains(needle), "{bad} -> {}", err.error);
        }
    }

    #[test]
    fn null_reads_as_absent_and_repeated_fields_are_errors() {
        let request = |kind: &str, spec: &str| {
            format!(r#"{{"protocol_version": 1, "id": "r", "kind": "{kind}", "{kind}": {spec}}}"#)
        };
        let sweep = |extra: &str| {
            request(
                "sweep",
                &format!(
                    r#"{{"name": "s"{extra}, "points": [{{"label": "p", "factory": {{"k": 2}},
                        "strategy": {{"strategy": "linear"}}}}]}}"#
                ),
            )
        };
        let search = |extra: &str| {
            request(
                "search",
                &format!(
                    r#"{{"name": "s"{extra}, "factory": {{"k": 2}},
                        "portfolio": [{{"strategy": {{"strategy": "linear"}}}}]}}"#
                ),
            )
        };
        let stream = |extra: &str| {
            request(
                "stream",
                &format!(
                    r#"{{"name": "s"{extra}, "horizon": 100,
                        "arrivals": {{"process": "poisson", "rate": 0.01}},
                        "fleet": [{{"factory": {{"k": 2}}}}],
                        "classes": [{{"name": "c", "strategy": {{"strategy": "linear"}}}}]}}"#
                ),
            )
        };
        let evaluate = |extra: &str| {
            format!(
                r#"{{"protocol_version": 1, "kind": "evaluate"{extra}, "factory": {{"k": 2}},
                    "strategy": {{"strategy": "random", "seed": 3}}}}"#
            )
        };
        // (decoder, with a null field, without it, with a repeated field,
        // expected code, the repeated field)
        let cases = [
            (
                "sweep",
                sweep(r#", "cache_dir": null"#),
                sweep(""),
                sweep(r#", "lanes": 1, "lanes": 2"#),
                E_SPEC_PARSE,
                "lanes",
            ),
            (
                "search",
                search(r#", "cache_dir": null, "target": null"#),
                search(""),
                search(r#", "budget": 1, "budget": 2"#),
                E_SPEC_PARSE,
                "budget",
            ),
            (
                "stream",
                stream(r#", "cache_dir": null, "eval": null"#),
                stream(""),
                stream(r#", "seed": 1, "seed": 2"#),
                E_STREAM_SPEC,
                "seed",
            ),
            (
                "request",
                evaluate(r#", "id": null, "eval": null"#),
                evaluate(""),
                evaluate(r#", "serial": true, "serial": false"#),
                E_REQUEST_PARSE,
                "serial",
            ),
            (
                "strategy",
                evaluate("").replace(r#""seed": 3"#, r#""seed": 3, "label": null"#),
                evaluate(""),
                evaluate("").replace(r#""seed": 3"#, r#""seed": 3, "seed": 4"#),
                E_SPEC_PARSE,
                "seed",
            ),
        ];
        for (decoder, with_null, without, repeated, code, field) in cases {
            assert_eq!(
                Request::from_json(&with_null).unwrap(),
                Request::from_json(&without).unwrap(),
                "{decoder}: null must read as absent"
            );
            let err = Request::from_json(&repeated).expect_err("a repeated field must fail");
            assert_eq!(err.error.code, code, "{decoder}: {}", err.error);
            let needle = format!("duplicate field `{field}`");
            assert!(
                err.error.message.contains(&needle),
                "{decoder}: {}",
                err.error
            );
        }

        use crate::faults::FaultPlan;
        assert_eq!(
            FaultPlan::from_json(r#"{"seed": null, "crash": null}"#).unwrap(),
            FaultPlan::new()
        );
        let err = FaultPlan::from_json(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert!(err.contains("duplicate field `seed`"), "fault plan: {err}");
    }

    #[test]
    fn spec_errors_surface_spec_codes() {
        let err = Request::from_json(
            r#"{"protocol_version": 1, "kind": "sweep", "sweep": {"eval": {}}}"#,
        )
        .expect_err("spec without a name must fail");
        assert_eq!(err.error.code, E_SPEC_PARSE);
    }

    #[test]
    fn zero_gate_latency_is_a_spec_error() {
        // A zero-cycle gate once held its cells forever and the evaluation
        // ran into the cycle limit instead of being refused up front.
        let err = Request::from_json(
            r#"{"protocol_version": 1, "id": "z", "kind": "evaluate",
                "factory": {"capacity": 2}, "strategy": {"strategy": "linear"},
                "eval": {"routing": "dimension-ordered", "latency": {"single_qubit": 0}}}"#,
        )
        .expect_err("a zero gate latency must be rejected");
        assert_eq!(err.error.code, E_SPEC_PARSE);
        assert_eq!(err.id.as_deref(), Some("z"), "id still correlates");
        assert!(
            err.error.message.contains("must be at least 1 cycle"),
            "{}",
            err.error.message
        );
    }

    #[test]
    fn cancel_lines_parse_only_in_sessions() {
        let line = SessionLine::from_json(r#"{"protocol_version": 1, "cancel": "job-1"}"#).unwrap();
        assert_eq!(line, SessionLine::Cancel("job-1".to_string()));
        let err = Request::from_json(r#"{"protocol_version": 1, "cancel": "job-1"}"#)
            .expect_err("cancel is not a standalone request");
        assert_eq!(err.error.code, E_REQUEST_PARSE);
    }

    #[test]
    fn response_renders_status_error_and_cancelled() {
        let ok = Response::new(
            "a",
            "sweep",
            true,
            ResponsePerf::new(1.0, false),
            Ok(Payload::Sweep(SweepResults {
                name: "s".to_string(),
                rows: Vec::new(),
            })),
        );
        let value = ok.to_value();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            value.get("cancelled"),
            Some(&Value::Bool(true)),
            "partial results carry cancelled: true"
        );
        assert!(value.get("result").is_some());
        assert_eq!(ok.name(), Some("s"));

        let err = Response::new(
            "b",
            "search",
            false,
            ResponsePerf::new(0.0, true),
            Err(ServiceError::new(E_REQUEST_PARSE, "boom")),
        );
        let value = err.to_value();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some(E_REQUEST_PARSE)
        );
        assert!(err.to_json().starts_with('{'));
    }
}
