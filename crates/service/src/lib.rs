//! # msfu-service
//!
//! The versioned request/response façade of the MSFU reproduction: one
//! stable, machine-readable surface through which every capability of the
//! pipeline — single evaluations, declarative sweeps, portfolio searches,
//! streaming workloads — is reachable by a server, a queue worker or a
//! non-Rust client.
//!
//! * [`protocol`] — the wire contract: a versioned [`Request`] (one of
//!   `evaluate` / `sweep` / `search` / `stream`, payloads reusing the JSON
//!   spec formats of `msfu_core`), a typed [`Response`] carrying the result payload,
//!   a perf stamp and [stable error codes](mod@error_code), and the NDJSON
//!   progress-event encoding.
//! * [`Service`] — executes one request against the pipeline, streaming
//!   [`msfu_core::ProgressEvent`]s to a caller-supplied sink and honouring a
//!   [`JobHandle`]'s cooperative cancellation and deadline between batches.
//! * [`serve`] — a JSON-lines session loop (requests in, interleaved
//!   progress events and responses out) serving any number of jobs from one
//!   process, with per-worker simulator engines reused across jobs and
//!   in-flight jobs cancellable by a `{"cancel": <id>}` line. Its per-request
//!   path, [`Session`], is the one every front end (`msfu run`, `msfu
//!   serve`, the bench harness) runs requests through, and
//!   [`write_bench_report`] the one `BENCH_<name>.json` writer.
//! * [`cluster`] — the supervised multi-worker coordinator behind
//!   `--workers N`: sweeps/searches shard deterministically across a pool
//!   of worker serve sessions (in-process threads or child processes), with
//!   shard timeouts, bounded re-dispatch with backoff, worker respawn,
//!   in-process fallback when the whole pool is lost, cancellation fan-out,
//!   and a merge that keeps results byte-identical to a single-process run.
//! * [`faults`] — seeded, JSON-declarable fault injection ([`FaultPlan`]):
//!   worker crashes, stalls, garbled responses and cache corruption, used
//!   by the robustness tests and the CI chaos soak to drive the recovery
//!   paths deterministically.
//!
//! # Example
//!
//! ```
//! use msfu_core::{EvaluationConfig, NoProgress, Strategy};
//! use msfu_distill::FactoryConfig;
//! use msfu_service::{JobHandle, Request, Service};
//!
//! let request = Request::evaluate(
//!     "demo",
//!     FactoryConfig::single_level(2),
//!     Strategy::linear(),
//!     EvaluationConfig::default(),
//! );
//! let response = Service::new().run(&request, &JobHandle::new(), &NoProgress);
//! assert!(response.result.is_ok());
//! println!("{}", response.to_json());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod error_code;
pub mod faults;
pub mod ndjson;
pub mod protocol;
mod serve;
mod service;

pub use cluster::{plan_shards, ClusterBackend, WorkerEvent};
pub use error_code::{error_code, ALL_ERROR_CODES};
pub use faults::{FaultPlan, WorkerFaultSpec};
pub use ndjson::NdjsonSink;
pub use protocol::{
    ClusterPerf, Job, Payload, Request, RequestError, Response, ResponsePerf, ServiceError,
    SessionLine, PROTOCOL_VERSION,
};
pub use serve::{serve, write_bench_report, ServeOptions, ServeSummary, Session};
pub use service::{JobHandle, Service};
