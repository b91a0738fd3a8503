//! # msfu-core
//!
//! End-to-end pipeline of the MSFU reproduction (Ding et al., MICRO 2018):
//! build a Bravyi-Haah block-code factory, map it with one of the paper's
//! placement strategies, simulate the braid schedule on a 2-D surface-code
//! mesh, and report latency, area and space-time (quantum) volume.
//!
//! The crate glues the substrates together:
//!
//! * [`Strategy`] — mapping strategies as plain data: one of the five
//!   Table I strategies (`Random`, `Line`, `FD`, `GP`, `HS`) by key, plus
//!   its parameters.
//! * [`evaluate`] — one factory configuration × one strategy → an
//!   [`Evaluation`] record (realised latency, area, volume, stalls, and the
//!   critical-path lower bound), run as a one-point sweep.
//! * [`pipeline`] — the per-round breakdown of Fig. 3 / Fig. 9: round
//!   latencies and inter-round permutation latencies under a given layout.
//! * [`sweep`] — the parallel sweep engine: declarative
//!   `FactoryConfig × Strategy` grids executed across all cores with a shared
//!   immutable factory cache; every figure/table of the paper is a thin
//!   [`SweepSpec`] over it.
//! * [`spec`] — sweep and search specifications as JSON *data*: grids of
//!   strategies, factory configs, seeds and routing policies declared with no
//!   Rust code.
//! * [`search`] — the portfolio searcher: multi-seed batches of randomised
//!   strategies evaluated in parallel with early stopping and a best-so-far
//!   incumbent report.
//! * [`stream`] — the streaming workload: stochastic online distillation
//!   traffic (Poisson / bursty / adversarial-trace arrivals) scheduled over
//!   a fixed factory fleet by four built-in, name-keyed schedulers, with
//!   latency-percentile / throughput / utilization reports.
//! * [`stats`] — the shared nearest-rank percentile helpers behind those
//!   reports.
//! * [`persist`] — the on-disk persistent tier of the evaluation cache (the
//!   `"cache_dir"` spec field), which warm-starts repeated runs and serve
//!   clusters. Its records hold each [`Evaluation`] in the same JSON form
//!   the service protocol sends.
//! * [`wire`] — the JSON codecs shared by sharded execution and the
//!   persistent tier: spec-form encoders and typed result decoders.
//!
//! # Example
//!
//! ```
//! use msfu_core::{evaluate, EvaluationConfig, Strategy};
//! use msfu_distill::FactoryConfig;
//!
//! let eval = evaluate(
//!     &FactoryConfig::single_level(2),
//!     &Strategy::linear(),
//!     &EvaluationConfig::default(),
//! )
//! .unwrap();
//! assert!(eval.latency_cycles >= eval.critical_path_cycles);
//! assert_eq!(eval.volume, eval.latency_cycles * eval.area as u64);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
mod error;
mod evaluate;
pub mod persist;
pub mod pipeline;
pub mod progress;
mod schedule;
pub mod search;
pub mod spec;
pub mod stats;
mod strategy;
pub mod stream;
pub mod sweep;
pub mod wire;

pub use cache::{process_cache_stats, CacheStats, EvalCache};
pub use error::CoreError;
pub use evaluate::{
    effective_factory, evaluate, evaluate_mapped_with, Evaluation, EvaluationConfig,
};
pub use persist::{
    compact_dir, damage_segment, verify_dir, CompactReport, PersistWarning, SegmentDamage,
    VerifyReport, FORMAT_VERSION, NUM_BUCKETS,
};
pub use progress::{CancelToken, NoProgress, Outcome, ProgressEvent, ProgressSink, RunControl};
pub use search::{
    Incumbent, Objective, PortfolioEntry, SearchReport, SearchSpec, StopReason, TrajectoryPoint,
};
pub use stats::{nearest_rank, percentiles, Percentiles};
pub use strategy::Strategy;
pub use stream::{ArrivalProcess, JobClass, SchedulerRun, StreamReport, StreamSpec};
pub use sweep::{SweepPoint, SweepResults, SweepRow, SweepSpec, DEFAULT_LANES};

/// Convenience result alias used by fallible APIs in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
