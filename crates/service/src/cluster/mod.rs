//! Multi-worker coordination: sharded sweeps and searches with a
//! deterministic merge.
//!
//! `msfu serve --workers N` (and `msfu run --workers N`) turns one process
//! into a *coordinator* over a pool of N workers, each an ordinary serve
//! session reached through a [`ClusterBackend`]:
//!
//! ```text
//!             requests / cancels (NDJSON)
//!   client ──────────► coordinator ──┬──► worker 0  (serve loop)
//!                      │   ▲         ├──► worker 1  (serve loop)
//!                      │   └─────────┴──── lines + Closed events
//!                      ▼
//!             merged progress + one response per request
//! ```
//!
//! The layering mirrors MPI launchers: [`planner`](self) decides *what* the
//! shards are (a pure function of spec and pool size: each shard is one
//! factory's run of consecutive points, at most ⌈n / workers⌉ of them, so
//! the expensive two-level factories spread over the pool), `comm` decides
//! *how* bytes reach a worker (in-process threads or child processes today;
//! a TCP backend would slot in beside them), and the coordinator in between
//! owns scheduling (idle workers pull the next queued shard), supervision
//! and the order-preserving merge. Supervision (configured through
//! [`ServeOptions`](crate::ServeOptions)) treats worker death, hangs past
//! the shard timeout and garbled responses uniformly: each costs one unit
//! of the shard's fixed retry budget of 3 and re-dispatches with
//! exponential backoff, dead workers are replaced by clean respawns while
//! the respawn budget lasts, and a shard whose budget is spent fails the
//! job typed with `E_SHARD_RETRY_EXHAUSTED`. A fully lost pool does not
//! fail the job: the coordinator appends one in-process worker slot (a
//! serve loop on a thread, exempt from the shard timeout) and the
//! remaining shards run there through the same dispatch, progress and
//! merge path as on any worker.
//! Because workers run the exact single-process engine on exact sub-specs
//! and the merge walks shards in plan order — stopping at the first
//! incomplete shard, as a serial cancelled run stops — a coordinated job's
//! rows, incumbents and error codes are byte-identical to a serial run —
//! `perf` is the only field allowed to differ.

mod comm;
mod coordinator;
mod planner;

pub use crate::faults::ENV_WORKER_FAULT;
pub use comm::{ClusterBackend, WorkerEvent, WorkerTx};
pub(crate) use coordinator::{run_search, run_sweep, Cluster, Supervision};
pub use planner::plan_shards;
