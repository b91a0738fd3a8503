//! Streaming progress and cooperative interruption for long-running jobs.
//!
//! Sweeps and portfolio searches can run for minutes; a server (or any
//! embedding) needs to observe them while they run and stop them without
//! killing the process. This module provides the two primitives the service
//! layer builds on:
//!
//! * [`ProgressSink`] — a callback invoked with [`ProgressEvent`]s as rows
//!   complete, incumbents improve and batches finish. The default sink
//!   ([`NoProgress`]) does nothing, and a run driven through it is
//!   byte-identical to one executed through the plain [`SweepSpec::run`]
//!   entry points.
//! * [`CancelToken`] — a cloneable cooperative cancellation flag, checked by
//!   the sweep and search engines *between batches* (never mid-simulation, so
//!   a cancelled run still returns every row it completed).
//!
//! Both travel in a [`RunControl`], together with an optional deadline and
//! the run mode (serial or parallel), to the `run_with` entry point of
//! [`SweepSpec`](crate::SweepSpec), [`SearchSpec`](crate::SearchSpec) and
//! [`StreamSpec`](crate::StreamSpec), which each return an [`Outcome`].
//!
//! [`SweepSpec::run`]: crate::SweepSpec::run

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::cache::CacheStats;
use crate::sweep::SweepRow;
use crate::Strategy;

/// One observable step of a running sweep or search.
///
/// Events borrow from the run that produced them, so sinks that need to keep
/// data copy the fields they care about.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ProgressEvent<'a> {
    /// A sweep point finished evaluating. Row events come in point order
    /// once the enclosing batch completes; serial runs check for
    /// cancellation before each one.
    RowCompleted {
        /// The sweep's name.
        name: &'a str,
        /// Zero-based index of the point in the spec.
        index: usize,
        /// Total number of points in the spec.
        total: usize,
        /// The completed row.
        row: &'a SweepRow,
    },
    /// A sweep batch finished (the granularity at which cancellation and
    /// deadlines are honoured).
    BatchFinished {
        /// The sweep's name.
        name: &'a str,
        /// Points completed so far.
        completed: usize,
        /// Total number of points in the spec.
        total: usize,
    },
    /// A portfolio search found a new best candidate.
    IncumbentImproved {
        /// The search's name.
        name: &'a str,
        /// Global candidate index in the deterministic stream.
        candidate: usize,
        /// The new incumbent objective value.
        value: u64,
        /// The strategy that achieved it.
        strategy: &'a Strategy,
    },
    /// A search batch finished (the granularity at which cancellation and
    /// deadlines are honoured).
    SearchBatchFinished {
        /// The search's name.
        name: &'a str,
        /// One-based index of the finished batch.
        batch: usize,
        /// Candidates evaluated so far.
        evaluated: usize,
        /// The incumbent objective value, if any candidate evaluated yet.
        incumbent: Option<u64>,
    },
}

/// Receives [`ProgressEvent`]s from a running sweep or search.
///
/// Events are always emitted from the coordinating thread (never from sweep
/// worker threads), in a deterministic order for a given spec and batch
/// size, so a sink needs no internal synchronisation beyond what writing its
/// output requires.
pub trait ProgressSink {
    /// Called once per event, in order.
    fn emit(&self, event: &ProgressEvent<'_>);
}

/// The default sink: discards every event. Runs driven through it behave
/// byte-identically to the plain `run` entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl ProgressSink for NoProgress {
    fn emit(&self, _event: &ProgressEvent<'_>) {}
}

static NO_PROGRESS: NoProgress = NoProgress;

/// A cloneable cooperative cancellation flag.
///
/// Cancellation is a one-way latch: once [`CancelToken::cancel`] is called
/// (from any clone, on any thread), every holder observes it. The sweep and
/// search engines check the token between batches and stop with partial
/// results; they never abort mid-simulation.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Latches the token. Idempotent and safe to call from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Execution controls for a sweep, search or stream run: where progress
/// goes, when to stop early, and whether to run on the calling thread.
///
/// The default control runs in parallel, discards progress and never
/// interrupts — [`SweepSpec::run`](crate::SweepSpec::run) is exactly
/// `run_with(&RunControl::default())`.
#[derive(Clone, Copy)]
pub struct RunControl<'a> {
    progress: &'a dyn ProgressSink,
    cancel: Option<&'a CancelToken>,
    deadline: Option<Instant>,
    serial: bool,
}

impl Default for RunControl<'_> {
    fn default() -> Self {
        RunControl {
            progress: &NO_PROGRESS,
            cancel: None,
            deadline: None,
            serial: false,
        }
    }
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("serial", &self.serial)
            .finish_non_exhaustive()
    }
}

impl<'a> RunControl<'a> {
    /// Routes progress events to `sink` (builder style).
    pub fn with_progress(mut self, sink: &'a dyn ProgressSink) -> Self {
        self.progress = sink;
        self
    }

    /// Honours `token` between batches (builder style).
    pub fn with_cancel(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Stops the run at the first batch boundary past `deadline` (builder
    /// style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Runs every task on the calling thread, streaming rows one at a time,
    /// when `serial` is set; otherwise on a worker pool, streaming whole
    /// chunks (builder style). Results are identical either way.
    pub fn with_serial(mut self, serial: bool) -> Self {
        self.serial = serial;
        self
    }

    /// The instant past which the run stops, if any (a coordinator hands
    /// the time left to each sub-job it starts).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the run executes on the calling thread (see
    /// [`RunControl::with_serial`]).
    pub fn serial(&self) -> bool {
        self.serial
    }

    /// Emits one event to the configured sink.
    pub fn emit(&self, event: &ProgressEvent<'_>) {
        self.progress.emit(event);
    }

    /// Whether the run should stop at the next batch boundary (cancelled or
    /// past its deadline).
    pub fn interrupted(&self) -> bool {
        self.interrupt()()
    }

    /// [`RunControl::interrupted`] without the progress sink: the check a
    /// sweep's worker threads share.
    pub(crate) fn interrupt(&self) -> impl Fn() -> bool + Copy + Send + Sync + 'a {
        let (cancel, deadline) = (self.cancel, self.deadline);
        move || {
            cancel.is_some_and(CancelToken::is_cancelled)
                || deadline.is_some_and(|d| Instant::now() >= d)
        }
    }
}

/// The outcome of a run under a [`RunControl`]: what it produced, whether
/// it was interrupted (cancelled or past its deadline) before finishing, and
/// its evaluation-cache counters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Outcome<T> {
    /// What the run produced — complete when `interrupted == false`;
    /// otherwise the rows, candidates or scheduler runs completed before
    /// the batch boundary where the run stopped.
    pub payload: T,
    /// `true` when the run stopped at a batch boundary before finishing.
    pub interrupted: bool,
    /// Evaluation-cache counters of this run (all zero when the cache is
    /// disabled). Each distinct key misses exactly once: the planner decides
    /// in point order which point computes it, and every other point with
    /// that key counts as a hit, so the counters of a completed run are the
    /// same serial or parallel at any thread count.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cancel_token_latches_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn default_control_never_interrupts() {
        let ctrl = RunControl::default();
        assert!(!ctrl.interrupted());
        assert!(!ctrl.serial());
        assert!(ctrl.with_serial(true).serial());
    }

    #[test]
    fn control_observes_cancel_and_deadline() {
        let token = CancelToken::new();
        let ctrl = RunControl::default().with_cancel(&token);
        assert!(!ctrl.interrupted());
        token.cancel();
        assert!(ctrl.interrupted());

        let past = Instant::now() - Duration::from_millis(1);
        assert!(RunControl::default().with_deadline(past).interrupted());
        let future = Instant::now() + Duration::from_secs(3600);
        assert!(!RunControl::default().with_deadline(future).interrupted());
    }
}
