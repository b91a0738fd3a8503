//! Deterministic fault injection for the supervised cluster runtime.
//!
//! A [`FaultPlan`] declares, up front and reproducibly, every failure a test
//! or chaos run wants the runtime to suffer: worker **crashes** (the process
//! exits without responding), worker **stalls** (the worker hangs instead of
//! answering — the supervision timeout must catch it), **corrupt responses**
//! (one garbled protocol line the coordinator must retry), and **cache
//! corruption** (a persist-tier segment damaged before the run, exercising
//! quarantine and self-healing). Plans are plain JSON so the CI chaos jobs
//! and the `--fault-plan` CLI flag share one schema:
//!
//! ```json
//! {"seed": 7,
//!  "crash": [{"rank": 1, "after_jobs": 0}],
//!  "stall": [{"rank": 0, "after_jobs": 1, "duration_ms": 60000}],
//!  "corrupt_response": [{"rank": 2, "after_jobs": 0}],
//!  "cache_corrupt": [{"segment": 3, "mode": "truncate"}]}
//! ```
//!
//! Every list is optional and empty by default. `seed` (default 0) drives
//! the choice of victim record for cache corruption — two runs of the same
//! plan damage the same bytes. `mode` is one of `"truncate"` (cut the
//! segment mid-record), `"flip"` (overwrite payload bytes so a record stops
//! decoding) or `"bad_version"` (stamp a format version this build does not
//! read).
//!
//! Worker-side faults (crash, stall, corrupt_response) are sliced per rank
//! by [`FaultPlan::worker_fault`] and delivered to thread workers directly
//! and to child-process workers via the `MSFU_WORKER_FAULT` environment
//! variable. `after_jobs` counts the requests a worker serves before the
//! fault arms: a crash exits on request `after_jobs + 1`, a stall hangs on
//! that request **and every later one** (a hung worker stays hung), and a
//! corrupt response garbles exactly that one response, then behaves
//! normally.
//!
//! The invariant the whole module exists to test: under any plan the retry
//! budget survives, sweep/search results stay byte-identical to a serial
//! run — only `perf.cluster` may differ.

use std::path::{Path, PathBuf};

use serde_json::Value;

use msfu_core::spec::Fields;
use msfu_core::{damage_segment, SegmentDamage};

/// Environment variable carrying a child worker's [`WorkerFaultSpec`] as
/// JSON (set by the coordinator's backend, read by `msfu serve`).
pub const ENV_WORKER_FAULT: &str = "MSFU_WORKER_FAULT";

/// A worker crash: the worker exits without responding upon receiving its
/// `after_jobs + 1`-th request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The worker rank to kill.
    pub rank: usize,
    /// Requests the worker serves normally before crashing.
    pub after_jobs: usize,
}

/// A worker stall: from its `after_jobs + 1`-th request on, the worker
/// sleeps `duration_ms` before serving each request — to the coordinator it
/// looks hung, which is exactly what the shard timeout must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallFault {
    /// The worker rank to hang.
    pub rank: usize,
    /// Requests the worker serves normally before stalling.
    pub after_jobs: usize,
    /// How long each stalled request hangs, in milliseconds.
    pub duration_ms: u64,
}

/// A corrupt response: the worker answers its `after_jobs + 1`-th request
/// with one garbled protocol line (then behaves normally). Always
/// survivable by a re-dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptResponseFault {
    /// The worker rank that garbles.
    pub rank: usize,
    /// Requests the worker serves normally before garbling one.
    pub after_jobs: usize,
}

/// Persist-tier corruption: segment `segment % NUM_BUCKETS` of the run's
/// cache directory is damaged before the session starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCorruptFault {
    /// The segment bucket to damage (taken modulo
    /// [`msfu_core::NUM_BUCKETS`]).
    pub segment: usize,
    /// How to damage it.
    pub mode: SegmentDamage,
}

/// A seeded, JSON-declarable set of faults to inject into one run — see the
/// [module docs](self) for the schema and semantics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Drives victim-record choice for cache corruption (and any future
    /// randomized fault), so a plan damages the same bytes every run.
    pub seed: u64,
    /// Worker crashes.
    pub crash: Vec<CrashFault>,
    /// Worker stalls.
    pub stall: Vec<StallFault>,
    /// Garbled worker responses.
    pub corrupt_response: Vec<CorruptResponseFault>,
    /// Persist-tier segment damage.
    pub cache_corrupt: Vec<CacheCorruptFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crash.is_empty()
            && self.stall.is_empty()
            && self.corrupt_response.is_empty()
            && self.cache_corrupt.is_empty()
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a crash fault (builder style).
    pub fn with_crash(mut self, rank: usize, after_jobs: usize) -> Self {
        self.crash.push(CrashFault { rank, after_jobs });
        self
    }

    /// Adds a stall fault (builder style).
    pub fn with_stall(mut self, rank: usize, after_jobs: usize, duration_ms: u64) -> Self {
        self.stall.push(StallFault {
            rank,
            after_jobs,
            duration_ms,
        });
        self
    }

    /// Adds a corrupt-response fault (builder style).
    pub fn with_corrupt_response(mut self, rank: usize, after_jobs: usize) -> Self {
        self.corrupt_response
            .push(CorruptResponseFault { rank, after_jobs });
        self
    }

    /// Adds a cache-corruption fault (builder style).
    pub fn with_cache_corrupt(mut self, segment: usize, mode: SegmentDamage) -> Self {
        self.cache_corrupt.push(CacheCorruptFault { segment, mode });
        self
    }

    /// The worker-side slice of the plan for one rank: the earliest crash,
    /// stall and corrupt-response faults aimed at it. Cache corruption is
    /// coordinator-side and never reaches workers.
    pub fn worker_fault(&self, rank: usize) -> WorkerFaultSpec {
        let mut spec = WorkerFaultSpec::default();
        for fault in self.crash.iter().filter(|f| f.rank == rank) {
            spec.exit_after_jobs = Some(
                spec.exit_after_jobs
                    .map_or(fault.after_jobs, |v| v.min(fault.after_jobs)),
            );
        }
        for fault in self.stall.iter().filter(|f| f.rank == rank) {
            match spec.stall_after_jobs {
                Some(existing) if existing <= fault.after_jobs => {}
                _ => {
                    spec.stall_after_jobs = Some(fault.after_jobs);
                    spec.stall_duration_ms = fault.duration_ms;
                }
            }
        }
        for fault in self.corrupt_response.iter().filter(|f| f.rank == rank) {
            spec.corrupt_after_jobs = Some(
                spec.corrupt_after_jobs
                    .map_or(fault.after_jobs, |v| v.min(fault.after_jobs)),
            );
        }
        spec
    }

    /// Damages the plan's cache segments under `dir` (deterministically,
    /// driven by the seed), returning the damaged paths. A no-op when the
    /// plan has no `cache_corrupt` entries.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message when a segment cannot be written.
    pub fn apply_cache_corruption(&self, dir: &Path) -> Result<Vec<PathBuf>, String> {
        let mut damaged = Vec::new();
        for (i, fault) in self.cache_corrupt.iter().enumerate() {
            let seed = self.seed.wrapping_add(i as u64);
            let path = damage_segment(dir, fault.segment, fault.mode, seed)
                .map_err(|e| format!("cannot corrupt cache segment {}: {e}", fault.segment))?;
            damaged.push(path);
        }
        Ok(damaged)
    }

    /// Decodes a plan from its JSON document. Unknown fields are rejected —
    /// a typo in a fault plan must fail loudly, not silently inject nothing.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("fault plan: {e}"))?;
        FaultPlan::from_value(&value)
    }

    /// Decodes a plan from an already-parsed JSON value (see
    /// [`FaultPlan::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let mut f = Fields::new(value, "fault plan", String::from)?;
        let mut plan = FaultPlan {
            seed: f.opt_u64("seed")?.unwrap_or(0),
            ..FaultPlan::default()
        };
        for (i, entry) in f.opt_array("crash")?.unwrap_or_default().iter().enumerate() {
            let mut e = Fields::item(entry, "fault plan: crash", i, String::from)?;
            let (rank, after_jobs) = rank_after_jobs(&mut e)?;
            e.finish()?;
            plan.crash.push(CrashFault { rank, after_jobs });
        }
        for (i, entry) in f.opt_array("stall")?.unwrap_or_default().iter().enumerate() {
            let mut e = Fields::item(entry, "fault plan: stall", i, String::from)?;
            let (rank, after_jobs) = rank_after_jobs(&mut e)?;
            let duration_ms = e.u64("duration_ms")?;
            e.finish()?;
            plan.stall.push(StallFault {
                rank,
                after_jobs,
                duration_ms,
            });
        }
        for (i, entry) in f
            .opt_array("corrupt_response")?
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            let mut e = Fields::item(entry, "fault plan: corrupt_response", i, String::from)?;
            let (rank, after_jobs) = rank_after_jobs(&mut e)?;
            e.finish()?;
            plan.corrupt_response
                .push(CorruptResponseFault { rank, after_jobs });
        }
        for (i, entry) in f
            .opt_array("cache_corrupt")?
            .unwrap_or_default()
            .iter()
            .enumerate()
        {
            let mut e = Fields::item(entry, "fault plan: cache_corrupt", i, String::from)?;
            let segment = e.u64("segment")? as usize;
            let mode = match e.str("mode")? {
                "truncate" => SegmentDamage::Truncate,
                "flip" => SegmentDamage::FlipBytes,
                "bad_version" => SegmentDamage::BadVersion,
                other => {
                    return Err(e.error(format_args!(
                        "unknown mode `{other}` (expected truncate | flip | bad_version)"
                    )))
                }
            };
            e.finish()?;
            plan.cache_corrupt.push(CacheCorruptFault { segment, mode });
        }
        f.finish()?;
        Ok(plan)
    }

    /// Renders the plan back to its JSON document shape (empty lists and a
    /// zero seed are omitted, so `FaultPlan::new().to_value()` is `{}`).
    pub fn to_value(&self) -> Value {
        let mut entries = Vec::new();
        if self.seed != 0 {
            entries.push(("seed".to_string(), Value::UInt(self.seed)));
        }
        if !self.crash.is_empty() {
            let list = self
                .crash
                .iter()
                .map(|f| rank_value(f.rank, f.after_jobs, None))
                .collect();
            entries.push(("crash".to_string(), Value::Array(list)));
        }
        if !self.stall.is_empty() {
            let list = self
                .stall
                .iter()
                .map(|f| rank_value(f.rank, f.after_jobs, Some(f.duration_ms)))
                .collect();
            entries.push(("stall".to_string(), Value::Array(list)));
        }
        if !self.corrupt_response.is_empty() {
            let list = self
                .corrupt_response
                .iter()
                .map(|f| rank_value(f.rank, f.after_jobs, None))
                .collect();
            entries.push(("corrupt_response".to_string(), Value::Array(list)));
        }
        if !self.cache_corrupt.is_empty() {
            let list = self
                .cache_corrupt
                .iter()
                .map(|f| {
                    let mode = match f.mode {
                        SegmentDamage::Truncate => "truncate",
                        SegmentDamage::FlipBytes => "flip",
                        SegmentDamage::BadVersion => "bad_version",
                    };
                    Value::Object(vec![
                        ("segment".to_string(), Value::UInt(f.segment as u64)),
                        ("mode".to_string(), Value::Str(mode.to_string())),
                    ])
                })
                .collect();
            entries.push(("cache_corrupt".to_string(), Value::Array(list)));
        }
        Value::Object(entries)
    }
}

/// The worker-side slice of a [`FaultPlan`] for one rank: what a single
/// `msfu serve` worker process (or thread) injects into its own serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerFaultSpec {
    /// Exit without responding upon receiving request `exit_after_jobs + 1`.
    pub exit_after_jobs: Option<usize>,
    /// Sleep before serving request `stall_after_jobs + 1` and every later
    /// request.
    pub stall_after_jobs: Option<usize>,
    /// How long each stalled request sleeps, in milliseconds.
    pub stall_duration_ms: u64,
    /// Garble exactly the response to request `corrupt_after_jobs + 1`.
    pub corrupt_after_jobs: Option<usize>,
}

impl WorkerFaultSpec {
    /// Whether this rank has no faults at all.
    pub fn is_empty(&self) -> bool {
        self.exit_after_jobs.is_none()
            && self.stall_after_jobs.is_none()
            && self.corrupt_after_jobs.is_none()
    }

    /// Renders the spec for the [`ENV_WORKER_FAULT`] transport.
    pub fn to_json(&self) -> String {
        let mut entries = Vec::new();
        if let Some(v) = self.exit_after_jobs {
            entries.push(("exit_after_jobs".to_string(), Value::UInt(v as u64)));
        }
        if let Some(v) = self.stall_after_jobs {
            entries.push(("stall_after_jobs".to_string(), Value::UInt(v as u64)));
            entries.push((
                "stall_duration_ms".to_string(),
                Value::UInt(self.stall_duration_ms),
            ));
        }
        if let Some(v) = self.corrupt_after_jobs {
            entries.push(("corrupt_after_jobs".to_string(), Value::UInt(v as u64)));
        }
        serde_json::to_string(&Value::Object(entries)).expect("plain object renders")
    }

    /// Decodes the [`ENV_WORKER_FAULT`] transport format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("worker fault: {e}"))?;
        let mut f = Fields::new(&value, "worker fault", String::from)?;
        let spec = WorkerFaultSpec {
            exit_after_jobs: f.opt_u64("exit_after_jobs")?.map(|v| v as usize),
            stall_after_jobs: f.opt_u64("stall_after_jobs")?.map(|v| v as usize),
            stall_duration_ms: f.opt_u64("stall_duration_ms")?.unwrap_or(0),
            corrupt_after_jobs: f.opt_u64("corrupt_after_jobs")?.map(|v| v as usize),
        };
        f.finish()?;
        Ok(spec)
    }
}

/// `{rank, after_jobs[, duration_ms]}` as a JSON object.
fn rank_value(rank: usize, after_jobs: usize, duration_ms: Option<u64>) -> Value {
    let mut entries = vec![
        ("rank".to_string(), Value::UInt(rank as u64)),
        ("after_jobs".to_string(), Value::UInt(after_jobs as u64)),
    ];
    if let Some(ms) = duration_ms {
        entries.push(("duration_ms".to_string(), Value::UInt(ms)));
    }
    Value::Object(entries)
}

/// Reads the common `{rank, after_jobs}` pair of one fault entry
/// (`after_jobs` defaults to 0).
fn rank_after_jobs(e: &mut Fields<'_, String>) -> Result<(usize, usize), String> {
    let rank = e.u64("rank")? as usize;
    Ok((rank, e.opt_u64("after_jobs")?.unwrap_or(0) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_every_fault_kind() {
        let plan = FaultPlan::new()
            .with_seed(7)
            .with_crash(1, 0)
            .with_stall(0, 1, 60_000)
            .with_corrupt_response(2, 3)
            .with_cache_corrupt(3, SegmentDamage::Truncate)
            .with_cache_corrupt(5, SegmentDamage::FlipBytes)
            .with_cache_corrupt(9, SegmentDamage::BadVersion);
        let text = serde_json::to_string(&plan.to_value()).unwrap();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(back, plan);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().to_value(), Value::Object(vec![]));
    }

    #[test]
    fn after_jobs_defaults_to_zero_and_unknown_fields_are_rejected() {
        let plan = FaultPlan::from_json(r#"{"corrupt_response": [{"rank": 2}]}"#).unwrap();
        assert_eq!(
            plan.corrupt_response,
            [CorruptResponseFault {
                rank: 2,
                after_jobs: 0
            }]
        );
        for bad in [
            r#"{"crash": [{"rank": 1, "oops": 2}]}"#,
            r#"{"crashes": []}"#,
            r#"{"stall": [{"rank": 0}]}"#,
            r#"{"cache_corrupt": [{"segment": 1, "mode": "melt"}]}"#,
            r#"[1, 2]"#,
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn worker_fault_slices_the_earliest_fault_per_rank() {
        let plan = FaultPlan::new()
            .with_crash(1, 5)
            .with_crash(1, 2)
            .with_stall(1, 9, 100)
            .with_stall(1, 4, 250)
            .with_corrupt_response(0, 1)
            .with_cache_corrupt(0, SegmentDamage::Truncate);
        let rank1 = plan.worker_fault(1);
        assert_eq!(rank1.exit_after_jobs, Some(2));
        assert_eq!(rank1.stall_after_jobs, Some(4));
        assert_eq!(rank1.stall_duration_ms, 250);
        assert_eq!(rank1.corrupt_after_jobs, None);
        let rank0 = plan.worker_fault(0);
        assert_eq!(rank0.corrupt_after_jobs, Some(1));
        assert!(rank0.exit_after_jobs.is_none());
        assert!(plan.worker_fault(7).is_empty());
    }

    #[test]
    fn worker_fault_spec_round_trips_through_its_env_transport() {
        let spec = WorkerFaultSpec {
            exit_after_jobs: Some(3),
            stall_after_jobs: Some(1),
            stall_duration_ms: 500,
            corrupt_after_jobs: Some(0),
        };
        assert_eq!(WorkerFaultSpec::from_json(&spec.to_json()).unwrap(), spec);
        let empty = WorkerFaultSpec::default();
        assert_eq!(WorkerFaultSpec::from_json(&empty.to_json()).unwrap(), empty);
        assert!(WorkerFaultSpec::from_json("{\"nope\": 1}").is_err());
    }

    #[test]
    fn cache_corruption_applies_deterministically() {
        let dir = std::env::temp_dir().join(format!("msfu-faults-cc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::new()
            .with_seed(11)
            .with_cache_corrupt(2, SegmentDamage::BadVersion);
        let damaged = plan.apply_cache_corruption(&dir).unwrap();
        assert_eq!(damaged.len(), 1);
        let first = std::fs::read(&damaged[0]).unwrap();
        // Re-applying the same plan rewrites the same bytes.
        let again = plan.apply_cache_corruption(&dir).unwrap();
        assert_eq!(std::fs::read(&again[0]).unwrap(), first);
        assert!(FaultPlan::new()
            .apply_cache_corruption(&dir)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
