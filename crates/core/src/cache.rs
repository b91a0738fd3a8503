//! Content-addressed evaluation caching.
//!
//! Sweeps and portfolio searches frequently re-derive the *same* simulation:
//! seed ladders converge to identical layouts, the same
//! `(factory, strategy)` point appears under several report labels, and
//! reuse-policy grids duplicate their baselines. An [`EvalCache`] keys each
//! simulated [`Evaluation`] by the full content of what determines it — the
//! factory configuration, the layout bytes (placement, routing hints *and*
//! port assignment), and the evaluation/simulator configuration — so any
//! duplicate across sweep rows or search candidates simulates exactly once,
//! even when workers race on it from different threads.
//!
//! The key is the rendered content itself (no lossy hashing), so a cache hit
//! can never alias two distinct inputs: results with the cache enabled are
//! byte-identical to cache-disabled runs. The report label is deliberately
//! *not* part of the key — it is patched onto the cached record per caller —
//! so candidates from different portfolio entries still share work.
//!
//! An optional **persistent tier** ([`EvalCache::with_disk`], the
//! `--cache-dir` flag / `"cache_dir"` spec field) extends the in-memory map:
//! records load from hash-bucketed segment files on open and new
//! simulations append to them, so repeated runs — and the workers of a
//! serve cluster sharing one directory — warm each other across processes
//! (see [`crate::persist`]).
//!
//! Hit/miss counters aggregate per cache (reported on each run's outcome,
//! and as `perf.cache` on service responses) and into process-wide totals
//! ([`process_cache_stats`]).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Serialize;

use msfu_distill::FactoryConfig;
use msfu_layout::Layout;

use crate::persist::DiskTier;
use crate::{Evaluation, EvaluationConfig, Result};

/// Hit/miss counters of an [`EvalCache`] (or of the whole process, see
/// [`process_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Lookups answered from a previously simulated evaluation.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Subset of `hits` answered by a record loaded from the persistent
    /// tier (zero without a cache directory).
    pub disk_hits: u64,
    /// Records loaded from the persistent tier when the cache was opened.
    pub loaded: u64,
    /// Newly simulated records appended to the persistent tier by this run.
    pub persisted: u64,
    /// [`crate::PersistWarning`]s encountered: damaged records skipped on
    /// open (their segment is quarantined) or appends that failed. Nonzero
    /// warnings never affect results — only what had to be re-simulated.
    pub warnings: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 for an unused cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter increments since `earlier` (for sampling the process-wide
    /// totals around one run).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            loaded: self.loaded.saturating_sub(earlier.loaded),
            persisted: self.persisted.saturating_sub(earlier.persisted),
            warnings: self.warnings.saturating_sub(earlier.warnings),
        }
    }
}

static PROCESS_HITS: AtomicU64 = AtomicU64::new(0);
static PROCESS_MISSES: AtomicU64 = AtomicU64::new(0);
static PROCESS_DISK_HITS: AtomicU64 = AtomicU64::new(0);
static PROCESS_LOADED: AtomicU64 = AtomicU64::new(0);
static PROCESS_PERSISTED: AtomicU64 = AtomicU64::new(0);
static PROCESS_WARNINGS: AtomicU64 = AtomicU64::new(0);

/// Cumulative hit/miss counters across every [`EvalCache`] of the process.
/// Sample before and after a run and diff with [`CacheStats::since`] to
/// attribute counts to that run.
pub fn process_cache_stats() -> CacheStats {
    CacheStats {
        hits: PROCESS_HITS.load(Ordering::Relaxed),
        misses: PROCESS_MISSES.load(Ordering::Relaxed),
        disk_hits: PROCESS_DISK_HITS.load(Ordering::Relaxed),
        loaded: PROCESS_LOADED.load(Ordering::Relaxed),
        persisted: PROCESS_PERSISTED.load(Ordering::Relaxed),
        warnings: PROCESS_WARNINGS.load(Ordering::Relaxed),
    }
}

/// One cache slot: a per-key compute guard plus the published value.
/// Concurrent requesters of the same key serialize on `guard`, so the
/// evaluation runs once and late arrivals read the published result.
/// `from_disk` marks slots pre-populated from the persistent tier (their
/// hits count as `disk_hits` and they are never re-appended).
#[derive(Default)]
struct Slot {
    guard: Mutex<()>,
    value: OnceLock<Evaluation>,
    from_disk: bool,
}

/// A content-addressed map from evaluation inputs to simulated
/// [`Evaluation`] records, shared across the worker threads of one sweep or
/// search run, optionally backed by an on-disk persistent tier shared
/// across processes.
#[derive(Default)]
pub struct EvalCache {
    slots: Mutex<HashMap<String, Arc<Slot>>>,
    disk: Option<DiskTier>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    loaded: AtomicU64,
    persisted: AtomicU64,
    warnings: AtomicU64,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("stats", &self.stats())
            .field("persistent", &self.disk.is_some())
            .finish()
    }
}

impl EvalCache {
    /// Creates an empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the persistent tier rooted at `dir` (builder style),
    /// creating the directory if needed and loading every readable record.
    /// Damaged or foreign-version records are skipped with a warning on
    /// stderr and counted into [`CacheStats::warnings`], and the segment
    /// holding them is quarantined — never an error; see [`crate::persist`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Spec`] when the directory cannot be
    /// created (the path comes from the spec/flags).
    pub fn with_disk(mut self, dir: &Path) -> Result<Self> {
        let (tier, contents) =
            DiskTier::open(dir).map_err(|reason| crate::CoreError::Spec { reason })?;
        self.disk = Some(tier);
        for warning in &contents.warnings {
            eprintln!("[msfu eval-cache] {warning}");
        }
        if !contents.warnings.is_empty() {
            eprintln!(
                "[msfu eval-cache] {}: {} warning(s), {} segment(s) quarantined — run `msfu cache compact` to repair",
                dir.display(),
                contents.warnings.len(),
                contents.quarantined.len()
            );
        }
        self.count_warnings(contents.warnings.len() as u64);
        let loaded = contents.entries.len() as u64;
        for (key, evaluation) in contents.entries {
            self.insert_loaded(key, evaluation);
        }
        self.loaded.fetch_add(loaded, Ordering::Relaxed);
        PROCESS_LOADED.fetch_add(loaded, Ordering::Relaxed);
        Ok(self)
    }

    /// The cache's own hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            warnings: self.warnings.load(Ordering::Relaxed),
        }
    }

    /// Adds to this cache's and the process-wide warning counters.
    fn count_warnings(&self, n: u64) {
        if n > 0 {
            self.warnings.fetch_add(n, Ordering::Relaxed);
            PROCESS_WARNINGS.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Pre-populates one slot from a persisted record (open-time only:
    /// `&mut self`, so no lock contention and no hit/miss accounting).
    fn insert_loaded(&mut self, key: String, evaluation: Evaluation) {
        let slots = self.slots.get_mut().unwrap_or_else(|e| e.into_inner());
        // Duplicate keys (two processes raced the same miss) carry identical
        // content; keep the slot already present.
        slots.entry(key).or_insert_with(|| {
            Arc::new(Slot {
                guard: Mutex::new(()),
                value: OnceLock::from(evaluation),
                from_disk: true,
            })
        });
    }

    /// Returns the evaluation for `key`, running `compute` only if no other
    /// requester has published it yet. The cached record's `strategy` label
    /// is replaced by `strategy_name` (the label is presentation, not
    /// content). Compute errors are propagated without populating the slot.
    pub(crate) fn get_or_compute(
        &self,
        key: String,
        strategy_name: &str,
        compute: impl FnOnce() -> Result<Evaluation>,
    ) -> Result<Evaluation> {
        // A persisted miss appends under the same key after computing.
        let persist_key = self.disk.is_some().then(|| key.clone());
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.entry(key).or_default().clone()
        };
        if let Some(found) = slot.value.get() {
            return Ok(self.hit(&slot, found, strategy_name));
        }
        let _guard = slot.guard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = slot.value.get() {
            // Another worker simulated this key while we waited.
            return Ok(self.hit(&slot, found, strategy_name));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        PROCESS_MISSES.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        let _ = slot.value.set(value.clone());
        if let (Some(disk), Some(key)) = (&self.disk, persist_key) {
            match disk.append(&key, &value) {
                Ok(()) => {
                    self.persisted.fetch_add(1, Ordering::Relaxed);
                    PROCESS_PERSISTED.fetch_add(1, Ordering::Relaxed);
                }
                Err(warning) => {
                    self.count_warnings(1);
                    eprintln!("[msfu eval-cache] {warning}");
                }
            }
        }
        Ok(value)
    }

    /// Whether `key` already holds a published value. Counts as neither hit
    /// nor miss — the sweep planner uses it to keep cached points out of
    /// batch lanes without disturbing the accounting that `get_or_compute`
    /// performs later.
    pub(crate) fn peek(&self, key: &str) -> bool {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots
            .get(key)
            .is_some_and(|slot| slot.value.get().is_some())
    }

    fn hit(&self, slot: &Slot, found: &Evaluation, strategy_name: &str) -> Evaluation {
        self.hits.fetch_add(1, Ordering::Relaxed);
        PROCESS_HITS.fetch_add(1, Ordering::Relaxed);
        if slot.from_disk {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            PROCESS_DISK_HITS.fetch_add(1, Ordering::Relaxed);
        }
        let mut evaluation = found.clone();
        evaluation.strategy = strategy_name.to_string();
        evaluation
    }
}

/// Opens the cache a sweep/search run asked for: `None` when caching is
/// disabled, a memory-only cache without a directory, or a persistent-tier
/// cache rooted at `dir`.
///
/// # Errors
///
/// Propagates [`EvalCache::with_disk`] failures (unwritable directory).
pub(crate) fn open_eval_cache(enabled: bool, dir: Option<&Path>) -> Result<Option<EvalCache>> {
    if !enabled {
        return Ok(None);
    }
    match dir {
        Some(dir) => EvalCache::new().with_disk(dir).map(Some),
        None => Ok(Some(EvalCache::new())),
    }
}

/// Renders the content address of one evaluation: everything the simulated
/// record depends on — factory configuration, the complete layout (placement,
/// routing hints, port assignment) and the evaluation configuration — via
/// their exhaustive `Debug` forms (f64 debug formatting round-trips, so
/// distinct configs cannot collide). Routing hints are rendered in sorted
/// pair order: their container iterates in unspecified order, and a
/// non-canonical rendering would give equal layouts distinct addresses
/// (missed dedup — never wrong results, but the HS waypoint layouts would
/// stop sharing work).
pub(crate) fn evaluation_key(
    factory: &FactoryConfig,
    layout: &Layout,
    eval: &EvaluationConfig,
) -> String {
    let mut hints: Vec<_> = layout
        .hints
        .iter()
        .map(|(pair, waypoint)| (*pair, *waypoint))
        .collect();
    hints.sort_by_key(|(pair, _)| *pair);
    format!(
        "{factory:?}|{eval:?}|{:?}|{:?}|{hints:?}",
        layout.mapping, layout.ports
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use msfu_distill::Factory;

    fn sample_inputs() -> (FactoryConfig, Layout, EvaluationConfig) {
        let config = FactoryConfig::single_level(2);
        let factory = Factory::build(&config).unwrap();
        let layout = Strategy::linear().map(&factory).unwrap();
        (config, layout, EvaluationConfig::default())
    }

    #[test]
    fn second_lookup_hits_and_patches_the_label() {
        let (config, layout, eval) = sample_inputs();
        let factory = Factory::build(&config).unwrap();
        let cache = EvalCache::new();
        let key = || evaluation_key(&config, &layout, &eval);
        let first = cache
            .get_or_compute(key(), "Line", || {
                crate::evaluate_mapped(&factory, &layout, "Line", &eval)
            })
            .unwrap();
        let second = cache
            .get_or_compute(key(), "Other", || panic!("must not recompute"))
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
        assert_eq!(second.strategy, "Other");
        assert_eq!(second.latency_cycles, first.latency_cycles);
        assert_eq!(second.volume, first.volume);
        assert!(cache.stats().hit_rate() > 0.49);
    }

    #[test]
    fn hit_rate_of_an_unused_cache_is_zero_not_nan() {
        // bench-diff hard-errors on NaN cells, so a cold stamped report must
        // come out 0.0 exactly.
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        assert_eq!(EvalCache::new().stats().hit_rate(), 0.0);
    }

    #[test]
    fn distinct_layouts_are_distinct_keys() {
        let (config, layout, eval) = sample_inputs();
        let factory = Factory::build(&config).unwrap();
        let other = Strategy::random(3).map(&factory).unwrap();
        assert_ne!(
            evaluation_key(&config, &layout, &eval),
            evaluation_key(&config, &other, &eval)
        );
        // Sim config changes re-key too.
        let adaptive = EvaluationConfig::default().with_sim(msfu_sim::SimConfig::default());
        let dimension =
            EvaluationConfig::default().with_sim(msfu_sim::SimConfig::dimension_ordered());
        if adaptive != dimension {
            assert_ne!(
                evaluation_key(&config, &layout, &adaptive),
                evaluation_key(&config, &layout, &dimension)
            );
        }
    }

    #[test]
    fn compute_errors_do_not_poison_the_slot() {
        let (config, layout, eval) = sample_inputs();
        let factory = Factory::build(&config).unwrap();
        let cache = EvalCache::new();
        let key = || evaluation_key(&config, &layout, &eval);
        let err: Result<Evaluation> = cache.get_or_compute(key(), "Line", || {
            Err(crate::CoreError::Spec {
                reason: "injected".into(),
            })
        });
        assert!(err.is_err());
        // The key remains computable after a failure.
        let ok = cache
            .get_or_compute(key(), "Line", || {
                crate::evaluate_mapped(&factory, &layout, "Line", &eval)
            })
            .unwrap();
        assert_eq!(ok.strategy, "Line");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_since_subtracts_every_counter() {
        let earlier = CacheStats {
            hits: 1,
            misses: 2,
            disk_hits: 1,
            loaded: 5,
            persisted: 2,
            warnings: 1,
        };
        let later = CacheStats {
            hits: 4,
            misses: 3,
            disk_hits: 2,
            loaded: 5,
            persisted: 6,
            warnings: 3,
        };
        assert_eq!(
            later.since(&earlier),
            CacheStats {
                hits: 3,
                misses: 1,
                disk_hits: 1,
                loaded: 0,
                persisted: 4,
                warnings: 2,
            }
        );
    }

    #[test]
    fn damaged_directory_counts_warnings_and_still_serves() {
        let dir = std::env::temp_dir().join(format!("msfu-cache-warn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (config, layout, eval) = sample_inputs();
        let factory = Factory::build(&config).unwrap();
        let key = || evaluation_key(&config, &layout, &eval);
        {
            let cache = EvalCache::new().with_disk(&dir).unwrap();
            cache
                .get_or_compute(key(), "Line", || {
                    crate::evaluate_mapped(&factory, &layout, "Line", &eval)
                })
                .unwrap();
        }
        // Damage a segment guaranteed to exist, then re-open: the open
        // quarantines it, counts the warning, and the run still works.
        let bucket = (0..crate::persist::NUM_BUCKETS)
            .find(|b| dir.join(format!("seg-{b:02x}.bin")).exists())
            .expect("one segment was persisted");
        crate::persist::damage_segment(&dir, bucket, crate::persist::SegmentDamage::Truncate, 9)
            .unwrap();
        let before = process_cache_stats();
        let cache = EvalCache::new().with_disk(&dir).unwrap();
        assert!(cache.stats().warnings > 0);
        assert!(process_cache_stats().since(&before).warnings > 0);
        let value = cache
            .get_or_compute(key(), "Line", || {
                crate::evaluate_mapped(&factory, &layout, "Line", &eval)
            })
            .unwrap();
        assert_eq!(value.strategy, "Line");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_tier_round_trips_hits_and_counters() {
        let dir = std::env::temp_dir().join(format!("msfu-cache-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (config, layout, eval) = sample_inputs();
        let factory = Factory::build(&config).unwrap();
        let key = || evaluation_key(&config, &layout, &eval);
        let first = {
            let cache = EvalCache::new().with_disk(&dir).unwrap();
            let value = cache
                .get_or_compute(key(), "Line", || {
                    crate::evaluate_mapped(&factory, &layout, "Line", &eval)
                })
                .unwrap();
            let stats = cache.stats();
            assert_eq!((stats.loaded, stats.misses, stats.persisted), (0, 1, 1));
            value
        };
        // A fresh cache over the same directory answers from disk,
        // byte-identically, and persists nothing new.
        let cache = EvalCache::new().with_disk(&dir).unwrap();
        let second = cache
            .get_or_compute(key(), "Line", || panic!("must come from disk"))
            .unwrap();
        assert_eq!(second, first);
        let stats = cache.stats();
        assert_eq!(stats.loaded, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.persisted, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_eval_cache_respects_the_enabled_flag() {
        assert!(open_eval_cache(false, None).unwrap().is_none());
        assert!(open_eval_cache(true, None).unwrap().is_some());
        let dir = std::env::temp_dir().join(format!("msfu-cache-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = open_eval_cache(true, Some(dir.as_path())).unwrap().unwrap();
        assert!(cache.disk.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
