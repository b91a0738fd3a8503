//! Content-addressed evaluation caching.
//!
//! Sweeps and portfolio searches frequently re-derive the *same* simulation:
//! seed ladders converge to identical layouts, the same
//! `(factory, strategy)` point appears under several report labels, and
//! reuse-policy grids duplicate their baselines. An [`EvalCache`] keys each
//! simulated [`Evaluation`] by the full content of what determines it — the
//! factory configuration, the layout bytes (placement, routing hints *and*
//! port assignment), and the evaluation/simulator configuration — so any
//! duplicate across sweep rows or search candidates simulates exactly once.
//!
//! The cache itself is a plain map with a `lookup` and a `record` call.
//! Deduplication belongs to the planner of the sweep's run scheduler, which
//! every sweep, search and stream runs through. In point order, before
//! anything simulates, it answers a cached key from the map, sends a key an
//! earlier point of the run computes (and has not recorded yet) to that
//! point, and lets every other point compute and be recorded. No two
//! workers ever compute one key, so there is nothing for them to race on.
//!
//! The key is the rendered content itself (no lossy hashing): a
//! `ContentKey` carries the rendered text plus its hash, computed once on
//! the worker that maps the point, and two keys are equal only when their
//! texts are. So a cache hit can never alias two distinct inputs, and
//! results with the cache enabled are byte-identical to cache-disabled runs.
//! The hash is seeded per process and never leaves it; the persistent tier
//! stores and matches the text. The report label is deliberately *not* part
//! of the key — it is patched onto the cached record per caller — so
//! candidates from different portfolio entries still share work.
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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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

/// The content address of one evaluation ([`evaluation_key`]'s text) and
/// its hash, computed once where the key is rendered, so the maps keyed on
/// it (the cache's, and the sweep planner's map of keys computed in flight)
/// never hash key bytes again. Two keys are equal when their hashes and then
/// their full texts are: a hash collision costs a text comparison, never a
/// wrong hit.
#[derive(Debug, Clone)]
pub(crate) struct ContentKey {
    hash: u64,
    text: String,
}

impl ContentKey {
    /// Hashes `text` with the process's key hasher.
    pub(crate) fn new(text: String) -> Self {
        static STATE: OnceLock<RandomState> = OnceLock::new();
        let hash = STATE.get_or_init(RandomState::new).hash_one(text.as_str());
        ContentKey { hash, text }
    }

    /// The rendered content address, as persisted.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }
}

impl PartialEq for ContentKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.text == other.text
    }
}

impl Eq for ContentKey {}

impl Hash for ContentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The [`BuildHasher`] of maps keyed on [`ContentKey`]s: it hands a key's
/// stored hash through unchanged.
#[derive(Clone, Copy, Default)]
pub(crate) struct StoredHash;

impl BuildHasher for StoredHash {
    type Hasher = StoredHasher;

    fn build_hasher(&self) -> StoredHasher {
        StoredHasher(0)
    }
}

/// The hasher of [`StoredHash`]: it takes one `u64`, a key's stored hash.
pub(crate) struct StoredHasher(u64);

impl Hasher for StoredHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a ContentKey hashes as its stored u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed on [`ContentKey`]s by their stored hashes.
pub(crate) type KeyMap<K, V> = HashMap<K, V, StoredHash>;

/// One cached evaluation. `from_disk` marks entries loaded from the
/// persistent tier (their hits count as `disk_hits`; they are never
/// re-appended).
struct Entry {
    evaluation: Evaluation,
    from_disk: bool,
}

/// A content-addressed map from evaluation inputs to simulated
/// [`Evaluation`] records, one per sweep or search run, optionally backed by
/// an on-disk persistent tier shared across processes.
///
/// The cache is a plain map: it never decides who computes a key. The sweep
/// planner looks every key up in point order before anything simulates,
/// sends a key an earlier point of the run already computes to that point,
/// and records each newly computed key once — so no two workers ever race on
/// one key, and the counters of a completed run are the same serial or
/// parallel.
#[derive(Default)]
pub struct EvalCache {
    entries: Mutex<KeyMap<ContentKey, Entry>>,
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

/// Adds `n` to one of a cache's counters and to its process-wide total.
fn bump(counter: &AtomicU64, process: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
    process.fetch_add(n, Ordering::Relaxed);
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
        bump(
            &self.warnings,
            &PROCESS_WARNINGS,
            contents.warnings.len() as u64,
        );
        let loaded = contents.entries.len() as u64;
        let entries = self.entries.get_mut().unwrap_or_else(|e| e.into_inner());
        for (key, evaluation) in contents.entries {
            // Duplicate keys (two processes raced the same miss) carry
            // identical content; keep the entry already present.
            entries.entry(ContentKey::new(key)).or_insert(Entry {
                evaluation,
                from_disk: true,
            });
        }
        bump(&self.loaded, &PROCESS_LOADED, loaded);
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

    /// The evaluation cached under `key`, labelled `strategy_name` (the
    /// label is presentation, not content), counted as a hit; `None`, and
    /// no count, when the key is absent. The map probes with the key's
    /// stored hash and compares texts only on a hash match.
    pub(crate) fn lookup(&self, key: &ContentKey, strategy_name: &str) -> Option<Evaluation> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let entry = entries.get(key)?;
        let mut evaluation = entry.evaluation.clone();
        evaluation.strategy = strategy_name.to_string();
        self.count_hit(entry.from_disk);
        Some(evaluation)
    }

    /// Counts one hit, and a disk hit when a record loaded from the
    /// persistent tier answered it. The sweep planner also counts a hit for
    /// each duplicate key that an earlier point of the run computes and has
    /// not recorded yet.
    pub(crate) fn count_hit(&self, from_disk: bool) {
        bump(&self.hits, &PROCESS_HITS, 1);
        if from_disk {
            bump(&self.disk_hits, &PROCESS_DISK_HITS, 1);
        }
    }

    /// Records a newly computed `evaluation` under `key`, counted as a miss,
    /// and appends it to the persistent tier, under the key's text, when
    /// there is one. The map inserts by the key's stored hash. A failed
    /// append is a warning, never an error.
    pub(crate) fn record(&self, key: ContentKey, evaluation: Evaluation) {
        bump(&self.misses, &PROCESS_MISSES, 1);
        if let Some(disk) = &self.disk {
            match disk.append(key.text(), &evaluation) {
                Ok(()) => bump(&self.persisted, &PROCESS_PERSISTED, 1),
                Err(warning) => {
                    bump(&self.warnings, &PROCESS_WARNINGS, 1);
                    eprintln!("[msfu eval-cache] {warning}");
                }
            }
        }
        let entry = Entry {
            evaluation,
            from_disk: false,
        };
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, entry);
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

/// Renders and hashes the content address of one evaluation: everything
/// the simulated record depends on — factory configuration, the complete
/// layout (placement, routing hints, port assignment) and the evaluation
/// configuration — via their exhaustive `Debug` forms (f64 debug formatting
/// round-trips, so distinct configs cannot collide; `Mapping` writes its
/// derive-identical form directly). Routing hints are rendered in sorted
/// pair order: their container iterates in unspecified order, and a
/// non-canonical rendering would give equal layouts distinct addresses
/// (missed dedup — never wrong results, but the HS waypoint layouts would
/// stop sharing work).
///
/// The text is the persisted key: a change to any of its bytes needs a
/// [`crate::persist::FORMAT_VERSION`] bump (the golden tests below pin it).
/// The sweep scheduler calls this in the map task, on the worker.
pub(crate) fn evaluation_key(
    factory: &FactoryConfig,
    layout: &Layout,
    eval: &EvaluationConfig,
) -> ContentKey {
    let mut hints: Vec<_> = layout
        .hints
        .iter()
        .map(|(pair, waypoint)| (*pair, *waypoint))
        .collect();
    hints.sort_by_key(|(pair, _)| *pair);
    ContentKey::new(format!(
        "{factory:?}|{eval:?}|{:?}|{:?}|{hints:?}",
        layout.mapping, layout.ports
    ))
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

    fn simulate(config: &FactoryConfig, eval: &EvaluationConfig) -> Evaluation {
        crate::evaluate(config, &Strategy::linear(), eval).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_patches_the_label() {
        let (config, layout, eval) = sample_inputs();
        let cache = EvalCache::new();
        let key = evaluation_key(&config, &layout, &eval);
        assert!(cache.lookup(&key, "Line").is_none(), "absent keys miss");
        let first = simulate(&config, &eval);
        cache.record(key.clone(), first.clone());
        let second = cache.lookup(&key, "Other").unwrap();
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

    /// The full key texts of two points, as the disk tier stores them.
    /// Changing a byte of either needs a `persist::FORMAT_VERSION` bump:
    /// records already on disk would no longer be found under their old
    /// text.
    #[test]
    fn golden_key_texts() {
        let eval = EvaluationConfig::default();
        let line = FactoryConfig::single_level(2);
        let layout = Strategy::linear()
            .map(&Factory::build(&line).unwrap())
            .unwrap();
        assert_eq!(
            evaluation_key(&line, &layout, &eval).text(),
            include_str!("testdata/evaluation_key_line_k2.txt")
        );
        // Two-level HS carries routing hints and output-port swaps.
        let two_level = FactoryConfig::two_level(2);
        let layout = Strategy::hierarchical_stitching(msfu_layout::StitchingConfig::default())
            .map(&Factory::build(&two_level).unwrap())
            .unwrap();
        assert!(!layout.hints.is_empty() && layout.requires_port_rewiring());
        assert_eq!(
            evaluation_key(&two_level, &layout, &eval).text(),
            include_str!("testdata/evaluation_key_hs_two_level_k2.txt")
        );
    }

    #[test]
    fn content_keys_are_equal_only_when_their_texts_are() {
        let a = ContentKey::new("a|key".to_string());
        let b = ContentKey::new("a|key".to_string());
        assert_eq!(a, b);
        assert_eq!(a.hash, b.hash, "one hasher state per process");
        // A forged hash collision still compares the texts.
        let collision = ContentKey {
            hash: a.hash,
            text: "another|key".to_string(),
        };
        assert_ne!(a, collision);
        let mut map = KeyMap::default();
        map.insert(a, 1);
        map.insert(collision.clone(), 2);
        assert_eq!((map[&b], map[&collision]), (1, 2));
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
    fn failed_simulations_are_never_recorded() {
        // A duplicate pair whose simulations abort on the cycle limit: the
        // sweep fails, nothing reaches the disk tier, and a second run over
        // the same directory fails the same way instead of reading a record.
        let dir = std::env::temp_dir().join(format!("msfu-cache-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let eval = EvaluationConfig::default()
            .with_sim(msfu_sim::SimConfig::default().with_cycle_limit(1));
        let spec = crate::SweepSpec::new("fail", eval)
            .point("a", FactoryConfig::single_level(2), Strategy::linear())
            .point("b", FactoryConfig::single_level(2), Strategy::linear())
            .with_cache_dir(&dir);
        for run in 0..2 {
            assert!(spec.run().is_err(), "run {run}");
        }
        for file in std::fs::read_dir(&dir).unwrap() {
            let file = file.unwrap();
            assert_eq!(file.metadata().unwrap().len(), 0, "{:?}", file.path());
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        let key = || evaluation_key(&config, &layout, &eval);
        EvalCache::new()
            .with_disk(&dir)
            .unwrap()
            .record(key(), simulate(&config, &eval));
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
        cache.record(key(), simulate(&config, &eval));
        assert_eq!(cache.lookup(&key(), "Line").unwrap().strategy, "Line");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_tier_round_trips_hits_and_counters() {
        let dir = std::env::temp_dir().join(format!("msfu-cache-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (config, layout, eval) = sample_inputs();
        let key = || evaluation_key(&config, &layout, &eval);
        let first = {
            let cache = EvalCache::new().with_disk(&dir).unwrap();
            let value = simulate(&config, &eval);
            cache.record(key(), value.clone());
            let stats = cache.stats();
            assert_eq!((stats.loaded, stats.misses, stats.persisted), (0, 1, 1));
            value
        };
        // A fresh cache over the same directory answers from disk,
        // byte-identically, and persists nothing new.
        let cache = EvalCache::new().with_disk(&dir).unwrap();
        let second = cache.lookup(&key(), "Line").expect("served from disk");
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
