//! The session results cache: whole-output memoization, bounded by bytes.
//!
//! Keyed by `(Task, TaskConfig)` — sound because the archive is immutable
//! for the engine's lifetime and the engine is deterministic for a fixed
//! key.  Exact-key semantics: distinct configs never alias (the full
//! `TaskConfig` is the key, even for tasks that ignore `sequence_length`).
//! Opt-in via [`EngineBuilder::results_cache`](super::EngineBuilder::results_cache);
//! degraded results are never inserted (a degraded answer is
//! oracle-identical, but its *provenance* is not worth caching — the next
//! query should retake the fine path).
//!
//! **Ownership.**  The cache holds each table behind an `Arc` and hands out
//! clones of the `Arc`: neither a hit nor an insert copies a table, and the
//! mutex guards only map bookkeeping.  A reader that still holds an evicted
//! table keeps it alive on its own; the cache's byte count drops at
//! eviction, not when the last reader lets go.
//!
//! **Bound.**  Each entry is charged its table's
//! [`AnalyticsOutput::heap_bytes`] plus `ENTRY_OVERHEAD_BYTES` for the key,
//! the map slot and the table's own header, and the sum of the charges never
//! exceeds the budget — so a client walking `sequence_length` upwards, each
//! value a new key with an empty table, fills the budget like anyone else
//! and is evicted like anyone else.  An insert that would exceed the budget
//! evicts the entries hit (or inserted) longest ago until the newcomer fits;
//! a table larger than the whole budget is answered but not stored.  The
//! victim is found by scanning the map — a serving mix is six tasks × a
//! handful of sequence lengths, so the scan is a few dozen comparisons.
//!
//! Concurrent misses on the same key may compute the output twice and both
//! insert (last write wins, values identical by determinism); the counters
//! therefore reconcile as *probes* — `hits + misses == lookups` always,
//! `misses == distinct keys` only without concurrent same-key races and
//! without evictions.

use crate::apps::{Task, TaskConfig};
use crate::results::AnalyticsOutput;
use crate::timing::ResultsCacheStats;
use sequitur::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Bytes one engine's results cache may hold: every entry's
/// [`AnalyticsOutput::heap_bytes`] plus a fixed per-entry overhead (key, map
/// slot, table header).  Sized for a serving mix of a few dozen keys over a
/// corpus whose largest table is a few megabytes.
pub const RESULTS_CACHE_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// What an entry costs beyond its table's columns: the key and the map slot,
/// and the `Arc`'d table header (two reference counts and the enum).
const ENTRY_OVERHEAD_BYTES: usize = std::mem::size_of::<Key>()
    + std::mem::size_of::<Entry>()
    + 2 * std::mem::size_of::<usize>()
    + std::mem::size_of::<AnalyticsOutput>();

type Key = (Task, TaskConfig);

struct Entry {
    output: Arc<AnalyticsOutput>,
    /// What this entry is charged: `heap_bytes()` + `ENTRY_OVERHEAD_BYTES`.
    bytes: usize,
    /// Value of [`Inner::clock`] when this entry was last hit or inserted.
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: FxHashMap<Key, Entry>,
    /// Sum of `Entry::bytes` over `map`.
    bytes: usize,
    /// Counts probes and inserts; orders entries by recency.
    clock: u64,
}

impl Inner {
    fn remove(&mut self, key: &Key) -> Option<Arc<AnalyticsOutput>> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry.bytes;
        Some(entry.output)
    }
}

pub(crate) struct ResultsCache {
    inner: Mutex<Inner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultsCache {
    /// An empty cache charging its entries at most `budget` bytes in all.
    pub(crate) fn with_budget(budget: usize) -> Self {
        Self {
            inner: Mutex::default(),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Probes the cache, counting the probe as a hit or miss.
    pub(crate) fn lookup(&self, task: Task, cfg: TaskConfig) -> Option<Arc<AnalyticsOutput>> {
        let found = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.clock += 1;
            let now = inner.clock;
            inner.map.get_mut(&(task, cfg)).map(|entry| {
                entry.last_used = now;
                Arc::clone(&entry.output)
            })
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a clean (non-degraded) output, evicting the least recently
    /// used entries until it fits.  A table larger than the whole budget is
    /// not stored.
    pub(crate) fn insert(&self, task: Task, cfg: TaskConfig, output: &Arc<AnalyticsOutput>) {
        let bytes = output.heap_bytes() + ENTRY_OVERHEAD_BYTES;
        if bytes > self.budget {
            return;
        }
        let key = (task, cfg);
        // Tables leave the map under the lock but are freed after it.
        let mut evicted = Vec::new();
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            evicted.extend(inner.remove(&key));
            while inner.bytes + bytes > self.budget {
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(&key, _)| key)
                    .expect("every entry is charged its overhead, so bytes held mean entries");
                evicted.extend(inner.remove(&victim));
            }
            inner.clock += 1;
            let entry = Entry {
                output: Arc::clone(output),
                bytes,
                last_used: inner.clock,
            };
            inner.map.insert(key, entry);
            inner.bytes += bytes;
        }
        drop(evicted);
    }

    /// `(hits, misses)` counters.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The per-query stats snapshot attached to
    /// [`PhaseTimings`](crate::timing::PhaseTimings).
    pub(crate) fn stats(&self, hit: bool) -> ResultsCacheStats {
        let (hits, misses) = self.counters();
        ResultsCacheStats { hit, hits, misses }
    }

    /// Bytes the entries are charged right now.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::{SortResult, WordCountResult};

    /// What a sort table of `pairs` 16-byte rows is charged.
    const fn charge(pairs: usize) -> usize {
        16 * pairs + ENTRY_OVERHEAD_BYTES
    }

    /// A sort table of `pairs` 16-byte rows, distinguishable by `seed`.
    fn table(pairs: usize, seed: u32) -> Arc<AnalyticsOutput> {
        Arc::new(AnalyticsOutput::Sort(SortResult {
            ranked: (0..pairs as u32).map(|i| (seed, u64::from(i))).collect(),
        }))
    }

    fn key(l: usize) -> (Task, TaskConfig) {
        (Task::Sort, TaskConfig { sequence_length: l })
    }

    #[test]
    fn a_hit_shares_the_stored_table() {
        let cache = ResultsCache::with_budget(1024);
        let stored = table(4, 7);
        let (task, cfg) = key(1);
        assert!(cache.lookup(task, cfg).is_none());
        cache.insert(task, cfg, &stored);
        let hit = cache.lookup(task, cfg).expect("just inserted");
        assert!(Arc::ptr_eq(&hit, &stored), "a hit must not copy the table");
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(cache.held_bytes(), charge(4));
    }

    #[test]
    fn the_least_recently_hit_entry_is_the_victim() {
        // Three 4-row tables fit; a fourth does not.
        let budget = 3 * charge(4) + 8;
        let cache = ResultsCache::with_budget(budget);
        for l in 1..=3 {
            let (task, cfg) = key(l);
            cache.insert(task, cfg, &table(4, l as u32));
            assert!(cache.held_bytes() <= budget);
        }
        // Touch 1 and 3: 2 is now the oldest.
        assert!(cache.lookup(Task::Sort, key(1).1).is_some());
        assert!(cache.lookup(Task::Sort, key(3).1).is_some());
        cache.insert(Task::Sort, key(4).1, &table(4, 4));
        assert_eq!(cache.held_bytes(), 3 * charge(4));
        assert!(
            cache.lookup(Task::Sort, key(2).1).is_none(),
            "2 was evicted"
        );
        for l in [1, 3, 4] {
            assert!(cache.lookup(Task::Sort, key(l).1).is_some(), "{l} stays");
        }
        // A table needing most of the budget evicts as many as it takes.
        let big = (budget - charge(4) - ENTRY_OVERHEAD_BYTES) / 16;
        cache.insert(Task::Sort, key(5).1, &table(big, 5));
        assert_eq!(
            cache.held_bytes(),
            charge(big) + charge(4),
            "one 4-row entry survives beside it"
        );
        assert!(cache.lookup(Task::Sort, key(5).1).is_some());
        assert!(cache.lookup(Task::Sort, key(4).1).is_some(), "4 was newest");
    }

    #[test]
    fn a_table_larger_than_the_budget_is_not_stored() {
        let cache = ResultsCache::with_budget(charge(6));
        cache.insert(Task::Sort, key(1).1, &table(4, 1));
        cache.insert(Task::Sort, key(2).1, &table(7, 2));
        assert!(cache.lookup(Task::Sort, key(2).1).is_none());
        assert!(
            cache.lookup(Task::Sort, key(1).1).is_some(),
            "an unstorable newcomer evicts nothing"
        );
        assert_eq!(cache.held_bytes(), charge(4));
    }

    #[test]
    fn reinserting_a_key_replaces_its_bytes() {
        let cache = ResultsCache::with_budget(1024);
        let (task, cfg) = (Task::WordCount, TaskConfig::default());
        let first = Arc::new(AnalyticsOutput::WordCount(
            WordCountResult::from_sorted_columns(vec![1, 2], vec![3, 4]),
        ));
        cache.insert(task, cfg, &first);
        assert_eq!(cache.held_bytes(), 24 + ENTRY_OVERHEAD_BYTES);
        let second = Arc::new(AnalyticsOutput::clone(&first));
        cache.insert(task, cfg, &second);
        assert_eq!(
            cache.held_bytes(),
            24 + ENTRY_OVERHEAD_BYTES,
            "the replaced entry's bytes are released"
        );
        let hit = cache.lookup(task, cfg).expect("stored");
        assert!(Arc::ptr_eq(&hit, &second), "last write wins");
    }

    // A client walking `sequence_length` upwards past every file's length
    // mints one key per value, each with an empty table.
    #[test]
    fn empty_tables_fill_the_budget_too() {
        let room = 8;
        let budget = room * ENTRY_OVERHEAD_BYTES;
        let cache = ResultsCache::with_budget(budget);
        for l in 1..=1000 {
            cache.insert(Task::Sort, key(l).1, &table(0, 0));
            assert!(cache.held_bytes() <= budget, "l={l}");
        }
        let entries = cache.inner.lock().unwrap().map.len();
        assert_eq!(entries, room, "a thousand empty tables keep eight entries");
        assert!(cache.lookup(Task::Sort, key(1000).1).is_some());
        assert!(cache.lookup(Task::Sort, key(1000 - room).1).is_none());
    }
}
