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
//! **Ownership.**  An entry is one answer: the table behind an `Arc`, and
//! a [`FrameSlot`] the serving layer fills with the table's encoded frame
//! the first time it writes it.  The cache hands out clones of both `Arc`s:
//! neither a hit nor an insert copies a table, and the mutex guards only
//! map bookkeeping.  The cache stores the frame as opaque bytes and knows
//! no codec.  A reader that still holds an evicted entry keeps it alive on
//! its own; the cache's byte count drops at eviction, not when the last
//! reader lets go.  A key inserted again gets a fresh, empty slot, so a
//! frame never outlives the table it encodes.
//!
//! **Bound.**  Each entry is charged its table's
//! [`AnalyticsOutput::heap_bytes`], the same again plus [`FRAME_HEADROOM`]
//! as room for its frame, and `ENTRY_OVERHEAD_BYTES` for the key, the map
//! slot and the table's, slot's and frame's headers.  A slot stores only a
//! frame that fits its room, so the sum of the charges — tables and frames
//! together — never exceeds the budget, and a client walking
//! `sequence_length` upwards, each value a new key with an empty table,
//! fills the budget like anyone else and is evicted like anyone else.  The
//! fine path assembles every column of an answer at exactly its length, so
//! the `heap_bytes` of its answers are the bytes their columns allocate.  An
//! insert that would exceed the budget evicts the entries hit (or
//! inserted) longest ago until the newcomer fits; a table larger than the
//! whole budget is answered but not stored.  The victim is found by
//! scanning the map — a serving mix is six tasks × a handful of sequence
//! lengths, so the scan is a few dozen comparisons.
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
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Bytes one engine's results cache may hold: every entry's table and the
/// room for its frame (see the module's *Bound*) plus a fixed per-entry
/// overhead.  Sized for a serving mix of a few dozen keys over a corpus
/// whose largest table is a few megabytes.
pub const RESULTS_CACHE_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// How many bytes an entry's frame may take beyond its table's
/// [`AnalyticsOutput::heap_bytes`].  A result frame writes no value wider
/// than the table holds it, so what it adds is its header, task tag,
/// sequence length, row count and one width byte per run — about 31 bytes.
pub const FRAME_HEADROOM: usize = 64;

/// What an entry costs beyond its table's columns and its frame's room: the
/// key and the map slot, the `Arc`'d table header (two reference counts and
/// the enum), the `Arc`'d slot, and the frame's reference counts.
const ENTRY_OVERHEAD_BYTES: usize = std::mem::size_of::<Key>()
    + std::mem::size_of::<Entry>()
    + 6 * std::mem::size_of::<usize>()
    + std::mem::size_of::<AnalyticsOutput>()
    + std::mem::size_of::<FrameSlot>();

/// What an entry holding `output` is charged.
pub(crate) fn charge(output: &AnalyticsOutput) -> usize {
    2 * output.heap_bytes() + FRAME_HEADROOM + ENTRY_OVERHEAD_BYTES
}

type Key = (Task, TaskConfig);

/// The encoded frame of one cached table, filled by whoever serves the
/// table first.  It belongs to the cache entry: it is evicted with the
/// table, and a key stored again gets a new, empty slot.
#[derive(Debug)]
pub struct FrameSlot {
    frame: OnceLock<Arc<[u8]>>,
    /// The longest frame the entry's charge has room for.
    room: usize,
}

impl FrameSlot {
    fn for_table(output: &AnalyticsOutput) -> Self {
        Self {
            frame: OnceLock::new(),
            room: output.heap_bytes() + FRAME_HEADROOM,
        }
    }

    /// The stored frame, or `fill()`'s, stored if it fits the entry's room
    /// and no other reader stored one first.  A frame too long for the room
    /// is returned but not stored, so the cache's budget holds.
    pub fn get_or_fill(&self, fill: impl FnOnce() -> Vec<u8>) -> Arc<[u8]> {
        if let Some(frame) = self.frame.get() {
            return Arc::clone(frame);
        }
        let frame: Arc<[u8]> = fill().into();
        if frame.len() <= self.room {
            // A racing reader may have stored an equal frame first; either
            // is the same bytes.
            drop(self.frame.set(Arc::clone(&frame)));
        }
        frame
    }
}

struct Entry {
    output: Arc<AnalyticsOutput>,
    frame: Arc<FrameSlot>,
    /// What this entry is charged: [`charge`] of its table.
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
    fn remove(&mut self, key: &Key) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.bytes -= entry.bytes;
        Some(entry)
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

    /// Probes the cache, counting the probe as a hit or miss.  A hit is the
    /// entry's table and frame slot.
    pub(crate) fn lookup(
        &self,
        task: Task,
        cfg: TaskConfig,
    ) -> Option<(Arc<AnalyticsOutput>, Arc<FrameSlot>)> {
        let found = {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.clock += 1;
            let now = inner.clock;
            inner.map.get_mut(&(task, cfg)).map(|entry| {
                entry.last_used = now;
                (Arc::clone(&entry.output), Arc::clone(&entry.frame))
            })
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a clean (non-degraded) output with a new, empty frame slot,
    /// evicting the least recently used entries until it fits, and returns
    /// the slot.  A table whose charge exceeds the whole budget is not
    /// stored and gets no slot.
    pub(crate) fn insert(
        &self,
        task: Task,
        cfg: TaskConfig,
        output: &Arc<AnalyticsOutput>,
    ) -> Option<Arc<FrameSlot>> {
        let bytes = charge(output);
        if bytes > self.budget {
            return None;
        }
        let key = (task, cfg);
        let frame = Arc::new(FrameSlot::for_table(output));
        // Entries leave the map under the lock but are freed after it.
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
                frame: Arc::clone(&frame),
                bytes,
                last_used: inner.clock,
            };
            inner.map.insert(key, entry);
            inner.bytes += bytes;
        }
        drop(evicted);
        Some(frame)
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
    use crate::results::CountTable;

    /// What a sort table of `pairs` 16-byte rows is charged: the table, the
    /// same again plus the headroom for its frame, and the overhead.
    const fn charge(pairs: usize) -> usize {
        2 * 16 * pairs + FRAME_HEADROOM + ENTRY_OVERHEAD_BYTES
    }

    /// A sort table of `pairs` 16-byte rows, distinguishable by `seed`.
    fn table(pairs: usize, seed: u32) -> Arc<AnalyticsOutput> {
        Arc::new(AnalyticsOutput::Sort(
            (0..pairs as u32).map(|i| (seed, u64::from(i))).collect(),
        ))
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
        let (hit, _) = cache.lookup(task, cfg).expect("just inserted");
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
        let big = (budget - charge(4) - FRAME_HEADROOM - ENTRY_OVERHEAD_BYTES) / 32;
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
        let first = Arc::new(AnalyticsOutput::WordCount(CountTable::from_sorted_columns(
            1,
            vec![1, 2],
            vec![3, 4],
        )));
        cache.insert(task, cfg, &first);
        // 24 bytes of columns, held once as the table and once as frame room.
        let charged = 2 * 24 + FRAME_HEADROOM + ENTRY_OVERHEAD_BYTES;
        assert_eq!(cache.held_bytes(), charged);
        let second = Arc::new(AnalyticsOutput::clone(&first));
        cache.insert(task, cfg, &second);
        assert_eq!(
            cache.held_bytes(),
            charged,
            "the replaced entry's bytes are released"
        );
        let (hit, _) = cache.lookup(task, cfg).expect("stored");
        assert!(Arc::ptr_eq(&hit, &second), "last write wins");
    }

    // A client walking `sequence_length` upwards past every file's length
    // mints one key per value, each with an empty table.
    #[test]
    fn empty_tables_fill_the_budget_too() {
        let room = 8;
        let budget = room * charge(0);
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

    /// A frame as long as `slot`'s room, made of `byte`.
    fn frame_filling(slot: &FrameSlot, byte: u8) -> Vec<u8> {
        vec![byte; slot.room]
    }

    #[test]
    fn the_storing_miss_and_later_hits_share_one_slot() {
        let cache = ResultsCache::with_budget(1024);
        let (task, cfg) = key(1);
        let stored = cache.insert(task, cfg, &table(4, 1)).expect("fits");
        let written = stored.get_or_fill(|| frame_filling(&stored, 7));
        for _ in 0..2 {
            let (_, slot) = cache.lookup(task, cfg).expect("stored");
            assert!(Arc::ptr_eq(&slot, &stored), "one slot per entry");
            let served = slot.get_or_fill(|| unreachable!("the miss filled the slot"));
            assert!(Arc::ptr_eq(&served, &written), "a hit shares the frame");
        }
    }

    #[test]
    fn a_reinserted_key_gets_a_fresh_empty_slot() {
        let cache = ResultsCache::with_budget(1024);
        let (task, cfg) = key(1);
        let old = cache.insert(task, cfg, &table(4, 1)).expect("fits");
        old.get_or_fill(|| frame_filling(&old, 1));
        let new = cache.insert(task, cfg, &table(4, 2)).expect("fits");
        assert!(!Arc::ptr_eq(&old, &new));
        let (_, slot) = cache.lookup(task, cfg).expect("stored");
        assert!(Arc::ptr_eq(&slot, &new), "the hit reads the new entry");
        let frame = slot.get_or_fill(|| frame_filling(&slot, 2));
        assert!(
            frame.iter().all(|&b| b == 2),
            "the old table's frame must not answer for the new one"
        );
    }

    #[test]
    fn eviction_frees_the_frame() {
        let cache = ResultsCache::with_budget(charge(4));
        let (task, cfg) = key(1);
        let slot = cache.insert(task, cfg, &table(4, 1)).expect("fits");
        let frame = slot.get_or_fill(|| frame_filling(&slot, 1));
        drop(slot);
        assert_eq!(Arc::strong_count(&frame), 2, "the entry and this reader");
        // The budget holds one entry: the next key evicts the first.
        cache
            .insert(Task::Sort, key(2).1, &table(4, 2))
            .expect("fits");
        assert!(cache.lookup(task, cfg).is_none(), "1 was evicted");
        assert_eq!(
            Arc::strong_count(&frame),
            1,
            "the evicted entry's frame lives on only in its last reader"
        );
    }

    #[test]
    fn held_bytes_count_the_frames_and_stay_within_the_budget() {
        let budget = 4 * charge(3);
        let cache = ResultsCache::with_budget(budget);
        for l in 1..=12 {
            let (task, cfg) = key(l);
            let stored = table(l % 5, l as u32);
            let slot = cache.insert(task, cfg, &stored).expect("fits");
            let frame = slot.get_or_fill(|| frame_filling(&slot, l as u8));
            assert_eq!(frame.len(), stored.heap_bytes() + FRAME_HEADROOM);
            // Tables and frames both stay alive only through the cache.
            drop((stored, slot, frame));
            let inner = cache.inner.lock().expect("not poisoned");
            let tables: usize = inner.map.values().map(|e| e.output.heap_bytes()).sum();
            let frames: usize = inner
                .map
                .values()
                .filter_map(|e| e.frame.frame.get().map(|f| f.len()))
                .sum();
            let overhead = inner.map.len() * ENTRY_OVERHEAD_BYTES;
            assert_eq!(inner.bytes, tables + frames + overhead, "l={l}");
            assert!(
                inner.bytes <= budget,
                "l={l}: {} over {budget}",
                inner.bytes
            );
        }
    }

    #[test]
    fn a_frame_longer_than_its_room_is_returned_but_not_stored() {
        let cache = ResultsCache::with_budget(1024);
        let (task, cfg) = key(1);
        let slot = cache.insert(task, cfg, &table(4, 1)).expect("fits");
        let long = vec![9; slot.room + 1];
        let served = slot.get_or_fill(|| long.clone());
        assert_eq!(*served, *long, "the answer is still written");
        assert!(slot.frame.get().is_none(), "but not stored");
        let fits = slot.get_or_fill(|| frame_filling(&slot, 3));
        assert!(Arc::ptr_eq(&fits, &slot.get_or_fill(|| unreachable!())));
    }
}
