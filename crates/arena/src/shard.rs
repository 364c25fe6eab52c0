//! Append-and-compact shard buffers for lock-free sharded merges.
//!
//! The fine-grained engines accumulate per-worker partial results and merge
//! them by hash shard: every key shard is owned by exactly one merge worker,
//! so the merges need no synchronization.  Earlier revisions materialised the
//! per-worker shards as hash maps, paying a probe per *occurrence* on the
//! traversal hot path and another per entry during the merge.  A [`ShardBuf`]
//! replaces that with the design of the posting accumulators (append with
//! duplicates allowed, compact by sort + fold when the buffer doubles): the
//! hot path is a bounds-checked vector push, memory stays proportional to
//! the *distinct* keys the worker owns (amortised), and the merge is a single
//! sort + fold per shard over data that is already mostly sorted runs.
//!
//! The merge contract:
//!
//! 1. Workers append entries (duplicates allowed, any order) into one
//!    `ShardBuf` per shard, routing each entry by its key hash (the caller's
//!    `shard_of`).  Buffers self-compact, so a worker never holds more than
//!    ~2× its distinct entries past the compaction floor.
//! 2. The per-shard buffers of all workers are handed to that shard's merge
//!    worker, which calls [`ShardBuf::merge`] once: the result is sorted by
//!    key and contains **exactly one entry per distinct key**, with equal-key
//!    entries combined by [`ShardEntry::absorb`].
//! 3. Because shards partition the key space, concatenating (or iterating)
//!    the per-shard merge outputs yields every key exactly once.
//!
//! ```
//! use arena::shard::{CountEntry, ShardBuf};
//!
//! // Two workers accumulate counts for the same shard.
//! let mut a = ShardBuf::default();
//! a.push(CountEntry::new(7u32, 2));
//! a.push(CountEntry::new(3, 1));
//! let mut b = ShardBuf::default();
//! b.push(CountEntry::new(7, 5));
//!
//! let merged = ShardBuf::merge(vec![a, b]);
//! let pairs: Vec<(u32, u64)> = merged.into_iter().map(|e| (e.key, e.count)).collect();
//! assert_eq!(pairs, vec![(3, 1), (7, 7)]);
//! ```

/// An entry a [`ShardBuf`] can sort and fold: a key plus a combine rule for
/// equal-key duplicates.
pub trait ShardEntry {
    /// Sort/fold key.  Entries with equal keys are combined.
    type Key: Ord;

    /// The entry's key.
    fn key(&self) -> &Self::Key;

    /// Folds `other` (an equal-key duplicate about to be discarded) into
    /// `self`.
    fn absorb(&mut self, other: &mut Self);
}

/// A counted entry: equal keys sum their counts (word counts, sequence
/// counts, per-file occurrence totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountEntry<K> {
    /// The key counted.
    pub key: K,
    /// Accumulated count.
    pub count: u64,
}

impl<K> CountEntry<K> {
    /// A new entry carrying `count` occurrences of `key`.
    #[inline]
    pub fn new(key: K, count: u64) -> Self {
        Self { key, count }
    }
}

impl<K: Ord> ShardEntry for CountEntry<K> {
    type Key = K;
    #[inline]
    fn key(&self) -> &K {
        &self.key
    }
    #[inline]
    fn absorb(&mut self, other: &mut Self) {
        self.count += other.count;
    }
}

/// A bitmask entry: equal keys OR their masks.  Used for posting lists — the
/// key is `(word, file_block)` and the mask holds one bit per file of the
/// 64-file block, so a rule occurring in many files costs one entry per
/// (word, block) instead of one per (word, file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskEntry<K> {
    /// The key the mask is accumulated under.
    pub key: K,
    /// Accumulated bitmask.
    pub mask: u64,
}

impl<K> MaskEntry<K> {
    /// A new entry contributing `mask` to `key`.
    #[inline]
    pub fn new(key: K, mask: u64) -> Self {
        Self { key, mask }
    }
}

impl<K: Ord> ShardEntry for MaskEntry<K> {
    type Key = K;
    #[inline]
    fn key(&self) -> &K {
        &self.key
    }
    #[inline]
    fn absorb(&mut self, other: &mut Self) {
        self.mask |= other.mask;
    }
}

/// An append-mostly accumulation buffer for one hash shard of one worker.
///
/// Entries are pushed with duplicates allowed — an append per occurrence is
/// far cheaper than a hash probe per occurrence — and the buffer compacts
/// itself (sort + fold in place) whenever it doubles past its last compacted
/// size, keeping worker memory proportional to the distinct keys it owns.
#[derive(Debug, Clone)]
pub struct ShardBuf<T> {
    entries: Vec<T>,
    compact_at: usize,
}

impl<T> Default for ShardBuf<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            compact_at: 0,
        }
    }
}

impl<T: ShardEntry> ShardBuf<T> {
    /// Buffers below this never self-compact: the merge folds them in one
    /// sort anyway, and re-sorting small growing buffers costs more than it
    /// saves.
    pub const COMPACT_FLOOR: usize = 4096;

    /// Appends one entry (duplicates allowed).
    #[inline]
    pub fn push(&mut self, entry: T) {
        self.entries.push(entry);
        if self.entries.len() >= self.compact_at.max(Self::COMPACT_FLOOR) {
            self.compact();
            self.compact_at = 2 * self.entries.len();
        }
    }

    /// Number of buffered entries (duplicates included until the next
    /// compaction).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts by key and folds equal-key runs in place with
    /// [`ShardEntry::absorb`].
    pub fn compact(&mut self) {
        sort_fold(&mut self.entries);
    }

    /// Compacts and returns the entries, sorted by key with one entry per
    /// distinct key.
    pub fn into_sorted(mut self) -> Vec<T> {
        self.compact();
        self.entries
    }

    /// Merges the per-worker buffers of one shard: one sort + fold over all
    /// pieces, returning the shard's entries sorted by key with exactly one
    /// entry per distinct key (see the module docs for the full contract).
    pub fn merge(pieces: Vec<ShardBuf<T>>) -> Vec<T> {
        // Fault-injection site: a worker panicking mid-merge-fold, the
        // hardest point for a dispatcher to recover from (partial shard
        // state on other workers).
        failpoints::fail_point!("merge-fold");
        let mut out: Vec<T> = Vec::with_capacity(pieces.iter().map(ShardBuf::len).sum());
        for piece in pieces {
            out.extend(piece.entries);
        }
        sort_fold(&mut out);
        out
    }
}

/// Sorts `entries` by key and folds equal-key runs in place with
/// [`ShardEntry::absorb`] — the primitive [`ShardBuf`] compaction and merge
/// are built on, exposed for callers folding scratch vectors of their own.
pub fn sort_fold<T: ShardEntry>(entries: &mut Vec<T>) {
    entries.sort_unstable_by(|a, b| a.key().cmp(b.key()));
    entries.dedup_by(|cur, prev| {
        if cur.key() == prev.key() {
            prev.absorb(cur);
            true
        } else {
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_fold_across_pushes_and_pieces() {
        let mut a = ShardBuf::default();
        for _ in 0..3 {
            a.push(CountEntry::new(5u64, 2));
        }
        a.push(CountEntry::new(1, 1));
        let mut b = ShardBuf::default();
        b.push(CountEntry::new(5, 4));
        let merged = ShardBuf::merge(vec![a, b]);
        assert_eq!(
            merged,
            vec![CountEntry::new(1, 1), CountEntry::new(5, 10)]
        );
    }

    #[test]
    fn self_compaction_bounds_memory() {
        let mut buf = ShardBuf::default();
        // Push far more duplicates than the floor: the buffer must keep
        // folding them back down instead of growing linearly.
        for i in 0..(10 * ShardBuf::<CountEntry<u64>>::COMPACT_FLOOR) {
            buf.push(CountEntry::new((i % 7) as u64, 1));
        }
        assert!(
            buf.len() <= ShardBuf::<CountEntry<u64>>::COMPACT_FLOOR + 7,
            "buffer of 7 distinct keys grew to {} entries",
            buf.len()
        );
        let total: u64 = buf.into_sorted().iter().map(|e| e.count).sum();
        assert_eq!(total, 10 * ShardBuf::<CountEntry<u64>>::COMPACT_FLOOR as u64);
    }

    #[test]
    fn masks_or_together() {
        let mut a = ShardBuf::default();
        a.push(MaskEntry::new((4u32, 0u32), 0b0001));
        a.push(MaskEntry::new((4, 0), 0b0100));
        let mut b = ShardBuf::default();
        b.push(MaskEntry::new((4, 1), 0b1000));
        b.push(MaskEntry::new((4, 0), 0b0001));
        let merged = ShardBuf::merge(vec![a, b]);
        assert_eq!(
            merged,
            vec![MaskEntry::new((4, 0), 0b0101), MaskEntry::new((4, 1), 0b1000)]
        );
    }

    #[test]
    fn merge_of_empty_pieces_is_empty() {
        let merged = ShardBuf::<CountEntry<u32>>::merge(vec![
            ShardBuf::default(),
            ShardBuf::default(),
        ]);
        assert!(merged.is_empty());
        let empty = ShardBuf::<CountEntry<u32>>::default();
        assert!(empty.is_empty());
        assert_eq!(empty.into_sorted(), vec![]);
    }

    #[test]
    fn non_copy_keys_are_supported() {
        // Sequence keys above the packable length are owned vectors.
        let mut buf = ShardBuf::default();
        buf.push(CountEntry::new(vec![1u32, 2, 3], 1));
        buf.push(CountEntry::new(vec![1, 2, 3], 2));
        buf.push(CountEntry::new(vec![0, 9], 5));
        let merged = ShardBuf::merge(vec![buf]);
        assert_eq!(
            merged,
            vec![
                CountEntry::new(vec![0, 9], 5),
                CountEntry::new(vec![1, 2, 3], 3)
            ]
        );
    }
}
