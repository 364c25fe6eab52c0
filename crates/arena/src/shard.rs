//! Append-and-compact shard buffers for lock-free sharded merges.
//!
//! The fine-grained engines accumulate per-worker partial results and merge
//! them by key-range bucket: every bucket is owned by exactly one merge
//! worker, so the merges need no synchronization.  Earlier revisions materialised the
//! per-worker shards as hash maps, paying a probe per *occurrence* on the
//! traversal hot path and another per entry during the merge.  A [`ShardBuf`]
//! replaces that with the design of the posting accumulators (append with
//! duplicates allowed, compact by sort + fold when the buffer doubles): the
//! hot path is a bounds-checked vector push, and memory stays proportional
//! to the *distinct* keys the worker owns (amortised).
//!
//! Every entry is sorted **once**.  A buffer is a sorted, duplicate-free
//! *prefix* (what earlier compactions left) followed by an unsorted *tail*
//! (what was pushed since).  [`ShardBuf::compact`] sorts and folds only the
//! tail and two-way-merges it into the prefix; [`ShardBuf::merge`] compacts
//! each piece that way and then merges the resulting runs pairwise.  No
//! entry that already sits in a sorted run is handed to a sort again.
//!
//! The merge contract:
//!
//! 1. Workers append entries (duplicates allowed, any order) into one
//!    `ShardBuf` per key-range bucket, routing each entry by its key's
//!    leading part (the caller's cuts: a word id range per bucket).
//!    Buffers self-compact, so a worker never holds more than 2× its
//!    distinct entries plus the compaction floor.
//! 2. The per-bucket buffers of all workers are handed to the merge worker
//!    that owns the bucket, which calls [`ShardBuf::merge`] once per
//!    bucket: the pieces' sorted runs are merged into one run sorted by key
//!    that contains **exactly one entry per distinct key**, with equal-key
//!    entries combined by [`ShardEntry::absorb`].
//! 3. Because buckets partition the key space into ascending ranges,
//!    concatenating the per-bucket merge outputs in bucket order yields
//!    every key exactly once, in key order — no merge across buckets.
//!
//! ```
//! use arena::shard::{CountEntry, ShardBuf};
//!
//! // Two workers accumulate counts for the same bucket.
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

use std::cmp::Ordering;

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

/// An append-mostly accumulation buffer for one key-range bucket of one
/// worker.
///
/// Entries are pushed with duplicates allowed — an append per occurrence is
/// far cheaper than a hash probe per occurrence — and the buffer compacts
/// itself (sort + fold the tail, merge it into the sorted prefix) whenever it
/// doubles past its last compacted size, keeping worker memory proportional
/// to the distinct keys it owns.
#[derive(Debug, Clone)]
pub struct ShardBuf<T> {
    entries: Vec<T>,
    /// `entries[..sorted]` is sorted by key with one entry per key; the tail
    /// behind it is whatever was pushed since the last compaction.
    sorted: usize,
    compact_at: usize,
}

impl<T> Default for ShardBuf<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            sorted: 0,
            compact_at: 0,
        }
    }
}

impl<T: ShardEntry> ShardBuf<T> {
    /// Buffers below this never self-compact: the merge sorts their tail
    /// once anyway, and compacting small growing buffers costs more than it
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

    /// Leaves the buffer sorted by key with equal keys folded by
    /// [`ShardEntry::absorb`]: sorts and folds only the tail pushed since
    /// the last compaction, then merges it into the already sorted prefix.
    pub fn compact(&mut self) {
        if self.sorted == self.entries.len() {
            return;
        }
        // (`split_off(0)` would allocate a second buffer of this capacity.)
        let mut tail = if self.sorted == 0 {
            std::mem::take(&mut self.entries)
        } else {
            self.entries.split_off(self.sorted)
        };
        sort_fold(&mut tail);
        self.entries = merge_fold(std::mem::take(&mut self.entries), tail);
        self.sorted = self.entries.len();
    }

    /// Compacts and returns the entries, sorted by key with one entry per
    /// distinct key.
    pub fn into_sorted(mut self) -> Vec<T> {
        self.compact();
        self.entries
    }

    /// Merges the per-worker buffers of one bucket: compacts every piece
    /// into a sorted run and merges the runs, returning the bucket's entries
    /// sorted by key with exactly one entry per distinct key (see the module
    /// docs for the full contract).
    pub fn merge(pieces: Vec<ShardBuf<T>>) -> Vec<T> {
        // Fault-injection site, once per bucket: a worker panicking
        // mid-merge-fold, the hardest point for a dispatcher to recover
        // from (partial bucket state on other workers).
        failpoints::fail_point!("merge-fold");
        let mut runs: Vec<Vec<T>> = pieces.into_iter().map(ShardBuf::into_sorted).collect();
        // Pairwise rounds, so an entry passes through ⌈log2(pieces)⌉ two-way
        // merges however many workers fed the bucket.
        while runs.len() > 1 {
            let mut halved = Vec::with_capacity(runs.len().div_ceil(2));
            let mut pairs = runs.into_iter();
            while let Some(a) = pairs.next() {
                halved.push(match pairs.next() {
                    Some(b) => merge_fold(a, b),
                    None => a,
                });
            }
            runs = halved;
        }
        runs.pop().unwrap_or_default()
    }
}

/// Sorts `entries` by key and folds equal-key runs in place with
/// [`ShardEntry::absorb`] — what a [`ShardBuf`] does to its unsorted tail,
/// exposed for callers folding scratch vectors of their own.
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

/// Merges two runs that are each sorted by key with one entry per key into
/// one such run, folding a key present in both with [`ShardEntry::absorb`].
/// Entries are moved, never cloned.
fn merge_fold<T: ShardEntry>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    let (mut head_a, mut head_b) = (a.next(), b.next());
    loop {
        match (head_a, head_b) {
            (Some(mut x), Some(mut y)) => match x.key().cmp(y.key()) {
                Ordering::Less => {
                    out.push(x);
                    (head_a, head_b) = (a.next(), Some(y));
                }
                Ordering::Greater => {
                    out.push(y);
                    (head_a, head_b) = (Some(x), b.next());
                }
                Ordering::Equal => {
                    x.absorb(&mut y);
                    out.push(x);
                    (head_a, head_b) = (a.next(), b.next());
                }
            },
            (rest_a, rest_b) => {
                out.extend(rest_a);
                out.extend(a);
                out.extend(rest_b);
                out.extend(b);
                return out;
            }
        }
    }
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

    // Property tests: every way of filling, compacting and merging buffers
    // must agree with a `BTreeMap` that folds the same pushes.

    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    /// One push: `(raw key, value)`, then `(piece, die)` — the piece the
    /// entry goes to and a die whose low rolls call `compact()` right after.
    type Op = ((u64, u64), (usize, u32));

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        vec(
            ((0u64..1 << 40, 0u64..1 << 20), (0usize..8, 0u32..1000)),
            0..14_000,
        )
    }

    /// How often an op compacts explicitly, as the die threshold out of
    /// 1000: never (only self-compaction runs), rarely, often.
    const COMPACT_BELOW: [u32; 4] = [0, 1, 20, 300];

    fn model_pairs<K: Clone>(model: &BTreeMap<K, u64>) -> Vec<(K, u64)> {
        model.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Pushes `ops` into `pieces` buffers beside one `BTreeMap` per piece,
    /// checking the memory bound after every push and the folded length
    /// after every explicit `compact()`; then `into_sorted` of each piece
    /// must equal its model and `merge` of all pieces the models' union.
    /// Comparing with the map's iteration order is what asserts strictly
    /// ascending keys, one entry per key.
    fn check_against_model<T>(
        ops: &[Op],
        pieces: usize,
        key_space: u64,
        compact_below: u32,
        entry: impl Fn(u64, u64) -> T,
        value: impl Fn(&T) -> u64,
        combine: impl Fn(u64, u64) -> u64,
    ) -> Result<(), TestCaseError>
    where
        T: ShardEntry + Clone,
        T::Key: Clone + Debug,
    {
        let fold = |model: &mut BTreeMap<T::Key, u64>, key: &T::Key, v: u64| {
            model
                .entry(key.clone())
                .and_modify(|old| *old = combine(*old, v))
                .or_insert(v);
        };
        let pairs = |run: &[T]| -> Vec<(T::Key, u64)> {
            run.iter().map(|e| (e.key().clone(), value(e))).collect()
        };
        let mut bufs: Vec<ShardBuf<T>> = (0..pieces).map(|_| ShardBuf::default()).collect();
        let mut models: Vec<BTreeMap<T::Key, u64>> = vec![BTreeMap::new(); pieces];
        for &((raw, v), (piece, die)) in ops {
            let (buf, model) = (&mut bufs[piece % pieces], &mut models[piece % pieces]);
            let e = entry(raw % key_space, v);
            fold(model, e.key(), value(&e));
            buf.push(e);
            prop_assert!(
                buf.len() <= 2 * model.len() + ShardBuf::<T>::COMPACT_FLOOR,
                "{} entries buffered for {} distinct keys",
                buf.len(),
                model.len()
            );
            if die < compact_below {
                buf.compact();
                prop_assert_eq!(buf.len(), model.len());
            }
        }
        let mut union = BTreeMap::new();
        for (buf, model) in bufs.iter().zip(&models) {
            prop_assert_eq!(pairs(&buf.clone().into_sorted()), model_pairs(model));
            for (key, &v) in model {
                fold(&mut union, key, v);
            }
        }
        prop_assert_eq!(pairs(&ShardBuf::merge(bufs)), model_pairs(&union));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn counted_u64_keys_agree_with_the_model(
            ops in ops(),
            pieces in 1usize..=8,
            key_space in 1u64..=9000,
            compaction in 0usize..4,
        ) {
            check_against_model(
                &ops,
                pieces,
                key_space,
                COMPACT_BELOW[compaction],
                CountEntry::new,
                |e| e.count,
                |a, b| a + b,
            )?;
        }

        #[test]
        fn counted_non_copy_keys_agree_with_the_model(
            ops in ops(),
            pieces in 1usize..=8,
            key_space in 1u64..=9000,
            compaction in 0usize..4,
        ) {
            check_against_model(
                &ops,
                pieces,
                key_space,
                COMPACT_BELOW[compaction],
                |k, v| CountEntry::new(vec![(k / 7) as u32; 1 + (k % 3) as usize], v),
                |e| e.count,
                |a, b| a + b,
            )?;
        }

        #[test]
        fn merge_fold_equals_sort_fold_of_the_concatenation(
            a in vec((0u64..400, 1u64..9), 0..300),
            b in vec((0u64..400, 1u64..9), 0..300),
        ) {
            // Owned keys: the merge must move entries, folding some.
            let run = |pairs: &[(u64, u64)]| {
                let mut run: Vec<CountEntry<Vec<u32>>> = pairs
                    .iter()
                    .map(|&(k, c)| CountEntry::new(vec![(k / 20) as u32, (k % 20) as u32], c))
                    .collect();
                sort_fold(&mut run);
                run
            };
            let (a, b) = (run(&a), run(&b));
            let mut expected: Vec<_> = a.iter().chain(&b).cloned().collect();
            sort_fold(&mut expected);
            prop_assert_eq!(merge_fold(a.clone(), b.clone()), expected);
            prop_assert_eq!(merge_fold(a.clone(), Vec::new()), a);
            prop_assert_eq!(merge_fold(Vec::new(), b.clone()), b);
        }
    }
}
