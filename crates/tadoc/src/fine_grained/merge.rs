//! Hash-free k-way merge of per-shard sorted runs into ordered columns.
//!
//! The sharded global merge ([`super`], step 3 of the module design) leaves
//! each task holding one sorted, duplicate-free run per shard: shards
//! partition the key space by hash, so the runs are disjoint but
//! *interleaved* in key order.  Historically the finalizer folded them into
//! an `FxHashMap` — one hash insert per distinct key, plus a full clone +
//! sort in every consumer that needed order (`digest`, oracle comparison,
//! serving).  This module replaces that step with a k-way merge straight
//! into the ordered columnar forms of [`crate::results`]
//! ([`SortedTable`](crate::results::SortedTable) /
//! [`PostingTable`](crate::results::PostingTable)): zero hash probes after
//! the traversal phase, and the output is already in the representation
//! every consumer wants.
//!
//! Two strategies, picked by key type:
//!
//! * [`kway_merge_rows`] — serial, move-based, for any `K: Ord` (the
//!   `Sequence` fallback when windows don't fit the packed 64-bit key).
//!   Stable: equal keys keep ascending run order, which makes it
//!   behaviourally identical to the concat + stable-sort reference the
//!   property tests compare against.  Shard runs are duplicate-free and
//!   disjoint, so stability is unobservable on the engine path — it matters
//!   only for the reference semantics.
//! * [`par_merge_rows`] / [`par_merge_postings`] — parallel, for `Copy`
//!   scalar keys (the hot paths: `u32` words, packed `u64` sequences).  The
//!   output key range is split into one contiguous segment per pool worker
//!   by sampling splitter keys from the runs; each worker binary-searches
//!   its segment bounds into every run ([`slice::partition_point`]) and
//!   merges its segment independently, so the finalize step scales with the
//!   same pool the traversal used.  Segment outputs concatenate in key
//!   order — the per-segment merges *are* the merge, the final assembly is
//!   run concatenation.

use super::exec::WorkerPool;

/// Below this many total elements a parallel merge would be all overhead;
/// merge serially on the calling worker instead.
const PAR_MERGE_MIN_ELEMENTS: usize = 4096;

/// Serial k-way merge of sorted runs, moving elements (no `Copy` or `Clone`
/// bound — `Sequence` keys are moved, never cloned).  Equal keys are emitted
/// in ascending run order, so the result equals concatenating all runs and
/// stable-sorting by key.
pub fn kway_merge_rows<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut runs: Vec<Vec<(K, V)>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() == 1 {
        return runs.remove(0);
    }
    // Reverse each run so the next unmerged element is `last()` and can be
    // moved out with `pop()` — a move-based merge without `Option` wrapping.
    for run in &mut runs {
        run.reverse();
    }
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some((key, _)) = run.last() {
                // `<=` keeps the earlier run on ties: stability.
                best = match best {
                    Some(b) if runs[b].last().is_some_and(|(bk, _)| bk <= key) => Some(b),
                    _ => Some(i),
                };
            }
        }
        match best {
            Some(i) => match runs[i].pop() {
                Some(row) => out.push(row),
                None => unreachable!("best run verified non-empty"),
            },
            None => break,
        }
    }
    out
}

/// Serial merge of sorted slices into `out`, copying.  Ties go to the
/// earliest slice.
fn merge_slices_into<K: Copy + Ord, V: Copy>(parts: &[&[(K, V)]], out: &mut Vec<(K, V)>) {
    let mut pos = vec![0usize; parts.len()];
    loop {
        let mut best: Option<usize> = None;
        for (i, part) in parts.iter().enumerate() {
            if let Some(&(key, _)) = part.get(pos[i]) {
                best = match best {
                    Some(b) if parts[b][pos[b]].0 <= key => Some(b),
                    _ => Some(i),
                };
            }
        }
        match best {
            Some(i) => {
                out.push(parts[i][pos[i]]);
                pos[i] += 1;
            }
            None => break,
        }
    }
}

/// Picks `segments - 1` splitter keys by sampling each run at evenly spaced
/// positions and taking quantiles of the pooled sample.  Segment `j` covers
/// keys in `[splitter[j-1], splitter[j])` (first segment unbounded below,
/// last unbounded above).
fn pick_splitters<K: Copy + Ord>(run_keys: &[Vec<K>], segments: usize) -> Vec<K> {
    let mut sample: Vec<K> = Vec::new();
    for keys in run_keys {
        if keys.is_empty() {
            continue;
        }
        for j in 1..segments {
            sample.push(keys[j * keys.len() / segments]);
        }
    }
    sample.sort_unstable();
    sample.dedup();
    let mut splitters = Vec::with_capacity(segments - 1);
    for j in 1..segments {
        let idx = j * sample.len() / segments;
        if let Some(&k) = sample.get(idx) {
            if splitters.last() != Some(&k) {
                splitters.push(k);
            }
        }
    }
    splitters
}

/// Per-run segment boundaries for the given splitters: `bounds[r]` has
/// `splitters.len() + 2` entries delimiting run `r`'s slice for each
/// segment.  Equal keys never straddle a boundary (`partition_point` on
/// `key < splitter`), so segment merges are independent.
fn segment_bounds<K: Copy + Ord>(run_keys: &[Vec<K>], splitters: &[K]) -> Vec<Vec<usize>> {
    run_keys
        .iter()
        .map(|keys| {
            let mut bounds = Vec::with_capacity(splitters.len() + 2);
            bounds.push(0);
            for s in splitters {
                bounds.push(keys.partition_point(|k| k < s));
            }
            bounds.push(keys.len());
            bounds
        })
        .collect()
}

/// Parallel k-way merge of sorted `(key, value)` runs for `Copy` keys: the
/// key range is split into one segment per pool worker and the segments
/// merge concurrently.  Falls back to a serial merge for small inputs or a
/// 1-thread pool.
pub fn par_merge_rows<K, V>(runs: Vec<Vec<(K, V)>>, pool: &WorkerPool) -> Vec<(K, V)>
where
    K: Copy + Ord + Send + Sync,
    V: Copy + Send + Sync,
{
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut runs: Vec<Vec<(K, V)>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let segments = pool.threads();
    if segments == 1 || total < PAR_MERGE_MIN_ELEMENTS {
        let parts: Vec<&[(K, V)]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut out = Vec::with_capacity(total);
        merge_slices_into(&parts, &mut out);
        return out;
    }

    let run_keys: Vec<Vec<K>> = runs
        .iter()
        .map(|r| r.iter().map(|&(k, _)| k).collect())
        .collect();
    let splitters = pick_splitters(&run_keys, segments);
    let bounds = segment_bounds(&run_keys, &splitters);
    let num_segments = splitters.len() + 1;

    let pieces = pool.map_workers((0..num_segments).collect(), |_w, seg| {
        let parts: Vec<&[(K, V)]> = runs
            .iter()
            .enumerate()
            .map(|(r, run)| &run[bounds[r][seg]..bounds[r][seg + 1]])
            .collect();
        let size: usize = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(size);
        merge_slices_into(&parts, &mut out);
        out
    });

    let mut out = Vec::with_capacity(total);
    for piece in pieces {
        out.extend_from_slice(&piece);
    }
    out
}

/// One shard's posting output in columnar (CSR) form: `keys[i]`'s postings
/// are `values[offsets[i]..offsets[i + 1]]`.  `offsets` always carries the
/// leading `0`, matching [`PostingTable`](crate::results::PostingTable)'s
/// offset convention so a merged run converts without reshaping.
#[derive(Debug, Clone)]
pub struct PostingRun<K, V> {
    /// Sorted, duplicate-free keys.
    pub keys: Vec<K>,
    /// `keys.len() + 1` offsets into `values`, starting at 0.
    pub offsets: Vec<usize>,
    /// Concatenated posting lists.
    pub values: Vec<V>,
}

impl<K, V> Default for PostingRun<K, V> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            offsets: vec![0],
            values: Vec::new(),
        }
    }
}

impl<K, V> PostingRun<K, V> {
    /// Number of keys in the run.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the run holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Parallel k-way merge of posting runs for `Copy` keys, segmented exactly
/// like [`par_merge_rows`]; each worker copies whole posting lists with
/// `extend_from_slice`.  Shard runs are key-disjoint so no posting lists
/// ever need combining — a key's list passes through byte-identically.
pub fn par_merge_postings<K, V>(runs: Vec<PostingRun<K, V>>, pool: &WorkerPool) -> PostingRun<K, V>
where
    K: Copy + Ord + Send + Sync,
    V: Copy + Send + Sync,
{
    let total_keys: usize = runs.iter().map(PostingRun::len).sum();
    let total_values: usize = runs.iter().map(|r| r.values.len()).sum();
    let mut runs: Vec<PostingRun<K, V>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }

    let segments = pool.threads();
    let run_keys: Vec<Vec<K>> = runs.iter().map(|r| r.keys.clone()).collect();
    let serial = segments == 1 || total_keys + total_values < PAR_MERGE_MIN_ELEMENTS;
    let (splitters, num_segments) = if serial {
        (Vec::new(), 1)
    } else {
        let s = pick_splitters(&run_keys, segments);
        let n = s.len() + 1;
        (s, n)
    };
    let bounds = segment_bounds(&run_keys, &splitters);

    let merge_segment = |seg: usize| {
        let mut piece = PostingRun::default();
        let mut pos: Vec<usize> = (0..runs.len()).map(|r| bounds[r][seg]).collect();
        loop {
            let mut best: Option<usize> = None;
            for (r, run) in runs.iter().enumerate() {
                if pos[r] < bounds[r][seg + 1] {
                    let key = run.keys[pos[r]];
                    best = match best {
                        Some(b) if runs[b].keys[pos[b]] <= key => Some(b),
                        _ => Some(r),
                    };
                }
            }
            let Some(r) = best else { break };
            let i = pos[r];
            piece.keys.push(runs[r].keys[i]);
            piece
                .values
                .extend_from_slice(&runs[r].values[runs[r].offsets[i]..runs[r].offsets[i + 1]]);
            piece.offsets.push(piece.values.len());
            pos[r] += 1;
        }
        piece
    };

    let pieces = if serial {
        vec![merge_segment(0)]
    } else {
        pool.map_workers((0..num_segments).collect(), |_w, seg| merge_segment(seg))
    };

    let mut out = PostingRun {
        keys: Vec::with_capacity(total_keys),
        offsets: Vec::with_capacity(total_keys + 1),
        values: Vec::with_capacity(total_values),
    };
    out.offsets.clear();
    out.offsets.push(0);
    for piece in pieces {
        let base = out.values.len();
        out.keys.extend_from_slice(&piece.keys);
        out.values.extend_from_slice(&piece.values);
        out.offsets.extend(piece.offsets[1..].iter().map(|o| o + base));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fine_grained::exec::{shard_of, WorkerPool};

    /// Shards `pairs` the way the engine does, yielding per-shard sorted runs.
    fn shard_runs(pairs: &[(u32, u64)], shards: usize) -> Vec<Vec<(u32, u64)>> {
        let mut runs: Vec<Vec<(u32, u64)>> = (0..shards).map(|_| Vec::new()).collect();
        for &(k, v) in pairs {
            runs[shard_of(k as u64, shards)].push((k, v));
        }
        // Stable sort: within a run equal keys must keep input order so the
        // merged output matches a stable concat + sort reference.
        for run in &mut runs {
            run.sort_by_key(|&(k, _)| k);
        }
        runs
    }

    #[test]
    fn serial_merge_matches_concat_sort() {
        let runs = vec![
            vec![(1u32, 10u64), (5, 50)],
            vec![],
            vec![(2, 20), (3, 30), (9, 90)],
            vec![(4, 40)],
        ];
        let mut reference: Vec<(u32, u64)> = runs.iter().flatten().copied().collect();
        reference.sort_by_key(|&(k, _)| k);
        assert_eq!(kway_merge_rows(runs), reference);
    }

    #[test]
    fn serial_merge_is_stable_on_ties() {
        let runs = vec![vec![(1u32, 1u64)], vec![(1, 2)], vec![(0, 0), (1, 3)]];
        assert_eq!(
            kway_merge_rows(runs),
            vec![(0, 0), (1, 1), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn parallel_merge_matches_serial_across_pool_widths() {
        let pairs: Vec<(u32, u64)> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 7919, i as u64))
            .collect();
        let mut reference: Vec<(u32, u64)> = pairs.clone();
        reference.sort_by_key(|&(k, _)| k);
        for threads in [1, 3, 8] {
            let pool = WorkerPool::new(threads);
            let runs = shard_runs(&pairs, threads);
            let merged = par_merge_rows(runs, &pool);
            assert_eq!(merged, reference, "{threads} threads");
        }
    }

    #[test]
    fn posting_merge_concatenates_disjoint_runs_in_key_order() {
        let mut a = PostingRun::default();
        for (k, vals) in [(2u32, vec![1u32, 4]), (6, vec![0])] {
            a.keys.push(k);
            a.values.extend_from_slice(&vals);
            a.offsets.push(a.values.len());
        }
        let mut b = PostingRun::default();
        for (k, vals) in [(1u32, vec![7u32]), (4, vec![2, 3, 5])] {
            b.keys.push(k);
            b.values.extend_from_slice(&vals);
            b.offsets.push(b.values.len());
        }
        let pool = WorkerPool::new(2);
        let merged = par_merge_postings(vec![a, b], &pool);
        assert_eq!(merged.keys, vec![1, 2, 4, 6]);
        assert_eq!(merged.offsets, vec![0, 1, 3, 6, 7]);
        assert_eq!(merged.values, vec![7, 1, 4, 2, 3, 5, 0]);
    }

    #[test]
    fn posting_merge_parallel_matches_serial_on_large_input() {
        let keys: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let shards = 4;
        let mut runs: Vec<PostingRun<u32, u32>> =
            (0..shards).map(|_| PostingRun::default()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for &k in &sorted {
            let run = &mut runs[shard_of(k as u64, shards)];
            run.keys.push(k);
            for j in 0..(k % 3 + 1) {
                run.values.push(k ^ j);
            }
            run.offsets.push(run.values.len());
        }
        let wide = WorkerPool::new(8);
        let narrow = WorkerPool::new(1);
        let par = par_merge_postings(runs.clone(), &wide);
        let ser = par_merge_postings(runs, &narrow);
        assert_eq!(par.keys, ser.keys);
        assert_eq!(par.offsets, ser.offsets);
        assert_eq!(par.values, ser.values);
        assert_eq!(par.keys, sorted);
    }

    #[test]
    fn empty_and_single_run_pass_through() {
        let pool = WorkerPool::new(2);
        let merged = par_merge_rows(Vec::<Vec<(u32, u64)>>::new(), &pool);
        assert!(merged.is_empty());
        let one = par_merge_rows(vec![vec![(3u32, 1u64)], vec![]], &pool);
        assert_eq!(one, vec![(3, 1)]);
        let none = par_merge_postings(Vec::<PostingRun<u32, u32>>::new(), &pool);
        assert!(none.is_empty());
        assert_eq!(none.offsets, vec![0]);
    }
}
