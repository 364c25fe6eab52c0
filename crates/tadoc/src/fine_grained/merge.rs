//! Posting runs and their concatenation into ordered columns.
//!
//! Every window table is grouped by leading word with one counting sort
//! ([`super`], items 3 and 6 of the module design), and its passes hand
//! each worker a contiguous word range of the table, so the runs they
//! return are disjoint *and* in key order: the ordered columnar forms of
//! [`crate::results`] ([`SortedTable`](crate::results::SortedTable) /
//! [`PostingTable`](crate::results::PostingTable)) are their concatenation.
//! Row runs concatenate as they are; posting runs concatenate here, with
//! each run's offsets rebased onto the values before it.  Zero hash probes
//! and zero key comparisons after the pass.

/// One worker's posting output in columnar (CSR) form: `keys[i]`'s postings
/// are `values[offsets[i]..offsets[i + 1]]`.  `offsets` always carries the
/// leading `0`, matching [`PostingTable`](crate::results::PostingTable)'s
/// offset convention so a concatenated run converts without reshaping.
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

    /// Appends `key` with its posting list; keys must arrive ascending.
    pub fn push(&mut self, key: K, postings: &[V])
    where
        V: Copy,
    {
        self.keys.push(key);
        self.values.extend_from_slice(postings);
        self.offsets.push(self.values.len());
    }
}

/// Concatenates posting runs that are in key order — every key of a run
/// below every key of the runs after it — into one run, moving keys and
/// values and rebasing each run's offsets onto the values before it.  A
/// single run passes through untouched.
pub fn concat<K, V>(runs: Vec<PostingRun<K, V>>) -> PostingRun<K, V> {
    let mut runs = runs;
    if runs.len() == 1 {
        return runs.pop().unwrap_or_default();
    }
    let keys: usize = runs.iter().map(PostingRun::len).sum();
    let mut out = PostingRun {
        keys: Vec::with_capacity(keys),
        offsets: Vec::with_capacity(keys + 1),
        values: Vec::with_capacity(runs.iter().map(|r| r.values.len()).sum()),
    };
    out.offsets.push(0);
    for run in runs {
        let base = out.values.len();
        out.keys.extend(run.keys);
        out.values.extend(run.values);
        out.offsets
            .extend(run.offsets[1..].iter().map(|o| o + base));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A posting run of `(key, postings)` rows.
    fn run(rows: &[(u32, &[u32])]) -> PostingRun<u32, u32> {
        let mut run = PostingRun::default();
        for &(k, vals) in rows {
            run.push(k, vals);
        }
        run
    }

    #[test]
    fn serial_merge_matches_concat_sort() {
        // Owned keys (the `Sequence` fallback) are moved, never re-sorted:
        // key-range runs concatenate into the sorted order.
        let owned = |rows: &[(u32, &[u32])]| {
            let r = run(rows);
            PostingRun {
                keys: r.keys.iter().map(|&k| vec![k, k]).collect(),
                offsets: r.offsets,
                values: r.values,
            }
        };
        let merged = concat(vec![
            owned(&[(1, &[10]), (5, &[50, 51])]),
            owned(&[]),
            owned(&[(6, &[20]), (9, &[90])]),
        ]);
        assert_eq!(
            merged.keys,
            vec![vec![1, 1], vec![5, 5], vec![6, 6], vec![9, 9]]
        );
        assert_eq!(merged.offsets, vec![0, 1, 3, 4, 5]);
        assert_eq!(merged.values, vec![10, 50, 51, 20, 90]);
    }

    #[test]
    fn posting_merge_concatenates_disjoint_runs_in_key_order() {
        let a = run(&[(1, &[7]), (2, &[1, 4])]);
        let b = run(&[(4, &[2, 3, 5]), (6, &[0])]);
        let merged = concat(vec![a, b]);
        assert_eq!(merged.keys, vec![1, 2, 4, 6]);
        assert_eq!(merged.offsets, vec![0, 1, 3, 6, 7]);
        assert_eq!(merged.values, vec![7, 1, 4, 2, 3, 5, 0]);
    }

    #[test]
    fn posting_merge_parallel_matches_serial_on_large_input() {
        let mut sorted: Vec<u32> = (0..5000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 100_000)
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let postings = |k: u32| -> Vec<u32> { (0..(k % 3 + 1)).map(|j| k ^ j).collect() };
        let mut serial = PostingRun::default();
        let mut runs: Vec<PostingRun<u32, u32>> = (0..32).map(|_| PostingRun::default()).collect();
        for &k in &sorted {
            serial.push(k, &postings(k));
            runs[k as usize * 32 / 100_000].push(k, &postings(k));
        }
        assert!(runs.iter().filter(|r| !r.is_empty()).count() > 16);
        let par = concat(runs);
        assert_eq!(par.keys, serial.keys);
        assert_eq!(par.offsets, serial.offsets);
        assert_eq!(par.values, serial.values);
    }

    #[test]
    fn empty_and_single_run_pass_through() {
        let none = concat(Vec::<PostingRun<u32, u32>>::new());
        assert!(none.is_empty());
        assert_eq!(none.offsets, vec![0]);
        let empties = concat(vec![run(&[]), run(&[])]);
        assert!(empties.is_empty());
        assert_eq!(empties.offsets, vec![0]);
        let one = concat(vec![run(&[(3, &[1, 2])])]);
        assert_eq!(
            (one.keys, one.offsets, one.values),
            (vec![3], vec![0, 2], vec![1, 2])
        );
    }
}
