//! The two tables every keyed analytics answer is held in.
//!
//! A word is the `l` = 1 case of a sequence, so the six tasks need two
//! ordered columnar layouts and one ranked vector:
//!
//! * [`CountTable`] — a flat key arena of `width` words per row, rows
//!   strictly ascending, next to one count per row: `wordCount` (width 1)
//!   and `sequenceCount` (width `l`);
//! * [`PostingTable`] — the same key arena beside one [`sequitur::Csr`] of
//!   lists (`u32` offsets into a flat value column, the layout of the
//!   grammar's rule bodies and the DAG's tables too): `invertedIndex`
//!   (width 1, ascending file ids), `rankedInvertedIndex` (width `l`,
//!   `(file, count)` in rank order) and `termVector` (width 0: no keys, one
//!   row per file in file order, each row ascending `(word, count)`);
//! * `sort` keeps its `(word, count)` vector in rank order ([`rank`],
//!   [`rank_order`]).
//!
//! The same tables are produced by the CPU baseline (`tadoc`), by G-TADOC
//! (`gtadoc`), and by the uncompressed baselines, which makes cross-checking
//! the three implementations trivial.  Nothing here owns a hash table — the
//! fine-grained engine's workers write their parts in these tables' own
//! layout, and it assembles the parts into columns of exactly their length
//! (`fine_grained::merge`); lookups are `O(log n)` binary searches,
//! iteration is always in row order, and a serving layer can return rank-
//! or key-ordered rows as plain slices without copying.

use crate::apps::Task;
use sequitur::{Csr, WordId};

/// A fixed-length word sequence (the key of sequence-sensitive tasks).
pub type Sequence = Vec<WordId>;
/// File identifier (index into the archive's file list).
pub type FileId = u32;

/// Whether the `width`-word rows of `keys` are strictly ascending.
fn rows_ascending(keys: &[u32], width: usize) -> bool {
    width == 0
        || keys
            .chunks_exact(width)
            .zip(keys.chunks_exact(width).skip(1))
            .all(|(a, b)| a < b)
}

/// Binary search for a fixed-width key inside a flat `u32` key arena.
fn find_flat_key(keys: &[u32], width: usize, needle: &[u32]) -> Option<usize> {
    if width == 0 || needle.len() != width {
        return None;
    }
    let n = keys.len() / width;
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match keys[mid * width..(mid + 1) * width].cmp(needle) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Some(mid),
        }
    }
    None
}

/// A key arena of `width` words per row next to one count per row: the
/// `wordCount` table at width 1, the `sequenceCount` table at width `l`.
///
/// Invariants: `width` ≥ 1, `keys.len() == counts.len() * width`, and the
/// key rows are strictly ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountTable {
    width: usize,
    keys: Vec<u32>,
    counts: Vec<u64>,
}

impl CountTable {
    /// Builds from a key arena whose rows are already strictly ascending
    /// and its count column — the zero-copy path out of a sorted-run merge
    /// and a decoder that has validated both.
    pub fn from_sorted_columns(width: usize, keys: Vec<u32>, counts: Vec<u64>) -> Self {
        assert!(width >= 1, "a count table's rows hold at least one word");
        debug_assert_eq!(keys.len(), counts.len() * width);
        debug_assert!(
            rows_ascending(&keys, width),
            "key rows must be strictly ascending"
        );
        Self {
            width,
            keys,
            counts,
        }
    }

    /// Builds from unsorted `(key, count)` pairs with distinct keys of
    /// `width` words (one sort) — the finalize path of the hash-based
    /// baselines.  A key is any word slice, so a caller keyed by one word
    /// passes `[word]` and allocates nothing per key.
    pub fn from_unsorted_pairs<K: AsRef<[u32]> + Ord>(
        width: usize,
        mut pairs: Vec<(K, u64)>,
    ) -> Self {
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(pairs.len() * width);
        let mut counts = Vec::with_capacity(pairs.len());
        for (key, count) in pairs {
            keys.extend_from_slice(key.as_ref());
            counts.push(count);
        }
        Self::from_sorted_columns(width, keys, counts)
    }

    /// Words per key row: 1 for `wordCount`, `l` for `sequenceCount`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows (distinct keys).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table has no row.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The count column (one per key row).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The count of `key` (0 if absent or of another width).
    pub fn count(&self, key: &[u32]) -> u64 {
        find_flat_key(&self.keys, self.width, key).map_or(0, |i| self.counts[i])
    }

    /// Iterates `(key row, count)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> {
        (self.keys.chunks_exact(self.width)).zip(self.counts.iter().copied())
    }
}

/// Rank order of `(id, count)` pairs: descending count, ties by ascending
/// id — *sort*'s rows and every `rankedInvertedIndex` posting list.
pub fn rank_order(a: &(u32, u64), b: &(u32, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// *sort*'s answer from a width-1 word table: `(word, count)` by
/// descending count, ties by ascending word.
pub fn rank(words: &CountTable) -> Vec<(WordId, u64)> {
    debug_assert_eq!(words.width, 1);
    let mut ranked: Vec<_> = words.iter().map(|(w, c)| (w[0], c)).collect();
    ranked.sort_unstable_by(rank_order);
    ranked
}

/// A posting table: a flat, lexicographically sorted `u32` key arena
/// (`width` words per key) beside one [`Csr`] of lists, row `i`'s list
/// being the `i`-th CSR row.
///
/// Invariants: `keys.len() == rows * width` and the width-sized key rows
/// are strictly ascending; the CSR keeps its own (`u32` offsets from 0,
/// never decreasing, closing on its value column).  Lookup binary-searches
/// the arena.  At width 0 there is no key arena: the rows are positional
/// (term vector's files, in file order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingTable<V> {
    width: usize,
    keys: Vec<u32>,
    rows: Csr<V>,
}

impl<V> PostingTable<V> {
    /// Builds from already-merged columns (sorted key arena, `u32` CSR
    /// offsets, values) — the zero-copy path out of a sorted-run merge, a
    /// window fill and a decoder that has validated them.
    pub fn from_sorted_parts(
        width: usize,
        keys: Vec<u32>,
        offsets: Vec<u32>,
        values: Vec<V>,
    ) -> Self {
        Self::new(width, keys, Csr::from_parts(offsets, values))
    }

    /// The table of `keys` beside `rows`, one key row per CSR row.
    fn new(width: usize, keys: Vec<u32>, rows: Csr<V>) -> Self {
        debug_assert_eq!(keys.len(), rows.num_rows() * width);
        debug_assert!(
            rows_ascending(&keys, width),
            "key rows must be strictly ascending"
        );
        Self { width, keys, rows }
    }

    /// Builds from unsorted `(key, posting-list)` rows with distinct keys of
    /// `width` ≥ 1 words (one sort) — the finalize path of the hash-based
    /// baselines.  As for [`CountTable::from_unsorted_pairs`], a one-word
    /// key is passed as `[word]`.
    pub fn from_unsorted_rows<K: AsRef<[u32]> + Ord>(
        width: usize,
        mut rows: Vec<(K, Vec<V>)>,
    ) -> Self {
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(rows.len() * width);
        // Collected in place: the lists take over the rows' buffer, and
        // each key is freed as its words reach the arena.
        let lists = (rows.into_iter())
            .map(|(key, list)| {
                keys.extend_from_slice(key.as_ref());
                list
            })
            .collect();
        Self::new(width, keys, Csr::from_rows(lists))
    }

    /// Builds the width-0 table of `rows` in the order given (term vector:
    /// one row per file, in file order).
    pub fn from_rows(rows: Vec<Vec<V>>) -> Self {
        Self::new(0, Vec::new(), Csr::from_rows(rows))
    }

    /// Words per key row (0: positional rows).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.num_rows()
    }

    /// Whether the table has no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th key row (ascending order; empty at width 0).
    pub fn key_at(&self, i: usize) -> &[u32] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// The lists: row `i` is the `i`-th key row's list.
    pub fn csr(&self) -> &Csr<V> {
        &self.rows
    }

    /// The list for `key` (empty if absent or of another width).
    pub fn get(&self, key: &[u32]) -> &[V] {
        find_flat_key(&self.keys, self.width, key).map_or(&[], |i| self.rows.row(i))
    }

    /// Iterates `(key row, list)` in row order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &[V])> {
        (0..self.len()).map(move |i| (self.key_at(i), self.rows.row(i)))
    }

    /// Row count and columns (see [`AnalyticsOutput::columns`]): the key
    /// arena (none at width 0), the CSR offsets, then the values as
    /// `values` wraps them.
    fn columns<'a>(&'a self, values: fn(&'a [V]) -> Column<'a>) -> (usize, Vec<Column<'a>>) {
        let keys = (self.width > 0).then_some(Column::U32(&self.keys));
        let rest = [Column::U32(self.rows.offsets()), values(self.rows.data())];
        (self.len(), keys.into_iter().chain(rest).collect())
    }
}

/// Output of any of the six tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyticsOutput {
    /// word → total occurrences: a width-1 count table.
    WordCount(CountTable),
    /// `(word, frequency)` by descending frequency, ties by word.
    Sort(Vec<(WordId, u64)>),
    /// word → ascending files containing it: a width-1 posting table.
    InvertedIndex(PostingTable<FileId>),
    /// One ascending `(word, count)` row per file, in file order: a
    /// width-0 posting table.
    TermVector(PostingTable<(WordId, u64)>),
    /// `l`-word sequence → total occurrences (never across file
    /// boundaries): a width-`l` count table.
    SequenceCount(CountTable),
    /// `l`-word sequence → `(file, count)` ranked by count (descending,
    /// ties by file): a width-`l` posting table.
    RankedInvertedIndex(PostingTable<(FileId, u64)>),
}

/// One column of a result table, borrowed (see [`AnalyticsOutput::columns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column<'a> {
    /// Word ids, file ids, a key arena of `l` words per row, or CSR
    /// offsets (one per row, then a closing one).
    U32(&'a [u32]),
    /// Counts.
    U64(&'a [u64]),
    /// `(id, count)` pairs.
    Pairs(&'a [(u32, u64)]),
}

impl AnalyticsOutput {
    /// The task this output answers.
    pub fn task(&self) -> Task {
        match self {
            Self::WordCount(_) => Task::WordCount,
            Self::Sort(_) => Task::Sort,
            Self::InvertedIndex(_) => Task::InvertedIndex,
            Self::TermVector(_) => Task::TermVector,
            Self::SequenceCount(_) => Task::SequenceCount,
            Self::RankedInvertedIndex(_) => Task::RankedInvertedIndex,
        }
    }

    /// The sequence length `l` of a sequence task's table — its width;
    /// `None` for the other tasks.
    pub fn sequence_length(&self) -> Option<usize> {
        match self {
            Self::SequenceCount(t) => Some(t.width()),
            Self::RankedInvertedIndex(t) => Some(t.width()),
            _ => None,
        }
    }

    /// The table's row count and its columns in storage order — the one
    /// statement of each task's layout.  Rows are words, ranks, posting
    /// keys, files or sequences; a key arena holds `l` words per row and a
    /// CSR offsets column `rows + 1` entries.  The wire codec writes these
    /// columns in this order, and [`heap_bytes`](Self::heap_bytes) sums
    /// them.
    pub fn columns(&self) -> (usize, Vec<Column<'_>>) {
        use Column::{Pairs, U32, U64};
        match self {
            Self::WordCount(t) | Self::SequenceCount(t) => {
                (t.len(), vec![U32(&t.keys), U64(&t.counts)])
            }
            Self::Sort(ranked) => (ranked.len(), vec![Pairs(ranked)]),
            Self::InvertedIndex(t) => t.columns(U32),
            Self::TermVector(t) => t.columns(Pairs),
            Self::RankedInvertedIndex(t) => t.columns(Pairs),
        }
    }

    /// Bytes of column data this output holds on the heap: every column's
    /// length times its element size (spare capacity and the fixed-size
    /// struct itself are not counted).  What the engine's results cache
    /// charges an entry against its byte budget.
    pub fn heap_bytes(&self) -> usize {
        let bytes = |column| match column {
            Column::U32(v) => size_of_val(v),
            Column::U64(v) => size_of_val(v),
            Column::Pairs(v) => size_of_val(v),
        };
        self.columns().1.into_iter().map(bytes).sum()
    }

    /// Returns a small deterministic digest of the output, useful for quick
    /// equality checks in benchmarks without holding two full results.
    ///
    /// One allocation-free linear pass: every result already stores its keys
    /// in the digest's iteration order (ascending / rank order), so — unlike
    /// the hash-map era, which cloned and sorted every key per call — this
    /// only walks the columns.  The mixing function, seeds, and iteration
    /// order are unchanged from the hash-map representation, and
    /// `tests/digest_stability.rs` pins the values.  Each task keeps its
    /// own seed, so a `sequenceCount` at `l` = 1 does not digest like the
    /// `wordCount` of the same words.
    pub fn digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27)
        }
        match self {
            AnalyticsOutput::WordCount(t) => {
                let mut h = 1u64;
                for (&w, &c) in t.keys.iter().zip(&t.counts) {
                    h = mix(h, (w as u64) << 32 | c & 0xffff_ffff);
                    h = mix(h, c);
                }
                h
            }
            AnalyticsOutput::Sort(ranked) => {
                let mut h = 2u64;
                for &(w, c) in ranked {
                    h = mix(h, w as u64);
                    h = mix(h, c);
                }
                h
            }
            AnalyticsOutput::InvertedIndex(t) => {
                let mut h = 3u64;
                for (&w, files) in t.keys.iter().zip(t.rows.rows()) {
                    h = mix(h, w as u64);
                    for &f in files {
                        h = mix(h, f as u64);
                    }
                }
                h
            }
            AnalyticsOutput::TermVector(t) => {
                let mut h = 4u64;
                for v in t.rows.rows() {
                    for &(w, c) in v {
                        h = mix(h, w as u64);
                        h = mix(h, c);
                    }
                    h = mix(h, 0xfeed);
                }
                h
            }
            AnalyticsOutput::SequenceCount(t) => {
                let mut h = 5u64;
                for (k, c) in t.iter() {
                    for &w in k {
                        h = mix(h, w as u64);
                    }
                    h = mix(h, c);
                }
                h
            }
            AnalyticsOutput::RankedInvertedIndex(t) => {
                let mut h = 6u64;
                for (k, files) in t.iter() {
                    for &w in k {
                        h = mix(h, w as u64);
                    }
                    for &(f, c) in files {
                        h = mix(h, f as u64);
                        h = mix(h, c);
                    }
                }
                h
            }
        }
    }
}

#[cfg(test)]
fn capacity<T>(v: &Vec<T>) -> (usize, usize) {
    (v.len(), v.capacity())
}

#[cfg(test)]
impl<V> PostingTable<V> {
    /// The `(length, capacity)` of the key arena (none at width 0), the
    /// offsets and the values.
    pub(crate) fn column_capacities(&self) -> Vec<(usize, usize)> {
        let keys = (self.width > 0).then(|| capacity(&self.keys));
        (keys.into_iter()).chain(self.rows.capacities()).collect()
    }
}

#[cfg(test)]
impl AnalyticsOutput {
    /// The `(length, capacity)` of every `Vec` this output owns, in
    /// [`columns`](Self::columns) order.
    pub(crate) fn column_capacities(&self) -> Vec<(usize, usize)> {
        match self {
            Self::WordCount(t) | Self::SequenceCount(t) => {
                vec![capacity(&t.keys), capacity(&t.counts)]
            }
            Self::Sort(ranked) => vec![capacity(ranked)],
            Self::InvertedIndex(t) => t.column_capacities(),
            Self::TermVector(t) => t.column_capacities(),
            Self::RankedInvertedIndex(t) => t.column_capacities(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(pairs: &[(u32, u64)]) -> CountTable {
        CountTable::from_unsorted_pairs(1, pairs.iter().map(|&(w, c)| ([w], c)).collect())
    }

    #[test]
    fn word_count_accessors() {
        let r = wc(&[(2, 1), (0, 5), (1, 3)]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.counts(), &[5, 3, 1]);
        let rows: Vec<_> = r.iter().collect();
        assert_eq!(rows, [(&[0][..], 5), (&[1][..], 3), (&[2][..], 1)]);
        assert_eq!(r.count(&[0]), 5);
        assert_eq!(r.count(&[7]), 0);
        assert_eq!(r.count(&[0, 1]), 0); // wrong width
    }

    #[test]
    fn sorted_table_lookup_and_columns() {
        let t =
            CountTable::from_unsorted_pairs(2, vec![([3u32, 0], 30), ([1, 9], 10), ([1, 2], 12)]);
        assert_eq!(t.width(), 2);
        let keys: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [&[1, 2][..], &[1, 9], &[3, 0]]);
        assert_eq!(t.counts(), &[12, 10, 30]);
        assert_eq!(t.count(&[1, 9]), 10);
        assert_eq!(t.count(&[3, 1]), 0);
        assert_eq!(t.count(&[3]), 0); // wrong width
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let empty = CountTable::from_sorted_columns(2, Vec::new(), Vec::new());
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.count(&[1, 2]), 0);
    }

    #[test]
    fn posting_table_csr_invariants() {
        let t = PostingTable::from_unsorted_rows(
            2,
            vec![(vec![4, 1], vec![9u32]), (vec![1, 2], vec![5, 6, 7])],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.key_at(0), &[1, 2]);
        assert_eq!(t.csr().row(0), &[5, 6, 7]);
        assert_eq!(t.get(&[4, 1]), &[9]);
        assert_eq!(t.get(&[4, 2]), &[] as &[u32]);
        assert_eq!(t.get(&[4]), &[] as &[u32]); // wrong width
        assert_eq!(t.csr().data().len(), 4);
        assert_eq!(t.csr().offsets(), &[0, 3, 4]);
        assert_eq!(t.key_at(1), &[4, 1]);
    }

    #[test]
    fn sort_ranks_by_frequency_then_word() {
        let ranked = rank(&wc(&[(5, 3), (1, 7), (2, 3)]));
        assert_eq!(ranked, vec![(1, 7), (2, 3), (5, 3)]);
    }

    #[test]
    fn inverted_index_lookup() {
        let r = PostingTable::from_unsorted_rows(1, vec![([3u32], vec![0u32, 2, 5])]);
        assert_eq!(r.get(&[3]), &[0, 2, 5]);
        assert_eq!(r.get(&[9]), &[] as &[u32]);
        assert_eq!(r.csr().data().len(), 3);
        assert_eq!(r.len(), 1);
    }

    /// A width-0 table keeps its rows in the order given — file order —
    /// where a keyed build would sort them.
    #[test]
    fn term_vector_frequency_lookup() {
        let r = PostingTable::from_rows(vec![vec![(7, 2)], vec![], vec![(1, 4), (3, 1)]]);
        assert_eq!(r.width(), 0);
        assert_eq!(r.len(), 3);
        assert_eq!(r.csr().row(0), &[(7, 2)]);
        assert_eq!(r.csr().row(1), &[] as &[(u32, u64)]);
        assert_eq!(r.csr().row(2), &[(1, 4), (3, 1)]);
        assert_eq!(r.key_at(2), &[] as &[u32]);
        assert_eq!(r.get(&[]), &[] as &[(u32, u64)]);
    }

    #[test]
    fn term_vector_from_sorted_parts_is_the_flat_form_of_from_rows() {
        let rows = vec![vec![(1, 4), (7, 2)], vec![], vec![(3, 9)]];
        let flat = PostingTable::from_sorted_parts(
            0,
            Vec::new(),
            vec![0, 2, 2, 3],
            vec![(1, 4), (7, 2), (3, 9)],
        );
        assert_eq!(flat, PostingTable::from_rows(rows));
        let out = AnalyticsOutput::TermVector(flat.clone());
        let (files, columns) = out.columns();
        assert_eq!(files, 3);
        assert_eq!(
            columns,
            [
                Column::U32(&[0, 2, 2, 3]),
                Column::Pairs(&[(1, 4), (7, 2), (3, 9)])
            ]
        );
        assert_eq!(
            PostingTable::<(u32, u64)>::from_sorted_parts(0, Vec::new(), vec![0], Vec::new()),
            PostingTable::from_rows(Vec::new())
        );
    }

    #[test]
    fn heap_bytes_counts_every_column() {
        let pair = std::mem::size_of::<(u32, u64)>();
        let cases = [
            (
                AnalyticsOutput::WordCount(wc(&[(0, 5), (1, 3)])),
                2 * (4 + 8),
            ),
            (
                AnalyticsOutput::Sort(vec![(1, 7), (2, 3), (5, 3)]),
                3 * pair,
            ),
            (
                AnalyticsOutput::InvertedIndex(PostingTable::from_sorted_parts(
                    1,
                    vec![2, 4],
                    vec![0, 2, 3],
                    vec![0, 1, 1],
                )),
                2 * 4 + 3 * 4 + 3 * 4,
            ),
            (
                AnalyticsOutput::TermVector(PostingTable::from_rows(vec![
                    vec![(1, 4), (7, 2)],
                    vec![],
                ])),
                3 * 4 + 2 * pair,
            ),
            (
                AnalyticsOutput::SequenceCount(CountTable::from_sorted_columns(
                    2,
                    vec![1, 2, 1, 3],
                    vec![4, 1],
                )),
                4 * 4 + 2 * 8,
            ),
            (
                AnalyticsOutput::RankedInvertedIndex(PostingTable::from_sorted_parts(
                    2,
                    vec![1, 2, 1, 3],
                    vec![0, 1, 3],
                    vec![(0, 9), (1, 3), (0, 1)],
                )),
                4 * 4 + 3 * 4 + 3 * pair,
            ),
        ];
        for (out, want) in cases {
            assert_eq!(out.heap_bytes(), want, "{}", out.task().name());
        }
        assert_eq!(AnalyticsOutput::WordCount(wc(&[])).heap_bytes(), 0);
    }

    #[test]
    fn sequence_count_accessors() {
        let r =
            CountTable::from_unsorted_pairs(3, vec![(vec![2, 3, 4], 1u64), (vec![1, 2, 3], 4u64)]);
        assert_eq!(r.width(), 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.count(&[1, 2, 3]), 4);
        assert_eq!(r.count(&[9, 9, 9]), 0);
        let keys: Vec<&[u32]> = r.iter().map(|(key, _)| key).collect();
        assert_eq!(keys, [&[1, 2, 3][..], &[2, 3, 4][..]]);
    }

    #[test]
    fn ranked_inverted_index_lookup() {
        let r = PostingTable::from_unsorted_rows(2, vec![(vec![1, 2], vec![(3u32, 9u64), (0, 2)])]);
        assert_eq!(r.get(&[1, 2]), &[(3, 9), (0, 2)]);
        assert!(r.get(&[9, 9]).is_empty());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn empty_results_from_any_constructor_are_equal() {
        // Equality must not depend on which construction path produced an
        // empty result (cross-implementation checks compare empties too).
        assert_eq!(
            PostingTable::<u32>::from_sorted_parts(1, Vec::new(), vec![0], Vec::new()),
            PostingTable::from_unsorted_rows(1, Vec::<([u32; 1], _)>::new())
        );
        assert_eq!(
            CountTable::from_sorted_columns(3, Vec::new(), Vec::new()),
            CountTable::from_unsorted_pairs(3, Vec::<(Sequence, _)>::new())
        );
        assert_eq!(
            PostingTable::<(u32, u64)>::from_sorted_parts(3, Vec::new(), vec![0], Vec::new()),
            PostingTable::from_unsorted_rows(3, Vec::<(Sequence, _)>::new())
        );
    }

    #[test]
    fn digests_distinguish_different_results() {
        let a = AnalyticsOutput::WordCount(wc(&[(0, 1), (1, 2)]));
        let b = AnalyticsOutput::WordCount(wc(&[(0, 1), (1, 3)]));
        let c = AnalyticsOutput::WordCount(wc(&[(0, 1), (1, 2)]));
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn task_names() {
        assert_eq!(AnalyticsOutput::Sort(Vec::new()).task(), Task::Sort);
        let empty = CountTable::from_sorted_columns(3, Vec::new(), Vec::new());
        let out = AnalyticsOutput::SequenceCount(empty);
        assert_eq!(out.task(), Task::SequenceCount);
        assert_eq!(out.sequence_length(), Some(3));
    }
}
