//! Result types of the six CompressDirect analytics tasks.
//!
//! The same types are produced by the CPU baseline (`tadoc`), by G-TADOC
//! (`gtadoc`), and by the uncompressed baselines, which makes cross-checking
//! the three implementations trivial.
//!
//! Every result is **ordered and columnar**: a sorted key column next to its
//! value column ([`SortedTable`]), or a CSR-style key arena with offsets into
//! flat posting columns ([`PostingTable`]).  Nothing here owns a hash table —
//! the fine-grained engine's workers write their parts in these columns'
//! own layout, and it assembles the parts into columns of exactly their
//! length (`fine_grained::merge`); lookups are `O(log n)` binary searches,
//! iteration is always in ascending key order, and a serving layer can return
//! rank- or key-ordered rows as plain slices without copying.

use crate::apps::Task;
use sequitur::WordId;

/// A fixed-length word sequence (the key of sequence-sensitive tasks).
pub type Sequence = Vec<WordId>;
/// File identifier (index into the archive's file list).
pub type FileId = u32;

// ---------------------------------------------------------------------------
// Ordered columnar containers
// ---------------------------------------------------------------------------

/// A sorted key column next to its value column.
///
/// Invariant: `keys` is strictly ascending (every key distinct) and
/// `keys.len() == values.len()`.  Lookup is a binary search, iteration is in
/// ascending key order, and both columns are exposed as slices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedTable<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K: Ord, V> SortedTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from columns that are already strictly ascending by key —
    /// the zero-copy path out of a sorted-run merge.
    pub fn from_sorted_columns(keys: Vec<K>, values: Vec<V>) -> Self {
        debug_assert_eq!(keys.len(), values.len());
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly ascending"
        );
        Self { keys, values }
    }

    /// Builds from unsorted `(key, value)` pairs with distinct keys — the
    /// one-sort finalize path of the hash-based baselines.
    pub fn from_unsorted_pairs(pairs: Vec<(K, V)>) -> Self {
        let mut pairs = pairs;
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            keys.push(k);
            values.push(v);
        }
        Self::from_sorted_columns(keys, values)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted key column.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The value column (parallel to [`keys`](Self::keys)).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Binary-search lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.keys.binary_search(key).ok().map(|i| &self.values[i])
    }

    /// Iterates `(key, value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.values.iter())
    }
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

/// A CSR-style posting table: a flat, lexicographically sorted `u32` key
/// arena (`width` words per key), an offsets column, and a flat value column.
///
/// Invariants: `keys.len() == num_keys * width`, the width-sized key rows are
/// strictly ascending, `offsets.len() == num_keys + 1` with `offsets[0] == 0`
/// and `offsets[num_keys] == values.len()`.  Key `i`'s posting list is
/// `values[offsets[i]..offsets[i + 1]]`; lookup binary-searches the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingTable<V> {
    width: usize,
    keys: Vec<u32>,
    offsets: Vec<usize>,
    values: Vec<V>,
}

impl<V> Default for PostingTable<V> {
    fn default() -> Self {
        Self::empty(0)
    }
}

impl<V> PostingTable<V> {
    /// An empty table of the given key width.
    pub fn empty(width: usize) -> Self {
        Self {
            width,
            keys: Vec::new(),
            offsets: vec![0],
            values: Vec::new(),
        }
    }

    /// Builds from already-merged columns (sorted key arena + offsets +
    /// values) — the zero-copy path out of a sorted-run merge.
    pub fn from_sorted_parts(
        width: usize,
        keys: Vec<u32>,
        offsets: Vec<usize>,
        values: Vec<V>,
    ) -> Self {
        let n = offsets.len().saturating_sub(1);
        debug_assert_eq!(offsets.first().copied().unwrap_or(0), 0);
        debug_assert_eq!(offsets.last().copied().unwrap_or(0), values.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(keys.len(), n * width);
        debug_assert!(
            width == 0
                || keys
                    .chunks_exact(width)
                    .zip(keys.chunks_exact(width).skip(1))
                    .all(|(a, b)| a < b),
            "key rows must be strictly ascending"
        );
        Self {
            width,
            keys,
            offsets,
            values,
        }
    }

    /// Builds from unsorted `(key, posting-list)` rows with distinct keys —
    /// the one-sort finalize path of the hash-based baselines.
    pub fn from_unsorted_rows(width: usize, rows: Vec<(Vec<u32>, Vec<V>)>) -> Self {
        let mut rows = rows;
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(rows.len() * width);
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut values = Vec::with_capacity(rows.iter().map(|(_, v)| v.len()).sum());
        offsets.push(0);
        for (key, list) in rows {
            debug_assert_eq!(key.len(), width);
            keys.extend_from_slice(&key);
            values.extend(list);
            offsets.push(values.len());
        }
        Self {
            width,
            keys,
            offsets,
            values,
        }
    }

    /// Words per key row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total posting entries across all keys.
    pub fn total_values(&self) -> usize {
        self.values.len()
    }

    /// The `i`-th key row (ascending order).
    pub fn key_at(&self, i: usize) -> &[u32] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    /// The `i`-th posting list.
    pub fn values_at(&self, i: usize) -> &[V] {
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Binary-search lookup: the index of `key`, if present.
    pub fn find(&self, key: &[u32]) -> Option<usize> {
        find_flat_key(&self.keys, self.width, key)
    }

    /// The posting list for `key` (empty slice if absent).
    pub fn get(&self, key: &[u32]) -> &[V] {
        self.find(key).map(|i| self.values_at(i)).unwrap_or(&[])
    }

    /// Iterates `(key-row, posting-list)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &[V])> {
        (0..self.num_keys()).map(move |i| (self.key_at(i), self.values_at(i)))
    }

    /// The flat key arena.
    pub fn keys_flat(&self) -> &[u32] {
        &self.keys
    }

    /// The offsets column (`num_keys + 1` entries).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat value column.
    pub fn values_flat(&self) -> &[V] {
        &self.values
    }

    /// Row count and columns (see [`AnalyticsOutput::columns`]): the key
    /// arena, the offsets, then the values as `values` wraps them.
    fn columns<'a>(&'a self, values: fn(&'a [V]) -> Column<'a>) -> (usize, Vec<Column<'a>>) {
        let keys = Column::U32(&self.keys);
        (
            self.num_keys(),
            vec![keys, Column::Offsets(&self.offsets), values(&self.values)],
        )
    }
}

// ---------------------------------------------------------------------------
// Task results
// ---------------------------------------------------------------------------

/// *word count*: total frequency of every word across the corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WordCountResult {
    /// word → total occurrences, as a sorted word column + count column.
    pub table: SortedTable<WordId, u64>,
}

impl WordCountResult {
    /// Builds from columns already sorted by word id.
    pub fn from_sorted_columns(words: Vec<WordId>, counts: Vec<u64>) -> Self {
        Self {
            table: SortedTable::from_sorted_columns(words, counts),
        }
    }

    /// Builds from unsorted `(word, count)` pairs (one sort).
    pub fn from_unsorted_pairs(pairs: Vec<(WordId, u64)>) -> Self {
        Self {
            table: SortedTable::from_unsorted_pairs(pairs),
        }
    }

    /// Total number of word occurrences (sums all counts).
    pub fn total_occurrences(&self) -> u64 {
        self.table.values().iter().sum()
    }

    /// Number of distinct words observed.
    pub fn distinct_words(&self) -> usize {
        self.table.len()
    }

    /// Occurrences of `word` (0 if absent).
    pub fn count(&self, word: WordId) -> u64 {
        self.table.get(&word).copied().unwrap_or(0)
    }

    /// Iterates `(word, count)` in ascending word order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, u64)> + '_ {
        self.table.iter().map(|(&w, &c)| (w, c))
    }
}

/// *sort*: words ranked by total frequency (descending, ties by word id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortResult {
    /// `(word, frequency)` in rank order.
    pub ranked: Vec<(WordId, u64)>,
}

impl SortResult {
    /// Builds the ranking from a word-count result.
    pub fn from_word_count(wc: &WordCountResult) -> Self {
        let mut ranked: Vec<_> = wc.iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self { ranked }
    }

    /// The `k` most frequent words.
    pub fn top_k(&self, k: usize) -> &[(WordId, u64)] {
        &self.ranked[..k.min(self.ranked.len())]
    }
}

/// *inverted index*: word → sorted list of files containing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvertedIndexResult {
    /// word → ascending file ids, as a width-1 posting table.
    pub table: PostingTable<FileId>,
}

impl Default for InvertedIndexResult {
    fn default() -> Self {
        Self {
            table: PostingTable::empty(1),
        }
    }
}

impl InvertedIndexResult {
    /// Builds from already-merged columns sorted by word id.
    pub fn from_sorted_parts(words: Vec<u32>, offsets: Vec<usize>, files: Vec<FileId>) -> Self {
        Self {
            table: PostingTable::from_sorted_parts(1, words, offsets, files),
        }
    }

    /// Builds from unsorted `(word, files)` rows (one sort).
    pub fn from_unsorted_rows(rows: Vec<(WordId, Vec<FileId>)>) -> Self {
        Self {
            table: PostingTable::from_unsorted_rows(
                1,
                rows.into_iter().map(|(w, fs)| (vec![w], fs)).collect(),
            ),
        }
    }

    /// Number of indexed words.
    pub fn distinct_words(&self) -> usize {
        self.table.num_keys()
    }

    /// Total posting-list entries.
    pub fn total_postings(&self) -> usize {
        self.table.total_values()
    }

    /// Files containing `word` (empty slice if absent).
    pub fn files_for(&self, word: WordId) -> &[FileId] {
        self.table.get(&[word])
    }

    /// Iterates `(word, files)` in ascending word order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &[FileId])> {
        self.table.iter().map(|(k, v)| (k[0], v))
    }
}

/// *term vector*: per-file word-frequency vector, file-major CSR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermVectorResult {
    /// `offsets[f]..offsets[f + 1]` bounds file `f`'s terms.
    offsets: Vec<usize>,
    /// Flat `(word, count)` pairs, ascending by word within each file.
    terms: Vec<(WordId, u64)>,
}

impl Default for TermVectorResult {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            terms: Vec::new(),
        }
    }
}

impl TermVectorResult {
    /// Builds from one ascending `(word, count)` row per file.
    pub fn from_rows(rows: Vec<Vec<(WordId, u64)>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut terms = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        offsets.push(0);
        for row in rows {
            debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
            terms.extend(row);
            offsets.push(terms.len());
        }
        Self { offsets, terms }
    }

    /// Builds from already-flat columns: `offsets` (one entry per file plus
    /// a closing one, starting at 0, never decreasing, ending at
    /// `terms.len()`) and `terms` ascending by word within each file — the
    /// zero-copy path out of a decoder that has validated both.
    pub fn from_sorted_parts(offsets: Vec<usize>, terms: Vec<(WordId, u64)>) -> Self {
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(terms.len()));
        debug_assert!(offsets
            .windows(2)
            .all(|w| w[0] <= w[1] && terms[w[0]..w[1]].windows(2).all(|t| t[0].0 < t[1].0)));
        Self { offsets, terms }
    }

    /// Number of files covered.
    pub fn num_files(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total `(word, count)` entries across all files.
    pub fn total_terms(&self) -> usize {
        self.terms.len()
    }

    /// File `f`'s vector: ascending `(word, count)` pairs (empty if out of
    /// range).
    pub fn vector(&self, file: FileId) -> &[(WordId, u64)] {
        let f = file as usize;
        if f + 1 >= self.offsets.len() {
            return &[];
        }
        &self.terms[self.offsets[f]..self.offsets[f + 1]]
    }

    /// Frequency of `word` in `file` (0 if absent).
    pub fn frequency(&self, file: FileId, word: WordId) -> u64 {
        let v = self.vector(file);
        v.binary_search_by_key(&word, |&(w, _)| w)
            .ok()
            .map(|i| v[i].1)
            .unwrap_or(0)
    }

    /// Iterates every file's vector in file order.
    pub fn iter(&self) -> impl Iterator<Item = &[(WordId, u64)]> {
        (0..self.num_files()).map(move |f| self.vector(f as FileId))
    }
}

/// *sequence count*: global frequency of every `l`-word consecutive sequence
/// (sequences never span file boundaries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SequenceCountResult {
    /// Sequence length `l`.
    pub l: usize,
    /// Flat key arena: `l` words per sequence, lexicographically ascending.
    keys: Vec<u32>,
    /// One total count per sequence (parallel to the key rows).
    counts: Vec<u64>,
}

impl SequenceCountResult {
    /// Builds from an already-sorted flat key arena and its count column.
    pub fn from_sorted_columns(l: usize, keys: Vec<u32>, counts: Vec<u64>) -> Self {
        debug_assert_eq!(keys.len(), counts.len() * l);
        debug_assert!(
            l == 0
                || keys
                    .chunks_exact(l)
                    .zip(keys.chunks_exact(l).skip(1))
                    .all(|(a, b)| a < b)
        );
        Self { l, keys, counts }
    }

    /// Builds from unsorted `(sequence, count)` pairs (one sort).
    pub fn from_unsorted_pairs(l: usize, pairs: Vec<(Sequence, u64)>) -> Self {
        let mut pairs = pairs;
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(pairs.len() * l);
        let mut counts = Vec::with_capacity(pairs.len());
        for (seq, c) in pairs {
            debug_assert_eq!(seq.len(), l);
            keys.extend_from_slice(&seq);
            counts.push(c);
        }
        Self { l, keys, counts }
    }

    /// Number of distinct sequences.
    pub fn distinct_sequences(&self) -> usize {
        self.counts.len()
    }

    /// Whether no sequence was observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total sequence occurrences.
    pub fn total_occurrences(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Occurrences of `seq` (0 if absent).
    pub fn count(&self, seq: &[WordId]) -> u64 {
        find_flat_key(&self.keys, self.l, seq)
            .map(|i| self.counts[i])
            .unwrap_or(0)
    }

    /// The `i`-th sequence in lexicographic order.
    pub fn key_at(&self, i: usize) -> &[u32] {
        &self.keys[i * self.l..(i + 1) * self.l]
    }

    /// Iterates `(sequence, count)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u64)> {
        (0..self.counts.len()).map(move |i| (self.key_at(i), self.counts[i]))
    }
}

/// *ranked inverted index*: every `l`-word sequence → files containing it,
/// ranked by in-file frequency (descending, ties by file id).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankedInvertedIndexResult {
    /// Sequence length `l`.
    pub l: usize,
    /// sequence → `(file, count)` in rank order, as a width-`l` posting
    /// table.
    pub table: PostingTable<(FileId, u64)>,
}

impl RankedInvertedIndexResult {
    /// Builds from already-merged columns sorted by sequence.
    pub fn from_sorted_parts(
        l: usize,
        keys: Vec<u32>,
        offsets: Vec<usize>,
        postings: Vec<(FileId, u64)>,
    ) -> Self {
        Self {
            l,
            table: PostingTable::from_sorted_parts(l, keys, offsets, postings),
        }
    }

    /// Builds from unsorted `(sequence, ranked-files)` rows (one sort).
    pub fn from_unsorted_rows(l: usize, rows: Vec<(Sequence, Vec<(FileId, u64)>)>) -> Self {
        Self {
            l,
            table: PostingTable::from_unsorted_rows(l, rows),
        }
    }

    /// Number of indexed sequences.
    pub fn distinct_sequences(&self) -> usize {
        self.table.num_keys()
    }

    /// The ranked posting list for `seq` (empty if absent).
    pub fn files_for(&self, seq: &[WordId]) -> &[(FileId, u64)] {
        self.table.get(seq)
    }

    /// Iterates `(sequence, ranked-files)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &[(FileId, u64)])> {
        self.table.iter()
    }
}

/// Output of any of the six tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyticsOutput {
    /// Word count output.
    WordCount(WordCountResult),
    /// Sort output.
    Sort(SortResult),
    /// Inverted index output.
    InvertedIndex(InvertedIndexResult),
    /// Term vector output.
    TermVector(TermVectorResult),
    /// Sequence count output.
    SequenceCount(SequenceCountResult),
    /// Ranked inverted index output.
    RankedInvertedIndex(RankedInvertedIndexResult),
}

/// One column of a result table, borrowed (see [`AnalyticsOutput::columns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column<'a> {
    /// Word ids, file ids, or a key arena of `l` words per row.
    U32(&'a [u32]),
    /// Counts.
    U64(&'a [u64]),
    /// CSR offsets: one per row, then a closing one.
    Offsets(&'a [usize]),
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

    /// The sequence length `l` of a sequence task's table; `None` for the
    /// other tasks.
    pub fn sequence_length(&self) -> Option<usize> {
        match self {
            Self::SequenceCount(r) => Some(r.l),
            Self::RankedInvertedIndex(r) => Some(r.l),
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
        use Column::{Offsets, Pairs, U32, U64};
        match self {
            Self::WordCount(r) => {
                let t = &r.table;
                (t.len(), vec![U32(t.keys()), U64(t.values())])
            }
            Self::Sort(r) => (r.ranked.len(), vec![Pairs(&r.ranked)]),
            Self::InvertedIndex(r) => r.table.columns(U32),
            Self::TermVector(r) => (r.num_files(), vec![Offsets(&r.offsets), Pairs(&r.terms)]),
            Self::SequenceCount(r) => (r.counts.len(), vec![U32(&r.keys), U64(&r.counts)]),
            Self::RankedInvertedIndex(r) => r.table.columns(Pairs),
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
            Column::Offsets(v) => size_of_val(v),
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
    /// `tests/digest_stability.rs` pins the values.
    pub fn digest(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27)
        }
        match self {
            AnalyticsOutput::WordCount(r) => {
                let mut h = 1u64;
                for (w, c) in r.iter() {
                    h = mix(h, (w as u64) << 32 | c & 0xffff_ffff);
                    h = mix(h, c);
                }
                h
            }
            AnalyticsOutput::Sort(r) => {
                let mut h = 2u64;
                for &(w, c) in &r.ranked {
                    h = mix(h, w as u64);
                    h = mix(h, c);
                }
                h
            }
            AnalyticsOutput::InvertedIndex(r) => {
                let mut h = 3u64;
                for (w, files) in r.iter() {
                    h = mix(h, w as u64);
                    for &f in files {
                        h = mix(h, f as u64);
                    }
                }
                h
            }
            AnalyticsOutput::TermVector(r) => {
                let mut h = 4u64;
                for v in r.iter() {
                    for &(w, c) in v {
                        h = mix(h, w as u64);
                        h = mix(h, c);
                    }
                    h = mix(h, 0xfeed);
                }
                h
            }
            AnalyticsOutput::SequenceCount(r) => {
                let mut h = 5u64;
                for (k, c) in r.iter() {
                    for &w in k {
                        h = mix(h, w as u64);
                    }
                    h = mix(h, c);
                }
                h
            }
            AnalyticsOutput::RankedInvertedIndex(r) => {
                let mut h = 6u64;
                for (k, files) in r.iter() {
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
impl<V> PostingTable<V> {
    /// The `(length, capacity)` of the key arena, the offsets and the
    /// values.
    pub(crate) fn column_capacities(&self) -> Vec<(usize, usize)> {
        vec![
            (self.keys.len(), self.keys.capacity()),
            (self.offsets.len(), self.offsets.capacity()),
            (self.values.len(), self.values.capacity()),
        ]
    }
}

#[cfg(test)]
impl AnalyticsOutput {
    /// The `(length, capacity)` of every `Vec` this output owns, in
    /// [`columns`](Self::columns) order.
    pub(crate) fn column_capacities(&self) -> Vec<(usize, usize)> {
        fn of<T>(v: &Vec<T>) -> (usize, usize) {
            (v.len(), v.capacity())
        }
        match self {
            Self::WordCount(r) => vec![of(&r.table.keys), of(&r.table.values)],
            Self::Sort(r) => vec![of(&r.ranked)],
            Self::InvertedIndex(r) => r.table.column_capacities(),
            Self::TermVector(r) => vec![of(&r.offsets), of(&r.terms)],
            Self::SequenceCount(r) => vec![of(&r.keys), of(&r.counts)],
            Self::RankedInvertedIndex(r) => r.table.column_capacities(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(pairs: &[(u32, u64)]) -> WordCountResult {
        WordCountResult::from_unsorted_pairs(pairs.to_vec())
    }

    #[test]
    fn word_count_accessors() {
        let r = wc(&[(2, 1), (0, 5), (1, 3)]);
        assert_eq!(r.total_occurrences(), 9);
        assert_eq!(r.distinct_words(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), [(0, 5), (1, 3), (2, 1)]);
        assert_eq!(r.count(0), 5);
        assert_eq!(r.count(7), 0);
    }

    #[test]
    fn sorted_table_lookup_and_columns() {
        let t = SortedTable::from_unsorted_pairs(vec![(3u32, "c"), (1, "a"), (2, "b")]);
        assert_eq!(t.keys(), &[1, 2, 3]);
        assert_eq!(t.values(), &["a", "b", "c"]);
        assert_eq!(t.get(&2), Some(&"b"));
        assert_eq!(t.get(&9), None);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(SortedTable::<u32, u32>::new().len(), 0);
    }

    #[test]
    fn posting_table_csr_invariants() {
        let t = PostingTable::from_unsorted_rows(
            2,
            vec![(vec![4, 1], vec![9u32]), (vec![1, 2], vec![5, 6, 7])],
        );
        assert_eq!(t.num_keys(), 2);
        assert_eq!(t.key_at(0), &[1, 2]);
        assert_eq!(t.values_at(0), &[5, 6, 7]);
        assert_eq!(t.get(&[4, 1]), &[9]);
        assert_eq!(t.get(&[4, 2]), &[] as &[u32]);
        assert_eq!(t.get(&[4]), &[] as &[u32]); // wrong width
        assert_eq!(t.total_values(), 4);
        assert_eq!(t.offsets(), &[0, 3, 4]);
        assert_eq!(t.keys_flat(), &[1, 2, 4, 1]);
    }

    #[test]
    fn sort_ranks_by_frequency_then_word() {
        let r = SortResult::from_word_count(&wc(&[(5, 3), (1, 7), (2, 3)]));
        assert_eq!(r.ranked, vec![(1, 7), (2, 3), (5, 3)]);
        assert_eq!(r.top_k(2), &[(1, 7), (2, 3)]);
        assert_eq!(r.top_k(10).len(), 3);
    }

    #[test]
    fn inverted_index_lookup() {
        let r = InvertedIndexResult::from_unsorted_rows(vec![(3u32, vec![0u32, 2, 5])]);
        assert_eq!(r.files_for(3), &[0, 2, 5]);
        assert_eq!(r.files_for(9), &[] as &[u32]);
        assert_eq!(r.total_postings(), 3);
        assert_eq!(r.distinct_words(), 1);
    }

    #[test]
    fn term_vector_frequency_lookup() {
        let r = TermVectorResult::from_rows(vec![vec![(1, 4), (7, 2)], vec![]]);
        assert_eq!(r.frequency(0, 7), 2);
        assert_eq!(r.frequency(0, 2), 0);
        assert_eq!(r.frequency(1, 1), 0);
        assert_eq!(r.frequency(9, 1), 0);
        assert_eq!(r.num_files(), 2);
        assert_eq!(r.vector(0), &[(1, 4), (7, 2)]);
        assert_eq!(r.vector(1), &[] as &[(u32, u64)]);
    }

    #[test]
    fn term_vector_from_sorted_parts_is_the_flat_form_of_from_rows() {
        let rows = vec![vec![(1, 4), (7, 2)], vec![], vec![(3, 9)]];
        let flat =
            TermVectorResult::from_sorted_parts(vec![0, 2, 2, 3], vec![(1, 4), (7, 2), (3, 9)]);
        assert_eq!(flat, TermVectorResult::from_rows(rows));
        let out = AnalyticsOutput::TermVector(flat.clone());
        let (files, columns) = out.columns();
        assert_eq!(files, 3);
        assert_eq!(
            columns,
            [
                Column::Offsets(&[0, 2, 2, 3]),
                Column::Pairs(&[(1, 4), (7, 2), (3, 9)])
            ]
        );
        assert_eq!(
            TermVectorResult::from_sorted_parts(vec![0], Vec::new()),
            TermVectorResult::default()
        );
    }

    #[test]
    fn heap_bytes_counts_every_column() {
        let pair = std::mem::size_of::<(u32, u64)>();
        let word = std::mem::size_of::<usize>();
        let cases = [
            (
                AnalyticsOutput::WordCount(wc(&[(0, 5), (1, 3)])),
                2 * (4 + 8),
            ),
            (
                AnalyticsOutput::Sort(SortResult {
                    ranked: vec![(1, 7), (2, 3), (5, 3)],
                }),
                3 * pair,
            ),
            (
                AnalyticsOutput::InvertedIndex(InvertedIndexResult::from_sorted_parts(
                    vec![2, 4],
                    vec![0, 2, 3],
                    vec![0, 1, 1],
                )),
                2 * 4 + 3 * word + 3 * 4,
            ),
            (
                AnalyticsOutput::TermVector(TermVectorResult::from_rows(vec![
                    vec![(1, 4), (7, 2)],
                    vec![],
                ])),
                3 * word + 2 * pair,
            ),
            (
                AnalyticsOutput::SequenceCount(SequenceCountResult::from_sorted_columns(
                    2,
                    vec![1, 2, 1, 3],
                    vec![4, 1],
                )),
                4 * 4 + 2 * 8,
            ),
            (
                AnalyticsOutput::RankedInvertedIndex(RankedInvertedIndexResult::from_sorted_parts(
                    2,
                    vec![1, 2, 1, 3],
                    vec![0, 1, 3],
                    vec![(0, 9), (1, 3), (0, 1)],
                )),
                4 * 4 + 3 * word + 3 * pair,
            ),
        ];
        for (out, want) in cases {
            assert_eq!(out.heap_bytes(), want, "{}", out.task().name());
        }
        assert_eq!(AnalyticsOutput::WordCount(wc(&[])).heap_bytes(), 0);
    }

    #[test]
    fn sequence_count_accessors() {
        let r = SequenceCountResult::from_unsorted_pairs(
            3,
            vec![(vec![2, 3, 4], 1u64), (vec![1, 2, 3], 4u64)],
        );
        assert_eq!(r.distinct_sequences(), 2);
        assert_eq!(r.total_occurrences(), 5);
        assert_eq!(r.count(&[1, 2, 3]), 4);
        assert_eq!(r.count(&[9, 9, 9]), 0);
        assert_eq!(r.key_at(0), &[1, 2, 3]);
    }

    #[test]
    fn ranked_inverted_index_lookup() {
        let r = RankedInvertedIndexResult::from_unsorted_rows(
            2,
            vec![(vec![1, 2], vec![(3u32, 9u64), (0, 2)])],
        );
        assert_eq!(r.files_for(&[1, 2]), &[(3, 9), (0, 2)]);
        assert!(r.files_for(&[9, 9]).is_empty());
        assert_eq!(r.distinct_sequences(), 1);
    }

    #[test]
    fn empty_results_from_any_constructor_are_equal() {
        // Equality must not depend on which construction path produced an
        // empty result (cross-implementation checks compare empties too).
        assert_eq!(
            InvertedIndexResult::default(),
            InvertedIndexResult::from_unsorted_rows(Vec::new())
        );
        assert_eq!(
            TermVectorResult::default(),
            TermVectorResult::from_rows(Vec::new())
        );
        assert_eq!(
            SequenceCountResult::from_sorted_columns(3, Vec::new(), Vec::new()),
            SequenceCountResult::from_unsorted_pairs(3, Vec::new())
        );
        assert_eq!(
            RankedInvertedIndexResult::from_sorted_parts(3, Vec::new(), vec![0], Vec::new()),
            RankedInvertedIndexResult::from_unsorted_rows(3, Vec::new())
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
        assert_eq!(
            AnalyticsOutput::Sort(SortResult::default()).task(),
            Task::Sort
        );
        assert_eq!(
            AnalyticsOutput::SequenceCount(SequenceCountResult::default()).task(),
            Task::SequenceCount
        );
    }
}
