//! Rule-local sequence counting on real CPU threads (Figure 8).
//!
//! Every `l`-word window of the corpus is *local* to exactly one rule: the
//! deepest rule whose body the window crosses.  Windows fully contained in a
//! single sub-rule occurrence are that sub-rule's responsibility, so
//!
//! * `global_count(seq) = Σ_r local_count_r(seq) × weight(r)` and
//! * `count_in_file_f(seq) = Σ_r local_count_r(seq) × file_weight_r(f)`
//!   (root windows are attributed directly to their segment's file).
//!
//! Local counts are computed **once per rule** regardless of how often the
//! rule occurs — the reuse that makes the paper's sequence tasks two orders
//! of magnitude faster than the re-scanning CPU baseline — and the engine
//! computes them once per session and `l`, into the window table both
//! sequence tasks read (`WindowTable`).  A window is read
//! off a *pseudo-stream* assembled from the rule body using only the
//! head/tail (or full short expansion) of each sub-rule (Figure 6), so no
//! recursive expansion is ever needed.

use super::head_tail::HeadTail;
use crate::results::Sequence;
use sequitur::Symbol;

/// Maximum sequence length that can be packed into a 64-bit key
/// (21 bits per word id), matching the GPU engine's packing.
pub const MAX_PACKED_LEN: usize = 3;
const WORD_BITS: u32 = 21;
const WORD_MASK: u64 = (1 << WORD_BITS) - 1;

/// Whether `l`-word sequences over `vocabulary` distinct words fit the packed
/// 64-bit key representation.
pub fn can_pack(l: usize, vocabulary: usize) -> bool {
    (1..=MAX_PACKED_LEN).contains(&l) && vocabulary as u64 <= WORD_MASK + 1
}

/// Packs an `l`-word sequence into a 64-bit key (length-tagged so different
/// lengths never collide).
pub fn pack_sequence(seq: &[u32]) -> u64 {
    debug_assert!(seq.len() <= MAX_PACKED_LEN);
    let mut key: u64 = 1;
    for &w in seq {
        debug_assert!((w as u64) <= WORD_MASK);
        key = (key << WORD_BITS) | w as u64;
    }
    key
}

/// Inverse of [`pack_sequence`]: writes the unpacked words of `key` into
/// `out` (its length is the sequence length), allocation-free so the
/// finalizers decode a merged key column straight into a flat arena.
pub fn unpack_sequence_into(key: u64, out: &mut [u32]) {
    let mut k = key;
    for slot in out.iter_mut().rev() {
        *slot = (k & WORD_MASK) as u32;
        k >>= WORD_BITS;
    }
}

/// A sortable key for sequence windows: either the packed 64-bit form
/// (the hot path — no allocation per window) or the owned word vector
/// (when the window does not pack).  `Ord` is what the window fill sorts
/// and folds each worker's range by, and in both forms it is the order of
/// the words: the packed form is MSB-first with a uniform length tag, so
/// ascending `u64` order *is* ascending lexicographic word order for a
/// fixed `l`.  That is what lets a worker's run over a contiguous range of
/// leading words, grouped by the fill's counting sort, be a contiguous
/// slice of the answer whichever form the keys take.  `Default` is the
/// placeholder the counting sort's scatter overwrites.
pub trait SeqKey: Ord + Send + Default {
    /// Encodes a window.
    fn encode(words: &[u32]) -> Self;
    /// Writes the key's words into `out` (its length is the sequence
    /// length).
    fn write_words(&self, out: &mut [u32]);
}

impl SeqKey for u64 {
    #[inline]
    fn encode(words: &[u32]) -> Self {
        pack_sequence(words)
    }
    #[inline]
    fn write_words(&self, out: &mut [u32]) {
        unpack_sequence_into(*self, out);
    }
}

impl SeqKey for Sequence {
    #[inline]
    fn encode(words: &[u32]) -> Self {
        words.to_vec()
    }
    #[inline]
    fn write_words(&self, out: &mut [u32]) {
        out.copy_from_slice(self);
    }
}

/// An allocation-free sliding `l`-window over the pseudo-stream, fed one
/// word (or gap) at a time.
///
/// The window lives in a small ring buffer instead of a materialized
/// pseudo-stream (the tests keep that form as the reference), so counting a
/// rule or chunk touches no heap beyond the two fixed scratch vectors.  A
/// window is emitted unless it is fully contained in a single sub-rule
/// occurrence (same element, no own word).
struct WindowSlider {
    l: usize,
    /// Ring of the last `l` `(word, element, own)` items; `head` indexes the
    /// oldest.
    ring: Vec<(u32, u32, bool)>,
    head: usize,
    len: usize,
    /// Scratch the window's words are assembled into, oldest first.
    words: Vec<u32>,
}

impl WindowSlider {
    fn new(l: usize) -> Self {
        Self {
            l,
            ring: vec![(0, 0, false); l.max(1)],
            head: 0,
            len: 0,
            words: vec![0; l.max(1)],
        }
    }

    /// A gap no window may cross: interior of a long sub-rule, or a file
    /// splitter.
    #[inline]
    fn gap(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// Pushes one word and emits the completed window (if any) that ends on
    /// it.
    #[inline]
    fn word<F: FnMut(&[u32], u32)>(&mut self, word: u32, element: u32, own: bool, emit: &mut F) {
        let l = self.l;
        if self.len == l {
            self.ring[self.head] = (word, element, own);
            self.head += 1;
            if self.head == l {
                self.head = 0;
            }
        } else {
            let slot = self.head + self.len;
            self.ring[if slot >= l { slot - l } else { slot }] = (word, element, own);
            self.len += 1;
            if self.len < l {
                return;
            }
        }
        let first_elem = self.ring[self.head].1;
        let mut same_element = true;
        let mut any_own = false;
        for i in 0..l {
            let idx = self.head + i;
            let (w, e, o) = self.ring[if idx >= l { idx - l } else { idx }];
            self.words[i] = w;
            same_element &= e == first_elem;
            any_own |= o;
        }
        if !same_element || any_own {
            emit(&self.words, first_elem);
        }
    }

    /// Pushes every word of one body element (a word of the rule itself, a
    /// sub-rule's short expansion or head/gap/tail, or a splitter gap).
    #[inline]
    fn push_element<F: FnMut(&[u32], u32)>(
        &mut self,
        sym: Symbol,
        element: u32,
        ht: &HeadTail,
        emit: &mut F,
    ) {
        match sym {
            Symbol::Word(w) => self.word(w, element, true, emit),
            Symbol::Rule(c) => {
                let c = c as usize;
                if let Some(full) = ht.short_expansion(c) {
                    for &w in full {
                        self.word(w, element, false, emit);
                    }
                } else {
                    for &w in ht.head(c) {
                        self.word(w, element, false, emit);
                    }
                    self.gap();
                    for &w in ht.tail(c) {
                        self.word(w, element, false, emit);
                    }
                }
            }
            Symbol::Splitter(_) => self.gap(),
        }
    }
}

/// Counts the windows of `body` whose first word lies in the element range
/// `[begin, end)`, completing right-boundary-crossing windows with at most
/// `l - 1` *words* read from elements in `[end, limit)`.
///
/// This is the shared engine behind both whole-body counting and chunked
/// counting (root chunks and rule-body chunks): chunks of one body
/// partition its windows exactly — every window is counted by the single
/// chunk its first word falls into.
/// The boundary extension is O(`l`) words per chunk: it stops as soon as
/// `l - 1` words have been appended, a gap is reached (the interior of a
/// long sub-rule, which no window crosses anyway), or `limit` is hit —
/// unlike the earlier revision, which re-streamed up to `l - 1` whole
/// *elements* (each expanding to up to `2(l-1)` head/tail words) and slid
/// windows through them only to filter the emissions back out.
pub fn count_range_windows<F: FnMut(&[u32], u32)>(
    body: &[Symbol],
    ht: &HeadTail,
    begin: usize,
    end: usize,
    limit: usize,
    mut emit: F,
) {
    let l = ht.l;
    if l == 0 || begin >= end {
        return;
    }
    let mut slider = WindowSlider::new(l);
    // Windows may not start in the extension (it holds at most l-1 words),
    // so every emission's first word is within [begin, end) by construction;
    // the filter is a cheap guard that keeps the contract explicit.
    let mut emit_in_chunk = |words: &[u32], first_elem: u32| {
        if (first_elem as usize) < end {
            emit(words, first_elem);
        }
    };
    for (idx, &sym) in body[begin..end].iter().enumerate() {
        slider.push_element(sym, (begin + idx) as u32, ht, &mut emit_in_chunk);
    }
    // Right-boundary extension: at most l-1 further words.
    let keep = l - 1;
    let mut appended = 0usize;
    let mut element = end;
    'extension: while element < limit && appended < keep {
        match body[element] {
            Symbol::Word(w) => {
                slider.word(w, element as u32, true, &mut emit_in_chunk);
                appended += 1;
            }
            Symbol::Rule(c) => {
                let c = c as usize;
                let (source, gap_after): (&[u32], bool) = match ht.short_expansion(c) {
                    Some(full) => (full, false),
                    None => (ht.head(c), true),
                };
                for &w in source {
                    slider.word(w, element as u32, false, &mut emit_in_chunk);
                    appended += 1;
                    if appended >= keep {
                        break 'extension;
                    }
                }
                if gap_after {
                    // The long sub-rule's interior is a gap: no window that
                    // started inside the chunk survives past it.
                    break 'extension;
                }
            }
            // A splitter is a gap: no window crosses a file boundary.
            Symbol::Splitter(_) => break 'extension,
        }
        element += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fine_grained::exec::WorkerPool;
    use crate::fine_grained::head_tail::{build_head_tail, levels_top_down};
    use crate::fine_grained::{sequence_work_items, SeqItem};
    use crate::oracle;
    use crate::weights::{file_segments, rule_weights};
    use sequitur::compress::{compress_corpus, CompressOptions};
    use sequitur::fxhash::FxHashMap;
    use sequitur::Dag;

    /// One position of the pseudo-stream.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum StreamItem {
        /// A word, with the rule-body element index it came from and whether that
        /// element is a word of the rule itself (`own`) or a sub-rule occurrence.
        Word {
            /// The word id.
            word: u32,
            /// Rule-body element index the word belongs to.
            element: u32,
            /// `true` when the element is a word of the rule body itself.
            own: bool,
        },
        /// A gap no window may cross (interior of a long sub-rule, or a file
        /// splitter in the root).
        Gap,
    }

    /// Builds the pseudo-stream of the element range `[start, end)` of `body`.
    fn build_stream(body: &[Symbol], ht: &HeadTail, start: usize, end: usize) -> Vec<StreamItem> {
        let mut stream = Vec::new();
        for (idx, sym) in body[start..end].iter().enumerate() {
            let element = (start + idx) as u32;
            match *sym {
                Symbol::Word(w) => stream.push(StreamItem::Word {
                    word: w,
                    element,
                    own: true,
                }),
                Symbol::Rule(c) => {
                    let c = c as usize;
                    if let Some(full) = ht.short_expansion(c) {
                        for &w in full {
                            stream.push(StreamItem::Word {
                                word: w,
                                element,
                                own: false,
                            });
                        }
                    } else {
                        for &w in ht.head(c) {
                            stream.push(StreamItem::Word {
                                word: w,
                                element,
                                own: false,
                            });
                        }
                        stream.push(StreamItem::Gap);
                        for &w in ht.tail(c) {
                            stream.push(StreamItem::Word {
                                word: w,
                                element,
                                own: false,
                            });
                        }
                    }
                }
                Symbol::Splitter(_) => stream.push(StreamItem::Gap),
            }
        }
        stream
    }

    /// Slides an `l`-window over a *materialized* pseudo-stream, invoking
    /// `emit(words, first_element)` for every window that is local to the rule
    /// (i.e. not fully contained in a single sub-rule occurrence).
    ///
    /// The reference the streaming [`count_range_windows`] walk is tested
    /// against.
    fn count_stream_windows<F: FnMut(&[u32], u32)>(stream: &[StreamItem], l: usize, mut emit: F) {
        if l == 0 || stream.len() < l {
            return;
        }
        let mut window: Vec<(u32, u32, bool)> = Vec::with_capacity(l);
        let mut words: Vec<u32> = vec![0; l];
        for item in stream {
            match item {
                StreamItem::Gap => window.clear(),
                StreamItem::Word { word, element, own } => {
                    if window.len() == l {
                        window.remove(0);
                    }
                    window.push((*word, *element, *own));
                    if window.len() == l {
                        let first_elem = window[0].1;
                        let same_element = window.iter().all(|&(_, e, _)| e == first_elem);
                        let any_own = window.iter().any(|&(_, _, own)| own);
                        if !same_element || any_own {
                            for (slot, &(w, _, _)) in words.iter_mut().zip(window.iter()) {
                                *slot = w;
                            }
                            emit(&words, first_elem);
                        }
                    }
                }
            }
        }
    }

    /// The root's sequence work items at chunk size `target`.
    fn root_items(grammar: &sequitur::Grammar, target: usize) -> Vec<SeqItem> {
        let mut items = sequence_work_items(grammar, &file_segments(grammar), target);
        items.retain(|item| item.rule == 0);
        items
    }

    /// Counts the root-local sequences whose first word lies in `chunk`, one
    /// `emit` per occurrence.  Windows may read up to `l-1` words past the
    /// chunk (still within the file segment).
    fn count_root_chunk<F: FnMut(&[u32])>(
        root: &[Symbol],
        ht: &HeadTail,
        chunk: SeqItem,
        mut emit: F,
    ) {
        let (begin, end, limit) = (chunk.begin, chunk.end, chunk.limit);
        count_range_windows(root, ht, begin, end, limit, |words, _| emit(words));
    }

    /// Counts the sequences local to non-root rule `body`, one `emit` per
    /// occurrence.
    fn count_rule_local<F: FnMut(&[u32], u32)>(body: &[Symbol], ht: &HeadTail, emit: F) {
        count_range_windows(body, ht, 0, body.len(), body.len(), emit);
    }

    fn head_tail(archive: &sequitur::TadocArchive, dag: &Dag, l: usize) -> HeadTail {
        let levels = levels_top_down(dag);
        build_head_tail(&archive.grammar, dag, &levels, l, &WorkerPool::new(1))
    }

    /// Reconstructs global sequence counts from rule-local counts × weights
    /// and compares against the oracle.
    fn check_corpus(corpus: &[(String, String)], l: usize) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let ht = head_tail(&archive, &dag, l);
        let weights = rule_weights(&dag, &mut Default::default());

        let mut counts: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for (body, &weight) in archive.grammar.rules().zip(&weights).skip(1) {
            count_rule_local(body, &ht, |words, _| {
                *counts.entry(words.to_vec()).or_insert(0) += weight;
            });
        }
        for chunk in root_items(&archive.grammar, 5) {
            count_root_chunk(archive.grammar.root(), &ht, chunk, |words| {
                *counts.entry(words.to_vec()).or_insert(0) += 1;
            });
        }

        let expected = oracle::sequence_count(&archive.grammar.expand_files(), l);
        let expected_map: FxHashMap<Vec<u32>, u64> =
            expected.iter().map(|(k, v)| (k.to_vec(), v)).collect();
        assert_eq!(counts, expected_map, "l = {l}");
    }

    #[test]
    fn rule_local_counting_matches_oracle_on_figure_1_corpus() {
        let corpus = vec![
            (
                "fileA".to_string(),
                "w1 w2 w3 w1 w2 w4 w1 w2 w3 w1 w2 w4".to_string(),
            ),
            ("fileB".to_string(), "w1 w2 w1".to_string()),
        ];
        for l in [1, 2, 3, 4] {
            check_corpus(&corpus, l);
        }
    }

    #[test]
    fn rule_local_counting_matches_oracle_on_redundant_corpus() {
        let shared = "to be or not to be that is the question ".repeat(8);
        let corpus = vec![
            ("a".to_string(), format!("{shared} whether tis nobler")),
            ("b".to_string(), shared.clone()),
            ("c".to_string(), format!("prefix {shared}")),
        ];
        check_corpus(&corpus, 3);
        check_corpus(&corpus, 2);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for seq in [
            vec![0u32],
            vec![1, 2],
            vec![5, 0, 1_000_000],
            vec![2_000_000, 7, 9],
        ] {
            let mut unpacked = vec![0u32; seq.len()];
            unpack_sequence_into(pack_sequence(&seq), &mut unpacked);
            assert_eq!(unpacked, seq);
        }
        assert_ne!(pack_sequence(&[1, 2]), pack_sequence(&[2, 1]));
        assert_ne!(pack_sequence(&[0, 1]), pack_sequence(&[1]));
    }

    #[test]
    fn packability_bounds() {
        assert!(can_pack(3, 1 << 21));
        assert!(can_pack(1, 100));
        assert!(!can_pack(4, 100), "length above MAX_PACKED_LEN");
        assert!(!can_pack(0, 100), "zero-length windows are not packed");
        assert!(!can_pack(2, (1 << 21) + 1), "vocabulary too large");
    }

    /// The streaming [`WindowSlider`] walk must emit exactly the windows of
    /// the materialized [`build_stream`] + [`count_stream_windows`]
    /// reference, in the same order.
    #[test]
    fn streaming_windows_match_materialized_reference() {
        let shared = "m n o p q r s t ".repeat(10);
        let corpus = vec![
            ("a".to_string(), format!("{shared} one two three {shared}")),
            ("b".to_string(), format!("{shared} x")),
            ("c".to_string(), "lone".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        for l in [1usize, 2, 3, 4] {
            let ht = head_tail(&archive, &dag, l);
            for body in archive.grammar.rules() {
                let stream = build_stream(body, &ht, 0, body.len());
                let mut expected: Vec<(Vec<u32>, u32)> = Vec::new();
                count_stream_windows(&stream, l, |words, e| expected.push((words.to_vec(), e)));
                let mut got: Vec<(Vec<u32>, u32)> = Vec::new();
                count_range_windows(body, &ht, 0, body.len(), body.len(), |words, e| {
                    got.push((words.to_vec(), e))
                });
                assert_eq!(got, expected, "l = {l}");
            }
        }
    }

    /// Windows spanning a chunk boundary must be counted exactly once — by
    /// the chunk their first word falls into — for every chunking target,
    /// including target = 1 (every element its own chunk, maximal number of
    /// boundaries).
    #[test]
    fn boundary_windows_counted_exactly_once() {
        // Repetition creates sub-rules, so chunk boundaries land between
        // rule references whose heads/tails feed the boundary windows.
        let shared = "u v w x y z ".repeat(9);
        let corpus = vec![
            ("a".to_string(), format!("{shared} tail0 tail1 tail2")),
            ("b".to_string(), shared.clone()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let root = archive.grammar.root();
        for l in [2usize, 3, 4] {
            let ht = head_tail(&archive, &dag, l);
            let mut whole: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
            for chunk in root_items(&archive.grammar, usize::MAX) {
                count_root_chunk(root, &ht, chunk, |words| {
                    *whole.entry(words.to_vec()).or_insert(0) += 1;
                });
            }
            for target in [1usize, 2, 5] {
                let mut chunked: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
                for chunk in root_items(&archive.grammar, target) {
                    count_root_chunk(root, &ht, chunk, |words| {
                        *chunked.entry(words.to_vec()).or_insert(0) += 1;
                    });
                }
                assert_eq!(chunked, whole, "l = {l}, target = {target}");
            }
        }
    }

    /// Chunks of a non-root rule body partition the rule's local windows
    /// exactly, matching the whole-body count.
    #[test]
    fn chunked_rule_bodies_partition_windows_exactly() {
        let shared = "c1 c2 c3 c4 c5 c6 c7 ".repeat(8);
        let corpus = vec![
            ("a".to_string(), format!("{shared} k1 k2 {shared}")),
            ("b".to_string(), shared.clone()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        for l in [2usize, 3] {
            let ht = head_tail(&archive, &dag, l);
            for body in archive.grammar.rules().skip(1) {
                let mut whole: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
                count_rule_local(body, &ht, |words, _| {
                    *whole.entry(words.to_vec()).or_insert(0) += 1;
                });
                for target in [1usize, 2, 4] {
                    let mut chunked: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
                    let mut begin = 0usize;
                    while begin < body.len() {
                        let end = (begin + target).min(body.len());
                        count_range_windows(body, &ht, begin, end, body.len(), |words, _| {
                            *chunked.entry(words.to_vec()).or_insert(0) += 1;
                        });
                        begin = end;
                    }
                    assert_eq!(chunked, whole, "l = {l}, target = {target}");
                }
            }
        }
    }

    #[test]
    fn chunked_root_counting_equals_unchunked() {
        let shared = "p q r s t u v w x y ".repeat(12);
        let corpus = vec![
            ("a".to_string(), format!("{shared} aa bb cc dd")),
            ("b".to_string(), shared.clone()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        for l in [2usize, 3] {
            let ht = head_tail(&archive, &dag, l);
            let mut whole: FxHashMap<(u32, Vec<u32>), u64> = FxHashMap::default();
            for chunk in root_items(&archive.grammar, usize::MAX) {
                count_root_chunk(archive.grammar.root(), &ht, chunk, |words| {
                    *whole.entry((chunk.source, words.to_vec())).or_insert(0) += 1;
                });
            }
            for target in [1usize, 3, 7, 1000] {
                let mut chunked: FxHashMap<(u32, Vec<u32>), u64> = FxHashMap::default();
                for chunk in root_items(&archive.grammar, target) {
                    count_root_chunk(archive.grammar.root(), &ht, chunk, |words| {
                        *chunked.entry((chunk.source, words.to_vec())).or_insert(0) += 1;
                    });
                }
                assert_eq!(chunked, whole, "l = {l}, target = {target}");
            }
        }
    }
}
