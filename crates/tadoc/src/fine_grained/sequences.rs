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

/// The widths window entries pack at: a word in `word_bits` = bits(vocab − 1),
/// a source (a rule id, or `num_rules + file` for a root segment) in
/// `source_bits` = bits(num_rules + num_files − 1), `num_files` root segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryLayout {
    word_bits: u32,
    source_bits: u32,
}

impl EntryLayout {
    /// The layout of `vocab` words and `sources` sources.
    pub(crate) fn new(vocab: usize, sources: usize) -> Self {
        let bits = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
        Self {
            word_bits: bits(vocab),
            source_bits: bits(sources),
        }
    }

    /// Whether an `l`-word window packs into one `u64` entry: its `l - 1`
    /// words after the first, then its source.
    pub(crate) fn packs(self, l: usize) -> bool {
        l.saturating_sub(1) as u64 * self.word_bits as u64 + self.source_bits as u64 <= 64
    }
}

/// A window the fill scanned, less the leading word its counting sort
/// groups by: the other words, then the source.  `Ord` is lexicographic
/// `(rest words, source)` order; `Default` is the scatter's placeholder.
pub(crate) trait WindowEntry: Ord + Send + Default {
    /// The entry of a window whose words after the first are `rest`.
    fn encode(rest: &[u32], source: u32, layout: EntryLayout) -> Self;
    /// Whether `self` and `other` are entries of the same window.
    fn same_window(&self, other: &Self, layout: EntryLayout) -> bool;
    /// The entry's source.
    fn source(&self, layout: EntryLayout) -> u32;
    /// Writes the window's words after the first into `out`.
    fn write_rest(&self, out: &mut [u32], layout: EntryLayout);
}

/// The packed entry, where the layout [`packs`](EntryLayout::packs): the
/// rest words MSB first, `word_bits` each, then the source in the low
/// `source_bits`, so ascending `u64` order is the fields' order.
impl WindowEntry for u64 {
    fn encode(rest: &[u32], source: u32, layout: EntryLayout) -> Self {
        debug_assert!(u64::from(source) >> layout.source_bits == 0);
        debug_assert!(rest.iter().all(|&w| u64::from(w) >> layout.word_bits == 0));
        let words = rest
            .iter()
            .fold(0u64, |e, &w| (e << layout.word_bits) | w as u64);
        (words << layout.source_bits) | source as u64
    }
    fn same_window(&self, other: &Self, layout: EntryLayout) -> bool {
        self >> layout.source_bits == other >> layout.source_bits
    }
    fn source(&self, layout: EntryLayout) -> u32 {
        (self & ((1u64 << layout.source_bits) - 1)) as u32
    }
    fn write_rest(&self, out: &mut [u32], layout: EntryLayout) {
        let mut words = self >> layout.source_bits;
        for slot in out.iter_mut().rev() {
            *slot = (words & ((1u64 << layout.word_bits) - 1)) as u32;
            words >>= layout.word_bits;
        }
    }
}

/// The owned entry, for windows too long to pack.
impl WindowEntry for (Sequence, u32) {
    fn encode(rest: &[u32], source: u32, _: EntryLayout) -> Self {
        (rest.to_vec(), source)
    }
    fn same_window(&self, other: &Self, _: EntryLayout) -> bool {
        self.0 == other.0
    }
    fn source(&self, _: EntryLayout) -> u32 {
        self.1
    }
    fn write_rest(&self, out: &mut [u32], _: EntryLayout) {
        out.copy_from_slice(&self.0);
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
    use proptest::collection::vec;
    use proptest::prelude::*;
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

    /// `entry` decoded into its rest words (`rest` of them) and source.
    fn decode<E: WindowEntry>(entry: &E, rest: usize, layout: EntryLayout) -> (Vec<u32>, u32) {
        let mut words = vec![0; rest];
        entry.write_rest(&mut words, layout);
        (words, entry.source(layout))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // At every word width from 1 to 21 bits, a packed entry gives back
        // its words and source, with as many words as still pack.
        #[test]
        fn packed_entries_round_trip_at_every_word_width(
            words in vec(0u32..u32::MAX, 0..64),
            sources in (1usize..=1 << 20, 0u32..u32::MAX),
        ) {
            let (sources, source) = sources;
            for word_bits in 1..=21u32 {
                let layout = EntryLayout::new(1 << word_bits, sources);
                let room = (1..=words.len()).take_while(|&n| layout.packs(n + 1)).count();
                prop_assert!(room == words.len() || !layout.packs(room + 2));
                let rest: Vec<u32> = words[..room].iter().map(|w| w % (1 << word_bits)).collect();
                let source = source % sources as u32;
                let entry = u64::encode(&rest, source, layout);
                prop_assert_eq!(decode(&entry, rest.len(), layout), (rest, source));
            }
        }

        // Ascending packed entries are ascending `(rest words, source)`, the
        // owned entries' order, and two packed entries are of the same
        // window exactly when their words are equal.
        #[test]
        fn packed_entry_order_is_word_then_source_order(
            entries in vec((vec(0u32..u32::MAX, 2..3), 0u32..u32::MAX), 0..48),
            widths in (1usize..=1 << 21, 1usize..=1 << 20),
        ) {
            let layout = EntryLayout::new(widths.0, widths.1);
            prop_assert!(layout.packs(3));
            let mut owned: Vec<(Sequence, u32)> = entries
                .into_iter()
                .map(|(words, s)| {
                    let words = words.iter().map(|w| w % widths.0 as u32).collect();
                    (words, s % widths.1 as u32)
                })
                .collect();
            let mut packed: Vec<u64> = owned.iter().map(|(w, s)| u64::encode(w, *s, layout)).collect();
            for (a, b) in packed.iter().zip(&owned).zip(packed.iter().zip(&owned).skip(1)) {
                prop_assert_eq!(a.0.same_window(b.0, layout), a.1 .0 == b.1 .0);
            }
            packed.sort_unstable();
            owned.sort_unstable();
            let decoded: Vec<_> = packed.iter().map(|e| decode(e, 2, layout)).collect();
            prop_assert_eq!(decoded, owned);
        }
    }

    /// A window packs while its rest words and source need at most 64 bits:
    /// at exactly 64 the entry holds the largest words and source, at 65 it
    /// does not pack.
    #[test]
    fn entries_pack_up_to_exactly_64_bits() {
        let exact = EntryLayout::new(1 << 21, 2);
        assert!(exact.packs(4), "3 × 21 + 1 = 64 bits");
        assert!(!exact.packs(5), "4 × 21 + 1 = 85 bits");
        let largest = vec![(1 << 21) - 1; 3];
        let entry = u64::encode(&largest, 1, exact);
        assert_eq!(entry, u64::MAX);
        assert_eq!(decode(&entry, 3, exact), (largest, 1));
        assert!(
            !EntryLayout::new(1 << 21, 3).packs(4),
            "3 × 21 + 2 = 65 bits"
        );
        assert!(
            EntryLayout::new(1 << 21, 3).packs(3),
            "2 × 21 + 2 = 44 bits"
        );
        // One word and one source need no bits at all.
        assert!(EntryLayout::new(1, 1).packs(1000));
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
