//! Rule-local sequence counting (the graph-traversal phase of Figure 8).
//!
//! Every `l`-word window of the corpus is *local* to exactly one rule: the
//! deepest rule whose body the window crosses (it spans at least two elements
//! of that body, or touches a word element owned by the body).  Windows fully
//! contained in a single sub-rule occurrence are that sub-rule's
//! responsibility.  Consequently:
//!
//! * `global_count(seq) = Σ_r local_count_r(seq) × weight(r)`
//! * `count_in_file_f(seq) = Σ_r local_count_r(seq) × file_weight_r(f)`
//!   (root windows are attributed directly to the file of their segment).
//!
//! The local counts are computed once per rule — this is the reuse that makes
//! G-TADOC's sequence tasks dramatically faster than the CPU baseline, which
//! re-scans every occurrence.
//!
//! A window is read off a *pseudo-stream* assembled from the rule body using
//! only the head/tail (or full short expansion) of each sub-rule, so no
//! recursive expansion is ever needed (Figure 6).

use crate::layout::{decode_elem, DecodedElem, GpuLayout};
use crate::sequence::head_tail::HeadTail;
use gpu_sim::ThreadCtx;

/// Maximum sequence length that can be packed into a 64-bit key
/// (21 bits per word id).
pub const MAX_PACKED_LEN: usize = 3;
const WORD_BITS: u32 = 21;
const WORD_MASK: u64 = (1 << WORD_BITS) - 1;

/// Packs an `l`-word sequence into a 64-bit hash-table key.
///
/// # Panics
/// Panics if the sequence is longer than [`MAX_PACKED_LEN`] or a word id does
/// not fit in 21 bits.
pub fn pack_sequence(seq: &[u32]) -> u64 {
    assert!(
        seq.len() <= MAX_PACKED_LEN,
        "sequences longer than {MAX_PACKED_LEN} words cannot be packed into a 64-bit key"
    );
    let mut key: u64 = 1; // length tag in the high bits keeps lengths distinct
    for &w in seq {
        assert!(
            (w as u64) <= WORD_MASK,
            "word id {w} exceeds the 21-bit packing limit"
        );
        key = (key << WORD_BITS) | w as u64;
    }
    key
}

/// Inverse of [`pack_sequence`].
pub fn unpack_sequence(key: u64, l: usize) -> Vec<u32> {
    let mut out = vec![0u32; l];
    let mut k = key;
    for i in (0..l).rev() {
        out[i] = (k & WORD_MASK) as u32;
        k >>= WORD_BITS;
    }
    out
}

/// One position of the pseudo-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamItem {
    /// A word, together with the rule-body element index it came from and
    /// whether that element is a word of the rule itself (`own = true`) or a
    /// sub-rule occurrence (`own = false`).
    Word { word: u32, element: u32, own: bool },
    /// A gap no window may cross (interior of a long sub-rule, or a file
    /// splitter in the root).
    Gap,
}

/// Builds the pseudo-stream of the element range `[start, end)` of rule `r`.
fn build_stream(
    layout: &GpuLayout,
    ht: &HeadTail,
    r: u32,
    start: usize,
    end: usize,
    ctx: &mut ThreadCtx,
) -> Vec<StreamItem> {
    let mut stream = Vec::new();
    let elems = layout.elements(r);
    for (idx, raw) in elems[start..end].iter().enumerate() {
        let element = (start + idx) as u32;
        ctx.global_read(4);
        match decode_elem(*raw) {
            DecodedElem::Word(w) => stream.push(StreamItem::Word {
                word: w,
                element,
                own: true,
            }),
            DecodedElem::Rule(c) => {
                let c = c as usize;
                if let Some(full) = &ht.short_expansion[c] {
                    for &w in full {
                        stream.push(StreamItem::Word {
                            word: w,
                            element,
                            own: false,
                        });
                        ctx.global_read(4);
                    }
                } else {
                    for &w in &ht.head[c] {
                        stream.push(StreamItem::Word {
                            word: w,
                            element,
                            own: false,
                        });
                        ctx.global_read(4);
                    }
                    stream.push(StreamItem::Gap);
                    for &w in &ht.tail[c] {
                        stream.push(StreamItem::Word {
                            word: w,
                            element,
                            own: false,
                        });
                        ctx.global_read(4);
                    }
                }
            }
            DecodedElem::Splitter(_) => stream.push(StreamItem::Gap),
        }
    }
    stream
}

/// Counts the `l`-word windows of a pseudo-stream that are local to the rule,
/// invoking `emit(packed_sequence, first_element_index)` for each.
fn count_stream_windows<F: FnMut(u64, u32)>(
    stream: &[StreamItem],
    l: usize,
    ctx: &mut ThreadCtx,
    mut emit: F,
) {
    if stream.len() < l {
        return;
    }
    let mut window: Vec<(u32, u32, bool)> = Vec::with_capacity(l);
    for item in stream {
        match item {
            StreamItem::Gap => window.clear(),
            StreamItem::Word { word, element, own } => {
                if window.len() == l {
                    window.remove(0);
                }
                window.push((*word, *element, *own));
                if window.len() == l {
                    ctx.compute(l as u64);
                    // Local to this rule unless the whole window lies inside a
                    // single sub-rule occurrence.
                    let first_elem = window[0].1;
                    let same_element = window.iter().all(|&(_, e, _)| e == first_elem);
                    let any_own = window.iter().any(|&(_, _, own)| own);
                    if !same_element || any_own {
                        let words: Vec<u32> = window.iter().map(|&(w, _, _)| w).collect();
                        emit(pack_sequence(&words), first_elem);
                    }
                }
            }
        }
    }
}

/// Counts all sequences local to non-root rule `r`, invoking
/// `emit(packed_sequence)` once per occurrence.
pub fn count_rule_local_sequences<F: FnMut(u64)>(
    layout: &GpuLayout,
    ht: &HeadTail,
    r: u32,
    ctx: &mut ThreadCtx,
    mut emit: F,
) {
    let len = layout.rule_lengths[r as usize] as usize;
    let stream = build_stream(layout, ht, r, 0, len, ctx);
    count_stream_windows(&stream, ht.l, ctx, |packed, _| emit(packed));
}

/// Counts all sequences local to the root, invoking `emit(file, packed)` once
/// per occurrence; windows never cross file boundaries because splitters act
/// as gaps.
pub fn count_root_local_sequences<F: FnMut(u32, u64)>(
    layout: &GpuLayout,
    ht: &HeadTail,
    ctx: &mut ThreadCtx,
    mut emit: F,
) {
    for &(start, end, file) in &layout.root_segments {
        let stream = build_stream(layout, ht, 0, start as usize, end as usize, ctx);
        count_stream_windows(&stream, ht.l, ctx, |packed, _| emit(file, packed));
    }
}

/// A chunk of the root body assigned to one GPU thread: element range
/// `[begin, end)` within file-segment `[seg_begin, seg_end)` of file `file`.
///
/// The root is usually by far the longest rule, so G-TADOC's fine-grained
/// scheduling splits it across a thread group (Section IV-B); chunks are the
/// sequence-support realisation of that split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootChunk {
    /// First element of the chunk.
    pub begin: u32,
    /// One past the last element owned by the chunk.
    pub end: u32,
    /// End of the enclosing file segment (windows may read, but not start,
    /// past `end` up to here).
    pub seg_end: u32,
    /// File the segment belongs to.
    pub file: u32,
}

/// Splits every root segment into chunks of at most `target_elements`
/// elements.
pub fn root_chunks(layout: &GpuLayout, target_elements: usize) -> Vec<RootChunk> {
    let target = target_elements.max(1) as u32;
    let mut chunks = Vec::new();
    for &(start, end, file) in &layout.root_segments {
        let mut begin = start;
        while begin < end {
            let chunk_end = (begin + target).min(end);
            chunks.push(RootChunk {
                begin,
                end: chunk_end,
                seg_end: end,
                file,
            });
            begin = chunk_end;
        }
        if start == end {
            // Empty file: no chunk needed.
        }
    }
    chunks
}

/// Counts the root-local sequences whose first word lies in `chunk`, invoking
/// `emit(packed)` once per occurrence.  Windows may extend past the chunk's
/// own elements (up to `l-1` further elements, still within the file
/// segment), which is exactly the cross-boundary information the head/tail
/// buffers exist to provide.
pub fn count_root_chunk_sequences<F: FnMut(u64)>(
    layout: &GpuLayout,
    ht: &HeadTail,
    chunk: RootChunk,
    ctx: &mut ThreadCtx,
    mut emit: F,
) {
    let l = ht.l;
    let extended_end = (chunk.end + (l as u32).saturating_sub(1)).min(chunk.seg_end);
    let stream = build_stream(
        layout,
        ht,
        0,
        chunk.begin as usize,
        extended_end as usize,
        ctx,
    );
    count_stream_windows(&stream, l, ctx, |packed, first_element| {
        if first_element < chunk.end {
            emit(packed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::layout_from_archive;
    use crate::sequence::head_tail::init_head_tail;
    use gpu_sim::{Device, GpuSpec};
    use sequitur::compress::{compress_corpus, CompressOptions};
    use sequitur::fxhash::FxHashMap;
    use tadoc::oracle;
    use tadoc::timing::WorkStats;
    use tadoc::weights as cpu_weights;

    #[test]
    fn pack_unpack_roundtrip() {
        for seq in [
            vec![0u32],
            vec![1, 2],
            vec![5, 0, 1_000_000],
            vec![2_000_000, 7, 9],
        ] {
            let packed = pack_sequence(&seq);
            assert_eq!(unpack_sequence(packed, seq.len()), seq);
        }
    }

    #[test]
    fn packing_distinguishes_lengths_and_orders() {
        assert_ne!(pack_sequence(&[1, 2]), pack_sequence(&[2, 1]));
        assert_ne!(pack_sequence(&[0, 1]), pack_sequence(&[1]));
        assert_ne!(pack_sequence(&[0, 0, 1]), pack_sequence(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "cannot be packed")]
    fn packing_rejects_long_sequences() {
        pack_sequence(&[1, 2, 3, 4]);
    }

    /// Reconstructs global sequence counts from rule-local counts × weights
    /// and compares against the oracle.
    fn check_corpus(corpus: &[(String, String)], l: usize) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let (dag, layout) = layout_from_archive(&archive);
        let mut device = Device::new(GpuSpec::gtx_1080());
        let ht = init_head_tail(&mut device, &layout, l);
        let mut work = WorkStats::default();
        let weights = cpu_weights::rule_weights(&dag, &mut work);

        let mut counts: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        let mut ctx = ThreadCtx::detached();
        for r in 1..layout.num_rules as u32 {
            count_rule_local_sequences(&layout, &ht, r, &mut ctx, |packed| {
                *counts.entry(unpack_sequence(packed, l)).or_insert(0) += weights[r as usize];
            });
        }
        count_root_local_sequences(&layout, &ht, &mut ctx, |_file, packed| {
            *counts.entry(unpack_sequence(packed, l)).or_insert(0) += 1;
        });

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
        check_corpus(&corpus, 3);
        check_corpus(&corpus, 2);
        check_corpus(&corpus, 1);
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
    fn chunked_root_counting_equals_unchunked() {
        let shared = "p q r s t u v w x y ".repeat(12);
        let corpus = vec![
            ("a".to_string(), format!("{shared} aa bb cc dd")),
            ("b".to_string(), shared.clone()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let mut device = Device::new(GpuSpec::gtx_1080());
        for l in [2usize, 3] {
            let ht = init_head_tail(&mut device, &layout, l);
            let mut ctx = ThreadCtx::detached();
            let mut whole: FxHashMap<(u32, u64), u64> = FxHashMap::default();
            count_root_local_sequences(&layout, &ht, &mut ctx, |file, packed| {
                *whole.entry((file, packed)).or_insert(0) += 1;
            });
            for target in [1usize, 3, 7, 1000] {
                let mut chunked: FxHashMap<(u32, u64), u64> = FxHashMap::default();
                for chunk in root_chunks(&layout, target) {
                    count_root_chunk_sequences(&layout, &ht, chunk, &mut ctx, |packed| {
                        *chunked.entry((chunk.file, packed)).or_insert(0) += 1;
                    });
                }
                assert_eq!(chunked, whole, "l = {l}, chunk target = {target}");
            }
        }
    }

    #[test]
    fn root_chunks_cover_segments_exactly() {
        let corpus = vec![
            ("a".to_string(), "a b c d e f g h i j k".to_string()),
            ("b".to_string(), "x y z".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (_dag, layout) = layout_from_archive(&archive);
        let chunks = root_chunks(&layout, 4);
        // Chunks are contiguous, non-overlapping, and cover every segment.
        for &(start, end, file) in &layout.root_segments {
            let mut covered = start;
            for c in chunks.iter().filter(|c| c.file == file) {
                assert_eq!(c.begin, covered);
                assert!(c.end <= end);
                assert_eq!(c.seg_end, end);
                covered = c.end;
            }
            assert_eq!(covered, end);
        }
    }

    #[test]
    fn per_file_attribution_matches_oracle() {
        let corpus = vec![
            ("a".to_string(), "x y z x y z".to_string()),
            ("b".to_string(), "x y z".to_string()),
            ("c".to_string(), "p q r x y".to_string()),
        ];
        let l = 3;
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let (dag, layout) = layout_from_archive(&archive);
        let mut device = Device::new(GpuSpec::gtx_1080());
        let ht = init_head_tail(&mut device, &layout, l);
        let mut work = WorkStats::default();
        let fw = cpu_weights::file_weights(&archive.grammar, &dag, &mut work);

        let mut per_file: FxHashMap<(u32, Vec<u32>), u64> = FxHashMap::default();
        let mut ctx = ThreadCtx::detached();
        for r in 1..layout.num_rules as u32 {
            count_rule_local_sequences(&layout, &ht, r, &mut ctx, |packed| {
                for (&f, &occ) in &fw[r as usize] {
                    *per_file.entry((f, unpack_sequence(packed, l))).or_insert(0) += occ;
                }
            });
        }
        count_root_local_sequences(&layout, &ht, &mut ctx, |file, packed| {
            *per_file
                .entry((file, unpack_sequence(packed, l)))
                .or_insert(0) += 1;
        });

        let expected = oracle::ranked_inverted_index(&archive.grammar.expand_files(), l);
        for (seq, postings) in expected.iter() {
            for &(f, c) in postings {
                assert_eq!(
                    per_file.get(&(f, seq.to_vec())).copied().unwrap_or(0),
                    c,
                    "sequence {seq:?} in file {f}"
                );
            }
        }
        let expected_total: u64 = expected
            .iter()
            .flat_map(|(_, postings)| postings.iter().map(|&(_, c)| c))
            .sum();
        let got_total: u64 = per_file.values().sum();
        assert_eq!(got_total, expected_total);
    }
}
