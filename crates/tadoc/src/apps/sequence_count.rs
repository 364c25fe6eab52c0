//! *sequence count* on compressed data (CPU baseline).
//!
//! The original TADOC handles sequence-sensitive tasks with a recursive
//! depth-first traversal that effectively re-materializes each file's word
//! stream while sliding an `l`-word window across it — which is why the paper
//! observes that CPU TADOC's sequence count behaves close to processing the
//! uncompressed data (Section VI-B).  This module is faithful to that design;
//! the reuse-heavy parallel redesign is G-TADOC's contribution and lives in
//! the `gtadoc` crate.

use crate::results::{CountTable, Sequence};
use crate::timing::{PhaseTimings, Timer, WorkStats};
use crate::weights::{file_segments, stream_file_words};
use sequitur::fxhash::FxHashMap;
use sequitur::{Dag, TadocArchive, WordId};

/// Runs sequence count sequentially on compressed data.
pub fn run(archive: &TadocArchive, dag: &Dag, l: usize) -> (CountTable, PhaseTimings) {
    assert!(l >= 1, "sequence length must be at least 1");
    let grammar = &archive.grammar;

    // Phase 1: initialization — result table and per-file window buffers.
    let init_timer = Timer::start();
    let mut init_work = WorkStats::default();
    let segments = file_segments(grammar);
    init_work.elements_scanned += dag.num_rules as u64;
    init_work.bytes_moved += (l as u64) * 8;
    let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
    let init = init_timer.elapsed();

    // Phase 2: traversal — DFS expansion of every file with a sliding window.
    let trav_timer = Timer::start();
    let mut trav_work = WorkStats::default();
    let mut window: Vec<WordId> = Vec::with_capacity(l);
    for &segment in &segments {
        window.clear();
        stream_file_words(grammar, segment, &mut trav_work, |w| {
            if window.len() == l {
                window.rotate_left(1);
                window.pop();
            }
            window.push(w);
            if window.len() == l {
                *counts.entry(window.clone()).or_insert(0) += 1;
            }
        });
    }
    // One table op per word: each word closes at most one window.
    trav_work.table_ops += trav_work.words_emitted;
    let traversal = trav_timer.elapsed();

    (
        CountTable::from_unsorted_pairs(l, counts.into_iter().collect()),
        PhaseTimings {
            init,
            traversal,
            init_work,
            traversal_work: trav_work,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use sequitur::compress::{compress_corpus, CompressOptions};

    fn build(corpus: &[(String, String)]) -> (TadocArchive, Dag) {
        let archive = compress_corpus(corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        (archive, dag)
    }

    #[test]
    fn matches_oracle_for_trigram_counts() {
        let corpus = vec![
            (
                "a".to_string(),
                "to be or not to be that is the question to be or not".to_string(),
            ),
            ("b".to_string(), "to be or not to be".to_string()),
        ];
        let (archive, dag) = build(&corpus);
        let (result, _) = run(&archive, &dag, 3);
        let expected = oracle::sequence_count(&archive.grammar.expand_files(), 3);
        assert_eq!(result, expected);
    }

    #[test]
    fn sequences_do_not_cross_file_boundaries() {
        let corpus = vec![
            ("a".to_string(), "x y".to_string()),
            ("b".to_string(), "z w".to_string()),
        ];
        let (archive, dag) = build(&corpus);
        let (result, _) = run(&archive, &dag, 3);
        assert!(
            result.is_empty(),
            "no file has 3 words, so no sequence may be counted"
        );
        let (result2, _) = run(&archive, &dag, 2);
        assert_eq!(result2.len(), 2, "only in-file bigrams are counted");
    }

    #[test]
    fn repeated_phrase_counts_accumulate() {
        let corpus = vec![("a".to_string(), "p q r p q r p q r".to_string())];
        let (archive, dag) = build(&corpus);
        let (result, _) = run(&archive, &dag, 3);
        let p = archive.dictionary.get("p").unwrap();
        let q = archive.dictionary.get("q").unwrap();
        let r = archive.dictionary.get("r").unwrap();
        assert_eq!(result.count(&[p, q, r]), 3);
        assert_eq!(result.counts().iter().sum::<u64>(), 7);
    }

    #[test]
    fn different_lengths_are_supported() {
        let corpus = vec![("a".to_string(), "a b c d e a b c d e".to_string())];
        let (archive, dag) = build(&corpus);
        for l in 1..=5 {
            let (result, _) = run(&archive, &dag, l);
            let expected = oracle::sequence_count(&archive.grammar.expand_files(), l);
            assert_eq!(result, expected, "length {l}");
        }
    }
}
