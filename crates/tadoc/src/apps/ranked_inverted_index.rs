//! *ranked inverted index* on compressed data (CPU baseline): for every
//! `l`-word sequence, the list of files containing it ranked by in-file
//! frequency.  Like sequence count, the CPU baseline follows TADOC's
//! recursive traversal, so its work is proportional to the uncompressed size.

use crate::results::{rank_order, FileId, PostingTable, Sequence};
use crate::timing::{PhaseTimings, Timer, WorkStats};
use crate::weights::{file_segments, stream_file_words};
use sequitur::fxhash::FxHashMap;
use sequitur::{Dag, TadocArchive, WordId};

/// Runs ranked inverted index sequentially on compressed data.
pub fn run(
    archive: &TadocArchive,
    dag: &Dag,
    l: usize,
) -> (PostingTable<(FileId, u64)>, PhaseTimings) {
    assert!(l >= 1, "sequence length must be at least 1");
    let grammar = &archive.grammar;

    // Phase 1: initialization.
    let init_timer = Timer::start();
    let mut init_work = WorkStats::default();
    init_work.elements_scanned += dag.num_rules as u64;
    let segments = file_segments(grammar);
    let mut per_seq: FxHashMap<Sequence, FxHashMap<FileId, u64>> = FxHashMap::default();
    let init = init_timer.elapsed();

    // Phase 2: traversal — per-file sliding-window counting, then ranking.
    let trav_timer = Timer::start();
    let mut trav_work = WorkStats::default();
    let mut window: Vec<WordId> = Vec::with_capacity(l);
    for (file, &segment) in segments.iter().enumerate() {
        window.clear();
        stream_file_words(grammar, segment, &mut trav_work, |w| {
            if window.len() == l {
                window.rotate_left(1);
                window.pop();
            }
            window.push(w);
            if window.len() == l {
                *per_seq
                    .entry(window.clone())
                    .or_default()
                    .entry(file as FileId)
                    .or_insert(0) += 1;
            }
        });
    }
    trav_work.table_ops += per_seq.len() as u64;

    let rows: Vec<(Sequence, Vec<(FileId, u64)>)> = per_seq
        .into_iter()
        .map(|(seq, files)| {
            let mut ranked: Vec<(FileId, u64)> = files.into_iter().collect();
            ranked.sort_unstable_by(rank_order);
            trav_work.bytes_moved += ranked.len() as u64 * 12;
            (seq, ranked)
        })
        .collect();
    let traversal = trav_timer.elapsed();

    (
        PostingTable::from_unsorted_rows(l, rows),
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

    #[test]
    fn matches_oracle() {
        let corpus = vec![
            (
                "a".to_string(),
                "one two three one two three four".to_string(),
            ),
            ("b".to_string(), "one two three".to_string()),
            (
                "c".to_string(),
                "five six seven one two three one two three".to_string(),
            ),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag, 3);
        let expected = oracle::ranked_inverted_index(&archive.grammar.expand_files(), 3);
        assert_eq!(result, expected);
    }

    #[test]
    fn ranking_puts_most_frequent_file_first() {
        let corpus = vec![
            ("low".to_string(), "w1 w2 w3 filler filler".to_string()),
            ("high".to_string(), "w1 w2 w3 w1 w2 w3 w1 w2 w3".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag, 3);
        let seq = vec![
            archive.dictionary.get("w1").unwrap(),
            archive.dictionary.get("w2").unwrap(),
            archive.dictionary.get("w3").unwrap(),
        ];
        let ranked = result.get(&seq);
        assert_eq!(ranked[0].0, 1, "file 'high' must rank first");
        assert_eq!(ranked[0].1, 3);
        assert_eq!(ranked[1], (0, 1));
    }

    #[test]
    fn bigram_index_on_three_files() {
        let corpus = vec![
            ("a".to_string(), "a b a b".to_string()),
            ("b".to_string(), "a b".to_string()),
            ("c".to_string(), "c d".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag, 2);
        let expected = oracle::ranked_inverted_index(&archive.grammar.expand_files(), 2);
        assert_eq!(result, expected);
        assert_eq!(result.len(), 3); // (a,b), (b,a), (c,d)
    }
}
