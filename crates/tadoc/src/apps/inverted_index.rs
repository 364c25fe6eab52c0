//! *inverted index* on compressed data: top-down propagation of file
//! information (per-file rule weights), then each rule contributes its local
//! words to the posting lists of every file it occurs in.

use crate::results::{FileId, PostingTable};
use crate::timing::{PhaseTimings, Timer, WorkStats};
use crate::weights::{file_segments, file_weights};
use sequitur::fxhash::{FxHashMap, FxHashSet};
use sequitur::{Dag, Symbol, TadocArchive, WordId};

/// Runs inverted index sequentially on compressed data.
pub fn run(archive: &TadocArchive, dag: &Dag) -> (PostingTable<FileId>, PhaseTimings) {
    let grammar = &archive.grammar;

    // Phase 1: initialization — file segments of the root and per-rule file
    // weights (the "file information" transmitted from the root downward).
    let init_timer = Timer::start();
    let mut init_work = WorkStats::default();
    let segments = file_segments(grammar);
    let fw = file_weights(grammar, dag, &mut init_work);
    let init = init_timer.elapsed();

    // Phase 2: traversal — gather word → file-set postings.
    let trav_timer = Timer::start();
    let mut trav_work = WorkStats::default();
    let mut sets: FxHashMap<WordId, FxHashSet<FileId>> = FxHashMap::default();

    // Words that appear directly in the root belong to the file of their
    // segment.
    let root = grammar.root();
    for (fid, &(start, end)) in segments.iter().enumerate() {
        for sym in &root[start..end] {
            trav_work.elements_scanned += 1;
            if let Symbol::Word(w) = *sym {
                sets.entry(w).or_default().insert(fid as FileId);
                trav_work.table_ops += 1;
            }
        }
    }

    // Every other rule contributes its local words to every file it occurs in.
    for (r, rule_fw) in fw.iter().enumerate().skip(1) {
        if rule_fw.is_empty() {
            continue;
        }
        for &(w, _) in dag.local_words(r) {
            let entry = sets.entry(w).or_default();
            for &f in rule_fw.keys() {
                entry.insert(f);
                trav_work.table_ops += 1;
            }
        }
        trav_work.elements_scanned += archive.grammar.rule(r).len() as u64;
    }

    let rows: Vec<([WordId; 1], Vec<FileId>)> = sets
        .into_iter()
        .map(|(w, set)| {
            let mut files: Vec<FileId> = set.into_iter().collect();
            files.sort_unstable();
            trav_work.bytes_moved += files.len() as u64 * 4;
            ([w], files)
        })
        .collect();
    let traversal = trav_timer.elapsed();

    (
        PostingTable::from_unsorted_rows(1, rows),
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
    fn matches_oracle_on_shared_content() {
        let corpus = vec![
            (
                "a".to_string(),
                "shared phrase one two three alpha".to_string(),
            ),
            (
                "b".to_string(),
                "shared phrase one two three beta".to_string(),
            ),
            (
                "c".to_string(),
                "completely different words here".to_string(),
            ),
            (
                "d".to_string(),
                "shared phrase one two three alpha".to_string(),
            ),
        ];
        let (archive, dag) = build(&corpus);
        let (result, _) = run(&archive, &dag);
        let expected = oracle::inverted_index(&archive.grammar.expand_files());
        assert_eq!(result, expected);
    }

    #[test]
    fn word_unique_to_one_file_has_single_posting() {
        let corpus = vec![
            (
                "a".to_string(),
                "common text common text special".to_string(),
            ),
            ("b".to_string(), "common text common text".to_string()),
        ];
        let (archive, dag) = build(&corpus);
        let (result, _) = run(&archive, &dag);
        let special = archive.dictionary.get("special").unwrap();
        assert_eq!(result.get(&[special]), &[0]);
        let common = archive.dictionary.get("common").unwrap();
        assert_eq!(result.get(&[common]), &[0, 1]);
    }

    #[test]
    fn posting_lists_are_sorted_and_deduplicated() {
        let corpus: Vec<(String, String)> = (0..10)
            .map(|i| (format!("f{i}"), "same same same content".to_string()))
            .collect();
        let (archive, dag) = build(&corpus);
        let (result, _) = run(&archive, &dag);
        for files in result.csr().rows() {
            let mut sorted = files.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, files);
            assert_eq!(files.len(), 10);
        }
    }
}
