//! *term vector* on compressed data: per-file word-frequency vectors computed
//! from per-rule local word tables weighted by per-file rule occurrences.

use crate::results::PostingTable;
use crate::timing::{PhaseTimings, Timer, WorkStats};
use crate::weights::{file_segments, file_weights};
use sequitur::fxhash::FxHashMap;
use sequitur::{Dag, Symbol, TadocArchive, WordId};

/// Runs term vector sequentially on compressed data.
pub fn run(archive: &TadocArchive, dag: &Dag) -> (PostingTable<(WordId, u64)>, PhaseTimings) {
    let grammar = &archive.grammar;

    // Phase 1: initialization — per-file accumulators and file weights.
    let init_timer = Timer::start();
    let mut init_work = WorkStats::default();
    let segments = file_segments(grammar);
    let fw = file_weights(grammar, dag, &mut init_work);
    let mut acc: Vec<FxHashMap<WordId, u64>> = vec![FxHashMap::default(); segments.len()];
    init_work.bytes_moved += segments.len() as u64 * 48;
    let init = init_timer.elapsed();

    // Phase 2: traversal.
    let trav_timer = Timer::start();
    let mut trav_work = WorkStats::default();

    // Root words attributed to their segment's file.
    let root = grammar.root();
    for (fid, &(start, end)) in segments.iter().enumerate() {
        for sym in &root[start..end] {
            trav_work.elements_scanned += 1;
            if let Symbol::Word(w) = *sym {
                *acc[fid].entry(w).or_insert(0) += 1;
                trav_work.table_ops += 1;
            }
        }
    }

    // Rule-local words scaled by the rule's per-file occurrence counts.
    for (r, rule_fw) in fw.iter().enumerate().skip(1) {
        if rule_fw.is_empty() {
            continue;
        }
        for &(w, c) in dag.local_words(r) {
            for (&f, &occurrences) in rule_fw {
                *acc[f as usize].entry(w).or_insert(0) += c as u64 * occurrences;
                trav_work.table_ops += 1;
            }
        }
        trav_work.elements_scanned += archive.grammar.rule(r).len() as u64;
    }

    let vectors: Vec<Vec<(WordId, u64)>> = acc
        .into_iter()
        .map(|m| {
            let mut v: Vec<(WordId, u64)> = m.into_iter().collect();
            v.sort_unstable();
            trav_work.bytes_moved += v.len() as u64 * 12;
            v
        })
        .collect();
    let traversal = trav_timer.elapsed();

    (
        PostingTable::from_rows(vectors),
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
            ("a".to_string(), "red green blue red green red".to_string()),
            (
                "b".to_string(),
                "red green blue red green red yellow".to_string(),
            ),
            ("c".to_string(), "yellow yellow".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag);
        let expected = oracle::term_vector(&archive.grammar.expand_files());
        assert_eq!(result, expected);
    }

    #[test]
    fn per_file_frequencies_are_attributed_correctly() {
        let corpus = vec![
            ("a".to_string(), "apple apple banana".to_string()),
            ("b".to_string(), "banana banana banana".to_string()),
        ];
        let archive = compress_corpus(&corpus, CompressOptions::default());
        let dag = Dag::from_grammar(&archive.grammar);
        let (result, _) = run(&archive, &dag);
        let apple = archive.dictionary.get("apple").unwrap();
        let banana = archive.dictionary.get("banana").unwrap();
        let mut file_a = vec![(apple, 2), (banana, 1)];
        file_a.sort_unstable();
        assert_eq!(result.csr().row(0), file_a);
        assert_eq!(result.csr().row(1), &[(banana, 3)]);
    }
}
